"""Exception types, and the input rules that the CLI and a layer both apply.

Every domain error is a :class:`GQSearchError`, itself a ``ValueError``;
:class:`ValidityError`, its one subclass, marks a model that callers skip
outside its range instead of failing.  Each rule raises a plain ``ValueError``
that names its input: `_int` reads every integer flag and a state file's N,
`_check_seed` bounds `random:<seed>`, `--seed` and `run_parallel`'s seed, and
`_check_trials` bounds `--trials` and `run_parallel`'s trials.
"""

import re


class GQSearchError(ValueError):
    """A domain error: an input, a state or a plan this package refuses."""


class ValidityError(GQSearchError):
    """A strategy model or closed form is used outside its range of validity."""


def _int(text: str) -> int:
    """int(text) for ASCII digits with an optional sign: no blanks, '_' or other digits."""
    if re.fullmatch("[+-]?[0-9]+", text) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse reports "invalid int value: ..." as for int


def _check_seed(name: str, seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {seed}")
    return seed


def _check_trials(name: str, trials: int) -> None:
    """Checked on the integer, so a count past float range ends here."""
    if not 1 <= trials <= 2**32:
        raise ValueError(f"{name} must lie in [1, 2^32], got {trials}")
