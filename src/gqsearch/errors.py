"""Exception types shared across the package.

Every domain error is a :class:`GQSearchError`, itself a ``ValueError``.
:class:`ValidityError` is the one subclass, for the models that callers
skip outside their range instead of failing.
"""


class GQSearchError(ValueError):
    """A domain error: an input, a state or a plan this package refuses."""


class ValidityError(GQSearchError):
    """A strategy model or closed form is used outside its range of validity."""
