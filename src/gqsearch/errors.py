"""Exception types shared across the package.

Everything derives from :class:`GQSearchError`, itself a ``ValueError``,
so callers may catch either the narrow or the broad class.
"""


class GQSearchError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidDimensionError(GQSearchError):
    """State dimension is zero, negative, or inconsistent between objects."""


class InvalidTargetError(GQSearchError):
    """Target index set is empty, duplicated, or out of range."""


class NonUnitStateError(GQSearchError):
    """Amplitude vector norm deviates from 1 beyond the drift guard.

    Norm drift is never repaired silently; it always surfaces here.
    """


class FlatProbabilityError(GQSearchError):
    """Success probability is constant in n (amplitude A or angle phi is 0)."""


class NeverSucceedsError(GQSearchError):
    """Per-round success probability is 0: the cost diverges, restarts never end."""


class ValidityError(GQSearchError):
    """A strategy model or closed form is used outside its range of validity."""


class TrialCapError(GQSearchError):
    """A Monte Carlo trial exceeded the per-trial round cap."""
