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


class NoOverlapError(GQSearchError):
    """Averaging state has zero overlap with the target subspace (v = 0)."""


class DegenerateOverlapError(GQSearchError):
    """Averaging state lies entirely in the target subspace (v = 1).

    The rotation plane degenerates: the non-target basis vector is
    undefined, so only ``alpha`` and ``w_t`` are well defined. They are
    attached to the exception for callers that can still use them.
    """

    def __init__(self, message: str, alpha: float, w_t: float):
        super().__init__(message)
        self.alpha = alpha
        self.w_t = w_t


class FlatProbabilityError(GQSearchError):
    """Success probability is constant in n (amplitude A or angle phi is 0)."""


class NeverSucceedsError(GQSearchError):
    """Per-round success probability is zero; the expected cost diverges."""


class RegimeError(GQSearchError):
    """Parameter lies outside the regime where the strategy model is valid."""


class ValidityError(GQSearchError):
    """Closed-form approximation requested outside its validity range."""


class NonTerminatingError(GQSearchError):
    """A Monte Carlo process cannot terminate (success probability 0)."""


class TrialCapError(GQSearchError):
    """A Monte Carlo trial exceeded the per-trial round cap."""
