"""Exact simulation of the generalized amplitude-amplification iteration.

One iteration of the operator Q first flips the phase of every target basis
state (the oracle reflection) and then reflects about the averaging state
|a>.  Q maps span{s_T, s_L, a_T, a_L} to itself, where s_T and s_L are the
parts of the start state on and off the targets and a_T, a_L split the
averaging state the same way, so n iterations evolve four coefficients by
a fixed 4x4 matrix: O(N + r) once for six inner products, O(1) per step.
Success probabilities are the target weight c^H G_T c of the coefficients;
only `grover_power`, the amplitude output, builds the N-vector, once at the
end, so n iterations cost O(N + n).  The coefficients need no linear
independence of the four vectors, so s = a, r = N and v in {0, 1} take the
same path.  `gqsearch.analytic.decompose` reads the same six products
(`_target_products`), so the tests also check the closed form against the
dense loop in `tests/dense_reference.py`, which shares no code with either.

All operations are pure: they return new values and never mutate inputs.
The norm is checked after every iteration, as the quadratic form of the
coefficients with the Gram matrix, and raises instead of being repaired
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, InvalidTargetError, NonUnitStateError

# Drift beyond this raises NonUnitStateError.
NORM_TOL = 1e-9


class StateVector:
    """Unit-norm complex amplitude vector over N measurement-basis states.

    Parameters
    ----------
    amplitudes : array_like of complex
        Length-N amplitude vector; must already be unit norm.  The input
        is copied, never aliased.
    """

    __slots__ = ("dim", "amplitudes")

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise InvalidDimensionError(
                "amplitudes must be a non-empty one-dimensional array"
            )
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise NonUnitStateError(f"state norm is {nrm!r}, not 1")
        self.dim = int(amps.size)
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:  # pragma: no cover
        return f"StateVector(dim={self.dim})"


@dataclass(frozen=True)
class TargetSet:
    """Sorted set of distinct marked basis indices.

    Indices are canonicalized to a sorted tuple.  Duplicates are an error,
    not a normalization.  Range checks against a dimension happen at the
    point of use, since a TargetSet alone carries no N.
    """

    indices: tuple

    def __post_init__(self):
        try:
            idx = tuple(sorted(int(i) for i in self.indices))
        except (TypeError, ValueError) as exc:
            raise InvalidTargetError(f"bad target indices: {exc}") from exc
        if not idx:
            raise InvalidTargetError("target set is empty")
        if idx[0] < 0:
            raise InvalidTargetError(f"negative target index {idx[0]}")
        if len(set(idx)) != len(idx):
            raise InvalidTargetError("duplicate target indices")
        object.__setattr__(self, "indices", idx)

    @property
    def r(self) -> int:
        return len(self.indices)

    @classmethod
    def first(cls, r: int) -> "TargetSet":
        """Targets at indices 0..r-1 (count-style specification)."""
        return cls(tuple(range(r)))


@dataclass(frozen=True)
class SearchInstance:
    """Full problem definition: (N, targets, averaging state, start state)."""

    n_items: int
    targets: TargetSet
    averaging: StateVector
    start: StateVector

    def __post_init__(self):
        if self.n_items < 1:
            raise InvalidDimensionError(f"n_items must be >= 1, got {self.n_items}")
        if self.averaging.dim != self.n_items or self.start.dim != self.n_items:
            raise InvalidDimensionError(
                f"state dimensions ({self.averaging.dim}, {self.start.dim}) "
                f"do not match n_items={self.n_items}"
            )
        if self.targets.indices[-1] >= self.n_items:
            raise InvalidTargetError(
                f"target index {self.targets.indices[-1]} out of range "
                f"for n_items={self.n_items}"
            )


def uniform_state(n_items: int) -> StateVector:
    """The uniform superposition: every amplitude 1/sqrt(N), real."""
    if n_items < 1:
        raise InvalidDimensionError(f"n_items must be >= 1, got {n_items}")
    return StateVector(np.full(n_items, 1.0 / math.sqrt(n_items), dtype=np.complex128))


def random_state(n_items: int, seed: int) -> StateVector:
    """Haar-like random state: complex-Gaussian components, normalized.

    Deterministic for a fixed seed; the distribution is rotation invariant,
    so test states are unbiased over the unit sphere.
    """
    if n_items < 1:
        raise InvalidDimensionError(f"n_items must be >= 1, got {n_items}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_items) + 1j * rng.standard_normal(n_items)
    return StateVector(z / np.linalg.norm(z))


def uniform_instance(n_items: int, targets) -> SearchInstance:
    """Uniform averaging and start states; targets may be a TargetSet or a count."""
    if isinstance(targets, int):
        targets = TargetSet.first(targets)
    u = uniform_state(n_items)
    return SearchInstance(n_items=n_items, targets=targets, averaging=u, start=u)


def _target_index_array(targets: TargetSet, dim: int) -> np.ndarray:
    if targets.indices[-1] >= dim:
        raise InvalidTargetError(
            f"target index {targets.indices[-1]} out of range for dim={dim}"
        )
    return np.asarray(targets.indices, dtype=np.intp)


def _target_products(instance: SearchInstance):
    """The target index array and the six inner products of the target split.

    Returns (idx, <s_T|s_T>, <s_L|s_L>, <a_T|a_T>, <a_T|s_T>, <a_L|s_L>,
    <a_L|a_L>), complex.  The off-target products are full products minus
    target ones, so the cost is O(N + r) and no N-length array is built.
    """
    idx = _target_index_array(instance.targets, instance.n_items)
    s = instance.start.amplitudes
    a = instance.averaging.amplitudes
    s_t, a_t = s[idx], a[idx]
    ss_t, aa_t, as_t = np.vdot(s_t, s_t), np.vdot(a_t, a_t), np.vdot(a_t, s_t)
    ss_l = np.vdot(s, s) - ss_t
    aa_l = np.vdot(a, a) - aa_t
    as_l = np.vdot(a, s) - as_t
    return idx, ss_t, ss_l, aa_t, as_t, as_l, aa_l


def _check_drift(nrm: float, step: int) -> None:
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise NonUnitStateError(f"norm drifted to {nrm!r} after {step} iterations")


class _ReducedBasis:
    """Q restricted to span{s_T, s_L, a_T, a_L}, in coefficients of those four.

    With v = (s_T, s_L, a_T, a_L), the state sum_j c_j v_j maps under Q to
    sum_j (M c)_j v_j, where M = (2 e_a <a|v_j> - I) diag(-1, 1, -1, 1).
    The Gram matrix G_ij = <v_i|v_j> gives the norm c^H G c, and its target
    block G_T the success probability.  <s|s> and <a|a> are measured, not
    taken as 1, so a stale norm fails the per-step check.
    """

    def __init__(self, instance: SearchInstance):
        self.idx, ss_t, ss_l, aa_t, as_t, as_l, aa_l = _target_products(instance)
        self.gram = np.array(
            [
                [ss_t, 0, np.conj(as_t), 0],
                [0, ss_l, 0, np.conj(as_l)],
                [as_t, 0, aa_t, 0],
                [0, as_l, 0, aa_l],
            ],
            dtype=np.complex128,
        )
        on_t = np.array([1, 0, 1, 0])
        self.gram_t = self.gram * np.outer(on_t, on_t)
        # a = a_T + a_L, so <a|v_j> is the sum of the a_T and a_L rows of G.
        e_a = np.array([0, 0, 1, 1])
        overlaps = self.gram[2] + self.gram[3]
        self.step = (2.0 * np.outer(e_a, overlaps) - np.eye(4)) * (1 - 2 * on_t)

    def evolve(self, n: int):
        """Yield the coefficients of Q^k|s> for k = 0..n, norm-checked."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        c = np.array([1, 1, 0, 0], dtype=np.complex128)
        yield c
        for k in range(1, n + 1):
            c = self.step @ c
            # max() returns a NaN first argument unchanged, so NaN still raises.
            _check_drift(math.sqrt(max(np.vdot(c, self.gram @ c).real, 0.0)), k)
            yield c

    def power(self, n: int):
        """The coefficients of Q^n|s>, every step norm-checked, none kept."""
        for c in self.evolve(n):
            pass
        return c

    def weights(self, coefficients) -> np.ndarray:
        # c^H G_T c for each c, clipped once: the norm is held to NORM_TOL
        # only, so it can round past 1; np.clip, unlike min(), keeps a NaN.
        return np.clip([np.vdot(c, self.gram_t @ c).real for c in coefficients], 0.0, 1.0)


def grover_power(instance: SearchInstance, n: int) -> StateVector:
    """Q^n applied to the start state; n = 0 returns the start unchanged."""
    basis = _ReducedBasis(instance)
    c = basis.power(n)
    s = instance.start.amplitudes
    a = instance.averaging.amplitudes
    amps = c[1] * s
    amps += c[3] * a
    amps[basis.idx] = c[0] * s[basis.idx] + c[2] * a[basis.idx]
    return StateVector(amps)


def success_trajectory(instance: SearchInstance, n_max: int) -> np.ndarray:
    """Success probability after n iterations for n = 0..n_max (one sweep)."""
    basis = _ReducedBasis(instance)
    return basis.weights(basis.evolve(n_max))


def success_probability(instance: SearchInstance, n: int) -> float:
    """Success probability after n iterations, in O(1) memory in n."""
    basis = _ReducedBasis(instance)
    return float(basis.weights([basis.power(n)])[0])
