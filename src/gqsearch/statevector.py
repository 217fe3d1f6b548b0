"""Exact simulation of the generalized amplitude-amplification iteration.

One iteration of the operator Q first flips the phase of every target basis
state (the oracle reflection) and then reflects about the averaging state
|a>.  Q maps span{s_T, s_L, a_T, a_L} to itself, where s_T and s_L are the
parts of the start state on and off the targets and a_T, a_L split the
averaging state the same way.  `grover_power` and `success_trajectory`
therefore evolve four coefficients by a fixed 4x4 matrix: six inner
products cost O(N + r) once, each iteration costs O(1), and `grover_power`
builds the N-vector once at the end, so n iterations cost O(N + n) instead
of the O(n*N) of dense passes.  The coefficients need no linear
independence of the four vectors, so s = a, r = N and v in {0, 1} take the
same path.  Nothing here goes through `gqsearch.analytic`, so comparing the
two stays a real check of the closed form.

The dense loop (`_q_step`, two O(N) rank-1 passes per iteration) is kept as
`_dense_evolution`, the independent reference the tests compare against.

All operations are pure: they return new values and never mutate inputs.
The norm is checked after every iteration (for the reduced path as the
quadratic form of the coefficients with the Gram matrix) and raises
instead of being repaired silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidTargetError,
    NonUnitAxisError,
    NonUnitStateError,
)

# Drift beyond this raises NonUnitStateError / NonUnitAxisError.
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


def oracle_reflect(state: StateVector, targets: TargetSet) -> StateVector:
    """Flip the phase of every target amplitude; all others unchanged."""
    idx = _target_index_array(targets, state.dim)
    amps = state.amplitudes.copy()
    amps[idx] = -amps[idx]
    return StateVector(amps)


def reflect_about(state: StateVector, axis: StateVector) -> StateVector:
    """Inversion about the axis: 2 <axis|state> |axis> - |state>."""
    if axis.dim != state.dim:
        raise InvalidDimensionError(
            f"axis dim {axis.dim} does not match state dim {state.dim}"
        )
    anorm = float(np.linalg.norm(axis.amplitudes))
    if not abs(anorm - 1.0) <= NORM_TOL:
        raise NonUnitAxisError(f"axis norm is {anorm!r}, not 1")
    inner = np.vdot(axis.amplitudes, state.amplitudes)
    return StateVector(2.0 * inner * axis.amplitudes - state.amplitudes)


def _q_step(amps: np.ndarray, idx: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Oracle first, then the averaging reflection.
    out = amps.copy()
    out[idx] = -out[idx]
    inner = np.vdot(a, out)
    return 2.0 * inner * a - out


def _check_drift(nrm: float, step: int) -> None:
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise NonUnitStateError(f"norm drifted to {nrm!r} after {step} iterations")


def _dense_evolution(instance: SearchInstance, n: int):
    """Reference: (p(0..n), amplitudes of Q^n|s>) from n dense O(N) steps."""
    idx = _target_index_array(instance.targets, instance.n_items)
    a = instance.averaging.amplitudes
    amps = instance.start.amplitudes.copy()
    probs = np.empty(n + 1, dtype=float)
    probs[0] = float(np.sum(np.abs(amps[idx]) ** 2))
    for step in range(1, n + 1):
        amps = _q_step(amps, idx, a)
        _check_drift(float(np.linalg.norm(amps)), step)
        probs[step] = float(np.sum(np.abs(amps[idx]) ** 2))
    return probs, amps


class _ReducedBasis:
    """Q restricted to span{s_T, s_L, a_T, a_L}, in coefficients of those four.

    With v = (s_T, s_L, a_T, a_L), the state sum_j c_j v_j maps under Q to
    sum_j (M c)_j v_j, where M = (2 e_a <a|v_j> - I) diag(-1, 1, -1, 1).
    The Gram matrix G_ij = <v_i|v_j> gives the norm c^H G c, and its target
    block G_T the success probability.  <s|s> and <a|a> are measured, not
    taken as 1, so a stale norm fails the per-step check.
    """

    def __init__(self, instance: SearchInstance):
        self.idx = _target_index_array(instance.targets, instance.n_items)
        s = instance.start.amplitudes
        a = instance.averaging.amplitudes
        s_t, a_t = s[self.idx], a[self.idx]
        ss_t, aa_t, as_t = np.vdot(s_t, s_t), np.vdot(a_t, a_t), np.vdot(a_t, s_t)
        ss_l = np.vdot(s, s) - ss_t
        aa_l = np.vdot(a, a) - aa_t
        as_l = np.vdot(a, s) - as_t
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
        c = np.array([1, 1, 0, 0], dtype=np.complex128)
        yield c
        for k in range(1, n + 1):
            c = self.step @ c
            # max() returns a NaN first argument unchanged, so NaN still raises.
            _check_drift(math.sqrt(max(np.vdot(c, self.gram @ c).real, 0.0)), k)
            yield c


def grover_power(instance: SearchInstance, n: int) -> StateVector:
    """Q^n applied to the start state; n = 0 returns the start unchanged."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    basis = _ReducedBasis(instance)
    for c in basis.evolve(n):  # keep only the last coefficients
        pass
    s = instance.start.amplitudes
    a = instance.averaging.amplitudes
    amps = c[1] * s
    amps += c[3] * a
    amps[basis.idx] = c[0] * s[basis.idx] + c[2] * a[basis.idx]
    return StateVector(amps)


def success_trajectory(instance: SearchInstance, n_max: int) -> np.ndarray:
    """Success probability after n iterations for n = 0..n_max (one sweep)."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    basis = _ReducedBasis(instance)
    return np.array(
        [np.vdot(c, basis.gram_t @ c).real for c in basis.evolve(n_max)], dtype=float
    )


def success_probability(state: StateVector, targets: TargetSet) -> float:
    """Total probability of measuring any target index."""
    idx = _target_index_array(targets, state.dim)
    return float(np.sum(np.abs(state.amplitudes[idx]) ** 2))
