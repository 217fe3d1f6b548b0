"""Exact simulation of the generalized amplitude-amplification iteration.

One iteration of the operator Q first flips the phase of every target basis
state (the oracle reflection) and then reflects about the averaging state
|a>.  Q maps span{s_T, s_L, a_T, a_L} to itself, where s_T and s_L are the
parts of the start state on and off the targets and a_T, a_L split the
averaging state the same way, so n iterations evolve four coefficients by
a fixed 4x4 matrix, which six inner products of those vectors determine.
A `SearchInstance` stores those products and no state vector.  Success
probabilities are the target weight c^H G_T c of the coefficients, so n
iterations cost O(n).  The coefficients need no linear independence of the
four vectors, so s = a, r = N and v in {0, 1} take the same path.
The simulator is the independent check of the closed form in
`gqsearch.analytic`: `simulate` and `verify` set the two side by side,
and `montecarlo` reads p(n) from the closed form alone.
`gqsearch.analytic.decompose` reads the same six products, so the tests
also check the closed form against the dense loop in
`tests/dense_reference.py`, which shares no code with either.

All operations are pure: they return new values and never mutate inputs.
An input state within NORM_TOL of unit norm is normalized once, by
`from_blocks`; after that the norm is checked after every iteration, as the
quadratic form of the coefficients with the Gram matrix, and raises.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

from . import _np as np
from .errors import InvalidDimensionError, InvalidTargetError, NonUnitStateError

# Drift beyond this raises NonUnitStateError.
NORM_TOL = 1e-9

# Amplitudes per block where a state is drawn, read or reduced: 256 KiB of complex.
BLOCK = 2**14
# Largest N of a random:<seed> state: about 64 ns an amplitude, 17 s (2 shared cores).
_RANDOM_MAX_ITEMS = 2**28
# Amplitudes per sum in the reducer; a chunk that holds targets is copied, 32 KiB a state.
# Kept this small, np.vdot is never split across BLAS threads, which would change its bits.
CHUNK = 2**11


@dataclass(frozen=True)
class TargetSet:
    """Sorted set of distinct marked basis indices.

    Indices are canonicalized to a sorted tuple.  Duplicates are an error,
    not a normalization.  A TargetSet alone carries no N, so the range
    check against a dimension is `_rows`, run where N is known.
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


def _rows(targets, n_items: int):
    """(r, rows) of a TargetSet or a count r, for the indices 0..r-1: its sorted
    index tuple, or the slice [0, r).  The one range check of targets against a
    dimension: n_items >= 1, or InvalidDimensionError; every row below n_items,
    or InvalidTargetError."""
    if n_items < 1:
        raise InvalidDimensionError(f"n_items must be >= 1, got {n_items}")
    if isinstance(targets, TargetSet):
        if targets.indices[-1] >= n_items:
            raise InvalidTargetError(f"target index {targets.indices[-1]} out of range "
                                     f"for n_items={n_items}")
        return targets.r, targets.indices
    if not 1 <= targets <= n_items:
        raise InvalidTargetError(f"target count {targets} outside [1, {n_items}]")
    return targets, slice(0, targets)


def _random_blocks(n_items: int, seed: int):
    """The `random:seed` state of dimension n_items, in blocks of BLOCK amplitudes.

    `default_rng(seed)` draws all N real parts, then all N imaginary parts, as
    standard normals, and each amplitude is divided by the norm summed block by
    block in that order by einsum, a sum that no BLAS thread count reorders.  Every
    block yielded is the same buffer, overwritten by the next draw, so
    `list(_random_blocks(...))` is wrong past one block.  An n_items above
    _RANDOM_MAX_ITEMS, which would draw for minutes to hours, is
    InvalidDimensionError before the first draw.
    """
    if n_items > _RANDOM_MAX_ITEMS:
        raise InvalidDimensionError(f"random:<seed> draws at most {_RANDOM_MAX_ITEMS} "
                                    f"amplitudes, got n_items={n_items}")
    rng, sq, begins = np.random.default_rng(seed), 0.0, []
    z = np.empty(min(BLOCK, n_items), dtype=np.complex128)
    for part in (z.real, z.imag):
        begins.append(copy.deepcopy(rng))  # where these parts' draws begin
        for lo in range(0, n_items, BLOCK):
            x = part[:min(BLOCK, n_items - lo)]
            x[:] = rng.standard_normal(x.size)
            sq += np.einsum("i,i->", x, x)
    nrm = math.sqrt(sq)
    for lo in range(0, n_items, BLOCK):
        x = z[:min(BLOCK, n_items - lo)]
        x.real = begins[0].standard_normal(x.size)
        x.imag = begins[1].standard_normal(x.size)
        x /= nrm
        yield x


def _check_unit(nrm: float, step: int | None = None) -> None:
    """NonUnitStateError unless nrm is 1 to NORM_TOL: an input's, or after step iterations."""
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise NonUnitStateError(f"state norm is {nrm!r}, not 1" if step is None
                                else f"norm drifted to {nrm!r} after {step} iterations")


@dataclass(frozen=True)
class SearchInstance:
    """A search problem as six target-split inner products.

    products holds (<s_T|s_T>, <s_L|s_L>, <a_T|a_T>, <a_T|s_T>, <a_L|s_L>,
    <a_L|a_L>), all that Q needs of the states and targets; build it with
    `from_blocks`.
    """

    products: tuple

    @classmethod
    def from_blocks(cls, targets, n_items: int, averaging, start):
        """The instance of two unit states of dimension n_items, never held, in O(N + r).

        targets is a TargetSet, or a count r for the indices 0..r-1.  Each
        state is an iterable of blocks of its amplitudes in index order, read
        once, or None for the uniform state u, which is never built; the same
        iterable twice is s = a.  u's own products are r/N and 1 - r/N, so
        None for both reads no block and loads no numpy; an r/N that underflows
        to 0.0 is InvalidDimensionError.  Two explicit states yield blocks of
        equal sizes; beside u, one block of 1/sqrt(N) sliced to its partner's, a
        block holds at most BLOCK amplitudes.  The products are summed directly,
        CHUNK amplitudes at a time, the off-target ones of a chunk with targets
        over its copy with them zeroed, so <a_L|a_L> of an averaging state on the
        targets is exactly 0.  An explicit state's norm must be 1 to NORM_TOL, or
        NonUnitStateError; the products are then divided by the measured norms,
        so Q is unitary for a state not 1 exactly.
        """
        r, rows = _rows(targets, n_items)
        u_t = r / n_items
        if u_t == 0.0:
            raise InvalidDimensionError(f"r/N = {r}/N underflows to 0.0 in float64")
        u_l = 1.0 - u_t
        if averaging is None and start is None:  # s = a = u
            return cls((u_t, u_l, u_t, u_t, u_l, u_l))
        rows = rows if isinstance(rows, slice) else np.asarray(rows, dtype=np.intp)
        total, lo = np.zeros(6, dtype=np.complex128), 0
        if averaging is None or start is None:  # u beside a state, sliced to its blocks
            u = np.full(min(BLOCK, n_items), 1.0 / math.sqrt(n_items), dtype=np.complex128)
        pairs = (((x, x) for x in start) if averaging is start  # s = a: one stream, read once
                 else ((u[:s.size], s) for s in start) if averaging is None
                 else ((a, u[:a.size]) for a in averaging) if start is None
                 else itertools.zip_longest(averaging, start, fillvalue=np.empty(0)))
        for a_b, s_b in pairs:
            if a_b.size != s_b.size:
                raise InvalidDimensionError(f"state blocks of {a_b.size} and {s_b.size} "
                                            f"amplitudes at index {lo} do not match")
            for c in range(0, s_b.size, CHUNK):
                a, s = a_b[c:c + CHUNK], s_b[c:c + CHUNK]
                if isinstance(rows, slice):
                    t = slice(0, max(rows.stop - lo, 0))
                else:  # the chunk's targets: a slice of the sorted indices, not a mask
                    t = rows[np.searchsorted(rows, lo):np.searchsorted(rows, lo + s.size)] - lo
                a_t, s_t, a_l, s_l = a[t], s[t], a, s
                if a_t.size:  # off the targets: a copy with them zeroed
                    a_l, s_l = a.copy(), s.copy()
                    a_l[t] = s_l[t] = 0.0
                total += [np.vdot(s_t, s_t), np.vdot(s_l, s_l), np.vdot(a_t, a_t),
                          np.vdot(a_t, s_t), np.vdot(a_l, s_l), np.vdot(a_l, a_l)]
                lo += s.size
        if lo != n_items:
            raise InvalidDimensionError(f"blocks hold {lo} amplitudes, not n_items={n_items}")
        ss_t, ss_l, aa_t, as_t, as_l, aa_l = total
        aa_t, aa_l = (u_t, u_l) if averaging is None else (aa_t, aa_l)
        ss_t, ss_l = (u_t, u_l) if start is None else (ss_t, ss_l)
        aa, ss = (1.0 if x is None else (x_t + x_l).real  # u's norm is 1
                  for x, x_t, x_l in ((averaging, aa_t, aa_l), (start, ss_t, ss_l)))
        for xx in (aa, ss):
            _check_unit(math.sqrt(xx))
        cross = math.sqrt(aa * ss)
        return cls((ss_t / ss, ss_l / ss, aa_t / aa, as_t / cross, as_l / cross, aa_l / aa))


def uniform_instance(n_items: int, r: int) -> SearchInstance:
    """Uniform averaging and start states with r targets, 1 <= r <= N: every
    product is r/N or 1 - r/N, with no N-vector and no indices."""
    return SearchInstance.from_blocks(r, n_items, None, None)


class _ReducedBasis:
    """Q restricted to span{s_T, s_L, a_T, a_L}, in coefficients of those four.

    With v = (s_T, s_L, a_T, a_L), the state sum_j c_j v_j maps under Q to
    sum_j (M c)_j v_j, where M = (2 e_a <a|v_j> - I) diag(-1, 1, -1, 1).
    The Gram matrix G_ij = <v_i|v_j> gives the norm c^H G c, and its target
    block G_T the success probability.  <s|s> and <a|a> are measured, not
    taken as 1, so a stale norm fails the per-step check.
    """

    def __init__(self, instance: SearchInstance):
        ss_t, ss_l, aa_t, as_t, as_l, aa_l = instance.products
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
            _check_unit(math.sqrt(max(np.vdot(c, self.gram @ c).real, 0.0)), k)
            yield c


def success_trajectory(instance: SearchInstance, n_max: int) -> np.ndarray:
    """Success probability after n iterations for n = 0..n_max (one sweep)."""
    basis = _ReducedBasis(instance)
    # c^H G_T c for each c, clipped once: the norm is held to NORM_TOL
    # only, so it can round past 1; np.clip, unlike min(), keeps a NaN.
    return np.clip([np.vdot(c, basis.gram_t @ c).real for c in basis.evolve(n_max)], 0.0, 1.0)
