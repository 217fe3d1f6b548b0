"""Exact simulation of the generalized amplitude-amplification iteration.

One iteration of the operator Q first flips the phase of every target basis
state (the oracle reflection) and then reflects about the averaging state
|a>.  Q maps span{s_T, s_L, a_T, a_L} to itself, where s_T and s_L are the
parts of the start state on and off the targets and a_T, a_L split the
averaging state the same way: Q^k|s> = s_T + (-1)^k s_L + c2 a_T + c3 a_L,
so n iterations evolve two complex coefficients (`_walk`), each step from
six inner products of those vectors.  Those six, as a tuple, are the
instance: `from_blocks` sums them from states drawn (`_random_blocks`) or
read (`_state_file`) block by block, and no state vector is kept.  Success
probabilities are the target part |s_T + c2 a_T|^2 of the norm, so n
iterations cost O(n).  The coefficients need no linear independence of the
four vectors, so s = a, r = N and v in {0, 1} take the same path.
The simulator is the independent check of the closed form in
`gqsearch.analytic`, from which it takes only `_rows` and `uniform_instance`:
`simulate` and `verify` set the two side by side.  The tests check both
against the dense loop in `tests/dense_reference.py`, which applies Q to
whole vectors; it shares only `_check_unit`, and `_walk` in
`reduced_amplitudes`, with this module.

All operations are pure: they return new values and never mutate inputs.
An input state within NORM_TOL of unit norm is normalized once, by
`from_blocks`; after that the norm is checked after every iteration, as the
sum of its target part and its off-target part |(-1)^k s_L + c3 a_L|^2, and
raises.
"""

from __future__ import annotations

import copy
import itertools
import math
import re
import warnings
from collections import namedtuple

import numpy as np

from .analytic import _rows, uniform_instance
from .errors import GQSearchError

# Drift beyond this is a GQSearchError.
NORM_TOL = 1e-9

# Amplitudes per block where a state is drawn, read or reduced: 256 KiB of complex.
BLOCK = 2**14
# Largest N of a random:<seed> state: about 64 ns an amplitude, 17 s (2 shared cores).
_RANDOM_MAX_ITEMS = 2**28
# Amplitudes per sum in the reducer; a chunk that holds targets is copied, 32 KiB a state.
# Kept this small, np.vdot is never split across BLAS threads, which would change its bits.
CHUNK = 2**11


def _random_blocks(n_items: int, seed: int):
    """The `random:seed` state of dimension n_items, in blocks of BLOCK amplitudes.

    `default_rng(seed)` draws all N real parts, then all N imaginary parts, as
    standard normals, and each amplitude is divided by the norm summed block by
    block in that order by einsum, a sum that no BLAS thread count reorders.  Every
    block yielded is the same buffer, overwritten by the next draw, so
    `list(_random_blocks(...))` is wrong past one block.  An n_items above
    _RANDOM_MAX_ITEMS, which would draw for minutes to hours, is refused
    before the first draw.
    """
    if n_items > _RANDOM_MAX_ITEMS:
        raise GQSearchError(f"random:<seed> draws at most {_RANDOM_MAX_ITEMS} "
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


def _state_file(path: str, n_items: int):
    """The amplitudes of the state file at path, in blocks of BLOCK lines.

    The file is opened and its N read at the first next(); an N other than
    n_items is refused there, before any amplitude line is parsed.  N is
    ASCII [+-]?[0-9]+, as the command line's integers are.  An error past
    the first block names that block's lines, one per amplitude.
    """
    with open(path, "rb") as fh:  # lines decoded one by one: an error stays in its block
        try:
            head = fh.readline().decode("ascii").removesuffix("\n").removesuffix("\r")
            if re.fullmatch("[+-]?[0-9]+", head) is None:  # int() takes blanks and '_'
                raise ValueError(f"invalid literal for int() with base 10: {head!r}")
            n = int(head)
        except ValueError as exc:
            raise ValueError(f"state file {path!r} is malformed: {exc}") from exc
        if n != n_items:
            raise ValueError(f"state file dimension {n} does not match --n-items {n_items}")
        for lo in range(0, max(n, 1), BLOCK):
            rows, last = min(BLOCK, n - lo), lo + BLOCK >= n  # the last looks one row past N
            where = f" in lines {lo + 2}-{lo + rows + 1 + last}" if lo else ""
            try:
                with warnings.catch_warnings():  # no data lines: the shape check reports it
                    warnings.simplefilter("ignore", UserWarning)
                    values = np.loadtxt(fh, ndmin=2, comments=None, encoding="ascii",
                                        max_rows=max(rows + last, 0))
            except ValueError as exc:
                raise ValueError(f"state file {path!r} is malformed{where}: {exc}") from exc
            if values.shape != (rows, 2):
                raise ValueError(f"state file {path!r} needs {n} lines of 're im', "
                                 f"got shape {values.shape}{where}")
            yield values.view(np.complex128)[:, 0]  # no copy, and -0.0 keeps its sign


def _check_unit(nrm: float, step: int | None = None) -> None:
    """GQSearchError unless nrm is 1 to NORM_TOL: an input's, or after step iterations."""
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise GQSearchError(f"state norm is {nrm!r}, not 1" if step is None
                            else f"norm drifted to {nrm!r} after {step} iterations")


def from_blocks(targets, n_items: int, averaging, start) -> tuple:
    """The six products of two unit states of dimension n_items, never held, in O(N + r).

    targets is a TargetSet, or a count r for the indices 0..r-1.  Each
    state is an iterable of blocks of its amplitudes in index order, read
    once, or None for the uniform state u, which is never built; the same
    iterable twice is s = a.  None for both reads no block and returns
    `uniform_instance`, whose products r/N and 1 - r/N are u's beside an
    explicit state too, and whose refusal of an r/N that underflows to 0.0
    holds for every pair; an explicit state past 2^63 amplitudes is refused.
    Two explicit states yield blocks of equal sizes; beside u, one block of
    1/sqrt(N) sliced to its partner's, a block holds at most BLOCK
    amplitudes.  The products are summed directly, CHUNK amplitudes at a
    time, the off-target ones of a chunk with targets over its copy with
    them zeroed, so <a_L|a_L> of an averaging state on the targets is
    exactly 0.  An explicit state's norm must be 1 to NORM_TOL, else it is
    refused; the products are then divided by the measured norms, so Q is
    unitary for a state not 1 exactly.
    """
    r, rows = _rows(targets, n_items)
    uniform = uniform_instance(n_items, r)
    if averaging is None and start is None:  # s = a = u
        return uniform
    u_t, u_l = uniform[:2]
    if n_items > 2**63:  # past numpy's int64 rows, and 1/sqrt(N) past 2^1024
        raise GQSearchError(f"an explicit state holds at most 2^63 amplitudes, "
                            f"got n_items={n_items}")
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
            raise GQSearchError(f"state blocks of {a_b.size} and {s_b.size} "
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
        raise GQSearchError(f"blocks hold {lo} amplitudes, not n_items={n_items}")
    ss_t, ss_l, aa_t, as_t, as_l, aa_l = total
    aa_t, aa_l = (u_t, u_l) if averaging is None else (aa_t, aa_l)
    ss_t, ss_l = (u_t, u_l) if start is None else (ss_t, ss_l)
    aa, ss = (1.0 if x is None else (x_t + x_l).real  # u's norm is 1
              for x, x_t, x_l in ((averaging, aa_t, aa_l), (start, ss_t, ss_l)))
    for xx in (aa, ss):
        _check_unit(math.sqrt(xx))
    cross = math.sqrt(aa * ss)
    return ss_t / ss, ss_l / ss, aa_t / aa, as_t / cross, as_l / cross, aa_l / aa


def _part(xx: float, aa: float, ax: complex, c: complex) -> float:
    """|x + c a|^2 from <x|x>, <a|a> and <a|x>: the target part of the norm for
    x, a = s_T, a_T and the off-target part for x, a = (-1)^k s_L, a_L."""
    return xx + aa * (c.real * c.real + c.imag * c.imag) + 2.0 * (ax * c.conjugate()).real


def _walk(instance, n: int):
    """Yield (c2, c3) of Q^k|s> = s_T + (-1)^k s_L + c2 a_T + c3 a_L for k = 0..n.

    The oracle negates s_T and a_T, and the reflection about a = a_T + a_L
    then negates every coefficient and adds 2<a|.> to those of a_T and a_L:
    s_T keeps its 1, s_L's sign alternates and only c2 and c3 move.  The
    norm is checked after every step.  <s|s> and <a|a> are the instance's,
    not taken as 1, so a stale norm fails that check.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    ss_t, ss_l, aa_t, as_t, as_l, aa_l = map(complex, instance)
    ss_t, ss_l, aa_t, aa_l = ss_t.real, ss_l.real, aa_t.real, aa_l.real
    c2 = c3 = 0j
    sign = 1.0  # (-1)^k
    yield c2, c3
    for k in range(1, n + 1):
        x = 2.0 * (sign * as_l - as_t - aa_t * c2 + aa_l * c3)
        c2, c3, sign = x + c2, x - c3, -sign
        nrm2 = _part(ss_t, aa_t, as_t, c2) + _part(ss_l, aa_l, sign * as_l, c3)
        # max() returns a NaN first argument unchanged, so NaN still raises.
        _check_unit(math.sqrt(max(nrm2, 0.0)), k)
        yield c2, c3


def success_trajectory(instance, n_max: int) -> list:
    """Success probability after n iterations for n = 0..n_max (one sweep) of an
    instance, its six products."""
    ss_t, _, aa_t, as_t, _, _ = map(complex, instance)
    # The target part of each norm, clipped: the norm is held to NORM_TOL
    # only, so it can round past 1; min(max(p, 0.0), 1.0) keeps a NaN.
    return [min(max(_part(ss_t.real, aa_t.real, as_t, c2), 0.0), 1.0)
            for c2, _ in _walk(instance, n_max)]


class BihamMapping(namedtuple("BihamMapping", "k_bar l_bar sigma_k sigma_l")):
    """Mean/deviation statistics of a start state over target split.

    k_bar and l_bar are the mean target / non-target amplitudes; sigma_k
    and sigma_l their population standard deviations.  For a uniform
    averaging state these tie back to the decomposition via
    |alpha| = |k_bar| sqrt(r) and beta = |l_bar| sqrt(N - r), and the
    residual weights via w_t = r sigma_k^2, w_l = (N - r) sigma_l^2.
    """

    __slots__ = ()


def biham_mapping(amplitudes, targets) -> BihamMapping:
    """Mean/deviation statistics of a unit start state, a 1-D amplitude array, over
    the split of a TargetSet or a count r; assumes a uniform averaging state, 1 <= r < N."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or amps.size < 1:
        raise GQSearchError("amplitudes must be a non-empty one-dimensional array")
    _check_unit(math.sqrt(np.einsum("i,i->", amps.conj(), amps).real))  # no BLAS threads
    n_items = amps.size
    r, rows = _rows(targets, n_items)
    if r >= n_items:
        raise ValueError(f"mapping undefined for r = N (r={r}, N={n_items})")
    rows = rows if isinstance(rows, slice) else list(rows)
    k, l = amps[rows], np.delete(amps, rows)
    k_bar = complex(k.mean())
    l_bar = complex(l.mean())
    sigma_k = float(math.sqrt(np.mean(np.abs(k - k_bar) ** 2)))
    sigma_l = float(math.sqrt(np.mean(np.abs(l - l_bar) ** 2)))
    return BihamMapping(k_bar=k_bar, l_bar=l_bar, sigma_k=sigma_k, sigma_l=sigma_l)
