"""Optimal measurement strategies for restarted amplitude amplification.

Punctuated search runs n iterations, measures, and restarts on failure;
the expected cost n/p(n) is minimized near n = x*/(2 phi) where x* is the
lowest positive root of x = tan(x/2).  k-parallel search races k
independent agents per round at cost n / P_k(n), P_k = 1 - (1-p)^k.
`parallel_plan(dec, k)` gives the exact optimum of either, for any start
state's decomposition, by one branch and bound over blocks of n; k = 1 is
punctuated search.  A closed-form small-x approximation of the parallel
optimum, for the uniform start, is valid for k >= 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import _np as np
from .analytic import Decomposition, _unwrap, success_prob_analytic
from .errors import GQSearchError, NeverSucceedsError, ValidityError


@dataclass(frozen=True)
class PunctuatedPlan:
    """Optimal punctuated-search plan for a given rotation angle.

    n_opt is the continuous optimum, n_int its rounding (>= 1);
    expected_cost is n_int / p(n_int) under the plan's probability model
    p(n) = sin^2(n phi), and stddev_geometric the cost's standard deviation
    (see cost_stddev).
    """

    n_opt: float
    n_int: int
    expected_cost: float
    stddev_geometric: float


@dataclass(frozen=True)
class ParallelPlan:
    """Optimal k-parallel plan: iteration count and expected parallel cost."""

    agents: int
    x: float
    n_opt: float
    n_int: int
    expected_cost: float


def _validate_np(n, p) -> None:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if p == 0.0:
        raise NeverSucceedsError("success probability is 0; cost diverges")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")


def expected_cost(n, p: float) -> float:
    """Mean cost of restarting every n iterations with success chance p.

    Closed form n/p of the geometric series sum_i i*n*p*(1-p)^(i-1).
    """
    _validate_np(n, p)
    return n / p


def cost_stddev(n, p: float) -> float:
    """Standard deviation n*sqrt(1-p)/p of the punctuated cost.

    The round count until the first success is geometric with parameter p,
    so its deviation is sqrt(1-p)/p rounds of n iterations each.
    """
    _validate_np(n, p)
    return n * math.sqrt(1.0 - p) / p


@functools.cache
def optimal_x_single() -> float:
    """Lowest positive root of x = tan(x/2), bisected to the last bit and cached.

    This is the optimal value of x = 2 n phi for punctuated search;
    numerically 2.3311.  x - tan(x/2) is positive at the lower end of the
    bracket and negative at the upper end, with one root between.
    """
    lo, hi = 0.5 * math.pi * 1.01, math.pi * 0.999
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return min((lo, hi), key=lambda x: abs(x - math.tan(0.5 * x)))
        if mid - math.tan(0.5 * mid) > 0.0:
            lo = mid
        else:
            hi = mid


def punctuated_success_prob(n, phi: float) -> float:
    """The plan's probability model p(n) = sin^2(n phi), for a scalar n.

    Small-angle form of the success probability for a search started from
    the averaging state, with (2n+1) phi ~ 2 n phi since n >> 1 at the
    optimum.  The square is libm's pow, the rounding that `plan` prints:
    sin * sin differs from it in the last bit on about 0.1% of n.
    """
    return math.pow(math.sin(n * phi), 2.0)


def _check_phi(phi: float) -> None:
    if phi == 0.0:
        raise NeverSucceedsError("success probability is 0 for every n")
    if phi < 0.0:
        raise ValueError(f"phi must be positive, got {phi}")
    if phi >= 0.5 * math.pi:
        raise ValidityError(
            f"phi={phi} is outside the small-angle regime (phi < pi/2)"
        )


def max_probability_cost(phi: float) -> float:
    """Cost pi/(2 phi) of always running to the first probability-1 point.

    Baseline strategy under the same small-angle model; the optimal
    punctuated plan beats it by about 12%.
    """
    _check_phi(phi)
    return 0.5 * math.pi / phi


def punctuated_plan(phi: float) -> PunctuatedPlan:
    """Optimal punctuated plan for rotation angle phi (0 < phi < pi/2)."""
    _check_phi(phi)
    n_opt = optimal_x_single() / (2.0 * phi)
    n_int = max(1, round(n_opt))
    p = punctuated_success_prob(n_int, phi)
    return PunctuatedPlan(
        n_opt=n_opt,
        n_int=n_int,
        expected_cost=expected_cost(n_int, p),
        stddev_geometric=cost_stddev(n_int, p),
    )


def parallel_success(p, k: int):
    """Probability 1 - (1-p)^k that at least one of k agents succeeds.

    p is a scalar or an array.  k = 1 returns p itself (no float round
    trip), so the k = 1 reduction of the parallel cost is exact.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > 1:
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives 1
            p = -np.expm1(k * np.log1p(-p))
    return _unwrap(p)


# The planner covers n <= _SCAN_LIMIT + _MAX_BLOCK: a p(n) that rounds to
# 0 at every n although p_max > 0 would never end.  Each numpy pass holds at
# most _MAX_BLOCK n.  _P_PAD is several times the rounding error of p(n).
_MAX_BLOCK = 2**16
_SCAN_LIMIT = 2**30
_P_PAD = 2.0**-48


def _scan_limit_error() -> GQSearchError:
    return GQSearchError(f"no optimum of n / P_k(n) found up to n = {_SCAN_LIMIT}")


def _success_bounds(dec: Decomposition, k: int):
    """(p_max, inv): p(n) <= p_max for all n, and n / P_k(n) >= 1 / inv for n >= 1.

    p_max is the peak w_t + ((alpha^2 + beta^2)/2 + A/2), summed as p(n) is
    so that it holds in floats (p(0) at phi = 0, where p is constant).  |p'|
    <= A phi and P_k <= k p give cost >= 1 / (k (p(0) + A phi)); p(0) = w_t +
    alpha^2, |p'(0)| = phi |2 alpha beta cos b| and |p''| <= 2 A phi^2 give
    p(n) <= c n^2 for n >= 1, so cost >= max(n, 1 / (k c n)) >= 1 / sqrt(k c).
    """
    p_0 = success_prob_analytic(dec, 0)
    peak = dec.w_t + (0.5 * (dec.alpha**2 + dec.beta**2) + 0.5 * dec.amp)
    p_max = p_0 if dec.phi == 0.0 else min(1.0, peak)
    slope = dec.phi * abs(2.0 * dec.alpha * dec.beta * math.cos(dec.b))  # |p'(0)|
    c = (dec.w_t + dec.alpha**2) + slope + dec.amp * dec.phi**2
    return p_max, min(k * (p_0 + dec.amp * dec.phi), math.sqrt(k * c))


def _block_bounds(dec: Decomposition, k: int, p_max: float, starts, ends):
    """A lower bound starts / P_k(top) of n / P_k(n) on each block starts..ends.

    p(n) is a constant plus a cosine of 2 n phi - theta, monotone between
    peaks, where that phase is a multiple of 2 pi.  So top is p_max on a
    block with a peak, else its larger end value plus _P_PAD.  A peak that
    rounding moves out of a block lies within a rounding error of its end,
    whose p is then the block's largest.
    """
    turns = lambda ns: (2.0 * ns * dec.phi - dec.theta) / (2.0 * math.pi)
    top = np.maximum(success_prob_analytic(dec, starts), success_prob_analytic(dec, ends))
    top = np.minimum(top + _P_PAD, p_max)
    top[np.floor(turns(ends)) >= turns(starts)] = p_max
    with np.errstate(divide="ignore"):
        return starts / parallel_success(top, k)


def _cheapest_iterations(dec: Decomposition, k: int):
    """The n >= 1 minimizing n / P_k(n), P_k = 1 - (1 - p(n))^k, and that cost.

    p(n) is `success_prob_analytic`.  Blocks of n up to best * P_k(p_max),
    past which no n can be cheaper, are dropped when their `_block_bounds`
    exceeds the best cost found, else split 64 ways down to single n, costed
    as a scan of every n would: the exact optimum, ties to the smaller n.  A
    plan whose cost bound (`_success_bounds`) puts the optimum past n =
    _SCAN_LIMIT + _MAX_BLOCK is refused before p(n) is computed on any n >=
    1; P_k(p_max) = 0 raises NeverSucceedsError.
    """
    p_max, inverse_bound = _success_bounds(dec, k)
    floor = parallel_success(p_max, k)
    if floor == 0.0:
        raise NeverSucceedsError("success probability is 0 for every n")
    reach = _SCAN_LIMIT + _MAX_BLOCK
    if floor > inverse_bound * reach:
        raise _scan_limit_error()
    best_n, best_cost = 0, math.inf

    def visit(starts, size):
        """Cost each block's first n; keep the blocks that may hold the optimum."""
        nonlocal best_n, best_cost
        with np.errstate(divide="ignore"):  # inf where p = 0
            costs = starts / parallel_success(success_prob_analytic(dec, starts), k)
        i = int(np.argmin(costs))  # first occurrence
        if costs[i] < best_cost or (costs[i] == best_cost and starts[i] < best_n):
            best_n, best_cost = int(starts[i]), float(costs[i])
        if size == 1:
            return np.empty(0)  # not a view, which would keep the leaves alive
        ends = np.minimum(starts + (size - 1), last)
        return starts[_block_bounds(dec, k, p_max, starts, ends) <= best_cost]
    visit(np.arange(1.0, 65.0), 1)
    last = reach if best_cost * floor > reach else int(best_cost * floor)
    size = 64
    while last - 64 > 1024 * size:  # at most about 1,024 blocks on the top level
        size *= 64
    live = visit(np.arange(65.0, last + 1.0, size), size) if last > 64 else np.empty(0)
    per = max(1, _MAX_BLOCK // 128)  # parents per pass: 64 blocks of two ends each
    while live.size:
        size //= 64
        kids = np.arange(0.0, 64.0 * size, size)
        chunks = ((live[i : i + per, None] + kids).ravel() for i in range(0, live.size, per))
        live = np.concatenate([visit(starts[starts <= last], size) for starts in chunks])
    if best_cost * floor > reach:
        raise _scan_limit_error()
    return best_n, best_cost


def optimal_x_parallel_approx(k: int) -> float:
    """Closed-form optimal x for k-parallel search from the small-x series.

    x = sqrt((5 - 15k + sqrt(5) sqrt(225 k^2 - 30 k - 31)) / (15 k^2 - 3)),
    real and below 1 for every k >= 2.  Raises ValidityError for k < 2
    (the self-consistency argument needs k >= 2; use parallel_plan).
    """
    if k < 2:
        raise ValidityError(f"closed form requires k >= 2, got {k}")
    kk = float(k)
    disc = math.sqrt(5.0) * math.sqrt(225.0 * kk * kk - 30.0 * kk - 31.0)
    return math.sqrt((5.0 - 15.0 * kk + disc) / (15.0 * kk * kk - 3.0))


def parallel_plan(dec: Decomposition, k: int) -> ParallelPlan:
    """The exact integer optimum of the k-parallel cost n / P_k(n), any start, k >= 1.

    p(n) is `success_prob_analytic(dec, n)`, and x = (2n + 1) v.  Ties go to
    the smaller n; a start whose peak is 0 raises NeverSucceedsError.  The
    uniform start is `decompose(uniform_instance(N, r))`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n_best, cost = _cheapest_iterations(dec, k)
    return ParallelPlan(agents=k, x=(1.0 + 2.0 * n_best) * dec.v, n_opt=float(n_best),
                        n_int=n_best, expected_cost=cost)


def parallel_plan_closed_form(r: int, n_items: int, k: int) -> ParallelPlan:
    """The closed-form k-parallel plan from the small-x series optimum.

    x = optimal_x_parallel_approx(k), n = (x sqrt(N/r) - 1)/2, and the cost
    is the large-n form (x sqrt(N/r) - 1) / (2 (1 - cos^{2k} x)).  Raises
    ValidityError outside k >= 2, r/N <= 0.01 and n_int >= 1.
    """
    if r < 1 or n_items < 1 or r > n_items:
        raise ValueError(f"need 1 <= r <= n_items, got r={r}, n_items={n_items}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if r / n_items > 0.01:
        raise ValidityError(f"closed form requires r/N <= 0.01, got {r}/{n_items}")
    x = optimal_x_parallel_approx(k)
    ratio = math.sqrt(n_items / r)
    n_opt = 0.5 * (x * ratio - 1.0)
    n_int = round(n_opt)
    if n_int < 1:
        raise ValidityError(
            f"closed-form optimum rounds below one iteration (n_opt={n_opt})"
        )
    cost = (x * ratio - 1.0) / (2.0 * (1.0 - math.cos(x) ** (2 * k)))
    return ParallelPlan(agents=k, x=x, n_opt=n_opt, n_int=n_int, expected_cost=cost)
