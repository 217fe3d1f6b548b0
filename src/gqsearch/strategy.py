"""Optimal measurement strategies for restarted amplitude amplification.

Punctuated search runs n iterations, measures, and restarts on failure;
the expected cost n/p(n) is minimized near n = x*/(2 phi) where x* is the
lowest positive root of x = tan(x/2).  k-parallel search races k
independent agents per round at cost n / P_k(n), P_k = 1 - (1-p)^k.
`parallel_plan(dec, k)` gives the exact optimum of either, for any start
state's decomposition, from one stationary point per period of p(n); k = 1
is punctuated search.  A closed-form small-x approximation of the parallel
optimum, for the uniform start, is valid for k >= 2.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple

from .analytic import Decomposition, _rows, success_prob_analytic
from .errors import GQSearchError, ValidityError


class PunctuatedPlan(namedtuple("PunctuatedPlan", "n_opt n_int expected_cost stddev_geometric")):
    """Optimal punctuated-search plan for a given rotation angle.

    n_opt is the continuous optimum, n_int its rounding (>= 1);
    expected_cost is n_int / p(n_int) under the plan's probability model
    p(n) = sin^2(n phi), and stddev_geometric the cost's standard deviation
    (see cost_stddev).
    """

    __slots__ = ()


class ParallelPlan(namedtuple("ParallelPlan", "agents x n_opt n_int expected_cost")):
    """Optimal k-parallel plan: iteration count and expected parallel cost."""

    __slots__ = ()


def _validate_np(n, p) -> None:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if p == 0.0:
        raise GQSearchError("success probability is 0; cost diverges")
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
        raise GQSearchError("success probability is 0 for every n")
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


# Past 2^53 a float no longer holds an integer exactly: n, or an agent count.
_MAX_N = 2**53


def _check_agents(k: int, name: str = "k") -> None:
    """k agents: an integer in [1, 2^53], the range where a float holds k exactly."""
    if operator.index(k) < 1:
        raise GQSearchError(f"{name} must be >= 1, got {k}")
    if k > _MAX_N:
        raise GQSearchError(f"{name} must be <= 2^53, got {k}")


def parallel_success(p: float, k: int) -> float:
    """Probability 1 - (1-p)^k that at least one of k agents succeeds.

    p is one probability in [0, 1], and k an integer in [1, 2^53].  k = 1
    returns p itself (no float round trip), so the k = 1 reduction of the
    parallel cost is exact.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    _check_agents(k)
    if k == 1:
        return float(p)
    return -math.expm1(k * math.log1p(-p)) if p < 1.0 else 1.0  # log1p(-1) raises


def _cheapest_iterations(dec: Decomposition, k: int):
    """The n >= 1 minimizing n / P_k(n), P_k = 1 - (1 - p(n))^k, and that cost.

    Write p(n) = c + (A/2) cos u, u = 2 n phi - theta, c = w_t + (alpha^2 +
    beta^2)/2, and let g = P_k(p) and h = n / g.  h' has the sign of F = g -
    n g'.  Where p falls, g' <= 0 and h rises.  Where p rises (u from -pi to
    0 in a period), F' = -n g'', and g'' has the sign of Q(w) = kA w^2 -
    2(1 - c) w - (k - 1)A at w = cos u.  Q(-1) = A + 2(1 - c) > 0 and Q(1) =
    A - 2(1 - c) <= 0, since c + A/2 = p_max <= 1, so g is convex and then
    concave, F falls and then rises, and h has at most one interior minimum
    per period: the root of F between the inflection and the peak, found by
    bisection.  The integer optimum is n = 1 or the floor or ceiling of one
    such root.  Under the small-angle model p = sin^2(n phi) (k = 1, c =
    A/2 = 1/2, a trough at n = 0) F = 0 is x = tan(x/2), x = 2 n phi.

    The periods are walked from the first peak past n = 1 until one starts
    at or above best * P_k(p_max), past which no n is cheaper; F is bisected
    in the phase t = u + pi past each trough.  On integers
    cos(2 n phi - theta) = cos(2 n (pi - phi) + theta), so phi > pi/2 is
    folded to pi - phi first and each period holds at least two integers.
    Candidates are costed with `success_prob_analytic` and `parallel_success`,
    as a scan of every n would: ties go to the smaller n.  P_k(p_max) = 0 is
    refused, and so is an optimum past n = 2^53.
    """
    phi, theta = dec.phi, dec.theta
    if phi > 0.5 * math.pi:
        phi, theta = math.pi - phi, -theta
    p_max = success_prob_analytic(dec, 0) if phi == 0.0 else min(1.0, dec.w_t + dec.peak)
    top = parallel_success(p_max, k)
    if top == 0.0:
        raise GQSearchError("success probability is 0 for every n")

    def cost(n):
        p_k = parallel_success(success_prob_analytic(dec, n), k)
        return n / p_k if p_k > 0.0 else math.inf

    best_n, best_cost = 1, cost(1)
    amp = dec.amp
    if phi == 0.0 or amp == 0.0:  # p is the same at every integer n
        return best_n, best_cost
    c = dec.w_t + 0.5 * (dec.alpha**2 + dec.beta**2)
    den = (1.0 - c) + math.sqrt((1.0 - c) ** 2 + k * (k - 1) * amp * amp)
    # the phase t = u + pi past a trough where g turns concave: cos u = -cos t
    # is the root of Q in [-1, 0]
    t_inflection = math.acos((k - 1) * amp / den if k > 1 else 0.0)

    def f(t, trough):
        """F at phase t past a trough, where 2 n phi = trough + t.

        p = c - A/2 + A sin^2(t/2) keeps its relative accuracy near the
        trough, where the optimum of many agents lies.
        """
        p = min(1.0, (c - 0.5 * amp) + amp * math.sin(0.5 * t) ** 2)
        log_q = math.log1p(-p) if p < 1.0 else -math.inf
        slope = math.exp((k - 1) * log_q) if k > 1 else 1.0  # (1 - p)^(k - 1)
        return -math.expm1(k * log_q) - 0.5 * k * amp * (trough + t) * math.sin(t) * slope

    j = math.ceil((2.0 * phi - theta) / (2.0 * math.pi))  # the first peak at n >= 1
    while True:
        trough = (theta - math.pi) + 2.0 * math.pi * j
        if trough / (2.0 * phi) >= best_cost * top:
            return best_n, best_cost
        if trough / (2.0 * phi) > _MAX_N:
            break
        lo, hi = max(t_inflection, 2.0 * phi - trough), math.pi  # from n = 1 to the peak
        if f(lo, trough) <= 0.0:
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (mid, hi) if f(mid, trough) <= 0.0 else (lo, mid)
            root = (trough + hi) / (2.0 * phi)
            if root > _MAX_N:
                break
            # n = 1 is costed, and the roots of two periods lie at least 2 apart
            for n in range(max(2, math.floor(root)), math.ceil(root) + 1):
                if (n_cost := cost(n)) < best_cost:
                    best_n, best_cost = n, n_cost
        j += 1
    raise GQSearchError(f"no optimum of n / P_k(n) found up to n = {_MAX_N}")


def optimal_x_parallel_approx(k: int) -> float:
    """Closed-form optimal x for k-parallel search from the small-x series.

    x = sqrt((5 - 15k + sqrt(5) sqrt(225 k^2 - 30 k - 31)) / (15 k^2 - 3)),
    real and below 1 for every k in [2, 2^53].  Raises ValidityError for k < 2
    (the self-consistency argument needs k >= 2; use parallel_plan).
    """
    if k < 2:
        raise ValidityError(f"closed form requires k >= 2, got {k}")
    _check_agents(k)
    kk = float(k)
    disc = math.sqrt(5.0) * math.sqrt(225.0 * kk * kk - 30.0 * kk - 31.0)
    return math.sqrt((5.0 - 15.0 * kk + disc) / (15.0 * kk * kk - 3.0))


def parallel_plan(dec: Decomposition, k: int) -> ParallelPlan:
    """The exact integer optimum of the k-parallel cost n / P_k(n), any start, k >= 1.

    p(n) is `success_prob_analytic(dec, n)`, x = (2n + 1) v, and k is an
    integer up to 2^53.  Ties go to the smaller n; a start whose peak is 0 is
    refused, and so is an optimum past n = 2^53.  The uniform start is
    `decompose(uniform_instance(N, r))`.
    """
    _check_agents(k)
    n_best, cost = _cheapest_iterations(dec, k)
    return ParallelPlan(agents=k, x=(1.0 + 2.0 * n_best) * dec.v, n_opt=float(n_best),
                        n_int=n_best, expected_cost=cost)


def parallel_plan_closed_form(r: int, n_items: int, k: int) -> ParallelPlan:
    """The closed-form k-parallel plan from the small-x series optimum.

    x = optimal_x_parallel_approx(k), n = (x sqrt(N/r) - 1)/2, and the cost
    is the large-n form (x sqrt(N/r) - 1) / (2 (1 - cos^{2k} x)).  Raises
    ValidityError outside k >= 2, 2^-1023 <= r/N <= 0.01 (past 2^1023, N/r
    overflows a float) and n_int >= 1.
    """
    _rows(r, n_items)
    _check_agents(k)
    if r / n_items > 0.01 or n_items > r * 2**1023:
        raise ValidityError(f"closed form requires 2^-1023 <= r/N <= 0.01, got {r}/{n_items}")
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
