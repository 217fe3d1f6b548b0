"""Optimal measurement strategies for restarted amplitude amplification.

Punctuated search runs n iterations, measures, and restarts on failure;
the expected cost n/p(n) is minimized near n = x*/(2 phi) where x* is the
lowest positive root of x = tan(x/2), and for an arbitrary start state by
an integer scan of the closed form over one period.  k-parallel search
races k independent agents per round; its cost is minimized by an integer
scan of the exact cost or by a closed-form small-x approximation valid for
k >= 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import (
    Decomposition,
    success_prob_analytic,
    uniform_success_prob,
)
from .errors import NeverSucceedsError, RegimeError, ValidityError


@dataclass(frozen=True)
class PunctuatedPlan:
    """Optimal punctuated-search plan for a given rotation angle.

    n_opt is the continuous optimum, n_int its rounding (>= 1);
    expected_cost is n_int / p(n_int) under the plan's probability model
    p(n) = sin^2(n phi).  Both candidate cost standard deviations are
    carried: stddev_geometric from the geometric restart distribution and
    stddev_alt from the alternative closed form (see cost_stddev).
    """

    n_opt: float
    n_int: int
    expected_cost: float
    stddev_alt: float
    stddev_geometric: float


@dataclass(frozen=True)
class ParallelPlan:
    """Optimal k-parallel plan: iteration count and expected parallel cost."""

    agents: int
    x: float
    n_opt: float
    n_int: int
    expected_cost: float
    method: str


class CostStddev(NamedTuple):
    alt: float
    geometric: float


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


def cost_stddev(n, p: float) -> CostStddev:
    """Both candidate standard deviations of the punctuated cost.

    geometric: n*sqrt(1-p)/p, the geometric-distribution deviation.
    alt: (n/p)*sqrt((1-p)(1-p+p^2)), an alternative closed form; the two
    agree to leading order for small p and Monte Carlo arbitrates between
    them at moderate p (the data supports the geometric form).
    """
    _validate_np(n, p)
    q = 1.0 - p
    return CostStddev(
        alt=(n / p) * math.sqrt(q * (q + p * p)),
        geometric=n * math.sqrt(q) / p,
    )


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


def punctuated_success_prob(n, phi: float):
    """The plan's probability model p(n) = sin^2(n phi).

    Small-angle form of the success probability for a search started from
    the averaging state, with (2n+1) phi ~ 2 n phi since n >> 1 at the
    optimum.
    """
    p = np.sin(np.asarray(n, dtype=float) * phi) ** 2
    return float(p) if p.ndim == 0 else p


def _check_phi(phi: float) -> None:
    if phi <= 0.0:
        raise ValueError(f"phi must be positive, got {phi}")
    if phi >= 0.5 * math.pi:
        raise RegimeError(
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
    cost = expected_cost(n_int, p)
    sd = cost_stddev(n_int, p)
    return PunctuatedPlan(
        n_opt=n_opt,
        n_int=n_int,
        expected_cost=cost,
        stddev_alt=sd.alt,
        stddev_geometric=sd.geometric,
    )


def _cheapest(ns: np.ndarray, p: np.ndarray) -> int:
    """Index of the least n / p over a scan; ties go to the smaller n."""
    with np.errstate(divide="ignore"):
        costs = ns / p  # inf where p = 0
    best = int(np.argmin(costs))  # first occurrence
    if not math.isfinite(costs[best]):
        raise NeverSucceedsError("success probability is 0 over the whole scan")
    return best


def restart_iterations(dec: Decomposition) -> int:
    """Iterations n >= 1 per round minimizing n / p(n), for any start state.

    p(n) is the exact closed form `success_prob_analytic`, periodic in n
    with period pi/phi, so the integer scan n = 1..ceil(pi/phi) sees every
    value it takes; ties go to the smaller n.  Raises NeverSucceedsError
    when p is 0 over the whole scan.
    """
    ns = np.arange(1, math.ceil(math.pi / dec.phi) + 1)
    return int(ns[_cheapest(ns, success_prob_analytic(dec, ns))])


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
    return float(p) if p.ndim == 0 else p


def parallel_expected_cost(
    n, r: int, n_items: int, k: int, approx: bool = False
) -> float:
    """Expected parallel cost n / (1 - (1 - p(n))^k) of k-agent search.

    The exact form uses the full rotation angle; approx=True switches to
    the small-r/N approximation of the angle, 2 sqrt(r/N).  Raises
    NeverSucceedsError when the per-round success probability is exactly 0.
    """
    if not 1 <= r <= n_items:
        raise ValueError(f"need 1 <= r <= n_items, got r={r}, n_items={n_items}")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    p1 = uniform_success_prob(math.sqrt(r / n_items), n, approx)
    return expected_cost(n, parallel_success(p1, k))


def parallel_cost_derivative(x: float, k: int) -> float:
    """d/dx of the large-n parallel cost x / (1 - cos^{2k} x).

    Evaluates (1 - cos^{2k}(x) (1 + 2 k x tan x)) / (1 - cos^{2k}(x))^2
    in the product form that stays finite as x -> pi/2.  Valid on
    0 < x < pi/2; the x -> 0 end is singular (denominator -> 0).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < x < 0.5 * math.pi:
        raise ValueError(f"x must lie in (0, pi/2), got {x}")
    c = math.cos(x)
    s = math.sin(x)
    c2k = c ** (2 * k)
    num = 1.0 - c2k - 2.0 * k * x * c ** (2 * k - 1) * s
    den = (1.0 - c2k) ** 2
    return num / den


def optimal_x_parallel_approx(k: int) -> float:
    """Closed-form optimal x for k-parallel search from the small-x series.

    x = sqrt((5 - 15k + sqrt(5) sqrt(225 k^2 - 30 k - 31)) / (15 k^2 - 3)),
    real and below 1 for every k >= 2.  Raises ValidityError for k < 2
    (the self-consistency argument needs k >= 2; use the numeric scan).
    """
    if k < 2:
        raise ValidityError(f"closed form requires k >= 2, got {k}")
    kk = float(k)
    disc = math.sqrt(5.0) * math.sqrt(225.0 * kk * kk - 30.0 * kk - 31.0)
    return math.sqrt((5.0 - 15.0 * kk + disc) / (15.0 * kk * kk - 3.0))


def parallel_plan(r: int, n_items: int, k: int, method: str = "numeric") -> ParallelPlan:
    """Optimal k-parallel plan by exact integer scan or closed form.

    numeric: exhaustive scan of the exact cost over n in
    [1, ceil(pi/4 sqrt(N/r))], ties broken toward smaller n; any k >= 1.
    closed_form: series-optimal x with n = (x sqrt(N/r) - 1)/2; requires
    k >= 2 and r/N <= 0.01.
    """
    if r < 1 or n_items < 1 or r > n_items:
        raise ValueError(f"need 1 <= r <= n_items, got r={r}, n_items={n_items}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    if method == "closed_form":
        if k < 2:
            raise ValidityError(f"closed_form requires k >= 2, got k={k}")
        if r / n_items > 0.01:
            raise ValidityError(
                f"closed_form requires r/N <= 0.01, got {r}/{n_items}"
            )
        x = optimal_x_parallel_approx(k)
        ratio = math.sqrt(n_items / r)
        n_opt = 0.5 * (x * ratio - 1.0)
        n_int = round(n_opt)
        if n_int < 1:
            raise ValidityError(
                f"closed-form optimum rounds below one iteration (n_opt={n_opt})"
            )
        cost = (x * ratio - 1.0) / (2.0 * (1.0 - math.cos(x) ** (2 * k)))
        return ParallelPlan(
            agents=k, x=x, n_opt=n_opt, n_int=n_int,
            expected_cost=cost, method="closed_form",
        )

    if method != "numeric":
        raise ValueError(f"unknown method {method!r}")

    n_hi = math.ceil(0.25 * math.pi * math.sqrt(n_items / r))
    ns = np.arange(1, n_hi + 1, dtype=float)
    v = math.sqrt(r / n_items)
    pk = parallel_success(uniform_success_prob(v, ns), k)
    best = _cheapest(ns, pk)
    n_best = int(ns[best])
    return ParallelPlan(
        agents=k,
        x=(1.0 + 2.0 * n_best) * v,
        n_opt=float(n_best),
        n_int=n_best,
        expected_cost=float(ns[best] / pk[best]),
        method="numeric",
    )
