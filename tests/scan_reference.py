"""Linear reference scan of n / P_k(n): every n in blocks, in order.

`gqsearch.strategy._cheapest_iterations` finds the same optimum by walking
the periods of p(n) and costing a few candidates in each.  The tests compare
it against this loop, which evaluates every n from 1 up to its own stopping
rule, so both must agree on n, on the bits of the cost and on every error.
The loop shares no fold, walk or bound with the planner: it stops once n /
P_k(p_max) reaches the best cost found, with p_max = min(1, w_t + peak), or
p(0) where phi = 0.

The package's closed forms take one n each, too slow for tens of millions of
points, so the scan runs numpy twins of p(n) and P_k, `success_prob` and
`parallel_success`, with the package's order of operations.  numpy's cos
gives libm's bits, but its log1p and expm1 may differ from libm's in the last
bit, so the scan's winner is costed again with n - 1 and n + 1 by the
package's functions (`rescore`), where the floor and ceiling of one root may
swap.  `uniform_plan` is the planner's plan of the uniform start, as the
`plan` and `parallel-sweep` commands make it, and `uniform_optimum` its
optimum in 60-digit mpmath.
"""

import math

import mpmath
import numpy as np

import gqsearch
from gqsearch import decompose, parallel_plan, success_prob_analytic, uniform_instance
from gqsearch.errors import GQSearchError

_MAX_N = 2**53  # past this a float no longer holds n exactly
_MAX_BLOCK = 2**16


def success_prob(dec, ns):
    """`success_prob_analytic` over an array of n, in numpy."""
    g = 0.5 * (dec.alpha**2 + dec.beta**2) + 0.5 * dec.amp * np.cos(
        2.0 * ns * dec.phi - dec.theta
    )
    return np.clip(dec.w_t + g, 0.0, 1.0)


def parallel_success(p, k: int):
    """`gqsearch.parallel_success` over an array of p in [0, 1], in numpy."""
    if k == 1:
        return p
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives 1
        return -np.expm1(k * np.log1p(-p))


def scan_costs(dec, k: int, ns):
    """n / P_k(n) over an array of n in numpy, inf where P_k = 0."""
    with np.errstate(divide="ignore"):
        return ns / parallel_success(success_prob(dec, ns), k)


def rescore(dec, k: int, n: int):
    """The cheapest of n - 1 (if >= 1), n and n + 1 by the package's own costs.

    Ties go to the smaller n, as in the planner.
    """

    def cost(m):
        p_k = gqsearch.parallel_success(success_prob_analytic(dec, m), k)
        return m / p_k if p_k > 0.0 else math.inf

    return min(((m, cost(m)) for m in range(max(1, n - 1), n + 2)), key=lambda mc: mc[1])


def cheapest_iterations(dec, k: int):
    """The n >= 1 minimizing n / P_k(n) by the block scan, and that cost.

    The scan stops once n / P_k(p_max) reaches the best cost found, and its
    winner goes through `rescore`.  Ties go to the smaller n.  A start whose
    p_max is 0, and an optimum past n = 2^53, are refused.  At v = 1, p(n)
    rounds to about p(0) at every integer while p_max may be larger, so the
    scan may not stop there.
    """
    p_0 = success_prob_analytic(dec, 0)
    floor = gqsearch.parallel_success(
        p_0 if dec.phi == 0.0 else min(1.0, dec.w_t + dec.peak), k
    )
    if floor == 0.0:
        raise GQSearchError("success probability is 0 for every n")
    best_n, best_cost, start = 0, math.inf, 1
    while start < best_cost * floor:
        if start > _MAX_N:
            raise GQSearchError(f"no optimum of n / P_k(n) found up to n = {_MAX_N}")
        # the block from n = 1 + 64 (2^j - 1) holds 64 * 2^j n, up to the cap
        ns = np.arange(start, start + min(start + 63, _MAX_BLOCK), dtype=float)
        costs = scan_costs(dec, k, ns)
        i = int(np.argmin(costs))  # first occurrence
        if costs[i] < best_cost:
            best_n, best_cost = start + i, float(costs[i])
        start += ns.size
    return rescore(dec, k, best_n)


def uniform_plan(r: int, n_items: int, k: int):
    """`parallel_plan` of the uniform start with r targets of n_items, for k agents."""
    return parallel_plan(decompose(uniform_instance(n_items, r)), k)


def uniform_optimum(r: int, n_items: int, k: int, guess: int) -> int:
    """The integer optimum of n / (1 - cos^2k((2n + 1) asin sqrt(r/N))) in 60 digits.

    The exact law of the uniform start, with no float64 and no `decompose`:
    the stationary point next to guess, then the cheaper of its floor and
    ceiling.
    """
    with mpmath.workdps(60):
        angle = mpmath.asin(mpmath.sqrt(mpmath.mpf(r) / n_items))
        cost = lambda x: x / (1 - mpmath.cos((2 * x + 1) * angle) ** (2 * k))
        root = mpmath.findroot(lambda x: mpmath.diff(cost, x), mpmath.mpf(guess))
        return min((int(mpmath.floor(root)), int(mpmath.ceil(root))), key=cost)
