"""Linear reference scan of n / P_k(n): every n in blocks, in order.

`gqsearch.strategy._cheapest_iterations` finds the same optimum by a
branch and bound over blocks of n and evaluates only the blocks its bound
cannot rule out.  The tests compare it against this loop, which evaluates
every n from 1 up to its stopping rule, with the same leaf expression, so
both must agree on n, on the bits of the cost and on every error.  The
limits are read from `gqsearch.strategy` at call time, so a test that
patches them patches both.
"""

import math

import numpy as np

from gqsearch import strategy, success_prob_analytic
from gqsearch.errors import NeverSucceedsError
from gqsearch.strategy import _scan_limit_error, _success_bounds, parallel_success


def cheapest_iterations(dec, k: int):
    """The n >= 1 minimizing n / P_k(n) by the block scan, and that cost.

    p(n) is `success_prob_analytic(dec, n)`, with the planner's peak p_max
    and refusal bound; the scan stops once n / P_k(p_max) reaches the best
    cost found.  Ties go to the smaller n.
    """
    _MAX_BLOCK, _SCAN_LIMIT = strategy._MAX_BLOCK, strategy._SCAN_LIMIT
    p_max, inverse_bound = _success_bounds(dec, k)
    floor = parallel_success(p_max, k)
    if floor == 0.0:
        raise NeverSucceedsError("success probability is 0 for every n")
    if floor > inverse_bound * (_SCAN_LIMIT + _MAX_BLOCK):
        raise _scan_limit_error()
    best_n, best_cost, start = 0, math.inf, 1
    while start < best_cost * floor:
        if start > _SCAN_LIMIT:
            raise _scan_limit_error()
        # the block from n = 1 + 64 (2^j - 1) holds 64 * 2^j n, up to the cap
        ns = np.arange(start, start + min(start + 63, _MAX_BLOCK), dtype=float)
        with np.errstate(divide="ignore"):
            costs = ns / parallel_success(success_prob_analytic(dec, ns), k)  # inf where p = 0
        i = int(np.argmin(costs))  # first occurrence
        if costs[i] < best_cost:
            best_n, best_cost = start + i, float(costs[i])
        start += ns.size
    return best_n, best_cost
