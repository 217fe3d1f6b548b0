"""Tests for the punctuated and k-parallel strategy planners."""

import collections
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gqsearch import (
    Decomposition,
    GQSearchError,
    NeverSucceedsError,
    SearchInstance,
    TargetSet,
    ValidityError,
    cost_stddev,
    decompose,
    expected_cost,
    max_probability_cost,
    optimal_x_parallel_approx,
    optimal_x_single,
    parallel_cost_derivative,
    parallel_plan,
    parallel_plan_closed_form,
    parallel_success,
    punctuated_plan,
    punctuated_success_prob,
    random_state,
    restart_iterations,
    rotation_angle,
    success_prob_analytic,
    uniform_instance,
    uniform_state,
    uniform_success_prob,
)
import gqsearch.strategy as strategy

from dense_reference import dense_evolution


def test_expected_cost_basic():
    assert expected_cost(10, 0.5) == 20.0
    assert expected_cost(7, 1.0) == 7.0


def test_expected_cost_domain():
    with pytest.raises(NeverSucceedsError):
        expected_cost(5, 0.0)
    with pytest.raises(ValueError):
        expected_cost(5, 1.5)
    with pytest.raises(ValueError):
        expected_cost(0, 0.5)


def test_cost_stddev_two_forms():
    sd = cost_stddev(1, 0.5)
    assert abs(sd.geometric - math.sqrt(2.0) / 2.0 / 0.5) < 1e-12  # = sqrt(2)
    assert abs(sd.geometric - 1.4142135623730951) < 1e-12
    assert abs(sd.alt - 2.0 * math.sqrt(0.375)) < 1e-12  # = 1.2247...
    assert abs(sd.alt - 1.224744871391589) < 1e-12
    # the forms agree to leading order as p -> 0
    small = cost_stddev(3, 1e-4)
    assert abs(small.alt / small.geometric - 1.0) < 1e-4


def test_optimal_x_single_root():
    x = optimal_x_single()
    assert 0.5 * math.pi < x < math.pi
    assert abs(x - math.tan(0.5 * x)) < 1e-12
    assert abs(x - 2.331122370414423) < 1e-12


def test_optimal_x_single_matches_independent_minimizer():
    # golden-section minimization of the continuous cost x / (2 sin^2(x/2))
    # at 40 digits, fully independent of the root-finding path
    with mpmath.workdps(40):
        inv_gr = (mpmath.sqrt(5) - 1) / 2

        def f(x):
            return x / (2 * mpmath.sin(x / 2) ** 2)

        lo, hi = mpmath.mpf(2), mpmath.mpf("2.8")
        for _ in range(220):
            d = inv_gr * (hi - lo)
            a, b = hi - d, lo + d
            if f(a) < f(b):
                hi = b
            else:
                lo = a
        x_min = float((lo + hi) / 2)
        f_min = float(f((lo + hi) / 2))
    assert abs(optimal_x_single() - x_min) < 5e-12
    # the continuous cost coefficient at the optimum
    assert abs(f_min - 1.380050139689301) < 1e-12


def test_punctuated_success_prob_shapes():
    phi = 0.3
    scalar = punctuated_success_prob(2, phi)
    assert isinstance(scalar, float)
    assert abs(scalar - math.sin(0.6) ** 2) < 1e-15
    arr = punctuated_success_prob(np.array([1, 2, 3]), phi)
    assert arr.shape == (3,)
    assert abs(arr[1] - scalar) < 1e-15


def test_punctuated_plan_values():
    phi = 0.01
    plan = punctuated_plan(phi)
    assert abs(plan.n_opt * 2.0 * phi - optimal_x_single()) < 1e-12
    assert plan.n_int == 117
    assert abs(plan.expected_cost - 117.0 / math.sin(1.17) ** 2) < 1e-9
    sd = cost_stddev(117, math.sin(1.17) ** 2)
    assert abs(plan.stddev_geometric - sd.geometric) < 1e-9
    assert abs(plan.stddev_alt - sd.alt) < 1e-9


@pytest.mark.parametrize("phi", [0.05, 0.01, 0.002])
def test_punctuated_plan_integer_is_true_argmin(phi):
    plan = punctuated_plan(phi)
    ns = np.arange(1, math.ceil(math.pi / phi))
    costs = ns / np.sin(ns * phi) ** 2
    assert int(ns[np.argmin(costs)]) == plan.n_int


def test_punctuated_plan_regime():
    with pytest.raises(ValueError):
        punctuated_plan(0.0)
    with pytest.raises(ValidityError):
        punctuated_plan(0.5 * math.pi)
    with pytest.raises(ValidityError):
        max_probability_cost(2.0)


def test_max_probability_cost_and_speedup():
    phi = 0.01
    base = max_probability_cost(phi)
    assert abs(base - 0.5 * math.pi / phi) < 1e-12
    ratio = punctuated_plan(phi).expected_cost / base
    assert abs(ratio - 0.8786) < 1e-3


def test_parallel_success_exact_k1():
    for p in (0.12345678901234567, 0.05, 0.999):
        assert parallel_success(p, 1) == p


def test_parallel_success_values_and_domain():
    assert abs(parallel_success(0.5, 2) - 0.75) < 1e-15
    assert parallel_success(1.0, 8) == 1.0
    assert parallel_success(0.0, 3) == 0.0
    # monotone in k
    probs = [parallel_success(0.1, k) for k in range(1, 9)]
    assert all(a < b for a, b in zip(probs, probs[1:]))
    # monotone in p
    in_p = [parallel_success(p, 4) for p in np.linspace(0.0, 1.0, 21)]
    assert all(a <= b for a, b in zip(in_p, in_p[1:]))
    with pytest.raises(ValueError):
        parallel_success(1.2, 2)
    with pytest.raises(ValueError):
        parallel_success(0.5, 0)


def _parallel_cost(n, r, n_items, k):
    """n / (1 - (1 - p)^k) with p = sin^2((2n+1) asin sqrt(r/N)), written out."""
    p = np.sin((2 * n + 1) * math.asin(math.sqrt(r / n_items))) ** 2
    return n / (1.0 - (1.0 - p) ** k)


def test_parallel_expected_cost_full_target_set():
    # the k-agent cost is expected_cost(n, parallel_success(p(n), k));
    # r = N: integer n succeeds with certainty, half-integer n never does
    def cost(n, r, n_items, k):
        p = uniform_success_prob(math.sqrt(r / n_items), n)
        return expected_cost(n, parallel_success(p, k))

    assert abs(cost(3, 8, 8, 2) - 3.0) < 1e-12
    with pytest.raises(NeverSucceedsError):
        cost(0.5, 8, 8, 2)
    with pytest.raises(ValueError):
        cost(3, 9, 8, 2)
    with pytest.raises(ValueError):
        cost(0, 1, 8, 2)


def test_parallel_cost_derivative_vanishes_at_optimum():
    # for k = 1 the stationarity condition is tan x = 2x, i.e. x = x*/2
    assert abs(parallel_cost_derivative(optimal_x_single() / 2.0, 1)) < 1e-9
    # k >= 2: the numeric root of the derivative is a genuine minimum
    for k in (2, 5):
        root = brentq(lambda x: parallel_cost_derivative(x, k), 0.2, 1.5, xtol=1e-13)
        assert parallel_cost_derivative(root - 1e-4, k) < 0.0
        assert parallel_cost_derivative(root + 1e-4, k) > 0.0


def test_parallel_cost_derivative_finite_near_half_pi():
    d = parallel_cost_derivative(0.5 * math.pi - 1e-9, 3)
    assert 0.0 < d < 2.0
    with pytest.raises(ValueError):
        parallel_cost_derivative(0.0, 3)
    with pytest.raises(ValueError):
        parallel_cost_derivative(0.5 * math.pi, 3)
    with pytest.raises(ValueError):
        parallel_cost_derivative(1.0, 0)


def test_optimal_x_parallel_approx_properties():
    with pytest.raises(ValidityError):
        optimal_x_parallel_approx(1)
    xs = [optimal_x_parallel_approx(k) for k in range(2, 65)]
    assert all(0.0 < x < 1.0 for x in xs)
    assert all(a > b for a, b in zip(xs, xs[1:]))
    # within 5% of the true stationary point already at k = 2
    root = brentq(lambda x: parallel_cost_derivative(x, 2), 0.3, 1.5, xtol=1e-13)
    assert abs(optimal_x_parallel_approx(2) / root - 1.0) < 0.05
    # large-k limit: x ~ ((5 - sqrt(5)) ... )^{1/2} / sqrt(k) -> sqrt(sqrt(5)-1)/sqrt(k)
    assert abs(
        optimal_x_parallel_approx(10**6) * 1000.0 - math.sqrt(math.sqrt(5.0) - 1.0)
    ) < 1e-6


def test_parallel_plan_closed_form_values():
    plan = parallel_plan_closed_form(1, 2**20, 4)
    x = optimal_x_parallel_approx(4)
    ratio = math.sqrt(2**20)
    assert abs(plan.x - x) < 1e-15
    assert abs(plan.n_opt - 0.5 * (x * ratio - 1.0)) < 1e-9
    assert plan.n_int == round(plan.n_opt)
    expected = (x * ratio - 1.0) / (2.0 * (1.0 - math.cos(x) ** 8))
    assert abs(plan.expected_cost - expected) < 1e-9


def test_parallel_plan_numeric_matches_brute_force():
    n_items, r, k = 4096, 1, 3
    plan = parallel_plan(r, n_items, k)
    n_hi = math.ceil(0.25 * math.pi * math.sqrt(n_items / r))
    costs = _parallel_cost(np.arange(1, n_hi + 1), r, n_items, k)
    best = int(np.argmin(costs)) + 1
    assert plan.n_int == best
    assert abs(plan.expected_cost - costs[best - 1]) < 1e-12


def test_parallel_plan_numeric_k1_matches_punctuated_optimum():
    n_items = 2**20
    phi = rotation_angle(math.sqrt(1.0 / n_items))
    plan = parallel_plan(1, n_items, 1)
    assert abs(plan.n_int - punctuated_plan(phi).n_int) <= 1


def test_parallel_plan_validity():
    with pytest.raises(ValidityError):
        parallel_plan_closed_form(1, 2**20, 1)
    with pytest.raises(ValidityError):
        parallel_plan_closed_form(1, 64, 4)  # r/N > 0.01
    for plan in (parallel_plan, parallel_plan_closed_form):
        with pytest.raises(ValueError):
            plan(0, 64, 4)
        with pytest.raises(ValueError):
            plan(1, 64, 0)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(1e-6, 1.0),
    k=st.integers(1, 64),
    n=st.integers(1, 1000),
)
def test_parallel_cost_bounds(p, k, n):
    pk = parallel_success(p, k)
    assert p <= pk <= 1.0 + 1e-15
    cost = expected_cost(n, pk)
    assert cost >= n * (1.0 - 1e-12)
    # more agents never slow the parallel time down
    assert cost <= expected_cost(n, parallel_success(p, max(1, k - 1))) + 1e-9


@settings(max_examples=40, deadline=None)
@given(r=st.integers(1, 6), exp=st.integers(10, 18), k=st.integers(1, 16))
def test_parallel_plan_numeric_is_integer_optimal(r, exp, k):
    n_items = 2**exp
    plan = parallel_plan(r, n_items, k)
    for n in (plan.n_int - 1, plan.n_int + 1):
        if n >= 1:
            assert plan.expected_cost <= _parallel_cost(n, r, n_items, k) + 1e-9


def test_expected_cost_matches_restart_series():
    # n/p is the closed form of sum_i i*n*p*(1-p)^(i-1)
    assert expected_cost(10, 0.25) == 40.0
    i = np.arange(1, 10**6 + 1, dtype=float)
    with np.errstate(under="ignore"):
        partial = float(np.sum(i * 10 * 0.25 * 0.75 ** (i - 1.0)))
    assert abs(partial - 40.0) < 1e-9


def test_optimal_x_single_is_a_minimum():
    # second difference of the continuous cost 2x/(1 - cos x) is positive
    x = optimal_x_single()
    f = lambda y: 2.0 * y / (1.0 - math.cos(y))
    h = 1e-4
    assert abs((f(x + h) - f(x - h)) / (2.0 * h)) < 1e-6
    assert (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2 > 1.0


def test_break_even_coherence_time():
    # smallest n with cost equal to the run-to-maximum cost pi/(2 phi):
    # in x = 2 n phi units the solution is exactly pi/2, so coherence is
    # only needed for 0.7854/phi steps instead of 1.5708/phi
    x_star = optimal_x_single()
    g = lambda x: x / (2.0 * math.sin(0.5 * x) ** 2) - 0.5 * math.pi
    assert g(0.5) > 0.0 and g(x_star) < 0.0
    x_even = brentq(g, 0.5, x_star, xtol=1e-14)
    assert abs(x_even - 0.5 * math.pi) < 1e-9
    phi = 0.01
    n_even = x_even / (2.0 * phi)
    assert abs(n_even * phi - 0.7854) < 1e-4
    assert abs(n_even / (max_probability_cost(phi)) - 0.5) < 1e-9


def _brute_force_restart(states, n_max):
    """n / p(n) over n = 1..n_max from the dense simulator, and its argmin."""
    probs, _ = dense_evolution(*states, n_max)
    ns = np.arange(1, n_max + 1)
    costs = np.full(n_max, np.inf)
    ok = probs[1:] > 0.0
    costs[ok] = ns[ok] / probs[1:][ok]
    return costs, int(ns[np.argmin(costs)])


@settings(max_examples=40, deadline=None)
@given(
    n_items=st.integers(4, 48),
    data=st.data(),
)
def test_restart_iterations_matches_brute_force_over_simulator(n_items, data):
    r = data.draw(st.integers(1, n_items // 2))
    targets = data.draw(
        st.lists(st.integers(0, n_items - 1), min_size=r, max_size=r, unique=True)
    )
    start = random_state(n_items, data.draw(st.integers(0, 2**31)))
    states = (TargetSet(tuple(targets)), uniform_state(n_items), start)
    dec = decompose(SearchInstance.from_states(*states))
    period = math.ceil(math.pi / dec.phi)
    n = restart_iterations(dec, 1)
    assert 1 <= n <= period
    # two periods of the simulator: nothing past the first is cheaper
    costs, n_brute = _brute_force_restart(states, 2 * period)
    assert costs[n - 1] <= costs.min() * (1.0 + 1e-9)
    if costs[n_brute - 1] < costs[n - 1] * (1.0 - 1e-9):
        pytest.fail(f"brute force n={n_brute} beats n={n}")


def test_restart_iterations_known_instances():
    # uniform starts keep the punctuated optimum round(x*/(2 phi))
    for n_items, r in ((256, 1), (4096, 1)):
        dec = decompose(uniform_instance(n_items, r))
        assert restart_iterations(dec, 1) == round(optimal_x_single() / (2.0 * dec.phi))
    assert restart_iterations(decompose(uniform_instance(2**20, 16)), 1) == 148
    # k agents at N = 2^20, r = 1: the one-agent n = 596 would cost 610.8
    # at k = 2 and 596.0 at k = 8
    dec = decompose(uniform_instance(2**20, 1))
    for k, n, cost in ((1, 596, 705.99), (2, 412, 535.17), (8, 203, 279.20)):
        assert restart_iterations(dec, k) == n
        p = success_prob_analytic(dec, n)
        assert abs(expected_cost(n, parallel_success(p, k)) - cost) < 0.01
    # a random start with three targets: the uniform-start n = 22 costs
    # 37,440 per success, a single iteration 2,188
    states = (TargetSet((3, 17, 40)), uniform_state(4096), random_state(4096, 7))
    dec = decompose(SearchInstance.from_states(*states))
    assert restart_iterations(dec, 1) == 1
    costs, n_brute = _brute_force_restart(states, math.ceil(math.pi / dec.phi))
    assert n_brute == 1 and round(costs[0]) == 2188 and round(costs[21]) == 37440


def test_restart_iterations_ties_and_zero_probability():
    # v = 1/2: phi = pi/3, p(n) = 1/4, 1, 1/4, ... from the uniform start;
    # n = 1 is the unique optimum of the three-step period
    assert restart_iterations(decompose(uniform_instance(4, 1)), 1) == 1
    # p(n) = 1/2 for every n (flat): the cost n / p grows with n
    flat = Decomposition.build(0.5, 0.0, 0.0, 0.0, w_t=0.5, w_l=0.5)
    assert restart_iterations(flat, 1) == 1
    # n / p = 4 at n = 2, 3 and 4 exactly: the scan takes the smallest
    table = lambda ns: np.interp(ns, [1, 2, 3, 4], [0.0, 0.5, 0.75, 1.0])
    assert strategy._cheapest_iterations(table, 1, 1.0, math.inf) == (2, 4.0)
    never = Decomposition.build(0.5, 0.0, 0.0, 0.0, w_t=0.0, w_l=1.0)
    with pytest.raises(NeverSucceedsError):
        restart_iterations(never, 1)


def _scan_everything(prob, k, n_max):
    """n / P_k(n) over n = 1..n_max in one array, and its first argmin."""
    ns = np.arange(1, n_max + 1, dtype=float)
    with np.errstate(divide="ignore"):
        costs = ns / parallel_success(prob(ns), k)
    best = int(np.argmin(costs))
    # cost(n) >= n, so no n past n_max can beat a minimum at most n_max
    assert costs[best] <= n_max
    return best + 1, float(costs[best])


@settings(max_examples=150, deadline=None)
@given(n_items=st.integers(2, 96), data=st.data())
def test_parallel_plan_matches_an_exhaustive_scan(n_items, data):
    r = data.draw(st.integers(1, n_items))
    k = data.draw(st.integers(1, 64))
    plan = parallel_plan(r, n_items, k)
    v = math.sqrt(r / n_items)
    want = _scan_everything(lambda ns: uniform_success_prob(v, ns), k, 4096)
    assert (plan.n_int, plan.expected_cost) == want
    # the same optimum from sin^2((2n+1) asin v), to round-off
    with np.errstate(divide="ignore"):
        costs = _parallel_cost(np.arange(1, 4097), r, n_items, k)
    assert abs(plan.expected_cost / costs.min() - 1.0) < 1e-9
    assert costs[plan.n_int - 1] <= costs.min() * (1.0 + 1e-9)
    # the lower bound that refuses hopeless scans holds
    assert 1.0 / (3.0 * math.asin(v) * math.sqrt(k)) <= plan.expected_cost


_weight = st.one_of(st.just(0.0), st.floats(0.2, 1.0))


@settings(max_examples=150, deadline=None)
@given(
    v=st.one_of(st.floats(0.01, 1.0 - 1e-6), st.sampled_from([1.0 - 1e-6, 0.999, 0.5])),
    alpha=_weight,
    beta=_weight,
    root_wt=_weight,
    root_wl=_weight,
    b=st.floats(0.0, 2.0 * math.pi),
)
def test_restart_iterations_matches_an_exhaustive_scan(v, alpha, beta, root_wt, root_wl, b):
    norm = math.sqrt(alpha**2 + beta**2 + root_wt**2 + root_wl**2)
    if norm == 0.0:
        return
    dec = Decomposition.build(
        v, alpha / norm, beta / norm, b, w_t=(root_wt / norm) ** 2, w_l=(root_wl / norm) ** 2
    )
    if alpha == beta == root_wt == 0.0:
        with pytest.raises(NeverSucceedsError):
            restart_iterations(dec, 1)
        return
    want = _scan_everything(lambda ns: success_prob_analytic(dec, ns), 1, 2**18)
    assert restart_iterations(dec, 1) == want[0]


def test_parallel_plan_where_r_is_most_of_n():
    # p(1) = 0 at r/N = 3/4: the old pi/4 sqrt(N/r) scan saw only n = 1
    plan = parallel_plan(48, 64, 2)
    assert plan.n_int == 2 and abs(plan.expected_cost - 32.0 / 15.0) < 1e-12
    # n = 1 costs 3.47, n = 2 costs 2.0011
    plan = parallel_plan(40, 64, 2)
    assert plan.n_int == 2 and abs(plan.expected_cost - 2.0010992366412) < 1e-12
    assert _parallel_cost(1, 40, 64, 2) > 3.4


@pytest.mark.parametrize("k", [1, 16])
def test_parallel_plan_memory_is_bounded(k):
    # a scan over one array of n would hold 8.2e5 floats per temporary
    tracemalloc.start()
    try:
        plan = parallel_plan(1, 2**40, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.n_int > 10**5
    assert peak < 4 * 2**20


def test_scan_limit_ends_endless_scans(monkeypatch):
    monkeypatch.setattr(strategy, "_SCAN_LIMIT", 2**12)
    # the optimum n = 611,089 lies past the limit
    with pytest.raises(GQSearchError):
        parallel_plan(1, 2**40, 1)
    # phi = 0 and the start orthogonal to the peak: p(n) = 0 at every n,
    # although its bound A/2 + (alpha^2 + beta^2)/2 is 1
    with pytest.raises(GQSearchError):
        restart_iterations(Decomposition.build(0.0, 0.0, 1.0, 0.0), 1)
    # v = 1e-50: p(n) rounds to 0 far beyond any n a scan can reach
    with pytest.raises(GQSearchError):
        parallel_plan(1, 10**100, 2)
    assert parallel_plan(1, 2**16, 1).n_int == 148


class _Scanned(Exception):
    """Raised by a p(n) spy: the scan started."""


def test_hopeless_plans_are_refused_before_scanning(monkeypatch):
    def spy(formula):
        def prob(*args):
            if np.ndim(args[-1]) > 0:  # p(n) over an array of n is the scan
                raise _Scanned
            return formula(*args)
        return prob

    monkeypatch.setattr(strategy, "uniform_success_prob", spy(uniform_success_prob))
    # the cost bound 1 / (3 asin(2^-30)) = 3.6e8 stays below the limit 2^30
    with pytest.raises(_Scanned):
        parallel_plan(1, 2**60, 1)
    # 1 / (3 asin(2^-35) sqrt(2)) = 8.1e9 does not
    for n_items in (2**70, 10**100):
        with pytest.raises(GQSearchError, match="no optimum"):
            parallel_plan(1, n_items, 2)
    # r/N = 1e-400 rounds to v = 0, which is refused too
    with pytest.raises(GQSearchError, match="no optimum"):
        parallel_plan(1, 10**400, 3)
    # the any-start planner: 1 / (p(0) + A phi) = 5e9 at N = 10^20
    monkeypatch.setattr(strategy, "success_prob_analytic", spy(success_prob_analytic))
    dec = decompose(uniform_instance(10**20, 1))
    for k in (1, 4):
        with pytest.raises(GQSearchError, match="no optimum"):
            restart_iterations(dec, k)
    with pytest.raises(_Scanned):
        restart_iterations(decompose(uniform_instance(2**40, 1)), 1)


def _refusal_outcomes(plan, *args):
    """(outcome, bare outcome) of each scan plan(*args) runs.

    The bare scan is the same call with the cost bound switched off.  An
    outcome is ((n, cost) or the error message, whether p(n) was scanned).
    """
    outcomes = []
    bare = strategy._cheapest_iterations

    def run(prob, k, p_max, inverse_bound):
        scanned = []

        def counted(ns):
            scanned.append(ns.size)
            return prob(ns)

        try:
            return bare(counted, k, p_max, inverse_bound), bool(scanned)
        except GQSearchError as exc:
            return str(exc), bool(scanned)

    def both(prob, k, p_max, inverse_bound):
        outcomes.append((run(prob, k, p_max, inverse_bound), run(prob, k, p_max, math.inf)))
        return 1, 1.0

    with mock.patch.object(strategy, "_cheapest_iterations", both):
        plan(*args)
    return outcomes


def test_refusal_before_scanning_never_changes_an_answer():
    # with a limit of 4,096 and blocks of 64 the bound sits next to the
    # limit on small inputs, so both refusals and answers occur
    rng = np.random.default_rng(12)
    seen = collections.Counter()
    with mock.patch.multiple(strategy, _SCAN_LIMIT=2**12, _MAX_BLOCK=64):
        cases = [
            (parallel_plan, r, int(n_items), k)
            for n_items in np.geomspace(10**5, 10**11, 60)
            for r in (1, 3)
            for k in (1, 2, 8, 64)
        ]
        for _ in range(600):
            v = 10.0 ** rng.uniform(-6.0, -0.5)
            alpha = 10.0 ** rng.uniform(-5.0, -0.5)
            w_t = 10.0 ** rng.uniform(-10.0, -1.0)
            rest = 1.0 - alpha**2 - w_t
            beta = math.sqrt(rest * rng.uniform(0.5, 1.0))
            dec = Decomposition.build(
                v, alpha, beta, rng.uniform(0.0, 2.0 * math.pi),
                w_t=w_t, w_l=rest - beta**2,
            )
            cases.append((restart_iterations, dec, int(rng.choice([1, 2, 3, 8, 64]))))
        for plan, *args in cases:
            for (got, scanned), (want, _) in _refusal_outcomes(plan, *args):
                assert got == want, (plan.__name__, args)
                kind = "refused" if not scanned else "failed" if isinstance(got, str) else "answered"
                seen[plan.__name__, kind] += 1
    for name in ("parallel_plan", "restart_iterations"):
        assert seen[name, "answered"] > 0 and seen[name, "refused"] > 0, seen


@settings(max_examples=300, deadline=None)
@given(n_items=st.integers(1, 200), data=st.data())
def test_restart_iterations_matches_parallel_plan_on_uniform_instances(n_items, data):
    # the any-start planner on the decomposition against the uniform planner
    r = data.draw(st.integers(1, n_items))
    k = data.draw(st.sampled_from([1, 2, 3, 8, 64]))
    dec = decompose(uniform_instance(n_items, r))
    assert restart_iterations(dec, k) == parallel_plan(r, n_items, k).n_int
