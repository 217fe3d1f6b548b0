"""Tests for the punctuated and k-parallel strategy planners."""

import collections
import math
import re
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqsearch import (
    Decomposition,
    GQSearchError,
    InvalidDimensionError,
    InvalidTargetError,
    NeverSucceedsError,
    TargetSet,
    ValidityError,
    cost_stddev,
    decompose,
    expected_cost,
    max_probability_cost,
    optimal_x_parallel_approx,
    optimal_x_single,
    parallel_plan,
    parallel_plan_closed_form,
    parallel_success,
    punctuated_plan,
    punctuated_success_prob,
    rotation_angle,
    success_prob_analytic,
    uniform_instance,
    uniform_success_prob,
)
import gqsearch.strategy as strategy

import scan_reference
from scan_reference import uniform_plan
from dense_reference import dense_evolution, held_instance, random_state, uniform_state


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


def test_cost_stddev_geometric_form():
    sd = cost_stddev(1, 0.5)
    assert abs(sd - math.sqrt(2.0) / 2.0 / 0.5) < 1e-12  # = sqrt(2)
    assert abs(sd - 1.4142135623730951) < 1e-12


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


def test_punctuated_plan_values():
    phi = 0.01
    plan = punctuated_plan(phi)
    assert abs(plan.n_opt * 2.0 * phi - optimal_x_single()) < 1e-12
    assert plan.n_int == 117
    assert abs(plan.expected_cost - 117.0 / math.sin(1.17) ** 2) < 1e-9
    sd = cost_stddev(117, math.sin(1.17) ** 2)
    assert abs(plan.stddev_geometric - sd) < 1e-9


@pytest.mark.parametrize("phi", [0.05, 0.01, 0.002])
def test_punctuated_plan_integer_is_true_argmin(phi):
    plan = punctuated_plan(phi)
    ns = np.arange(1, math.ceil(math.pi / phi))
    costs = ns / np.sin(ns * phi) ** 2
    assert int(ns[np.argmin(costs)]) == plan.n_int


def test_punctuated_plan_regime():
    with pytest.raises(NeverSucceedsError, match="success probability is 0 for every n"):
        punctuated_plan(0.0)
    with pytest.raises(ValueError, match="phi must be positive"):
        punctuated_plan(-0.1)
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




def _bracketed_root(f, lo, hi, xtol):
    """The root of f in [lo, hi], where f changes sign, bisected to xtol."""
    return float(mpmath.findroot(f, (lo, hi), solver="bisect", tol=xtol))


def test_parallel_cost_derivative_vanishes_at_optimum():
    # for k = 1 the stationarity condition is tan x = 2x, i.e. x = x*/2
    assert abs(parallel_cost_derivative(optimal_x_single() / 2.0, 1)) < 1e-9
    # k >= 2: the numeric root of the derivative is a genuine minimum
    for k in (2, 5):
        root = _bracketed_root(lambda x: parallel_cost_derivative(x, k), 0.2, 1.5, 1e-13)
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
    root = _bracketed_root(lambda x: parallel_cost_derivative(x, 2), 0.3, 1.5, 1e-13)
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


def test_parallel_plan_closed_form_refuses_an_optimum_below_one_iteration():
    # r/N = 0.01 and k = 32: n_opt = (10 x - 1)/2 = 0.485 rounds to 0
    n_opt = 0.5 * (optimal_x_parallel_approx(32) * 10.0 - 1.0)
    assert round(n_opt, 3) == 0.485
    message = f"closed-form optimum rounds below one iteration (n_opt={n_opt})"
    with pytest.raises(ValidityError) as info:
        parallel_plan_closed_form(1, 100, 32)
    assert str(info.value) == message


def test_parallel_plan_numeric_matches_brute_force():
    n_items, r, k = 4096, 1, 3
    plan = uniform_plan(r, n_items, k)
    n_hi = math.ceil(0.25 * math.pi * math.sqrt(n_items / r))
    costs = _parallel_cost(np.arange(1, n_hi + 1), r, n_items, k)
    best = int(np.argmin(costs)) + 1
    assert plan.n_int == best
    assert abs(plan.expected_cost - costs[best - 1]) < 1e-12


def test_parallel_plan_numeric_k1_matches_punctuated_optimum():
    n_items = 2**20
    phi = rotation_angle(math.sqrt(1.0 / n_items))
    plan = uniform_plan(1, n_items, 1)
    assert abs(plan.n_int - punctuated_plan(phi).n_int) <= 1


def test_parallel_plan_validity():
    with pytest.raises(ValidityError):
        parallel_plan_closed_form(1, 2**20, 1)
    with pytest.raises(ValidityError):
        parallel_plan_closed_form(1, 64, 4)  # r/N > 0.01
    for plan in (uniform_plan, parallel_plan_closed_form):
        with pytest.raises(ValueError):
            plan(0, 64, 4)
        with pytest.raises(ValueError):
            plan(1, 64, 0)


@pytest.mark.parametrize("r, n_items, error, message", [
    (0, 64, InvalidTargetError, "target count 0 outside [1, 64]"),
    (65, 64, InvalidTargetError, "target count 65 outside [1, 64]"),
    (1, 0, InvalidDimensionError, "n_items must be >= 1, got 0"),
], ids=["r=0", "r>N", "N=0"])
def test_parallel_plan_closed_form_checks_r_against_n(r, n_items, error, message):
    # the one range check of targets against N, statevector._rows
    with pytest.raises(error) as info:
        parallel_plan_closed_form(r, n_items, 4)
    assert str(info.value) == message


@pytest.mark.parametrize("k", [0, -1, -2**62])
def test_parallel_plan_refuses_k_below_one_before_planning(monkeypatch, k):
    # k = -1 once reached math.sqrt(k c) in the cost bound: "math domain error"
    def no_scan(*args):
        raise AssertionError("planned before the k check")

    monkeypatch.setattr(strategy, "_cheapest_iterations", no_scan)
    general = Decomposition(0.3, 0.6, 0.5, 1.0, w_t=0.2, w_l=0.19)
    for dec in (decompose(uniform_instance(2**20, 1)), general):
        with pytest.raises(ValueError) as info:
            parallel_plan(dec, k)
        assert str(info.value) == f"k must be >= 1, got {k}"


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
    plan = uniform_plan(r, n_items, k)
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
    x_even = _bracketed_root(g, 0.5, x_star, 1e-14)
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
    dec = decompose(held_instance(*states))
    period = math.ceil(math.pi / dec.phi)
    n = parallel_plan(dec, 1).n_int
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
        assert parallel_plan(dec, 1).n_int == round(optimal_x_single() / (2.0 * dec.phi))
    assert parallel_plan(decompose(uniform_instance(2**20, 16)), 1).n_int == 148
    # k agents at N = 2^20, r = 1: the one-agent n = 596 would cost 610.8
    # at k = 2 and 596.0 at k = 8
    dec = decompose(uniform_instance(2**20, 1))
    for k, n, cost in ((1, 596, 705.99), (2, 412, 535.17), (8, 203, 279.20)):
        assert parallel_plan(dec, k).n_int == n
        p = success_prob_analytic(dec, n)
        assert abs(expected_cost(n, parallel_success(p, k)) - cost) < 0.01
    # a random start with three targets: the uniform-start n = 22 costs
    # 37,440 per success, a single iteration 2,188
    states = (TargetSet((3, 17, 40)), uniform_state(4096), random_state(4096, 7))
    dec = decompose(held_instance(*states))
    assert parallel_plan(dec, 1).n_int == 1
    costs, n_brute = _brute_force_restart(states, math.ceil(math.pi / dec.phi))
    assert n_brute == 1 and round(costs[0]) == 2188 and round(costs[21]) == 37440


def test_restart_iterations_ties_and_zero_probability():
    # v = 1/2: phi = pi/3, p(n) = 1/4, 1, 1/4, ... from the uniform start;
    # n = 1 is the unique optimum of the three-step period
    assert parallel_plan(decompose(uniform_instance(4, 1)), 1).n_int == 1
    # p(n) = 1/2 for every n (flat): the cost n / p grows with n
    flat = Decomposition(0.5, 0.0, 0.0, 0.0, w_t=0.5, w_l=0.5)
    assert parallel_plan(flat, 1).n_int == 1
    # n / p = 4 at n = 2, 3 and 4 exactly: the planner takes the smallest
    table = lambda dec, ns: np.interp(ns, [1, 2, 3, 4], [0.0, 0.5, 0.75, 1.0])
    peak_one = Decomposition(0.5, 1.0, 0.0, 0.0)  # p_max = 1
    with mock.patch.object(strategy, "success_prob_analytic", table):
        assert strategy._cheapest_iterations(peak_one, 1) == (2, 4.0)
    never = Decomposition(0.5, 0.0, 0.0, 0.0, w_t=0.0, w_l=1.0)
    with pytest.raises(NeverSucceedsError):
        parallel_plan(never, 1)


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
    dec = decompose(uniform_instance(n_items, r))
    plan = parallel_plan(dec, k)
    v = math.sqrt(r / n_items)
    want = _scan_everything(lambda ns: success_prob_analytic(dec, ns), k, 4096)
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
    dec = Decomposition(
        v, alpha / norm, beta / norm, b, w_t=(root_wt / norm) ** 2, w_l=(root_wl / norm) ** 2
    )
    if alpha == beta == root_wt == 0.0:
        with pytest.raises(NeverSucceedsError):
            parallel_plan(dec, 1)
        return
    want = _scan_everything(lambda ns: success_prob_analytic(dec, ns), 1, 2**18)
    assert parallel_plan(dec, 1).n_int == want[0]


def test_parallel_plan_where_r_is_most_of_n():
    # p(1) = 0 at r/N = 3/4: the old pi/4 sqrt(N/r) scan saw only n = 1
    plan = uniform_plan(48, 64, 2)
    assert plan.n_int == 2 and abs(plan.expected_cost - 32.0 / 15.0) < 1e-12
    # n = 1 costs 3.47, n = 2 costs 2.0011
    plan = uniform_plan(40, 64, 2)
    assert plan.n_int == 2 and abs(plan.expected_cost - 2.0010992366412) < 1e-12
    assert _parallel_cost(1, 40, 64, 2) > 3.4


@pytest.mark.parametrize("k", [1, 16])
def test_parallel_plan_memory_is_bounded(k):
    # a scan over one array of n would hold 8.2e5 floats per temporary
    tracemalloc.start()
    try:
        plan = uniform_plan(1, 2**40, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.n_int > 10**5
    assert peak < 4 * 2**20


@pytest.mark.parametrize("k, n_int", [(1, 625_755_891), (64, 75_262_489)])
def test_parallel_plan_at_huge_n_is_sublinear(monkeypatch, k, n_int):
    # a scan of every n evaluates 6.3e8 points at k = 1; the planner's passes
    # hold at most _MAX_BLOCK points each.  At k = 64 the costs of n =
    # 75,262,488 and 75,262,489 differ by 2.4e-8 in 1.05e8 (50-digit
    # mpmath), within the rounding of p(n) in floats: the planner's own p(n)
    # ranks them the other way round
    points = []

    def counted(dec, ns):
        points.append(np.size(ns))
        return success_prob_analytic(dec, ns)

    monkeypatch.setattr(strategy, "success_prob_analytic", counted)
    tracemalloc.start()
    try:
        plan = uniform_plan(1, 2**60, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.n_int == n_int
    assert sum(points) < 10**6
    assert peak < 4 * 2**20


def test_scan_limit_ends_endless_scans(monkeypatch):
    monkeypatch.setattr(strategy, "_SCAN_LIMIT", 2**12)
    # the optimum n = 611,089 lies past the limit
    with pytest.raises(GQSearchError):
        uniform_plan(1, 2**40, 1)
    # phi = 0 and the start orthogonal to the peak: p(n) = 0 at every n,
    # although its bound A/2 + (alpha^2 + beta^2)/2 is 1
    with pytest.raises(GQSearchError):
        parallel_plan(Decomposition(0.0, 0.0, 1.0, 0.0), 1)
    # v = 1e-50: p(n) rounds to 0 far beyond any n a scan can reach
    with pytest.raises(GQSearchError):
        uniform_plan(1, 10**100, 2)
    assert uniform_plan(1, 2**16, 1).n_int == 148


class _Scanned(Exception):
    """Raised by a p(n) spy: the scan started."""


def _no_array_scan(dec, ns):
    if np.ndim(ns) > 0:  # p(n) over an array of n is the scan
        raise _Scanned
    return success_prob_analytic(dec, ns)


def test_hopeless_plans_are_refused_before_scanning(monkeypatch):
    monkeypatch.setattr(strategy, "success_prob_analytic", _no_array_scan)
    # the cost bound 1 / (p(0) + A phi) = 5.4e8 at v = 2^-30 stays below the
    # limit 2^30
    with pytest.raises(_Scanned):
        uniform_plan(1, 2**60, 1)
    # 1 / (2 (p(0) + A phi)) = 8.6e9 at v = 2^-35 does not
    for n_items in (2**70, 10**100):
        with pytest.raises(GQSearchError, match="no optimum"):
            uniform_plan(1, n_items, 2)
    # r/N = 1e-400 underflows to 0.0, refused before v = 0 is formed
    with pytest.raises(InvalidDimensionError, match="underflows"):
        uniform_plan(1, 10**400, 3)
    # from decompose: 1 / (p(0) + A phi) = 5e9 at N = 10^20
    dec = decompose(uniform_instance(10**20, 1))
    for k in (1, 4):
        with pytest.raises(GQSearchError, match="no optimum"):
            parallel_plan(dec, k)
    with pytest.raises(_Scanned):
        parallel_plan(decompose(uniform_instance(2**40, 1)), 1)


def _refusal_outcomes(dec, k):
    """(outcome, bare outcome) of planning dec for k agents.

    The bare plan is the same call with the cost bound switched off.  An
    outcome is ((n, cost) or the error message, whether p(n) was computed
    on an array of n).
    """
    bounds = strategy._success_bounds

    def run(bound):
        scanned = []

        def counted(dec, ns):
            scanned.append(np.ndim(ns) > 0)
            return success_prob_analytic(dec, ns)

        with mock.patch.multiple(strategy, success_prob_analytic=counted, _success_bounds=bound):
            try:
                return strategy._cheapest_iterations(dec, k), any(scanned)
            except GQSearchError as exc:
                return str(exc), any(scanned)

    return run(bounds), run(lambda dec, k: (bounds(dec, k)[0], math.inf))


def _faint_decomposition(rng, low):
    """A random start whose v, alpha^2 and w_t may be as small as 10^low."""
    v = 10.0 ** rng.uniform(low, -0.5)
    alpha = 10.0 ** rng.uniform(low + 1.0, -0.5)
    w_t = 10.0 ** rng.uniform(2.0 * low + 2.0, -1.0)
    rest = 1.0 - alpha**2 - w_t
    beta = math.sqrt(rest * rng.uniform(0.5, 1.0))
    return Decomposition(
        v, alpha, beta, rng.uniform(0.0, 2.0 * math.pi), w_t=w_t, w_l=rest - beta**2,
    )


def test_refusal_before_scanning_never_changes_an_answer():
    # with a limit of 4,096 and blocks of 64 the bound sits next to the
    # limit on small inputs, so both refusals and answers occur
    rng = np.random.default_rng(12)
    seen = collections.Counter()
    agents = (1, 2, 8, 64, 10**4, 10**8)
    with mock.patch.multiple(strategy, _SCAN_LIMIT=2**12, _MAX_BLOCK=64):
        cases = [
            ("uniform", decompose(uniform_instance(int(n_items), r)), k)
            for n_items in np.geomspace(10**5, 10**11, 60)
            for r in (1, 3)
            for k in agents
        ]
        for _ in range(600):
            dec = _faint_decomposition(rng, -6.0)
            cases.append(("random", dec, int(rng.choice((3,) + agents))))
        for start, dec, k in cases:
            (got, scanned), (want, _) = _refusal_outcomes(dec, k)
            assert got == want, (start, dec, k)
            kind = "refused" if not scanned else "failed" if isinstance(got, str) else "answered"
            seen[start, kind] += 1
    for start in ("uniform", "random"):
        assert seen[start, "answered"] > 0 and seen[start, "refused"] > 0, seen


_REFUSED = "no optimum|probability is 0 for every n"


@settings(max_examples=300, deadline=None)
@given(
    log_n_items=st.floats(0.0, 300.0 * math.log2(10.0)),
    log_r=st.floats(0.0, 64.0),
    log_k=st.floats(0.0, 12.0),
)
def test_the_rule_refuses_every_plan_the_uniform_bound_refused(log_n_items, log_r, log_k):
    # the uniform bound cost >= 1 / (3 asin(v) sqrt(k)), at P_k(1) = 1
    n_items = int(2.0**log_n_items)
    r = min(n_items, int(2.0**log_r))
    k = int(10.0**log_k)
    reach = strategy._SCAN_LIMIT + strategy._MAX_BLOCK
    if 1.0 <= 3.0 * math.asin(math.sqrt(r / n_items)) * math.sqrt(k) * reach:
        return
    with mock.patch.object(strategy, "success_prob_analytic", _no_array_scan):
        with pytest.raises(GQSearchError, match=_REFUSED):
            uniform_plan(r, n_items, k)


@settings(max_examples=300, deadline=None)
@given(log_k=st.floats(0.0, 12.0), seed=st.integers(0, 2**32 - 1))
def test_the_rule_refuses_every_plan_the_linear_bound_refused(log_k, seed):
    # the any-start bound cost >= 1 / (k (p(0) + A phi)), at P_k(p_max)
    dec = _faint_decomposition(np.random.default_rng(seed), -30.0)
    k = int(10.0**log_k)
    p_0 = success_prob_analytic(dec, 0)
    peak = dec.w_t + (0.5 * (dec.alpha**2 + dec.beta**2) + 0.5 * dec.amp)
    floor = parallel_success(min(1.0, peak), k)
    if floor <= k * (p_0 + dec.amp * dec.phi) * (strategy._SCAN_LIMIT + strategy._MAX_BLOCK):
        return
    with mock.patch.object(strategy, "success_prob_analytic", _no_array_scan):
        with pytest.raises(GQSearchError, match=_REFUSED):
            parallel_plan(dec, k)


def _random_decomposition(rng, v):
    alpha, beta, w_t, w_l = rng.uniform(0.0, 1.0, 4) ** 2
    norm = math.sqrt(alpha**2 + beta**2 + w_t + w_l)
    return Decomposition(
        v, alpha / norm, beta / norm, rng.uniform(0.0, 2.0 * math.pi),
        w_t=w_t / norm**2, w_l=w_l / norm**2,
    )


@settings(max_examples=150, deadline=None)
@given(
    general=st.booleans(),
    log_n_items=st.floats(1.0, 62.0),
    k=st.sampled_from([1, 2, 3, 8, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_bounds_never_exceed_a_cost_in_the_block(general, log_n_items, k, seed):
    rng = np.random.default_rng(seed)
    n_items = int(2.0**log_n_items)
    r = int(rng.integers(1, n_items + 1)) if rng.uniform() < 0.5 else 1
    if general:
        dec = _random_decomposition(rng, math.sqrt(r / n_items))
    else:
        dec = decompose(uniform_instance(n_items, r))
    p_max, _ = strategy._success_bounds(dec, k)
    # blocks of 1 to 4,096 n up to n = 2^30 next to, or around, a peak of p
    # (phase 2 n phi - theta a multiple of 2 pi), a trough (an odd multiple
    # of pi) or any n: where p is flat, rounding decides which n of a block
    # is largest
    slope, offset = 2.0 * dec.phi, -dec.theta
    turns = int(slope * 2**30 / (2.0 * math.pi))
    starts, ends = [], []
    for kind, side in rng.integers(0, 3, size=(24, 2)):
        if kind < 2:
            target = math.pi * (2 * int(rng.integers(0, turns + 1)) + kind)
            centre = math.floor((target - offset) / slope)
        else:
            centre = int(rng.integers(1, 2**30))
        size = 2 ** int(rng.integers(0, 13))
        start = (centre - size, centre + 1, centre - int(rng.integers(0, size)))[side]
        start = min(max(1, start), 2**30)
        starts.append(start)
        ends.append(start + size - 1)
    starts_f = np.array(starts, dtype=float)
    bounds = strategy._block_bounds(
        dec, k, p_max, starts_f, success_prob_analytic(dec, starts_f), np.array(ends, dtype=float)
    )
    for start, end, bound in zip(starts, ends, bounds):
        ns = np.arange(start, end + 1, dtype=float)
        with np.errstate(divide="ignore"):
            costs = ns / parallel_success(success_prob_analytic(dec, ns), k)
        assert bound <= costs.min(), (start, end)


@settings(max_examples=120, deadline=None)
@given(log_n_items=st.floats(0.0, 40.0), data=st.data())
def test_parallel_plan_matches_the_linear_scan(log_n_items, data):
    n_items = int(2.0**log_n_items)
    r = data.draw(st.one_of(st.integers(1, min(n_items, 16)), st.integers(1, n_items)))
    k = data.draw(st.sampled_from([1, 2, 3, 8, 64]))
    dec = decompose(uniform_instance(n_items, r))
    try:
        want = scan_reference.cheapest_iterations(dec, k)
    except GQSearchError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            parallel_plan(dec, k)
        return
    plan = parallel_plan(dec, k)
    assert (plan.n_int, plan.expected_cost) == want


@settings(max_examples=150, deadline=None)
@given(log_v=st.floats(-7.0, 0.0), k=st.sampled_from([2, 3, 8, 64]), seed=st.integers(0, 2**32 - 1))
def test_restart_iterations_for_k_agents_matches_an_exhaustive_scan(log_v, k, seed):
    dec = _random_decomposition(np.random.default_rng(seed), 2.0**log_v)
    want = _scan_everything(lambda ns: success_prob_analytic(dec, ns), k, 2**18)
    assert parallel_plan(dec, k).n_int == want[0]
