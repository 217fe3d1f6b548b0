"""Tests for the punctuated and k-parallel strategy planners."""

import itertools
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
    run_parallel,
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
    with pytest.raises(GQSearchError, match="success probability is 0; cost diverges"):
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
    with pytest.raises(GQSearchError, match="success probability is 0 for every n"):
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
    with pytest.raises(GQSearchError, match="success probability is 0; cost diverges"):
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


@pytest.mark.parametrize("r, n_items, message", [
    (0, 64, "target count 0 outside [1, 64]"),
    (65, 64, "target count 65 outside [1, 64]"),
    (1, 0, "n_items must be >= 1, got 0"),
], ids=["r=0", "r>N", "N=0"])
def test_parallel_plan_closed_form_checks_r_against_n(r, n_items, message):
    # the one range check of targets against N, statevector._rows
    with pytest.raises(GQSearchError) as info:
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


@pytest.mark.parametrize("k", [2**53 + 1, 2**1024, 10**400])
def test_agent_counts_past_2_53_are_refused(monkeypatch, k):
    # k >= 2^1024 once ended in OverflowError from k * log1p(-p) or float(k);
    # past 2^53 a float no longer holds k exactly
    monkeypatch.setattr(strategy, "_cheapest_iterations", None)  # never reached
    message = f"k must be <= 2\\^53, got {k}$"
    for call in (lambda: parallel_success(0.5, k),
                 lambda: parallel_plan(decompose(uniform_instance(64, 1)), k),
                 lambda: parallel_plan_closed_form(1, 2**20, k),
                 lambda: optimal_x_parallel_approx(k),
                 lambda: run_parallel(0.5, 3, k, 10, seed=0)):
        with pytest.raises(GQSearchError, match=message):
            call()
    assert parallel_success(0.5, 2**53) == 1.0


def test_closed_form_past_float_range_is_out_of_validity():
    # N/r = 2^1100 once raised OverflowError from math.sqrt(N / r)
    for n_items in (2**1023 + 1, 2**1100):
        with pytest.raises(ValidityError, match=r"requires 2\^-1023 <= r/N <= 0\.01"):
            parallel_plan_closed_form(1, n_items, 4)
    plan = parallel_plan_closed_form(1, 2**1023, 4)
    assert plan.n_int == round(plan.n_opt) and math.isfinite(plan.expected_cost)


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
    table = lambda dec, n: float(np.interp(n, [1, 2, 3, 4], [0.0, 0.5, 0.75, 1.0]))
    peak_one = Decomposition(0.5, 1.0, 0.0, 0.0)  # p_max = 1
    with mock.patch.object(strategy, "success_prob_analytic", table):
        assert strategy._cheapest_iterations(peak_one, 1) == (2, 4.0)
    never = Decomposition(0.5, 0.0, 0.0, 0.0, w_t=0.0, w_l=1.0)
    with pytest.raises(GQSearchError, match="success probability is 0 for every n"):
        parallel_plan(never, 1)


def _scan_everything(dec, k, n_max):
    """n / P_k(n) over n = 1..n_max in one numpy array; its first argmin, rescored."""
    costs = scan_reference.scan_costs(dec, k, np.arange(1, n_max + 1, dtype=float))
    best = int(np.argmin(costs))
    # cost(n) >= n, so no n past n_max can beat a minimum at most n_max
    assert costs[best] <= n_max
    return scan_reference.rescore(dec, k, best + 1)


@settings(max_examples=150, deadline=None)
@given(n_items=st.integers(2, 96), data=st.data())
def test_parallel_plan_matches_an_exhaustive_scan(n_items, data):
    r = data.draw(st.integers(1, n_items))
    k = data.draw(st.integers(1, 64))
    dec = decompose(uniform_instance(n_items, r))
    plan = parallel_plan(dec, k)
    v = math.sqrt(r / n_items)
    want = _scan_everything(dec, k, 4096)
    assert (plan.n_int, plan.expected_cost) == want
    # the same optimum from sin^2((2n+1) asin v), to round-off
    with np.errstate(divide="ignore"):
        costs = _parallel_cost(np.arange(1, 4097), r, n_items, k)
    assert abs(plan.expected_cost / costs.min() - 1.0) < 1e-9
    assert costs[plan.n_int - 1] <= costs.min() * (1.0 + 1e-9)
    # the uniform start's lower bound on the cost holds
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
        with pytest.raises(GQSearchError, match="success probability is 0 for every n"):
            parallel_plan(dec, 1)
        return
    want = _scan_everything(dec, 1, 2**18)
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


def _count_points(monkeypatch):
    """The n the planner computes p(n) at, one entry per n."""
    points = []

    def counted(dec, n):
        points.append(n)
        return success_prob_analytic(dec, n)

    monkeypatch.setattr(strategy, "success_prob_analytic", counted)
    return points


@pytest.mark.parametrize("k, n_int", [(1, 625_755_895), (64, 75_262_488)])
def test_parallel_plan_at_huge_n_is_sublinear(monkeypatch, k, n_int):
    # a scan of every n evaluates 6.3e8 points at k = 1.  The 60-digit
    # optima are 625,755,896 and 75,262,488: at k = 1 the costs of the
    # root's floor and ceiling differ by less than the rounding of p(n) in
    # floats, which ranks them the other way round
    points = _count_points(monkeypatch)
    tracemalloc.start()
    try:
        plan = uniform_plan(1, 2**60, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.n_int == n_int
    assert len(points) < 10**6
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n_items", [2**60, 2**100])
@pytest.mark.parametrize("k", [1, 16, 2**40])
def test_parallel_plan_costs_three_candidates(monkeypatch, n_items, k):
    # n = 1 and the floor and ceiling of one stationary point, at any N
    points = _count_points(monkeypatch)
    plan = uniform_plan(1, n_items, k)
    assert len(points) == 3 and points[0] == 1 and plan.n_int in points


@pytest.mark.parametrize("n_items", [2**60, 2**76, 2**100])
@pytest.mark.parametrize("k", [1, 16, 2**40])
def test_parallel_plan_is_within_one_of_the_mpmath_optimum(n_items, k):
    # past N = 2^50 neighbouring n differ in cost by less than the rounding
    # of p(n), so float64 picks between the floor and the ceiling
    n = uniform_plan(1, n_items, k).n_int
    assert abs(n - scan_reference.uniform_optimum(1, n_items, k, n)) <= 1


_EDGE_V = (1.0, 1.0 - 1e-9, 0.999, 0.9, math.sqrt(0.5), 0.5, 0.1, 1e-3, 1e-6)
# (alpha^2, beta^2, w_t, w_l): either coordinate 0, weight off the plane, both
_EDGE_WEIGHTS = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0),
                 (0.3, 0.3, 0.4, 0.0), (0.0, 0.6, 0.4, 0.0), (0.6, 0.0, 0.4, 0.0),
                 (0.2, 0.3, 0.1, 0.4), (0.0, 0.5, 0.0, 0.5))


def _plan_or_error(dec, k):
    try:
        plan = parallel_plan(dec, k)
    except GQSearchError as exc:
        return str(exc)
    return plan.n_int, plan.expected_cost


@pytest.mark.parametrize("v", _EDGE_V)
def test_parallel_plan_on_the_edge_grid(v):
    # 96 decompositions a v, at b = 0, 1, pi/2, pi and k = 1, 16, 2^40.  At
    # v = 1, phi = pi: p(n) is p(0) at every integer in exact arithmetic, and
    # the linear scan, which does not fold phi, has no stopping point
    zero = "success probability is 0 for every n"
    for (a2, b2, w_t, w_l), b, k in itertools.product(
        _EDGE_WEIGHTS, (0.0, 1.0, 0.5 * math.pi, math.pi), (1, 16, 2**40)
    ):
        dec = Decomposition(v, math.sqrt(a2), math.sqrt(b2), b, w_t=w_t, w_l=w_l)
        if v < 1.0:
            try:
                want = scan_reference.cheapest_iterations(dec, k)
            except GQSearchError as exc:
                want = str(exc)
        else:
            p_k = parallel_success(success_prob_analytic(dec, 1), k)
            want = (1, 1.0 / p_k) if p_k > 0.0 else zero
        assert _plan_or_error(dec, k) == want, (a2, b2, w_t, w_l, b, k)


def _random_decomposition(rng, v):
    alpha, beta, w_t, w_l = rng.uniform(0.0, 1.0, 4) ** 2
    norm = math.sqrt(alpha**2 + beta**2 + w_t + w_l)
    return Decomposition(
        v, alpha / norm, beta / norm, rng.uniform(0.0, 2.0 * math.pi),
        w_t=w_t / norm**2, w_l=w_l / norm**2,
    )


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
    want = _scan_everything(dec, k, 2**18)
    assert parallel_plan(dec, k).n_int == want[0]
