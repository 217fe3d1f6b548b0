"""Tests for the punctuated and k-parallel strategy planners."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gqsearch import (
    Decomposition,
    NeverSucceedsError,
    SearchInstance,
    TargetSet,
    RegimeError,
    ValidityError,
    cost_stddev,
    decompose,
    expected_cost,
    grover_case_prob,
    max_probability_cost,
    optimal_x_parallel_approx,
    optimal_x_single,
    parallel_cost_derivative,
    parallel_expected_cost,
    parallel_plan,
    parallel_success,
    punctuated_plan,
    punctuated_success_prob,
    random_state,
    restart_iterations,
    rotation_angle,
    uniform_instance,
    uniform_state,
)
import gqsearch.strategy as strategy
from gqsearch.statevector import _dense_evolution


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
    with pytest.raises(RegimeError):
        punctuated_plan(0.5 * math.pi)
    with pytest.raises(RegimeError):
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


def test_parallel_expected_cost_full_target_set():
    # r = N: integer n succeeds with certainty, half-integer n never does
    assert abs(parallel_expected_cost(3, 8, 8, 2) - 3.0) < 1e-12
    with pytest.raises(NeverSucceedsError):
        parallel_expected_cost(0.5, 8, 8, 2)
    with pytest.raises(ValueError):
        parallel_expected_cost(3, 9, 8, 2)
    with pytest.raises(ValueError):
        parallel_expected_cost(0, 1, 8, 2)


def test_parallel_expected_cost_approx_flag():
    n_items = 2**20
    exact = parallel_expected_cost(500, 1, n_items, 4)
    approx = parallel_expected_cost(500, 1, n_items, 4, approx=True)
    assert abs(approx / exact - 1.0) < 1e-6
    # the approximation replaces the angle with 2 v
    v = math.sqrt(1.0 / n_items)
    p1 = 0.5 * (1.0 - math.cos(1001.0 * 2.0 * v))
    assert abs(approx - 500.0 / (1.0 - (1.0 - p1) ** 4)) < 1e-9


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
    plan = parallel_plan(1, 2**20, 4, method="closed_form")
    x = optimal_x_parallel_approx(4)
    ratio = math.sqrt(2**20)
    assert plan.method == "closed_form"
    assert abs(plan.x - x) < 1e-15
    assert abs(plan.n_opt - 0.5 * (x * ratio - 1.0)) < 1e-9
    assert plan.n_int == round(plan.n_opt)
    expected = (x * ratio - 1.0) / (2.0 * (1.0 - math.cos(x) ** 8))
    assert abs(plan.expected_cost - expected) < 1e-9


def test_parallel_plan_numeric_matches_brute_force():
    n_items, r, k = 4096, 1, 3
    plan = parallel_plan(r, n_items, k, method="numeric")
    n_hi = math.ceil(0.25 * math.pi * math.sqrt(n_items / r))
    costs = [parallel_expected_cost(n, r, n_items, k) for n in range(1, n_hi + 1)]
    best = int(np.argmin(costs)) + 1
    assert plan.n_int == best
    assert abs(plan.expected_cost - costs[best - 1]) < 1e-12


def test_parallel_plan_numeric_k1_matches_punctuated_optimum():
    n_items = 2**20
    phi = rotation_angle(math.sqrt(1.0 / n_items))
    plan = parallel_plan(1, n_items, 1, method="numeric")
    assert abs(plan.n_int - punctuated_plan(phi).n_int) <= 1


def test_parallel_plan_validity():
    with pytest.raises(ValidityError):
        parallel_plan(1, 2**20, 1, method="closed_form")
    with pytest.raises(ValidityError):
        parallel_plan(1, 64, 4, method="closed_form")  # r/N > 0.01
    with pytest.raises(ValueError):
        parallel_plan(1, 64, 4, method="other")
    with pytest.raises(ValueError):
        parallel_plan(0, 64, 4)
    with pytest.raises(ValueError):
        parallel_plan(1, 64, 0)


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
    plan = parallel_plan(r, n_items, k, method="numeric")
    for n in (plan.n_int - 1, plan.n_int + 1):
        if n >= 1:
            assert plan.expected_cost <= parallel_expected_cost(n, r, n_items, k) + 1e-9


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


def _brute_force_restart(instance, n_max):
    """n / p(n) over n = 1..n_max from the dense simulator, and its argmin."""
    probs, _ = _dense_evolution(instance, n_max)
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
    inst = SearchInstance(
        n_items=n_items,
        targets=TargetSet(tuple(targets)),
        averaging=uniform_state(n_items),
        start=random_state(n_items, data.draw(st.integers(0, 2**31))),
    )
    dec = decompose(inst)
    period = math.ceil(math.pi / dec.phi)
    n = restart_iterations(dec)
    assert 1 <= n <= period
    # two periods of the simulator: nothing past the first is cheaper
    costs, n_brute = _brute_force_restart(inst, 2 * period)
    assert costs[n - 1] <= costs.min() * (1.0 + 1e-9)
    if costs[n_brute - 1] < costs[n - 1] * (1.0 - 1e-9):
        pytest.fail(f"brute force n={n_brute} beats n={n}")


def test_restart_iterations_known_instances():
    # uniform starts keep the punctuated optimum round(x*/(2 phi))
    for n_items, r in ((256, 1), (4096, 1)):
        dec = decompose(uniform_instance(n_items, r))
        assert restart_iterations(dec) == round(optimal_x_single() / (2.0 * dec.phi))
    assert restart_iterations(decompose(uniform_instance(2**20, 16))) == 148
    # a random start with three targets: the uniform-start n = 22 costs
    # 37,440 per success, a single iteration 2,188
    inst = SearchInstance(
        n_items=4096,
        targets=TargetSet((3, 17, 40)),
        averaging=uniform_state(4096),
        start=random_state(4096, 7),
    )
    dec = decompose(inst)
    assert restart_iterations(dec) == 1
    costs, n_brute = _brute_force_restart(inst, math.ceil(math.pi / dec.phi))
    assert n_brute == 1 and round(costs[0]) == 2188 and round(costs[21]) == 37440


def test_restart_iterations_ties_and_zero_probability():
    # v = 1/2: phi = pi/3, p(n) = 1/4, 1, 1/4, ... from the uniform start;
    # n = 1 is the unique optimum of the three-step period
    assert restart_iterations(decompose(uniform_instance(4, 1))) == 1
    # p(n) = 1/2 for every n (flat): the cost n / p grows with n
    flat = Decomposition.build(0.5, 0.0, 0.0, 0.0, w_t=0.5, w_l=0.5)
    assert restart_iterations(flat) == 1
    # n / p = 4 at n = 2, 3 and 4 exactly: the scan takes the smallest
    ns = np.arange(1, 6)
    assert strategy._cheapest(ns, np.array([0.0, 0.5, 0.75, 1.0, 1.0])) == 1
    never = Decomposition.build(0.5, 0.0, 0.0, 0.0, w_t=0.0, w_l=1.0)
    with pytest.raises(NeverSucceedsError):
        restart_iterations(never)
