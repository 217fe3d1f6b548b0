"""Acceptance suite: ten end-to-end criteria at fixed tolerances.

Each test checks one criterion, enforces its runtime budget, and prints a
single summary line on success; the assertion message carries the measured
value on failure.
"""

import math
import time

import numpy as np
import pytest

from gqsearch import (
    TargetSet,
    cost_stddev,
    decompose,
    expected_cost,
    first_maximum,
    max_probability_cost,
    optimal_x_single,
    parallel_plan,
    parallel_plan_closed_form,
    parallel_success,
    punctuated_plan,
    rotation_angle,
    run_parallel,
    success_prob_analytic,
    success_trajectory,
    uniform_instance,
    uniform_success_prob,
)
from gqsearch.analytic import biham_mapping
from gqsearch.cli import default_heatmap_n_max, heatmap_grid

from dense_reference import held_instance, parallel_trial_costs, random_state, uniform_state
from scan_reference import cheapest_iterations, uniform_plan


def test_criterion_01_simulator_analytic_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for i in range(200):
        n_items = int(rng.integers(4, 257))
        r = int(rng.integers(1, n_items))
        targets = TargetSet(tuple(rng.choice(n_items, size=r, replace=False)))
        averaging = (
            uniform_state(n_items) if i % 2 == 0 else random_state(n_items, 1000 + i)
        )
        inst = held_instance(targets, averaging, random_state(n_items, 2000 + i))
        sim = success_trajectory(inst, 50)
        ana = success_prob_analytic(decompose(inst), np.arange(51))
        worst = max(worst, float(np.max(np.abs(sim - ana))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, f"criterion 01: max |dp| = {worst:.3e}"
    assert elapsed < 30.0, f"criterion 01: took {elapsed:.1f}s"
    print(
        f"criterion 01 simulator/analytic equivalence over 200 instances: "
        f"PASS (max dev {worst:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_02_strategy_constants():
    t0 = time.perf_counter()
    x = optimal_x_single()
    assert abs(x - 2.3311) <= 1e-4, f"criterion 02: x = {x!r}"
    phi = 0.01
    plan = punctuated_plan(phi)
    n_phi = plan.n_opt * phi
    cost_phi = plan.expected_cost * phi
    assert abs(n_phi - 1.1655) <= 1e-3, f"criterion 02: n_opt*phi = {n_phi!r}"
    assert abs(cost_phi - 1.3801) <= 1e-3, f"criterion 02: cost*phi = {cost_phi!r}"
    base_phi = max_probability_cost(phi) * phi
    assert abs(base_phi - 1.5708) <= 1e-3, f"criterion 02: base*phi = {base_phi!r}"
    ratio = plan.expected_cost / max_probability_cost(phi)
    assert abs(ratio - 0.8786) <= 0.001, f"criterion 02: ratio = {ratio!r}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 02: took {elapsed:.2f}s"
    print(
        f"criterion 02 strategy constants: PASS (x={x:.6f}, cost*phi={cost_phi:.5f}, "
        f"ratio={ratio:.4f}, about 12% better)"
    )


def test_criterion_03_single_target_uniform_cost():
    t0 = time.perf_counter()
    n_items = 2**20
    phi = rotation_angle(math.sqrt(1.0 / n_items))
    cost = punctuated_plan(phi).expected_cost
    target = 0.6900 * math.sqrt(n_items)
    rel = abs(cost - target) / target
    elapsed = time.perf_counter() - t0
    assert rel < 0.005, f"criterion 03: cost = {cost!r}, rel dev {rel:.2e}"
    assert elapsed < 1.0, f"criterion 03: took {elapsed:.2f}s"
    print(
        f"criterion 03 single-target cost 0.69 sqrt(N): PASS "
        f"(cost={cost:.4f}, target={target:.2f}, rel dev {rel:.1e})"
    )


def test_criterion_04_grover_special_case():
    t0 = time.perf_counter()
    worst_p = 0.0
    worst_n = 0.0
    for n_items in (64, 16, 4):  # v = 1/8, 1/4, 1/2
        v = math.sqrt(1.0 / n_items)
        inst = uniform_instance(n_items, 1)
        sim = success_trajectory(inst, 20)
        closed = np.array([uniform_success_prob(v, n) for n in range(21)])
        worst_p = max(worst_p, float(np.max(np.abs(sim - closed))))
        dec = decompose(inst)
        n_first, _ = first_maximum(dec)
        worst_n = max(worst_n, abs(n_first - (0.5 * math.pi / dec.phi - 0.5)))
    elapsed = time.perf_counter() - t0
    assert worst_p < 1e-10, f"criterion 04: max |dp| = {worst_p:.3e}"
    assert worst_n < 1e-9, f"criterion 04: max maximizer dev = {worst_n:.3e}"
    assert elapsed < 5.0, f"criterion 04: took {elapsed:.2f}s"
    print(
        f"criterion 04 special-case probabilities and maximizer: PASS "
        f"(max dp {worst_p:.2e}, max dn {worst_n:.2e})"
    )


def test_criterion_05_single_agent_reduction():
    # k = 1 two ways: the planner on the uniform decomposition, and the
    # linear reference scan of the same decomposition
    t0 = time.perf_counter()
    cases = [
        (1, 16), (1, 64), (2, 64), (1, 256), (3, 256),
        (1, 1024), (5, 1024), (2, 4096), (1, 16384), (7, 16384),
    ]
    worst = 0.0
    for r, n_items in cases:
        dec = decompose(uniform_instance(n_items, r))
        plan = parallel_plan(dec, 1)
        n = cheapest_iterations(dec, 1)[0]
        assert n == plan.n_int, f"criterion 05: n = {n} vs {plan.n_int} at r={r}, N={n_items}"
        cost = expected_cost(n, success_prob_analytic(dec, n))
        worst = max(worst, abs(cost - plan.expected_cost))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12, f"criterion 05: max dev = {worst!r}"
    assert elapsed < 1.0, f"criterion 05: took {elapsed:.2f}s"
    print(
        f"criterion 05 single-agent reduction over {len(cases)} plans: PASS "
        f"(max dev {worst:.1e})"
    )


def test_criterion_06_parallel_closed_form_vs_numeric():
    t0 = time.perf_counter()
    n_items = 2**20
    worst_n = 0.0
    worst_cost = 0.0
    for r in range(1, 6):
        for k in range(2, 65):
            numeric = uniform_plan(r, n_items, k)
            formula = parallel_plan_closed_form(r, n_items, k)
            assert formula.x < 1.0, f"criterion 06: x = {formula.x!r} at r={r}, k={k}"
            n_dev = abs(formula.n_opt - numeric.n_int) / numeric.n_int
            p_at = uniform_success_prob(math.sqrt(r / n_items), formula.n_int)
            cost_at = expected_cost(formula.n_int, parallel_success(p_at, k))
            cost_dev = abs(cost_at - numeric.expected_cost) / numeric.expected_cost
            worst_n = max(worst_n, n_dev)
            worst_cost = max(worst_cost, cost_dev)
    elapsed = time.perf_counter() - t0
    assert worst_n < 0.10, f"criterion 06: worst n dev = {worst_n:.4f}"
    assert worst_cost < 0.02, f"criterion 06: worst cost dev = {worst_cost:.5f}"
    assert elapsed < 60.0, f"criterion 06: took {elapsed:.1f}s"
    print(
        f"criterion 06 closed form vs numeric over r=1..5, k=2..64: PASS "
        f"(worst n dev {worst_n:.2%}, worst cost dev {worst_cost:.3%})"
    )


def test_criterion_07_monte_carlo_agreement():
    t0 = time.perf_counter()
    n, trials, reps = 10, 10**5, 100
    results = []
    for p in (0.05, 0.2, 0.5):
        for k in (1, 2, 8):
            closed = expected_cost(n, parallel_success(p, k))
            hits = 0
            for rep in range(reps):
                est = run_parallel(p, n, k, trials, seed=rep)
                if abs(est.mean - closed) <= 3.0 * est.stderr:
                    hits += 1
            results.append((p, k, hits))
            assert hits >= 95, f"criterion 07: p={p}, k={k}: {hits}/100 within 3 se"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 07: took {elapsed:.1f}s"
    min_hits = min(h for _, _, h in results)
    print(
        f"criterion 07 Monte Carlo mean agreement (9 combos x 100 seeds): PASS "
        f"(min coverage {min_hits}/100, {elapsed:.1f}s)"
    )


# (p, geometric form, alternative form) of the cost deviation at n = 1
STDDEV_CASES = (
    (0.05, 19.4936, 19.0250),
    (0.2, 4.4721, 4.0988),
    (0.5, 1.4142, 1.2247),
    (0.8, 0.5590, 0.5123),
)


@pytest.mark.parametrize("i", range(len(STDDEV_CASES)), ids=lambda i: f"p={STDDEV_CASES[i][0]}")
def test_criterion_08_stddev_arbitration(i):
    p, geometric_value, alt_value = STDDEV_CASES[i]
    n, trials = 1, 10**6
    costs = parallel_trial_costs(p, n, 1, trials, seed=8 + i)  # one stream per p
    s = float(costs.std(ddof=1))
    m = float(costs.mean())
    m4 = float(np.mean((costs - m) ** 4))
    # large-sample standard error of the sample standard deviation
    se = math.sqrt((m4 - s**4) / (4.0 * s * s * trials))
    geometric = cost_stddev(n, p)
    # the refuted alternative closed form, kept here to show why it went
    alt = (n / p) * math.sqrt((1.0 - p) * (1.0 - p + p * p))
    d_geometric = abs(s - geometric) / se
    d_alt = abs(s - alt) / se
    assert abs(geometric - geometric_value) < 1e-4
    assert abs(alt - alt_value) < 1e-4
    assert d_alt > 10.0, f"criterion 08: p={p}: alt form only {d_alt:.1f} se away"
    assert d_geometric < 10.0, f"criterion 08: p={p}: geometric form {d_geometric:.1f} se away"
    print(
        f"criterion 08 stddev arbitration at p={p}: PASS (sample sd {s:.4f}; geometric "
        f"form {geometric:.4f} at {d_geometric:.1f} se, alt form {alt:.4f} at "
        f"{d_alt:.1f} se; the data supports the geometric formula)"
    )


def test_criterion_09_heatmap_single_target_column():
    t0 = time.perf_counter()
    n_items = 64
    v = math.sqrt(1.0 / n_items)
    phi = rotation_angle(v)
    n_max = default_heatmap_n_max(n_items)
    grid = np.asarray(heatmap_grid(n_items, n_max))
    column = grid[:, 0]
    n_star = round(0.5 * math.pi / phi - 0.5)
    assert n_star == 6
    argmax = int(np.argmax(column))
    assert argmax == 6, f"criterion 09: argmax = {argmax}"
    assert column[6] > 0.996, f"criterion 09: p(6) = {column[6]!r}"
    period = math.pi / phi
    assert 12.4 < period < 12.7, f"criterion 09: period = {period!r}"
    for n in (0.0, 1.7, 5.0, 9.3):
        dev = abs(uniform_success_prob(v, n + period) - uniform_success_prob(v, n))
        assert dev < 1e-12, f"criterion 09: periodicity dev = {dev:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 09: took {elapsed:.2f}s"
    print(
        f"criterion 09 heatmap r=1 column: PASS (first max at n=6, "
        f"p={column[6]:.6f}, period {period:.4f} iterations)"
    )


def test_criterion_10_mean_amplitude_identities():
    t0 = time.perf_counter()
    n_items = 64
    worst = 0.0
    for i in range(50):
        r = (1, 4, 16)[i % 3]
        start = random_state(n_items, 500 + i)
        targets = TargetSet(range(r))
        m = biham_mapping(start, targets)
        total = (
            r * abs(m.k_bar) ** 2
            + r * m.sigma_k**2
            + (n_items - r) * abs(m.l_bar) ** 2
            + (n_items - r) * m.sigma_l**2
        )
        worst = max(worst, abs(total - 1.0))
        dec = decompose(held_instance(targets, uniform_state(n_items), start))
        worst = max(worst, abs(dec.alpha - abs(m.k_bar) * math.sqrt(r)))
        worst = max(worst, abs(dec.beta - abs(m.l_bar) * math.sqrt(n_items - r)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, f"criterion 10: max dev = {worst:.3e}"
    assert elapsed < 5.0, f"criterion 10: took {elapsed:.2f}s"
    print(
        f"criterion 10 mean-amplitude identities on 50 random states: PASS "
        f"(max dev {worst:.2e})"
    )
