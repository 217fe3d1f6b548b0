"""Tests for the seeded Monte Carlo restart experiments."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gqsearch.montecarlo as montecarlo
from gqsearch import (
    GQSearchError,
    TargetSet,
    cost_stddev,
    expected_cost,
    parallel_success,
    punctuated_plan,
    rotation_angle,
    run_parallel,
    success_trajectory,
    uniform_instance,
)
from gqsearch.cli import main

from dense_reference import held_instance, parallel_trial_costs, write_state_file


def test_certain_success_is_deterministic():
    est = run_parallel(1.0, 7, 1, 100, seed=0)
    assert est.mean == 7.0
    assert est.stderr == 0.0
    assert np.all(parallel_trial_costs(1.0, 7, 1, 100, seed=0) == 7.0)


def test_mean_matches_closed_form():
    p, n = 0.3, 5
    est = run_parallel(p, n, 1, 200_000, seed=123)
    closed = expected_cost(n, p)
    assert abs(est.mean - closed) < 3.0 * est.stderr
    assert est.stderr > 0.0


def test_single_trial_has_zero_stderr():
    est = run_parallel(0.5, 2, 1, 1, seed=9)
    assert est.stderr == 0.0


def test_certain_success_over_many_blocks_has_zero_stderr(monkeypatch):
    # p_k = 1 exactly: once from p = 1, once from 1 - 0.1^64 rounding to 1
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 7)
    for p, k in ((1.0, 1), (0.9, 64)):
        assert parallel_success(p, k) == 1.0
        est = run_parallel(p, 3, k, 100, seed=4)
        assert (est.mean, est.stderr) == (3.0, 0.0)


def test_parallel_equals_punctuated_at_boosted_bias():
    # a k-agent round is one coin of bias 1 - (1-p)^k; the trial costs
    # must coincide draw for draw
    p, n, k = 0.2, 4, 6
    a = parallel_trial_costs(p, n, k, 500, seed=21)
    b = parallel_trial_costs(parallel_success(p, k), n, 1, 500, seed=21)
    assert np.array_equal(a, b)


def test_parallel_mean_matches_closed_form():
    p, n, k = 0.1, 8, 4
    est = run_parallel(p, n, k, 150_000, seed=5)
    closed = expected_cost(n, parallel_success(p, k))
    assert abs(est.mean - closed) < 3.0 * est.stderr


def test_zero_probability_never_terminates():
    message = "success probability 0; process cannot terminate"
    with pytest.raises(GQSearchError, match=message):
        run_parallel(0.0, 3, 1, 10, seed=0)
    with pytest.raises(GQSearchError, match=message):
        run_parallel(0.0, 3, 4, 10, seed=0)


def test_round_cap_raises():
    # at p = 1e-12 a median trial needs ~7e11 rounds, far past the cap; at
    # 1e-300 the counts pass 2^63 and at a subnormal p they reach inf, where
    # an int64 cast gave negative costs
    message = rf"a trial exceeded the cap of {montecarlo.ROUND_CAP} rounds \(p="
    for p in (1e-12, 1e-300, 5e-324):
        for k in (1, 3):
            with pytest.raises(GQSearchError, match=message):
                parallel_trial_costs(p, 1, k, 4, seed=0)
            with pytest.raises(GQSearchError, match=message):
                run_parallel(p, 1, k, 4, seed=0)


def test_runs_are_reproducible_and_seed_sensitive():
    a = run_parallel(0.25, 3, 1, 20_000, seed=77)
    b = run_parallel(0.25, 3, 1, 20_000, seed=77)
    assert a == b
    c = run_parallel(0.25, 3, 1, 20_000, seed=78)
    assert c.mean != a.mean


def test_statevector_variant_rejects_zero_support(tmp_path, capsys):
    # start and averaging both orthogonal to the target: p stays 0
    off = np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3.0)
    inst = held_instance(TargetSet(range(1)), off, off)
    p = success_trajectory(inst, 1)[-1]
    assert p == 0.0
    with pytest.raises(GQSearchError, match="success probability 0; process cannot terminate"):
        run_parallel(p, 1, 1, 5, seed=0)
    path = tmp_path / "off.txt"
    write_state_file(str(path), off)
    code = main([
        "montecarlo", "--n-items", "4", "--targets", "0", "--start", f"file:{path}",
        "--averaging", f"file:{path}", "--iterations", "1", "--trials", "5",
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.startswith("error:")


def test_validation_errors():
    with pytest.raises(ValueError):
        run_parallel(0.5, 0, 1, 10, seed=0)
    with pytest.raises(ValueError):
        run_parallel(0.5, 3, 1, 0, seed=0)
    with pytest.raises(ValueError):
        run_parallel(1.5, 3, 1, 10, seed=0)
    with pytest.raises(ValueError):
        parallel_trial_costs(0.5, 3, 0, 10, seed=0)


@settings(max_examples=25, deadline=None)
@given(
    p=st.floats(0.05, 1.0),
    n=st.integers(1, 20),
    trials=st.integers(1, 200),
    seed=st.integers(0, 2**31),
)
def test_cost_structure(p, n, trials, seed):
    costs = parallel_trial_costs(p, n, 1, trials, seed=seed)
    assert costs.shape == (trials,)
    assert np.all(costs >= n)
    # with free resets every cost is a whole number of n-iteration rounds
    assert np.all(costs % float(n) == 0.0)


def test_punctuated_mean_large_sample():
    est = run_parallel(0.5, 3, 1, 10**6, seed=42)
    assert abs(est.mean - 6.0) <= 3.0 * est.stderr


def test_sample_sd_arbitrates_geometric_form():
    # a seeded bootstrap supplies the standard error of the sample SD;
    # the geometric form n sqrt(1-p)/p matches
    costs = parallel_trial_costs(0.5, 1, 1, 10**6, seed=24)
    sd_hat = float(costs.std(ddof=1))
    rng = np.random.default_rng(2024)
    boots = np.empty(120)
    for b in range(120):
        idx = rng.integers(0, costs.size, costs.size)
        boots[b] = costs[idx].std(ddof=1)
    se = float(boots.std(ddof=1))
    assert abs(sd_hat - cost_stddev(1, 0.5)) < 3.0 * se


def test_parallel_closed_form_points():
    two = run_parallel(0.5, 1, 2, 10**6, seed=99)
    assert abs(two.mean - 1.0 / 0.75) <= 3.0 * two.stderr
    eight = run_parallel(0.1, 10, 8, 10**5, seed=101)
    assert abs(eight.mean - 10.0 / (1.0 - 0.9**8)) <= 3.0 * eight.stderr


def test_statevector_mean_at_punctuated_optimum():
    inst = uniform_instance(64, 1)
    plan = punctuated_plan(rotation_angle(math.sqrt(1.0 / 64.0)))
    p_round = success_trajectory(inst, plan.n_int)[-1]
    closed = expected_cost(plan.n_int, p_round)
    est = run_parallel(p_round, plan.n_int, 1, 10**5, seed=6)
    assert abs(est.mean - closed) <= 3.0 * est.stderr


def test_consistency_grid_coverage():
    # across the (p, k) grid at least 95 of 100 seeded replications land
    # within tolerance of n / (1 - (1-p)^k); the near-point-mass cell
    # (stderr can be exactly 0) gets a relative floor instead
    for p in (0.05, 0.2, 0.5, 0.9):
        for k in (1, 2, 8):
            closed = expected_cost(7, parallel_success(p, k))
            hits = 0
            for rep in range(100):
                est = run_parallel(p, 7, k, 10**4, seed=rep)
                tol = max(3.0 * est.stderr, 1e-6 * closed)
                hits += abs(est.mean - closed) <= tol
            assert hits >= 95, f"p={p} k={k}: only {hits}/100 within tolerance"


# ---------------------------------------------------------------------------
# the stream behind every uniform


def test_costs_follow_the_documented_stream():
    # trial t inverts the geometric CDF of P_k at the t-th double of
    # default_rng(seed), across block boundaries too
    p, n, k, seed = 0.2, 3, 4, 1234567
    trials = 2 * montecarlo._BLOCK_ELEMENTS + 5
    u = np.random.default_rng(seed).random(trials)
    pk = parallel_success(p, k)
    expected = n * (np.floor(np.log1p(-u) / math.log1p(-pk)) + 1)
    assert np.array_equal(parallel_trial_costs(p, n, k, trials, seed), expected)


def test_coin_costs_do_not_depend_on_block(monkeypatch):
    full = parallel_trial_costs(0.2, 3, 4, 500, seed=17)
    assert np.unique(full).size > 3  # rounds vary across trials
    est = run_parallel(0.2, 3, 4, 500, seed=17)
    for cap in (1, 7, montecarlo._BLOCK_ELEMENTS):
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", cap)
        costs = parallel_trial_costs(0.2, 3, 4, 500, seed=17)
        assert np.array_equal(costs, full)
        folded = run_parallel(0.2, 3, 4, 500, seed=17)
        assert folded.mean == est.mean
        assert folded.stderr == pytest.approx(est.stderr, rel=1e-13, abs=0.0)


def _exact_stderr(costs: np.ndarray, n: int) -> float:
    """n sqrt(M2 / ((T-1) T)) from the integer round counts, M2 exact."""
    rounds = (costs / n).astype(np.int64).tolist()
    trials = len(rounds)
    m2 = Fraction(sum(r * r for r in rounds)) - Fraction(sum(rounds) ** 2, trials)
    return math.sqrt(float(n * n * m2 / ((trials - 1) * trials)))


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(1e-3, 1.0),
    n=st.integers(1, 10_000),
    k=st.sampled_from([1, 2, 3, 8, 64]),
    trials=st.integers(2, 3 * montecarlo._BLOCK_ELEMENTS + 5),
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([97, 4096, montecarlo._BLOCK_ELEMENTS]),
)
@example(p=0.0623, n=5, k=8, trials=3 * montecarlo._BLOCK_ELEMENTS + 5, seed=99,
         block=montecarlo._BLOCK_ELEMENTS)
def test_folded_estimate_matches_the_trial_costs(p, n, k, trials, seed, block):
    # the running sums give the mean of the per-trial costs bit for bit
    # (every total here is below 2^53) and the exact standard error
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_BLOCK_ELEMENTS", block)
        costs = parallel_trial_costs(p, n, k, trials, seed)
        est = run_parallel(p, n, k, trials, seed)
    assert est.mean == float(costs.mean())
    assert est.stderr == pytest.approx(_exact_stderr(costs, n), rel=1e-12, abs=0.0)


def test_folded_estimate_keeps_no_per_trial_array():
    # the coin call of the benchmark: 3e6 costs alone would take 23 MiB, and
    # every block is drawn into one buffer, so no two blocks are live at once;
    # a first call imports numpy.random (about 0.5 MiB) outside the trace
    run_parallel(0.0623, 5, 8, 2, seed=99)
    tracemalloc.start()
    try:
        run_parallel(0.0623, 5, 8, 3_000_000, seed=99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * montecarlo._BLOCK_ELEMENTS


def test_counter_range_is_checked():
    with pytest.raises(ValueError):
        run_parallel(0.5, 1, 1, 5, seed=-1)
    with pytest.raises(ValueError):
        run_parallel(0.5, 1, 1, 5, seed=2**64)
    est = run_parallel(0.5, 1, 1, 4, seed=2**64 - 1)
    assert est.mean == float(parallel_trial_costs(0.5, 1, 1, 4, seed=2**64 - 1).mean())


def test_round_counts_are_geometric():
    # sampled round counts against Geometric(P_k): cells 1, 2, ... and a
    # tail cell holding at least 5 expected trials
    p, trials = 0.05, 200_000
    for k in (1, 8):
        pk = parallel_success(p, k)
        rounds = parallel_trial_costs(p, 1, k, trials, seed=31).astype(np.int64)
        cells = 1 + int(math.log(5.0 / trials) / math.log1p(-pk))
        observed = np.bincount(np.minimum(rounds, cells), minlength=cells + 1)[1:]
        head = pk * (1.0 - pk) ** np.arange(cells - 1)  # P(R = r), r < cells
        expected = trials * np.append(head, (1.0 - pk) ** (cells - 1))
        stat = float(np.sum((observed - expected) ** 2 / expected))
        # the chi-square survival function at cells - 1 degrees of freedom
        pvalue = mpmath.gammainc(0.5 * (cells - 1), 0.5 * stat, mpmath.inf, regularized=True)
        assert pvalue > 0.001, f"k={k}"
