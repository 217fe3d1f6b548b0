"""Tests for the seeded Monte Carlo restart experiments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.stats import chisquare

import gqsearch.montecarlo as montecarlo
from gqsearch import (
    NeverSucceedsError,
    SearchInstance,
    StateVector,
    TargetSet,
    TrialCapError,
    cost_stddev,
    expected_cost,
    parallel_success,
    parallel_trial_costs,
    punctuated_plan,
    rotation_angle,
    run_parallel,
    success_probability,
    trial_uniforms,
    uniform_instance,
)
from gqsearch.cli import main, write_state_file


def test_certain_success_is_deterministic():
    est = run_parallel(1.0, 7, 1, 100, seed=0)
    assert est.mean == 7.0
    assert est.stderr == 0.0
    assert est.trials == 100
    assert np.all(parallel_trial_costs(1.0, 7, 1, 100, seed=0) == 7.0)


def test_mean_matches_closed_form():
    p, n = 0.3, 5
    est = run_parallel(p, n, 1, 200_000, seed=123)
    closed = expected_cost(n, p)
    assert abs(est.mean - closed) < 3.0 * est.stderr
    assert est.stderr > 0.0


def test_single_trial_has_zero_stderr():
    est = run_parallel(0.5, 2, 1, 1, seed=9)
    assert est.trials == 1
    assert est.stderr == 0.0


def test_trial_stream_partition_is_exact():
    full = trial_uniforms(9, 0, 100)
    parts = np.concatenate([trial_uniforms(9, 0, 37), trial_uniforms(9, 37, 63)])
    assert np.array_equal(full, parts)
    costs_full = parallel_trial_costs(0.4, 3, 1, 100, seed=9)
    costs_parts = np.concatenate(
        [
            parallel_trial_costs(0.4, 3, 1, 50, seed=9),
            parallel_trial_costs(0.4, 3, 1, 50, seed=9, trial_start=50),
        ]
    )
    assert np.array_equal(costs_full, costs_parts)


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
    with pytest.raises(NeverSucceedsError):
        run_parallel(0.0, 3, 1, 10, seed=0)
    with pytest.raises(NeverSucceedsError):
        run_parallel(0.0, 3, 4, 10, seed=0)


def test_round_cap_raises():
    # at p = 1e-12 a median trial needs ~7e11 rounds, far past the cap; at
    # 1e-300 the counts pass 2^63 and at a subnormal p they reach inf, where
    # an int64 cast gave negative costs
    for p in (1e-12, 1e-300, 5e-324):
        for k in (1, 3):
            with pytest.raises(TrialCapError):
                parallel_trial_costs(p, 1, k, 4, seed=0)


def test_runs_are_reproducible_and_seed_sensitive():
    a = run_parallel(0.25, 3, 1, 20_000, seed=77)
    b = run_parallel(0.25, 3, 1, 20_000, seed=77)
    assert a == b
    c = run_parallel(0.25, 3, 1, 20_000, seed=78)
    assert c.mean != a.mean


def test_statevector_variant_rejects_zero_support(tmp_path, capsys):
    # start and averaging both orthogonal to the target: p stays 0
    off = StateVector(np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3.0))
    inst = SearchInstance.from_states(TargetSet.first(1), off, off)
    p = success_probability(inst, 1)
    assert p == 0.0
    with pytest.raises(NeverSucceedsError):
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
    with pytest.raises(ValueError):
        trial_uniforms(0, -1, 10)


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
    # the geometric form n sqrt(1-p)/p matches, the alternative does not
    costs = parallel_trial_costs(0.5, 1, 1, 10**6, seed=24)
    sd_hat = float(costs.std(ddof=1))
    rng = np.random.default_rng(2024)
    boots = np.empty(120)
    for b in range(120):
        idx = rng.integers(0, costs.size, costs.size)
        boots[b] = costs[idx].std(ddof=1)
    se = float(boots.std(ddof=1))
    forms = cost_stddev(1, 0.5)
    assert abs(sd_hat - forms.geometric) < 3.0 * se
    assert abs(sd_hat - forms.alt) > 3.0 * se


def test_parallel_closed_form_points():
    two = run_parallel(0.5, 1, 2, 10**6, seed=99)
    assert abs(two.mean - 1.0 / 0.75) <= 3.0 * two.stderr
    eight = run_parallel(0.1, 10, 8, 10**5, seed=101)
    assert abs(eight.mean - 10.0 / (1.0 - 0.9**8)) <= 3.0 * eight.stderr


def test_statevector_mean_at_punctuated_optimum():
    inst = uniform_instance(64, TargetSet((7,)))
    plan = punctuated_plan(rotation_angle(math.sqrt(1.0 / 64.0)))
    p_round = success_probability(inst, plan.n_int)
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
# the counter-based generator behind every uniform

SPLITMIX64_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_mixer_matches_published_splitmix64():
    # element i of the SplitMix64 sequence is mix64(seed + (i + 1) * gamma)
    states = np.uint64(1234567) + np.arange(1, 6, dtype=np.uint64) * montecarlo._GAMMA
    assert montecarlo._mix64(states).tolist() == SPLITMIX64_1234567
    # trials 0..4 sit at positions 0..4: their top 53 bits, times 2^-53
    assert trial_uniforms(1234567, 0, 5).tolist() == [
        (v >> 11) * 2.0**-53 for v in SPLITMIX64_1234567
    ]


def test_draws_are_a_pure_function_of_trial_and_round():
    # the draw for trial t depends on (seed, t) alone, not on the batch
    block = trial_uniforms(5, 10, 10)
    for t in (10, 14, 19):
        assert block[t - 10] == trial_uniforms(5, t, 1)[0]
    # trial t is element t of the sequence, here computed in Python integers
    mask = 2**64 - 1
    z = (5 + (12 + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    z ^= z >> 31
    assert block[2] == (z >> 11) * 2.0**-53


def test_coin_costs_do_not_depend_on_block(monkeypatch):
    full = parallel_trial_costs(0.2, 3, 4, 500, seed=17)
    assert np.unique(full).size > 3  # rounds vary across trials
    for cap in (1, 7, montecarlo._BLOCK_ELEMENTS):
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", cap)
        costs = parallel_trial_costs(0.2, 3, 4, 500, seed=17)
        assert np.array_equal(costs, full)


def test_counter_range_is_checked():
    with pytest.raises(ValueError):
        parallel_trial_costs(0.5, 1, 1, 5, seed=-1)
    with pytest.raises(ValueError):
        parallel_trial_costs(0.5, 1, 1, 5, seed=2**64)
    with pytest.raises(ValueError):
        parallel_trial_costs(0.5, 1, 1, 5, seed=0, trial_start=2**32 - 4)
    parallel_trial_costs(0.5, 1, 1, 4, seed=2**64 - 1, trial_start=2**32 - 4)
    with pytest.raises(ValueError):
        trial_uniforms(0, 2**32 - 1, 2)
    assert trial_uniforms(0, 2**32 - 1, 1).shape == (1,)


def test_uniforms_are_equidistributed_over_trials_and_rounds():
    u = trial_uniforms(31, 0, 128_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    observed = np.bincount((u * 256).astype(np.int64), minlength=256)
    assert chisquare(observed).pvalue > 0.001
    # consecutive trials t and t + 1 are independent: 16 x 16 cells over
    # non-overlapping pairs
    cells = (u[0::2] * 16).astype(np.int64) * 16 + (u[1::2] * 16).astype(np.int64)
    observed = np.bincount(cells, minlength=256)
    assert chisquare(observed).pvalue > 0.001
