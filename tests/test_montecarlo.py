"""Tests for the seeded Monte Carlo restart experiments."""

import math
import random
import statistics
import time
import tracemalloc
from collections import Counter
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
    # p_k = 1 exactly at the trial cap: once from p = 1, once from 1 - 0.1^64
    # rounding to 1
    for p, k in ((1.0, 1), (0.9, 64)):
        assert parallel_success(p, k) == 1.0
        est = run_parallel(p, 3, k, 2**32, seed=4)
        assert (est.mean, est.stderr) == (3.0, 0.0)


def test_mean_matches_closed_form():
    p, n = 0.3, 5
    est = run_parallel(p, n, 1, 200_000, seed=123)
    closed = expected_cost(n, p)
    assert abs(est.mean - closed) < 3.0 * est.stderr
    assert est.stderr > 0.0


def test_single_trial_has_zero_stderr():
    est = run_parallel(0.5, 2, 1, 1, seed=9)
    assert est.stderr == 0.0


def test_parallel_equals_punctuated_at_boosted_bias():
    # a k-agent round is one coin of bias 1 - (1-p)^k; the trial costs
    # must coincide draw for draw
    p, n, k = 0.2, 4, 6
    a = parallel_trial_costs(p, n, k, 500, seed=21)
    b = parallel_trial_costs(parallel_success(p, k), n, 1, 500, seed=21)
    assert np.array_equal(a, b)
    assert run_parallel(p, n, k, 500, seed=21) == run_parallel(parallel_success(p, k), n, 1, 500, seed=21)


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
    # an int64 cast gave negative costs.  run_parallel refuses each from
    # (T, P_k) before a draw; the reference finds the breach in its counts
    message = rf"the cap of {montecarlo.ROUND_CAP} rounds \(p="
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
# the stream behind every uniform, and the walk over the round counts

EDGE_SEEDS = (0, 1, 2, 7, 42, 2**31 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1)


def test_uniforms_are_numpys_default_rng():
    # the plain-Python SeedSequence and PCG64 give numpy's doubles bit for bit
    rng = random.Random(2024)
    for seed in EDGE_SEEDS + tuple(rng.randrange(2**64) for _ in range(40)):
        draw = montecarlo._uniforms(seed)
        assert [draw() for _ in range(64)] == np.random.default_rng(seed).random(64).tolist(), seed


def _exact_estimate(counts, n: int, trials: int):
    """(mean, stderr squared) of the costs n * rounds from (rounds, count)
    pairs, as exact Fractions."""
    total = sum(r * c for r, c in counts)
    squares = sum(r * r * c for r, c in counts)
    mean = Fraction(n * total, trials)
    if trials == 1:
        return mean, Fraction(0)
    return mean, Fraction(n * n * (trials * squares - total * total), trials * trials * (trials - 1))


def test_costs_follow_the_documented_stream():
    # the estimate folds the walk fed by default_rng(seed).random(), through
    # every branch: a BTRS round, an inversion round and trials left over
    p, n, k = 0.2, 3, 4
    pk = parallel_success(p, k)
    for trials, seed in ((2**17 + 5, 1234567), (50, 8), (1, 3), (4, 2**64 - 1)):
        counts = list(montecarlo._round_counts(pk, trials, np.random.default_rng(seed).random))
        mean, stderr_sq = _exact_estimate(counts, n, trials)
        est = run_parallel(p, n, k, trials, seed)
        assert est.mean == float(mean)
        assert est.stderr == pytest.approx(math.sqrt(stderr_sq), rel=1e-15, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(1e-3, 1.0),
    n=st.integers(1, 10_000),
    k=st.sampled_from([1, 2, 3, 8, 64]),
    trials=st.integers(1, 10**7),
    seed=st.integers(0, 2**64 - 1),
)
@example(p=0.0623, n=5, k=8, trials=3_000_000, seed=99)
def test_estimate_matches_the_round_histogram(p, n, k, trials, seed):
    # the walk yields rounds 1, 2, ... while alive * P_k >= 1, then one round
    # past the last per trial left over (at P_k >= 1e-3 none passes the cap);
    # the running integer sums give the exact mean, correctly rounded, and
    # the standard error
    pk = parallel_success(p, k)
    est = run_parallel(p, n, k, trials, seed)
    if pk == 1.0:
        assert est == (float(n), 0.0)
        return
    counts = list(montecarlo._round_counts(pk, trials, montecarlo._uniforms(seed)))
    alive, walked = trials, 0
    while alive and alive * pk >= 1.0:
        assert counts[walked][0] == walked + 1
        alive -= counts[walked][1]
        walked += 1
    assert len(counts) == walked + alive
    assert all(c == 1 and walked < r <= montecarlo.ROUND_CAP for r, c in counts[walked:])
    mean, stderr_sq = _exact_estimate(counts, n, trials)
    assert est.mean == float(mean)
    assert est.stderr == pytest.approx(math.sqrt(stderr_sq), rel=1e-15, abs=0.0)


def test_folded_estimate_keeps_no_per_trial_array():
    # the coin call of the benchmark, and the same race at the trial cap: the
    # walk holds a few integers, whatever the trial count (the per-trial
    # sampler's buffer took 512 KiB)
    run_parallel(0.0623, 5, 8, 2, seed=99)
    peaks = []
    for trials in (3_000_000, 2**32):
        tracemalloc.start()
        try:
            run_parallel(0.0623, 5, 8, trials, seed=99)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] == peaks[1] < 4096


def test_counter_range_is_checked():
    with pytest.raises(ValueError):
        run_parallel(0.5, 1, 1, 5, seed=-1)
    with pytest.raises(ValueError):
        run_parallel(0.5, 1, 1, 5, seed=2**64)
    for trials in (10**400, 2**32 + 1):  # checked as integers, before any float
        with pytest.raises(ValueError, match=r"must lie in \[1, 2\^32\]"):
            run_parallel(0.5, 1, 1, trials, seed=0)
    est = run_parallel(0.5, 1, 1, 4, seed=2**64 - 1)
    counts = montecarlo._round_counts(0.5, 4, np.random.default_rng(2**64 - 1).random)
    assert est.mean == float(_exact_estimate(counts, 1, 4)[0])


def _binomial_pmf(n: int, p: float, x: int) -> float:
    return math.exp(math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
                    + x * math.log(p) + (n - x) * math.log1p(-p))


def _chi_square_pvalue(observed: Counter, expected: dict, draws: int) -> float:
    """Survival function of the chi-square statistic of observed draws against
    expected counts for the cells that hold at least 5, with every other value
    pooled into one more cell."""
    cells = {x: e for x, e in expected.items() if e >= 5.0}
    rest = draws - sum(cells.values())
    stat = sum((observed[x] - e) ** 2 / e for x, e in cells.items())
    stat += (draws - sum(observed[x] for x in cells) - rest) ** 2 / rest
    return float(mpmath.gammainc(0.5 * len(cells), 0.5 * stat, mpmath.inf, regularized=True))


@pytest.mark.parametrize("n, p", [
    # inversion, n min(p, 1 - p) < 10, on either side of 1/2
    (9, 0.5), (1000, 0.0099), (21, 0.47), (40, 0.76),
    # BTRS just past the switch, on either side of 1/2, and far past it
    (1000, 0.0101), (21, 0.49), (40, 0.74), (200, 0.3), (3_000_000, 0.32),
])
def test_binomial_matches_the_exact_pmf(n, p):
    # 40,000 draws against the lgamma pmf.  Where n p is just past 10 the
    # squeeze bound v_r = 0.92 - 4.2/b is near 0.46, so a sampler that
    # accepted at 0.92 would fail here by far
    draws = 40_000
    uniforms = np.random.default_rng(n).random
    observed = Counter(montecarlo._binomial(n, p, uniforms) for _ in range(draws))
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    span = range(max(0, int(mean - 12 * sd) - 12), min(n, int(mean + 12 * sd) + 12) + 1)
    expected = {x: draws * _binomial_pmf(n, p, x) for x in span}
    assert min(observed) in span and max(observed) in span
    assert _chi_square_pvalue(observed, expected, draws) > 0.001


@pytest.mark.parametrize("pk, trials, seeds", [(0.05, 50, 400), (0.3, 7, 3000), (0.05, 20_000, 1)])
def test_round_histogram_is_geometric(pk, trials, seeds):
    # the walk's pooled histogram against Geometric(P_k), at small T, where
    # the rounds walked and the trials left over meet
    observed = Counter()
    for seed in range(seeds):
        for rounds, count in montecarlo._round_counts(pk, trials, np.random.default_rng(seed).random):
            observed[rounds] += count
    draws = trials * seeds
    expected = {r: draws * pk * (1.0 - pk) ** (r - 1) for r in range(1, max(observed) + 1)}
    assert _chi_square_pvalue(observed, expected, draws) > 0.001


@pytest.mark.parametrize("p, k, trials", [(0.05, 1, 1000), (0.0623, 8, 3_000_000)])
def test_z_is_calibrated_over_seeds(p, k, trials):
    # z = (mean - n/P_k) / stderr over 2,000 seeds: its mean within 4/sqrt(2000)
    # of -gamma / (2 sqrt T), the skewness bias of a studentized mean (gamma =
    # (2 - P_k) / sqrt(1 - P_k) for the geometric), and its sd within 0.1 of 1.
    # At T = 1000 a squeeze bound of 0.92 gave a mean near -0.2
    pk = parallel_success(p, k)
    closed = expected_cost(1, pk)
    z = []
    for seed in range(2000):
        est = run_parallel(p, 1, k, trials, seed)
        z.append((est.mean - closed) / est.stderr)
    bias = -(2.0 - pk) / math.sqrt(1.0 - pk) / (2.0 * math.sqrt(trials))
    assert abs(statistics.fmean(z) - bias) < 4.0 / math.sqrt(2000)
    assert abs(statistics.stdev(z) - 1.0) < 0.1


def test_weak_regime_cost_law():
    # T P_k = 10: ln(10)/P_k inversion rounds and about 1/P_k trials left over,
    # 33,000 steps, took 0.13 s on one shared core of a 2-core x86-64
    # machine; 2 s allows 60 us a step
    start = time.perf_counter()
    est = run_parallel(1e-4, 1, 1, 100_000, seed=3)
    elapsed = time.perf_counter() - start
    assert abs(est.mean - 1e4) < 5.0 * est.stderr
    assert elapsed < 2.0


def test_a_breach_of_the_round_cap_is_found_before_the_walk():
    # at P_k = 1e-9 a trial passes 10^9 rounds with chance 1/e, so among 2^32
    # trials one surely does: the run is refused at once, where the walk
    # would take about ln(T P_k)/P_k = 1.5e9 steps
    for seed in range(3):
        start = time.perf_counter()
        with pytest.raises(GQSearchError, match="a trial may exceed the cap"):
            run_parallel(1e-9, 1, 1, 2**32, seed)
        assert time.perf_counter() - start < 0.5


def _no_draws(seed):
    """A stand-in for _uniforms whose generator fails on its first draw."""
    def random():
        raise AssertionError("a refused run drew a uniform")
    return random


@pytest.mark.parametrize("trials, factor, refusal", [
    (1, 0.99, "a trial may exceed the cap"), (1, 1.01, None),
    (4, 0.99, "a trial may exceed the cap"), (4, 1.01, None),
    (2**32, 0.99, "a trial may exceed the cap"), (2**32, 1.01, "steps, past the cap"),
])
def test_refusals_read_only_trials_and_pk(monkeypatch, trials, factor, refusal):
    # T (1 - P_k)^ROUND_CAP = 2^-30 at P_k = edge.  On either side of it,
    # seeds 0-9 end alike: all refused, with one message and no uniform
    # drawn, or all run.  Just above the edge, 2^32 trials would walk about
    # 10^9 steps, which STEP_CAP refuses
    edge = -math.expm1(-(math.log(trials) + 30 * math.log(2)) / montecarlo.ROUND_CAP)
    pk = factor * edge
    if refusal is None:
        assert all(math.isfinite(run_parallel(pk, 1, 1, trials, seed).mean) for seed in range(10))
        return
    monkeypatch.setattr(montecarlo, "_uniforms", _no_draws)
    messages = set()
    for seed in range(10):
        with pytest.raises(GQSearchError, match=refusal) as exc:
            run_parallel(pk, 1, 1, trials, seed)
        messages.add(str(exc.value))
    assert len(messages) == 1


def _estimated_steps(pk, trials):
    """ln(T P_k) / -ln(1 - P_k) rounds walked (0 where T P_k < 1) plus min(T, 1 / P_k)."""
    return max(0.0, math.log(trials * pk)) / -math.log1p(-pk) + min(trials, 1.0 / pk)


def test_the_step_estimate_counts_the_walk():
    # the pairs _round_counts yields, one a step, against the estimate STEP_CAP
    # reads: within 25% (the mean of 10 seeds where the estimate is under 1,000
    # steps and the count is noisy; measured 0.86-1.01 over the grid)
    grid = [(pk, t) for pk in (0.5, 0.1, 1e-2, 1e-3, 1e-4) for t in (10, 1000, 10**5, 2**32)]
    for pk, trials in grid + [(1e-5, 10**5)]:
        estimate = _estimated_steps(pk, trials)
        seeds = range(10 if estimate < 1000 else 1)
        pairs = sum(sum(1 for _ in montecarlo._round_counts(pk, trials, montecarlo._uniforms(seed)))
                    for seed in seeds) / len(seeds)
        assert 0.75 <= pairs / estimate <= 1.25, (pk, trials, pairs, estimate)


def test_a_run_past_the_step_cap_is_refused_before_the_walk(monkeypatch):
    # P_k = 1e-3 at T = 10^6: 6,904 rounds walked and 1,000 trials left over
    pk, trials = 1e-3, 10**6
    steps = _estimated_steps(pk, trials)
    monkeypatch.setattr(montecarlo, "STEP_CAP", math.floor(steps))
    monkeypatch.setattr(montecarlo, "_uniforms", _no_draws)
    start = time.perf_counter()
    with pytest.raises(GQSearchError, match=rf"past the cap of {math.floor(steps)}$"):
        run_parallel(pk, 1, 1, trials, seed=0)
    assert time.perf_counter() - start < 0.01
    monkeypatch.undo()
    monkeypatch.setattr(montecarlo, "STEP_CAP", math.ceil(steps))
    est = run_parallel(pk, 1, 1, trials, seed=0)
    assert abs(est.mean - 1.0 / pk) < 5.0 * est.stderr


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
