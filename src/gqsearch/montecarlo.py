"""Stochastic verification of the expected-cost formulas.

Coin-flip runs sample the number of restart rounds directly from the
geometric distribution via its inverse CDF, so every trial consumes exactly
one uniform.  Uniforms come from a single PCG64 stream indexed by trial
number (O(1) seek with PCG64.advance), which makes any partition of trials
across workers reproduce the sequential run bit for bit.

The statevector variant draws full Born-rule measurement outcomes from an
already evolved Q^n|s> and therefore needs a variable number of draws per
trial; it uses a spawn-key substream per trial for the same splitting
guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonTerminatingError, TrialCapError
from .statevector import StateVector, TargetSet, _target_index_array
from .strategy import parallel_success

# A single trial may not exceed this many rounds; exceeding raises.
ROUND_CAP = 10**9


@dataclass(frozen=True)
class Estimate:
    """Sample mean and standard error of per-trial costs."""

    mean: float
    stderr: float
    trials: int
    seed: int


def trial_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms for trials [start, start + count); one draw per trial.

    Trial i always sees the i-th draw of the stream for `seed`, regardless
    of how trials are batched.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    bg = np.random.PCG64(np.random.SeedSequence(seed))
    if start:
        bg.advance(start)
    return np.random.Generator(bg).random(count)


def _validate_common(p: float, n: int, trials: int, reset_cost: float) -> None:
    if p == 0.0:
        raise NonTerminatingError("success probability 0; process cannot terminate")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if reset_cost < 0.0:
        raise ValueError(f"reset_cost must be >= 0, got {reset_cost}")


def _geometric_rounds(u: np.ndarray, p: float) -> np.ndarray:
    """Rounds-until-first-success for uniforms u, by inverse CDF."""
    if p >= 1.0:
        return np.ones(u.shape, dtype=np.int64)
    rounds = np.floor(np.log1p(-u) / math.log1p(-p)).astype(np.int64) + 1
    if int(rounds.max(initial=1)) > ROUND_CAP:
        raise TrialCapError(
            f"a trial exceeded the cap of {ROUND_CAP} rounds (p={p})"
        )
    return rounds


def _costs_from_rounds(rounds: np.ndarray, n: int, reset_cost: float) -> np.ndarray:
    # Measurement and reset cost nothing by default; an optional per-reset
    # surcharge is charged for every failed round.
    return rounds * float(n) + (rounds - 1) * float(reset_cost)


def _make_estimate(costs: np.ndarray, seed: int) -> Estimate:
    trials = int(costs.size)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


def punctuated_trial_costs(
    p: float,
    n: int,
    trials: int,
    seed: int,
    trial_start: int = 0,
    reset_cost: float = 0.0,
) -> np.ndarray:
    """Per-trial costs of punctuated search with per-round success bias p."""
    _validate_common(p, n, trials, reset_cost)
    u = trial_uniforms(seed, trial_start, trials)
    return _costs_from_rounds(_geometric_rounds(u, p), n, reset_cost)


def run_punctuated(
    p: float, n: int, trials: int, seed: int, reset_cost: float = 0.0
) -> Estimate:
    """Estimate the punctuated-search cost; deterministic for a fixed seed."""
    return _make_estimate(
        punctuated_trial_costs(p, n, trials, seed, reset_cost=reset_cost), seed
    )


def parallel_trial_costs(
    p: float,
    n: int,
    k: int,
    trials: int,
    seed: int,
    trial_start: int = 0,
    reset_cost: float = 0.0,
) -> np.ndarray:
    """Per-trial parallel-time costs of the k-agent first-success race.

    Each round flips k independent coins of bias p; the round count until
    any succeeds is geometric with p_k = 1 - (1-p)^k and is sampled from
    that distribution directly.
    """
    _validate_common(p, n, trials, reset_cost)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pk = parallel_success(p, k)
    u = trial_uniforms(seed, trial_start, trials)
    return _costs_from_rounds(_geometric_rounds(u, pk), n, reset_cost)


def run_parallel(
    p: float, n: int, k: int, trials: int, seed: int, reset_cost: float = 0.0
) -> Estimate:
    """Estimate the k-agent parallel cost (parallel time; agent time is k-fold)."""
    return _make_estimate(
        parallel_trial_costs(p, n, k, trials, seed, reset_cost=reset_cost), seed
    )


def statevector_trial_costs(
    state: StateVector,
    targets: TargetSet,
    n: int,
    trials: int,
    seed: int,
    trial_start: int = 0,
    reset_cost: float = 0.0,
):
    """End-to-end trial costs with full Born-rule measurement of Q^n|s>.

    `state` is Q^n|s>, evolved once by the caller (`grover_power`); `n` only
    prices each round.  Each round draws one outcome index from the
    |amplitude|^2 distribution and succeeds iff it is a target.  Returns
    (costs, outcome_counts) where outcome_counts tallies every measurement
    made, successes included.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trial_start < 0:
        raise ValueError(f"trial_start must be >= 0, got {trial_start}")
    if reset_cost < 0.0:
        raise ValueError(f"reset_cost must be >= 0, got {reset_cost}")

    idx = _target_index_array(targets, state.dim)
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()  # exact simplex for the sampler only
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    is_target = np.zeros(state.dim, dtype=bool)
    is_target[idx] = True
    if float(probs[is_target].sum()) == 0.0:
        raise NonTerminatingError(
            "success probability of the evolved state is 0; cannot terminate"
        )

    costs = np.empty(trials, dtype=float)
    counts = np.zeros(state.dim, dtype=np.int64)
    for i in range(trials):
        rng = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=(trial_start + i,))
            )
        )
        rounds = 0
        while True:
            rounds += 1
            if rounds > ROUND_CAP:
                raise TrialCapError(
                    f"trial {trial_start + i} exceeded the cap of {ROUND_CAP} rounds"
                )
            outcome = int(np.searchsorted(cdf, rng.random(), side="right"))
            counts[outcome] += 1
            if is_target[outcome]:
                break
        costs[i] = rounds * float(n) + (rounds - 1) * float(reset_cost)
    return costs, counts


def run_punctuated_statevector(
    state: StateVector,
    targets: TargetSet,
    n: int,
    trials: int,
    seed: int,
    reset_cost: float = 0.0,
    return_outcome_counts: bool = False,
):
    """Estimate the end-to-end punctuated cost, measuring the evolved Q^n|s>.

    With return_outcome_counts=True, returns (Estimate, counts) so the
    full outcome distribution can be inspected.
    """
    costs, counts = statevector_trial_costs(
        state, targets, n, trials, seed, reset_cost=reset_cost
    )
    est = _make_estimate(costs, seed)
    return (est, counts) if return_outcome_counts else est
