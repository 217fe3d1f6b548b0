"""Stochastic verification of the expected-cost formulas.

Every uniform comes from one counter-based generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011): the draw for
trial t in round j is element (j << 32) | t of the SplitMix64 sequence for
the seed, a pure function of (seed, t, j).  Any block of trials x rounds is
therefore one numpy pass, and results never depend on how trials are split
across calls or blocks.

Coin-flip runs sample the number of restart rounds directly from the
geometric distribution via its inverse CDF, so every trial consumes one
uniform, its round 0.  The statevector variant draws full Born-rule
measurement outcomes from an already evolved Q^n|s>, one uniform per round,
until the first target outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonTerminatingError, TrialCapError
from .statevector import StateVector, TargetSet, _target_index_array
from .strategy import parallel_success

# A single trial may not exceed this many rounds; exceeding raises.  Round
# indices stay below 2^32, where the counter layout needs them.
ROUND_CAP = 10**9

# The samplers draw at most this many (trial, round) cells at a time, which
# bounds their working memory to O(_BLOCK_ELEMENTS + N) besides the costs.
_BLOCK_ELEMENTS = 1 << 20

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio increment
# and the two multipliers of its output function.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class Estimate:
    """Sample mean and standard error of per-trial costs."""

    mean: float
    stderr: float
    trials: int
    seed: int


def _check_counters(seed: int, trial_start: int, trials: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if trial_start < 0 or trials < 0:
        raise ValueError("trial_start and trials must be non-negative")
    if trial_start + trials > 2**32:
        raise ValueError(
            f"trials [{trial_start}, {trial_start + trials}) run past 2^32"
        )


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output function, in place on a uint64 array."""
    tmp = np.right_shift(z, np.uint64(30))
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _draws(seed: int, trial_idx: np.ndarray, round_start: int, rounds: int) -> np.ndarray:
    """53-bit draws k for trials x rounds [round_start, round_start + rounds).

    Draw (t, j) is element (j << 32) | t of the SplitMix64 sequence for
    `seed`, mix64(seed + ((j << 32 | t) + 1) * GAMMA), shifted down to its
    top 53 bits; the uniform it stands for is u = k * 2^-53 in [0, 1).
    Distinct (t, j) with t < 2^32 and j < 2^32 never share a state.
    """
    row = np.asarray(trial_idx, dtype=np.uint64) + np.uint64(1)
    row *= _GAMMA
    row += np.uint64(seed)
    col = np.arange(round_start, round_start + rounds, dtype=np.uint64)
    col *= _GAMMA
    col <<= np.uint64(32)
    z = row[:, None] + col
    _mix64(z)
    z >>= np.uint64(11)
    return z


def trial_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms for trials [start, start + count); one draw per trial.

    Trial i sees round 0 of its counter stream, the same draw that opens
    trial i of the Born sampler, however trials are batched.
    """
    _check_counters(seed, start, count)
    k = _draws(seed, np.arange(start, start + count, dtype=np.uint64), 0, 1)
    return np.ldexp(k.ravel(), -53)


def _validate_common(n: int, trials: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


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


def _make_estimate(costs: np.ndarray, seed: int) -> Estimate:
    trials = int(costs.size)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, trials=trials, seed=seed)


def parallel_trial_costs(
    p: float,
    n: int,
    k: int,
    trials: int,
    seed: int,
    trial_start: int = 0,
) -> np.ndarray:
    """Per-trial parallel-time costs of the k-agent first-success race.

    Each round flips k independent coins of bias p; the round count until
    any succeeds is geometric with p_k = 1 - (1-p)^k and is sampled from
    that distribution directly.  k = 1 is punctuated search with per-round
    success bias p.  A trial costs n per round; measurement and reset are
    free.  Trials are drawn in blocks of _BLOCK_ELEMENTS.
    """
    _validate_common(n, trials)
    pk = parallel_success(p, k)
    if pk == 0.0:
        raise NonTerminatingError("success probability 0; process cannot terminate")
    _check_counters(seed, trial_start, trials)
    costs = np.empty(trials)
    for lo in range(0, trials, _BLOCK_ELEMENTS):
        u = trial_uniforms(seed, trial_start + lo, min(_BLOCK_ELEMENTS, trials - lo))
        costs[lo:lo + u.size] = _geometric_rounds(u, pk) * float(n)
    return costs


def run_parallel(p: float, n: int, k: int, trials: int, seed: int) -> Estimate:
    """Estimate the k-agent parallel cost (parallel time; agent time is k-fold)."""
    return _make_estimate(parallel_trial_costs(p, n, k, trials, seed), seed)


def statevector_trial_costs(
    state: StateVector,
    targets: TargetSet,
    n: int,
    trials: int,
    seed: int,
    trial_start: int = 0,
):
    """End-to-end trial costs with full Born-rule measurement of Q^n|s>.

    `state` is Q^n|s>, evolved once by the caller (`grover_power`); `n` only
    prices each round.  Each round draws one outcome index from the
    |amplitude|^2 distribution and succeeds iff it is a target.  Returns
    (costs, outcome_counts) where outcome_counts tallies every measurement
    made, successes included.

    Trials still running draw a block of rounds together: one searchsorted
    over an (active trials x rounds) matrix, the first target hit of each
    row by argmax, and one bincount of the outcomes up to that hit.
    """
    _validate_common(n, trials)
    _check_counters(seed, trial_start, trials)

    idx = _target_index_array(targets, state.dim)
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()  # exact simplex for the sampler only
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    is_target = np.zeros(state.dim, dtype=bool)
    is_target[idx] = True
    p_target = float(probs[is_target].sum())
    if p_target == 0.0:
        raise NonTerminatingError(
            "success probability of the evolved state is 0; cannot terminate"
        )
    # u = k 2^-53 lies below cdf[i] exactly when k < ceil(2^53 cdf[i]), so
    # the 53-bit draws pick outcomes without being converted to floats.
    keys = np.ceil(np.ldexp(cdf, 53)).astype(np.uint64)

    rounds = np.empty(trials, dtype=np.int64)
    counts = np.zeros(state.dim, dtype=np.int64)
    active = np.arange(trials, dtype=np.int64)
    depth = max(1, int(min(1.0 / p_target, ROUND_CAP)))  # about one success per row
    done_rounds = 0
    while active.size:
        if done_rounds >= ROUND_CAP:
            raise TrialCapError(
                f"trial {trial_start + int(active[0])} exceeded the cap of "
                f"{ROUND_CAP} rounds"
            )
        width = min(depth, ROUND_CAP - done_rounds,
                    max(1, _BLOCK_ELEMENTS // active.size))
        height = max(1, _BLOCK_ELEMENTS // width)
        running = []
        for lo in range(0, active.size, height):
            rows = active[lo:lo + height]
            outcomes = np.searchsorted(
                keys, _draws(seed, trial_start + rows, done_rounds, width),
                side="right",
            )
            hit = is_target[outcomes]
            first = hit.argmax(axis=1)
            done = hit[np.arange(rows.size), first]
            last = np.where(done, first, width - 1)
            measured = outcomes[np.arange(width) <= last[:, None]]
            counts += np.bincount(measured, minlength=state.dim)
            rounds[rows[done]] = done_rounds + 1 + first[done]
            running.append(rows[~done])
        active = np.concatenate(running)
        done_rounds += width
    return rounds * float(n), counts


def run_punctuated_statevector(
    state: StateVector, targets: TargetSet, n: int, trials: int, seed: int
) -> Estimate:
    """Estimate the end-to-end punctuated cost, measuring the evolved Q^n|s>.

    `statevector_trial_costs` also returns the outcome counts.
    """
    costs, _ = statevector_trial_costs(state, targets, n, trials, seed)
    return _make_estimate(costs, seed)
