"""Stochastic verification of the expected-cost formulas.

A restart round of n iterations succeeds with the Born probability p(n) of
the target subspace, whichever non-target index a failed measurement lands
on, so every run is a race of k coins of bias p per round (k = 1 is
punctuated search).  The round count until the first success is sampled
from its geometric distribution by inverse CDF, one uniform per trial.

Every uniform comes from one counter-based generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011): the draw for
trial t is element t of the SplitMix64 sequence for the seed, a pure
function of (seed, t).  Any block of trials is therefore one numpy pass,
and results never depend on how trials are split across calls or blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NeverSucceedsError, TrialCapError
from .strategy import parallel_success

# A single trial may not exceed this many rounds; a sampled round count
# past it raises TrialCapError.
ROUND_CAP = 10**9

# The sampler draws at most this many trials at a time, which bounds its
# working memory to O(_BLOCK_ELEMENTS) besides the costs.
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


def trial_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms for trials [start, start + count); one draw per trial.

    The draw for trial t is element t of the SplitMix64 sequence for `seed`,
    mix64(seed + (t + 1) * GAMMA), shifted down to its top 53 bits k; the
    uniform is u = k * 2^-53 in [0, 1), however trials are batched.
    """
    _check_counters(seed, start, count)
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GAMMA
    z += np.uint64(seed)
    _mix64(z)
    z >>= np.uint64(11)
    return np.ldexp(z, -53)


def _geometric_rounds(u: np.ndarray, p: float) -> np.ndarray:
    """Rounds-until-first-success for uniforms u, by inverse CDF.

    Overwrites u with the round counts, as whole-number floats.  The cap is
    checked on the floats: at a tiny p the counts pass 2^63 or reach inf,
    where an int64 cast would wrap around.
    """
    if p >= 1.0:
        u.fill(1.0)
        return u
    np.negative(u, out=u)
    np.log1p(u, out=u)
    with np.errstate(over="ignore"):  # a subnormal p gives inf, refused below
        u /= math.log1p(-p)
    np.floor(u, out=u)
    u += 1.0
    if u.max(initial=1.0) > ROUND_CAP:
        raise TrialCapError(
            f"a trial exceeded the cap of {ROUND_CAP} rounds (p={p})"
        )
    return u


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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    pk = parallel_success(p, k)
    if pk == 0.0:
        raise NeverSucceedsError("success probability 0; process cannot terminate")
    _check_counters(seed, trial_start, trials)
    costs = np.empty(trials)
    for lo in range(0, trials, _BLOCK_ELEMENTS):
        u = trial_uniforms(seed, trial_start + lo, min(_BLOCK_ELEMENTS, trials - lo))
        costs[lo:lo + u.size] = _geometric_rounds(u, pk)
    costs *= float(n)
    return costs


def run_parallel(p: float, n: int, k: int, trials: int, seed: int) -> Estimate:
    """Estimate the k-agent parallel cost (parallel time; agent time is k-fold)."""
    costs = parallel_trial_costs(p, n, k, trials, seed)
    trials = int(costs.size)
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, trials=trials, seed=seed)
