"""Stochastic verification of the expected-cost formulas.

A restart round of n iterations succeeds with the Born probability p(n) of
the target subspace, whichever non-target index a failed measurement lands
on, so every run is a race of k coins of bias p per round (k = 1 is
punctuated search).  The round count until the first success is sampled
from its geometric distribution by inverse CDF, one uniform per trial.

The uniforms are numpy's default_rng(seed).random(), drawn in trial order.
Each double takes one 64-bit output of the generator, so results never
depend on how the trials are split into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _np as np
from .errors import GQSearchError
from .strategy import parallel_success

# A single trial may not exceed this many rounds; a sampled round count
# past it is a GQSearchError.
ROUND_CAP = 10**9

# The sampler draws at most this many trials at a time, which bounds its
# working memory to O(_BLOCK_ELEMENTS).
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class Estimate:
    """Sample mean and standard error of per-trial costs."""

    mean: float
    stderr: float
    trials: int
    seed: int


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
        raise GQSearchError(
            f"a trial exceeded the cap of {ROUND_CAP} rounds (p={p})"
        )
    return u


def run_parallel(p: float, n: int, k: int, trials: int, seed: int) -> Estimate:
    """Estimate the k-agent parallel cost (parallel time; agent time is k-fold).

    The arguments are checked before any trial is drawn.  The trials are
    drawn at most _BLOCK_ELEMENTS at a time and folded block by block into
    running sums, so memory is O(_BLOCK_ELEMENTS) at any trial count.  A
    block's rounds sum exactly, to at most _BLOCK_ELEMENTS * ROUND_CAP <
    2^53, and the total is a Python int, so the mean n * total / trials is
    correctly rounded.  Squared deviations add up per block about the block
    mean, and blocks merge by Chan, Golub & LeVeque's pairwise update, whose
    between-block term is an exact ratio of integers here.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    pk = parallel_success(p, k)
    if pk == 0.0:
        raise GQSearchError("success probability 0; process cannot terminate")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    rng = np.random.default_rng(seed)
    total = 0  # rounds over the trials folded so far
    done = 0
    m2 = 0.0  # squared deviations of the rounds about their mean
    while done < trials:
        rounds = _geometric_rounds(rng.random(min(_BLOCK_ELEMENTS, trials - done)), pk)
        size = rounds.size
        block = int(rounds.sum())
        rounds -= block / size
        m2 += float(np.square(rounds, out=rounds).sum())
        if done:  # size * done / (size + done) * (block / size - total / done)^2
            m2 += (block * done - total * size) ** 2 / (size * done * (size + done))
        total += block
        done += size
    mean = n * total / trials
    stderr = n * math.sqrt(m2 / (trials - 1)) / math.sqrt(trials) if trials > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, trials=trials, seed=seed)
