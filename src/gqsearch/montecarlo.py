"""Stochastic verification of the expected-cost formulas.

A restart round of n iterations succeeds with the Born probability p(n) of
the target subspace, whichever non-target index a failed measurement lands
on, so every run is a race of k coins of bias p per round (k = 1 is
punctuated search): one coin of bias P_k = 1 - (1 - p)^k.  A trial's round
count is geometric, and the estimate needs only how many trials stopped at
each round, so the sampler walks the rounds.  While `alive` trials remain
and alive * P_k >= 1, the next round's successes are Binomial(alive, P_k);
each trial still alive after that draws its own geometric round count, by
inverse CDF counted from the current round (the geometric is memoryless).

The uniforms are numpy's default_rng(seed).random() stream, written out in
plain Python: SeedSequence(seed) seeds PCG64 (O'Neill, HMC-CS-2014-0905,
2014), and each double is the top 53 bits of one 64-bit output.  The walk
takes them in order.  A binomial takes one uniform by inversion where
alive * min(P_k, 1 - P_k) < 10, and BTRS otherwise (Hoermann, J. Stat.
Comput. Simul. 46, 1993), which averages 2.2-2.7.  A per-trial round count
takes one.

The cost is one step per round walked and one per trial left over: about
ln(T * P_k) / -ln(1 - P_k) rounds (0 where T * P_k < 1) plus min(T, 1 / P_k)
trials.  A trial left over takes about 2 us, an inversion round 3-4 us and a
BTRS round 6 us (Python 3.11 on one shared x86-64 core); T = 3e6 at P_k =
0.2 takes under a millisecond, and so does T = 2^32.  A run is refused
before the first draw where that estimate passes STEP_CAP, and where a
trial may plausibly need more than ROUND_CAP rounds, T (1 - P_k)^ROUND_CAP
>= 2^-30 (P_k below about (ln T + 20.8) 1e-9); below that, the plain
geometric is within 2^-30 of the one conditioned on the cap.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import GQSearchError, _check_seed, _check_trials
from .strategy import parallel_success

# Caps on one trial's rounds and on one run's estimated steps.  The slowest run
# allowed, T = 2^32 at P_k = 5.2e-7, takes 47-50 s and 15 MiB (2 shared cores).
ROUND_CAP = 10**9
STEP_CAP = 2**24

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class Estimate(namedtuple("Estimate", "mean stderr")):
    """Sample mean and standard error of per-trial costs."""

    __slots__ = ()


def _pcg64_state(seed: int) -> tuple:
    """(state, increment) of numpy's PCG64(SeedSequence(seed)), 0 <= seed < 2^64."""
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    # the seed's 32-bit words, low first and zero-padded, fill a pool of
    # four; a seed below 2^64 has at most two, so none is left to mix in after
    pool = [hashmix(seed >> 32 * i & _MASK32) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                y = hashmix(pool[src])
                x = (0xCA01F9DD * pool[dst] - 0x4973F715 * y) & _MASK32
                pool[dst] = x ^ x >> 16
    hash_const = 0x8B51F9DD
    words = []  # generate_state(8, uint32), read as four little-endian uint64
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    seed_hi, seed_lo, inc_hi, inc_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    # PCG's seeding: state 0 stepped once (to inc), plus the seed, stepped again
    return ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128, inc


def _uniforms(seed: int):
    """numpy's default_rng(seed).random, as a function of no arguments."""
    state, inc = _pcg64_state(seed)

    def random() -> float:
        nonlocal state
        state = (state * _PCG_MULT + inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        r = state >> 122
        return (((x >> r | x << 64 - r) & _MASK64) >> 11) * 2.0**-53

    return random


def _binomial(n: int, p: float, random) -> int:
    """A Binomial(n, p) variate for 0 <= p <= 1, from the uniforms random()."""
    if p > 0.5:
        return n - _binomial(n, 1.0 - p, random)
    if n * p < 10.0:  # inversion: one uniform, a walk of about n * p terms
        u = random()
        x = 0
        f = math.exp(n * math.log1p(-p))  # P(X = 0)
        ratio = p / (1.0 - p)
        while u >= f > 0.0 and x < n:
            u -= f
            x += 1
            f *= ratio * (n - x + 1) / x
        return x
    # BTRS, transformed rejection with squeeze, as in Python 3.12's
    # random.binomialvariate
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    m = math.floor((n + 1) * p)  # the mode
    h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
    while True:
        u = random() - 0.5
        us = 0.5 - abs(u)
        if not us:  # random() = 0 maps to k = -inf, which is rejected
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - random()  # uniform on (0, 1], so log(v) is finite
        if us >= 0.07 and v <= v_r:
            return k
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


def _round_counts(pk: float, trials: int, random):
    """(round, trials that stopped in it) pairs of trials coins of bias 0 < pk < 1:
    rounds 1, ..., J walked while alive * pk >= 1, each with its Binomial(alive,
    pk) count, then one (round, 1) per trial left over, an inverse-CDF geometric
    past J."""
    log_q = math.log1p(-pk)
    alive = trials
    j = 0  # rounds walked
    while alive and alive * pk >= 1.0:
        j += 1
        stopped = _binomial(alive, pk, random)
        alive -= stopped
        yield j, stopped
    for _ in range(alive):
        yield j + math.floor(math.log1p(-random()) / log_q) + 1, 1


def run_parallel(p: float, n: int, k: int, trials: int, seed: int) -> Estimate:
    """Estimate the k-agent parallel cost (parallel time; agent time is k-fold).

    The arguments and both caps are checked, from (trials, P_k) alone, before
    the generator is seeded.  The round counts and their squares add up as exact
    integers, so the mean and the variance take one division each.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_trials("trials", trials)
    pk = parallel_success(p, k)
    if pk == 0.0:
        raise GQSearchError("success probability 0; process cannot terminate")
    _check_seed("seed", seed)
    if pk == 1.0:  # every trial stops in round 1, and no uniform is drawn
        return Estimate(mean=float(n), stderr=0.0)
    log_q = math.log1p(-pk)
    if trials * math.exp(ROUND_CAP * log_q) >= 2.0**-30:
        raise GQSearchError(f"a trial may exceed the cap of {ROUND_CAP} rounds (p={pk})")
    steps = max(0.0, math.log(trials * pk)) / -log_q + min(trials, 1.0 / pk)
    if steps > STEP_CAP:
        raise GQSearchError(f"{trials} trials at p={pk} take about {steps:.3g} steps, "
                            f"past the cap of {STEP_CAP}")
    total = squares = 0  # sums of the round counts and of their squares
    for rounds, count in _round_counts(pk, trials, _uniforms(seed)):
        total += rounds * count
        squares += rounds * rounds * count
    mean = n * total / trials
    if trials == 1:
        return Estimate(mean=mean, stderr=0.0)
    # the sample variance of the rounds over trials: the mean's variance
    variance = (trials * squares - total * total) / (trials * trials * (trials - 1))
    return Estimate(mean=mean, stderr=n * math.sqrt(variance))
