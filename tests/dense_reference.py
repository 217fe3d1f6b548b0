"""Dense references: Q applied as two O(N) passes per iteration, and states held whole.

The reduced-basis simulator in `gqsearch.statevector` evolves four
coefficients of an instance's six inner products instead; the tests
compare it against this loop, which takes the states themselves, touches
every amplitude on every step and uses no reduction at all.  A state here
is a 1-D complex amplitude array: `random_state` holds the `random:` stream
whole and `uniform_state` is u.  `held_instance` reduces held arrays through
`SearchInstance.from_blocks`, and `write_state_file` writes the file format.
`reduced_amplitudes` rebuilds the N-vector Q^n|s> from the reduced basis's
coefficients, so the amplitudes, not only the probabilities, are compared.
`full_products` forms an instance's six products from whole vectors with
exact sums, as the block reducer does not.  `parallel_trial_costs` keeps
every per-trial cost of the sampler that `run_parallel` folds into running
sums.  `edge_states` are the inputs where a reduction is most likely to go
wrong, and `on_targets` draws more of one of them, v = 1.
"""

import math
from collections import deque

import numpy as np

from gqsearch import SearchInstance, TargetSet
from gqsearch.montecarlo import _round_blocks
from gqsearch.statevector import BLOCK, _check_drift, _ReducedBasis


def random_state(n_items: int, seed: int) -> np.ndarray:
    """The `random:seed` state held whole: two standard_normal(N) calls give the real
    parts, then the imaginary ones, and the norm's squares are summed BLOCK at a time."""
    rng = np.random.default_rng(seed)
    z = np.empty(n_items, dtype=np.complex128)
    z.real, z.imag = rng.standard_normal(n_items), rng.standard_normal(n_items)
    sq = 0.0
    for part in (z.real, z.imag):
        for lo in range(0, n_items, BLOCK):
            sq += part[lo:lo + BLOCK].dot(part[lo:lo + BLOCK])
    return z / math.sqrt(sq)


def uniform_state(n_items: int) -> np.ndarray:
    """u held whole: every amplitude 1/sqrt(N), real."""
    return np.full(n_items, 1.0 / math.sqrt(n_items), dtype=np.complex128)


def held_instance(targets, a, s) -> SearchInstance:
    """`from_blocks` of held arrays a and s (None: u), read in slices of BLOCK
    amplitudes; a given twice, as the same array, is one state read once."""
    def slices(x):
        return None if x is None else [x[lo:lo + BLOCK] for lo in range(0, x.size, BLOCK)]

    n_items = (s if a is None else a).size
    blocks = slices(a)
    return SearchInstance.from_blocks(targets, n_items, blocks, blocks if s is a else slices(s))


def write_state_file(path, amps) -> None:
    """The state-file format: N, then one 're im' line per amplitude in repr precision."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(amps)}\n")
        fh.writelines(f"{z.real!r} {z.imag!r}\n" for z in np.asarray(amps, dtype=complex).tolist())


def _fvdot(x, y) -> complex:
    """vdot(x, y) with the elementwise products summed exactly by math.fsum."""
    terms = np.conj(x) * y
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def full_products(targets, a, s) -> tuple:
    """The six products of amplitude vectors a and s, each one exact sum over the target
    or the off-target rows; targets is a TargetSet or a count r for the indices 0..r-1."""
    rows = list(range(targets)) if isinstance(targets, int) else list(targets.indices)
    off = np.ones(s.size, dtype=bool)
    off[rows] = False
    s_t, a_t, s_l, a_l = s[rows], a[rows], s[off], a[off]
    return (_fvdot(s_t, s_t), _fvdot(s_l, s_l), _fvdot(a_t, a_t),
            _fvdot(a_t, s_t), _fvdot(a_l, s_l), _fvdot(a_l, a_l))


def parallel_trial_costs(p: float, n: int, k: int, trials: int, seed: int) -> np.ndarray:
    """Every per-trial cost of the k-agent race that `run_parallel` samples: n per round."""
    return np.concatenate(list(_round_blocks(p, n, k, trials, seed))) * float(n)


def dense_evolution(targets, averaging, start, n: int):
    """(p(0..n), amplitudes of Q^n|s>) from n dense steps, norm-checked."""
    idx = list(targets.indices)
    a = averaging
    amps = start.copy()
    probs = np.empty(n + 1, dtype=float)
    probs[0] = float(np.sum(np.abs(amps[idx]) ** 2))
    for step in range(1, n + 1):
        amps[idx] = -amps[idx]  # the oracle first, then the reflection about |a>
        amps = 2.0 * np.vdot(a, amps) * a - amps
        _check_drift(float(np.linalg.norm(amps)), step)
        probs[step] = float(np.sum(np.abs(amps[idx]) ** 2))
    return probs, amps


def reduced_amplitudes(targets, averaging, start, n: int) -> np.ndarray:
    """Amplitudes of Q^n|s> from the reduced basis's coefficients, one O(N) pass.

    The basis is built from `full_products`, with no norm check, so a stale
    state reaches the per-step check.  With c the coefficients of (s_T, s_L,
    a_T, a_L), off-target amplitudes are c_1 s + c_3 a and target ones
    c_0 s + c_2 a.
    """
    basis = _ReducedBasis(SearchInstance(full_products(targets, averaging, start)))
    (c,) = deque(basis.evolve(n), maxlen=1)  # the last coefficients, none kept
    idx = list(targets.indices)
    s, a = start, averaging
    amps = c[1] * s
    amps += c[3] * a
    amps[idx] = c[0] * s[idx] + c[2] * a[idx]
    return amps


def uniform_states(n_items: int, targets):
    """(targets, u, u) with u the uniform state; targets a TargetSet or a count."""
    if isinstance(targets, int):
        targets = TargetSet(range(targets))
    u = uniform_state(n_items)
    return targets, u, u


def _states(targets, averaging, start):
    amps_a = np.asarray(averaging, dtype=complex)
    amps_s = np.asarray(start, dtype=complex)
    return TargetSet(targets), amps_a / np.linalg.norm(amps_a), amps_s / np.linalg.norm(amps_s)


def on_targets(targets, amps) -> np.ndarray:
    """amps zeroed off the targets and renormalized: as averaging state, v = 1."""
    held = np.zeros_like(amps)
    held[list(targets.indices)] = amps[list(targets.indices)]
    return held / np.linalg.norm(held)


def edge_states() -> dict:
    """Named N = 16 (targets, averaging, start) triples: s = a, r = N,
    v = 1, v = 0 and a start off the targets."""
    a = random_state(16, 20)
    s = random_state(16, 21)
    targets = (2, 5, 11)
    off = np.ones(16, dtype=bool)
    off[list(targets)] = False
    return {
        "s = a, uniform": uniform_states(16, TargetSet(targets)),
        "s = a, random": _states(targets, a, a),
        "r = N": _states(range(16), a, s),
        "v = 1": _states(targets, np.where(off, 0.0, a), s),
        "v = 0": _states(targets, np.where(off, a, 0.0), s),
        "start off the targets": _states(targets, a, np.where(off, s, 0.0)),
    }
