"""Dense reference evolution: Q applied as two O(N) passes per iteration.

The reduced-basis simulator in `gqsearch.statevector` evolves four
coefficients of an instance's six inner products instead; the tests
compare it against this loop, which takes the states themselves, touches
every amplitude on every step and uses no reduction at all.
`reduced_amplitudes` rebuilds the N-vector Q^n|s> from those coefficients,
so the amplitudes, not only the probabilities, are compared.
`edge_states` are the inputs where a reduction is most likely to go
wrong.
"""

import numpy as np

from gqsearch import SearchInstance, StateVector, TargetSet, random_state, uniform_state
from gqsearch.statevector import _check_drift, _ReducedBasis


def dense_evolution(targets, averaging, start, n: int):
    """(p(0..n), amplitudes of Q^n|s>) from n dense steps, norm-checked."""
    idx = list(targets.indices)
    a = averaging.amplitudes
    amps = start.amplitudes.copy()
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

    With c the coefficients of (s_T, s_L, a_T, a_L), off-target amplitudes
    are c_1 s + c_3 a and target ones c_0 s + c_2 a.
    """
    c = _ReducedBasis(SearchInstance.from_states(targets, averaging, start)).power(n)
    idx = list(targets.indices)
    s = start.amplitudes
    a = averaging.amplitudes
    amps = c[1] * s
    amps += c[3] * a
    amps[idx] = c[0] * s[idx] + c[2] * a[idx]
    return amps


def uniform_states(n_items: int, targets):
    """(targets, u, u) with u the uniform state; targets a TargetSet or a count."""
    if isinstance(targets, int):
        targets = TargetSet.first(targets)
    u = uniform_state(n_items)
    return targets, u, u


def _states(targets, averaging, start):
    amps_a = np.asarray(averaging, dtype=complex)
    amps_s = np.asarray(start, dtype=complex)
    return (
        TargetSet(targets),
        StateVector(amps_a / np.linalg.norm(amps_a)),
        StateVector(amps_s / np.linalg.norm(amps_s)),
    )


def edge_states() -> dict:
    """Named N = 16 (targets, averaging, start) triples: s = a, r = N,
    v = 1, v = 0 and a start off the targets."""
    a = random_state(16, 20).amplitudes
    s = random_state(16, 21).amplitudes
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
