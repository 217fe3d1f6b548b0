"""Dense reference evolution: Q applied as two O(N) passes per iteration.

The reduced-basis simulator in `gqsearch.statevector` evolves four
coefficients instead; the tests compare it against this loop, which
touches every amplitude on every step and uses no reduction at all.
"""

import numpy as np

from gqsearch.statevector import _check_drift, _target_index_array


def dense_evolution(instance, n: int):
    """(p(0..n), amplitudes of Q^n|s>) from n dense steps, norm-checked."""
    idx = _target_index_array(instance.targets, instance.n_items)
    a = instance.averaging.amplitudes
    amps = instance.start.amplitudes.copy()
    probs = np.empty(n + 1, dtype=float)
    probs[0] = float(np.sum(np.abs(amps[idx]) ** 2))
    for step in range(1, n + 1):
        amps[idx] = -amps[idx]  # the oracle first, then the reflection about |a>
        amps = 2.0 * np.vdot(a, amps) * a - amps
        _check_drift(float(np.linalg.norm(amps)), step)
        probs[step] = float(np.sum(np.abs(amps[idx]) ** 2))
    return probs, amps
