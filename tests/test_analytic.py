"""Tests for the rotation-plane decomposition and closed-form probability."""

import copy
import math
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqsearch import (
    Decomposition,
    GQSearchError,
    TargetSet,
    biham_mapping,
    decompose,
    first_maximum,
    rotation_angle,
    success_prob_analytic,
    success_trajectory,
    uniform_instance,
    uniform_success_prob,
)

import scan_reference
from dense_reference import (
    dense_evolution, edge_states, held_instance, on_targets, random_state, uniform_state,
)


def plane_instance(alpha, beta, b):
    """N = 4, one target: |s> = alpha |t> + beta e^{ib} |a'>, uniform |a>."""
    aprime = np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3.0)
    amps = np.zeros(4, dtype=complex)
    amps[0] = alpha
    amps += beta * np.exp(1j * b) * aprime
    return held_instance(TargetSet(range(1)), uniform_state(4), amps)


def test_rotation_angle_small_v():
    assert abs(rotation_angle(0.01) - 0.020000333348334226) < 1e-15
    # same angle as arccos(1 - 2 v^2)
    for v in (0.02, 0.1, 0.5, 0.9):
        assert abs(rotation_angle(v) - math.acos(1.0 - 2.0 * v * v)) < 1e-12


def test_rotation_angle_domain():
    assert rotation_angle(0.0) == 0.0
    assert abs(rotation_angle(1.0) - math.pi) < 1e-15
    with pytest.raises(ValueError):
        rotation_angle(-0.1)
    with pytest.raises(ValueError):
        rotation_angle(1.1)


def test_decompose_uniform_case():
    dec = decompose(uniform_instance(16, 1))
    v = 0.25
    assert abs(dec.v - v) < 1e-12
    assert abs(dec.alpha - v) < 1e-12
    assert abs(dec.beta - math.sqrt(1.0 - v * v)) < 1e-12
    assert dec.b == 0.0
    assert dec.w_t < 1e-12 and dec.w_l < 1e-12
    assert abs(dec.theta - (math.pi - dec.phi)) < 1e-12
    # the two phase conventions: psi = pi - theta, here equal to phi
    assert abs(dec.psi - dec.phi) < 1e-12


def test_theta_stays_in_half_open_interval():
    # alpha = 0 puts the phase at the branch point; it must land on +pi
    dec = decompose(plane_instance(0.0, 1.0, 0.0))
    assert dec.theta == math.pi
    assert dec.psi == 0.0
    dec2 = decompose(plane_instance(0.3, math.sqrt(1 - 0.09), 2.5))
    assert -math.pi < dec2.theta <= math.pi
    assert 0.0 <= dec2.b < 2.0 * math.pi
    # plane coordinates fed in are recovered exactly
    assert abs(dec2.alpha - 0.3) < 1e-12
    assert abs(dec2.beta - math.sqrt(1 - 0.09)) < 1e-12
    assert abs(dec2.b - 2.5) < 1e-12


def test_replace_derives_phi_amp_theta_and_peak_again():
    # phi, amp, theta and peak follow from (v, alpha, beta, b) alone: the
    # constructor takes none of them, and _replace derives them afresh
    dec = Decomposition(0.3, 0.6, 0.5, 1.0, w_t=0.2, w_l=0.19)
    with pytest.raises(TypeError):
        Decomposition(0.3, 0.6, 0.5, 1.0, amp=1.0)
    assert dec.peak > 0.0  # derived before the replace, so a stale one would show
    moved = dec._replace(v=0.5, alpha=0.8, b=2.0)
    assert moved == Decomposition(0.5, 0.8, 0.5, 2.0, w_t=0.2, w_l=0.19)
    y = 2.0 * 0.8 * 0.5 * math.cos(2.0)
    amp = math.hypot(0.8 * 0.8 - 0.5 * 0.5, y)
    assert (moved.phi, moved.amp, moved.theta, moved.peak) == (
        rotation_angle(0.5), amp, math.atan2(y, 0.8 * 0.8 - 0.5 * 0.5),
        0.5 * (0.8**2 + 0.5**2) + 0.5 * amp,
    )
    assert moved.peak != dec.peak and moved.theta != dec.theta and moved.amp != dec.amp
    for twin in (copy.copy(moved), copy.deepcopy(moved), pickle.loads(pickle.dumps(moved))):
        assert twin == moved
        assert (twin.phi, twin.amp, twin.theta, twin.peak) == (
            moved.phi, moved.amp, moved.theta, moved.peak)


def test_success_prob_matches_simulator_general_instance():
    inst = held_instance(TargetSet((1, 8, 22)), random_state(40, 3), random_state(40, 4))
    dec = decompose(inst)
    sim = success_trajectory(inst, 30)
    ana = [success_prob_analytic(dec, n) for n in range(31)]
    assert float(np.max(np.abs(np.asarray(sim) - ana))) < 1e-10
    with pytest.raises(ValueError):
        success_prob_analytic(dec, -1)


_FLAT = "oscillation amplitude or rotation angle is 0; success probability is flat in n"


def test_flat_probability_instance():
    # alpha = beta with a quarter-turn phase kills the oscillation entirely
    inst = plane_instance(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.5 * math.pi)
    dec = decompose(inst)
    assert dec.amp < 1e-12
    traj = success_trajectory(inst, 8)
    np.testing.assert_allclose(traj, 0.5, atol=1e-12)
    with pytest.raises(GQSearchError, match=_FLAT):
        first_maximum(dec)


def test_zero_rotation_is_a_flat_probability():
    # phi = 0: Q does not move the state, so p(n) is flat although A = 1
    dec = Decomposition(0.0, 0.0, 1.0, 0.0)
    assert dec.amp == 1.0
    assert [success_prob_analytic(dec, n) for n in (0, 1, 7, 1000)] == [0.0] * 4
    with pytest.raises(GQSearchError, match=_FLAT):
        first_maximum(dec)


def test_zero_overlap_decomposes_with_alpha_zero():
    # v = 0: |t> is undefined, so alpha = 0; Q never moves weight onto the
    # targets and p(n) = w_t
    averaging = np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3.0)
    inst = held_instance(TargetSet(range(1)), averaging, uniform_state(4))
    dec = decompose(inst)
    assert dec.v == 0.0 and dec.phi == 0.0 and dec.alpha == 0.0
    assert abs(dec.beta - math.sqrt(3.0) / 2.0) < 1e-12
    assert abs(dec.w_t - 0.25) < 1e-12 and dec.w_l < 1e-12
    np.testing.assert_allclose([success_prob_analytic(dec, n) for n in range(7)], 0.25,
                               atol=1e-12)
    # and the dynamics really are frozen
    traj = success_trajectory(inst, 6)
    np.testing.assert_allclose(traj, 0.25, atol=1e-12)


def test_full_overlap_decomposes_with_beta_zero():
    # v = 1: |a'> is undefined, so beta = b = 0 and p(n) = alpha^2 + w_t
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    inst = held_instance(TargetSet(range(1)), amps, uniform_state(4))
    dec = decompose(inst)
    assert dec.v == 1.0 and dec.phi == math.pi
    assert abs(dec.alpha - 0.5) < 1e-12
    assert abs(dec.w_t) < 1e-12
    assert dec.beta == 0.0 and dec.b == 0.0
    assert abs(dec.w_l - 0.75) < 1e-12
    np.testing.assert_allclose([success_prob_analytic(dec, n) for n in range(7)], 0.25,
                               atol=1e-12)
    # and the dynamics really are frozen
    traj = success_trajectory(inst, 6)
    np.testing.assert_allclose(traj, 0.25, atol=1e-12)


def assert_closed_form_matches_dense(states, n_max):
    # decompose reads the simulator's inner products, so the closed form is
    # also checked against the dense loop, which shares no code with either
    dense_probs, _ = dense_evolution(*states, n_max)
    dec = decompose(held_instance(*states))
    closed = [success_prob_analytic(dec, n) for n in range(n_max + 1)]
    np.testing.assert_allclose(closed, dense_probs, rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(n_items=st.integers(2, 48), data=st.data())
def test_closed_form_matches_dense(n_items, data):
    r = data.draw(st.integers(1, n_items))
    targets = data.draw(st.permutations(range(n_items)))[:r]
    seed = data.draw(st.integers(0, 2**31))

    def state(offset):
        uniform = data.draw(st.booleans())
        return uniform_state(n_items) if uniform else random_state(n_items, seed + offset)

    states = (TargetSet(targets), state(0), state(1))
    assert_closed_form_matches_dense(states, data.draw(st.integers(0, 100)))


def test_closed_form_matches_dense_at_the_edges():
    for name, states in edge_states().items():
        try:
            assert_closed_form_matches_dense(states, 200)
        except AssertionError as exc:
            raise AssertionError(name) from exc


@settings(max_examples=30, deadline=None)
@given(n_items=st.integers(2, 200), data=st.data())
def test_averaging_state_on_the_targets(n_items, data):
    # v = 1: <a_L|a_L> is summed over the off-target amplitudes, all 0, so it
    # is stored as exactly 0 and beta = 0.  Formed as <a|a> - <a_T|a_T>, it
    # was +-1.1e-16, and the simulator drifted 3.6e-9 from the dense loop
    r = data.draw(st.integers(1, n_items - 1))
    targets = TargetSet(data.draw(st.permutations(range(n_items)))[:r])
    seed = data.draw(st.integers(0, 2**31))
    states = (targets, on_targets(targets, random_state(n_items, seed)),
              random_state(n_items, seed + 1))
    instance = held_instance(*states)
    assert instance[5] == 0.0
    dense_probs, _ = dense_evolution(*states, 5000)
    dec = decompose(instance)
    closed = [success_prob_analytic(dec, n) for n in range(5001)]
    np.testing.assert_allclose(closed, dense_probs, rtol=0, atol=1e-10)
    np.testing.assert_allclose(success_trajectory(instance, 5000), dense_probs, rtol=0, atol=1e-10)


def test_decompose_allocates_no_n_length_array():
    # N = 2^40: one N-vector would be 16 TiB; the uniform instance, its
    # reduction and a 1000-step walk take O(1) memory
    tracemalloc.start()
    try:
        inst = uniform_instance(2**40, 1)
        dec = decompose(inst)
        p = success_trajectory(inst, 1000)[-1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert dec.v == 2.0**-20
    assert abs(p - uniform_success_prob(dec.v, 1000)) < 1e-9


def test_maximizers_of_the_oscillation():
    dec = decompose(uniform_instance(64, 1))
    n0 = first_maximum(dec)
    assert n0 >= 0.0
    assert abs(n0 - (0.5 * math.pi / dec.phi - 0.5)) < 1e-9
    assert abs(dec.peak + dec.w_t - 1.0) < 1e-12
    # the next maximum is one period, pi / phi, later
    assert abs(success_prob_analytic(dec, n0 + math.pi / dec.phi) - 1.0) < 1e-12


def test_maximizer_rounding_loss_is_quadratic():
    # p(n0 + delta) - p(n0) = -(A/2)(2 phi delta)^2 / 2 + O(delta^4)
    dec = decompose(uniform_instance(256, 1))
    n0 = first_maximum(dec)
    p0 = dec.w_t + dec.peak
    for delta in (1e-2, 1e-3):
        drop = p0 - success_prob_analytic(dec, n0 + delta)
        expected = dec.amp * (dec.phi * delta) ** 2
        assert abs(drop / expected - 1.0) < 1e-3


def test_uniform_success_prob_values_and_domain():
    assert abs(uniform_success_prob(0.5, 1) - 1.0) < 1e-15
    assert abs(uniform_success_prob(0.25, 0) - 0.0625) < 1e-15
    # both ends of v's range: never, and certainly at every integer n
    assert uniform_success_prob(0.0, 3) == 0.0
    assert [uniform_success_prob(1.0, n) for n in range(5)] == [1.0] * 5
    for bad_v in (-0.1, 1.5):
        with pytest.raises(ValueError):
            uniform_success_prob(bad_v, 1)
    with pytest.raises(ValueError, match="non-negative"):
        uniform_success_prob(0.5, -1)
    # an integer and a numpy float n both give a float
    assert type(uniform_success_prob(0.25, 2)) is float
    assert type(uniform_success_prob(0.25, np.float64(2.5))) is float


def test_biham_mapping_uniform_start():
    mapping = biham_mapping(uniform_state(16), TargetSet(range(2)))
    assert abs(mapping.k_bar - 0.25) < 1e-15
    assert abs(mapping.l_bar - 0.25) < 1e-15
    assert mapping.sigma_k < 1e-15 and mapping.sigma_l < 1e-15


def test_biham_mapping_identities_random_states():
    n_items = 64
    for i in range(10):
        r = (1, 4, 16)[i % 3]
        start = random_state(n_items, 100 + i)
        targets = TargetSet(range(r))
        m = biham_mapping(start, targets)
        total = (
            r * abs(m.k_bar) ** 2
            + r * m.sigma_k**2
            + (n_items - r) * abs(m.l_bar) ** 2
            + (n_items - r) * m.sigma_l**2
        )
        assert abs(total - 1.0) < 1e-12
        dec = decompose(held_instance(targets, uniform_state(n_items), start))
        assert abs(dec.alpha - abs(m.k_bar) * math.sqrt(r)) < 1e-12
        assert abs(dec.beta - abs(m.l_bar) * math.sqrt(n_items - r)) < 1e-12
        # residual weights are the scaled variances
        assert abs(dec.w_t - r * m.sigma_k**2) < 1e-12
        assert abs(dec.w_l - (n_items - r) * m.sigma_l**2) < 1e-12


def test_biham_mapping_rejects_full_target_set():
    with pytest.raises(ValueError):
        biham_mapping(uniform_state(4), TargetSet(range(4)))


def test_rotation_angle_cubic_error_term():
    # phi - 2v = v^3/3 + O(v^5), so the ratio to v^3 stays near 1/3
    for v in (1e-2, 1e-3, 1e-4):
        ratio = (rotation_angle(v) - 2.0 * v) / v**3
        assert abs(ratio - 1.0 / 3.0) < 1e-4


def test_success_prob_is_periodic():
    inst = plane_instance(0.6, 0.8, 1.1)
    dec = decompose(inst)
    period = math.pi / dec.phi
    for n in (0.0, 0.3, 1.7, 4.2, 9.9):
        assert abs(success_prob_analytic(dec, n + period) - success_prob_analytic(dec, n)) < 1e-12


def test_first_maximum_beats_grid_search():
    inst = held_instance(TargetSet((0, 1)), uniform_state(32), random_state(32, 23))
    dec = decompose(inst)
    n_peak = first_maximum(dec)
    grid = np.linspace(0.0, 2.0 * math.pi / dec.phi, 10**4).tolist()
    p_grid = max(success_prob_analytic(dec, n) for n in grid)
    assert success_prob_analytic(dec, n_peak) >= p_grid - 1e-12


def test_biham_mapping_target_eigenstate():
    amps = np.zeros(16, dtype=complex)
    amps[0] = 1.0
    mapping = biham_mapping(amps, TargetSet((0,)))
    assert mapping.k_bar == 1.0 + 0.0j
    assert mapping.sigma_k == 0.0
    assert mapping.l_bar == 0.0 + 0.0j
    assert mapping.sigma_l == 0.0


def _bits(values) -> list:
    """Each float's IEEE bytes, every NaN as one token (numpy and libm pick payloads)."""
    return ["nan" if math.isnan(x) else struct.pack("<d", x) for x in values]


def _both_paths(fn, twin, ns) -> tuple:
    """fn on each n as one number, and its numpy twin on all of ns as one array."""
    return _bits([fn(n) for n in ns]), _bits(twin(np.array(ns, dtype=float)).tolist())


# n = 0 and -0.0, small and fractional n, n past 2^30 up to 2^40, NaN, and
# 2,000 random counts below 2^40 (an infinite n is refused, see below)
_BIT_NS = (
    [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 7.0, 1000.0, 12345.678, 2.0**20, 2.0**30 + 1.0,
     2.0**40 - 1.0, 2.0**40, math.nan]
    + np.random.default_rng(19).integers(0, 2**40, 2000).astype(float).tolist()
)

_BIT_DECOMPOSITIONS = [
    decompose(uniform_instance(4, 1)),
    decompose(uniform_instance(2**20, 1)),
    decompose(uniform_instance(2**40, 3)),
    decompose(uniform_instance(2**20, 2**20 - 1)),  # phi just below pi
    decompose(uniform_instance(4, 4)),  # phi = pi
    decompose(held_instance(TargetSet((3, 17, 40)), uniform_state(64), random_state(64, 7))),
    decompose(plane_instance(0.6, 0.8, 1.1)),
    Decomposition(0.0, 0.0, 1.0, 0.0),  # phi = 0
    # peaks past 1 and troughs below 0 before the clip
    Decomposition(0.5, 1.0, 0.0, 0.0, w_t=1e-15),
    Decomposition(0.5, 0.6, 0.8, 0.0, w_t=-1e-300),
]


@pytest.mark.parametrize("dec", _BIT_DECOMPOSITIONS)
def test_success_prob_scalar_and_array_paths_agree_bit_for_bit(dec):
    # the scan oracle's numpy twin of p(n) ranks n by the package's bits:
    # numpy's cos is libm's on these phases
    scalar, array = _both_paths(lambda n: success_prob_analytic(dec, n),
                                lambda ns: scan_reference.success_prob(dec, ns), _BIT_NS)
    assert scalar == array


@pytest.mark.parametrize("v", [0.0, 2.0**-20, 0.25, 0.5, 0.9, 1.0 - 2.0**-30,
                               math.nextafter(1.0, 0.0), 1.0])
def test_uniform_and_punctuated_paths_agree_bit_for_bit(v):
    # the punctuated model and the uniform form both take one n; the uniform
    # form gives the bits of the same expression in numpy, as numpy's cos is
    # libm's on these phases
    phi = rotation_angle(v)
    scalar, array = _both_paths(lambda n: uniform_success_prob(v, n),
                                lambda ns: 0.5 * (1.0 - np.cos((2.0 * ns + 1.0) * phi)), _BIT_NS)
    assert scalar == array


def test_success_prob_clips_to_the_unit_interval():
    peak = Decomposition(0.5, 1.0, 0.0, 0.0, w_t=1e-15)  # unclipped p(0) > 1
    trough = Decomposition(0.5, 0.6, 0.8, 0.0, w_t=-1e-300)  # unclipped minimum < 0
    ns = [*range(101), (math.pi + trough.theta) / (2.0 * trough.phi)]
    assert success_prob_analytic(peak, 0) == 1.0
    assert min(success_prob_analytic(trough, n) for n in ns) >= 0.0
    assert math.isnan(success_prob_analytic(peak, math.nan))
    # math.cos refuses an infinite phase, where numpy's cos gave NaN
    with pytest.raises(ValueError, match="math domain error"):
        success_prob_analytic(peak, math.inf)
