"""Unit and property tests for the exact state-vector simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqsearch.analytic
from gqsearch import (
    InvalidDimensionError,
    InvalidTargetError,
    NonUnitAxisError,
    NonUnitStateError,
    SearchInstance,
    StateVector,
    TargetSet,
    grover_power,
    oracle_reflect,
    random_state,
    reflect_about,
    success_probability,
    success_trajectory,
    uniform_instance,
    uniform_state,
)
from gqsearch.statevector import _dense_evolution


def basis_state(n_items, index):
    amps = np.zeros(n_items, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def test_uniform_state_is_flat():
    state = uniform_state(4)
    assert state.dim == 4
    assert np.all(state.amplitudes == 0.5)


def test_state_vector_copies_input():
    raw = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    state = StateVector(raw)
    raw[0] = 99.0
    assert state.amplitudes[0] == 1.0


def test_state_vector_rejects_non_unit():
    with pytest.raises(NonUnitStateError):
        StateVector([1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_state_vector_rejects_non_finite(bad):
    # abs(nan - 1) > tol is False, so the guard must be written to catch NaN
    with pytest.raises(NonUnitStateError):
        StateVector([0.5, bad, 0.5, 0.5])


def test_state_vector_rejects_bad_shapes():
    with pytest.raises(InvalidDimensionError):
        StateVector([])
    with pytest.raises(InvalidDimensionError):
        StateVector([[1.0, 0.0], [0.0, 1.0]])


def test_target_set_canonicalizes():
    ts = TargetSet((3, 1))
    assert ts.indices == (1, 3)
    assert ts.r == 2
    assert TargetSet.first(3).indices == (0, 1, 2)


def test_target_set_rejects_bad_indices():
    with pytest.raises(InvalidTargetError):
        TargetSet(())
    with pytest.raises(InvalidTargetError):
        TargetSet((2, 2))
    with pytest.raises(InvalidTargetError):
        TargetSet((-1,))


def test_instance_validates():
    with pytest.raises(InvalidDimensionError):
        SearchInstance(
            n_items=4,
            targets=TargetSet.first(1),
            averaging=uniform_state(8),
            start=uniform_state(4),
        )
    with pytest.raises(InvalidTargetError):
        uniform_instance(4, TargetSet((7,)))


def test_oracle_flips_only_targets():
    state = random_state(8, 0)
    flipped = oracle_reflect(state, TargetSet((2, 5)))
    expected = state.amplitudes.copy()
    expected[[2, 5]] = -expected[[2, 5]]
    assert np.array_equal(flipped.amplitudes, expected)
    # the input is never mutated
    assert np.array_equal(state.amplitudes, random_state(8, 0).amplitudes)


def test_reflect_about_fixes_axis_and_negates_orthogonal():
    axis = random_state(6, 1)
    same = reflect_about(axis, axis)
    np.testing.assert_allclose(same.amplitudes, axis.amplitudes, atol=1e-12)
    e0, e1 = basis_state(4, 0), basis_state(4, 1)
    assert np.array_equal(reflect_about(e1, e0).amplitudes, -e1.amplitudes)


def test_reflect_about_rejects_stale_axis_norm():
    state = uniform_state(4)
    axis = uniform_state(4)
    # the constructor validates, so force a stale norm to hit the guard
    axis.amplitudes = axis.amplitudes * 2.0
    with pytest.raises(NonUnitAxisError):
        reflect_about(state, axis)
    with pytest.raises(InvalidDimensionError):
        reflect_about(state, uniform_state(8))


def test_grover_power_known_value():
    # N = 16, one target, three iterations: p = 251^2 / 2^16
    state = grover_power(uniform_instance(16, 1), 3)
    p = success_probability(state, TargetSet.first(1))
    assert abs(p - 63001 / 65536) < 1e-12


def test_grover_power_perfect_small_case():
    # N = 4, one target: a single iteration succeeds with certainty
    state = grover_power(uniform_instance(4, 1), 1)
    assert abs(success_probability(state, TargetSet.first(1)) - 1.0) < 1e-12


def test_grover_power_zero_is_identity():
    inst = uniform_instance(8, 2)
    state = grover_power(inst, 0)
    assert np.array_equal(state.amplitudes, inst.start.amplitudes)
    with pytest.raises(ValueError):
        grover_power(inst, -1)


def test_norm_preserved_over_long_run():
    inst = SearchInstance(
        n_items=64,
        targets=TargetSet((0, 7, 9)),
        averaging=uniform_state(64),
        start=random_state(64, 5),
    )
    state = grover_power(inst, 1000)
    assert abs(state.norm() - 1.0) < 1e-12


def test_success_trajectory_matches_pointwise_powers():
    inst = SearchInstance(
        n_items=32,
        targets=TargetSet((3, 17)),
        averaging=uniform_state(32),
        start=random_state(32, 11),
    )
    traj = success_trajectory(inst, 10)
    assert traj.shape == (11,)
    for n in range(11):
        p = success_probability(grover_power(inst, n), inst.targets)
        assert abs(traj[n] - p) < 1e-12


def test_count_style_target_placement_is_immaterial():
    # with uniform start and averaging, p(n) depends on the targets only
    # through their count
    a = success_trajectory(uniform_instance(16, TargetSet((0, 1, 2))), 12)
    b = success_trajectory(uniform_instance(16, TargetSet((3, 9, 14))), 12)
    np.testing.assert_allclose(a, b, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_items=st.integers(2, 48), data=st.data())
def test_random_instances_stay_normalized(n_items, data):
    r = data.draw(st.integers(1, n_items))
    seed = data.draw(st.integers(0, 2**31))
    inst = SearchInstance(
        n_items=n_items,
        targets=TargetSet.first(r),
        averaging=random_state(n_items, seed),
        start=random_state(n_items, seed + 1),
    )
    traj = success_trajectory(inst, 12)
    assert np.all(traj >= -1e-12)
    assert np.all(traj <= 1.0 + 1e-12)
    assert abs(grover_power(inst, 12).norm() - 1.0) < 1e-12


def test_oracle_full_target_set_negates_globally():
    state = random_state(8, 4)
    flipped = oracle_reflect(state, TargetSet(range(8)))
    np.testing.assert_array_equal(flipped.amplitudes, -state.amplitudes)


def test_reflections_are_involutions():
    state = random_state(12, 6)
    axis = random_state(12, 7)
    targets = TargetSet((0, 3, 5))
    twice_oracle = oracle_reflect(oracle_reflect(state, targets), targets)
    np.testing.assert_array_equal(twice_oracle.amplitudes, state.amplitudes)
    twice_reflect = reflect_about(reflect_about(state, axis), axis)
    assert np.abs(twice_reflect.amplitudes - state.amplitudes).max() < 1e-12


def test_rotation_plane_closure_and_residuals():
    # Q rotates only inside span{|t>, |a'>}; the target-space residual is
    # fixed and the non-target residual flips sign each step.
    n_items, targets = 16, (1, 5, 11)
    inst = SearchInstance(
        n_items=n_items,
        targets=TargetSet(targets),
        averaging=uniform_state(n_items),
        start=random_state(n_items, 9),
    )
    a = inst.averaging.amplitudes
    mask = np.zeros(n_items, dtype=bool)
    mask[list(targets)] = True
    projected = np.where(mask, a, 0.0)
    v = np.linalg.norm(projected)
    t = projected / v
    aprime = np.where(mask, 0.0, a) / math.sqrt(1.0 - v**2)

    def residuals(step):
        psi = grover_power(inst, step).amplitudes
        in_span = abs(np.vdot(t, psi)) ** 2 + abs(np.vdot(aprime, psi)) ** 2
        res_t = np.where(mask, psi, 0.0) - np.vdot(t, psi) * t
        res_l = np.where(mask, 0.0, psi) - np.vdot(aprime, psi) * aprime
        return in_span, res_t, res_l

    span0, res_t0, res_l0 = residuals(0)
    for step in range(1, 7):
        span_n, res_t, res_l = residuals(step)
        assert abs(span_n - span0) < 1e-10
        assert np.abs(res_t - res_t0).max() < 1e-12
        assert np.abs(res_l - (-1.0) ** step * res_l0).max() < 1e-12


def assert_matches_dense(inst, n, tol=1e-10):
    # the reduced-basis evolution against n dense O(N) passes
    dense_probs, dense_amps = _dense_evolution(inst, n)
    np.testing.assert_allclose(success_trajectory(inst, n), dense_probs, rtol=0, atol=tol)
    np.testing.assert_allclose(grover_power(inst, n).amplitudes, dense_amps, rtol=0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(n_items=st.integers(2, 64), data=st.data())
def test_reduced_evolution_matches_dense(n_items, data):
    r = data.draw(st.integers(1, n_items))
    targets = data.draw(st.permutations(range(n_items)))[:r]
    seed = data.draw(st.integers(0, 2**31))
    n = data.draw(st.integers(0, 200))
    inst = SearchInstance(
        n_items=n_items,
        targets=TargetSet(targets),
        averaging=random_state(n_items, seed),
        start=random_state(n_items, seed + 1),
    )
    assert_matches_dense(inst, n)


def _instance(targets, averaging, start):
    amps_a = np.asarray(averaging, dtype=complex)
    amps_s = np.asarray(start, dtype=complex)
    return SearchInstance(
        n_items=amps_a.size,
        targets=TargetSet(targets),
        averaging=StateVector(amps_a / np.linalg.norm(amps_a)),
        start=StateVector(amps_s / np.linalg.norm(amps_s)),
    )


def test_reduced_evolution_degenerate_cases():
    a = random_state(16, 20).amplitudes
    s = random_state(16, 21).amplitudes
    targets = (2, 5, 11)
    off = np.ones(16, dtype=bool)
    off[list(targets)] = False
    cases = {
        "s = a, uniform": uniform_instance(16, TargetSet(targets)),
        "s = a, random": _instance(targets, a, a),
        "r = N": _instance(range(16), a, s),
        "v = 1": _instance(targets, np.where(off, 0.0, a), s),
        "v = 0": _instance(targets, np.where(off, a, 0.0), s),
        "start off the targets": _instance(targets, a, np.where(off, s, 0.0)),
    }
    for name, inst in cases.items():
        for n in (0, 1, 2, 7, 200):
            try:
                assert_matches_dense(inst, n)
            except AssertionError as exc:
                raise AssertionError(f"{name}, n={n}: {exc}") from exc


def test_reduced_evolution_large_instance():
    inst = SearchInstance(
        n_items=4096,
        targets=TargetSet((3, 17, 40, 1000)),
        averaging=random_state(4096, 30),
        start=random_state(4096, 31),
    )
    assert_matches_dense(inst, 300)


def test_evolution_rejects_stale_averaging_norm():
    # the constructor validates, so force a stale norm to hit the per-step check
    inst = uniform_instance(8, 1)
    inst.averaging.amplitudes = inst.averaging.amplitudes * 2.0
    with pytest.raises(NonUnitStateError, match="after 1 iterations"):
        grover_power(inst, 3)
    with pytest.raises(NonUnitStateError, match="after 1 iterations"):
        success_trajectory(inst, 3)
    with pytest.raises(NonUnitStateError):
        _dense_evolution(inst, 3)


def test_evolution_rejects_nan_averaging():
    inst = uniform_instance(8, 1)
    inst.averaging.amplitudes = inst.averaging.amplitudes.copy()
    inst.averaging.amplitudes[5] = math.nan
    with pytest.raises(NonUnitStateError):
        grover_power(inst, 1)
    with pytest.raises(NonUnitStateError):
        success_trajectory(inst, 1)


def test_evolution_never_calls_the_closed_form(monkeypatch):
    # the simulator is the independent check of the closed form, so it
    # must not reach gqsearch.analytic
    def boom(*args, **kwargs):
        raise AssertionError("the simulator called gqsearch.analytic")

    for name in ("decompose", "success_prob_analytic", "rotation_angle"):
        monkeypatch.setattr(gqsearch.analytic, name, boom)
    inst = SearchInstance(
        n_items=32,
        targets=TargetSet((1, 9)),
        averaging=random_state(32, 40),
        start=random_state(32, 41),
    )
    assert success_trajectory(inst, 10).shape == (11,)
    assert grover_power(inst, 10).dim == 32
