"""Unit and property tests for the exact state-vector simulator."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqsearch.analytic
from gqsearch import (
    InvalidDimensionError,
    InvalidTargetError,
    NonUnitStateError,
    SearchInstance,
    StateVector,
    TargetSet,
    random_state,
    success_probability,
    success_trajectory,
    uniform_instance,
    uniform_state,
)

from dense_reference import dense_evolution, edge_states, reduced_amplitudes, uniform_states


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
        SearchInstance.from_states(TargetSet.first(1), uniform_state(8), uniform_state(4))
    with pytest.raises(InvalidTargetError):
        SearchInstance.from_states(TargetSet((7,)), uniform_state(4), uniform_state(4))
    with pytest.raises(InvalidTargetError):
        uniform_instance(4, TargetSet((7,)))
    # N is checked before r/N is formed: no ZeroDivisionError at N = 0
    for n_items in (0, -4):
        with pytest.raises(InvalidDimensionError):
            uniform_instance(n_items, 1)
        with pytest.raises(InvalidDimensionError):
            SearchInstance(n_items, TargetSet.first(1), (0.0,) * 6)


def test_uniform_products_match_the_uniform_state():
    # 1/sqrt(N) is exact at N = 4^j, so the vector products are exact and
    # equal r/N and 1 - r/N bit for bit
    for j in range(11):
        n_items = 4**j
        u = uniform_state(n_items)
        for r in sorted({1, (n_items + 2) // 3, n_items}):
            want = SearchInstance.from_states(TargetSet.first(r), u, u).products
            got = uniform_instance(n_items, r).products
            assert [complex(x) for x in got] == [complex(x) for x in want], (n_items, r)


def test_grover_power_known_value():
    # N = 16, one target, three iterations: p = 251^2 / 2^16, an anchor
    # for both the reduced evolution and the dense reference
    states = uniform_states(16, 1)
    p = success_probability(uniform_instance(16, 1), 3)
    assert abs(p - 63001 / 65536) < 1e-12
    assert abs(abs(reduced_amplitudes(*states, 3)[0]) ** 2 - 63001 / 65536) < 1e-12
    assert abs(dense_evolution(*states, 3)[0][3] - 63001 / 65536) < 1e-12


def test_grover_power_perfect_small_case():
    # N = 4, one target: a single iteration succeeds with certainty
    assert abs(abs(reduced_amplitudes(*uniform_states(4, 1), 1)[0]) ** 2 - 1.0) < 1e-12
    assert abs(success_probability(uniform_instance(4, 1), 1) - 1.0) < 1e-12


def test_success_probability_never_rounds_past_one():
    # the norm is held to NORM_TOL only, so the raw target weight can round
    # past 1: N = 12, r = 3 gave 1 + 7e-16 at n = 1.  The trajectory and
    # the single-n probability are one expression, so they agree bit for bit.
    for n_items in range(1, 65):
        for r in range(1, n_items + 1):
            inst = uniform_instance(n_items, r)
            traj = success_trajectory(inst, 5)
            assert np.all((traj >= 0.0) & (traj <= 1.0)), (n_items, r, traj)
            for n in range(6):
                assert success_probability(inst, n) == traj[n], (n_items, r, n)


def test_nan_target_weight_is_not_clipped_to_one():
    # n = 0 takes no step, so no norm check runs: a stale NaN amplitude on
    # a target must come out as NaN, which min(1, nan) would hide as 1.0
    targets, u, _ = uniform_states(8, 1)
    u.amplitudes = u.amplitudes.copy()
    u.amplitudes[0] = math.nan
    inst = SearchInstance.from_states(targets, u, u)
    assert math.isnan(success_probability(inst, 0))
    assert math.isnan(success_trajectory(inst, 0)[0])


def test_success_probability_keeps_no_trajectory():
    # O(1) memory in n once the instance exists: no N-vector, no trajectory
    inst = uniform_instance(2**20, 16)
    tracemalloc.start()
    try:
        p = success_probability(inst, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p == success_trajectory(inst, 200)[200]
    assert peak < 2**20, peak


def test_grover_power_zero_is_identity():
    states = uniform_states(8, 2)
    assert np.array_equal(reduced_amplitudes(*states, 0), states[2].amplitudes)
    with pytest.raises(ValueError, match="non-negative"):
        reduced_amplitudes(*states, -1)
    for evolve in (success_probability, success_trajectory):
        with pytest.raises(ValueError, match="non-negative"):
            evolve(uniform_instance(8, 2), -1)


def test_norm_preserved_over_long_run():
    states = (TargetSet((0, 7, 9)), uniform_state(64), random_state(64, 5))
    assert abs(np.linalg.norm(reduced_amplitudes(*states, 1000)) - 1.0) < 1e-12


def test_success_trajectory_matches_pointwise_powers():
    # the Gram-form target weight against |amplitude|^2 summed over the
    # targets of the N-vector Q^n|s> rebuilt from the coefficients
    states = (TargetSet((3, 17)), uniform_state(32), random_state(32, 11))
    inst = SearchInstance.from_states(*states)
    traj = success_trajectory(inst, 10)
    assert traj.shape == (11,)
    for n in range(11):
        amps = reduced_amplitudes(*states, n)
        assert abs(traj[n] - np.sum(np.abs(amps[[3, 17]]) ** 2)) < 1e-12
        assert success_probability(inst, n) == traj[n]


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
    states = (TargetSet.first(r), random_state(n_items, seed), random_state(n_items, seed + 1))
    traj = success_trajectory(SearchInstance.from_states(*states), 12)
    assert np.all(traj >= -1e-12)
    assert np.all(traj <= 1.0 + 1e-12)
    assert abs(np.linalg.norm(reduced_amplitudes(*states, 12)) - 1.0) < 1e-12


def test_rotation_plane_closure_and_residuals():
    # Q rotates only inside span{|t>, |a'>}; the target-space residual is
    # fixed and the non-target residual flips sign each step.
    n_items, targets = 16, (1, 5, 11)
    states = (TargetSet(targets), uniform_state(n_items), random_state(n_items, 9))
    a = states[1].amplitudes
    mask = np.zeros(n_items, dtype=bool)
    mask[list(targets)] = True
    projected = np.where(mask, a, 0.0)
    v = np.linalg.norm(projected)
    t = projected / v
    aprime = np.where(mask, 0.0, a) / math.sqrt(1.0 - v**2)

    def residuals(step):
        psi = reduced_amplitudes(*states, step)
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


def assert_matches_dense(states, n, tol=1e-10):
    # the reduced-basis evolution against n dense O(N) passes
    dense_probs, dense_amps = dense_evolution(*states, n)
    traj = success_trajectory(SearchInstance.from_states(*states), n)
    np.testing.assert_allclose(traj, dense_probs, rtol=0, atol=tol)
    np.testing.assert_allclose(reduced_amplitudes(*states, n), dense_amps, rtol=0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(n_items=st.integers(2, 64), data=st.data())
def test_reduced_evolution_matches_dense(n_items, data):
    r = data.draw(st.integers(1, n_items))
    targets = data.draw(st.permutations(range(n_items)))[:r]
    seed = data.draw(st.integers(0, 2**31))
    n = data.draw(st.integers(0, 200))
    states = (TargetSet(targets), random_state(n_items, seed), random_state(n_items, seed + 1))
    assert_matches_dense(states, n)


def test_reduced_evolution_degenerate_cases():
    for name, states in edge_states().items():
        for n in (0, 1, 2, 7, 200):
            try:
                assert_matches_dense(states, n)
            except AssertionError as exc:
                raise AssertionError(f"{name}, n={n}: {exc}") from exc


def test_reduced_evolution_large_instance():
    states = (TargetSet((3, 17, 40, 1000)), random_state(4096, 30), random_state(4096, 31))
    assert_matches_dense(states, 300)


def test_evolution_rejects_stale_averaging_norm():
    # the constructor validates, so force a stale norm to hit the per-step check
    states = uniform_states(8, 1)
    states[1].amplitudes = states[1].amplitudes * 2.0
    with pytest.raises(NonUnitStateError, match="after 1 iterations"):
        reduced_amplitudes(*states, 3)
    with pytest.raises(NonUnitStateError, match="after 1 iterations"):
        success_trajectory(SearchInstance.from_states(*states), 3)
    with pytest.raises(NonUnitStateError):
        dense_evolution(*states, 3)


def test_evolution_rejects_nan_averaging():
    states = uniform_states(8, 1)
    states[1].amplitudes = states[1].amplitudes.copy()
    states[1].amplitudes[5] = math.nan
    with pytest.raises(NonUnitStateError):
        reduced_amplitudes(*states, 1)
    with pytest.raises(NonUnitStateError):
        success_trajectory(SearchInstance.from_states(*states), 1)


def test_evolution_never_calls_the_closed_form(monkeypatch):
    # the simulator is the independent check of the closed form, so it
    # must not reach gqsearch.analytic
    def boom(*args, **kwargs):
        raise AssertionError("the simulator called gqsearch.analytic")

    for name in ("decompose", "success_prob_analytic", "rotation_angle"):
        monkeypatch.setattr(gqsearch.analytic, name, boom)
    states = (TargetSet((1, 9)), random_state(32, 40), random_state(32, 41))
    assert success_trajectory(SearchInstance.from_states(*states), 10).shape == (11,)
    assert reduced_amplitudes(*states, 10).shape == (32,)
