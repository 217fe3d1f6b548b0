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
    NonUnitStateError,
    SearchInstance,
    TargetSet,
    biham_mapping,
    success_trajectory,
    uniform_instance,
)
from gqsearch.statevector import BLOCK, _random_blocks

from dense_reference import (
    dense_evolution,
    edge_states,
    full_products,
    held_instance,
    random_state,
    reduced_amplitudes,
    uniform_state,
    uniform_states,
)

# biham_mapping is the one public function that takes a held state, a raw
# amplitude array, so it checks the array's shape and norm itself


def test_state_vector_rejects_non_unit():
    with pytest.raises(NonUnitStateError):
        biham_mapping([1.0, 1.0], TargetSet((0,)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_state_vector_rejects_non_finite(bad):
    # abs(nan - 1) > tol is False, so the guard must be written to catch NaN
    with pytest.raises(NonUnitStateError):
        biham_mapping([0.5, bad, 0.5, 0.5], TargetSet((0,)))


def test_state_vector_rejects_bad_shapes():
    with pytest.raises(InvalidDimensionError):
        biham_mapping([], TargetSet((0,)))
    with pytest.raises(InvalidDimensionError):
        biham_mapping([[1.0, 0.0], [0.0, 1.0]], TargetSet((0,)))


def test_target_set_canonicalizes():
    ts = TargetSet((3, 1))
    assert ts.indices == (1, 3)
    assert ts.r == 2
    assert TargetSet(range(3)).indices == (0, 1, 2)


def test_target_set_rejects_bad_indices():
    with pytest.raises(InvalidTargetError):
        TargetSet(())
    with pytest.raises(InvalidTargetError):
        TargetSet((2, 2))
    with pytest.raises(InvalidTargetError):
        TargetSet((-1,))


def test_instance_validates():
    with pytest.raises(InvalidDimensionError):
        held_instance(TargetSet(range(1)), uniform_state(8), uniform_state(4))
    with pytest.raises(InvalidTargetError):
        held_instance(TargetSet((7,)), uniform_state(4), uniform_state(4))
    with pytest.raises(InvalidTargetError):
        uniform_instance(4, 5)
    # N is checked before r/N is formed: no ZeroDivisionError at N = 0
    for n_items in (0, -4):
        with pytest.raises(InvalidDimensionError):
            uniform_instance(n_items, 1)


def test_uniform_products_match_the_uniform_state():
    # 1/sqrt(N) is exact at N = 4^j, so the vector products are exact and
    # equal r/N and 1 - r/N bit for bit
    for j in range(11):
        n_items = 4**j
        u = uniform_state(n_items)
        for r in sorted({1, (n_items + 2) // 3, n_items}):
            want = held_instance(TargetSet(range(r)), u, u).products
            got = uniform_instance(n_items, r).products
            assert [complex(x) for x in got] == [complex(x) for x in want], (n_items, r)


@pytest.mark.parametrize("uniform_side", ["averaging", "start"])
def test_uniform_partner_products_match_the_built_state(uniform_side):
    # None stands for u: its products with the other state, in closed form,
    # agree with those of the built uniform vector
    rng = np.random.default_rng(21)
    for j in range(9):
        n_items = 4**j
        other = random_state(n_items, 100 + j)
        u = uniform_state(n_items)
        for r in sorted({1, max(n_items // 3, 1), n_items}):
            targets = TargetSet(rng.choice(n_items, size=r, replace=False))
            if uniform_side == "averaging":
                got = held_instance(targets, None, other)
                want = held_instance(targets, u, other)
            else:
                got = held_instance(targets, other, None)
                want = held_instance(targets, other, u)
            dev = max(abs(complex(g) - complex(w)) for g, w in zip(got.products, want.products))
            assert dev <= 1e-14, (n_items, r, dev)


def test_uniform_partner_checks_its_targets():
    with pytest.raises(InvalidTargetError):
        held_instance(TargetSet((4,)), None, random_state(4, 1))
    with pytest.raises(InvalidTargetError):
        held_instance(TargetSet((4,)), random_state(4, 1), None)


@pytest.mark.parametrize("n_items", [3, 100, 20000, 3 * BLOCK + 5])
def test_uniform_start_has_p0_r_over_n_exactly(n_items):
    # u's own products are r/N and 1 - r/N, as in uniform_instance, beside any
    # explicit partner and at every N, also where 1/sqrt(N) rounds
    other = random_state(n_items, 5)
    for targets in (1, TargetSet({0, n_items // 2, n_items - 1})):
        r = targets if isinstance(targets, int) else targets.r
        start_u = held_instance(targets, other, None)
        assert start_u.products[:2] == (r / n_items, 1.0 - r / n_items)
        assert success_trajectory(start_u, 0)[0] == r / n_items
        averaging_u = held_instance(targets, None, other)
        assert (averaging_u.products[2], averaging_u.products[5]) == (r / n_items, 1.0 - r / n_items)


@pytest.mark.parametrize("n_items", [1, 7, 3 * 2**16 + 5])
def test_random_state_keeps_the_unblocked_draws(n_items):
    # the random: stream's real parts are the first N draws and imaginary
    # parts the next N, as two standard_normal(N) calls give them, divided
    # by the norm summed block by block: the held reference, bit for bit
    for seed in (0, 11):
        got = np.concatenate([x.copy() for x in _random_blocks(n_items, seed)])
        want = random_state(n_items, seed)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # in one block the norm is np.linalg.norm's: verify's N = 64 states
        # are z / np.linalg.norm(z), bit for bit
        if n_items <= BLOCK:
            rng = np.random.default_rng(seed)
            z = rng.standard_normal(n_items) + 1j * rng.standard_normal(n_items)
            assert np.array_equal(got.view(np.int64), (z / np.linalg.norm(z)).view(np.int64))


@pytest.mark.parametrize("n_items", [1, 7, 3 * 2**14 + 5])
def test_random_instance_reduces_the_drawn_state(n_items):
    # _random_blocks draws the held random_state's blocks, reduced as drawn:
    # its products are the held state's to rounding, for explicit targets
    # spread over the blocks and for a count
    rng = np.random.default_rng(n_items)
    for seed in (0, 11):
        state = random_state(n_items, seed)
        picks = TargetSet(rng.choice(n_items, size=min(n_items, 5), replace=False))
        for targets in (picks, max(n_items // 3, 1), TargetSet(range(n_items))):
            got = SearchInstance.from_blocks(targets, n_items, None, _random_blocks(n_items, seed))
            want = held_instance(targets, None, state)
            dev = max(abs(complex(g) - complex(w)) for g, w in zip(got.products, want.products))
            assert dev <= 1e-14, (n_items, seed, targets, dev)


def _held_blocks(state):
    """A held state's blocks as copies, the way a file or a draw yields them."""
    return [state[lo:lo + BLOCK].copy() for lo in range(0, state.size, BLOCK)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reducer_matches_the_full_vector_products(data):
    # every pairing of u, held states and the random stream meets the
    # whole-vector vdots, for target sets and counts that straddle block
    # edges; a held state equals the same state given as blocks
    n_items = data.draw(st.sampled_from([1, 7, BLOCK, 3 * BLOCK + 5]), label="N")
    edges = {i for lo in range(0, n_items + 1, BLOCK) for i in (lo - 1, lo, lo + 1)}
    edges = sorted(i for i in edges | {n_items - 1} if 0 <= i < n_items)
    index = st.sampled_from(edges) | st.integers(0, n_items - 1)
    targets = data.draw(st.sets(index, min_size=1, max_size=6).map(TargetSet)
                        | st.sampled_from([i + 1 for i in edges]), label="targets")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    a, s = random_state(n_items, seed), random_state(n_items, seed + 1)
    u = uniform_state(n_items)
    pairing = data.draw(st.sampled_from(["u, held", "held, u", "s = a", "held, held",
                                         "u, random", "held, random"]), label="pairing")
    averaging, start = {"u, held": (None, s), "held, u": (a, None), "s = a": (a, a),
                        "held, held": (a, s), "u, random": (None, s), "held, random": (a, s)}[pairing]
    want = full_products(targets, *(u if x is None else x for x in (averaging, start)))
    blocks = [None if x is None else _held_blocks(x) for x in (averaging, start)]
    if averaging is start:
        blocks[1] = blocks[0]
    if pairing.endswith("random"):  # start = random_state(n_items, seed + 1), drawn
        got = SearchInstance.from_blocks(targets, n_items, blocks[0],
                                         _random_blocks(n_items, seed + 1))
    else:
        got = SearchInstance.from_blocks(targets, n_items, *blocks)
        assert got == held_instance(targets, averaging, start)
    # the reference's sums are exact, so the blocked sums are held to 1e-14
    # at every N
    dev = max(abs(complex(g) - complex(w)) for g, w in zip(got.products, want))
    assert dev <= 1e-14, (pairing, dev)


def test_blocks_are_checked_like_a_state_vector():
    # a state given as blocks is checked for its norm and its length
    half = np.full(4, 0.5, dtype=np.complex128)
    for bad, norm in ((2.0 * half, "2.0"), (np.array([math.nan, 0.5, 0.5, 0.5]), "nan")):
        for averaging, start in ((None, [bad]), ([bad], None)):
            with pytest.raises(NonUnitStateError, match=f"state norm is {norm}, not 1"):
                SearchInstance.from_blocks(TargetSet((1,)), 4, averaging, start)
        blocks = [bad]
        with pytest.raises(NonUnitStateError):
            SearchInstance.from_blocks(2, 4, blocks, blocks)
    for blocks in ([half[:3]], [half, half[:1]], []):
        with pytest.raises(InvalidDimensionError, match="not n_items=4"):
            SearchInstance.from_blocks(TargetSet((1,)), 4, None, blocks)


def test_target_counts_are_the_first_indices():
    # a count r stands for the indices 0..r-1, with the same bits, and is
    # checked against N by every constructor
    a, s = random_state(40, 1), random_state(40, 2)
    for r in (1, 17, 40):
        first = TargetSet(range(r))
        for states in ((a, s), (None, s), (a, None), (s, s)):
            assert held_instance(r, *states) == held_instance(first, *states), (r, states)
    for r in (0, -1, 41):
        for build in (lambda: held_instance(r, a, s),
                      lambda: held_instance(r, None, s),
                      lambda: SearchInstance.from_blocks(r, 40, None, _random_blocks(40, 3))):
            with pytest.raises(InvalidTargetError, match="target count"):
                build()


def test_grover_power_known_value():
    # N = 16, one target, three iterations: p = 251^2 / 2^16, an anchor
    # for both the reduced evolution and the dense reference
    states = uniform_states(16, 1)
    p = success_trajectory(uniform_instance(16, 1), 3)[-1]
    assert abs(p - 63001 / 65536) < 1e-12
    assert abs(abs(reduced_amplitudes(*states, 3)[0]) ** 2 - 63001 / 65536) < 1e-12
    assert abs(dense_evolution(*states, 3)[0][3] - 63001 / 65536) < 1e-12


def test_grover_power_perfect_small_case():
    # N = 4, one target: a single iteration succeeds with certainty
    assert abs(abs(reduced_amplitudes(*uniform_states(4, 1), 1)[0]) ** 2 - 1.0) < 1e-12
    assert abs(success_trajectory(uniform_instance(4, 1), 1)[-1] - 1.0) < 1e-12


def test_success_probability_never_rounds_past_one():
    # the norm is held to NORM_TOL only, so the raw target weight can round
    # past 1: N = 12, r = 3 gave 1 + 7e-16 at n = 1.  A shorter walk is a
    # prefix of a longer one, so they agree bit for bit.
    for n_items in range(1, 65):
        for r in range(1, n_items + 1):
            inst = uniform_instance(n_items, r)
            traj = success_trajectory(inst, 5)
            assert np.all((traj >= 0.0) & (traj <= 1.0)), (n_items, r, traj)
            for n in range(6):
                assert success_trajectory(inst, n)[-1] == traj[n], (n_items, r, n)


def test_nan_target_weight_is_not_clipped_to_one():
    # n = 0 takes no step, so no norm check runs: a stale NaN amplitude on
    # a target must come out as NaN, which min(1, nan) would hide as 1.0
    targets, u, _ = uniform_states(8, 1)
    u[0] = math.nan
    inst = SearchInstance(full_products(targets, u, u))
    assert math.isnan(success_trajectory(inst, 0)[0])


def test_grover_power_zero_is_identity():
    states = uniform_states(8, 2)
    assert np.array_equal(reduced_amplitudes(*states, 0), states[2])
    with pytest.raises(ValueError, match="non-negative"):
        reduced_amplitudes(*states, -1)
    with pytest.raises(ValueError, match="non-negative"):
        success_trajectory(uniform_instance(8, 2), -1)


def test_norm_preserved_over_long_run():
    states = (TargetSet((0, 7, 9)), uniform_state(64), random_state(64, 5))
    assert abs(np.linalg.norm(reduced_amplitudes(*states, 1000)) - 1.0) < 1e-12


def test_success_trajectory_matches_pointwise_powers():
    # the Gram-form target weight against |amplitude|^2 summed over the
    # targets of the N-vector Q^n|s> rebuilt from the coefficients
    states = (TargetSet((3, 17)), uniform_state(32), random_state(32, 11))
    inst = held_instance(*states)
    traj = success_trajectory(inst, 10)
    assert traj.shape == (11,)
    for n in range(11):
        amps = reduced_amplitudes(*states, n)
        assert abs(traj[n] - np.sum(np.abs(amps[[3, 17]]) ** 2)) < 1e-12
        assert success_trajectory(inst, n)[-1] == traj[n]


def test_count_style_target_placement_is_immaterial():
    # with uniform start and averaging, p(n) depends on the targets only
    # through their count, which is all that uniform_instance takes
    u = uniform_state(16)
    want = success_trajectory(uniform_instance(16, 3), 12)
    for targets in ((0, 1, 2), (3, 9, 14)):
        got = success_trajectory(held_instance(TargetSet(targets), u, u), 12)
        np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_items=st.integers(2, 48), data=st.data())
def test_random_instances_stay_normalized(n_items, data):
    r = data.draw(st.integers(1, n_items))
    seed = data.draw(st.integers(0, 2**31))
    states = (TargetSet(range(r)), random_state(n_items, seed), random_state(n_items, seed + 1))
    traj = success_trajectory(held_instance(*states), 12)
    assert np.all(traj >= -1e-12)
    assert np.all(traj <= 1.0 + 1e-12)
    assert abs(np.linalg.norm(reduced_amplitudes(*states, 12)) - 1.0) < 1e-12


def test_rotation_plane_closure_and_residuals():
    # Q rotates only inside span{|t>, |a'>}; the target-space residual is
    # fixed and the non-target residual flips sign each step.
    n_items, targets = 16, (1, 5, 11)
    states = (TargetSet(targets), uniform_state(n_items), random_state(n_items, 9))
    a = states[1]
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
    traj = success_trajectory(held_instance(*states), n)
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
    # the reducer validates, so a stale norm reaches the per-step check only
    # through the reference's products
    targets, u, _ = uniform_states(8, 1)
    stale = 2.0 * u
    states = (targets, stale, stale)
    with pytest.raises(NonUnitStateError, match="after 1 iterations"):
        reduced_amplitudes(*states, 3)
    with pytest.raises(NonUnitStateError, match="after 1 iterations"):
        success_trajectory(SearchInstance(full_products(*states)), 3)
    with pytest.raises(NonUnitStateError):
        dense_evolution(*states, 3)


def test_evolution_rejects_nan_averaging():
    states = uniform_states(8, 1)
    states[1][5] = math.nan  # s = a: one array
    with pytest.raises(NonUnitStateError):
        reduced_amplitudes(*states, 1)
    with pytest.raises(NonUnitStateError):
        success_trajectory(SearchInstance(full_products(*states)), 1)
    with pytest.raises(NonUnitStateError, match="state norm is nan"):
        held_instance(*states)


def test_evolution_never_calls_the_closed_form(monkeypatch):
    # the simulator is the independent check of the closed form, so it
    # must not reach gqsearch.analytic
    def boom(*args, **kwargs):
        raise AssertionError("the simulator called gqsearch.analytic")

    for name in ("decompose", "success_prob_analytic", "rotation_angle"):
        monkeypatch.setattr(gqsearch.analytic, name, boom)
    states = (TargetSet((1, 9)), random_state(32, 40), random_state(32, 41))
    assert success_trajectory(held_instance(*states), 10).shape == (11,)
    assert reduced_amplitudes(*states, 10).shape == (32,)
