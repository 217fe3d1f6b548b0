"""Unit and property tests for the exact state-vector simulator."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqsearch.analytic
from gqsearch import (
    GQSearchError,
    TargetSet,
    biham_mapping,
    from_blocks,
    success_trajectory,
    uniform_instance,
)
import gqsearch.statevector
from gqsearch.analytic import _rows
from gqsearch.statevector import _RANDOM_MAX_ITEMS, BLOCK, CHUNK, _random_blocks

from dense_reference import (
    dense_evolution,
    edge_states,
    full_products,
    held_instance,
    random_state,
    reduced_amplitudes,
    uniform_state,
    uniform_states,
    write_state_file,
)

# biham_mapping is the one public function that takes a held state, a raw
# amplitude array, so it checks the array's shape and norm itself


def test_state_vector_rejects_non_unit():
    with pytest.raises(GQSearchError, match=r"state norm is 1\.4142135623730951, not 1"):
        biham_mapping([1.0, 1.0], TargetSet((0,)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_state_vector_rejects_non_finite(bad):
    # abs(nan - 1) > tol is False, so the guard must be written to catch NaN
    with pytest.raises(GQSearchError, match=f"state norm is {abs(bad)}, not 1"):
        biham_mapping([0.5, bad, 0.5, 0.5], TargetSet((0,)))


def test_state_vector_rejects_bad_shapes():
    message = "amplitudes must be a non-empty one-dimensional array"
    with pytest.raises(GQSearchError, match=message):
        biham_mapping([], TargetSet((0,)))
    with pytest.raises(GQSearchError, match=message):
        biham_mapping([[1.0, 0.0], [0.0, 1.0]], TargetSet((0,)))


def test_target_set_canonicalizes():
    ts = TargetSet((3, 1))
    assert ts.indices == (1, 3)
    assert ts.r == 2
    assert TargetSet(range(3)).indices == (0, 1, 2)


def test_target_set_rejects_bad_indices():
    with pytest.raises(GQSearchError, match="target set is empty"):
        TargetSet(())
    with pytest.raises(GQSearchError, match="duplicate target indices"):
        TargetSet((2, 2))
    with pytest.raises(GQSearchError, match="duplicate target indices"):
        TargetSet((1, 2))._replace(indices=(2, 2))
    assert TargetSet((1, 2))._replace(indices=(5, 0)).indices == (0, 5)
    with pytest.raises(GQSearchError, match="negative target index -1"):
        TargetSet((-1,))
    # what operator.index refuses: int() would truncate 1.5 and parse "3"
    for bad in ("x", None, 1.5j, 1.5, 2.0, "3"):
        with pytest.raises(GQSearchError, match="bad target indices: '.*' object cannot be "
                                                "interpreted as an integer"):
            TargetSet((1, bad))


def test_instance_validates():
    with pytest.raises(GQSearchError, match="state blocks of 8 and 4 amplitudes at index 0 "
                                            "do not match"):
        held_instance(TargetSet(range(1)), uniform_state(8), uniform_state(4))
    with pytest.raises(GQSearchError, match="target index 7 out of range for n_items=4"):
        held_instance(TargetSet((7,)), uniform_state(4), uniform_state(4))
    with pytest.raises(GQSearchError, match=r"target count 5 outside \[1, 4\]"):
        uniform_instance(4, 5)
    # N is checked before r/N is formed: no ZeroDivisionError at N = 0
    for n_items in (0, -4):
        with pytest.raises(GQSearchError, match=f"n_items must be >= 1, got {n_items}"):
            uniform_instance(n_items, 1)


def test_uniform_products_match_the_uniform_state():
    # 1/sqrt(N) is exact at N = 4^j, so the vector products are exact and
    # equal r/N and 1 - r/N bit for bit
    for j in range(11):
        n_items = 4**j
        u = uniform_state(n_items)
        for r in sorted({1, (n_items + 2) // 3, n_items}):
            want = held_instance(TargetSet(range(r)), u, u)
            got = uniform_instance(n_items, r)
            assert [complex(x) for x in got] == [complex(x) for x in want], (n_items, r)


def test_both_uniform_states_reduce_in_closed_form():
    # None for both states is s = a = u: uniform_instance's products from
    # from_blocks itself, for a count and for a TargetSet of r indices
    for n_items, r in ((1, 1), (12, 5), (3 * BLOCK + 5, 3), (2**40, 3), (10**300, 1)):
        spread = TargetSet(range(n_items - 1, -1, -max(n_items // r, 1))[:r])
        for targets in (r, spread):
            got = from_blocks(targets, n_items, None, None)
            assert got == uniform_instance(n_items, r), (n_items, targets)


def test_r_over_n_that_underflows_is_refused():
    # r/N = 1e-400 rounds to 0.0 in float64, though p(n) is not 0 there
    for targets in (1, TargetSet((5,))):
        with pytest.raises(GQSearchError, match=r"r/N = 1/N underflows to 0\.0 in float64"):
            from_blocks(targets, 10**400, None, None)


# The products of `random:7` beside u at N = 2 BLOCK + 3, as float.hex of
# their real and imaginary parts, from the reducer that copied every chunk
# and a stream whose norm einsum sums, the same bits at any BLAS thread
# count: for targets on both sides of a chunk edge and on a block edge, and
# for a count whose last target opens the second chunk
_RANDOM_7_PRODUCTS = {
    "edges": (
        ("0x1.74f865629eac0p-15", "0x0.0p+0"),
        ("0x1.fffa2c1e6a758p-1", "0x0.0p+0"),
        ("0x1.7ff70035febc0p-14", "0x0.0p+0"),
        ("-0x1.c68f248a62eebp-16", "-0x1.50aa394e2ec24p-19"),
        ("-0x1.0647c5af2ff07p-8", "0x1.5909591ff7e3bp-10"),
        ("0x1.fff40047fe501p-1", "0x0.0p+0"),
    ),
    "count": (
        ("0x1.f22ab731106eep-5", "0x0.0p+0"),
        ("0x1.e0dd548ceef91p-1", "0x0.0p+0"),
        ("0x1.0019ff6403a7fp-4", "0x0.0p+0"),
        ("-0x1.e73d9ddc68d36p-10", "-0x1.c457689b72806p-10"),
        ("-0x1.1c7ddab9403d4p-9", "0x1.8e5c364f61a66p-9"),
        ("0x1.dffcc0137f8b0p-1", "0x0.0p+0"),
    ),
}


@pytest.mark.parametrize("which", sorted(_RANDOM_7_PRODUCTS))
def test_reducer_keeps_its_bits(which):
    n_items = 2 * BLOCK + 3
    targets = {"edges": TargetSet((CHUNK - 1, CHUNK, BLOCK)), "count": CHUNK + 1}[which]
    got = from_blocks(targets, n_items, None, _random_blocks(n_items, 7))
    bits = tuple((complex(x).real.hex(), complex(x).imag.hex()) for x in got)
    assert bits == _RANDOM_7_PRODUCTS[which]
    # u as the start instead: the same sums, the cross products conjugated
    ss_t, ss_l, aa_t, as_t, as_l, aa_l = got
    swapped = from_blocks(targets, n_items, _random_blocks(n_items, 7), None)
    assert swapped == (aa_t, aa_l, ss_t, as_t.conjugate(), as_l.conjugate(), ss_l)


# Run under a BLAS thread count: the float.hex bits of the random:7 stream
# and of the products of two file states, read and reduced as the CLI does
_THREADS_PROBE = """
import hashlib, sys
from gqsearch.analytic import TargetSet
from gqsearch.statevector import BLOCK, CHUNK, _random_blocks, _state_file, from_blocks
n_items = 2 * BLOCK + 3
stream = hashlib.sha256()
for x in _random_blocks(n_items, 7):
    stream.update(" ".join(v.hex() for v in x.view(float).tolist()).encode())
print(stream.hexdigest())
blocks = [_state_file(path, n_items) for path in sys.argv[1:]]
got = from_blocks(TargetSet((CHUNK - 1, CHUNK, BLOCK)), n_items, *blocks)
print([(complex(x).real.hex(), complex(x).imag.hex()) for x in got])
"""


def test_bits_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a long dot product across its threads, which reorders
    # the sum: the random: norm is summed by einsum, and the reducer's np.vdot
    # runs over CHUNK amplitudes, too few to split
    n_items = 2 * BLOCK + 3
    rng = np.random.default_rng(40)
    paths = []
    for name in ("a.txt", "s.txt"):
        z = rng.standard_normal(n_items) + 1j * rng.standard_normal(n_items)
        paths.append(str(tmp_path / name))
        write_state_file(paths[-1], z / np.linalg.norm(z))
    src = os.path.dirname(os.path.dirname(gqsearch.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", _THREADS_PROBE, *paths], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outs.append(result.stdout)
    assert outs[0] == outs[1]


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
            dev = max(abs(complex(g) - complex(w)) for g, w in zip(got, want))
            assert dev <= 1e-14, (n_items, r, dev)


def test_uniform_partner_checks_its_targets():
    message = "target index 4 out of range for n_items=4"
    with pytest.raises(GQSearchError, match=message):
        held_instance(TargetSet((4,)), None, random_state(4, 1))
    with pytest.raises(GQSearchError, match=message):
        held_instance(TargetSet((4,)), random_state(4, 1), None)


@pytest.mark.parametrize("n_items", [3, 100, 20000, 3 * BLOCK + 5])
def test_uniform_start_has_p0_r_over_n_exactly(n_items):
    # u's own products are r/N and 1 - r/N, as in uniform_instance, beside any
    # explicit partner and at every N, also where 1/sqrt(N) rounds
    other = random_state(n_items, 5)
    for targets in (1, TargetSet({0, n_items // 2, n_items - 1})):
        r = targets if isinstance(targets, int) else targets.r
        start_u = held_instance(targets, other, None)
        assert start_u[:2] == (r / n_items, 1.0 - r / n_items)
        assert success_trajectory(start_u, 0)[0] == r / n_items
        averaging_u = held_instance(targets, None, other)
        assert (averaging_u[2], averaging_u[5]) == (r / n_items, 1.0 - r / n_items)


@pytest.mark.parametrize("n_items", [1, 7, 3 * 2**16 + 5])
def test_random_state_keeps_the_unblocked_draws(n_items):
    # the random: stream's real parts are the first N draws and imaginary
    # parts the next N, as two standard_normal(N) calls give them, divided
    # by the norm summed block by block: the held reference, bit for bit
    for seed in (0, 11):
        got = np.concatenate([x.copy() for x in _random_blocks(n_items, seed)])
        want = random_state(n_items, seed)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # in one block the squares are one einsum sum of the real parts and
        # one of the imaginary parts, as verify's N = 64 states are divided
        if n_items <= BLOCK:
            rng = np.random.default_rng(seed)
            z = rng.standard_normal(n_items) + 1j * rng.standard_normal(n_items)
            sq = np.einsum("i,i->", z.real, z.real) + np.einsum("i,i->", z.imag, z.imag)
            assert np.array_equal(got.view(np.int64), (z / math.sqrt(sq)).view(np.int64))


@pytest.mark.parametrize("n_items", [_RANDOM_MAX_ITEMS + 1, 2**40])
def test_random_state_past_its_bound_is_refused_before_a_draw(monkeypatch, n_items):
    # at about 64 ns an amplitude, N = 2^40 drew for about 20 h: the bound is
    # checked before the generator is made, alone and inside the reducer
    class NoDraws:
        @staticmethod
        def default_rng(seed):
            raise AssertionError(f"drew from seed {seed}")

    monkeypatch.setattr(gqsearch.statevector.np, "random", NoDraws)
    message = f"draws at most {_RANDOM_MAX_ITEMS} amplitudes, got n_items={n_items}$"
    with pytest.raises(GQSearchError, match=message):
        next(_random_blocks(n_items, 1))
    with pytest.raises(GQSearchError, match=message):
        from_blocks(1, n_items, None, _random_blocks(n_items, 1))


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
            got = from_blocks(targets, n_items, None, _random_blocks(n_items, seed))
            want = held_instance(targets, None, state)
            dev = max(abs(complex(g) - complex(w)) for g, w in zip(got, want))
            assert dev <= 1e-14, (n_items, seed, targets, dev)


def _held_blocks(state):
    """A held state's blocks as copies, the way a file or a draw yields them."""
    return [state[lo:lo + BLOCK].copy() for lo in range(0, state.size, BLOCK)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reducer_matches_the_full_vector_products(data):
    # every pairing of u, held states and the random stream meets the
    # whole-vector vdots, for target sets and counts that straddle chunk and
    # block edges; a held state equals the same state given as blocks
    n_items = data.draw(st.sampled_from([1, 7, BLOCK, 2 * BLOCK + 3, 3 * BLOCK + 5]), label="N")
    # the edges of every chunk, so of every block too
    edges = {i for lo in range(0, n_items + 1, CHUNK) for i in (lo - 1, lo, lo + 1)}
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
        got = from_blocks(targets, n_items, blocks[0], _random_blocks(n_items, seed + 1))
    else:
        got = from_blocks(targets, n_items, *blocks)
        assert got == held_instance(targets, averaging, start)
    # the reference's sums are exact, so the blocked sums are held to 1e-14
    # at every N
    dev = max(abs(complex(g) - complex(w)) for g, w in zip(got, want))
    assert dev <= 1e-14, (pairing, dev)


def test_blocks_are_checked_like_a_state_vector():
    # a state given as blocks is checked for its norm and its length
    half = np.full(4, 0.5, dtype=np.complex128)
    for bad, norm in ((2.0 * half, "2.0"), (np.array([math.nan, 0.5, 0.5, 0.5]), "nan")):
        for averaging, start in ((None, [bad]), ([bad], None)):
            with pytest.raises(GQSearchError, match=f"state norm is {norm}, not 1"):
                from_blocks(TargetSet((1,)), 4, averaging, start)
        blocks = [bad]
        with pytest.raises(GQSearchError, match=f"state norm is {norm}, not 1"):
            from_blocks(2, 4, blocks, blocks)
    for blocks in ([half[:3]], [half, half[:1]], []):
        with pytest.raises(GQSearchError, match="not n_items=4"):
            from_blocks(TargetSet((1,)), 4, None, blocks)


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
                      lambda: from_blocks(r, 40, None, _random_blocks(40, 3))):
            with pytest.raises(GQSearchError, match=rf"target count {r} outside \[1, 40\]"):
                build()


def test_target_counts_are_integers():
    # a count that is not an integer is refused, not truncated: a count of 2.5
    # once built an instance with r/N = 0.3125
    assert _rows(np.int64(3), 8) == (3, slice(0, 3))
    message = "bad target count: '.*' object cannot be interpreted as an integer"
    for bad in (2.5, 2.0, "3", None):
        for build in (lambda: _rows(bad, 8),
                      lambda: from_blocks(bad, 8, None, None)):
            with pytest.raises(GQSearchError, match=message):
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
            traj = np.asarray(success_trajectory(inst, 5))
            assert np.all((traj >= 0.0) & (traj <= 1.0)), (n_items, r, traj)
            for n in range(6):
                assert success_trajectory(inst, n)[-1] == traj[n], (n_items, r, n)


def test_nan_target_weight_is_not_clipped_to_one():
    # n = 0 takes no step, so no norm check runs: a stale NaN amplitude on
    # a target must come out as NaN, which min(1, nan) would hide as 1.0
    targets, u, _ = uniform_states(8, 1)
    u[0] = math.nan
    inst = full_products(targets, u, u)
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


def test_longest_walk_matches_mpmath():
    # simulate's cap, 2^19 steps at N = 2^20, r = 1, against the exact
    # p(n) = sin^2((2n + 1) asin(2^-10)) at every 997th n and the last;
    # the walk drifts 2.5e-13 there
    top = 2**19
    traj = success_trajectory(uniform_instance(2**20, 1), top)
    assert len(traj) == top + 1
    with mpmath.workdps(40):
        theta = mpmath.asin(mpmath.mpf(2) ** -10)
        for n in [*range(0, top, 997), top]:
            exact = mpmath.sin((2 * n + 1) * theta) ** 2
            assert abs(traj[n] - exact) <= 1e-12, (n, traj[n])


def test_success_trajectory_matches_pointwise_powers():
    # the walk's target weight against |amplitude|^2 summed over the
    # targets of the N-vector Q^n|s> rebuilt from the coefficients
    states = (TargetSet((3, 17)), uniform_state(32), random_state(32, 11))
    inst = held_instance(*states)
    traj = success_trajectory(inst, 10)
    assert len(traj) == 11
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
    traj = np.asarray(success_trajectory(held_instance(*states), 12))
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
    message = r"norm drifted to 10\.5830052442583\d* after 1 iterations"
    with pytest.raises(GQSearchError, match=message):
        reduced_amplitudes(*states, 3)
    with pytest.raises(GQSearchError, match=message):
        success_trajectory(full_products(*states), 3)
    with pytest.raises(GQSearchError, match=message):
        dense_evolution(*states, 3)


def test_evolution_rejects_nan_averaging():
    states = uniform_states(8, 1)
    states[1][5] = math.nan  # s = a: one array
    with pytest.raises(GQSearchError, match="norm drifted to nan after 1 iterations"):
        reduced_amplitudes(*states, 1)
    with pytest.raises(GQSearchError, match="norm drifted to nan after 1 iterations"):
        success_trajectory(full_products(*states), 1)
    with pytest.raises(GQSearchError, match="state norm is nan"):
        held_instance(*states)


def test_evolution_never_calls_the_closed_form(monkeypatch):
    # the simulator is the independent check of the closed form, so it may
    # take the problem types from gqsearch.analytic and nothing else: the
    # reducer and the walk run with every closed-form name failing, and the
    # simulator binds none of them as its own
    def boom(*args, **kwargs):
        raise AssertionError("the simulator called the closed form")

    closed_form = ("decompose", "success_prob_analytic", "uniform_success_prob",
                   "first_maximum", "rotation_angle", "Decomposition")
    assert not set(closed_form) & set(vars(gqsearch.statevector))
    for name in closed_form:
        monkeypatch.setattr(gqsearch.analytic, name, boom)
    targets, a, s = TargetSet((1, 9)), random_state(32, 40), random_state(32, 41)
    for states in ((a, s), (None, s), (a, None), (s, s)):
        assert len(success_trajectory(held_instance(targets, *states), 10)) == 11
    assert reduced_amplitudes(targets, a, s, 10).shape == (32,)
