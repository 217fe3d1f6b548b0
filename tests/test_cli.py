"""End-to-end tests of the command-line interface and its file formats."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqsearch
import gqsearch.cli
import gqsearch.strategy
from gqsearch import (
    TargetSet,
    decompose,
    expected_cost,
    from_blocks,
    rotation_angle,
    run_parallel,
    success_prob_analytic,
    success_trajectory,
    uniform_instance,
    uniform_success_prob,
)
import gqsearch.statevector as statevector_module
from gqsearch.cli import (
    HEATMAP_MAX_CELLS,
    MONTECARLO_COLUMNS,
    PLAN_COLUMNS,
    SIMULATE_COLUMNS,
    SIMULATE_MAX_ITERATIONS,
    SWEEP_COLUMNS,
    SWEEP_MAX_PLANS,
    default_heatmap_n_max,
    heatmap_grid,
    heatmap_to_pgm,
    main,
    sweep_rows,
)

from dense_reference import held_instance, random_state, uniform_state, write_state_file
from scan_reference import uniform_optimum, uniform_plan


def read_state_file(path, n_items: int) -> np.ndarray:
    """The amplitudes of the state file at path, parsed by the one state-file parser."""
    return np.concatenate(list(statevector_module._state_file(str(path), n_items)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_stdout_json(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--n-items", "16", "--num-targets", "1", "--iterations", "0..4",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "simulate"
    assert payload["num_targets"] == 1
    assert len(payload["rows"]) == 5
    dec = payload["decomposition"]
    assert abs(dec["v"] - 0.25) < 1e-12
    # for s = a the two phase conventions coincide: psi = phi
    assert abs(dec["psi"] - dec["phi"]) < 1e-9
    traj = success_trajectory(uniform_instance(16, 1), 4)
    for row in payload["rows"]:
        assert row["p_simulated"] == traj[row["n"]]
        assert abs(row["p_analytic"] - row["p_simulated"]) < 1e-10


def test_simulate_output_is_byte_identical(tmp_path):
    args = [
        "simulate", "--n-items", "32", "--targets", "3,9",
        "--start", "random:7", "--iterations", "0..12",
    ]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_simulate_csv_columns(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n-items", "8", "--num-targets", "2",
        "--iterations", "0..3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(SIMULATE_COLUMNS)
    assert len(lines) == 5


def test_simulate_reads_state_files(tmp_path, capsys):
    start = random_state(8, 3)
    path = tmp_path / "start.txt"
    write_state_file(str(path), start)
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n-items", "8", "--targets", "1",
        "--start", f"file:{path}", "--iterations", "0..5",
    )
    assert code == 0
    payload = json.loads(out)
    inst = held_instance(TargetSet((1,)), None, start)
    traj = success_trajectory(inst, 5)
    for row in payload["rows"]:
        assert row["p_simulated"] == traj[row["n"]]


def test_simulate_degenerate_full_target_set(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n-items", "4", "--targets", "0,1,2,3",
        "--iterations", "0..3",
    )
    assert code == 0
    payload = json.loads(out)
    dec = payload["decomposition"]
    assert dec["v"] == 1.0
    assert dec["beta"] == 0.0 and dec["psi"] == math.pi
    for row in payload["rows"]:
        assert row["p_simulated"] == 1.0
        assert abs(row["p_analytic"] - 1.0) < 1e-12


def test_simulate_never_prints_a_probability_past_one(capsys):
    # the raw target weight at n = 1 rounds to 1 + 7e-16 here
    code, out, err = run_cli(
        capsys,
        "simulate", "--n-items", "12", "--num-targets", "3", "--iterations", "0..3",
    )
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert rows[1]["p_simulated"] == 1.0
    assert '"p_simulated": 1.0,' in out
    assert all(0.0 <= row["p_simulated"] <= 1.0 for row in rows)


def test_montecarlo_and_simulate_share_one_p(capsys):
    # p_round is the closed form at the decomposition montecarlo planned
    # with, bit for bit, and the simulator agrees with it to 1e-12
    common = ["--n-items", "64", "--targets", "3,17,40", "--start", "random:7"]
    code, out, _ = run_cli(capsys, "simulate", *common, "--iterations", "0..12")
    assert code == 0
    simulated = [row["p_simulated"] for row in json.loads(out)["rows"]]
    dec = decompose(from_blocks(TargetSet((3, 17, 40)), 64, None,
                                statevector_module._random_blocks(64, 7)))
    code, out, _ = run_cli(capsys, "montecarlo", *common, "--trials", "10")
    assert code == 0
    default = json.loads(out)
    n = default["iterations"]
    assert default["p_round"] == success_prob_analytic(dec, n)
    assert abs(default["p_round"] - simulated[n]) <= 1e-12
    for n in range(1, 13):
        code, out, _ = run_cli(
            capsys, "montecarlo", *common, "--iterations", str(n), "--trials", "10",
        )
        assert code == 0
        p_round = json.loads(out)["p_round"]
        assert p_round == success_prob_analytic(dec, n), n
        assert abs(p_round - simulated[n]) <= 1e-12, n


def test_start_equal_to_averaging_reads_the_file_once(tmp_path, capsys, monkeypatch):
    # s = a = U|0>: one spec, one parse; a byte copy read twice gives the
    # same output
    first = tmp_path / "state.txt"
    write_state_file(str(first), random_state(64, 5))
    copy = tmp_path / "copy.txt"
    copy.write_bytes(first.read_bytes())
    reads = []
    parse = statevector_module._state_file  # the one state-file parser

    def counting_parse(path, n_items):
        reads.append(path)
        return parse(path, n_items)

    monkeypatch.setattr(statevector_module, "_state_file", counting_parse)
    for command in (
        ["simulate", "--iterations", "0..6"],
        ["montecarlo", "--iterations", "2", "--trials", "100"],
    ):
        argv = [*command, "--n-items", "64", "--targets", "3,17,40", "--format", "csv"]
        reads.clear()
        once = run_cli(capsys, *argv, "--start", f"file:{first}", "--averaging", f"file:{first}")
        assert reads == [str(first)]
        twice = run_cli(capsys, *argv, "--start", f"file:{first}", "--averaging", f"file:{copy}")
        assert len(reads) == 3
        assert once[0] == 0 and once == twice


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.txt"
    # a -0.0 part keeps its sign, the imaginary one too
    for state in (np.array([complex(-0.0, 0.6), complex(0.8, -0.0)]), random_state(12, 9)):
        write_state_file(str(path), state)
        back = read_state_file(path, state.size)
        assert np.array_equal(back.view(np.int64), state.view(np.int64))
    text = path.read_text().split("\n")
    assert text[0] == "12"
    assert len(text[1].split()) == 2


def test_state_file_errors(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--n-items", "8", "--targets", "1",
        "--start", f"file:{tmp_path / 'missing.txt'}",
    )
    assert code == 2 and err.startswith("error:")
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1.0 0.0\n")
    code, _, err = run_cli(
        capsys,
        "simulate", "--n-items", "3", "--targets", "1", "--start", f"file:{bad}",
    )
    assert code == 2 and err.startswith("error:")
    # dimension mismatch with --n-items
    good = tmp_path / "good.txt"
    write_state_file(str(good), random_state(4, 0))
    code, _, err = run_cli(
        capsys,
        "simulate", "--n-items", "8", "--targets", "1", "--start", f"file:{good}",
    )
    assert code == 2 and err.startswith("error:")


def test_state_file_parses_to_the_same_bits(tmp_path):
    # every token parses to exactly the double Python's float() gives it,
    # across the whole exponent range and in hand-written spellings too;
    # each amplitude is complex(re, im), so "-0.0" keeps its sign
    rng = np.random.default_rng(5)
    values = rng.standard_normal(400) * 10.0 ** rng.integers(-320, 1, 400)
    values[1:7] = 0.0
    values /= np.linalg.norm(values)
    tokens = [repr(float(v)) for v in values]
    tokens[1:7] = ["-0.0", "5e-324", "1E-30", "-2.5e-12", "0", ".123e-7"]
    path = tmp_path / "bits.txt"
    pairs = [f"{tokens[i]} {tokens[i + 1]}" for i in range(0, len(tokens), 2)]
    path.write_text("\n".join([str(len(pairs))] + pairs) + "\n")
    parsed = np.array([float(t) for t in tokens])
    expected = np.array([complex(re, im) for re, im in zip(parsed[0::2], parsed[1::2])])
    got = read_state_file(path, len(pairs))
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize(
    "text",
    ["", "\n", "2\n0.6 0\n0.8 zero\n", "two\n0.6 0\n0.8 0\n", "2\n0.6 0\n0.8\n",
     "2\n0.6 0\n0.8 0\n0 0\n", "2\n0.6\n0.8\n", "2\n0.6 0 0\n0.8 0 0\n",
     "2\n# amplitudes\n0.6 0\n0.8 0\n", "2\n", "2\nnan 0\n0.8 0\n",
     "2\n0.6 0\n0.8 0\u00e9\n", "2\n0.6\n0 0.8 0\n", "2 0.6 0\n0.8 0\n",
     "0_2\n0.6 0\n0.8 0\n", " 2 \n0.6 0\n0.8 0\n", "2\t\n0.6 0\n0.8 0\n",
     "\u0662\n0.6 0\n0.8 0\n", "0x2\n0.6 0\n0.8 0\n"],
    ids=["empty", "blank", "malformed-value", "malformed-count", "short", "long",
         "one-number-lines", "three-number-lines", "comment-line", "header-only",
         "nan", "non-ascii", "split-pair", "pair-on-header-line", "header-underscore",
         "header-blanks", "header-tab", "header-arabic-indic", "header-hex"],
)
def test_bad_state_files_exit_2(tmp_path, capsys, text):
    # one 're im' pair per line after the header, nothing else; the header
    # N reads [+-]?[0-9]+ in ASCII, as every integer flag does
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "simulate", "--n-items", "2", "--num-targets", "1", "--start", f"file:{bad}",
    )
    assert code == 2 and err.startswith("error:") and out == ""


def test_state_file_with_nan_is_refused(tmp_path, capsys):
    bad = tmp_path / "nan.txt"
    bad.write_text("4\n0.5 0\nnan 0\n0.5 0\n0.5 0\n")
    code, out, err = run_cli(
        capsys,
        "simulate", "--n-items", "4", "--num-targets", "1", "--start", f"file:{bad}",
    )
    assert code == 2 and err.startswith("error:") and out == ""


def test_state_file_dimension_is_checked_before_its_body(tmp_path, capsys, monkeypatch):
    # a header of 8 under --n-items 4 is refused before any body line is parsed
    bad = tmp_path / "bad.txt"
    bad.write_text("8\n0.5 0\nnot a pair\n")

    def no_body(*args, **kwargs):
        raise AssertionError("body parsed before the dimension check")

    monkeypatch.setattr(statevector_module.np, "loadtxt", no_body)  # the body parser
    code, out, err = run_cli(
        capsys, "simulate", "--n-items", "4", "--num-targets", "1", "--start", f"file:{bad}",
    )
    assert (code, out) == (2, "")
    assert err == "error: state file dimension 8 does not match --n-items 4\n"
    # the patch is live: under a matching N the body is parsed
    with pytest.raises(AssertionError, match="body parsed"):
        main(["simulate", "--n-items", "8", "--num-targets", "1", "--start", f"file:{bad}"])


def test_a_wrong_n_in_either_of_two_state_files_is_refused(tmp_path, capsys):
    # the start file's header is read after the averaging file's first block;
    # whichever of the two files names the wrong N, the run ends in exit 2
    good, wrong = tmp_path / "good.txt", tmp_path / "wrong.txt"
    write_state_file(str(good), random_state(4, 3))
    write_state_file(str(wrong), random_state(8, 3))
    for command in ("simulate", "montecarlo"):
        for averaging, start in ((good, wrong), (wrong, good)):
            code, out, err = run_cli(capsys, command, "--n-items", "4", "--num-targets", "1",
                                     "--averaging", f"file:{averaging}",
                                     "--start", f"file:{start}")
            assert (code, out) == (2, ""), (command, averaging.name)
            assert err == "error: state file dimension 8 does not match --n-items 4\n"


@pytest.mark.parametrize("spec", ["random:5", "file"])
def test_explicit_run_holds_one_vector(tmp_path, capsys, spec):
    # explicit states are reduced block by block as they are drawn or read,
    # so no N-vector is held: the peak does not grow with N, and a count of
    # N/2 targets builds no indices (a held state took 1.1-3.8 x 16N, and two
    # different explicit states, both held, 3.05 MiB at N = 2^16)
    path, other, small = tmp_path / "start.txt", tmp_path / "other.txt", tmp_path / "small.txt"
    write_state_file(str(small), random_state(4, 5))
    warm = spec if spec != "file" else f"file:{small}"
    common = ["simulate", "--iterations", "0..20", "--num-targets"]
    assert run_cli(capsys, *common, "3", "--start", warm, "--n-items", "4")[0] == 0  # imports
    one, two = 2**20, 1.5 * 2**20  # bounds for one explicit state and for two
    for n_items in (2**16, 2**17):
        state = spec
        if spec == "file":
            write_state_file(str(path), random_state(n_items, 5))
            state = f"file:{path}"
        write_state_file(str(other), random_state(n_items, 6))
        runs = [(3, ["--start", state], one),
                (3, ["--start", state, "--averaging", f"file:{other}"], two)]
        if n_items == 2**16:
            runs.append((n_items // 2, ["--start", state], one))
            if spec == "file":  # s = a
                runs.append((n_items // 2, ["--start", state, "--averaging", state], one))
        for count, flags, bound in runs:
            tracemalloc.start()
            try:
                code = main(common + [str(count), *flags, "--n-items", str(n_items)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and capsys.readouterr().err == ""
            assert peak < bound, (n_items, count, flags, f"peak {peak / 2**20:.2f} MiB")


def _cli_instance(monkeypatch, capsys, *argv) -> tuple:
    """The instance a simulate call steps, built from its flags."""
    built = _count_walks(monkeypatch)
    code, _, err = run_cli(capsys, "simulate", "--iterations", "0..1", *argv)
    assert (code, err) == (0, "")
    (instance,) = built
    return instance


def test_held_state_and_its_file_give_equal_instances(tmp_path, capsys, monkeypatch):
    # a file is reduced through the same blocks and formulas as the held
    # array written to it, so the instances are equal, bit for bit, for
    # a = u, s = u and s = a, with explicit targets across block edges and
    # with a count; the last block is partial
    n_items = 3 * statevector_module.BLOCK + 5
    state = random_state(n_items, 12)
    path = tmp_path / "state.txt"
    write_state_file(str(path), state)
    spec = f"file:{path}"
    explicit = (0, 5, 16383, 16384, 16385, 32768, 40000, n_items - 1)
    for flags, target_set in (
        (["--targets", ",".join(map(str, explicit))], TargetSet(explicit)),
        (["--num-targets", "16390"], 16390),
    ):
        for states, held in (
            (["--start", spec], (None, state)),
            (["--averaging", spec], (state, None)),
            (["--start", spec, "--averaging", spec], (state, state)),
        ):
            got = _cli_instance(monkeypatch, capsys, "--n-items", str(n_items), *flags, *states)
            assert got == held_instance(target_set, *held), (flags, states)
    # a count reduces the same rows as the list of its indices
    assert held_instance(16390, None, state) == held_instance(TargetSet(range(16390)), None, state)


def test_uniform_start_beside_a_file_prints_p0_r_over_n(tmp_path, capsys):
    # u's own products are r/N and 1 - r/N, not sums of the rounded 1/sqrt(N)
    path = tmp_path / "state.txt"
    write_state_file(str(path), random_state(100, 5))
    code, out, _ = run_cli(capsys, "simulate", "--n-items", "100", "--targets", "3,17,99",
                           "--averaging", f"file:{path}", "--iterations", "0")
    assert code == 0 and '"p_simulated": 0.03,' in out and '"p_analytic": 0.03\n' in out


def test_random_start_is_reduced_as_it_is_drawn(capsys, monkeypatch):
    # random:<seed> beside u never builds its state: the CLI's instance is
    # that of its drawn blocks, which agrees with the held random_state to rounding
    n_items = 3 * statevector_module.BLOCK + 5
    targets = (1, 16384, 40000)
    got = _cli_instance(monkeypatch, capsys, "--n-items", str(n_items),
                        "--targets", "1,16384,40000", "--start", "random:3")
    blocks = statevector_module._random_blocks(n_items, 3)
    assert got == from_blocks(TargetSet(targets), n_items, None, blocks)
    held = held_instance(TargetSet(targets), None, random_state(n_items, 3))
    dev = max(abs(complex(g) - complex(w)) for g, w in zip(got, held))
    assert dev <= 1e-14


def test_state_file_header_may_carry_a_sign_and_crlf(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_bytes(b"+4\r\n0.5 0\r\n0.5 0\r\n0.5 0\r\n0.5 0\r\n")
    plain = run_cli(capsys, "simulate", "--n-items", "4", "--num-targets", "1")
    code, out, err = run_cli(
        capsys, "simulate", "--n-items", "4", "--num-targets", "1", "--start", f"file:{good}",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["rows"] == json.loads(plain[1])["rows"]


def test_write_state_file_keeps_its_bytes(tmp_path):
    # the file is the line-per-amplitude form byte for byte: signed zeros,
    # subnormals and tiny parts keep their repr, and read back in blocks
    # to the same bits
    n_items = 3 * statevector_module.BLOCK + 5
    amps = random_state(n_items, 8)
    special = {7: complex(-0.0, 5e-324), 16384: complex(1e-300, -0.0), n_items - 1: -0.0}
    mass = sum(abs(amps[i]) ** 2 - abs(z) ** 2 for i, z in special.items())
    for i, z in special.items():
        amps[i] = z
    amps[0] = math.sqrt(abs(amps[0]) ** 2 + mass)
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-9
    path = tmp_path / "state.txt"
    write_state_file(str(path), amps)
    lines = [str(n_items)] + [f"{float(z.real)!r} {float(z.imag)!r}" for z in amps]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
    assert b"\n-0.0 5e-324\n" in path.read_bytes() and path.read_bytes().endswith(b"\n-0.0 0.0\n")
    back = read_state_file(path, n_items)
    assert np.array_equal(back.view(np.int64), amps.view(np.int64))


@pytest.mark.parametrize("fault, message", [
    ("bad-row", "is malformed in lines 16386-16388: could not convert string 'x'"),
    ("missing-row", "needs 16386 lines of 're im', got shape (1, 2) in lines 16386-16388"),
    ("extra-row", "needs 16386 lines of 're im', got shape (3, 2) in lines 16386-16388"),
    ("three-columns", "needs 16386 lines of 're im', got shape (2, 3) in lines 16386-16388"),
    ("non-ascii", "is malformed in lines 16386-16388: 'ascii' codec can't decode"),
])
def test_state_file_errors_past_the_first_block_name_their_lines(tmp_path, capsys, fault,
                                                                   message):
    # N = 2^14 + 2: the second block holds rows 16385-16386 (file lines
    # 16386-16387) and looks one row further, for data after row N
    n_items = statevector_module.BLOCK + 2
    row = f"{1 / math.sqrt(n_items)!r} 0.0\n"
    tail = {"bad-row": "x 0\n" + row, "missing-row": row, "extra-row": row * 3,
            "three-columns": "0 0 0\n0 0 0\n", "non-ascii": "0 0\u00e9\n" + row}[fault]
    path = tmp_path / "state.txt"
    path.write_text(f"{n_items}\n" + row * statevector_module.BLOCK + tail, encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", "--n-items", str(n_items), "--num-targets", "1",
                             "--iterations", "0..1", "--start", f"file:{path}")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: state file {str(path)!r} {message}"), err
    # trailing blank lines are no data
    path.write_text(f"{n_items}\n" + row * n_items + "\n\n", encoding="ascii")
    assert run_cli(capsys, "simulate", "--n-items", str(n_items), "--num-targets", "1",
                   "--iterations", "0..1", "--start", f"file:{path}")[0] == 0


def _count_walks(monkeypatch) -> list:
    """The instances of every walk of Q from here on."""
    built = []
    walk = statevector_module._walk

    def counting(instance, n):
        built.append(instance)
        return walk(instance, n)

    monkeypatch.setattr(statevector_module, "_walk", counting)
    return built


def test_montecarlo_never_steps_q(monkeypatch, capsys):
    # every evolution walks Q; montecarlo reads p(n) from the closed
    # form, for a uniform and for a general start
    built = _count_walks(monkeypatch)
    for start in ("uniform", "random:7"):
        code, _, _ = run_cli(
            capsys,
            "montecarlo", "--n-items", "64", "--num-targets", "1", "--start", start,
            "--trials", "50", "--seed", "1",
        )
        assert code == 0
    assert built == []
    # the simulator itself is still counted
    assert run_cli(capsys, "simulate", "--n-items", "64", "--num-targets", "1")[0] == 0
    assert len(built) == 1


@pytest.mark.parametrize("log2_n", [40, 60])
def test_montecarlo_p_round_matches_mpmath(monkeypatch, capsys, log2_n):
    # p(n) = sin^2((2n + 1) asin(sqrt(1/N))) at the default n; walking
    # 611,089 steps at N = 2^40 left p_round 6.9e-14 off.  The cost is the
    # one the planner minimised, bit for bit.
    built = _count_walks(monkeypatch)
    code, out, _ = run_cli(
        capsys,
        "montecarlo", "--n-items", str(2**log2_n), "--num-targets", "1", "--trials", "10",
    )
    assert code == 0 and built == []
    payload = json.loads(out)
    with mpmath.workdps(50):
        n = payload["iterations"]
        exact = mpmath.sin((2 * n + 1) * mpmath.asin(mpmath.sqrt(mpmath.mpf(2) ** -log2_n))) ** 2
        assert abs(payload["p_round"] - exact) <= 1e-15, (n, payload["p_round"])
    plan = uniform_plan(1, 2**log2_n, 1)
    assert (plan.n_int, plan.expected_cost) == (n, payload["closed_form_cost"])


def test_plan_and_montecarlo_keep_beta_at_r_one_below_n(capsys):
    # at N = 2^40, r = N - 1, <a_L|a_L> = 2^-40 is read as stored: beta^2 =
    # 2^-40 was dropped as degenerate, which put the cost at 1.0000000000009095
    n_items = 2**40
    flags = ["--n-items", str(n_items), "--num-targets", str(n_items - 1)]
    code, out, _ = run_cli(capsys, "plan", *flags, "--format", "csv")
    assert code == 0
    cost = float(dict(zip(*(line.split(",") for line in out.splitlines())))["par_num_cost"])
    code, out, _ = run_cli(capsys, "montecarlo", *flags, "--trials", "10")
    assert code == 0 and json.loads(out)["iterations"] == 1
    p_round = json.loads(out)["p_round"]
    with mpmath.workdps(50):
        p = mpmath.sin(3 * mpmath.asin(mpmath.sqrt(1 - mpmath.mpf(2) ** -40))) ** 2
        for got, exact in ((cost, 1 / p), (p_round, p)):
            assert abs(got - exact) <= 4 * math.ulp(float(exact)), (got, exact)


def test_random_start_is_deterministic(capsys):
    args = ("simulate", "--n-items", "16", "--targets", "2", "--start", "random:7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_random_start_seed_has_the_seed_rule(capsys, seed):
    # the --seed rule and wording, checked before numpy sees the seed
    code, out, err = run_cli(
        capsys, "simulate", "--n-items", "16", "--targets", "2", "--start", f"random:{seed}"
    )
    assert code == 2 and out == ""
    assert err == f"error: --start random:<seed> must lie in [0, 2^64), got {seed}\n"
    code, _, _ = run_cli(
        capsys, "simulate", "--n-items", "16", "--targets", "2", "--start", f"random:{2**64 - 1}"
    )
    assert code == 0


@pytest.mark.parametrize("seed", ["abc", ""])
def test_random_start_seed_must_be_an_integer(capsys, seed):
    code, out, err = run_cli(
        capsys, "simulate", "--n-items", "16", "--targets", "2", "--start", f"random:{seed}"
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad --start value 'random:{seed}': invalid literal")


@pytest.mark.parametrize("seed", ["-3", str(2**64)])
def test_verify_seed_has_the_seed_rule(capsys, seed):
    code, out, err = run_cli(capsys, "verify", "--seed", seed)
    assert code == 2 and out == ""
    assert err == f"error: --seed must lie in [0, 2^64), got {seed}\n"
    assert run_cli(capsys, "verify", "--seed", str(2**64 - 1))[0] == 0


def test_plan_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "plan", "--n-items", str(2**20), "--num-targets", "1", "--agents", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["punctuated"]["n_int"] == 597
    assert abs(payload["punctuated"]["speedup_ratio"] - 0.8786) < 1e-3
    assert payload["parallel_numeric"]["n_int"] == 289
    assert payload["parallel_closed_form"]["n_int"] == 290


@pytest.mark.parametrize("n_items, cost", [
    (1159, 23.489643204381068), (1813, 29.379973681431974), (1929, 30.3119877074051),
])
def test_plan_squares_the_punctuated_model_with_pow(capsys, n_items, cost):
    # sin(n phi) * sin(n phi) differs from libm's pow in the last bit here,
    # which moves the printed cost
    code, out, _ = run_cli(capsys, "plan", "--n-items", str(n_items), "--num-targets", "1")
    assert code == 0
    assert json.loads(out)["punctuated"]["expected_cost"] == cost


def test_plan_single_agent_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "plan", "--n-items", "4096", "--num-targets", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(PLAN_COLUMNS)
    cells = lines[1].split(",")
    # parallel columns are empty when agents = 1
    assert cells[-1] == "" and cells[-5] == ""


def test_plan_rejects_out_of_range_targets(capsys):
    code, _, err = run_cli(capsys, "plan", "--n-items", "16", "--targets", "20")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--num-targets", "0", "target count 0 outside [1, 16]", id="count-0"),
    pytest.param("--num-targets", "-3", "target count -3 outside [1, 16]", id="count-negative"),
    pytest.param("--num-targets", "17", "target count 17 outside [1, 16]", id="count-above-n"),
    pytest.param("--targets", "3,20", "target index 20 out of range for n_items=16",
                 id="index-above-n"),
    ("--targets", "3,3", "duplicate target indices"),
])
def test_plan_target_errors(capsys, flag, value, message):
    # plan, simulate and montecarlo share one target check, `_rows`, and its words
    for command in ("plan", "simulate", "montecarlo"):
        code, out, err = run_cli(capsys, command, "--n-items", "16", flag, value)
        assert code == 2 and out == "", command
        assert err == f"error: {message}\n", command


@pytest.mark.parametrize("argv", [
    ["plan"],
    ["simulate", "--iterations", "0..2"],
    ["simulate", "--iterations", "0..2", "--format", "csv"],
    ["montecarlo", "--trials", "10"],
    ["montecarlo", "--trials", "10", "--format", "csv"],
], ids=["plan", "simulate-json", "simulate-csv", "montecarlo-json", "montecarlo-csv"])
def test_target_count_builds_no_target_list(capsys, argv):
    # uniform runs need only r: a count of 10^6 targets allocates no indices
    tracemalloc.start()
    try:
        code = main(argv + ["--n-items", str(2**40), "--num-targets", str(10**6)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and len(out) < 10_000
    if "csv" not in argv:
        assert json.loads(out)["r" if argv[0] == "plan" else "num_targets"] == 10**6
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_target_count_echo_and_placement(capsys):
    # --num-targets R is echoed as given; its placement at 0..R-1 matters
    # only where a start vector is built, and gives the --targets bytes
    runs = {}
    for flag, value in (("--num-targets", "3"), ("--targets", "0,1,2")):
        for fmt in ("json", "csv"):
            code, runs[flag, fmt], _ = run_cli(
                capsys, "simulate", "--n-items", "64", flag, value,
                "--start", "random:7", "--format", fmt,
            )
            assert code == 0
    assert runs["--num-targets", "csv"] == runs["--targets", "csv"]
    by_count, by_list = runs["--num-targets", "json"], runs["--targets", "json"]
    assert json.loads(by_count)["num_targets"] == 3 and "targets" not in json.loads(by_count)
    assert json.loads(by_list)["targets"] == [0, 1, 2]
    # everything after the echo, decomposition and rows included, is the same bytes
    assert by_count.split('"start"', 1)[1] == by_list.split('"start"', 1)[1]


@pytest.mark.parametrize("agents", ["0", "-2"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_plan_rejects_agent_counts_below_one(capsys, agents, fmt):
    code, out, err = run_cli(
        capsys, "plan", "--n-items", "4096", "--num-targets", "1",
        "--agents", agents, "--format", fmt,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--agents" in err


def test_plan_outside_the_small_angle_regime(capsys):
    # r/N = 3/4: phi = 2 pi/3 lies outside the punctuated plan's model, while
    # the exact parallel plan holds for any phi (the CSV form is checked in
    # test_csv_cells_equal_the_json_values)
    code, out, err = run_cli(
        capsys, "plan", "--n-items", "64", "--num-targets", "48", "--agents", "2",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["punctuated"] is None
    assert payload["parallel_closed_form"] is None  # r/N > 0.01
    assert payload["parallel_numeric"]["n_int"] == 2
    assert abs(payload["parallel_numeric"]["expected_cost"] - 32.0 / 15.0) < 1e-12
    # r/N = 1/2 puts phi on pi/2 itself
    assert run_cli(capsys, "plan", "--n-items", "4", "--num-targets", "2")[0] == 0


def test_plan_without_a_closed_form_below_one_iteration(capsys):
    # r/N = 0.01 and k = 64: the closed-form optimum rounds to n = 0, so its
    # plan is null and its CSV cells empty, while the exact plan stands
    argv = ["plan", "--n-items", "100", "--num-targets", "1", "--agents", "64"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["parallel_closed_form"] is None
    assert payload["parallel_numeric"]["n_int"] >= 1
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert [row[c] for c in PLAN_COLUMNS if c.startswith("par_cf_")] == [""] * 5
    assert row["par_num_n"] == str(payload["parallel_numeric"]["n_int"])


@pytest.mark.parametrize(
    "n_items, r, n_int, cost", [(4, 2, 1, 2.0), (64, 48, 2, 8.0 / 3.0)]
)
def test_plan_one_agent_outside_the_small_angle_regime(capsys, n_items, r, n_int, cost):
    # with no punctuated plan, k = 1 still gets the exact restart plan
    argv = ["plan", "--n-items", str(n_items), "--num-targets", str(r)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["punctuated"] is None and payload["parallel_closed_form"] is None
    assert payload["parallel_numeric"]["agents"] == 1
    assert payload["parallel_numeric"]["n_int"] == n_int
    assert abs(payload["parallel_numeric"]["expected_cost"] - cost) < 1e-12
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert row["punct_n_int"] == "" and row["par_cf_n_int"] == ""
    assert row["par_num_n"] == str(n_int)
    assert abs(float(row["par_num_cost"]) - cost) < 1e-12


def test_plan_refuses_a_hopeless_scan_before_scanning(monkeypatch, capsys):
    # N = 10^100, k = 2: the optimum lies near n = 5.5e49, past 2^53, and the
    # planner finds that from its walk, not from a scan of n
    points = _count_points(monkeypatch)
    code, out, err = run_cli(
        capsys, "plan", "--n-items", str(10**100), "--num-targets", "1", "--agents", "2"
    )
    assert (code, out) == (2, "")
    assert err == "error: no optimum of n / P_k(n) found up to n = 9007199254740992\n"
    assert len(points) <= 1


def _count_points(monkeypatch):
    """The n the planner computes p(n) at, one entry per n."""
    points = []

    def counted(dec, n):
        points.append(n)
        return success_prob_analytic(dec, n)

    monkeypatch.setattr(gqsearch.strategy, "success_prob_analytic", counted)
    return points


def test_plan_past_the_limit_fails_without_walking_to_it(monkeypatch, capsys):
    # N = 10^36, k = 3: the optimum lies near n = 4.5e17, past 2^53, where a
    # float no longer holds n exactly
    points = _count_points(monkeypatch)
    code, out, err = run_cli(
        capsys, "plan", "--n-items", str(10**36), "--num-targets", "1", "--agents", "3"
    )
    assert (code, out) == (2, "")
    assert err == "error: no optimum of n / P_k(n) found up to n = 9007199254740992\n"
    assert len(points) <= 1


@pytest.mark.parametrize("command, n_items, k", [
    ("plan", 18447869990796263424, 2),
    ("plan", 2**76, 2),
    ("montecarlo", 41834457918917713795234172973875200, 10**8),
], ids=["plan-1.8e19", "plan-2^76", "montecarlo-10^8-agents"])
def test_plans_past_n_2_30_are_within_one_of_mpmath(monkeypatch, capsys, command, n_items, k):
    # optima past n = 2^30, which a scan of every n cannot reach in a call
    points = _count_points(monkeypatch)
    t0 = time.perf_counter()
    argv = [command, "--n-items", str(n_items), "--num-targets", "1", "--agents", str(k)]
    code, out, err = run_cli(capsys, *argv, *(["--trials", "10"] if command == "montecarlo" else []))
    assert (code, err) == (0, "")
    assert time.perf_counter() - t0 < 1.0
    payload = json.loads(out)
    n = payload["parallel_numeric"]["n_int"] if command == "plan" else payload["iterations"]
    assert n > 2**30 and len(points) <= 4
    assert abs(n - uniform_optimum(1, n_items, k, n)) <= 1
    if command == "montecarlo":
        assert abs(payload["z"]) < 3.0


def test_montecarlo_refuses_a_start_with_no_success_at_once(tmp_path, capsys):
    # v rounds to 1, so phi = pi and p(n) is p(0) = 0 at every integer; the
    # planner folds phi to 0 and refuses before costing any n, where a scan
    # of every n to 2^30 takes about a minute
    averaging, start = tmp_path / "averaging.txt", tmp_path / "start.txt"
    write_state_file(str(averaging), [1.0, 1e-9, 0.0, 0.0])
    write_state_file(str(start), [0.0, 1.0, 0.0, 0.0])
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "montecarlo", "--n-items", "4", "--targets", "0", "--trials", "10",
        "--averaging", f"file:{averaging}", "--start", f"file:{start}",
    )
    assert (code, out, err) == (2, "", "error: success probability is 0 for every n\n")
    assert time.perf_counter() - t0 < 1.0


def test_uniform_runs_at_huge_n(capsys):
    # a uniform instance is six numbers: N = 2^30 needs no 16 GiB vector
    code, out, err = run_cli(
        capsys, "simulate", "--n-items", str(2**30), "--num-targets", "1"
    )
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert all(abs(row["p_simulated"] - row["p_analytic"]) < 1e-10 for row in rows)
    # N = 10^20: an optimum past n = 2^30, within 1 of the 60-digit 5,827,805,925
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "montecarlo", "--n-items", str(10**20), "--num-targets", "1"
    )
    assert code == 0 and err == ""
    assert time.perf_counter() - t0 < 1.0
    n = json.loads(out)["iterations"]
    assert n == 5_827_805_926 and abs(n - uniform_optimum(1, 10**20, 1, n)) <= 1


def test_heatmap_trivial_cells():
    grid = np.asarray(heatmap_grid(64, 3))
    np.testing.assert_allclose(grid[0], np.arange(1, 65) / 64.0, atol=1e-12)
    # r = 16 gives v = 1/2: one iteration reaches probability 1 exactly
    assert abs(grid[1, 15] - 1.0) < 1e-12
    assert np.all(grid[:, 63] == 1.0)


def test_heatmap_columns_periodic_in_n():
    for r in (1, 5, 9):
        v = math.sqrt(r / 64.0)
        period = math.pi / rotation_angle(v)
        for n in (0.0, 1.7, 5.0):
            assert abs(uniform_success_prob(v, n + period) - uniform_success_prob(v, n)) < 1e-12


def test_heatmap_default_depth(capsys):
    assert default_heatmap_n_max(64) == 14
    code, out, _ = run_cli(capsys, "heatmap")
    payload = json.loads(out)
    assert code == 0
    assert payload["n_max"] == 14
    assert len(payload["grid"]) == 15
    assert len(payload["grid"][0]) == 64


def test_heatmap_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "heatmap", "--n-items", "8", "--iterations", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n," + ",".join(f"r={r}" for r in range(1, 9))
    assert len(lines) == 5


def test_heatmap_pgm_bytes(tmp_path):
    out = tmp_path / "map.pgm"
    assert main(
        ["heatmap", "--n-items", "8", "--iterations", "3",
         "--format", "pgm", "--out", str(out)]
    ) == 0
    data = out.read_bytes()
    assert data.startswith(b"P5\n8 4\n255\n")
    payload = data[len(b"P5\n8 4\n255\n"):]
    grid = np.asarray(heatmap_grid(8, 3))
    assert payload == heatmap_to_pgm(grid)[len(b"P5\n8 4\n255\n"):]
    assert payload == np.rint(grid * 255.0).astype(np.uint8).tobytes()
    # full-probability column renders white
    assert payload[7] == 255


def test_heatmap_pgm_pixels_round_as_numpy_rint():
    halves = [(k + 0.5) / 255.0 for k in range(255)]
    # exact half steps, where only the tie rule decides the pixel
    assert sum((p * 255.0) % 1.0 == 0.5 for p in halves) > 100
    edges = [-0.0, 0.0, -1.0, 2.0, 1.0, 5e-324, math.nextafter(1.0, 2.0), -math.inf, math.inf]
    grid = [halves, edges + [k / 255.0 for k in range(255 - len(edges))],
            np.random.default_rng(5).uniform(-0.1, 1.1, 255).tolist()]
    pixels = np.rint(np.clip(np.array(grid), 0.0, 1.0) * 255.0).astype(np.uint8)
    assert heatmap_to_pgm(grid) == b"P5\n255 3\n255\n" + pixels.tobytes()


@pytest.mark.parametrize("n_items", ["0", "-3"])
def test_heatmap_rejects_n_items_below_one(capsys, n_items):
    code, out, err = run_cli(capsys, "heatmap", "--n-items", n_items)
    assert code == 2 and out == ""
    assert err == f"error: n_items must be >= 1, got {n_items}\n"


@pytest.mark.parametrize("argv", [
    ["--n-items", "1048576"],
    ["--n-items", "4", "--iterations", "100000000"],
])
def test_heatmap_refuses_an_oversize_grid_before_allocating_it(capsys, argv):
    # 1,611 x 2^20 and 10^8 x 4 cells: 13.5 GB and 3.2 GB as floats
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "heatmap", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == "" and "exceeds" in err
    assert peak < 4 * 2**20


_AGENTS_PAST_2_53 = f"error: --agents must be <= 2^53, got {10**400}\n"


@pytest.mark.parametrize("argv, err", [
    (["heatmap", "--n-items", str(10**400)], "error: r/N = 1/N underflows to 0.0 in float64\n"),
    (["heatmap", "--n-items", str(2**1024)],
     f"error: heatmap of {default_heatmap_n_max(2**1024) + 1} x {2**1024} cells exceeds "
     f"{HEATMAP_MAX_CELLS}\n"),
    (["plan", "--n-items", "64", "--num-targets", "1", "--agents", str(10**400)],
     _AGENTS_PAST_2_53),
    (["montecarlo", "--n-items", "64", "--num-targets", "1", "--agents", str(10**400)],
     _AGENTS_PAST_2_53),
    (["parallel-sweep", "--n-items", "64", "--num-targets", "1", "--agents", str(10**400)],
     _AGENTS_PAST_2_53),
    # 1/sqrt(N) beside u, and a target row past numpy's int64
    (["simulate", "--n-items", str(2**1024), "--num-targets", "1", "--start", "random:0"],
     f"error: an explicit state holds at most 2^63 amplitudes, got n_items={2**1024}\n"),
    (["simulate", "--n-items", str(2**70), "--targets", str(2**65), "--start", "random:0"],
     f"error: an explicit state holds at most 2^63 amplitudes, got n_items={2**70}\n"),
], ids=["heatmap-10^400", "heatmap-2^1024", "plan", "montecarlo", "parallel-sweep",
        "random-2^1024", "target-2^65"])
def test_integers_past_float_range_are_refused(capsys, argv, err):
    # all but parallel-sweep once ended in an OverflowError traceback with exit
    # code 1; parallel-sweep refused its plan count instead
    assert run_cli(capsys, *argv) == (2, "", err)


def test_heatmap_grid_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        heatmap_grid(4, -1)


def test_heatmap_grid_cap_is_inclusive():
    assert np.asarray(heatmap_grid(4, HEATMAP_MAX_CELLS // 4 - 1)).shape == (HEATMAP_MAX_CELLS // 4, 4)
    with pytest.raises(ValueError, match="exceeds"):
        heatmap_grid(4, HEATMAP_MAX_CELLS // 4)


@pytest.mark.parametrize("n_items", [1, 2, 3, 64])
def test_heatmap_grid_is_the_closed_form_per_cell(n_items):
    n_max = default_heatmap_n_max(n_items)
    want = [[repr(uniform_success_prob(math.sqrt(r / n_items), n)) for r in range(1, n_items + 1)]
            for n in range(n_max + 1)]
    assert [list(map(repr, row)) for row in heatmap_grid(n_items, n_max)] == want


@pytest.mark.parametrize("n_items", [1, 2, 64, 4096])
def test_heatmap_columns_rotate_by_the_uniform_decomposition_angle(monkeypatch, n_items):
    # each column's phi, written inline, is the uniform start's decompose(...).phi
    want = [decompose(uniform_instance(n_items, r)).phi for r in range(1, n_items + 1)]
    phis = []

    def recorded(v):
        phis.append(rotation_angle(v))
        return phis[-1]

    monkeypatch.setattr(gqsearch.analytic, "rotation_angle", recorded)
    heatmap_grid(n_items, 0)
    assert phis == want


def test_heatmap_pgm_requires_out(capsys):
    code, _, err = run_cli(capsys, "heatmap", "--format", "pgm")
    assert code == 2 and err.startswith("error:")


def test_parallel_sweep_orderings(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(
        ["parallel-sweep", "--n-items", str(2**16), "--num-targets", "3",
         "--agents", "8", "--format", "csv", "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 8
    by_rk = {(int(c[0]), int(c[1])): c for c in rows}
    for r in (1, 2, 3):
        # formula columns are empty at k = 1
        assert by_rk[(r, 1)][3] == "" and by_rk[(r, 1)][5] == ""
        assert by_rk[(r, 2)][3] != ""
        # n_numeric never increases with k
        ns = [int(by_rk[(r, k)][2]) for k in range(1, 9)]
        assert all(a >= b for a, b in zip(ns, ns[1:]))
    for k in range(1, 9):
        # more targets always shorten the optimal run
        ns = [int(by_rk[(r, k)][2]) for r in (1, 2, 3)]
        assert ns[0] > ns[1] > ns[2]


def test_sweep_rows_structure():
    # each row is its values in column order, r-major
    values = sweep_rows(2**16, 2, 3)
    assert len(values) == 6
    assert all(len(row) == len(SWEEP_COLUMNS) for row in values)
    rows = [dict(zip(SWEEP_COLUMNS, row)) for row in values]
    assert [(row["r"], row["k"]) for row in rows] == [(r, k) for r in (1, 2) for k in (1, 2, 3)]
    k1 = [row for row in rows if row["k"] == 1]
    assert all(row["n_formula"] is None for row in k1)
    k3 = [row for row in rows if row["k"] == 3]
    assert all(isinstance(row["cost_formula"], float) for row in k3)


def test_montecarlo_born_model(tmp_path, capsys):
    # one agent is the k = 1 coin race, with p the closed-form Born target
    # weight of Q^n|s>
    args = [
        "montecarlo", "--n-items", "16", "--num-targets", "1",
        "--iterations", "3", "--trials", "2000", "--seed", "11",
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    p = success_prob_analytic(decompose(uniform_instance(16, 1)), 3)
    assert payload["p_round"] == p
    est = run_parallel(p, 3, 1, 2000, 11)
    assert (payload["mean"], payload["stderr"]) == (est.mean, est.stderr)
    assert abs(payload["closed_form_cost"] - expected_cost(3, p)) < 1e-12
    assert abs(payload["mean"] - payload["closed_form_cost"]) < 4 * payload["stderr"]
    assert payload["agent_time_mean"] == payload["mean"]
    f1, f2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_montecarlo_coin_model(capsys):
    code, out, _ = run_cli(
        capsys,
        "montecarlo", "--n-items", "16", "--num-targets", "1",
        "--iterations", "3", "--agents", "4", "--trials", "3000",
        "--seed", "11", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(MONTECARLO_COLUMNS)
    cells = dict(zip(MONTECARLO_COLUMNS, lines[1].split(",")))
    p = success_prob_analytic(decompose(uniform_instance(16, 1)), 3)
    assert float(cells["p_round"]) == p
    assert float(cells["mean"]) == run_parallel(p, 3, 4, 3000, 11).mean
    assert float(cells["agent_time_mean"]) == 4.0 * float(cells["mean"])


def test_montecarlo_default_iterations_is_punctuated_optimum(capsys):
    code, out, _ = run_cli(
        capsys,
        "montecarlo", "--n-items", "256", "--num-targets", "1", "--trials", "50",
    )
    assert code == 0
    payload = json.loads(out)
    phi = rotation_angle(math.sqrt(1.0 / 256.0))
    assert payload["iterations"] == max(1, round(2.331122370414423 / (2.0 * phi)))


def test_montecarlo_default_iterations_plans_for_the_agents(capsys):
    # N = 2^20, r = 1: n / P_k(n) is least at 412 for two agents and 203
    # for eight, where the one-agent n = 596 costs 610.8 and 596.0
    for agents, n, cost in (("1", 596, 705.99), ("2", 412, 535.17), ("8", 203, 279.20)):
        code, out, _ = run_cli(
            capsys,
            "montecarlo", "--n-items", str(2**20), "--num-targets", "1",
            "--agents", agents, "--trials", "50",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] == n and abs(payload["closed_form_cost"] - cost) < 0.01


def test_plan_and_montecarlo_run_the_same_uniform_optimum(capsys):
    # both commands plan the uniform start from decompose(uniform_instance(N,
    # r)); here the last bits of its coordinates decide the optimum of n /
    # P_2(n), which 50-digit arithmetic puts at 52,694,970
    argv = ["--n-items", "51142570298678136", "--num-targets", "3", "--agents", "2"]
    code, out, _ = run_cli(capsys, "plan", *argv, "--format", "csv")
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    code, out, _ = run_cli(capsys, "montecarlo", *argv, "--trials", "1")
    assert code == 0
    assert int(row["par_num_n"]) == json.loads(out)["iterations"] == 52_694_970


def test_montecarlo_default_iterations_for_a_general_start(capsys):
    # the uniform-start formula would pick n = 22, at 37,440 iterations per
    # success; one iteration costs 2,188
    code, out, _ = run_cli(
        capsys,
        "montecarlo", "--n-items", "4096", "--targets", "3,17,40",
        "--start", "random:7", "--trials", "50", "--seed", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["iterations"] == 1
    assert round(payload["closed_form_cost"]) == 2188


def test_montecarlo_start_that_never_succeeds(tmp_path, capsys):
    # orthogonal to the target and to the averaging state: p(n) = 0 for
    # every n, so there is no default n to choose
    path = tmp_path / "dark.txt"
    write_state_file(str(path), np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0))
    code, out, err = run_cli(
        capsys,
        "montecarlo", "--n-items", "4", "--targets", "0", "--start", f"file:{path}",
        "--trials", "10",
    )
    assert code == 2 and err.startswith("error:") and out == ""


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("--trials", "0", "--trials must lie in [1, 2^32], got 0"),
        ("--trials", "5000000000", "--trials must lie in [1, 2^32], got 5000000000"),
        ("--agents", "0", "--agents must be >= 1, got 0"),
        ("--agents", str(2**53 + 1), f"--agents must be <= 2^53, got {2**53 + 1}"),
        ("--agents", str(10**400), f"--agents must be <= 2^53, got {10**400}"),
        ("--seed", "-1", "--seed must lie in [0, 2^64), got -1"),
        ("--seed", str(2**64), f"--seed must lie in [0, 2^64), got {2**64}"),
    ],
)
def test_montecarlo_checks_its_options_before_stepping_q(monkeypatch, capsys, option, value,
                                                         message):
    # each option is refused before the instance is built
    def never(*args):
        raise AssertionError("called before the options were checked")

    monkeypatch.setattr(gqsearch.cli, "_build_instance", never)
    code, out, err = run_cli(
        capsys,
        "montecarlo", "--n-items", "64", "--num-targets", "1", "--iterations", "1000000",
        option, value,
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("n", [0, 2**53 + 1, 10**400], ids=["0", "2^53+1", "10^400"])
def test_montecarlo_refuses_iterations_outside_float_range(monkeypatch, capsys, n):
    # past 2^53 the closed form's float n rounds (2^53 + 1 read p at 2^53),
    # and 10^400 overflowed the float conversion with a traceback
    def never(*args):
        raise AssertionError("called before --iterations was checked")

    monkeypatch.setattr(gqsearch.cli, "_build_instance", never)
    code, out, err = run_cli(
        capsys, "montecarlo", "--n-items", "64", "--num-targets", "1", "--iterations", str(n),
    )
    assert (code, out) == (2, "")
    assert err == f"error: --iterations must lie in [1, 2^53] for montecarlo, got {n}\n"


# n = 16,733,330 at N = 64 is the last n with n*phi <= 2^22
@pytest.mark.parametrize("log2_n_items,n", [(6, 16_733_330), (110, 2**53)])
def test_montecarlo_answers_at_any_iteration_count(monkeypatch, capsys, log2_n_items, n):
    # the closed form answers at once, without a step of Q, up to n = 2^53
    # itself, within 2^-30 of the exact p(n)
    built = _count_walks(monkeypatch)
    code, out, err = run_cli(
        capsys,
        "montecarlo", "--n-items", str(2**log2_n_items), "--num-targets", "1",
        "--iterations", str(n), "--trials", "100",
    )
    assert code == 0 and err == "" and built == []
    payload = json.loads(out)
    dec = decompose(uniform_instance(2**log2_n_items, 1))
    assert payload["iterations"] == n
    assert payload["p_round"] == success_prob_analytic(dec, n)
    with mpmath.workdps(60):
        v = mpmath.sqrt(mpmath.mpf(2) ** -log2_n_items)
        exact = mpmath.sin((2 * n + 1) * mpmath.asin(v)) ** 2
        assert abs(payload["p_round"] - exact) <= 2.0**-30


@pytest.mark.parametrize("n", [16_733_331, 10**11, 2**53])
def test_montecarlo_refuses_a_phase_past_float_accuracy(capsys, n):
    # the float phase 2 n phi - theta put p_round 2.9e-8 off at n = 10^11
    # and 0.033 off at 2^53
    code, out, err = run_cli(
        capsys, "montecarlo", "--n-items", "64", "--num-targets", "1", "--iterations", str(n),
    )
    assert (code, out) == (2, "")
    assert err == (f"error: --iterations {n} has n*phi > 2^22, "
                   "where p(n) may be off by over 2^-30\n")


def test_montecarlo_accepts_the_ends_of_its_counter_range(capsys):
    code, out, err = run_cli(
        capsys,
        "montecarlo", "--n-items", "64", "--num-targets", "1", "--trials", "1",
        "--seed", str(2**64 - 1),
    )
    assert code == 0 and err == ""
    assert json.loads(out)["stderr"] == 0.0


@pytest.mark.parametrize("agents", ["1", "2"])
@pytest.mark.parametrize("n_items,r", [(12, 3), (48, 12), (3, 3)])
def test_montecarlo_target_weight_rounding_past_one(capsys, n_items, r, agents):
    # the simulated target weight at the default n rounded to 1 + 7e-16
    # here, which the coin race refused
    code, out, err = run_cli(
        capsys,
        "montecarlo", "--n-items", str(n_items), "--num-targets", str(r),
        "--agents", agents, "--trials", "100",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["p_round"] <= 1.0


def test_montecarlo_tiny_target_weight_hits_the_round_cap(tmp_path, capsys):
    # v = 0, so p(n) = 3.3e-301 at every n: trials need ~3e300 rounds, far
    # past the cap, and their counts overflow int64
    start, off = tmp_path / "start.txt", tmp_path / "off.txt"
    write_state_file(str(start), np.array([1e-150, 1.0, 1.0, 1.0]) / math.sqrt(3.0))
    write_state_file(str(off), np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3.0))
    for agents in ("2", "1"):
        code, out, err = run_cli(
            capsys,
            "montecarlo", "--n-items", "4", "--targets", "0", "--start", f"file:{start}",
            "--averaging", f"file:{off}", "--iterations", "1", "--agents", agents,
            "--trials", "10",
        )
        assert code == 2 and out == "" and "cap" in err


def test_montecarlo_default_iterations_when_p_is_flat(tmp_path, capsys):
    # v = 1 (every item a target) and v = 0 (an averaging state off the
    # target): p(n) does not depend on n, so the default n is 1
    dark = tmp_path / "dark.txt"
    write_state_file(str(dark), np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3.0))
    for argv in (
        ["--n-items", "16", "--num-targets", "16"],
        ["--n-items", "4", "--targets", "0", "--averaging", f"file:{dark}"],
    ):
        argv = ["montecarlo", *argv, "--trials", "100"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["iterations"] == 1
        assert run_cli(capsys, *argv, "--iterations", "1") == (0, out, "")


@pytest.mark.parametrize("bounds", [
    (100000, 100000), (1, 2**53), (SWEEP_MAX_PLANS + 1, 1), (2**7 + 1, 2**7),
])
def test_parallel_sweep_refuses_an_oversize_sweep_before_planning(capsys, monkeypatch, bounds):
    def no_plan(*args):
        raise AssertionError("planned before the size check")

    monkeypatch.setattr(gqsearch.strategy, "parallel_plan", no_plan)
    code, out, err = run_cli(
        capsys, "parallel-sweep", "--num-targets", str(bounds[0]), "--agents", str(bounds[1]),
    )
    assert (code, out) == (2, "")
    assert err == f"error: parallel-sweep of {bounds[0]} x {bounds[1]} plans exceeds {SWEEP_MAX_PLANS}\n"


@pytest.mark.parametrize("argv, message", [
    (["--n-items", "2"], "target count 5 outside [1, 2]"),
    (["--n-items", "64", "--num-targets", "65", "--agents", "1"], "target count 65 outside [1, 64]"),
    (["--n-items", "0", "--num-targets", "1"], "n_items must be >= 1, got 0"),
])
def test_parallel_sweep_checks_its_targets_before_planning(capsys, monkeypatch, argv, message):
    # R = 5 targets of N = 2 once planned r = 1 and 2 for all 64 k before it failed
    def no_plan(*args):
        raise AssertionError("planned before the target check")

    monkeypatch.setattr(gqsearch.strategy, "parallel_plan", no_plan)
    assert run_cli(capsys, "parallel-sweep", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, calls", [
    (["plan", "--n-items", "1048576", "--num-targets", "1", "--agents", "4"], 1),
    (["parallel-sweep", "--n-items", "1048576", "--num-targets", "2", "--agents", "3"], 2),
    (["montecarlo", "--n-items", "1048576", "--num-targets", "1", "--trials", "10"], 1),
], ids=["plan", "parallel-sweep", "montecarlo"])
def test_each_plan_decomposes_its_start_once(capsys, monkeypatch, argv, calls):
    # one decomposition per r, shared by the exact plan, the closed form's
    # exact cost and every k of a sweep; `decompose` builds one
    # Decomposition, counted at its __new__ under whatever name a module
    # imported the class
    build, seen = gqsearch.analytic.Decomposition.__new__, []

    def counted(cls, *args, **kwargs):
        seen.append(args)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(gqsearch.analytic.Decomposition, "__new__", counted)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(seen) == calls


def test_parallel_sweep_cap_is_inclusive(monkeypatch):
    # plans stubbed out: the cap itself is what is checked, not 2^14 real plans
    plan = dataclasses.make_dataclass("Plan", ["n_int", "expected_cost"])(1, 1.0)
    monkeypatch.setattr(gqsearch.cli, "_parallel_plans", lambda dec, r, n, k: (plan, None, None))
    assert len(sweep_rows(2**40, 2**7, 2**7)) == SWEEP_MAX_PLANS == 2**14


@pytest.mark.parametrize(
    "argv",
    [["plan"], ["plan", "--agents", "3"], ["montecarlo"], ["parallel-sweep", "--agents", "2"],
     ["simulate"]],
    ids=["plan", "plan-k3", "montecarlo", "parallel-sweep", "simulate"],
)
def test_r_over_n_underflow_never_succeeds(capsys, argv):
    # r/N = 1e-400 rounds to 0.0, which would give v = 0 and p(n) = 0 for
    # every n, though p(n) is not 0 there: refused where r/N is formed
    code, out, err = run_cli(capsys, *argv, "--n-items", str(10**400), "--num-targets", "1")
    assert code == 2 and out == ""
    assert err == "error: r/N = 1/N underflows to 0.0 in float64\n"


def test_parallel_sweep_with_every_item_a_target(capsys):
    code, out, err = run_cli(
        capsys, "parallel-sweep", "--n-items", "64", "--num-targets", "64", "--agents", "2",
    )
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    by_rk = {(row["r"], row["k"]): row for row in rows}
    assert len(rows) == 128
    assert by_rk[(48, 2)]["n_numeric"] == 2 and by_rk[(40, 2)]["n_numeric"] == 2
    assert by_rk[(64, 1)]["n_numeric"] == 1 and by_rk[(64, 1)]["cost_numeric"] == 1.0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_output_is_refused(monkeypatch, capsys, fmt):
    def cmd_nan(args):
        row = {"n": 1, "cost": float("nan")}
        return {"command": "plan", "rows": [row]}, ("n", "cost"), [row.values()]

    monkeypatch.setitem(gqsearch.cli._COMMANDS, "plan", cmd_nan)
    code, out, err = run_cli(
        capsys, "plan", "--n-items", "16", "--num-targets", "1", "--format", fmt
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_memory_error_exits_2(monkeypatch, capsys):
    def cmd_oom(args):
        raise MemoryError("Unable to allocate 6.7 GiB")

    monkeypatch.setitem(gqsearch.cli._COMMANDS, "plan", cmd_oom)
    code, out, err = run_cli(capsys, "plan", "--n-items", "16", "--num-targets", "1")
    assert code == 2 and out == "" and err.startswith("error:")
    assert "Traceback" not in err


def _env_with_package():
    """The environment with this gqsearch checkout first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(gqsearch.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_does_not_load_scipy():
    probe = "import sys, gqsearch.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_env_with_package(), capture_output=True,
        text=True, check=True,
    )
    assert result.stdout.strip() == "False"


# Runs `import gqsearch`, then main(argv) if argv is given, in a fresh
# interpreter; prints the exit code and whether numpy got loaded.
_NUMPY_PROBE = """
import contextlib, io, sys
import gqsearch
code = None
if sys.argv[1:]:
    from gqsearch.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, code, loads_numpy",
    [
        ([], None, False),
        (["plan", "--n-items", "1048576", "--num-targets", "1"], 0, False),
        (["heatmap", "--n-items", "8"], 0, False),
        (["heatmap", "--n-items", "8", "--format", "csv"], 0, False),
        (["heatmap", "--n-items", "8", "--format", "pgm", "--out", "OUT"], 0, False),
        (["--help"], 0, False),
        (["plan", "--n-items", "16", "--bogus"], 2, False),
        # a parallel plan costs a few candidates with the math module
        (["plan", "--n-items", "1048576", "--num-targets", "1", "--agents", "4"], 0, False),
        # the control: a simulation walks a vector
        (["simulate", "--n-items", "8", "--num-targets", "1"], 0, True),
    ],
    ids=["import", "plan", "heatmap-json", "heatmap-csv", "heatmap-pgm", "help", "bad-flag",
         "plan-agents-4", "simulate"],
)
def test_calls_that_build_no_vector_never_load_numpy(tmp_path, argv, code, loads_numpy):
    argv = [str(tmp_path / "map.pgm") if arg == "OUT" else arg for arg in argv]
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv], env=_env_with_package(),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == [str(code), str(loads_numpy)]


# Runs `import gqsearch.cli`, then main(argv) if argv is given, in a fresh
# interpreter; prints the exit code and the layers and numpy it loaded.
_LAYER_PROBE = """
import contextlib, io, sys
import gqsearch.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = gqsearch.cli.main(sys.argv[1:])
layers = ("analytic", "statevector", "strategy", "montecarlo")
print(code, *(name for name in layers if f"gqsearch.{name}" in sys.modules),
      *(["numpy"] if "numpy" in sys.modules else []))
"""


@pytest.mark.parametrize("argv, loaded", [
    ([], "None"),
    # planning and the figure data are scalar laws of r/N: no simulator
    (["plan", "--n-items", "1048576", "--num-targets", "1", "--agents", "1"],
     "0 analytic strategy"),
    (["plan", "--n-items", "64", "--num-targets", "1", "--agents", "4"],
     "0 analytic strategy"),
    (["parallel-sweep", "--n-items", "1099511627776", "--num-targets", "5", "--agents", "16"],
     "0 analytic strategy"),
    (["heatmap", "--n-items", "8"], "0 analytic"),
    # a refusal that needs no vector loads neither the simulator nor numpy
    (["simulate", "--n-items", str(10**400), "--num-targets", "1"], "2 analytic"),
    (["simulate", "--n-items", "64", "--num-targets", "65"], "2 analytic"),
    (["montecarlo", "--n-items", "64", "--num-targets", "1", "--agents", "0"],
     "2 analytic strategy"),
    # a uniform restart experiment takes its instance from r/N: no simulator
    (["montecarlo", "--n-items", "4096", "--num-targets", "1", "--trials", "100"],
     "0 analytic strategy montecarlo numpy"),
    # the controls: a simulation loads the simulator and the closed form, and
    # a restart experiment from an explicit state every layer
    (["simulate", "--n-items", "8", "--num-targets", "1"], "0 analytic statevector numpy"),
    (["montecarlo", "--n-items", "4096", "--num-targets", "1", "--start", "random:1",
      "--trials", "100"], "0 analytic statevector strategy montecarlo numpy"),
], ids=["import", "plan-k1", "plan-k4", "parallel-sweep", "heatmap", "simulate-underflow",
        "simulate-r-past-n", "montecarlo-no-agents", "montecarlo", "simulate",
        "montecarlo-random-start"])
def test_a_call_loads_only_the_layers_it_runs(argv, loaded):
    # loaded is the exit code (None: no call), then the layers and numpy
    result = subprocess.run(
        [sys.executable, "-c", _LAYER_PROBE, *argv], env=_env_with_package(),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == loaded.split()


def test_the_closed_form_and_the_planner_load_no_simulator():
    # imported, and run on the uniform start: the problem types, the closed
    # form and the planner never reach the simulator or numpy
    probe = """
import sys
import gqsearch.analytic as analytic, gqsearch.strategy as strategy
strategy.parallel_plan(analytic.decompose(analytic.uniform_instance(1 << 20, 1)), 4)
strategy.parallel_plan_closed_form(1, 1 << 20, 4)
print(*sorted(name for name in ("gqsearch.statevector", "numpy") if name in sys.modules))
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_env_with_package(),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "\n"


# Runs main on each argv of the JSON list in argv[1], in order, in one fresh
# interpreter; after each call prints the exit code and which of dataclasses,
# inspect, typing and numpy are loaded by then.
_START_UP_PROBE = """
import contextlib, io, json, sys
import gqsearch.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gqsearch.cli.main(argv)
    print(code, *(name for name in ("dataclasses", "inspect", "typing", "numpy")
                  if name in sys.modules))
"""


def test_no_call_loads_dataclasses_and_scalar_calls_load_no_typing():
    # under -S no site hook imports a module before the package does; numpy's
    # directory goes on the path by name, since -S leaves site-packages off it
    src = os.path.dirname(os.path.dirname(gqsearch.__file__))
    numpy_dir = os.path.dirname(os.path.dirname(np.__file__))
    calls = [
        ["plan", "--n-items", "1048576", "--num-targets", "1", "--agents", "4"],
        ["parallel-sweep", "--n-items", "1099511627776", "--num-targets", "5", "--agents", "16"],
        ["heatmap", "--n-items", "8"],
        ["simulate", "--n-items", "64", "--targets", "3,17,40", "--start", "random:7"],
        ["montecarlo", "--n-items", "4096", "--num-targets", "1", "--trials", "100"],
        ["montecarlo", "--n-items", "4096", "--targets", "3,17,40", "--start", "random:7",
         "--trials", "300", "--seed", "7"],
    ]
    result = subprocess.run(
        [sys.executable, "-S", "-c", _START_UP_PROBE, json.dumps(calls)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, numpy_dir])),
        capture_output=True, text=True, check=True,
    )
    lines = result.stdout.splitlines()
    assert lines[:3] == ["0", "0", "0"]  # plan, parallel-sweep, heatmap: none of the four
    assert len(lines) == len(calls)
    for line in lines[3:]:  # numpy itself loads inspect and typing, but not dataclasses
        assert line.split()[0] == "0" and "numpy" in line and "dataclasses" not in line


def test_every_public_name_resolves_on_first_use():
    probe = """
import sys
import gqsearch
names = {name: getattr(gqsearch, name) for name in gqsearch.__all__}
star = {}
exec("from gqsearch import *", star)
assert all(star[name] is value for name, value in names.items())
assert sorted(n for n in star if not n.startswith("__")) == sorted(gqsearch.__all__)
try:
    gqsearch.no_such_name
except AttributeError as exc:
    print(exc)
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_env_with_package(),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "module 'gqsearch' has no attribute 'no_such_name'\n"


def test_verify_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.strip().split("\n")
    check_lines = [line for line in lines if " = " in line]
    assert len(check_lines) >= 10
    assert all(line.endswith("PASS") for line in check_lines)
    assert any(line.startswith("optimal_x_single = ") for line in check_lines)
    assert lines[-1] == "all checks passed"


@pytest.mark.parametrize("seed", [0, 4242])
def test_verify_biham_lines_match_the_held_reference(capsys, seed):
    # verify takes each state from the random: stream and u in closed form;
    # its three Biham lines equal, byte for byte, those formed from the held
    # state, its mean and deviation over a target mask and a held u
    n_items, norm_dev, alpha_dev, beta_dev = 64, 0.0, 0.0, 0.0
    for i in range(20):
        r = (1, 4, 16)[i % 3]
        start = random_state(n_items, seed + i)
        mask = np.arange(n_items) < r
        k, l = start[mask], start[~mask]
        k_bar, l_bar = complex(k.mean()), complex(l.mean())
        sigma_k = float(math.sqrt(np.mean(np.abs(k - k_bar) ** 2)))
        sigma_l = float(math.sqrt(np.mean(np.abs(l - l_bar) ** 2)))
        total = (r * abs(k_bar) ** 2 + r * sigma_k**2
                 + (n_items - r) * abs(l_bar) ** 2 + (n_items - r) * sigma_l**2)
        norm_dev = max(norm_dev, abs(total - 1.0))
        dec = decompose(held_instance(TargetSet(range(r)), uniform_state(n_items), start))
        alpha_dev = max(alpha_dev, abs(dec.alpha - abs(k_bar) * math.sqrt(r)))
        beta_dev = max(beta_dev, abs(dec.beta - abs(l_bar) * math.sqrt(n_items - r)))
    devs = {"mean_amplitude_normalization_max_dev": norm_dev,
            "alpha_vs_mean_target_amplitude_max_dev": alpha_dev,
            "beta_vs_mean_other_amplitude_max_dev": beta_dev}
    want = [f"{name} = {dev:.10g} (expected 0 +/- 1e-10): PASS" for name, dev in devs.items()]
    code, out, _ = run_cli(capsys, "verify", "--seed", str(seed))
    assert code == 0
    assert [line for line in out.splitlines() if line.split(" = ")[0] in devs] == want


def test_verify_fails_when_the_simulator_breaks(monkeypatch, capsys):
    # a fault in one layer fails its check alone, and verify exits 1.  The
    # layer's own name is patched: cli imports it when the command runs.
    trajectory = statevector_module.success_trajectory
    monkeypatch.setattr(statevector_module, "success_trajectory",
                        lambda instance, n_max: [p + 1e-9 for p in trajectory(instance, n_max)])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    failed = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("grover_case_v_quarter_max_dev = ")
    assert out.splitlines()[-1] == "some checks FAILED"


def test_bad_flags_fail_cleanly(capsys):
    # library-level validation surfaces as exit code 2 on stderr
    code, _, err = run_cli(capsys, "simulate", "--n-items", "4", "--targets", "9")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(
        capsys, "simulate", "--n-items", "8", "--targets", "1", "--iterations", "5..2"
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(
        capsys, "simulate", "--n-items", "8", "--targets", "1", "--iterations=-3"
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(
        capsys,
        "montecarlo", "--n-items", "8", "--targets", "1",
        "--iterations", "2..5", "--trials", "10",
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(
        capsys, "simulate", "--n-items", "8", "--targets", "1", "--start", "bogus"
    )
    assert code == 2 and err.startswith("error:")
    # N is checked first, before any target and before r/N is formed
    for command in ("plan", "simulate", "montecarlo"):
        for n_items in ("0", "-4"):
            code, out, err = run_cli(capsys, command, "--n-items", n_items, "--num-targets", "1")
            assert code == 2 and out == "" and err.startswith("error: n_items must be >= 1")
    # argparse-level violations exit with SystemExit(2)
    with pytest.raises(SystemExit):
        main(["simulate", "--n-items", "8"])
    with pytest.raises(SystemExit):
        main(["simulate", "--n-items", "8", "--targets", "1", "--format", "pgm"])


def _exit_code_and_stderr(capsys, argv):
    """main's exit code and stderr, argparse's SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-items", "16", "--targets", "\u0663,1_0, 2"],
    ["simulate", "--n-items", "16", "--targets", "1, 2"],
    ["simulate", "--n-items", "1_6", "--num-targets", "1"],
    ["simulate", "--n-items", " 16", "--num-targets", "1"],
    ["simulate", "--n-items", "\u0661\u0666", "--num-targets", "1"],
    ["simulate", "--n-items", "16", "--num-targets", "1 "],
    ["simulate", "--n-items", "16", "--num-targets", "1", "--iterations", "0.. 3"],
    ["simulate", "--n-items", "16", "--num-targets", "1", "--start", "random:5_0"],
    ["plan", "--n-items", "16", "--num-targets", "1", "--agents", "\uff12"],
    ["parallel-sweep", "--num-targets", "1", "--agents", "0x2"],
    ["montecarlo", "--n-items", "16", "--num-targets", "1", "--trials", "1_000"],
    ["montecarlo", "--n-items", "16", "--num-targets", "1", "--seed", "\u0663"],
    ["verify", "--seed", "3\n"],
], ids=["targets-mixed", "targets-blank", "n-underscore", "n-blank", "n-arabic-indic",
        "count-blank", "iterations-blank", "seed-in-spec", "agents-fullwidth", "agents-hex",
        "trials-underscore", "seed-arabic-indic", "seed-newline"])
def test_integer_values_are_ascii_digits_only(capsys, argv):
    # every integer flag and list reads [+-]?[0-9]+ in ASCII, nothing else
    code, err = _exit_code_and_stderr(capsys, argv)
    assert code == 2 and "error:" in err, (argv, code, err)


def test_integer_values_may_carry_a_sign(capsys):
    plain = run_cli(capsys, "simulate", "--n-items", "16", "--num-targets", "1",
                    "--iterations", "0..2")
    signed = run_cli(capsys, "simulate", "--n-items", "+16", "--num-targets", "+1",
                     "--iterations", "+0..+2")
    assert plain[0] == 0 and signed == plain


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


# hostile --targets tokens: out of range, negative, empty, nan, non-ASCII
_HOSTILE_TOKENS = st.one_of(
    st.integers(-3, 70).map(str),
    st.sampled_from(["", "nan", "inf", "-0", "1e3", "0x10", " 2", "\u0663", "\u00e9", "9" * 40]),
    st.text(max_size=3),
)


# hostile values of the other integer flags, beside small valid ones: every
# valid value drawn here runs in milliseconds and builds little
_HOSTILE_INTS = st.sampled_from([-2**63, -1, 0, 2**63, 2**1024, 10**400, "", "1e3", "nan",
                                 "\u0663"])
_AGENTS = st.one_of(st.integers(1, 8), _HOSTILE_INTS)
_OTHER_FLAGS = {
    "plan": {"--agents": _AGENTS},
    "simulate": {"--iterations": st.one_of(
        st.tuples(st.integers(-2, 12), st.integers(-2, 12)).map(lambda ab: "%d..%d" % ab),
        st.integers(-2, 40).map(str),
        st.sampled_from([f"0..{SIMULATE_MAX_ITERATIONS + 1}", "..3", "1..", "2..1", "x"]),
    )},
    "montecarlo": {
        "--iterations": st.one_of(st.integers(-1, 64).map(str),
                                  st.sampled_from([str(2**53), str(2**53 + 1), "1..2", "x"])),
        "--agents": st.one_of(_AGENTS, st.just(2**63 - 1)),
        "--trials": st.one_of(st.integers(1, 64), st.sampled_from([-1, 0, 2**32 + 1, "x"])),
        "--seed": st.one_of(st.integers(0, 9), st.sampled_from([-1, 2**64 - 1, 2**64, "x"])),
    },
    "heatmap": {"--iterations": st.one_of(
        st.integers(-2, 64).map(str), st.sampled_from([str(2**21), str(2**63), "1..2", "x"]))},
    "parallel-sweep": {
        "--num-targets": st.one_of(st.integers(1, 4), _HOSTILE_INTS),
        "--agents": st.one_of(_AGENTS, st.just(SWEEP_MAX_PLANS + 1)),
    },
}


# --n-items at, below and above every power of two to 2^64, and far past it
_EDGE_N_ITEMS = sorted({1, 2, 3, 10**30} | {2**k + d for k in range(1, 65) for d in (-1, 0, 1)})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_target_flags_end_in_output_or_exit_2(data):
    # every flag ends within 2 s in finite JSON or CSV with exit 0, or in one
    # error line with exit 2, and never builds more than a small, bounded
    # amount.  The two planners also draw every edge size to 2^64 and 10^30;
    # the heatmap does not, as a valid grid under its cap builds up to 570 MiB
    command = data.draw(st.sampled_from(list(_OTHER_FLAGS)))
    planner = command in ("plan", "parallel-sweep")
    sizes = st.one_of(st.integers(1, 64), st.sampled_from([-1, 0, 2**1024, 10**400]))
    if planner:
        sizes = st.one_of(sizes, st.sampled_from(_EDGE_N_ITEMS))
    n_items = data.draw(sizes)
    fmt = data.draw(st.sampled_from(["json", "csv"])) if planner else "json"
    argv = [command, f"--n-items={n_items}", f"--format={fmt}"]
    targeted = command in ("plan", "simulate", "montecarlo")
    if targeted and data.draw(st.booleans()):
        hostile = [-2**63, -1, 0, 1, n_items, n_items + 1, 2**63]
        count = data.draw(st.one_of(st.sampled_from(hostile), st.integers(1, 64), st.integers()))
        argv.append(f"--num-targets={count}")
    elif targeted:
        # in-range indices, duplicates possible, and at times one hostile token
        index = st.integers(0, max(n_items, 1) - 1).map(str)
        tokens = data.draw(st.lists(index, min_size=1, max_size=6))
        if data.draw(st.booleans()):
            tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(_HOSTILE_TOKENS))
        argv.append("--targets=" + ",".join(tokens))
    if command in ("simulate", "montecarlo"):
        seeds = st.integers(-1, 2**64).map(lambda seed: f"random:{seed}")
        argv.append("--start=" + data.draw(st.one_of(st.just("uniform"), seeds)))
    for flag, values in _OTHER_FLAGS[command].items():
        # a flag left out keeps its default, which is small but for --trials (10^5)
        if flag == "--trials" or data.draw(st.booleans()):
            argv.append(f"{flag}={data.draw(values)}")
    began = time.perf_counter()
    code, out, err, peak = _run_contained(argv)
    took = time.perf_counter() - began
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    assert ("error:" in err) == (code == 2), (argv, err)
    if code != 0:
        assert out == ""
    elif fmt == "csv":
        for row in out.splitlines()[1:]:
            # an integer cell, N among them, may lie past float range
            assert all(not cell or cell.lstrip("-").isdigit() or math.isfinite(float(cell))
                       for cell in row.split(",")), (argv, row)
    else:
        json.loads(out, parse_constant=_reject_constant)
    assert peak < 4 * 2**20, (argv, f"peak {peak / 2**20:.1f} MiB")
    assert took < 2.0, (argv, f"{took:.2f} s")


def _run_contained(argv):
    """(exit code, stdout, stderr, tracemalloc peak) of main(argv), argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out.getvalue(), err.getvalue(), peak


# state-file faults, and whether the run must fail; a truncated file may
# still be a valid one (a last digit or the final newline cut off), and a
# near-unit one is within NORM_TOL of 1, so it is used, normalized
_STATE_FAULTS = {
    "none": False, "trailing-blank-lines": False, "truncated": None, "empty": True,
    "wrong-n": True, "nan": True, "inf": True, "non-ascii": True, "one-column": True,
    "three-columns": True, "missing-row": True, "extra-row": True, "near-unit": False,
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_state_files_end_in_output_or_exit_2(data):
    # every state file, on --start, on --averaging or on both (s = a), ends
    # in finite JSON with exit 0, or in one error line with exit 2 that
    # names the file (or is the dimension or the norm refusal)
    n_items = data.draw(st.integers(1, 8))
    fault = data.draw(st.sampled_from(sorted(_STATE_FAULTS)))
    amps = random_state(n_items, data.draw(st.integers(0, 2**32)))
    if fault == "near-unit":
        amps = amps * (1.0 - data.draw(st.floats(1e-12, 9e-10)))
    rows = [f"{float(z.real)!r} {float(z.imag)!r}" for z in amps]
    row = data.draw(st.integers(0, n_items - 1))
    header = str(n_items)
    if fault == "wrong-n":
        header = str(data.draw(st.sampled_from([0, n_items - 1, n_items + 1, 2 * n_items])))
    elif fault in ("nan", "inf"):
        rows[row] = f"{fault} {rows[row].split()[1]}"
    elif fault == "non-ascii":
        rows[row] += data.draw(st.sampled_from(["\u00e9", "\u0663", "\u00a0"]))
    elif fault == "one-column":
        rows[row] = rows[row].split()[0]
    elif fault == "three-columns":
        rows[row] += " 0.0"
    elif fault == "missing-row":
        del rows[row]
    elif fault == "extra-row":
        rows.insert(row, "0.0 0.0")
    text = "\n".join([header] + rows) + "\n"
    if fault == "trailing-blank-lines":
        text += "\n" * data.draw(st.integers(1, 3))
    elif fault == "truncated":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif fault == "empty":
        text = ""
    command = data.draw(st.sampled_from([
        ["simulate", "--iterations", "0..2"], ["montecarlo", "--trials", "10"]]))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "state.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        spec = f"file:{path}"
        states = data.draw(st.sampled_from([
            ["--start", spec], ["--averaging", spec], ["--start", spec, "--averaging", spec],
            ["--start", "random:3", "--averaging", spec]]))
        argv = [*command, f"--n-items={n_items}", "--num-targets=1", *states]
        code, out, err, peak = _run_contained(argv)
    assert code in (0, 2), (argv, text, code, err)
    assert "Traceback" not in err
    assert ("error:" in err) == (code == 2), (argv, err)
    if _STATE_FAULTS[fault] is not None:
        assert code == (2 if _STATE_FAULTS[fault] else 0), (fault, text, err)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and err.count("\n") == 1
        assert (f"state file {path!r}" in err or err.startswith("error: state norm is ")
                or err.startswith("error: state file dimension ")), (fault, err)
    assert peak < 4 * 2**20, (argv, f"peak {peak / 2**20:.1f} MiB")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_state_flags_end_in_output_or_exit_2(data):
    # every --n-items beside every --start and --averaging ends, within 2 s,
    # in finite JSON with exit 0 or in one error line with exit 2; the
    # random: bound is lowered to 2^12, so that every draw it lets through is
    # cheap and every larger N is refused before it draws
    n_items = data.draw(st.sampled_from(_EDGE_N_ITEMS))
    command = data.draw(st.sampled_from(["simulate", "montecarlo"]))
    argv = [command, f"--n-items={n_items}", f"--num-targets={data.draw(st.sampled_from([1, 3]))}"]
    if command == "montecarlo":
        argv.append(f"--trials={data.draw(st.integers(1, 20))}")
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch:
        patch.setattr(statevector_module, "_RANDOM_MAX_ITEMS", 2**12)
        path = os.path.join(work, "state.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("4\n0.5 0\n0.5 0\n0.5 0\n0.5 0\n")
        specs = st.sampled_from(["uniform", f"file:{path}"] + [
            f"random:{seed}" for seed in (0, 1, 2**64 - 1, 2**64)])
        for flag in ("--start", "--averaging"):
            if data.draw(st.booleans()):
                argv.append(f"{flag}={data.draw(specs)}")
        began = time.perf_counter()
        code, out, err, _ = _run_contained(argv)
        took = time.perf_counter() - began
    assert code in (0, 2), (argv, code, err)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert took < 2.0, (argv, f"{took:.2f} s")


@pytest.mark.parametrize("command", [["simulate", "--iterations", "0..1"],
                                     ["montecarlo", "--trials", "10"]])
def test_random_start_past_its_bound_exits_2_at_once(monkeypatch, capsys, command):
    # N = 2^40 drew for about 20 h before it was refused; a draw now fails the test
    class NoDraws:
        @staticmethod
        def default_rng(seed):
            raise AssertionError(f"drew from seed {seed}")

    monkeypatch.setattr(statevector_module.np, "random", NoDraws)
    began = time.perf_counter()
    code, out, err = run_cli(capsys, *command, "--n-items", str(2**40), "--num-targets", "1",
                             "--start", "random:1")
    assert time.perf_counter() - began < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: random:<seed> draws at most {statevector_module._RANDOM_MAX_ITEMS} "
                   f"amplitudes, got n_items={2**40}\n")


def test_near_unit_averaging_file_is_normalized(tmp_path, capsys):
    # a norm of 1 - 8e-10 passes the input check; used as given, Q was not
    # unitary and simulate exited 2 with "norm drifted to 0.9999999988444447"
    path = tmp_path / "near.txt"
    path.write_text("3\n" + f"{(1.0 - 8e-10) / math.sqrt(3.0)!r} 0.0\n" * 3)
    spec = f"file:{path}"
    flags = ["--n-items", "3", "--num-targets", "1"]
    for states in (["--averaging", spec], ["--averaging", spec, "--start", spec]):
        code, out, err = run_cli(capsys, "simulate", *flags, *states, "--iterations", "0..200")
        assert (code, err) == (0, ""), (states, err)
        rows = json.loads(out)["rows"]
        assert len(rows) == 201
        assert max(abs(row["p_simulated"] - row["p_analytic"]) for row in rows) <= 1e-12
        code, _, err = run_cli(capsys, "montecarlo", *flags, *states, "--trials", "10")
        assert (code, err) == (0, ""), (states, err)


def test_simulate_refuses_iterations_past_its_cap(capsys):
    # refused on the estimate: one row per n up to 10^11 ran without end
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys,
            "simulate", "--n-items", "4", "--num-targets", "1", "--iterations", "0..100000000000",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    top = SIMULATE_MAX_ITERATIONS
    assert err == f"error: --iterations must end at or below {top}, got 100000000000\n"
    assert peak < 4 * 2**20, peak
    code, _, err = run_cli(
        capsys, "simulate", "--n-items", "4", "--num-targets", "1", "--iterations", f"{top + 1}",
    )
    assert code == 2 and err.startswith("error: --iterations must end at or below")


def test_simulate_walks_up_to_its_cap(monkeypatch, capsys):
    # the largest n passes the guard; the walk itself is stubbed out
    class Walked(Exception):
        pass

    def walk(instance, n_max):
        raise Walked(n_max)

    monkeypatch.setattr(statevector_module, "success_trajectory", walk)
    top = SIMULATE_MAX_ITERATIONS
    with pytest.raises(Walked, match=f"^{top}$"):
        main(["simulate", "--n-items", "4", "--num-targets", "1", "--iterations", f"{top}"])


def test_simulate_small_case_pattern(capsys):
    # N=4, r=1: phi = pi/3, so p cycles 0.25, 1.0, 0.25, 0.25, ...
    code, out, err = run_cli(
        capsys,
        "simulate", "--n-items", "4", "--num-targets", "1", "--iterations", "0..3",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    for row, want in zip(rows, (0.25, 1.0, 0.25, 0.25)):
        assert abs(row["p_simulated"] - want) < 1e-12
        assert abs(row["p_analytic"] - want) < 1e-12


# ---------------------------------------------------------------------------
# one output layer: every CSV cell is the JSON value it flattens

# plan CSV column -> (JSON section, key); None is the top level
PLAN_JSON_PATHS = {
    "n_items": (None, "n_items"), "r": (None, "r"), "v": (None, "v"),
    "phi": (None, "phi"), "agents": (None, "agents"),
    "punct_n_opt": ("punctuated", "n_opt"),
    "punct_n_int": ("punctuated", "n_int"),
    "punct_expected_cost": ("punctuated", "expected_cost"),
    "punct_stddev_geometric": ("punctuated", "stddev_geometric"),
    "max_probability_cost": ("punctuated", "max_probability_cost"),
    "speedup_ratio": ("punctuated", "speedup_ratio"),
    "par_num_n": ("parallel_numeric", "n_int"),
    "par_num_cost": ("parallel_numeric", "expected_cost"),
    "par_cf_x": ("parallel_closed_form", "x"),
    "par_cf_n_opt": ("parallel_closed_form", "n_opt"),
    "par_cf_n_int": ("parallel_closed_form", "n_int"),
    "par_cf_cost": ("parallel_closed_form", "expected_cost"),
    "par_cf_cost_exact": ("parallel_closed_form", "cost_exact_at_n"),
}


def _json_value(payload, row, column):
    """The JSON value that CSV row `row`, column `column` flattens."""
    command = payload["command"]
    if command == "simulate":
        record = payload["rows"][row]
        return record[column] if column in record else payload["decomposition"][column]
    if command == "plan":
        assert row == 0
        section, key = PLAN_JSON_PATHS[column]
        values = payload if section is None else payload[section]
        return None if values is None else values[key]
    if command == "heatmap":
        return row if column == "n" else payload["grid"][row][int(column[2:]) - 1]
    if command == "parallel-sweep":
        return payload["rows"][row][column]
    assert command == "montecarlo" and row == 0
    if column == "r":
        return payload["num_targets"] if "num_targets" in payload else len(payload["targets"])
    return payload[column]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n-items", "32", "--targets", "3,9", "--start", "random:7",
         "--iterations", "0..6"],
        ["simulate", "--n-items", "4", "--targets", "0,1,2,3", "--iterations", "0..2"],
        ["plan", "--n-items", "4096", "--num-targets", "1"],
        ["plan", "--n-items", str(2**20), "--num-targets", "1", "--agents", "4"],
        ["plan", "--n-items", "64", "--num-targets", "48", "--agents", "2"],
        ["plan", "--n-items", "64", "--num-targets", "48"],
        ["heatmap", "--n-items", "8", "--iterations", "5"],
        ["parallel-sweep", "--n-items", "4096", "--num-targets", "2", "--agents", "3"],
        ["montecarlo", "--n-items", "64", "--num-targets", "1", "--trials", "500",
         "--seed", "3"],
        ["montecarlo", "--n-items", "64", "--num-targets", "2", "--agents", "4",
         "--iterations", "2", "--trials", "500", "--seed", "3"],
    ],
    ids=["simulate", "simulate-v1", "plan-k1", "plan-k4", "plan-wide-angle",
         "plan-wide-angle-k1", "heatmap", "parallel-sweep", "montecarlo-born",
         "montecarlo-coin"],
)
def test_csv_cells_equal_the_json_values(capsys, argv):
    code, out_json, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    payload = json.loads(out_json)
    header, *lines = out_csv.rstrip("\n").split("\n")
    columns = header.split(",")
    # one CSV row per JSON row or grid row; plan and montecarlo have one
    assert len(lines) == len(payload.get("grid", payload.get("rows", [None])))
    compared = 0
    for i, line in enumerate(lines):
        cells = line.split(",")
        assert len(cells) == len(columns)
        for column, cell in zip(columns, cells):
            value = _json_value(payload, i, column)
            if value is None:
                assert cell == "", (column, cell)
            elif isinstance(value, float):
                assert cell == repr(value), (column, cell, value)
            else:
                assert cell == str(value), (column, cell, value)
            compared += 1
    assert compared == len(lines) * len(columns)


# The JSON keys of each output, in the order the bytes hold them, spelled out
# here rather than read from the column tuples they are built from.
_DECOMPOSITION_KEYS = ["v", "phi", "alpha", "beta", "b", "psi", "w_t", "w_l"]
_PUNCTUATED_KEYS = ["n_opt", "n_int", "expected_cost", "stddev_geometric",
                    "max_probability_cost", "speedup_ratio"]
_PARALLEL_NUMERIC_KEYS = ["agents", "x", "n_int", "expected_cost"]
_PARALLEL_CLOSED_KEYS = ["agents", "x", "n_opt", "n_int", "expected_cost", "cost_exact_at_n"]
_PLAN_KEYS = ["command", "n_items", "r", "v", "phi", "agents",
              "punctuated", "parallel_numeric", "parallel_closed_form"]
_MONTECARLO_KEYS = ["iterations", "agents", "trials", "seed", "p_round", "closed_form_cost",
                    "mean", "stderr", "z", "agent_time_mean"]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["simulate", "--n-items", "64", "--num-targets", "3", "--iterations", "0..4"], {
            (): ["command", "n_items", "num_targets", "start", "averaging", "decomposition",
                 "rows"],
            ("decomposition",): _DECOMPOSITION_KEYS,
            ("rows", 0): ["n", "p_simulated", "p_analytic"],
        }),
        (["simulate", "--n-items", "32", "--targets", "3,9", "--start", "random:7",
          "--iterations", "2..6"], {
            (): ["command", "n_items", "targets", "start", "averaging", "decomposition", "rows"],
            ("decomposition",): _DECOMPOSITION_KEYS,
            ("rows", 0): ["n", "p_simulated", "p_analytic"],
        }),
        (["plan", "--n-items", str(2**20), "--num-targets", "1"], {
            (): _PLAN_KEYS,
            ("punctuated",): _PUNCTUATED_KEYS,
            ("parallel_numeric",): None,
            ("parallel_closed_form",): None,
        }),
        (["plan", "--n-items", str(2**20), "--num-targets", "1", "--agents", "4"], {
            (): _PLAN_KEYS,
            ("punctuated",): _PUNCTUATED_KEYS,
            ("parallel_numeric",): _PARALLEL_NUMERIC_KEYS,
            ("parallel_closed_form",): _PARALLEL_CLOSED_KEYS,
        }),
        (["plan", "--n-items", "64", "--num-targets", "48"], {
            (): _PLAN_KEYS,
            ("punctuated",): None,
            ("parallel_numeric",): _PARALLEL_NUMERIC_KEYS,
            ("parallel_closed_form",): None,
        }),
        (["parallel-sweep", "--n-items", "4096", "--num-targets", "2", "--agents", "3"], {
            (): ["command", "n_items", "r_max", "k_max", "rows"],
            ("rows", 5): ["r", "k", "n_numeric", "n_formula", "cost_numeric", "cost_formula",
                          "cost_exact_at_n_formula"],
        }),
        (["montecarlo", "--n-items", "64", "--num-targets", "1", "--trials", "500",
          "--seed", "3"], {
            (): ["command", "n_items", "num_targets"] + _MONTECARLO_KEYS,
        }),
        (["montecarlo", "--n-items", "64", "--targets", "3,17", "--agents", "4",
          "--iterations", "2", "--trials", "500", "--seed", "3"], {
            (): ["command", "n_items", "targets"] + _MONTECARLO_KEYS,
        }),
    ],
    ids=["simulate-count", "simulate-targets-random", "plan-k1", "plan-k4", "plan-wide-angle",
         "parallel-sweep", "montecarlo-count", "montecarlo-targets"],
)
def test_json_keys_keep_their_order(capsys, argv, keys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    for path, expected in keys.items():
        value = payload
        for step in path:
            value = value[step]
        assert (None if value is None else list(value)) == expected, path
