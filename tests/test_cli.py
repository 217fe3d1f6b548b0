"""End-to-end tests of the command-line interface and its file formats."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gqsearch
import gqsearch.cli
from gqsearch import (
    SearchInstance,
    StateVector,
    TargetSet,
    expected_cost,
    random_state,
    rotation_angle,
    run_parallel,
    success_probability,
    success_trajectory,
    uniform_instance,
    uniform_state,
    uniform_success_prob,
)
import gqsearch.statevector as statevector_module
from gqsearch.cli import (
    MONTECARLO_COLUMNS,
    PLAN_COLUMNS,
    SIMULATE_COLUMNS,
    SWEEP_COLUMNS,
    default_heatmap_n_max,
    heatmap_grid,
    heatmap_to_pgm,
    main,
    read_state_file,
    sweep_rows,
    write_state_file,
)


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
    assert payload["targets"] == [0]
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
    inst = SearchInstance.from_states(TargetSet((1,)), uniform_state(8), start)
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
    # p_round and p_simulated are the same simulated p(n), bit for bit
    common = ["--n-items", "64", "--targets", "3,17,40", "--start", "random:7"]
    code, out, _ = run_cli(capsys, "simulate", *common, "--iterations", "0..12")
    assert code == 0
    simulated = [row["p_simulated"] for row in json.loads(out)["rows"]]
    code, out, _ = run_cli(capsys, "montecarlo", *common, "--trials", "10")
    assert code == 0
    default = json.loads(out)
    assert default["p_round"] == simulated[default["iterations"]]
    for n in range(1, 13):
        code, out, _ = run_cli(
            capsys, "montecarlo", *common, "--iterations", str(n), "--trials", "10",
        )
        assert code == 0
        assert json.loads(out)["p_round"] == simulated[n], n


def test_start_equal_to_averaging_reads_the_file_once(tmp_path, capsys, monkeypatch):
    # s = a = U|0>: one spec, one parse; a byte copy read twice gives the
    # same output
    first = tmp_path / "state.txt"
    write_state_file(str(first), random_state(64, 5))
    copy = tmp_path / "copy.txt"
    copy.write_bytes(first.read_bytes())
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_state_file(path)

    monkeypatch.setattr(gqsearch.cli, "read_state_file", counting_read)
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
    for state in (StateVector([complex(-0.0, 0.6), complex(0.8, -0.0)]), random_state(12, 9)):
        write_state_file(str(path), state)
        back = read_state_file(str(path))
        assert np.array_equal(back.amplitudes.view(np.int64), state.amplitudes.view(np.int64))
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
    got = read_state_file(str(path)).amplitudes
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize(
    "text",
    ["", "\n", "2\n0.6 0\n0.8 zero\n", "two\n0.6 0\n0.8 0\n", "2\n0.6 0\n0.8\n",
     "2\n0.6 0\n0.8 0\n0 0\n", "2\n0.6\n0.8\n", "2\n0.6 0 0\n0.8 0 0\n",
     "2\n# amplitudes\n0.6 0\n0.8 0\n", "2\n", "2\nnan 0\n0.8 0\n",
     "2\n0.6 0\n0.8 0\u00e9\n", "2\n0.6\n0 0.8 0\n", "2 0.6 0\n0.8 0\n"],
    ids=["empty", "blank", "malformed-value", "malformed-count", "short", "long",
         "one-number-lines", "three-number-lines", "comment-line", "header-only",
         "nan", "non-ascii", "split-pair", "pair-on-header-line"],
)
def test_bad_state_files_exit_2(tmp_path, capsys, text):
    # one 're im' pair per line after the header, nothing else
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


def test_montecarlo_evolves_once(monkeypatch, capsys):
    # every evolution builds one reduced basis; montecarlo evolves Q^n|s>
    # once, for p
    built = []

    class Counting(statevector_module._ReducedBasis):
        def __init__(self, instance):
            built.append(instance)
            super().__init__(instance)

    monkeypatch.setattr(statevector_module, "_ReducedBasis", Counting)
    code, _, _ = run_cli(
        capsys,
        "montecarlo", "--n-items", "64", "--num-targets", "1",
        "--trials", "50", "--seed", "1",
    )
    assert code == 0
    assert len(built) == 1


def test_random_start_is_deterministic(capsys):
    args = ("simulate", "--n-items", "16", "--targets", "2", "--start", "random:7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


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
    # N = 10^100, k = 2: every cost is at least 1 / (3 asin(1e-50) sqrt(2)),
    # about 2.4e49, so no scan can reach the optimum
    def no_scan(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(gqsearch.strategy, "uniform_success_prob", no_scan)
    code, out, err = run_cli(
        capsys, "plan", "--n-items", str(10**100), "--num-targets", "1", "--agents", "2"
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_uniform_runs_at_huge_n(capsys):
    # a uniform instance is six numbers: N = 2^30 needs no 16 GiB vector
    code, out, err = run_cli(
        capsys, "simulate", "--n-items", str(2**30), "--num-targets", "1"
    )
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert all(abs(row["p_simulated"] - row["p_analytic"]) < 1e-10 for row in rows)
    # N = 10^20: the restart scan would pass its limit, so it is refused at once
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "montecarlo", "--n-items", str(10**20), "--num-targets", "1"
    )
    assert code == 2 and out == "" and "no optimum" in err
    assert time.perf_counter() - t0 < 1.0


def test_heatmap_trivial_cells():
    grid = heatmap_grid(64, 3)
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
    grid = heatmap_grid(8, 3)
    assert payload == heatmap_to_pgm(grid)[len(b"P5\n8 4\n255\n"):]
    assert payload == np.rint(grid * 255.0).astype(np.uint8).tobytes()
    # full-probability column renders white
    assert payload[7] == 255


@pytest.mark.parametrize("n_items", ["0", "-3"])
def test_heatmap_rejects_n_items_below_one(capsys, n_items):
    code, out, err = run_cli(capsys, "heatmap", "--n-items", n_items)
    assert code == 2 and out == ""
    assert err == f"error: n_items must be >= 1, got {n_items}\n"


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
    rows = sweep_rows(2**16, 2, 3)
    assert len(rows) == 6
    assert set(rows[0]) == set(SWEEP_COLUMNS)
    k1 = [row for row in rows if row["k"] == 1]
    assert all(row["n_formula"] is None for row in k1)
    k3 = [row for row in rows if row["k"] == 3]
    assert all(isinstance(row["cost_formula"], float) for row in k3)


def test_montecarlo_born_model(tmp_path, capsys):
    # one agent is the k = 1 coin race, with p the Born target weight of
    # the simulated Q^n|s>
    args = [
        "montecarlo", "--n-items", "16", "--num-targets", "1",
        "--iterations", "3", "--trials", "2000", "--seed", "11",
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    inst = uniform_instance(16, 1)
    p = success_probability(inst, 3)
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
    inst = uniform_instance(16, 1)
    p = success_probability(inst, 3)
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
    write_state_file(str(path), StateVector(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)))
    code, out, err = run_cli(
        capsys,
        "montecarlo", "--n-items", "4", "--targets", "0", "--start", f"file:{path}",
        "--trials", "10",
    )
    assert code == 2 and err.startswith("error:") and out == ""


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
    write_state_file(str(start), StateVector(np.array([1e-150, 1.0, 1.0, 1.0]) / math.sqrt(3.0)))
    write_state_file(str(off), StateVector(np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3.0)))
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
    write_state_file(str(dark), StateVector(np.array([0.0, 1.0, 1.0, 1.0]) / math.sqrt(3.0)))
    for argv in (
        ["--n-items", "16", "--num-targets", "16"],
        ["--n-items", "4", "--targets", "0", "--averaging", f"file:{dark}"],
    ):
        argv = ["montecarlo", *argv, "--trials", "100"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["iterations"] == 1
        assert run_cli(capsys, *argv, "--iterations", "1") == (0, out, "")


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
        return {"command": "plan", "rows": [row]}, ("n", "cost"), [row]

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


def test_arbitrate_stddev_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "arbitrate_stddev.py"
    result = subprocess.run(
        [sys.executable, str(script), "--trials", "2000"], env=_env_with_package(),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("geometric") >= 4


def test_verify_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    lines = out.strip().split("\n")
    check_lines = [line for line in lines if " = " in line]
    assert len(check_lines) >= 10
    assert all(line.endswith("PASS") for line in check_lines)
    assert any(line.startswith("optimal_x_single = ") for line in check_lines)
    assert lines[-1] == "all checks passed"


def _late_restart(dec, k):
    return gqsearch.strategy.restart_iterations(dec, k) + 1


def _dear_plan(r, n_items, k):
    plan = gqsearch.strategy.parallel_plan(r, n_items, k)
    return dataclasses.replace(plan, expected_cost=plan.expected_cost * (1.0 + 1e-12))


@pytest.mark.parametrize("name,broken", [
    ("restart_iterations", _late_restart),
    ("parallel_plan", _dear_plan),
])
def test_verify_fails_when_one_k1_path_breaks(monkeypatch, capsys, name, broken):
    # the k = 1 check compares two planners; a fault in either must show
    monkeypatch.setattr(gqsearch.cli, name, broken)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    failed = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("k1_reduction_max_dev = ")


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
    # N is checked before r/N is formed
    for command in ("simulate", "montecarlo"):
        for n_items in ("0", "-4"):
            code, out, err = run_cli(capsys, command, "--n-items", n_items, "--num-targets", "1")
            assert code == 2 and out == "" and err.startswith("error: n_items must be >= 1")
    # argparse-level violations exit with SystemExit(2)
    with pytest.raises(SystemExit):
        main(["simulate", "--n-items", "8"])
    with pytest.raises(SystemExit):
        main(["simulate", "--n-items", "8", "--targets", "1", "--format", "pgm"])


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
    "punct_stddev_alt": ("punctuated", "stddev_alt"),
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
    return len(payload["targets"]) if column == "r" else payload[column]


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
