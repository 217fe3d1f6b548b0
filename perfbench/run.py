"""Benchmark of the gqsearch command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

With ``--trace 0`` each CLI call runs in a fresh interpreter, one at a time,
and the run reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` the same calls run in this process through
``gqsearch.cli.main``, alternating untraced and traced rounds, and the run
reports the per-layer metrics; the spans and counts go to
``perfbench/out/<workload>-seed<seed>/trace.jsonl``.  Either way every
output is checked against answers computed in ``checks.py``.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("figures", "evolve", "sample")
# Fewest fresh interpreters timed importing gqsearch.cli in a run (one per
# round, topped up at the end); setup_s is their median.
SETUP_SAMPLES = 7
# BLAS may start one thread per core; one thread keeps the timings steady.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Spawner:
    """The small process (spawner.py) that starts and reaps every timed call."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list, stdout: str, stderr: str) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "stdout": stdout, "stderr": stderr}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended early")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def _read(path: str, mode: str = "r"):
    try:
        with open(path, mode) as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _checked(code: int, stdout: str, stderr: str, op) -> list:
    """The problems op.check finds in what the call left behind."""
    from checks import Result, run_check

    out_bytes = _read(op.out, "rb") if op.out else None
    return run_check(op.check, Result(code, stdout or "", stderr or "", out_bytes))


def _run_op_child(spawner: Spawner, op, work: str) -> dict:
    out, err = os.path.join(work, f"{op.name}.stdout"), os.path.join(work, f"{op.name}.stderr")
    if op.out:
        Path(op.out).unlink(missing_ok=True)
    usage = spawner.run([sys.executable, "-m", "gqsearch", *op.args], out, err)
    return dict(usage, problems=_checked(usage["code"], _read(out), _read(err), op))


def _run_op_in_process(op, tracer=None) -> dict:
    import gqsearch.cli
    from tracing import clear_caches

    clear_caches()
    if op.out:
        Path(op.out).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = gqsearch.cli.main(op.args)
            else:
                tracer.call = op.name
                with tracer.span("cli.main"):
                    code = gqsearch.cli.main(op.args)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    wall = time.perf_counter() - t0
    return {"code": code, "wall_s": wall,
            "problems": _checked(code, out.getvalue(), err.getvalue(), op)}


def _run_rounds(seconds: float, run_round) -> list:
    """Whole rounds until `seconds` have passed; at least one."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(len(rounds)))
    return rounds


def _tally(ops, rounds) -> tuple:
    """(correct, attempted, failed); a failure outside the known faults
    makes the run incorrect."""
    attempted = failed = 0
    correct = True
    for samples in rounds:
        for op, sample in zip(ops, samples):
            attempted += 1
            if sample["problems"]:
                failed += 1
                correct = correct and op.fault is not None
    return correct, attempted, failed


def _report_ops(ops, rounds, keys) -> None:
    for i, op in enumerate(ops):
        samples = [r[i] for r in rounds]
        cols = "  ".join(f"{k}={statistics.median(s[k] for s in samples):.4g}" for k in keys)
        problems = next((s["problems"] for s in samples if s["problems"]), [])
        status = "ok" if not problems else (
            f"FAILED (known fault {op.fault})" if op.fault else "FAILED")
        print(f"  {op.name:20s} {cols}  {status}")
        for problem in problems[:3]:
            print(f"      {problem}")


def run_untraced(workload: str, seed: int, seconds: float, work: str) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    # Start the spawner while this process is small: see spawner.py.
    spawner = Spawner(env)
    try:
        from workloads import build

        ops = build(workload, seed, work)
        setup = []

        def time_import():
            err = os.path.join(work, "import.stderr")
            usage = spawner.run([sys.executable, "-c", "import gqsearch.cli"],
                                os.path.join(work, "import.stdout"), err)
            if usage["code"] != 0:
                raise RuntimeError(f"import gqsearch.cli failed: {_read(err)}")
            setup.append(usage["wall_s"])

        def run_round(_):
            time_import()  # spread over the run, so setup_s sees the same load
            return [_run_op_child(spawner, op, work) for op in ops]

        rounds = _run_rounds(seconds, run_round)
        while len(setup) < SETUP_SAMPLES:
            time_import()
    finally:
        spawner.close()

    def per_op(key):
        return [statistics.median(r[i][key] for r in rounds) for i in range(len(ops))]

    with open(os.path.join(work, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup, "calls": [op.name for op in ops], "rounds": rounds}, fh)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_op("wall_s")),
        "cpu_s": sum(per_op("cpu_s")),
        "peak_rss_mb": max(per_op("maxrss_kb")) / 1024.0,
    }
    print(f"{workload}: {len(rounds)} rounds of {len(ops)} calls, "
          f"{len(setup)} import samples; medians per call:")
    _report_ops(ops, rounds, ("wall_s", "cpu_s", "maxrss_kb"))
    return ops, rounds, metrics


def run_traced(workload: str, seed: int, seconds: float, work: str) -> tuple:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gqsearch.cli  # noqa: F401  (timed: cli.import_s)

    import_s = time.perf_counter() - t0
    from tracing import Tracer, layer_metrics
    from workloads import build

    ops = build(workload, seed, work)
    tracer = Tracer()
    walls = {"untraced": [], "traced": []}
    traced_rounds = []

    def run_round(i):
        if i % 2 == 0:
            samples = [_run_op_in_process(op) for op in ops]
            walls["untraced"].append(sum(s["wall_s"] for s in samples))
            return samples
        with tracer.patched():
            samples = [_run_op_in_process(op, tracer) for op in ops]
        walls["traced"].append(sum(s["wall_s"] for s in samples))
        traced_rounds.append(tracer.round)
        tracer.end_round()
        return samples

    rounds = _run_rounds(seconds, run_round)
    if not traced_rounds:
        rounds.append(run_round(1))
    tracer.write_jsonl(os.path.join(work, "trace.jsonl"))
    metrics = layer_metrics(tracer, traced_rounds)
    metrics["cli.import_s"] = import_s
    # The first round also warms up this process; leave it out when there is another.
    untraced = walls["untraced"][1:] or walls["untraced"]
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(untraced)
    print(f"{workload}: {len(walls['untraced'])} untraced and {len(traced_rounds)} traced "
          f"in-process rounds; medians per call:")
    _report_ops(ops, rounds, ("wall_s",))
    return ops, rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gqsearch" / "cli.py").is_file():
        print(f"error: no gqsearch sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(THREAD_ENV)
    work = HERE / "out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    runner = run_traced if args.trace else run_untraced
    ops, rounds, values = runner(args.workload, args.seed, args.seconds, str(work))
    correct, attempted, failed = _tally(ops, rounds)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (work / f"result-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
