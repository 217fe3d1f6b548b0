"""Command-line front end: simulation, planning, figure data, verification.

Subcommands
-----------
simulate        simulator and closed form side by side over an iteration range
plan            punctuated and k-parallel plans for a uniform instance
heatmap         success-probability grid p(n, r) for uniform search
parallel-sweep  numeric vs closed-form parallel optima over (r, k)
montecarlo      seeded restart experiments against the closed-form cost
verify          special-case identities and constants, with exit status

Every command is deterministic given its flags (seeds included); re-running
writes byte-identical output.  Validation happens before any file is
written.

File formats
------------
State vector files are plain text: line 1 holds N, then N lines of one
"re im" pair each in full double precision (Python repr, round-trips exactly).
PGM output is binary P5 with maxval 255 (255 = probability 1), rows are
iteration counts ascending, columns are target counts r ascending.
JSON is the default output format everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from .analytic import (
    biham_mapping,
    decompose,
    first_maximum,
    rotation_angle,
    success_prob_analytic,
    uniform_success_prob,
)
from .errors import GQSearchError, ValidityError
from .montecarlo import run_parallel
from .statevector import (
    SearchInstance,
    StateVector,
    TargetSet,
    random_state,
    success_probability,
    success_trajectory,
    uniform_instance,
    uniform_state,
)
from .strategy import (
    expected_cost,
    max_probability_cost,
    optimal_x_single,
    parallel_plan,
    parallel_plan_closed_form,
    parallel_success,
    punctuated_plan,
    restart_iterations,
)


# ---------------------------------------------------------------------------
# parsing and IO helpers


def _parse_target_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --targets value {text!r}: {exc}") from exc


def _parse_iteration_range(text: str) -> tuple:
    """'a..b' or a single 'n' (meaning n..n); both ends inclusive."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise ValueError(f"bad --iterations value {text!r}: {exc}") from exc
    if lo < 0 or hi < lo:
        raise ValueError(f"bad --iterations range {text!r}")
    return lo, hi


def _parse_iteration_single(text: str) -> int:
    lo, hi = _parse_iteration_range(text)
    if lo != hi:
        raise ValueError(f"--iterations must be a single value here, got {text!r}")
    return lo


def read_state_file(path: str) -> StateVector:
    """Read the plain-text state format: N, then N lines of 're im'."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            n = int(fh.readline())
            with warnings.catch_warnings():  # no data lines: the shape check reports it
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, dtype=float, ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(f"state file {path!r} is malformed: {exc}") from exc
    if values.shape != (n, 2):
        raise ValueError(
            f"state file {path!r} needs {n} lines of 're im', got shape {values.shape}"
        )
    # each row viewed as one complex: no temporary, and -0.0 keeps its sign
    return StateVector(values.view(np.complex128)[:, 0])


def write_state_file(path: str, state: StateVector) -> None:
    """Write the plain-text state format with full-precision repr floats."""
    lines = [str(state.dim)]
    lines.extend(f"{float(z.real)!r} {float(z.imag)!r}" for z in state.amplitudes)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _resolve_targets(args: argparse.Namespace) -> TargetSet:
    if args.targets is not None:
        return TargetSet(_parse_target_list(args.targets))
    return TargetSet.first(args.num_targets)


def _resolve_state(spec: str, n_items: int, allow_random: bool) -> StateVector:
    if spec == "uniform":
        return uniform_state(n_items)
    if spec.startswith("random:") and allow_random:
        return random_state(n_items, int(spec.split(":", 1)[1]))
    if spec.startswith("file:"):
        state = read_state_file(spec.split(":", 1)[1])
        if state.dim != n_items:
            raise ValueError(
                f"state file dimension {state.dim} does not match --n-items {n_items}"
            )
        return state
    raise ValueError(f"bad state specification {spec!r}")


def _build_instance(args: argparse.Namespace) -> SearchInstance:
    targets = _resolve_targets(args)
    if args.start == args.averaging == "uniform":
        return uniform_instance(args.n_items, targets)
    averaging = _resolve_state(args.averaging, args.n_items, allow_random=False)
    start = averaging  # s = a: one state, built (and read) once
    if args.start != args.averaging:
        start = _resolve_state(args.start, args.n_items, allow_random=True)
    return SearchInstance.from_states(targets, averaging, start)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return json.dumps(value, allow_nan=False)  # repr; NaN/inf raise
    return str(value)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[col]) for col in columns))
    return "\n".join(lines) + "\n"


def _render(fmt: str, payload: dict, columns, rows):
    """The one output layer: a command's JSON object, or its rows as CSV.

    pgm, heatmap only, draws the JSON object's grid as an image.
    """
    if fmt == "csv":
        return _csv_text(columns, rows)
    if fmt == "pgm":
        return heatmap_to_pgm(np.array(payload["grid"]))
    return _json_text(payload)


def _write_output(data, out_path) -> None:
    if isinstance(data, bytes):
        with open(out_path, "wb") as fh:
            fh.write(data)
        return
    if out_path is None:
        sys.stdout.write(data)
    else:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(data)


# ---------------------------------------------------------------------------
# pure grid/table builders (importable without the CLI)


def default_heatmap_n_max(n_items: int) -> int:
    """Two full r=1 quarter-period ceilings, so two periods are visible."""
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    phi1 = rotation_angle(math.sqrt(1.0 / n_items))
    return 2 * math.ceil(0.5 * math.pi / phi1)


def heatmap_grid(n_items: int, n_max: int) -> np.ndarray:
    """p(n, r) for n = 0..n_max (rows) and r = 1..N (columns), uniform case."""
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    ns = np.arange(n_max + 1, dtype=float)
    grid = np.column_stack(
        [uniform_success_prob(math.sqrt(r / n_items), ns) for r in range(1, n_items + 1)]
    )
    return np.clip(grid, 0.0, 1.0)


def heatmap_to_pgm(grid: np.ndarray) -> bytes:
    """Binary P5 image of the grid; 255 = probability 1."""
    pixels = np.rint(np.clip(grid, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = pixels.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + pixels.tobytes(order="C")


SWEEP_COLUMNS = (
    "r",
    "k",
    "n_numeric",
    "n_formula",
    "cost_numeric",
    "cost_formula",
    "cost_exact_at_n_formula",
)


def _parallel_plans(r: int, n_items: int, k: int):
    """(exact plan, closed-form plan, exact cost at the closed form's n_int).

    The last two are None where the closed form is out of validity (always
    for k < 2).
    """
    numeric = parallel_plan(r, n_items, k)
    try:
        formula = parallel_plan_closed_form(r, n_items, k)
    except ValidityError:
        return numeric, None, None
    n = formula.n_int
    p = uniform_success_prob(math.sqrt(r / n_items), n)
    return numeric, formula, expected_cost(n, parallel_success(p, k))


def sweep_rows(n_items: int, r_max: int, k_max: int) -> list:
    """Numeric vs closed-form parallel optima for r = 1..r_max, k = 1..k_max.

    Formula columns are None for k < 2 (and whenever the closed form is out
    of validity); cost_exact_at_n_formula re-evaluates the exact cost at the
    rounded formula n so discrepancies between the two cost expressions are
    visible side by side.
    """
    rows = []
    for r in range(1, r_max + 1):
        for k in range(1, k_max + 1):
            numeric, formula, cost_exact = _parallel_plans(r, n_items, k)
            rows.append({
                "r": r,
                "k": k,
                "n_numeric": numeric.n_int,
                "n_formula": formula.n_opt if formula else None,
                "cost_numeric": numeric.expected_cost,
                "cost_formula": formula.expected_cost if formula else None,
                "cost_exact_at_n_formula": cost_exact,
            })
    return rows


# ---------------------------------------------------------------------------
# commands

SIMULATE_COLUMNS = (
    "n", "p_simulated", "p_analytic",
    "v", "phi", "alpha", "beta", "b", "psi", "w_t", "w_l",
)


def cmd_simulate(args: argparse.Namespace):
    instance = _build_instance(args)
    lo, hi = _parse_iteration_range(args.iterations)
    trajectory = success_trajectory(instance, hi)
    ns = np.arange(lo, hi + 1)

    dec = decompose(instance)
    dec_dict = {
        "v": dec.v, "phi": dec.phi, "alpha": dec.alpha, "beta": dec.beta,
        "b": dec.b, "psi": dec.psi, "w_t": dec.w_t, "w_l": dec.w_l,
    }
    p_analytic = success_prob_analytic(dec, ns)

    rows = [
        {
            "n": int(n),
            "p_simulated": float(trajectory[n]),
            "p_analytic": float(p),
        }
        for n, p in zip(ns, p_analytic)
    ]
    payload = {
        "command": "simulate",
        "n_items": args.n_items,
        "targets": list(instance.targets.indices),
        "start": args.start,
        "averaging": args.averaging,
        "decomposition": dec_dict,
        "rows": rows,
    }
    return payload, SIMULATE_COLUMNS, [dict(row, **dec_dict) for row in rows]


# Each plan CSV column and the (section, key) of the JSON value it holds;
# section None is the top level, and a null section leaves its cells empty.
_PLAN_CELLS = {
    "n_items": (None, "n_items"),
    "r": (None, "r"),
    "v": (None, "v"),
    "phi": (None, "phi"),
    "agents": (None, "agents"),
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
PLAN_COLUMNS = tuple(_PLAN_CELLS)


def cmd_plan(args: argparse.Namespace):
    if args.agents < 1:
        raise ValueError(f"--agents must be >= 1, got {args.agents}")
    targets = _resolve_targets(args)
    if targets.indices[-1] >= args.n_items:
        raise ValueError(
            f"target index {targets.indices[-1]} out of range for --n-items {args.n_items}"
        )
    r = targets.r
    v = math.sqrt(r / args.n_items)
    phi = rotation_angle(v)
    try:
        plan = punctuated_plan(phi)
    except ValidityError:
        punct = None  # phi >= pi/2: outside the punctuated plan's model
    else:
        baseline = max_probability_cost(phi)
        punct = {
            "n_opt": plan.n_opt,
            "n_int": plan.n_int,
            "expected_cost": plan.expected_cost,
            "stddev_alt": plan.stddev_alt,
            "stddev_geometric": plan.stddev_geometric,
            "max_probability_cost": baseline,
            "speedup_ratio": plan.expected_cost / baseline,
        }
    par_numeric = None
    par_closed = None
    if args.agents >= 2 or punct is None:
        numeric, formula, cost_exact = _parallel_plans(r, args.n_items, args.agents)
        par_numeric = {
            "agents": numeric.agents,
            "x": numeric.x,
            "n_int": numeric.n_int,
            "expected_cost": numeric.expected_cost,
        }
        if formula is not None:
            par_closed = {
                "agents": formula.agents,
                "x": formula.x,
                "n_opt": formula.n_opt,
                "n_int": formula.n_int,
                "expected_cost": formula.expected_cost,
                "cost_exact_at_n": cost_exact,
            }

    payload = {
        "command": "plan",
        "n_items": args.n_items,
        "r": r,
        "v": v,
        "phi": phi,
        "agents": args.agents,
        "punctuated": punct,
        "parallel_numeric": par_numeric,
        "parallel_closed_form": par_closed,
    }
    row = {}
    for column, (section, key) in _PLAN_CELLS.items():
        values = payload[section] if section else payload
        row[column] = values[key] if values else None
    return payload, PLAN_COLUMNS, [row]


def cmd_heatmap(args: argparse.Namespace):
    n_max = (
        _parse_iteration_single(args.iterations)
        if args.iterations is not None
        else default_heatmap_n_max(args.n_items)
    )
    grid = heatmap_grid(args.n_items, n_max).tolist()
    columns = ["n"] + [f"r={r}" for r in range(1, args.n_items + 1)]
    payload = {
        "command": "heatmap",
        "n_items": args.n_items,
        "n_max": n_max,
        "grid": grid,
    }
    return payload, columns, [dict(zip(columns, [n] + row)) for n, row in enumerate(grid)]


def cmd_parallel_sweep(args: argparse.Namespace):
    if args.num_targets < 1 or args.agents < 1:
        raise ValueError("r and k sweep bounds must be >= 1")
    rows = sweep_rows(args.n_items, args.num_targets, args.agents)
    payload = {
        "command": "parallel-sweep",
        "n_items": args.n_items,
        "r_max": args.num_targets,
        "k_max": args.agents,
        "rows": rows,
    }
    return payload, SWEEP_COLUMNS, rows


MONTECARLO_COLUMNS = (
    "n_items", "r", "iterations", "agents", "trials", "seed", "p_round",
    "closed_form_cost", "mean", "stderr", "z", "agent_time_mean",
)


def cmd_montecarlo(args: argparse.Namespace):
    instance = _build_instance(args)
    if args.iterations is not None:
        n = _parse_iteration_single(args.iterations)
        if n < 1:
            raise ValueError("--iterations must be >= 1 for montecarlo")
    else:
        n = restart_iterations(decompose(instance), args.agents)

    p = success_probability(instance, n)
    closed = expected_cost(n, parallel_success(p, args.agents))
    est = run_parallel(p, n, args.agents, args.trials, args.seed)
    z = (est.mean - closed) / est.stderr if est.stderr > 0 else None

    payload = {
        "command": "montecarlo",
        "n_items": args.n_items,
        "targets": list(instance.targets.indices),
        "iterations": n,
        "agents": args.agents,
        "trials": args.trials,
        "seed": args.seed,
        "p_round": p,
        "closed_form_cost": closed,
        "mean": est.mean,
        "stderr": est.stderr,
        "z": z,
        "agent_time_mean": args.agents * est.mean,
    }
    return payload, MONTECARLO_COLUMNS, [dict(payload, r=instance.targets.r)]


def _verify_checks(seed: int) -> list:
    """(name, measured, expected, tolerance) tuples for cmd_verify."""
    checks = []

    x = optimal_x_single()
    checks.append(("optimal_x_single", x, 2.3311, 1e-4))
    checks.append(("optimal_x_single_residual", abs(x - math.tan(0.5 * x)), 0.0, 1e-10))

    phi = 0.01
    plan = punctuated_plan(phi)
    checks.append(("n_opt_times_phi", plan.n_opt * phi, 1.1655, 1e-3))
    checks.append(("expected_cost_times_phi", plan.expected_cost * phi, 1.3801, 1e-3))

    big_n = 2**20
    plan_big = punctuated_plan(rotation_angle(math.sqrt(1.0 / big_n)))
    checks.append(
        (
            "single_target_cost_over_sqrt_n",
            plan_big.expected_cost / math.sqrt(big_n),
            0.6900,
            0.005 * 0.6900,
        )
    )

    instance = uniform_instance(16, 1)  # v = 1/4
    trajectory = success_trajectory(instance, 20)
    closed = np.array([uniform_success_prob(0.25, n) for n in range(21)])
    checks.append(
        ("grover_case_v_quarter_max_dev", float(np.max(np.abs(trajectory - closed))), 0.0, 1e-10)
    )
    dec = decompose(instance)
    n_first, _ = first_maximum(dec)
    checks.append(
        (
            "grover_first_max_dev",
            abs(n_first - (0.5 * math.pi / dec.phi - 0.5)),
            0.0,
            1e-9,
        )
    )

    # the k = 1 plan two ways: uniform planner, any-start planner on decompose
    dev = 0.0
    for r, n_items in ((1, 64), (2, 256), (1, 1024)):
        plan = parallel_plan(r, n_items, 1)
        dec_r = decompose(uniform_instance(n_items, r))
        n = restart_iterations(dec_r, 1)
        cost = expected_cost(n, success_prob_analytic(dec_r, n))
        dev = max(dev, abs(cost - plan.expected_cost) if n == plan.n_int else math.inf)
    checks.append(("k1_reduction_max_dev", dev, 0.0, 1e-12))

    norm_dev = alpha_dev = beta_dev = 0.0
    n_items = 64
    r_cycle = (1, 4, 16)
    for i in range(20):
        r = r_cycle[i % 3]
        start = random_state(n_items, seed + i)
        targets = TargetSet.first(r)
        mapping = biham_mapping(start, targets)
        total = (
            r * abs(mapping.k_bar) ** 2
            + r * mapping.sigma_k**2
            + (n_items - r) * abs(mapping.l_bar) ** 2
            + (n_items - r) * mapping.sigma_l**2
        )
        norm_dev = max(norm_dev, abs(total - 1.0))
        dec_i = decompose(SearchInstance.from_states(targets, uniform_state(n_items), start))
        alpha_dev = max(alpha_dev, abs(dec_i.alpha - abs(mapping.k_bar) * math.sqrt(r)))
        beta_dev = max(
            beta_dev, abs(dec_i.beta - abs(mapping.l_bar) * math.sqrt(n_items - r))
        )
    checks.append(("mean_amplitude_normalization_max_dev", norm_dev, 0.0, 1e-10))
    checks.append(("alpha_vs_mean_target_amplitude_max_dev", alpha_dev, 0.0, 1e-10))
    checks.append(("beta_vs_mean_other_amplitude_max_dev", beta_dev, 0.0, 1e-10))
    return checks


def cmd_verify(args: argparse.Namespace):
    checks = _verify_checks(args.seed)
    lines = []
    all_pass = True
    for name, measured, expected, tol in checks:
        ok = abs(measured - expected) <= tol
        all_pass = all_pass and ok
        lines.append(
            f"{name} = {measured:.10g} (expected {expected:g} +/- {tol:g}): "
            f"{'PASS' if ok else 'FAIL'}"
        )
    lines.append("all checks passed" if all_pass else "some checks FAILED")
    return "\n".join(lines) + "\n", 0 if all_pass else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_output_args(parser, formats) -> None:
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument(
        "--format", choices=formats, default="json", help="output format"
    )


def _add_target_args(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--targets", metavar="I,J,...", help="explicit comma-separated target indices"
    )
    group.add_argument(
        "--num-targets", type=int, metavar="R",
        help="number of targets, placed at indices 0..R-1",
    )


def _add_state_args(parser) -> None:
    parser.add_argument(
        "--start", default="uniform", metavar="SPEC",
        help="start state: uniform | random:<seed> | file:<path> (default %(default)s)",
    )
    parser.add_argument(
        "--averaging", default="uniform", metavar="SPEC",
        help="averaging state: uniform | file:<path> (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqsearch",
        description="Generalized quantum search: exact simulation, closed-form "
        "probability model, and optimal restart/parallel strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate",
        help="simulator vs closed form over an iteration range",
        description="Emit p_simulated and p_analytic for each n, plus the "
        "rotation-plane decomposition. CSV columns: "
        + ",".join(SIMULATE_COLUMNS),
    )
    p_sim.add_argument("--n-items", type=int, required=True, metavar="N")
    _add_target_args(p_sim)
    _add_state_args(p_sim)
    p_sim.add_argument(
        "--iterations", default="0..10", metavar="A..B",
        help="iteration range, single n or a..b (default %(default)s)",
    )
    _add_output_args(p_sim, ["json", "csv"])

    p_plan = sub.add_parser(
        "plan",
        help="optimal punctuated and k-parallel plans (uniform case)",
        description="Plans assume uniform averaging and restart states "
        "(v = sqrt(r/N)). CSV columns: " + ",".join(PLAN_COLUMNS),
    )
    p_plan.add_argument("--n-items", type=int, required=True, metavar="N")
    _add_target_args(p_plan)
    p_plan.add_argument(
        "--agents", type=int, default=1, metavar="K",
        help="agent count; K >= 2, or r/N >= 1/2, adds the parallel plans "
        "(default %(default)s)",
    )
    _add_output_args(p_plan, ["json", "csv"])

    p_heat = sub.add_parser(
        "heatmap",
        help="success-probability grid p(n, r), uniform search",
        description="Grid rows are n = 0..n_max, columns r = 1..N. "
        "--iterations sets n_max (default: two r=1 periods). "
        "CSV columns: n,r=1,...,r=N. PGM is binary P5, maxval 255.",
    )
    p_heat.add_argument("--n-items", type=int, default=64, metavar="N")
    p_heat.add_argument(
        "--iterations", default=None, metavar="NMAX", help="largest iteration count"
    )
    _add_output_args(p_heat, ["json", "csv", "pgm"])

    p_sweep = sub.add_parser(
        "parallel-sweep",
        help="numeric vs closed-form parallel optima over (r, k)",
        description="Sweeps r = 1..R (via --num-targets) and "
        "k = 1..K (via --agents). Formula columns are empty "
        "for k < 2. CSV columns: " + ",".join(SWEEP_COLUMNS),
    )
    p_sweep.add_argument("--n-items", type=int, default=2**20, metavar="N")
    p_sweep.add_argument(
        "--num-targets", type=int, default=5, metavar="R", help="largest r (default %(default)s)"
    )
    p_sweep.add_argument(
        "--agents", type=int, default=64, metavar="K", help="largest k (default %(default)s)"
    )
    _add_output_args(p_sweep, ["json", "csv"])

    p_mc = sub.add_parser(
        "montecarlo",
        help="seeded restart experiment vs the closed-form cost",
        description="Races k agents (--agents) per round, each a coin that "
        "succeeds with p, the target weight of the simulated Q^n|s>; k = 1 "
        "is punctuated search. Default --iterations: the exact n / P_k(n) "
        "optimum for --start and --agents. "
        "CSV columns: " + ",".join(MONTECARLO_COLUMNS),
    )
    p_mc.add_argument("--n-items", type=int, required=True, metavar="N")
    _add_target_args(p_mc)
    _add_state_args(p_mc)
    p_mc.add_argument("--iterations", default=None, metavar="N")
    p_mc.add_argument("--agents", type=int, default=1, metavar="K")
    p_mc.add_argument("--trials", type=int, default=100_000, metavar="T")
    p_mc.add_argument("--seed", type=int, default=0, metavar="S")
    _add_output_args(p_mc, ["json", "csv"])

    p_verify = sub.add_parser(
        "verify",
        help="run the special-case identity and constant checks",
        description="Prints one line per check with measured vs expected; "
        "exit status 0 iff all pass.",
    )
    p_verify.add_argument("--seed", type=int, default=0, metavar="S")
    p_verify.add_argument("--out", metavar="PATH", help="output file (default: stdout)")

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "plan": cmd_plan,
    "heatmap": cmd_heatmap,
    "parallel-sweep": cmd_parallel_sweep,
    "montecarlo": cmd_montecarlo,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            text, code = cmd_verify(args)
            _write_output(text, args.out)
            return code
        if args.format == "pgm" and args.out is None:
            raise ValueError("--format pgm requires --out (binary output)")
        payload, columns, rows = _COMMANDS[args.command](args)
        _write_output(_render(args.format, payload, columns, rows), args.out)
        return 0
    except (GQSearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a last resort, not a size guard
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
