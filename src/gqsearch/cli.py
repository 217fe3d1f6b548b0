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
State vector files (`file:PATH`) are plain text: line 1 holds N, read by
`gqsearch.errors._int` as every integer flag is, then N lines of one "re im"
pair each; a float written as its Python repr reads back exactly.
Their one parser is `gqsearch.statevector._state_file`: the reducer's first
read opens the file and checks its N, and later reads yield the amplitude
lines in blocks that the reducer sums as they are read.
PGM output is binary P5 with maxval 255 (255 = probability 1), rows are
iteration counts ascending, columns are target counts r ascending.
JSON is the default output format everywhere.
"""

from __future__ import annotations

import argparse
import math
import sys

# Each command imports the layer functions it calls when it runs, so a call
# loads only its own layers and `import gqsearch.cli` loads none of them.
from .errors import ValidityError, _check_seed, _check_trials, _int


# ---------------------------------------------------------------------------
# parsing and IO helpers


def _parse_int(option: str, text: str, part: str) -> int:
    """The integer part, a piece of option's value text."""
    try:
        return _int(part)
    except ValueError as exc:
        raise ValueError(f"bad {option} value {text!r}: {exc}") from exc


def _parse_iteration_range(text: str) -> tuple:
    """'a..b' or a single 'n' (meaning n..n); both ends inclusive."""
    lo_text, hi_text = text.split("..", 1) if ".." in text else (text, text)
    lo = _parse_int("--iterations", text, lo_text)
    hi = _parse_int("--iterations", text, hi_text)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad --iterations range {text!r}")
    return lo, hi


def _parse_iteration_single(text: str) -> int:
    lo, hi = _parse_iteration_range(text)
    if lo != hi:
        raise ValueError(f"--iterations must be a single value here, got {text!r}")
    return lo


def _resolve_targets(args: argparse.Namespace) -> tuple:
    """(r, TargetSet) for --targets; (r, None) for --num-targets, so a count builds no
    indices.  `_rows` checks either against --n-items."""
    from .analytic import TargetSet, _rows

    # a tuple, parsed before TargetSet sees it: a bad index reports _parse_int's message
    targets = None if args.targets is None else TargetSet(tuple(
        _parse_int("--targets", args.targets, part) for part in args.targets.split(",")))
    r, _ = _rows(args.num_targets if targets is None else targets, args.n_items)
    return r, targets


def _target_echo(r: int, targets) -> dict:
    """The target flag as given: --targets as its sorted list, --num-targets as R."""
    return {"num_targets": r} if targets is None else {"targets": list(targets.indices)}


def _resolve_state(spec: str, n_items: int, allow_random: bool):
    """The amplitude blocks of spec, unread: None for u, which is never built, the
    draws of random:<seed>, or the lines of file:<path>, whose N the first read checks."""
    if spec == "uniform":
        return None
    if spec.startswith("random:") and allow_random:
        from .statevector import _random_blocks

        seed = _parse_int("--start", spec, spec.split(":", 1)[1])
        return _random_blocks(n_items, _check_seed("--start random:<seed>", seed))
    if spec.startswith("file:"):
        from .statevector import _state_file

        return _state_file(spec.split(":", 1)[1], n_items)
    raise ValueError(f"bad state specification {spec!r}")


def _build_instance(args: argparse.Namespace, r: int, targets) -> tuple:
    """The run's six products, of the rows [0, r) for a count: `uniform_instance` for
    s = a = u, which loads no simulator; explicit states are reduced as they are drawn
    or read, never held."""
    from .analytic import uniform_instance

    n_items = args.n_items
    uniform = uniform_instance(n_items, r)  # an r/N that underflows is refused before numpy loads
    if args.start == args.averaging == "uniform":
        return uniform

    from .statevector import from_blocks

    averaging = _resolve_state(args.averaging, n_items, allow_random=False)
    start = (averaging if args.start == args.averaging  # s = a: one state, read once
             else _resolve_state(args.start, n_items, allow_random=True))
    return from_blocks(r if targets is None else targets, n_items, averaging, start)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} in CSV output")
        return float.__repr__(value)  # what json.dumps writes, numpy floats included
    return str(value)


def _render(fmt: str, payload: dict, columns, rows):
    """The one output layer: a command's JSON object, or its rows as CSV.

    pgm, heatmap only, draws the JSON object's grid as an image.  Rows may
    be any iterable, each row the values of columns in order, and a command
    may pass None for the part that its --format does not render.
    """
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(map(_csv_cell, row)) for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "pgm":
        return heatmap_to_pgm(payload["grid"])
    import json

    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


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
    from .analytic import decompose, uniform_instance

    return 2 * math.ceil(0.5 * math.pi / decompose(uniform_instance(n_items, 1)).phi)


# A heatmap call peaks at about 150 bytes per cell over start-up (JSON; 95 in
# CSV, 40 in PGM; Python 3.11), so the largest grid peaks near 330 MiB.  A cell
# costs about 0.7-1.0 us end to end in PGM, 1.6-3.2 us in JSON or CSV (2 shared cores).
HEATMAP_MAX_CELLS = 2**21


def heatmap_grid(n_items: int, n_max: int) -> list:
    """p(n, r) for n = 0..n_max (rows) and r = 1..N (columns), uniform case: each
    cell is `uniform_success_prob(v, n)` at the uniform start's v = sqrt(r/N)."""
    from .analytic import _rows, uniform_success_prob

    _rows(1, n_items)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if (n_max + 1) * n_items > HEATMAP_MAX_CELLS:
        raise ValueError(f"heatmap of {n_max + 1} x {n_items} cells exceeds {HEATMAP_MAX_CELLS}")
    vs = [math.sqrt(r / n_items) for r in range(1, n_items + 1)]
    return [[uniform_success_prob(v, n) for v in vs] for n in range(n_max + 1)]


def heatmap_to_pgm(grid) -> bytes:
    """Binary P5 image of the grid's rows; 255 = probability 1.

    Each pixel is round(255 p) for p clipped to [0, 1]: round() ties to even,
    as np.rint does.
    """
    header = f"P5\n{len(grid[0])} {len(grid)}\n255\n".encode("ascii")
    return header + bytes(
        round((0.0 if p < 0.0 else 1.0 if p > 1.0 else p) * 255.0) for row in grid for p in row
    )


SWEEP_COLUMNS = (
    "r",
    "k",
    "n_numeric",
    "n_formula",
    "cost_numeric",
    "cost_formula",
    "cost_exact_at_n_formula",
)


def _parallel_plans(dec, r: int, n_items: int, k: int):
    """(exact plan, closed-form plan, exact cost at the closed form's n_int).

    dec is the uniform start's `decompose(uniform_instance(n_items, r))`.  The
    last two are None where the closed form is out of validity (always for k < 2).
    """
    from .analytic import success_prob_analytic
    from .strategy import expected_cost, parallel_plan, parallel_plan_closed_form, parallel_success

    numeric = parallel_plan(dec, k)
    try:
        formula = parallel_plan_closed_form(r, n_items, k)
    except ValidityError:
        return numeric, None, None
    p = success_prob_analytic(dec, formula.n_int)
    return numeric, formula, expected_cost(formula.n_int, parallel_success(p, k))


# A plan costs about 0.1 ms at N = 2^40 (Python 3.11, 2 shared cores): 2 s at the cap.
SWEEP_MAX_PLANS = 2**14


def sweep_rows(n_items: int, r_max: int, k_max: int) -> list:
    """Numeric vs closed-form parallel optima for r = 1..r_max, k = 1..k_max.

    Each row is a tuple of the SWEEP_COLUMNS values in that order.  Formula
    columns are None for k < 2 (and whenever the closed form is out of
    validity); cost_exact_at_n_formula re-evaluates the exact cost at the
    rounded formula n so discrepancies between the two cost expressions are
    visible side by side.  Each r is decomposed once, for all k.
    """
    from .analytic import decompose, uniform_instance

    if r_max * k_max > SWEEP_MAX_PLANS:
        raise ValueError(f"parallel-sweep of {r_max} x {k_max} plans exceeds {SWEEP_MAX_PLANS}")
    rows = []
    for r in range(1, r_max + 1):
        dec = decompose(uniform_instance(n_items, r))
        for k in range(1, k_max + 1):
            numeric, formula, cost_exact = _parallel_plans(dec, r, n_items, k)
            rows.append((
                r, k,
                numeric.n_int, formula.n_opt if formula else None,
                numeric.expected_cost, formula.expected_cost if formula else None,
                cost_exact,
            ))
    return rows


# ---------------------------------------------------------------------------
# commands

SIMULATE_COLUMNS = (
    "n", "p_simulated", "p_analytic",
    "v", "phi", "alpha", "beta", "b", "psi", "w_t", "w_l",
)


# A simulate row peaks at about 1.1 KiB over start-up (JSON; 0.5 KiB in CSV;
# Python 3.11, numpy 2.4.6), so walking to the largest n peaks near 600 MiB.
SIMULATE_MAX_ITERATIONS = 2**19


def cmd_simulate(args: argparse.Namespace):
    from .analytic import decompose, success_prob_analytic

    lo, hi = _parse_iteration_range(args.iterations)
    if hi > SIMULATE_MAX_ITERATIONS:
        raise ValueError(f"--iterations must end at or below {SIMULATE_MAX_ITERATIONS}, got {hi}")
    r, targets = _resolve_targets(args)
    instance = _build_instance(args, r, targets)
    from .statevector import success_trajectory

    trajectory = success_trajectory(instance, hi, n_min=lo)

    dec = decompose(instance)
    dec_values = tuple(getattr(dec, name) for name in SIMULATE_COLUMNS[3:])
    ns = range(lo, hi + 1)
    values = zip(ns, trajectory, (success_prob_analytic(dec, n) for n in ns))
    if args.format == "csv":  # one row at a time, and no JSON rows
        return None, SIMULATE_COLUMNS, (row + dec_values for row in values)

    rows = [dict(zip(SIMULATE_COLUMNS[:3], row)) for row in values]
    payload = {
        "command": "simulate",
        "n_items": args.n_items,
        **_target_echo(r, targets),
        "start": args.start,
        "averaging": args.averaging,
        "decomposition": dict(zip(SIMULATE_COLUMNS[3:], dec_values)),
        "rows": rows,
    }
    return payload, SIMULATE_COLUMNS, None


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
    from .analytic import decompose, uniform_instance
    from .strategy import _check_agents, max_probability_cost, punctuated_plan

    _check_agents(args.agents, "--agents")
    r, _ = _resolve_targets(args)
    dec = decompose(uniform_instance(args.n_items, r))
    try:
        plan = punctuated_plan(dec.phi)
    except ValidityError:
        punct = None  # phi >= pi/2: outside the punctuated plan's model
    else:
        baseline = max_probability_cost(dec.phi)
        punct = dict(plan._asdict(), max_probability_cost=baseline,
                     speedup_ratio=plan.expected_cost / baseline)
    par_numeric = None
    par_closed = None
    if args.agents >= 2 or punct is None:
        numeric, formula, cost_exact = _parallel_plans(dec, r, args.n_items, args.agents)
        par_numeric = numeric._asdict()
        del par_numeric["n_opt"]  # an exact plan's n_opt is only float(n_int)
        if formula is not None:
            par_closed = dict(formula._asdict(), cost_exact_at_n=cost_exact)

    payload = {
        "command": "plan",
        "n_items": args.n_items,
        "r": r,
        "v": dec.v,
        "phi": dec.phi,
        "agents": args.agents,
        "punctuated": punct,
        "parallel_numeric": par_numeric,
        "parallel_closed_form": par_closed,
    }
    row = []
    for section, key in _PLAN_CELLS.values():
        values = payload[section] if section else payload
        row.append(values[key] if values else None)
    return payload, PLAN_COLUMNS, [row]


def cmd_heatmap(args: argparse.Namespace):
    n_max = (
        _parse_iteration_single(args.iterations)
        if args.iterations is not None
        else default_heatmap_n_max(args.n_items)
    )
    grid = heatmap_grid(args.n_items, n_max)
    columns = ["n"] + [f"r={r}" for r in range(1, args.n_items + 1)]
    payload = {
        "command": "heatmap",
        "n_items": args.n_items,
        "n_max": n_max,
        "grid": grid,
    }
    return payload, columns, ([n, *row] for n, row in enumerate(grid))


def cmd_parallel_sweep(args: argparse.Namespace):
    from .analytic import _rows
    from .strategy import _check_agents

    _check_agents(args.agents, "--agents")
    _rows(args.num_targets, args.n_items)  # every r of the sweep, before any plan
    rows = sweep_rows(args.n_items, args.num_targets, args.agents)
    if args.format == "csv":  # the value tuples, and no JSON rows
        return None, SWEEP_COLUMNS, rows
    payload = {
        "command": "parallel-sweep",
        "n_items": args.n_items,
        "r_max": args.num_targets,
        "k_max": args.agents,
        "rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows],
    }
    return payload, SWEEP_COLUMNS, None


MONTECARLO_COLUMNS = (
    "n_items", "r", "iterations", "agents", "trials", "seed", "p_round",
    "closed_form_cost", "mean", "stderr", "z", "agent_time_mean",
)


def cmd_montecarlo(args: argparse.Namespace):
    from .analytic import decompose, success_prob_analytic
    from .strategy import _MAX_N, _check_agents, expected_cost, parallel_plan, parallel_success

    # the run's own options are checked before the instance is built or Q steps
    _check_agents(args.agents, "--agents")
    _check_trials("--trials", args.trials)
    _check_seed("--seed", args.seed)
    n = None
    if args.iterations is not None:
        n = _parse_iteration_single(args.iterations)
        if not 1 <= n <= _MAX_N:  # the closed form's float n is exact up to 2^53
            raise ValueError(f"--iterations must lie in [1, 2^53] for montecarlo, got {n}")
    r, targets = _resolve_targets(args)
    dec = decompose(_build_instance(args, r, targets))
    if n is None:
        n = parallel_plan(dec, args.agents).n_int
    elif n * dec.phi > 2**22:  # the float phase 2 n phi - theta is off by up to n phi 2^-52
        raise ValueError(f"--iterations {n} has n*phi > 2^22, where p(n) may be off by over 2^-30")
    p = success_prob_analytic(dec, n)  # the p(n) the planner minimised
    closed = expected_cost(n, parallel_success(p, args.agents))
    from .montecarlo import run_parallel

    est = run_parallel(p, n, args.agents, args.trials, args.seed)
    z = (est.mean - closed) / est.stderr if est.stderr > 0 else None
    values = (n, args.agents, args.trials, args.seed, p, closed,
              est.mean, est.stderr, z, args.agents * est.mean)

    payload = {
        "command": "montecarlo",
        "n_items": args.n_items,
        **_target_echo(r, targets),
        **dict(zip(MONTECARLO_COLUMNS[2:], values)),
    }
    return payload, MONTECARLO_COLUMNS, [(args.n_items, r, *values)]


def _verify_checks(seed: int) -> list:
    """(name, measured, expected, tolerance) tuples for cmd_verify."""
    from .analytic import (decompose, first_maximum, rotation_angle, uniform_instance,
                           uniform_success_prob)
    from .statevector import _random_blocks, biham_mapping, from_blocks, success_trajectory
    from .strategy import optimal_x_single, punctuated_plan

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
    max_dev = max(abs(p - uniform_success_prob(0.25, n))
                  for n, p in enumerate(trajectory))
    checks.append(("grover_case_v_quarter_max_dev", max_dev, 0.0, 1e-10))
    dec = decompose(instance)
    n_first = first_maximum(dec)
    checks.append(
        (
            "grover_first_max_dev",
            abs(n_first - (0.5 * math.pi / dec.phi - 0.5)),
            0.0,
            1e-9,
        )
    )

    norm_dev = alpha_dev = beta_dev = 0.0
    n_items = 64
    r_cycle = (1, 4, 16)
    for i in range(20):
        r = r_cycle[i % 3]
        start = next(_random_blocks(n_items, seed + i))  # at N = 64, the whole state
        mapping = biham_mapping(start, r)  # a count: the targets 0..r-1
        total = (
            r * abs(mapping.k_bar) ** 2
            + r * mapping.sigma_k**2
            + (n_items - r) * abs(mapping.l_bar) ** 2
            + (n_items - r) * mapping.sigma_l**2
        )
        norm_dev = max(norm_dev, abs(total - 1.0))
        dec_i = decompose(from_blocks(r, n_items, None, [start]))
        alpha_dev = max(alpha_dev, abs(dec_i.alpha - abs(mapping.k_bar) * math.sqrt(r)))
        beta_dev = max(
            beta_dev, abs(dec_i.beta - abs(mapping.l_bar) * math.sqrt(n_items - r))
        )
    checks.append(("mean_amplitude_normalization_max_dev", norm_dev, 0.0, 1e-10))
    checks.append(("alpha_vs_mean_target_amplitude_max_dev", alpha_dev, 0.0, 1e-10))
    checks.append(("beta_vs_mean_other_amplitude_max_dev", beta_dev, 0.0, 1e-10))
    return checks


def cmd_verify(args: argparse.Namespace):
    checks = _verify_checks(_check_seed("--seed", args.seed))
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
        "--num-targets", type=_int, metavar="R",
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
        "rotation-plane decomposition; n runs to at most "
        f"{SIMULATE_MAX_ITERATIONS}. CSV columns: " + ",".join(SIMULATE_COLUMNS),
    )
    p_sim.add_argument("--n-items", type=_int, required=True, metavar="N")
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
    p_plan.add_argument("--n-items", type=_int, required=True, metavar="N")
    _add_target_args(p_plan)
    p_plan.add_argument(
        "--agents", type=_int, default=1, metavar="K",
        help="agent count; K >= 2, or r/N >= 1/2, adds the parallel plans "
        "(default %(default)s)",
    )
    _add_output_args(p_plan, ["json", "csv"])

    p_heat = sub.add_parser(
        "heatmap",
        help="success-probability grid p(n, r), uniform search",
        description="Grid rows are n = 0..n_max, columns r = 1..N, at most "
        f"{HEATMAP_MAX_CELLS} cells. --iterations sets n_max (default: two r=1 periods). "
        "CSV columns: n,r=1,...,r=N. PGM is binary P5, maxval 255.",
    )
    p_heat.add_argument("--n-items", type=_int, default=64, metavar="N")
    p_heat.add_argument(
        "--iterations", default=None, metavar="NMAX", help="largest iteration count"
    )
    _add_output_args(p_heat, ["json", "csv", "pgm"])

    p_sweep = sub.add_parser(
        "parallel-sweep",
        help="numeric vs closed-form parallel optima over (r, k)",
        description="Sweeps r = 1..R (via --num-targets) and k = 1..K (via --agents), "
        f"at most {SWEEP_MAX_PLANS} (r, k) plans. Formula columns are empty "
        "for k < 2. CSV columns: " + ",".join(SWEEP_COLUMNS),
    )
    p_sweep.add_argument("--n-items", type=_int, default=2**20, metavar="N")
    p_sweep.add_argument(
        "--num-targets", type=_int, default=5, metavar="R", help="largest r (default %(default)s)"
    )
    p_sweep.add_argument(
        "--agents", type=_int, default=64, metavar="K", help="largest k (default %(default)s)"
    )
    _add_output_args(p_sweep, ["json", "csv"])

    p_mc = sub.add_parser(
        "montecarlo",
        help="seeded restart experiment vs the closed-form cost",
        description="Races k agents (--agents) per round, each a coin that "
        "succeeds with p, the closed-form target weight of Q^n|s>; k = 1 "
        "is punctuated search. Default --iterations: the exact n / P_k(n) "
        "optimum for --start and --agents; at most 2^53, with n*phi at most "
        "2^22 so that p(n) is within 2^-30. Before the first draw, a run of T "
        "trials is refused where a trial may need more than 10^9 rounds, T (1 - "
        "P_k)^(10^9) >= 2^-30, and where it would take more than 2^24 steps, "
        "ln(T P_k) / -ln(1 - P_k) rounds plus min(T, 1 / P_k) trials. "
        "CSV columns: " + ",".join(MONTECARLO_COLUMNS),
    )
    p_mc.add_argument("--n-items", type=_int, required=True, metavar="N")
    _add_target_args(p_mc)
    _add_state_args(p_mc)
    p_mc.add_argument("--iterations", default=None, metavar="N")
    p_mc.add_argument("--agents", type=_int, default=1, metavar="K")
    p_mc.add_argument("--trials", type=_int, default=100_000, metavar="T")
    p_mc.add_argument("--seed", type=_int, default=0, metavar="S")
    _add_output_args(p_mc, ["json", "csv"])

    p_verify = sub.add_parser(
        "verify",
        help="run the special-case identity and constant checks",
        description="Prints one line per check with measured vs expected; "
        "exit status 0 iff all pass.",
    )
    p_verify.add_argument("--seed", type=_int, default=0, metavar="S")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a last resort, not a size guard
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
