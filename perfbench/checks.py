"""Output checks for the benchmark, with reference answers computed here.

Nothing in this module imports gqsearch.  Every expected value comes from
the paper's formulas or from a plain numpy evolution written out below, so
a fault in the program cannot hide by also being in the reference.  Each
``check_*`` function takes a :class:`Result` and returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Result:
    """What one CLI call left behind."""

    code: int
    stdout: str
    stderr: str
    out_bytes: bytes | None = None


# ---------------------------------------------------------------------------
# reference computations


def tan_half_root(tol: float = 1e-15) -> float:
    """Lowest positive root of x = tan(x/2), by bisection on (pi/2, pi)."""
    lo, hi = 0.5 * math.pi * 1.001, math.pi * 0.999  # f(lo) > 0 > f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid - math.tan(0.5 * mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def uniform_p(n, r, n_items: int):
    """sin^2((2n+1) asin(sqrt(r/N))): uniform start and averaging states."""
    half = np.arcsin(np.sqrt(np.asarray(r, dtype=float) / n_items))
    return np.sin((2.0 * np.asarray(n, dtype=float) + 1.0) * half) ** 2


def parallel_p(p, k: int):
    """1 - (1-p)^k, the chance that one of k agents succeeds."""
    return 1.0 - (1.0 - np.asarray(p, dtype=float)) ** k


def exact_parallel_cost(n: int, r: int, n_items: int, k: int) -> float:
    return n / float(parallel_p(uniform_p(n, r, n_items), k))


def brute_parallel(r: int, n_items: int, k: int):
    """(n, cost) minimizing n/(1-(1-p(n))^k) over every integer n >= 1 up
    to ceil(pi/4 sqrt(N/r)), where p(n) first peaks."""
    n_hi = math.ceil(0.25 * math.pi * math.sqrt(n_items / r))
    ns = np.arange(1, n_hi + 1)
    costs = ns / parallel_p(uniform_p(ns, r, n_items), k)
    best = int(np.argmin(costs))
    return int(ns[best]), float(costs[best])


def random_start(n_items: int, seed: int) -> np.ndarray:
    """The state `--start random:<seed>` names: complex Gaussian components
    drawn from numpy's default_rng(seed), real parts first, normalized."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_items) + 1j * rng.standard_normal(n_items)
    return z / np.linalg.norm(z)


def dense_trajectory(start: np.ndarray, targets, n_max: int) -> np.ndarray:
    """Target probability after n = 0..n_max steps of Q, averaging state
    uniform: flip the target signs, then reflect about the mean amplitude."""
    psi = np.array(start, dtype=np.complex128)
    idx = np.asarray(targets, dtype=np.intp)
    probs = np.empty(n_max + 1)
    probs[0] = float(np.sum(np.abs(psi[idx]) ** 2))
    for n in range(1, n_max + 1):
        psi[idx] = -psi[idx]
        psi = 2.0 * psi.mean() - psi
        probs[n] = float(np.sum(np.abs(psi[idx]) ** 2))
    return probs


def matrix_trajectory(start: np.ndarray, targets, n_max: int) -> np.ndarray:
    """Same as dense_trajectory, from the explicit N x N matrix
    Q = (2|a><a| - 1)(1 - 2 sum_t |t><t|) with |a> uniform."""
    n_items = start.size
    a = np.full(n_items, 1.0 / math.sqrt(n_items))
    oracle = np.eye(n_items)
    for t in targets:
        oracle[t, t] = -1.0
    q = (2.0 * np.outer(a, a) - np.eye(n_items)) @ oracle
    psi = np.array(start, dtype=np.complex128)
    probs = np.empty(n_max + 1)
    for n in range(n_max + 1):
        probs[n] = float(np.sum(np.abs(psi[list(targets)]) ** 2))
        psi = q @ psi
    return probs


def write_state(path: str, state: np.ndarray) -> None:
    """The CLI's state file format: N, then one 're im' line per amplitude."""
    lines = [str(state.size)]
    lines.extend(f"{float(z.real)!r} {float(z.imag)!r}" for z in state)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# parsing


def _close(got, want, rel=0.0, abs_=0.0) -> bool:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return math.isfinite(got) and abs(got - want) <= max(abs_, rel * abs(want))


def _json(res: Result):
    return json.loads(res.stdout)


def _csv(res: Result) -> list:
    return list(csv.DictReader(io.StringIO(res.stdout)))


def _num(text):
    """CSV cell to float; the empty cell is None."""
    return None if text in ("", None) else float(text)


def _status(res: Result, want: int = 0) -> list:
    if res.code != want:
        return [f"exit code {res.code}, expected {want}: {res.stderr.strip()[:200]}"]
    return []


def _parsed(res: Result, parse):
    """(value, problems): the parsed output, or the exit-code problem."""
    problems = _status(res)
    return (None, problems) if problems else (parse(res), [])


def run_check(check, res: Result) -> list:
    """check(res), with an output it cannot read counted as a problem."""
    try:
        return check(res)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# checks


def check_domain_error(res: Result) -> list:
    """An invalid input ends with exit code 2 and a message on stderr."""
    problems = _status(res, 2)
    if not res.stderr.strip():
        problems.append("no message on stderr")
    return problems


def check_verify(res: Result, x_star: float) -> list:
    problems = _status(res)
    lines = res.stdout.strip().splitlines()
    if not lines or lines[-1] != "all checks passed":
        problems.append("last line is not 'all checks passed'")
    for line in lines[:-1]:
        if not line.endswith(": PASS"):
            problems.append(f"check line not passing: {line}")
        if line.startswith("optimal_x_single = "):
            got = float(line.split()[2])
            if not _close(got, x_star, abs_=1e-8):
                problems.append(f"optimal_x_single {got} != bisection root {x_star}")
    if not any(line.startswith("optimal_x_single = ") for line in lines):
        problems.append("no optimal_x_single line")
    return problems


def plan_fields(res: Result) -> dict:
    """A plan output, JSON or CSV, as the flat CSV row."""
    if res.stdout.lstrip().startswith("{"):
        d = _json(res)
        punct, num, cf = d["punctuated"], d["parallel_numeric"], d["parallel_closed_form"]
        flat = {"n_items": d["n_items"], "r": d["r"], "phi": d["phi"], "agents": d["agents"]}
        flat.update({f"punct_{k}": v for k, v in punct.items() if k != "max_probability_cost"})
        flat["max_probability_cost"] = punct["max_probability_cost"]
        flat["par_num_n"] = num["n_int"] if num else None
        flat["par_num_cost"] = num["expected_cost"] if num else None
        flat["par_cf_n_int"] = cf["n_int"] if cf else None
        flat["par_cf_cost_exact"] = cf["cost_exact_at_n"] if cf else None
        return flat
    (row,) = _csv(res)
    return {key: (int(v) if key in ("n_items", "r", "agents", "punct_n_int",
                                    "par_num_n", "par_cf_n_int") and v else _num(v))
            for key, v in row.items()}


def check_plan(res: Result, n_items: int, r: int, k: int, x_star: float) -> list:
    """Punctuated plan from x* by bisection under the plan's model
    p(n) = sin^2(n phi); parallel optima against an integer scan."""
    f, problems = _parsed(res, plan_fields)
    if f is None:
        return problems
    phi = 2.0 * math.asin(math.sqrt(r / n_items))
    n_opt = x_star / (2.0 * phi)
    n_int = max(1, round(n_opt))
    p = math.sin(n_int * phi) ** 2
    want = {
        "phi": phi,
        "punct_n_opt": n_opt,
        "punct_expected_cost": n_int / p,
        "punct_stddev_geometric": n_int * math.sqrt(1.0 - p) / p,
        "max_probability_cost": 0.5 * math.pi / phi,
    }
    for key, value in want.items():
        if not _close(f.get(key), value, rel=1e-9):
            problems.append(f"{key} = {f.get(key)}, expected {value}")
    if f.get("punct_n_int") != n_int:
        problems.append(f"punct_n_int = {f.get('punct_n_int')}, expected {n_int}")
    if k < 2:
        if f.get("par_num_n") is not None:
            problems.append("parallel plan reported for one agent")
        return problems
    n_best, c_best = brute_parallel(r, n_items, k)
    n_num, n_cf = f.get("par_num_n"), f.get("par_cf_n_int")
    if not n_num or not n_cf:
        return problems + ["parallel plans missing"]
    c_num = exact_parallel_cost(n_num, r, n_items, k)
    if not _close(f.get("par_num_cost"), c_num, rel=1e-9):
        problems.append(f"par_num_cost {f.get('par_num_cost')} != exact {c_num} at n={n_num}")
    if c_num > c_best * (1.0 + 1e-9):
        problems.append(f"numeric optimum n={n_num} costs {c_num}, scan finds {c_best} at n={n_best}")
    c_cf = exact_parallel_cost(n_cf, r, n_items, k)
    if not _close(f.get("par_cf_cost_exact"), c_cf, rel=1e-9):
        problems.append(f"par_cf_cost_exact {f.get('par_cf_cost_exact')} != exact {c_cf}")
    if c_cf > 1.01 * c_best:
        problems.append(f"closed-form n={n_cf} costs {c_cf}, over 1% above the scan's {c_best}")
    return problems


def check_heatmap_csv(res: Result, n_items: int) -> list:
    rows, problems = _parsed(res, _csv)
    if rows is None:
        return problems
    phi1 = 2.0 * math.asin(math.sqrt(1.0 / n_items))
    if len(rows) < 0.5 * math.pi / phi1:
        problems.append(f"{len(rows)} rows stop before the first r=1 peak")
    rs = np.arange(1, n_items + 1)
    for i, row in enumerate(rows):
        if int(row["n"]) != i:
            return problems + [f"row {i} is labelled n={row['n']}"]
        got = np.array([float(row[f"r={r}"]) for r in rs])
        want = uniform_p(i, rs, n_items)
        bad = np.flatnonzero(np.abs(got - want) > 1e-12)
        if bad.size:
            j = int(bad[0])
            problems.append(f"cell n={i}, r={j + 1}: {got[j]} != {want[j]}")
    return problems


def check_heatmap_pgm(res: Result, n_items: int) -> list:
    problems = _status(res)
    data = res.out_bytes or b""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        return problems + [f"bad PGM header {data[:20]!r}"]
    width, height = (int(x) for x in parts[1].split())
    if width != n_items:
        problems.append(f"PGM width {width}, expected {n_items}")
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    if pixels.size != width * height:
        return problems + [f"PGM holds {pixels.size} pixels, header says {width}x{height}"]
    want = 255.0 * uniform_p(np.arange(height)[:, None], np.arange(1, width + 1), n_items)
    off = np.abs(pixels.reshape(height, width) - want)
    if off.max() > 0.5 + 1e-9:
        n, r = np.unravel_index(int(np.argmax(off)), off.shape)
        problems.append(f"pixel n={n}, r={r + 1} is {pixels.reshape(height, width)[n, r]}, "
                        f"expected {want[n, r]:.3f}")
    return problems


def simulate_rows(res: Result) -> list:
    if res.stdout.lstrip().startswith("{"):
        return _json(res)["rows"]
    return [{"n": int(row["n"]), "p_simulated": float(row["p_simulated"]),
             "p_analytic": float(row["p_analytic"])} for row in _csv(res)]


def check_simulate(res: Result, probs: np.ndarray, lo: int, tol: float = 1e-9) -> list:
    """p_simulated and p_analytic for n = lo..len(probs)-1 against probs."""
    rows, problems = _parsed(res, simulate_rows)
    if rows is None:
        return problems
    if [row["n"] for row in rows] != list(range(lo, probs.size)):
        return problems + [f"rows cover n={rows[0]['n'] if rows else None}.., "
                           f"expected {lo}..{probs.size - 1}"]
    for row in rows:
        for key in ("p_simulated", "p_analytic"):
            if not _close(row[key], probs[row["n"]], abs_=tol):
                problems.append(f"{key} at n={row['n']} is {row[key]}, expected {probs[row['n']]}")
                break
    return problems


def check_sweep(res: Result, n_items: int, r_max: int, k_max: int, scanned) -> list:
    """Every row's costs against the exact cost at its n; the rows in
    `scanned` also against an integer scan for the optimum."""
    rows, problems = _parsed(res, _csv)
    if rows is None:
        return problems
    keys = [(int(row["r"]), int(row["k"])) for row in rows]
    if keys != [(r, k) for r in range(1, r_max + 1) for k in range(1, k_max + 1)]:
        return problems + ["rows do not cover r = 1..R, k = 1..K in order"]
    for row, (r, k) in zip(rows, keys):
        n_num = int(row["n_numeric"])
        c_num = exact_parallel_cost(n_num, r, n_items, k)
        if not _close(_num(row["cost_numeric"]), c_num, rel=1e-9):
            problems.append(f"r={r} k={k}: cost_numeric {row['cost_numeric']} != exact {c_num}")
        n_formula = _num(row["n_formula"])
        if k == 1:
            if n_formula is not None:
                problems.append(f"r={r} k=1 has formula columns")
            continue
        if n_formula is None:
            problems.append(f"r={r} k={k} lacks formula columns")
            continue
        c_cf = exact_parallel_cost(round(n_formula), r, n_items, k)
        if not _close(_num(row["cost_exact_at_n_formula"]), c_cf, rel=1e-9):
            problems.append(f"r={r} k={k}: cost_exact_at_n_formula "
                            f"{row['cost_exact_at_n_formula']} != exact {c_cf}")
        if (r, k) in scanned:
            n_best, c_best = brute_parallel(r, n_items, k)
            if c_num > c_best * (1.0 + 1e-9):
                problems.append(f"r={r} k={k}: n_numeric={n_num} costs {c_num}, "
                                f"scan finds {c_best} at n={n_best}")
    return problems


def check_montecarlo(res: Result, probs: np.ndarray, period: int, agents: int,
                     trials: int) -> list:
    """Closed-form cost n/p_k with p_k = 1-(1-p)^k, the estimate within five
    standard errors of it, the standard error near n sqrt(1-p_k)/(p_k sqrt T),
    and, for one agent, the default n within 1% of the cheapest n over one
    period of p(n).  probs[n] is the exact p(n) for n = 0..period."""
    d, problems = _parsed(res, _json)
    if d is None:
        return problems
    n = d["iterations"]
    if not 1 <= n <= period:
        return problems + [f"iterations {n} outside 1..{period}"]
    p = float(probs[n])
    pk = float(parallel_p(p, agents))
    closed = n / pk
    if not _close(d["p_round"], p, abs_=1e-9):
        problems.append(f"p_round {d['p_round']} != {p}")
    if not _close(d["closed_form_cost"], closed, rel=1e-9):
        problems.append(f"closed_form_cost {d['closed_form_cost']} != n/p_k = {closed}")
    if d["trials"] != trials or d["agents"] != agents:
        problems.append("trials or agents differ from the request")
    sd = n * math.sqrt(1.0 - pk) / (pk * math.sqrt(trials))
    if not _close(d["stderr"], sd, rel=0.25):
        problems.append(f"stderr {d['stderr']} is not within 25% of {sd}")
    z = (d["mean"] - closed) / d["stderr"] if d["stderr"] else math.inf
    if not abs(z) <= 5.0 or not _close(d["z"], z, rel=1e-6, abs_=1e-9):
        problems.append(f"z = {d['z']} (recomputed {z}) is not within 5")
    if not _close(d["agent_time_mean"], agents * d["mean"], rel=1e-12):
        problems.append("agent_time_mean != agents * mean")
    if agents == 1:
        ns = np.arange(1, period + 1)
        costs = ns / np.maximum(probs[1:period + 1], 1e-300)
        best = int(np.argmin(costs))
        if n / p > 1.01 * costs[best]:
            problems.append(f"default n={n} costs {n / p:.6g}; "
                            f"n={ns[best]} costs {costs[best]:.6g}")
    return problems
