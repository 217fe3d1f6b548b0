"""Tests of the benchmark's output checks: each check passes an output
built from the reference formulas and flags the same output made wrong.

Run with:  python3 -m pytest perfbench/test_checks.py
"""

import json
import math

import numpy as np

from checks import (
    Result,
    brute_parallel,
    check_domain_error,
    check_heatmap_csv,
    check_heatmap_pgm,
    check_montecarlo,
    check_plan,
    check_simulate,
    check_sweep,
    check_verify,
    dense_trajectory,
    exact_parallel_cost,
    matrix_trajectory,
    random_start,
    run_check,
    tan_half_root,
    uniform_p,
)

N20 = 2**20
X_STAR = tan_half_root()


def ok(stdout, out_bytes=None):
    return Result(0, stdout, "", out_bytes)


def csv_text(rows):
    cols = list(rows[0])
    lines = [",".join(cols)]
    lines += [",".join("" if row[c] is None else repr(row[c]) for c in cols) for row in rows]
    return "\n".join(lines) + "\n"


def test_references_agree():
    assert abs(X_STAR - math.tan(0.5 * X_STAR)) < 1e-12
    assert abs(X_STAR - 2.3311) < 1e-4
    start = random_start(64, 3)
    assert np.allclose(dense_trajectory(start, (3, 17, 40), 30),
                       matrix_trajectory(start, (3, 17, 40), 30), atol=1e-12)
    uniform = np.full(64, 1 / 8.0)
    assert np.allclose(dense_trajectory(uniform, (0, 1), 20),
                       uniform_p(np.arange(21), 2, 64), atol=1e-12)


def test_domain_error():
    assert check_domain_error(Result(2, "", "error: state norm is nan\n")) == []
    assert check_domain_error(Result(0, "{}", ""))
    assert check_domain_error(Result(2, "", ""))


def plan_payload(k, n_cf_shift=0):
    phi = 2 * math.asin(math.sqrt(1 / N20))
    n_opt = X_STAR / (2 * phi)
    n_int = round(n_opt)
    p = math.sin(n_int * phi) ** 2
    payload = {
        "n_items": N20, "r": 1, "phi": phi, "agents": k,
        "punctuated": {
            "n_opt": n_opt, "n_int": n_int, "expected_cost": n_int / p,
            "stddev_alt": 0.0, "stddev_geometric": n_int * math.sqrt(1 - p) / p,
            "max_probability_cost": 0.5 * math.pi / phi, "speedup_ratio": 0.88,
        },
        "parallel_numeric": None, "parallel_closed_form": None,
    }
    if k >= 2:
        n_best, c_best = brute_parallel(1, N20, k)
        n_cf = n_best + n_cf_shift
        payload["parallel_numeric"] = {"n_int": n_best, "expected_cost": c_best}
        payload["parallel_closed_form"] = {
            "n_int": n_cf, "cost_exact_at_n": exact_parallel_cost(n_cf, 1, N20, k)}
    return payload


def test_plan():
    assert check_plan(ok(json.dumps(plan_payload(1))), N20, 1, 1, X_STAR) == []
    assert check_plan(ok(json.dumps(plan_payload(4))), N20, 1, 4, X_STAR) == []
    bad = plan_payload(1)
    bad["punctuated"]["n_int"] += 1
    assert check_plan(ok(json.dumps(bad)), N20, 1, 1, X_STAR)
    bad = plan_payload(1)
    bad["punctuated"]["n_opt"] = 2.3311 / (4 * math.asin(math.sqrt(1 / N20)))
    assert check_plan(ok(json.dumps(bad)), N20, 1, 1, X_STAR)
    bad = plan_payload(4)
    n = bad["parallel_numeric"]["n_int"] - 40
    bad["parallel_numeric"] = {"n_int": n, "expected_cost": exact_parallel_cost(n, 1, N20, 4)}
    assert check_plan(ok(json.dumps(bad)), N20, 1, 4, X_STAR)
    # A closed-form n far from the optimum costs more than 1% extra.
    assert check_plan(ok(json.dumps(plan_payload(4, n_cf_shift=200))), N20, 1, 4, X_STAR)


def heatmap_rows(n_items, n_max):
    rows = []
    for n in range(n_max + 1):
        row = {"n": n}
        row.update({f"r={r}": float(uniform_p(n, r, n_items)) for r in range(1, n_items + 1)})
        rows.append(row)
    return rows


def test_heatmap_csv():
    rows = heatmap_rows(16, 12)
    assert check_heatmap_csv(ok(csv_text(rows)), 16) == []
    rows[5]["r=3"] += 1e-9
    assert check_heatmap_csv(ok(csv_text(rows)), 16)
    assert check_heatmap_csv(ok(csv_text(heatmap_rows(16, 1))), 16)  # stops too early


def pgm_bytes(n_items, height, bump=0):
    grid = uniform_p(np.arange(height)[:, None], np.arange(1, n_items + 1), n_items)
    pixels = np.rint(grid * 255).astype(np.uint8)
    pixels[height // 2, 1] = (int(pixels[height // 2, 1]) + bump) % 256
    return f"P5\n{n_items} {height}\n255\n".encode() + pixels.tobytes()


def test_heatmap_pgm():
    assert check_heatmap_pgm(ok("", pgm_bytes(16, 13)), 16) == []
    assert check_heatmap_pgm(ok("", pgm_bytes(16, 13, bump=2)), 16)
    assert check_heatmap_pgm(ok("", pgm_bytes(16, 13)[:-1]), 16)
    assert check_heatmap_pgm(ok("", pgm_bytes(16, 13).replace(b"P5", b"P2")), 16)
    assert check_heatmap_pgm(ok("", pgm_bytes(8, 13)), 16)


def verify_text(x, status="PASS"):
    return (f"optimal_x_single = {x:.10g} (expected 2.3311 +/- 0.0001): PASS\n"
            f"k1_reduction_max_dev = 0 (expected 0 +/- 1e-12): {status}\n"
            "all checks passed\n")


def test_verify():
    assert check_verify(ok(verify_text(X_STAR)), X_STAR) == []
    assert check_verify(ok(verify_text(X_STAR + 1e-6)), X_STAR)
    assert check_verify(ok(verify_text(X_STAR, "FAIL")), X_STAR)
    assert check_verify(Result(1, verify_text(X_STAR), ""), X_STAR)


def test_simulate():
    probs = dense_trajectory(random_start(64, 5), (3, 17, 40), 10)
    rows = [{"n": n, "p_simulated": float(p), "p_analytic": float(p)} for n, p in enumerate(probs)]
    assert check_simulate(ok(json.dumps({"rows": rows})), probs, 0) == []
    assert check_simulate(ok(csv_text(rows)), probs, 0) == []
    rows[4]["p_analytic"] += 1e-6
    assert check_simulate(ok(json.dumps({"rows": rows})), probs, 0)
    assert check_simulate(ok(json.dumps({"rows": rows[:-1]})), probs, 0)
    rows[4]["p_analytic"] = float("nan")
    assert check_simulate(ok(json.dumps({"rows": rows})), probs, 0)


def sweep_rows(r_max, k_max):
    rows = []
    for r in range(1, r_max + 1):
        for k in range(1, k_max + 1):
            n, cost = brute_parallel(r, N20, k)
            n_formula = None if k == 1 else n + 0.3
            rows.append({
                "r": r, "k": k, "n_numeric": n, "n_formula": n_formula,
                "cost_numeric": cost, "cost_formula": None if k == 1 else cost,
                "cost_exact_at_n_formula": None if k == 1 else exact_parallel_cost(n, r, N20, k),
            })
    return rows


def test_sweep():
    scanned = {(2, 3)}
    rows = sweep_rows(2, 3)
    assert check_sweep(ok(csv_text(rows)), N20, 2, 3, scanned) == []
    assert check_sweep(ok(csv_text(rows[:-1])), N20, 2, 3, scanned)
    worse = [dict(row) for row in rows]
    n = worse[-1]["n_numeric"] + 30
    worse[-1].update(n_numeric=n, cost_numeric=exact_parallel_cost(n, 2, N20, 3))
    assert check_sweep(ok(csv_text(worse)), N20, 2, 3, scanned)
    wrong = [dict(row) for row in rows]
    wrong[1]["cost_exact_at_n_formula"] *= 1.001
    assert check_sweep(ok(csv_text(wrong)), N20, 2, 3, scanned)
    wrong = [dict(row) for row in rows]
    wrong[0]["n_formula"] = 5.0
    assert check_sweep(ok(csv_text(wrong)), N20, 2, 3, scanned)


def mc_payload(probs, n, agents, trials, mean_shift=0.0, sd_scale=1.0):
    p = float(probs[n])
    pk = 1 - (1 - p) ** agents
    closed = n / pk
    stderr = sd_scale * n * math.sqrt(1 - pk) / (pk * math.sqrt(trials))
    mean = closed + mean_shift * stderr
    return {"iterations": n, "agents": agents, "trials": trials, "p_round": p,
            "closed_form_cost": closed, "mean": mean, "stderr": stderr,
            "z": (mean - closed) / stderr, "agent_time_mean": agents * mean}


def test_montecarlo():
    probs = uniform_p(np.arange(101), 1, 4096)
    good = mc_payload(probs, 37, 1, 1000, mean_shift=1.5)
    assert check_montecarlo(ok(json.dumps(good)), probs, 100, 1, 1000) == []
    assert check_montecarlo(ok(json.dumps(mc_payload(probs, 5, 8, 1000))), probs, 100, 8, 1000) == []
    for bad in (
        mc_payload(probs, 37, 1, 1000, mean_shift=6.0),   # estimate 6 standard errors off
        mc_payload(probs, 37, 1, 1000, sd_scale=2.0),     # standard error twice too large
        mc_payload(probs, 37, 1, 1000, sd_scale=0.1),     # ... or ten times too small
        mc_payload(probs, 90, 1, 1000),                   # default n far from the cheapest
        dict(good, closed_form_cost=37 / probs[36]),      # cost from the wrong n
        dict(good, p_round=float(probs[37]) * 1.01),
        dict(good, agent_time_mean=2 * good["mean"]),
    ):
        assert check_montecarlo(ok(json.dumps(bad)), probs, 100, 1, 1000), bad
    coin = mc_payload(probs, 5, 8, 1000)
    coin["closed_form_cost"] = 5 / probs[5]  # single-agent cost reported for 8 agents
    assert check_montecarlo(ok(json.dumps(coin)), probs, 100, 8, 1000)
    general = dense_trajectory(random_start(4096, 7), (3, 17, 40), 59)
    assert check_montecarlo(ok(json.dumps(mc_payload(general, 22, 1, 300))), general, 59, 1, 300)
    assert check_montecarlo(ok(json.dumps(mc_payload(general, 1, 1, 300))), general, 59, 1, 300) == []
    assert check_montecarlo(ok(json.dumps(dict(good, mean=float("nan")))), probs, 100, 1, 1000)
    assert run_check(lambda res: check_montecarlo(res, probs, 100, 1, 1000), ok("not json"))
    assert run_check(lambda res: check_montecarlo(res, probs, 100, 1, 1000), ok("{}"))
