"""The benchmark's workloads: fixed lists of gqsearch CLI calls.

Each workload is built from the benchmark seed and a work directory.  The
seed picks random start states, target indices and Monte Carlo seeds; it
never changes a problem size, so every seed costs the same work.  Reference
answers are computed here once per run, before any call is timed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (
    Result,
    check_domain_error,
    check_heatmap_csv,
    check_heatmap_pgm,
    check_montecarlo,
    check_plan,
    check_simulate,
    check_sweep,
    check_verify,
    dense_trajectory,
    matrix_trajectory,
    random_start,
    tan_half_root,
    uniform_p,
    write_state,
)

@dataclass
class Op:
    """One CLI call: `gqsearch <args>`, and the check of what it left."""

    name: str
    args: list
    check: Callable[[Result], list]
    out: str | None = None  # the file the call writes through --out
    fault: str | None = None  # the known program fault this call shows


def _period(r: int, n_items: int) -> int:
    """Iterations in one period of p(n), pi/phi with phi = 2 asin(sqrt(r/N))."""
    return math.ceil(math.pi / (2.0 * math.asin(math.sqrt(r / n_items))))


def _uniform_probs(r: int, n_items: int) -> np.ndarray:
    return uniform_p(np.arange(_period(r, n_items) + 1), r, n_items)


def figures(rng: np.random.Generator, work: str) -> list:
    """The paper's tables and figure data, through short CLI calls."""
    x_star = tan_half_root()
    n20, n40 = 2**20, 2**40
    sim_seed = int(rng.integers(1, 2**31))
    targets64 = (3, 17, 40)
    probs64 = matrix_trajectory(random_start(64, sim_seed), targets64, 40)
    pgm = os.path.join(work, "heatmap.pgm")
    nan_state = os.path.join(work, "nan_state.txt")
    with open(nan_state, "w", encoding="ascii") as fh:
        fh.write("4\n0.5 0\nnan 0\n0.5 0\n0.5 0\n")
    scanned = {(1, 1), (2, 9), (5, 16)}
    return [
        Op("plan-k1", ["plan", "--n-items", str(n20), "--num-targets", "1"],
           lambda res: check_plan(res, n20, 1, 1, x_star)),
        Op("plan-k4", ["plan", "--n-items", str(n20), "--num-targets", "1",
                       "--agents", "4", "--format", "csv"],
           lambda res: check_plan(res, n20, 1, 4, x_star)),
        Op("heatmap-csv", ["heatmap", "--n-items", "64", "--format", "csv"],
           lambda res: check_heatmap_csv(res, 64)),
        Op("heatmap-pgm", ["heatmap", "--n-items", "64", "--format", "pgm", "--out", pgm],
           lambda res: check_heatmap_pgm(res, 64), out=pgm),
        Op("verify", ["verify", "--seed", str(sim_seed)],
           lambda res: check_verify(res, x_star)),
        Op("simulate-64", ["simulate", "--n-items", "64", "--targets", "3,17,40",
                           "--start", f"random:{sim_seed}", "--iterations", "0..40"],
           lambda res: check_simulate(res, probs64, 0)),
        Op("parallel-sweep", ["parallel-sweep", "--n-items", str(n40), "--num-targets", "5",
                              "--agents", "16", "--format", "csv"],
           lambda res: check_sweep(res, n40, 5, 16, scanned)),
        # A state with a NaN amplitude must be refused.  Fixed input, so the
        # call fails the same way on every seed while the fault stands.
        Op("simulate-nan", ["simulate", "--n-items", "4", "--num-targets", "1",
                            "--start", f"file:{nan_state}"],
           check_domain_error, fault="nan-start"),
    ]


def evolve(rng: np.random.Generator, work: str) -> list:
    """Dense evolution at large N: Q steps dominate every call."""
    n_mc, r_mc, trials = 2**20, 16, 3000
    n_sim, n_max = 2**18, 300
    mc_seed = int(rng.integers(1, 2**31))
    sim_seed = int(rng.integers(1, 2**31))
    targets = tuple(int(t) for t in np.sort(rng.choice(n_sim, size=3, replace=False)))
    target_arg = ",".join(map(str, targets))
    z = rng.standard_normal(n_sim) + 1j * rng.standard_normal(n_sim)
    state = z / np.linalg.norm(z)
    state_path = os.path.join(work, "start_state.txt")
    write_state(state_path, state)
    probs_random = dense_trajectory(random_start(n_sim, sim_seed), targets, n_max)
    probs_file = dense_trajectory(state, targets, n_max)
    probs_mc = _uniform_probs(r_mc, n_mc)
    sim = ["simulate", "--n-items", str(n_sim), "--targets", target_arg,
           "--iterations", f"0..{n_max}"]
    return [
        Op("montecarlo-born", ["montecarlo", "--n-items", str(n_mc), "--num-targets", str(r_mc),
                               "--trials", str(trials), "--seed", str(mc_seed)],
           lambda res: check_montecarlo(res, probs_mc, probs_mc.size - 1, 1, trials)),
        Op("simulate-random", sim + ["--start", f"random:{sim_seed}", "--format", "csv"],
           lambda res: check_simulate(res, probs_random, 0)),
        Op("simulate-file", sim + ["--start", f"file:{state_path}"],
           lambda res: check_simulate(res, probs_file, 0)),
    ]


def sample(rng: np.random.Generator, work: str) -> list:
    """Monte Carlo at small N: the samplers dominate, evolution is ~40 steps."""
    n_items = 4096
    born_seed = int(rng.integers(1, 2**31))
    coin_seed = int(rng.integers(1, 2**31))
    probs = _uniform_probs(1, n_items)
    general_targets = (3, 17, 40)
    general_period = _period(len(general_targets), n_items)
    probs_general = dense_trajectory(random_start(n_items, 7), general_targets, general_period)
    mc = ["montecarlo", "--n-items", str(n_items)]
    return [
        Op("montecarlo-born", mc + ["--num-targets", "1", "--trials", "100000",
                                    "--seed", str(born_seed)],
           lambda res: check_montecarlo(res, probs, probs.size - 1, 1, 100_000)),
        # n = 5 keeps p_k = 1-(1-p)^8 near 0.2, so the coin race runs several rounds.
        Op("montecarlo-coin", mc + ["--num-targets", "1", "--agents", "8", "--iterations", "5",
                                    "--trials", "3000000", "--seed", str(coin_seed)],
           lambda res: check_montecarlo(res, probs, probs.size - 1, 8, 3_000_000)),
        # The default n for a general start state comes from the uniform-start
        # optimum.  Fixed inputs, so the call fails the same way on every seed
        # while the fault stands.
        Op("montecarlo-general", mc + ["--targets", "3,17,40", "--start", "random:7",
                                       "--trials", "300", "--seed", "7"],
           lambda res: check_montecarlo(res, probs_general, general_period, 1, 300),
           fault="general-start-n"),
    ]


def build(workload: str, seed: int, work: str) -> list:
    rng = np.random.default_rng(seed)
    return {"figures": figures, "evolve": evolve, "sample": sample}[workload](rng, work)
