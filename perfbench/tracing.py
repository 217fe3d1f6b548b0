"""In-process tracing of gqsearch, from outside the package.

`Tracer.patched()` replaces each layer's public functions, at the names
that `gqsearch.cli`, `gqsearch.montecarlo` and `gqsearch.strategy` call
them by, with wrappers that record a span (name, start, end, parent) and
the layer's work counts.  A layer's self time is its spans' time minus the
time of their direct child spans.  Leaving the context restores every name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager


def _grover_power(args, result):
    n_items = args["instance"].n_items
    return {"iterations": args["n"], "amplitude_updates": args["n"] * n_items}


def _success_trajectory(args, result):
    n_items = args["instance"].n_items
    return {"iterations": args["n_max"], "amplitude_updates": args["n_max"] * n_items}


def _parallel_plan(args, result):
    if args.get("method", "numeric") != "numeric":
        return {}
    return {"scan_points": math.ceil(0.25 * math.pi * math.sqrt(args["n_items"] / args["r"]))}


def _trial_costs(args, result):
    return {"trials": args["trials"], "rounds": int(result[1].sum())}


def _run_parallel(args, result):
    return {"trials": args["trials"]}


def _read_state_file(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _write_output(args, result):
    data = args["data"]
    return {"bytes": len(data if isinstance(data, bytes) else data.encode())}


# (module, attribute, layer name, work counter, records a span)
LAYERS = (
    ("cli", "grover_power", "statevector.grover_power", _grover_power, True),
    ("montecarlo", "grover_power", "statevector.grover_power", _grover_power, True),
    ("cli", "success_trajectory", "statevector.success_trajectory", _success_trajectory, True),
    ("cli", "decompose", "analytic.decompose", None, True),
    ("cli", "success_prob_analytic", "analytic.success_prob_analytic", None, True),
    ("cli", "parallel_plan", "strategy.parallel_plan", _parallel_plan, True),
    ("cli", "optimal_x_single", "strategy.optimal_x_single", None, True),
    ("strategy", "optimal_x_single", "strategy.optimal_x_single", None, True),
    ("montecarlo", "statevector_trial_costs", "montecarlo.statevector_trial_costs",
     _trial_costs, True),
    ("cli", "run_parallel", "montecarlo.run_parallel", _run_parallel, True),
    ("cli", "read_state_file", "cli.read_state_file", _read_state_file, True),
    ("cli", "heatmap_grid", "cli.heatmap_grid", None, True),
    ("cli", "sweep_rows", "cli.sweep_rows", None, True),
    # Writing is part of cli.main's own time, so it is counted, not spanned.
    ("cli", "_write_output", "cli.output", _write_output, False),
)


def clear_caches() -> None:
    """Empty the package's memoized functions, as a fresh process has them."""
    for name in ("analytic", "cli", "montecarlo", "statevector", "strategy"):
        module = importlib.import_module(f"gqsearch.{name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # dicts: id, parent, name, start, end, round, call
        self.counts = []  # dicts: round, name, value
        self.round = 0
        self.call = None
        self._stack = []
        self._round_counts = Counter()

    @contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "name": name, "round": self.round, "call": self.call}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self._round_counts[f"{name}.calls"] += 1

    def count(self, name: str, value) -> None:
        self._round_counts[name] += value

    def end_round(self) -> None:
        self.counts.extend({"round": self.round, "name": name, "value": value}
                           for name, value in sorted(self._round_counts.items()))
        self._round_counts = Counter()
        self.round += 1

    def _wrap(self, fn, name, counter, spanned):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spanned:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    self.count(f"{name}.{key}", value)
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers; names a module no longer has are skipped."""
        saved = []
        try:
            for module_name, attr, name, counter, spanned in LAYERS:
                module = importlib.import_module(f"gqsearch.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter, spanned))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def round_totals(self, rnd: int):
        """(self seconds by layer name, counts by name) for one round."""
        spans = [s for s in self.spans if s["round"] == rnd]
        self_s = Counter()
        for s in spans:
            self_s[s["name"]] += s["end"] - s["start"]
            if s["parent"] is not None:
                self_s[self.spans[s["parent"]]["name"]] -= s["end"] - s["start"]
        counts = Counter({c["name"]: c["value"] for c in self.counts if c["round"] == rnd})
        return self_s, counts

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(s, kind="span")) + "\n")
            for c in self.counts:
                fh.write(json.dumps(dict(c, kind="count")) + "\n")


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def round_metrics(self_s: Counter, counts: Counter) -> dict:
    """Per-layer metric values of one traced round, by BENCHMARK.json name."""
    gp, st = "statevector.grover_power", "statevector.success_trajectory"
    tc, rp = "montecarlo.statevector_trial_costs", "montecarlo.run_parallel"
    updates = counts[f"{gp}.amplitude_updates"] + counts[f"{st}.amplitude_updates"]
    return {
        f"{gp}.calls": counts[f"{gp}.calls"],
        f"{gp}.iterations": counts[f"{gp}.iterations"],
        f"{gp}.self_s": self_s[gp],
        f"{st}.iterations": counts[f"{st}.iterations"],
        f"{st}.self_s": self_s[st],
        "statevector.ns_per_amplitude_update": _ratio(self_s[gp] + self_s[st], updates, 1e9),
        "analytic.decompose.calls": counts["analytic.decompose.calls"],
        "analytic.decompose.self_s": self_s["analytic.decompose"],
        "analytic.success_prob_analytic.self_s": self_s["analytic.success_prob_analytic"],
        "strategy.parallel_plan.calls": counts["strategy.parallel_plan.calls"],
        "strategy.parallel_plan.scan_points": counts["strategy.parallel_plan.scan_points"],
        "strategy.parallel_plan.self_s": self_s["strategy.parallel_plan"],
        "strategy.optimal_x_single.self_s": self_s["strategy.optimal_x_single"],
        f"{tc}.trials": counts[f"{tc}.trials"],
        f"{tc}.rounds": counts[f"{tc}.rounds"],
        f"{tc}.self_s": self_s[tc],
        f"{tc}.us_per_round": _ratio(self_s[tc], counts[f"{tc}.rounds"], 1e6),
        "montecarlo.born.success_ratio": _ratio(counts[f"{tc}.trials"], counts[f"{tc}.rounds"]),
        f"{rp}.trials": counts[f"{rp}.trials"],
        f"{rp}.self_s": self_s[rp],
        f"{rp}.ns_per_trial": _ratio(self_s[rp], counts[f"{rp}.trials"], 1e9),
        "cli.main.self_s": self_s["cli.main"],
        "cli.output_bytes": counts["cli.output.bytes"],
        "cli.read_state_file.bytes": counts["cli.read_state_file.bytes"],
        "cli.read_state_file.self_s": self_s["cli.read_state_file"],
        "cli.heatmap_grid.self_s": self_s["cli.heatmap_grid"],
        "cli.sweep_rows.self_s": self_s["cli.sweep_rows"],
    }


def layer_metrics(tracer: Tracer, traced_rounds) -> dict:
    """Median over the traced rounds of each per-layer metric."""
    per_round = [round_metrics(*tracer.round_totals(r)) for r in traced_rounds]
    return {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
