"""Generalized quantum search: exact simulation, closed-form success
probabilities, and optimal restart / parallel strategies.

The amplitude-amplification operator Q acts on an arbitrary start state
with reflections about an arbitrary averaging axis; `analytic` holds the
search problem, its two-dimensional rotation picture and its closed-form
probability model, `statevector` reduces explicit states and evolves them
exactly, `strategy` plans optimal punctuated and k-agent runs, and
`montecarlo` checks the cost formulas with seeded restart experiments.
Only `statevector` and `montecarlo` import numpy.  `cli` exposes all of
it as the `gqsearch` command.
"""

import importlib

# Each public name and the submodule that defines it.  A name is imported on
# its first lookup (PEP 562), so `import gqsearch` and `import gqsearch.cli`
# load no layer that the caller does not use.
_SOURCES = {
    "analytic": "Decomposition TargetSet decompose first_maximum rotation_angle "
                "success_prob_analytic uniform_instance uniform_success_prob",
    "errors": "GQSearchError ValidityError",
    "montecarlo": "run_parallel",
    "statevector": "biham_mapping from_blocks success_trajectory",
    "strategy": "ParallelPlan PunctuatedPlan cost_stddev expected_cost max_probability_cost "
                "optimal_x_parallel_approx optimal_x_single parallel_plan "
                "parallel_plan_closed_form parallel_success punctuated_plan "
                "punctuated_success_prob",
}
_SOURCE = {name: module for module, names in _SOURCES.items() for name in names.split()}
__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
