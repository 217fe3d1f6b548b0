"""Generalized quantum search: exact simulation, closed-form success
probabilities, and optimal restart / parallel strategies.

The amplitude-amplification operator Q acts on an arbitrary start state
with reflections about an arbitrary averaging axis; `statevector` evolves
it exactly, `analytic` carries the two-dimensional rotation picture and
its closed-form probability model, `strategy` plans optimal punctuated
and k-agent runs, and `montecarlo` checks the cost formulas with seeded
restart experiments.  `cli` exposes all of it as the `gqsearch` command.
"""

from .analytic import (
    Decomposition,
    biham_mapping,
    decompose,
    first_maximum,
    rotation_angle,
    success_prob_analytic,
    uniform_success_prob,
)
from .errors import (
    FlatProbabilityError,
    GQSearchError,
    InvalidDimensionError,
    InvalidTargetError,
    NeverSucceedsError,
    NonUnitStateError,
    TrialCapError,
    ValidityError,
)
from .montecarlo import (
    run_parallel,
)
from .statevector import (
    SearchInstance,
    StateVector,
    TargetSet,
    random_state,
    success_trajectory,
    uniform_instance,
    uniform_state,
)
from .strategy import (
    ParallelPlan,
    PunctuatedPlan,
    cost_stddev,
    expected_cost,
    max_probability_cost,
    optimal_x_parallel_approx,
    optimal_x_single,
    parallel_plan,
    parallel_plan_closed_form,
    parallel_success,
    punctuated_plan,
    punctuated_success_prob,
    restart_iterations,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "FlatProbabilityError",
    "GQSearchError",
    "InvalidDimensionError",
    "InvalidTargetError",
    "NeverSucceedsError",
    "NonUnitStateError",
    "ParallelPlan",
    "PunctuatedPlan",
    "SearchInstance",
    "StateVector",
    "TargetSet",
    "TrialCapError",
    "ValidityError",
    "biham_mapping",
    "cost_stddev",
    "decompose",
    "expected_cost",
    "first_maximum",
    "max_probability_cost",
    "optimal_x_parallel_approx",
    "optimal_x_single",
    "parallel_plan",
    "parallel_plan_closed_form",
    "parallel_success",
    "punctuated_plan",
    "punctuated_success_prob",
    "random_state",
    "restart_iterations",
    "rotation_angle",
    "run_parallel",
    "success_prob_analytic",
    "success_trajectory",
    "uniform_instance",
    "uniform_state",
    "uniform_success_prob",
]
