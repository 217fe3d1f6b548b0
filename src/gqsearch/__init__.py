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
    BihamMapping,
    Decomposition,
    biham_mapping,
    decompose,
    first_maximum,
    optimal_iterations_analytic,
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
    Estimate,
    parallel_trial_costs,
    run_parallel,
    trial_uniforms,
)
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
    CostStddev,
    ParallelPlan,
    PunctuatedPlan,
    cost_stddev,
    expected_cost,
    max_probability_cost,
    optimal_x_parallel_approx,
    optimal_x_single,
    parallel_cost_derivative,
    parallel_plan,
    parallel_plan_closed_form,
    parallel_success,
    punctuated_plan,
    punctuated_success_prob,
    restart_iterations,
)

__version__ = "0.1.0"

__all__ = [
    "BihamMapping",
    "CostStddev",
    "Decomposition",
    "Estimate",
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
    "optimal_iterations_analytic",
    "optimal_x_parallel_approx",
    "optimal_x_single",
    "parallel_cost_derivative",
    "parallel_plan",
    "parallel_plan_closed_form",
    "parallel_success",
    "parallel_trial_costs",
    "punctuated_plan",
    "punctuated_success_prob",
    "random_state",
    "restart_iterations",
    "rotation_angle",
    "run_parallel",
    "success_prob_analytic",
    "success_probability",
    "success_trajectory",
    "trial_uniforms",
    "uniform_instance",
    "uniform_state",
    "uniform_success_prob",
]
