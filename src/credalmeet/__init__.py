"""Tight expected hitting and meeting time bounds for credal Markov chains.

The package models per-state uncertainty about transition rows as finite
vertex sets (credal rows with separately specified rows), computes exact
upper and lower expected hitting times by policy or value iteration, and
reduces multi-agent meeting times to hitting the diagonal of a full or
permutation-quotiented product space.
"""

from .core import (
    SUM_TOL,
    CredalMatrix,
    ModelValidationError,
    StateSpace,
    apply_lower,
    apply_upper,
    ext_dot,
    ext_matvec,
    greedy_selection,
    selection_matrix,
    validate,
)
from .chain import (
    SimulationSummary,
    TransitionMatrix,
    hitting_times,
    meeting_times,
    simulate_hitting,
)
from .reach import Classification, classify, lower_reach_set, upper_reach_set
from .solver import HittingResult, policy_iteration, value_iteration
from .meeting import (
    MeetingResult,
    ProductSpace,
    QuotientReport,
    build_product_space,
    exhaustive_meeting_times,
    joint_transition_weight,
    meet,
    quotient_consistency_check,
)
from .modelio import (
    ModelFormatError,
    dump_model,
    interval_vertices,
    load_model,
    model_digest,
    parse_model,
)

__version__ = "0.1.0"

__all__ = [
    "SUM_TOL",
    "Classification",
    "CredalMatrix",
    "HittingResult",
    "MeetingResult",
    "ModelFormatError",
    "ModelValidationError",
    "ProductSpace",
    "QuotientReport",
    "SimulationSummary",
    "StateSpace",
    "TransitionMatrix",
    "apply_lower",
    "apply_upper",
    "build_product_space",
    "classify",
    "dump_model",
    "exhaustive_meeting_times",
    "ext_dot",
    "ext_matvec",
    "greedy_selection",
    "hitting_times",
    "interval_vertices",
    "joint_transition_weight",
    "load_model",
    "lower_reach_set",
    "meet",
    "meeting_times",
    "model_digest",
    "parse_model",
    "policy_iteration",
    "quotient_consistency_check",
    "selection_matrix",
    "simulate_hitting",
    "upper_reach_set",
    "validate",
    "value_iteration",
]
