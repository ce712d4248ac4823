"""Multicampaign assignment: exact/heuristic solvers, a 3-CNF reduction
harness, and learning of response-suppression tables."""

from .capacity import CapacityBox
from .core import (
    AssignmentMatrix,
    FeasibilityReport,
    GuardExceededError,
    InfeasibleError,
    Instance,
    InternalCheckError,
    McapError,
    PreconditionError,
    SuppressionTable,
    ValidationError,
    check_feasibility,
    check_matrix,
    evaluate_fitness,
    validate_instance,
)
from .generate import random_instance, random_planted_formula
from .learning import FitResult, fit_suppression
from .reduction import (
    BooleanAssignment,
    CnfFormula,
    ReducedInstance,
    ReductionLayout,
    embed_assignment,
    extract_assignment,
    parse_dimacs,
    reduce_3sat,
    satisfies,
)
from .solvers import (
    SolveResult,
    SolveStats,
    brute_force_solve,
    dp_solve,
    greedy_construct,
    local_search,
    solve_constant_suppression,
    solve_unbounded,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentMatrix",
    "BooleanAssignment",
    "CapacityBox",
    "CnfFormula",
    "FeasibilityReport",
    "FitResult",
    "GuardExceededError",
    "InfeasibleError",
    "Instance",
    "InternalCheckError",
    "McapError",
    "PreconditionError",
    "ReducedInstance",
    "ReductionLayout",
    "SolveResult",
    "SolveStats",
    "SuppressionTable",
    "ValidationError",
    "brute_force_solve",
    "check_feasibility",
    "check_matrix",
    "dp_solve",
    "embed_assignment",
    "evaluate_fitness",
    "extract_assignment",
    "fit_suppression",
    "greedy_construct",
    "local_search",
    "parse_dimacs",
    "random_instance",
    "random_planted_formula",
    "reduce_3sat",
    "satisfies",
    "solve_constant_suppression",
    "solve_unbounded",
    "validate_instance",
]
