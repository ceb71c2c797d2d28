"""Exact solvers for weighted hard problems whose weight sets have small doubling.

Weights are covered by a generalized arithmetic progression, re-encoded as
small integers through an order-aware mixed-radix pairing, solved by
bounded-input algebraic algorithms, and decoded back to the original scale.
"""

from .additive import (
    Gap,
    WeightSet,
    doubling_constant,
    gap_cover_search,
    gap_enumerate,
    get_gap_coordinates,
    sumset,
)
from .encoding import (
    enlarge,
    kappa,
    kappa_inv,
    true_value,
    true_values,
)
from .instances import generate_instance
from .meta import MetaResult, run_meta
from .poly import select_optimum
from .solvers import (
    SOLVER_SPECS,
    ProblemInstance,
    SolverSpec,
    build_auxiliary_graph,
    ewclique_algebraic,
    maxcut_algebraic,
    minplus_selfconv_min,
    steiner_algebraic,
    tsp_algebraic,
)

__all__ = [
    "Gap",
    "MetaResult",
    "ProblemInstance",
    "SOLVER_SPECS",
    "SolverSpec",
    "WeightSet",
    "build_auxiliary_graph",
    "doubling_constant",
    "enlarge",
    "ewclique_algebraic",
    "gap_cover_search",
    "gap_enumerate",
    "generate_instance",
    "get_gap_coordinates",
    "kappa",
    "kappa_inv",
    "maxcut_algebraic",
    "minplus_selfconv_min",
    "run_meta",
    "select_optimum",
    "steiner_algebraic",
    "sumset",
    "true_value",
    "true_values",
    "tsp_algebraic",
]

__version__ = "0.1.0"
