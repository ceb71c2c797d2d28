"""End-to-end pipeline: cover, encode, solve, decode, reconstruct.

Given an instance whose weight set has additive structure, the pipeline
finds (or accepts) a GAP cover, maps weights to coordinates, encodes them
as small integers over lambda-enlarged bounds, runs the kind-specific
algebraic solver, and decodes the optimal exponent back to the original
objective value.  Exactness is unconditional; the small-doubling
hypothesis only controls how small the encoded range stays.
"""

import time
from dataclasses import dataclass, field

from .additive import DEFAULT_ENUM_BUDGET, gap_cover_search, get_gap_coordinates
from .encoding import enlarge, kappa, kappa_inv
from .errors import InvariantViolated
from .poly import select_optimum
from .solvers import SOLVER_SPECS


@dataclass
class MetaResult:
    optimum: int
    encoded_optimum: int
    coords: tuple
    gap_used: object
    lam: int
    stats: dict = field(default_factory=dict)


def run_meta(inst, *, max_dim=3, volume_budget=DEFAULT_ENUM_BUDGET):
    """Run the full pipeline on one instance and return a MetaResult.

    A user-supplied GAP on the instance takes precedence over the cover
    search.  Raises NoCoverFound / InfeasibleInstance / solver errors.
    """
    spec = SOLVER_SPECS[inst.kind]
    t0 = time.perf_counter()
    weights = inst.weights
    gap = inst.gap
    if gap is None:
        gap = gap_cover_search(weights, max_dim=max_dim, volume_budget=volume_budget)
    coords = get_gap_coordinates(weights, gap)
    lam = spec.lambda_bound(inst)
    egap = enlarge(gap, lam)
    enc = {w: kappa(egap, c) for w, c in zip(weights, coords)}
    stats = {"encoded_range_bound": egap.volume}

    # the select below raises OutOfRange (an InvariantViolated) for any
    # exponent outside [0, egap.volume)
    terms = spec.solve(inst, enc, egap, stats)
    best, optimum, count = select_optimum(terms, egap, spec.sense)
    coords_opt = kappa_inv(egap, best)
    if optimum != sum(x * l for x, l in zip(egap.generators, coords_opt)):
        raise InvariantViolated(f"exponent {best} decodes inconsistently")
    stats["solution_terms"] = len(terms[0])
    stats["optimal_count"] = count if spec.counts else None
    stats["wall_time"] = time.perf_counter() - t0
    return MetaResult(optimum, best, coords_opt, gap, lam, stats)
