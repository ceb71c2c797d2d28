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
from .encoding import enlarge, kappa, kappa_inv, true_values
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


def _check_exponents(exponents, egap):
    """Every observed exponent must decode inside the enlarged bounds."""
    bound = egap.range_bound
    for e in exponents:
        if not 0 <= e < bound:
            raise InvariantViolated(f"exponent {e} escapes encoded range [0, {bound})")


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

    # Eq-style size chain: the encoded range never exceeds lambda^d * |G|
    gprime_bound = egap.range_bound
    if gprime_bound > lam ** gap.dim * gap.volume:
        raise InvariantViolated(f"encoded range {gprime_bound} exceeds lambda^d * |G|")

    stats = {
        "weight_count": len(weights),
        "gap_volume": gap.volume,
        "encoded_range_bound": gprime_bound,
        "lambda": lam,
    }

    terms = spec.solve(inst, enc, egap)
    _check_exponents(terms, egap)
    if inst.kind == "minplusconv":  # its solver returns each index's minimum
        stats["sequence"] = true_values(egap, terms).tolist()
        terms = dict.fromkeys(terms, 1)
    best, optimum, count = select_optimum(terms, egap, spec.sense)
    coords_opt = kappa_inv(egap, best)
    if optimum != sum(x * l for x, l in zip(egap.generators, coords_opt)):
        raise InvariantViolated(f"exponent {best} decodes inconsistently")
    stats["solution_terms"] = len(terms)
    stats["optimal_count"] = count if spec.counts else None
    stats["wall_time"] = time.perf_counter() - t0
    return MetaResult(optimum, best, tuple(coords_opt), gap, lam, stats)
