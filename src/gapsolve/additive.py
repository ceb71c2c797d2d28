"""Sumset arithmetic, doubling constants, and generalized arithmetic progressions.

A GAP with dimension d, generators x_1..x_d and bounds L_1..L_d is the set
{ x_1*l_1 + ... + x_d*l_d : 0 <= l_i <= L_i }.  Weight sets whose doubling
constant |A+A|/|A| is small are covered by low-dimensional GAPs; the cover
search here is a deterministic desk-scale stand-in for a constructive
Freiman decomposition, limited to d <= 3 (plus an optional translation
dimension).
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import nsmallest
from itertools import product
from math import gcd

from .errors import BudgetExceeded, NoCoverFound, NotCovered

DEFAULT_ENUM_BUDGET = 10**7


@dataclass(frozen=True)
class WeightSet:
    """Finite set of distinct non-negative integer weights, kept sorted."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(self.elements)
        if not elems:
            raise ValueError("weight set must be non-empty")
        if any(e < 0 for e in elems):
            raise ValueError("weights must be non-negative")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ValueError("weights must be strictly increasing")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def of(cls, iterable):
        return cls(tuple(sorted(set(iterable))))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in set(self.elements)


@dataclass(frozen=True)
class Gap:
    """Generalized arithmetic progression: generators and per-dimension bounds."""

    generators: tuple
    bounds: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        bnds = tuple(self.bounds)
        if len(gens) != len(bnds) or not gens:
            raise ValueError("generators and bounds must have equal positive length")
        if any(g <= 0 for g in gens):
            raise ValueError("generators must be positive")
        if any(b < 0 for b in bnds):
            raise ValueError("bounds must be non-negative")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "bounds", bnds)

    @property
    def dim(self):
        return len(self.generators)

    @property
    def volume(self):
        v = 1
        for b in self.bounds:
            v *= b + 1
        return v


def sumset(a, b):
    """Minkowski sum {x + y : x in a, y in b} as a WeightSet."""
    return WeightSet.of(x + y for x in a for y in b)


def hfold(a, h):
    """h-fold iterated sumset hA = (h-1)A + A, with 1A = A."""
    if h < 1:
        raise ValueError("h must be >= 1")
    acc = a
    for _ in range(h - 1):
        acc = sumset(acc, a)
    return acc


def doubling_constant(a):
    """Exact |A+A| / |A| as a Fraction.

    A+A is counted from the sums x_i + x_j with i <= j, which are all of
    its elements since addition commutes.
    """
    e = a.elements
    sums = {x + y for i, x in enumerate(e) for y in e[i:]}
    return Fraction(len(sums), len(e))


def gap_enumerate(g, budget=DEFAULT_ENUM_BUDGET):
    """All values of the GAP as a WeightSet.

    Raises BudgetExceeded when the coordinate box has more than `budget`
    points, so callers avoid materializing huge GAPs.
    """
    if g.volume > budget:
        raise BudgetExceeded(f"GAP volume {g.volume} exceeds budget {budget}")
    vals = set()
    for tup in product(*(range(b + 1) for b in g.bounds)):
        vals.add(sum(x * l for x, l in zip(g.generators, tup)))
    return WeightSet.of(vals)


def get_gap_coordinates(a, g):
    """Coordinates of each weight of `a` inside GAP `g`, in order of `a`.

    Each weight is solved on its own, so the GAP's volume does not matter;
    when it has several representations the lexicographically smallest
    tuple wins.  An outer dimension tries its coordinates l in ascending
    order, but only those with 0 <= w - x*l <= reach[i + 1], the most the
    later dimensions sum to.  The last two dimensions are one congruence:
    the smallest l in range with x*l = w (mod y).  A remainder that the
    gcd of the later generators does not divide fails at once, so a
    non-proper GAP such as (2, 4, 6) does not loop over every l for an odd
    weight.  Raises NotCovered for any weight outside the GAP.
    """
    gens, bounds, d = g.generators, g.bounds, g.dim
    reach = [0] * (d + 1)  # reach[i]: the largest sum of dimensions i..
    div = [0] * (d + 1)  # div[i]: the gcd of the generators of dimensions i..
    for i in range(d - 1, -1, -1):
        reach[i] = reach[i + 1] + gens[i] * bounds[i]
        div[i] = gcd(div[i + 1], gens[i])
    j = max(d - 2, 0)  # the congruence's first dimension
    m = gens[-1] // div[j]
    inv = pow(gens[j] // div[j], -1, m)

    def solve(w, i):  # coordinates of w over dimensions i.., or None
        if w % div[i]:
            return None
        x = gens[i]
        if i == d - 1:
            return None if w // x > bounds[i] else (w // x,)
        lo, hi = max(0, -((reach[i + 1] - w) // x)), min(bounds[i], w // x)
        if i == d - 2:
            l = lo + (w // div[i] * inv - lo) % m
            return None if l > hi else (l, (w - x * l) // gens[-1])
        for l in range(lo, hi + 1):
            rest = solve(w - x * l, i + 1)
            if rest is not None:
                return (l,) + rest
        return None

    coords = []
    for w in a:
        c = solve(w, 0)
        if c is None:
            raise NotCovered(w)
        coords.append(c)
    return coords


def _candidate_diffs(shifted, cap=64):
    """Sorted positive pairwise differences, capped for the generator search."""
    nz = [e for e in shifted if e > 0]
    diffs = set(nz)
    elems = shifted
    if len(elems) <= 80:
        pairs = ((a, b) for i, a in enumerate(elems) for b in elems[i + 1:])
    else:
        pairs = zip(elems, elems[1:])
    for a, b in pairs:
        if b != a:
            diffs.add(abs(b - a))
    g = 0
    for d in diffs:
        g = gcd(g, d)
    if g:
        diffs.add(g)
    return sorted(diffs)


def _prefix_gcds(values):
    """pg[i] = gcd(values[:i]), so pg[0] = 0."""
    pg = [0]
    for v in values:
        pg.append(gcd(pg[-1], v))
    return pg


def _two_gen_bounds(values, x1, x2, cap):
    """Bounds (b1, b2) of the coordinates of every value over (x1, x2), or None.

    Each w in `values` gets the largest-l1 solution of w = x1*l1 + x2*l2
    with l1, l2 >= 0, so l2 stays small; the congruence x1*l1 = w (mod x2)
    is solved with an inverse taken once per pair.  Returns None as soon as
    a value has no solution or (b1+1)*(b2+1) exceeds `cap`; the running
    maxima only grow, so the pair cannot fit later.  The failing value is
    then swapped to the front of the list `values`, so the next pair tests
    it first; the order of `values` does not change any result.
    """
    g = gcd(x1, x2)
    m = x2 // g
    inv = pow(x1 // g, -1, m)
    b1 = b2 = 0
    for i, w in enumerate(values):
        if w % g:
            break
        base = w // g * inv % m
        top = w // x1
        if top < base:
            break
        l1 = top - (top - base) % m
        l2 = (w - x1 * l1) // x2
        if l1 > b1 or l2 > b2:
            b1 = max(b1, l1)
            b2 = max(b2, l2)
            if (b1 + 1) * (b2 + 1) > cap:
                break
    else:
        return b1, b2
    values[0], values[i] = values[i], values[0]
    return None


def _scale_generators(values):
    """Generators proposed by the scale structure of sorted distinct `values`.

    A cut is a size of the gaps between consecutive values that is at least
    twice the next smaller size.  Splitting the values at every gap of at
    least a cut leaves clusters; when the values lie in a GAP with separated
    scales (x1 much larger than the span of the later dimensions), the
    coarsest cut splits them by l1, and x1 is a frequent difference between
    elements of adjacent clusters.  Cuts are tried coarsest first.  Each
    proposes the four most frequent differences, if seen at least twice,
    between the first 64 elements of adjacent clusters among the first 64
    clusters, so the work per cut stays bounded on large sets.  Sampling
    noise makes a neighbour such as x1 - x3 about as frequent as x1, so a
    cut's proposals are tried in order of the largest residue w mod x they
    leave: x1 leaves only the span of the later dimensions.  A generator,
    so a caller that stops early does not pay for the finer cuts.
    """
    sizes = sorted({b - a for a, b in zip(values, values[1:])})
    seen = set()
    for cut in reversed([t for s, t in zip(sizes, sizes[1:]) if t >= 2 * s]):
        starts = [0] + [i for i in range(1, len(values)) if values[i] - values[i - 1] >= cut]
        clusters = [values[i:min(j, i + 64)]
                    for i, j in zip(starts[:64], starts[1:] + [len(values)])]
        counts = Counter(b - a for lo, hi in zip(clusters, clusters[1:])
                         for a in lo for b in hi)
        common = [d for d, n in nsmallest(4, counts.items(), key=lambda kv: (-kv[1], kv[0]))
                  if n >= 2 and d not in seen]
        seen.update(common)
        yield from sorted(common, key=lambda x: (max(w % x for w in values), x))


def _scale_proposals(values):
    """(x1, residues, (x2, x3) pairs) proposed for a 3-dim cover of `values`.

    x1 comes from the scale structure of the values, x2 from that of the
    sorted residues w mod x1, and x3 is the gcd of the residues mod x2 (x2
    itself when x2 divides every residue).  The pairs are a generator, so
    the work on the residues is done only for an x1 that is tried.
    """
    for x1 in _scale_generators(values):
        resid = sorted({w % x1 for w in values})
        yield x1, resid, ((x2, gcd(*(r % x2 for r in resid)) or x2)
                          for x2 in _scale_generators(resid))


def gap_cover_search(a, max_dim=3, volume_budget=DEFAULT_ENUM_BUDGET):
    """Find a GAP of core dimension <= max_dim covering all of `a`.

    d=1 uses the GCD of pairwise differences anchored at min(a); d=2,3
    search generator candidates drawn from differences, accepting the
    first cover whose volume fits the budget.  When min(a) > 0 the
    translation is folded in as an extra dimension with generator min(a)
    and bound 1, so downstream encoding stays uniform.  Deterministic for
    a fixed budget and candidate order.

    The 3-dim phase first tries the generators that `_scale_proposals`
    reads off the scale structure of the values, then scans x1 over the
    200 largest candidate differences and (x2, x3) over the small pool.
    When every phase fails, NoCoverFound names |A|, max_dim, the budget and
    the candidates each phase tried.

    Three prunings make a rejected candidate cheap without changing which
    candidates are visited, in which order, or which cover is accepted:

    - Divisibility: a value w < x1 has l1 = 0 in every solution, so x2
      must divide w.  x2 is skipped unless it divides the gcd of the values
      below x1 (taken from prefix gcds, so x2 > that gcd is skipped too).
      The 3-dim scan applies the same rule to x3 and the residues
      w mod x1 below x2.
    - Budget: the volume is the extra (translation) volume times
      (b1+1)(b2+1) (times (b3+1) for d=3), and the running maxima only
      grow as values are solved, so a pair is dropped as soon as that
      product passes the budget; it would fail the final budget test.
      In the 3-dim search b1 = max(a) // x1 is known before any residue
      is solved, and an x1 whose b1 alone passes the budget is skipped.
    - Hoisting: gcd(x1, x2) and the modular inverse are taken once per
      pair, and the value that rejected the previous pair is tried first.
      Neither changes any coordinate, and the maxima do not depend on the
      order of the values.
    """
    if not 1 <= max_dim <= 3:
        raise ValueError("max_dim must be in [1, 3]")
    lo = a.elements[0]
    shifted = [e - lo for e in a.elements]
    offset = [(lo, 1)] if lo > 0 else []

    def assemble_with(extra, core):
        dims = extra + [d for d in core if d[1] > 0]
        if not dims:
            dims = [(1, 0)]
        gap = Gap(tuple(g for g, _ in dims), tuple(b for _, b in dims))
        return gap if gap.volume <= volume_budget else None

    # d = 1: GCD of differences anchored at min(a)
    g = 0
    for e in shifted:
        g = gcd(g, e)
    core = [] if g == 0 else [(g, shifted[-1] // g)]
    gap = assemble_with(offset, core)
    if gap is not None:
        return gap

    # For d >= 2, anchoring at min(a) can leave the translated set outside
    # any small box over the true generators, so the raw set is tried too.
    variants = [(list(a.elements), [])] if lo == 0 else \
        [(list(a.elements), []), (shifted, offset)]
    cands = _candidate_diffs(shifted)
    # Small-generator pool: small differences plus their pairwise GCDs
    # (a generator often only shows up as the GCD of mixed differences).
    small = set(cands[:64])
    for i, da in enumerate(cands[:40]):
        for db in cands[i + 1:40]:
            small.add(gcd(da, db))
    small = sorted(small)
    tried = {"d=2 scan": 0, "d=3 proposals": 0, "d=3 scan": 0}
    # each extra (translation) dimension has bound 1, so its volume is 2
    if max_dim >= 2:
        for values, extra in variants:
            cap = volume_budget // 2 ** len(extra)
            pg = _prefix_gcds(values)
            work = list(values)
            for x1 in reversed(cands):
                below = pg[bisect_left(values, x1)]
                hi = min(x1, below + 1) if below else x1
                for x2 in small[:bisect_left(small, hi)]:
                    if below % x2:
                        continue
                    tried["d=2 scan"] += 1
                    bounds = _two_gen_bounds(work, x1, x2, cap)
                    if bounds is None:
                        continue
                    gap = assemble_with(extra, [(x1, bounds[0]), (x2, bounds[1])])
                    if gap is not None:
                        return gap

    def scanned(values):
        for x1 in reversed(cands[-200:]):
            resid = sorted({w % x1 for w in values})
            yield x1, resid, scanned_pairs(x1, resid)

    def scanned_pairs(x1, resid):
        pg = _prefix_gcds(resid)
        for x2 in reversed(small[-24:]):
            if x2 >= x1:
                continue
            below = pg[bisect_left(resid, x2)]
            for x3 in small[:24]:
                if x3 >= x2:
                    break
                if below % x3:
                    continue
                yield x2, x3

    if max_dim >= 3:
        for phase, propose in (("d=3 proposals", _scale_proposals), ("d=3 scan", scanned)):
            for values, extra in variants:
                for x1, resid, pairs in propose(values):
                    b1 = values[-1] // x1
                    cap = volume_budget // (2 ** len(extra) * (b1 + 1))
                    if not cap:
                        continue
                    work = list(resid)
                    for x2, x3 in pairs:
                        tried[phase] += 1
                        bounds = _two_gen_bounds(work, x2, x3, cap)
                        if bounds is None:
                            continue
                        gap = assemble_with(
                            extra, [(x1, b1), (x2, bounds[0]), (x3, bounds[1])])
                        if gap is not None:
                            return gap
    raise NoCoverFound(
        f"no GAP of dimension <= {max_dim} with volume <= {volume_budget} covers "
        f"the {len(a)} weights; candidates tried: "
        + ", ".join(f"{phase} {n}" for phase, n in tried.items())
    )
