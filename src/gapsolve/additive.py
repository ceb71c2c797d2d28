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


def doubling_constant(a):
    """Exact |A+A| / |A| as a Fraction.

    A+A is counted from the sums x_i + x_j with i <= j, which are all of
    its elements since addition commutes.
    """
    e = a.elements
    sums = {x + y for i, x in enumerate(e) for y in e[i:]}
    return Fraction(len(sums), len(e))


def gap_enumerate(g):
    """All values of the GAP as a WeightSet.

    Raises BudgetExceeded when the coordinate box has more than
    DEFAULT_ENUM_BUDGET points, so callers avoid materializing huge GAPs.
    """
    if g.volume > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"GAP volume of {g.volume.bit_length()} bits "
                             f"exceeds budget {DEFAULT_ENUM_BUDGET}")
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
    weight.  The dimension just above the congruence is not walked: its l
    splits into runs over which the congruence's range stays the same, and
    along a run the congruence's solution is an arithmetic sequence mod m,
    so `_first_multiple` finds the first l whose solution is in range in
    O(log m) steps.  A weight in the last two generators' Frobenius gap
    then costs one step per run, not per l.  Raises NotCovered for any
    weight outside the GAP.
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
    if d >= 3:
        # the dimension above the congruence tries only l = l0 + step*s,
        # whose remainder the congruence's gcd divides; the congruence's
        # solution then moves by `shift` (mod m) per step of s
        x3, g1 = gens[d - 3], div[d - 3]
        step = div[j] // g1
        x3_inv = pow(x3 // g1, -1, step)
        shift = -(x3 * step // div[j]) * inv % m

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
        if i == d - 3:
            return above_congruence(w, lo, hi)
        for l in range(lo, hi + 1):
            rest = solve(w - x * l, i + 1)
            if rest is not None:
                return (l,) + rest
        return None

    def above_congruence(w, lo, hi):  # solve(w, d - 3), l in [lo, hi]
        y = gens[j]
        l0 = w // g1 * x3_inv % step
        s, last = -((l0 - lo) // step), (hi - l0) // step
        while s <= last:
            r = w - x3 * (l0 + step * s)
            lo2, hi2 = max(0, -((reach[j + 1] - r) // y)), min(bounds[j], r // y)
            a = (r // div[j] * inv - lo2) % m  # the solution's offset above lo2
            if a > hi2 - lo2:
                # [lo2, hi2] stays the congruence's range while r >= least
                least = max(y * hi2, reach[j + 1] + y * (lo2 - 1) + 1 if lo2 else 0)
                end = min(last, ((w - least) // x3 - l0) // step)
                k = None
                if lo2 <= hi2 and s < end:
                    k = _first_multiple(m, shift, m - a, m - a + hi2 - lo2)
                if k is None or s + k > end:
                    s = end + 1
                    continue
                s += k
                r = w - x3 * (l0 + step * s)
                a = (r // div[j] * inv - lo2) % m
            return l0 + step * s, lo2 + a, (r - y * (lo2 + a)) // gens[-1]
        return None

    coords = []
    for w in a:
        c = solve(w, 0)
        if c is None:
            raise NotCovered(w)
        coords.append(c)
    return coords


def _first_multiple(m, c, lo, hi):
    """The least k >= 0 with lo <= c*k mod m <= hi, or None; 0 <= lo <= hi < m.

    Euclid on (m, c): a multiplier above m/2 is negated, which mirrors the
    interval; otherwise the first k that does not wrap is tried, and when
    [lo, hi] holds no multiple of c, k follows from the least j with
    (-m*j) mod c in [lo mod c, hi mod c], a problem modulo c <= m/2.
    """
    if lo == 0:
        return 0
    c %= m
    if c == 0:
        return None
    if 2 * c > m:
        return _first_multiple(m, m - c, m - hi, m - lo)
    k = -(-lo // c)
    if c * k <= hi:
        return k
    j = _first_multiple(c, -m % c, lo % c, hi % c)
    return None if j is None else -(-(lo + m * j) // c)


def _candidate_diffs(shifted):
    """Sorted positive pairwise differences, capped for the generator search."""
    diffs = {e for e in shifted if e > 0}
    if len(shifted) <= 80:
        pairs = ((a, b) for i, a in enumerate(shifted) for b in shifted[i + 1:])
    else:
        pairs = zip(shifted, shifted[1:])
    diffs.update(b - a for a, b in pairs)
    if diffs:
        diffs.add(gcd(*diffs))
    return sorted(diffs)


def _pairs(values, outer, inner):
    """(x, y) with x from `outer` and y < x from the sorted `inner`, largest y first.

    y must divide the gcd of the sorted `values` below x (the divisibility
    pruning of `gap_cover_search`), which also cuts off every y above it.
    Each x tries its admissible y in descending order: every y divides the
    gcd of the values below x, and a cover over (x, y) needs a bound of
    about (span of the residues) / y on y, so the largest y is the cheap one.
    """
    pg = [0]  # pg[i] = gcd(values[:i])
    for v in values:
        pg.append(gcd(pg[-1], v))
    for x in outer:
        below = pg[bisect_left(values, x)]
        hi = min(x, below + 1) if below else x
        for y in reversed(inner[:bisect_left(inner, hi)]):
            if not below % y:
                yield x, y


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

    d=1 uses the GCD of pairwise differences anchored at min(a).  When
    min(a) > 0 the translation is folded in as an extra dimension with
    generator min(a) and bound 1, so downstream encoding stays uniform.

    Each phase of dimension >= 2 is one entry of a table, tried in order up
    to max_dim: the d=2 scan pairs every candidate difference x, largest
    first, with a y from the small pool, also largest first; the d=3
    proposals take x1 and (x2, x3) from `_scale_proposals`; the d=3 scan
    takes x1 from the 200 largest candidate differences and (x2, x3) from
    the small pool, each largest first.  A larger y under the same x needs
    a smaller bound (see `_pairs`), so G = ((10^12, 7), (1, 30)) gets its
    planted cover, not one over (10^12, 1) of volume 422.  For
    each variant of the values (raw, and anchored at min(a) when min(a) >
    0) a phase yields (x1 or None, values to solve, (x, y) pairs); with an
    x1 the values are the residues w mod x1 and x1's bound is
    max(a) // x1.  One accept step serves every phase: it solves the
    values over (x, y) and returns the first cover whose volume fits the
    budget.  When every phase fails, NoCoverFound names |A|, max_dim, the
    budget and the candidates each phase tried.

    Three prunings make a rejected candidate cheap without changing which
    cover is accepted:

    - Divisibility (`_pairs`): a value w < x has coordinate 0 on x in every
      solution, so y is skipped unless it divides the gcd of the values
      below x.
    - Budget: the volume is the extra (translation) volume times (b1+1)
      for an x1 times the (b+1) of x and y.  The running maxima only grow
      as values are solved, so a pair is dropped as soon as that product
      passes the budget, and an item whose fixed factors alone pass it is
      skipped.
    - Hoisting: gcd(x, y) and the modular inverse are taken once per pair,
      and the value that rejected the previous pair is tried first.
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

    def two_dim(values):
        yield None, values, _pairs(values, reversed(cands), small)

    def scanned(values):
        for x1 in reversed(cands[-200:]):
            resid = sorted({w % x1 for w in values})
            yield x1, resid, _pairs(resid, [x2 for x2 in reversed(small[-24:]) if x2 < x1],
                                    small[:24])

    phases = (("d=2 scan", 2, two_dim), ("d=3 proposals", 3, _scale_proposals),
              ("d=3 scan", 3, scanned))
    tried = {name: 0 for name, _, _ in phases}
    for name, dim, propose in phases:
        if dim > max_dim:
            break
        for values, extra in variants:
            for x1, solved, pairs in propose(values):
                # each extra (translation) dimension has bound 1, so its volume is 2
                cap = volume_budget // 2 ** len(extra)
                head = []
                if x1 is not None:
                    head = [(x1, values[-1] // x1)]
                    cap //= head[0][1] + 1
                if not cap:
                    continue
                work = list(solved)
                for x, y in pairs:
                    tried[name] += 1
                    bounds = _two_gen_bounds(work, x, y, cap)
                    if bounds is None:
                        continue
                    gap = assemble_with(extra, head + [(x, bounds[0]), (y, bounds[1])])
                    if gap is not None:
                        return gap
    raise NoCoverFound(
        f"no GAP of dimension <= {max_dim} with volume <= {volume_budget} covers "
        f"the {len(a)} weights; candidates tried: "
        + ", ".join(f"{phase} {n}" for phase, n in tried.items())
    )
