import random
import time
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapsolve import (
    Gap,
    WeightSet,
    doubling_constant,
    gap_cover_search,
    gap_enumerate,
    get_gap_coordinates,
    sumset,
)
from gapsolve.additive import _candidate_diffs, _scale_proposals
from gapsolve.errors import BudgetExceeded, NoCoverFound, NotCovered

weight_sets = st.sets(st.integers(0, 200), min_size=1, max_size=12).map(WeightSet.of)


def test_sumset_ap_example():
    a = WeightSet.of([2, 4, 6, 8])
    assert sumset(a, a).elements == (4, 6, 8, 10, 12, 14, 16)


def test_sumset_zero_identity():
    z = WeightSet.of([0])
    assert sumset(z, z).elements == (0,)


def test_sumset_sidon_example():
    a = WeightSet.of([3, 5, 9, 17])
    assert len(sumset(a, a)) == 10


@given(weight_sets, weight_sets)
def test_sumset_size_bounds(a, b):
    s = sumset(a, b)
    assert max(len(a), len(b)) <= len(s) <= len(a) * len(b)


def test_doubling_constant_examples():
    assert doubling_constant(WeightSet.of([2, 4, 6, 8])) == Fraction(7, 4)
    assert doubling_constant(WeightSet.of([5])) == 1
    assert doubling_constant(WeightSet.of([3, 5, 9, 17])) == Fraction(10, 4)


@given(st.integers(2, 100), st.integers(1, 50), st.integers(0, 1000))
def test_ap_doubling_law(n, step, start):
    # |A+A| = 2|A| - 1 for a simple arithmetic progression
    a = WeightSet.of(start + step * i for i in range(n))
    assert len(sumset(a, a)) == 2 * n - 1


def test_gap_enumerate_examples():
    assert gap_enumerate(Gap((2,), (3,))).elements == (0, 2, 4, 6)
    assert gap_enumerate(Gap((3, 10), (2, 1))).elements == (0, 3, 6, 10, 13, 16)
    assert gap_enumerate(Gap((1,), (0,))).elements == (0,)


def test_gap_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        gap_enumerate(Gap((1, 2, 3), (999, 999, 999)))


def test_get_gap_coordinates_examples():
    g = Gap((3, 10), (2, 1))
    [c] = get_gap_coordinates(WeightSet.of([13]), g)
    assert tuple(c) == (1, 1)
    [c] = get_gap_coordinates(WeightSet.of([6]), g)
    assert tuple(c) == (2, 0)
    [c] = get_gap_coordinates(WeightSet.of([0]), g)
    assert tuple(c) == (0, 0)


def test_get_gap_coordinates_not_covered():
    with pytest.raises(NotCovered):
        get_gap_coordinates(WeightSet.of([5]), Gap((2,), (3,)))


def test_get_gap_coordinates_lex_smallest():
    # 6 = 6*1 + 2*0 = 6*0 + 2*3; of the tuples (1, 0) and (0, 3) over the
    # generators (6, 2), the lexicographically smaller (0, 3) wins
    g = Gap((6, 2), (2, 4))
    [c] = get_gap_coordinates(WeightSet.of([6]), g)
    assert c == (0, 3)


def test_get_gap_coordinates_ignores_volume():
    # a box of 10^12 points, far past what a walk could visit
    g = Gap((10**9 + 7, 1000003, 13), (9999, 9999, 9999))
    w = 1234 * (10**9 + 7) + 5678 * 1000003 + 91 * 13
    assert get_gap_coordinates(WeightSet.of([w]), g) == [(1234, 5678, 91)]
    with pytest.raises(NotCovered):
        get_gap_coordinates(WeightSet.of([w + 1]), Gap((1,), (w,)))
    # an odd weight fails on the gcd, not after 5*10^8 tries of l_1
    with pytest.raises(NotCovered):
        get_gap_coordinates(WeightSet.of([10**9 + 1]), Gap((2, 4, 6), (10**9,) * 3))


# Reference for get_gap_coordinates: the walk over the whole coordinate box,
# which finds each weight's lexicographically smallest tuple first.

def _walk_gap_coordinates(a, g, budget=10**7):
    """Coordinates of each weight of `a` inside GAP `g`, in order of `a`.

    Recovered by naive iteration of the coordinate box; when a weight has
    several representations the lexicographically smallest tuple wins
    (itertools.product yields tuples in lex order).  Raises NotCovered for
    any weight outside the GAP.
    """
    if g.volume > budget:
        raise BudgetExceeded(f"GAP volume {g.volume} exceeds budget {budget}")
    wanted = set(a.elements)
    found = {}
    for tup in product(*(range(b + 1) for b in g.bounds)):
        v = sum(x * l for x, l in zip(g.generators, tup))
        if v in wanted and v not in found:
            found[v] = tup
            if len(found) == len(wanted):
                break
    for w in a:
        if w not in found:
            raise NotCovered(w)
    return [found[w] for w in a]


def _coords_outcome(coords, a, g):
    try:
        return coords(a, g)
    except NotCovered as exc:
        return NotCovered, exc.weight


@settings(max_examples=300, derandomize=True)
@given(st.data())
def test_get_gap_coordinates_equals_walk(data):
    # small generators make most GAPs non-proper (weights with several
    # tuples); weights past the box, or off the lattice, are not covered
    dim = data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(st.integers(1, 2 ** data.draw(st.sampled_from((2, 5, 40)))),
                              min_size=dim, max_size=dim))
    bounds = data.draw(st.lists(st.integers(0, 5), min_size=dim, max_size=dim))
    g = Gap(tuple(gens), tuple(bounds))
    points = gap_enumerate(g).elements
    top = sum(x * b for x, b in zip(gens, bounds))
    inside = st.sampled_from(points)
    weight = inside if data.draw(st.booleans()) else st.one_of(inside, st.integers(0, top + 9))
    a = WeightSet.of(data.draw(st.lists(weight, min_size=1, max_size=8)))
    assert _coords_outcome(get_gap_coordinates, a, g) == \
        _coords_outcome(_walk_gap_coordinates, a, g)


@given(st.data())
def test_coordinates_roundtrip_random_gap(data):
    dim = data.draw(st.integers(1, 3))
    gens = data.draw(st.lists(st.integers(1, 40), min_size=dim, max_size=dim))
    bounds = data.draw(st.lists(st.integers(0, 5), min_size=dim, max_size=dim))
    g = Gap(tuple(gens), tuple(bounds))
    full = gap_enumerate(g)
    sub = WeightSet.of(data.draw(st.sets(st.sampled_from(full.elements), min_size=1)))
    coords = get_gap_coordinates(sub, g)
    for w, c in zip(sub, coords):
        assert sum(x * l for x, l in zip(g.generators, c)) == w
        assert all(l <= b for l, b in zip(c, g.bounds))


def test_cover_search_ap():
    ws = WeightSet.of([7, 9, 11, 13])
    gap = gap_cover_search(ws)
    assert set(ws.elements) <= set(gap_enumerate(gap).elements)
    # translated AP: offset dim (7, bound 1) + step dim (2, bound 3)
    assert gap.generators == (7, 2) and gap.bounds == (1, 3)


def test_cover_search_singleton():
    assert gap_cover_search(WeightSet.of([5])) == Gap((5,), (1,))
    assert gap_cover_search(WeightSet.of([0])) == Gap((1,), (0,))


def test_cover_search_hidden_two_dim_gap():
    rng = random.Random(7)
    elems = set()
    while len(elems) < 80:
        elems.add(10**6 * rng.randrange(51) + 17 * rng.randrange(51))
    ws = WeightSet.of(elems)
    gap = gap_cover_search(ws, max_dim=3, volume_budget=4 * 51 * 51)
    assert gap.volume <= 4 * 51 * 51
    coords = get_gap_coordinates(ws, gap)
    for w, c in zip(ws, coords):
        assert sum(x * l for x, l in zip(gap.generators, c)) == w


def test_cover_search_failure():
    rng = random.Random(1)
    ws = WeightSet.of(rng.randrange(10**9) for _ in range(40))
    # the message names |A|, max_dim, the budget and each phase's candidates;
    # random weights repeat no difference, so the scale proposals are none.
    # The counts are exact: a search that visits other candidates fails here.
    for max_dim, budget, tried in ((2, 100, "d=2 scan 3130, d=3 proposals 0, d=3 scan 0"),
                                   (3, 10**7, "d=2 scan 3130, d=3 proposals 0, d=3 scan 9600")):
        with pytest.raises(NoCoverFound) as exc:
            gap_cover_search(ws, max_dim=max_dim, volume_budget=budget)
        assert str(exc.value) == (f"no GAP of dimension <= {max_dim} with volume <= {budget} "
                                  f"covers the 40 weights; candidates tried: {tried}")
    # the 91-point sample of the planted 3-dim GAP, one short of its volume
    planted = Gap((10**9 + 7, 1000003, 13), (8, 8, 8))
    a = WeightSet.of(random.Random("3-dim").sample(_points(planted.generators, planted.bounds), 91))
    with pytest.raises(NoCoverFound, match=r"the 91 weights; candidates tried: d=2 scan 401, "
                       r"d=3 proposals 78, d=3 scan 3432$"):
        gap_cover_search(a, volume_budget=728)


@settings(max_examples=30)
@given(st.data())
def test_cover_search_roundtrip_property(data):
    elems = data.draw(st.sets(st.integers(0, 500), min_size=1, max_size=10))
    ws = WeightSet.of(elems)
    gap = gap_cover_search(ws, volume_budget=10**5)
    assert set(ws.elements) <= set(gap_enumerate(gap).elements)


def test_weight_set_invariants():
    with pytest.raises(ValueError):
        WeightSet(())
    with pytest.raises(ValueError):
        WeightSet((3, 2))
    with pytest.raises(ValueError):
        WeightSet((-1, 2))


def test_gap_invariants():
    with pytest.raises(ValueError):
        Gap((1, 2), (3,))
    with pytest.raises(ValueError):
        Gap((0,), (3,))
    with pytest.raises(ValueError):
        Gap((1,), (-1,))


# Reference for gap_cover_search: the unpruned search, which solves every
# candidate pair in full and leaves the budget test to the end.  The pruned
# search must visit the same candidates in the same order and so return the
# same cover, or raise NoCoverFound on the same inputs.  Under each outer
# generator the inner one is tried largest first; `ascending` tries it
# smallest first instead, so a test can compare the covers of the two orders.

def _ref_solve_two_gen(w, x1, x2):
    if w == 0:
        return (0, 0)
    g = gcd(x1, x2)
    if w % g:
        return None
    m = x2 // g
    # base solution of (x1/g)*l1 = (w/g) (mod m)
    base = ((w // g) * pow(x1 // g, -1, m)) % m if m > 1 else 0
    top = w // x1
    if top < base:
        return None
    l1 = base + ((top - base) // m) * m
    l2, rem = divmod(w - x1 * l1, x2)
    if rem:
        return None
    return (l1, l2)


def _ref_solve_all_two_gen(values, x1, x2):
    coords = []
    for w in values:
        c = _ref_solve_two_gen(w, x1, x2)
        if c is None:
            return None
        coords.append(c)
    return coords


def _ref_gap_cover_search(a, max_dim=3, volume_budget=10**7, ascending=False):
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

    variants = [(list(a.elements), [])] if lo == 0 else \
        [(list(a.elements), []), (shifted, offset)]
    cands = _candidate_diffs(shifted)
    small = set(cands[:64])
    for i, da in enumerate(cands[:40]):
        for db in cands[i + 1:40]:
            small.add(gcd(da, db))
    small = sorted(small)

    def inner(pool):  # the inner generators in the order they are tried
        return pool if ascending else pool[::-1]

    if max_dim >= 2:
        for values, extra in variants:
            for x1 in reversed(cands):
                for x2 in inner([x for x in small if x < x1]):
                    coords = _ref_solve_all_two_gen(values, x1, x2)
                    if coords is None:
                        continue
                    b1 = max(c[0] for c in coords)
                    b2 = max(c[1] for c in coords)
                    gap = assemble_with(extra, [(x1, b1), (x2, b2)])
                    if gap is not None:
                        return gap

    def scanned(values):
        for x1 in reversed(cands[-200:]):
            pairs = [(x2, x3) for x2 in reversed(small[-24:]) if x2 < x1
                     for x3 in inner(small[:24]) if x3 < x2]
            yield x1, None, pairs

    if max_dim >= 3:
        # the scale proposals first, from the same helper as the search
        for propose in (_scale_proposals, scanned):
            for values, extra in variants:
                for x1, _, pairs in propose(values):
                    resid = [(w % x1, w // x1) for w in values]
                    for x2, x3 in pairs:
                        coords = _ref_solve_all_two_gen([r for r, _ in resid], x2, x3)
                        if coords is None:
                            continue
                        b1 = max(t for _, t in resid)
                        b2 = max(c[0] for c in coords)
                        b3 = max(c[1] for c in coords)
                        gap = assemble_with(extra, [(x1, b1), (x2, b2), (x3, b3)])
                        if gap is not None:
                            return gap
    raise NoCoverFound(
        f"no GAP of dimension <= {max_dim} with volume <= {volume_budget} found"
    )


def _points(gens, bounds):
    return sorted({sum(x * l for x, l in zip(gens, t))
                   for t in product(*(range(b + 1) for b in bounds))})


def _search_outcome(search, a, max_dim=3, volume_budget=10**7):
    try:
        return search(a, max_dim, volume_budget)
    except NoCoverFound:
        return NoCoverFound


def _sampled_gap(rng, d):
    """Up to 12 points of a random GAP of dimension d; one set in three is shifted."""
    gens = [rng.randint(1, 2 ** rng.choice((3, 8, 20, 40, 64))) for _ in range(d)]
    pts = _points(gens, [rng.randint(0, 6) for _ in range(d)])
    shift = rng.choice((0, 0, rng.randint(1, 2 ** rng.choice((10, 40, 70)))))
    return WeightSet.of(shift + p for p in rng.sample(pts, rng.randint(1, min(len(pts), 12))))


def test_cover_search_equals_unpruned_reference():
    rng = random.Random(404)
    budgets = (10**2, 10**4, 10**7)
    seen = set()
    for i in range(324):
        d, max_dim, budget = 1 + i % 3, 1 + i // 3 % 3, budgets[i // 9 % 3]
        a = _sampled_gap(rng, d)
        want = _search_outcome(_ref_gap_cover_search, a, max_dim, budget)
        seen.add(want if want is NoCoverFound else want.dim)
        # a found cover's own volume, and one less, are budgets at the edge
        edge = [] if want is NoCoverFound else [want.volume, want.volume - 1]
        for b in edge:
            want_b = _search_outcome(_ref_gap_cover_search, a, max_dim, b)
            assert _search_outcome(gap_cover_search, a, max_dim, b) == want_b, \
                (a, max_dim, b)
        assert _search_outcome(gap_cover_search, a, max_dim, budget) == want, \
            (a, max_dim, budget)
    assert seen == {NoCoverFound, 1, 2, 3, 4}


def test_cover_search_largest_inner_first_is_never_costlier():
    # the search's covers against those of the inner generator smallest
    # first: none is costlier, none is found by one order only, and some
    # are cheaper
    rng = random.Random(405)
    cheaper = 0
    for i in range(324):
        a = _sampled_gap(rng, 1 + i % 3)
        old = _search_outcome(partial(_ref_gap_cover_search, ascending=True), a)
        new = _search_outcome(gap_cover_search, a)
        assert (old is NoCoverFound) == (new is NoCoverFound), a
        if new is not NoCoverFound:
            assert new.volume <= old.volume, (a, old, new)
            cheaper += new.volume < old.volume
    assert cheaper


def test_cover_search_planted_G():
    # ascending inner generators accept y = 1 under x = 10^12 before y = 7,
    # which gives Gap((10**12, 1), (1, 210)) of volume 422
    planted = Gap((10**12, 7), (1, 30))
    a = WeightSet.of(_points(planted.generators, planted.bounds))
    assert len(a) == 62
    assert gap_cover_search(a) == planted == _ref_gap_cover_search(a)


def test_cover_search_planted_two_dim_675_points():
    planted = Gap((10**9 + 7, 1000003), (26, 24))
    a = WeightSet.of(_points(planted.generators, planted.bounds))
    assert len(a) == 675
    assert gap_cover_search(a) == planted == _ref_gap_cover_search(a)


def test_cover_search_planted_three_dim_sample():
    # 91 of the 729 points: the 200 largest differences all exceed 6e9, so
    # only the scale proposals reach x1 = 10^9 + 7
    planted = Gap((10**9 + 7, 1000003, 13), (8, 8, 8))
    a = WeightSet.of(random.Random("3-dim").sample(_points(planted.generators, planted.bounds), 91))
    assert gap_cover_search(a) == planted == _ref_gap_cover_search(a)


@pytest.mark.parametrize("planted", [
    Gap((10**9 + 7, 1000003, 13), (8, 8, 8)),
    # the 2-dim GAP with bounds 25 joined with its 2^63 translate
    Gap((2**63, 10**9 + 7, 1000003), (1, 25, 25)),
], ids=["whole-3dim", "2dim+2^63"])
def test_cover_search_planted_corpus(planted):
    a = WeightSet.of(_points(planted.generators, planted.bounds))
    assert len(a) == planted.volume
    start = time.perf_counter()
    assert gap_cover_search(a) == planted
    assert time.perf_counter() - start < 1.0


def test_cover_search_planted_three_dim_bounds_40_sample():
    # a valid cover, though not the planted one (volume 41^3)
    pts = _points((10**9 + 7, 1000003, 13), (40, 40, 40))
    a = WeightSet.of(random.Random("bounds-40").sample(pts, 1964))
    gap = gap_cover_search(a)
    assert len(get_gap_coordinates(a, gap)) == 1964
