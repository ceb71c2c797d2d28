import random
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsolve import (
    Gap,
    enlarge,
    kappa,
    kappa_inv,
    true_value,
    true_values,
    value_rank,
)
from gapsolve.cli import DEFAULT_PERM_BUDGET
from gapsolve.errors import BoundExceeded, BudgetExceeded, OutOfBounds, OutOfRange


@dataclass(frozen=True)
class PermutationTable:
    """Rank table over all encodable values, sorted by (true value, encoding)."""

    sorted_entries: tuple  # (encoded, true_value) pairs, ascending
    rank_of: dict

    def rank(self, e):
        return self.rank_of[e]


def build_permutation(g, budget=DEFAULT_PERM_BUDGET):
    """Materialize the rank-restoring permutation over [0, g.volume).

    Ties on true value break by encoded value ascending.  Raises
    BudgetExceeded above `budget`.  This is the reference `value_rank` is
    tested against; it sorts the whole range, so nothing else builds it.
    """
    n = g.volume
    if n > budget:
        raise BudgetExceeded(f"permutation size {n} exceeds budget {budget}")
    entries = sorted(((e, true_value(g, e)) for e in range(n)), key=lambda p: (p[1], p[0]))
    return PermutationTable(tuple(entries), {e: r for r, (e, _) in enumerate(entries)})


def egap_of(gens, bounds, lam=1):
    return enlarge(Gap(tuple(gens), tuple(bounds)), lam)


def test_kappa_base_case():
    g = egap_of([1], [10])
    assert kappa(g, (7,)) == 7


def test_kappa_two_dims():
    g = egap_of([1, 1], [4, 5])
    assert kappa(g, (2, 3)) == 3 + 6 * 2


def test_kappa_zero():
    g = egap_of([3, 5, 7], [2, 2, 2])
    assert kappa(g, (0, 0, 0)) == 0


def test_kappa_out_of_bounds():
    g = egap_of([1, 1], [4, 5])
    with pytest.raises(OutOfBounds):
        kappa(g, (5, 0))
    with pytest.raises(OutOfBounds):  # a negative coordinate, too
        kappa(g, (-1, 0))
    # a tuple of the wrong length names both lengths, not a dimension
    with pytest.raises(ValueError, match="3 coordinates for a GAP of dimension 2"):
        kappa(g, (1, 2, 3))


def test_kappa_inv_examples():
    g = egap_of([1, 1], [4, 5])
    assert kappa_inv(g, 15) == (2, 3)  # a plain tuple
    assert kappa_inv(g, 0) == (0, 0)
    with pytest.raises(OutOfRange):
        kappa_inv(g, g.volume)


def test_enlarge():
    g = Gap((3, 10), (2, 1))
    assert enlarge(g, 4) == Gap(g.generators, (8, 4))
    assert enlarge(g, 4).volume == 9 * 5
    assert enlarge(g, 1) == g
    for lam in (0, -1):
        with pytest.raises(ValueError, match="lambda must be >= 1"):
            enlarge(g, lam)


@given(st.integers(1, 6), st.data())
def test_enlarged_volume_chain(lam, data):
    dim = data.draw(st.integers(1, 4))
    bounds = tuple(data.draw(st.lists(st.integers(0, 8), min_size=dim, max_size=dim)))
    g = Gap((1,) * dim, bounds)
    eg = enlarge(g, lam)
    assert eg.volume <= lam**dim * g.volume


def test_true_value_paper_ordering():
    # generators (3, 10): tuple (2,1) has smaller value than (1,2)
    g = egap_of([3, 10], [2, 2])
    e12 = kappa(g, (1, 2))
    e21 = kappa(g, (2, 1))
    assert true_value(g, e12) == 23
    assert true_value(g, e21) == 16
    assert e12 < e21  # lexicographic encoding order...
    assert true_value(g, e21) < true_value(g, e12)  # ...but reversed true order


def test_true_value_zero():
    g = egap_of([3, 10], [2, 2])
    assert true_value(g, 0) == 0


def _random_egap(data, max_dim=5, max_bound=8, max_gen=2**63):
    dim = data.draw(st.integers(1, max_dim))
    gens = tuple(data.draw(st.lists(st.integers(1, max_gen), min_size=dim, max_size=dim)))
    bounds = tuple(data.draw(st.lists(st.integers(0, max_bound), min_size=dim, max_size=dim)))
    lam = data.draw(st.integers(1, 4))
    return enlarge(Gap(gens, bounds), lam)


@given(st.data())
def test_kappa_homomorphism(data):
    g = _random_egap(data)
    halves = [b // 2 for b in g.bounds]
    alpha = tuple(data.draw(st.integers(0, h)) for h in halves)
    beta = tuple(
        data.draw(st.integers(0, b - a))
        for a, b in zip(alpha, g.bounds)
    )
    both = tuple(x + y for x, y in zip(alpha, beta))
    assert kappa(g, both) == kappa(g, alpha) + kappa(g, beta)


@given(st.data())
def test_kappa_roundtrip(data):
    g = _random_egap(data)
    t = tuple(data.draw(st.integers(0, b)) for b in g.bounds)
    e = kappa(g, t)
    assert tuple(kappa_inv(g, e)) == t
    assert true_value(g, e) == sum(x * l for x, l in zip(g.generators, t))


@given(st.data())
def test_kappa_lex_monotonicity(data):
    g = _random_egap(data)
    a = tuple(data.draw(st.integers(0, b)) for b in g.bounds)
    b = tuple(data.draw(st.integers(0, bb)) for bb in g.bounds)
    if a == b:
        return
    lo, hi = (a, b) if a < b else (b, a)
    assert kappa(g, lo) < kappa(g, hi)


def test_lex_monotonicity_both_branches():
    # prefix-equal branch: tuples differ only in the last coordinate
    g = egap_of([5, 7, 11], [3, 3, 3])
    assert kappa(g, (1, 2, 0)) < kappa(g, (1, 2, 3))
    # prefix-strict branch: earlier coordinate decides despite larger tail
    assert kappa(g, (1, 2, 3)) < kappa(g, (2, 0, 0))


def test_kappa_range_attained():
    g = egap_of([3, 10], [2, 1], lam=4)
    top = kappa(g, g.bounds)
    assert top == g.volume - 1


def test_build_permutation_identity():
    g = egap_of([1], [9])
    table = build_permutation(g)
    assert all(table.rank(e) == e for e in range(10))


def test_build_permutation_restores_value_order():
    g = egap_of([3, 10], [2, 2])
    table = build_permutation(g)
    e12 = kappa(g, (1, 2))
    e21 = kappa(g, (2, 1))
    assert table.rank(e21) < table.rank(e12)
    tvs = [tv for _, tv in table.sorted_entries]
    assert tvs == sorted(tvs)


def test_build_permutation_budget():
    g = egap_of([1, 2, 3], [99, 99, 99])
    with pytest.raises(BudgetExceeded):
        build_permutation(g, budget=10**4)


@given(st.data())
def test_permutation_agrees_with_decode_and_evaluate(data):
    g = _random_egap(data, max_dim=3, max_bound=4, max_gen=100)
    table = build_permutation(g)
    n = g.volume
    e1 = data.draw(st.integers(0, n - 1))
    e2 = data.draw(st.integers(0, n - 1))
    lhs = table.rank(e1) < table.rank(e2)
    rhs = (true_value(g, e1), e1) < (true_value(g, e2), e2)
    assert lhs == rhs


def _seeded_egaps():
    """Enlarged gaps for d = 1..4: bounds with 0, 2^63-scale generators, ties."""
    rng = random.Random(31)
    fixed = [Gap((2, 3), (6, 4)), Gap((1,), (0,)), Gap((5, 5), (3, 0)),
             Gap((2**63 + 1, 7), (3, 5)), Gap((2**63, 2**63 - 1, 1), (2, 2, 0))]
    gaps = [enlarge(g, lam) for g in fixed for lam in (1, 2)]
    while len(gaps) < 80:
        dim = 1 + len(gaps) % 4
        gens = tuple(rng.choice([rng.randint(1, 6), rng.randint(1, 10**12),
                                 2**63 + rng.randint(0, 99)]) for _ in range(dim))
        bounds = tuple(rng.randint(0, 5) for _ in range(dim))
        g = enlarge(Gap(gens, bounds), rng.randint(1, 2))
        if g.volume <= 3000:
            gaps.append(g)
    return gaps


def test_value_rank_equals_permutation_table_exhaustively():
    gaps = _seeded_egaps()
    assert {g.dim for g in gaps} == {1, 2, 3, 4}
    for g in gaps:
        table = build_permutation(g)
        for e in range(g.volume):
            assert value_rank(g, e) == table.rank(e), (g, e)
    assert sum(g.volume for g in gaps) > 10000


def test_value_rank_breaks_ties_by_encoding():
    # 2*3 + 3*0 == 2*0 + 3*2: equal true values rank in encoding order
    g = egap_of([2, 3], [6, 4])
    a, b = kappa(g, (0, 2)), kappa(g, (3, 0))
    assert true_value(g, a) == true_value(g, b) and a < b
    assert value_rank(g, b) == value_rank(g, a) + 1


def test_value_rank_out_of_range():
    g = egap_of([3, 10], [2, 2])
    with pytest.raises(OutOfRange):
        value_rank(g, g.volume)


def test_true_values_matches_true_value():
    # 2^63-scale generators: the values need Python ints, the digits do not
    rng = random.Random(3)
    g = enlarge(Gap((2**63 + 29, 2**61 + 3, 5), (3, 12, 4)), 9)
    exps = [rng.randrange(g.volume) for _ in range(300)] + [0, g.volume - 1]
    values = true_values(g, exps).tolist()
    assert values == [true_value(g, e) for e in exps]
    assert all(type(v) is int for v in values)
    assert true_values(g, []).tolist() == []
    with pytest.raises(OutOfRange):
        true_values(g, [g.volume])
    with pytest.raises(OutOfRange):
        true_values(g, [-1])


def test_true_values_limit_2_62():
    # a radix above 2^62 still splits off exact digits; encodings stop there
    g = enlarge(Gap((7, 1), (2**70, 2**70)), 1)
    e = 2**62 - 1
    assert true_values(g, [e]).tolist() == [true_value(g, e)] == [e]
    for big in (2**62, 2**63, 2**80):
        with pytest.raises(BoundExceeded):
            true_values(g, [big])
    # outside the range they are an internal fault (exit 5), not exit 2
    small = egap_of([3, 10], [2, 2])
    for bad in (2**62, 2**63, 2**80, -2**70):
        with pytest.raises(OutOfRange):
            true_values(small, [1, bad])
