import random

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
)
from gapsolve.errors import BoundExceeded, OutOfBounds, OutOfRange


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
