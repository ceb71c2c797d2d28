import random

import numpy as np
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
from gapsolve.encoding import order_keys, order_weights
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


@pytest.mark.parametrize("gens, bounds, exps, dtype", [
    # sum(x_i * B_i) = 2^63 - 1, the largest int64, is the value of the
    # last encoding, 5: every sum fits
    ((2**62 - 1, 1), (2, 1), range(6), np.int64),
    # sum(x_i * B_i) = 2^63: the sums are Python ints
    ((2**62 - 1, 2), (2, 1), range(6), object),
    # a generator beyond int64 whose bound, and so digit, is 0
    ((1, 2**70), (2**62, 0), [0, 1, 2**62 - 1], np.int64),
], ids=["2^63-1", "2^63", "bound-0"])
def test_true_values_int64_below_2_63(gens, bounds, exps, dtype):
    g = Gap(gens, bounds)
    values = true_values(g, list(exps))
    assert values.dtype == dtype
    assert values.tolist() == [true_value(g, e) for e in exps]


@pytest.mark.parametrize("gens, bounds, dtype", [
    ((10**12, 7), (2, 60), np.int64),
    # the first generator does not outweigh the rest: the order weights are
    # the generators, the keys Python ints, and (1, 0, 1) ties (0, 2, 0)
    ((2**70 + 5, 2**70 + 3, 2**70 + 1), (2, 2, 2), object),
], ids=["int64", "object"])
def test_order_keys_order_and_tie_as_true_values(gens, bounds, dtype):
    g = Gap(gens, bounds)
    exps = list(range(g.volume))
    keys = order_keys(g, exps)
    assert keys.dtype == dtype
    keys, values = keys.tolist(), true_values(g, exps).tolist()
    for i in range(len(exps)):
        for j in range(len(exps)):
            assert (keys[i] < keys[j]) == (values[i] < values[j])
            assert (keys[i] == keys[j]) == (values[i] == values[j])


def _box_signs(gens, bounds):
    """sign(gens . D) for every integer D with |D_i| <= bounds[i], in product order."""
    sums = [0]
    for x, b in zip(gens, bounds):
        sums = [t + x * l for t in sums for l in range(-b, b + 1)]
    return [(t > 0) - (t < 0) for t in sums]


def _assert_order_weights(gens, bounds):
    y = order_weights(Gap(gens, bounds))
    assert len(y) == len(gens) and all(type(v) is int and v > 0 for v in y)
    assert _box_signs(y, bounds) == _box_signs(gens, bounds), (gens, bounds, y)
    return y


def test_order_weights_benchmark_covers():
    # G and the 2^63-scale H at steiner50's lambda = 49, checked on the whole box
    assert _assert_order_weights((10**12, 7), (49, 1470)) == (1471, 1)
    T = 2**63
    assert _assert_order_weights((T + 29, 2**61 + 3), (147, 588)) == (589, 147)


def test_order_weights_by_dimension():
    assert order_weights(Gap((2**70 + 3,), (9,))) == (1,)
    # x_1/x_2 = 3/2 is a fraction of the box: y = x / gcd(x)
    assert order_weights(Gap((6, 4), (5, 5))) == (3, 2)
    # no fraction of the box: bound 0 on either dimension
    assert order_weights(Gap((7, 2**70), (0, 9))) == (1, 1)
    assert order_weights(Gap((7, 2**70), (9, 0))) == (1, 1)
    # d = 3, dominant: x_1 = 1000 > 10*4 + 1*5, so y_1 = 1 + y'_2*4 + y'_3*5
    y2, y3 = order_weights(Gap((10, 1), (4, 5)))
    assert order_weights(Gap((1000, 10, 1), (3, 4, 5))) == (1 + y2 * 4 + y3 * 5, y2, y3)
    # d = 3, not dominant: the generators over their gcd
    assert order_weights(Gap((12, 8, 6), (3, 3, 3))) == (6, 4, 3)
    T = 2**63
    assert order_weights(Gap((T + 1, T // 2 + 1, T // 4 + 1), (2, 2, 2))) == \
        (T + 1, T // 2 + 1, T // 4 + 1)


def test_order_weights_exhaustive_sign_check():
    # every sign of x . D agrees with y . D on the box, zero included
    rng = random.Random(22)
    T = 2**63
    cases = [((2, 3), (6, 4)), ((3, 3), (5, 5)), ((1, 1, 1), (2, 3, 4)),
             ((5, 3, 2), (3, 3, 3)), ((4, 6, 10), (3, 2, 3)),
             ((T + 29, 2**61 + 3), (9, 36)), ((2**70 + 1, 5), (2, 9)),
             ((2**70, 2**70 - 1), (20, 20)), ((T, 3**30, 5**11), (1, 5, 5)),
             ((10**9 + 7, 1000003, 13), (4, 4, 4)), ((10**9 + 7, 1000003, 13), (3, 3000, 3)),
             ((7,), (0,)), ((1, 2), (0, 0)), ((3, 1, 2), (0, 4, 0))]
    for _ in range(200):
        d = rng.choice((1, 2, 2, 2, 3, 3))
        scale = rng.choice((3, 6, 100, 2**20, 2**63, 2**70))
        gens = [rng.randint(1, scale) for _ in range(d)]
        if d == 3 and rng.random() < 0.5:  # a dominant first generator
            gens[0] = scale * rng.randint(9, 99) + rng.randint(0, 9)
        top = 30 if d < 3 else 4
        cases.append((tuple(gens), tuple(rng.randint(0, top) for _ in range(d))))
    dominant = 0
    for gens, bounds in cases:
        y = _assert_order_weights(gens, bounds)
        if len(gens) == 2:  # the mediant of two fractions of the box
            assert y[0] <= 2 * bounds[1] + 1 and y[1] <= 2 * bounds[0] + 1
        if len(gens) == 3 and gens[0] > gens[1] * bounds[1] + gens[2] * bounds[2]:
            dominant += 1
    assert dominant >= 20
