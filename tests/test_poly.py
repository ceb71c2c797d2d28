import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsolve import Gap, enlarge, kappa, select_optimum, true_value
from gapsolve.errors import InfeasibleInstance


def arrays(terms):
    """{exponent: count} as the (exps, counts) pair every solver returns."""
    exps = sorted(terms)
    return (np.array(exps, dtype=np.int64),
            np.array([terms[e] for e in exps], dtype=np.int64))


def test_select_optimum_single_term():
    g = enlarge(Gap((1,), (50,)), 1)
    assert select_optimum(arrays({7: 2}), g, "min") == (7, 7, 2)
    assert select_optimum(arrays({7: 2}), g, "max") == (7, 7, 2)
    # a generator beyond int64 and float64 that the exponent does not use
    g = enlarge(Gap((2**1100, 1), (1, 5)), 1)
    assert select_optimum(arrays({4: 2}), g, "min") == (4, 4, 2)


def test_select_optimum_uses_true_values():
    # encodings are ordered lexicographically but values reverse the order
    g = enlarge(Gap((3, 10), (2, 2)), 1)
    e12 = kappa(g, (1, 2))
    e21 = kappa(g, (2, 1))
    terms = {e12: 1, e21: 1}
    assert select_optimum(arrays(terms), g, "min") == (e21, 16, 1)
    assert select_optimum(arrays(terms), g, "max") == (e12, 23, 1)


def test_select_optimum_counts_every_exponent_on_the_value():
    # 2*3 = 3*2: <3, 0> and <0, 2> both have value 6 in the non-proper GAP
    g = enlarge(Gap((2, 3), (6, 4)), 1)
    e30 = kappa(g, (3, 0))
    e02 = kappa(g, (0, 2))
    e10 = kappa(g, (1, 0))
    terms = {e30: 2, e02: 5, e10: 1}
    assert e02 < e30
    assert select_optimum(arrays(terms), g, "max") == (e02, 6, 7)
    assert select_optimum(arrays(terms), g, "min") == (e10, 2, 1)
    # 3^40 is past int64 and float64's 53 bits: the five encodings of
    # 6 * 3^40 share the order key a + b = 6, and every one must be counted
    g = enlarge(Gap((3**40, 3**40), (5, 5)), 1)
    terms = {kappa(g, (a, b)): 1 for a in range(6) for b in range(6) if 5 <= a + b <= 6}
    assert select_optimum(arrays(terms), g, "max") == (kappa(g, (1, 5)), 6 * 3**40, 5)


@given(st.dictionaries(st.integers(0, 34), st.integers(1, 3), min_size=1, max_size=8))
def test_select_optimum_brute_force(all_terms):
    # Gap((2, 3), (6, 4)) is not proper: distinct exponents share a value;
    # on the third GAP values are (a+b) * 2^70 + a, neighbours 1 apart at
    # 2^73 scale, ranked by small int64 order keys; the fourth's first
    # generator does not outweigh the rest, so its order weights are the
    # generators themselves and its keys Python ints, with ties such as
    # (1, 0, 1) and (0, 2, 0)
    for gap in (Gap((5, 3), (4, 4)), Gap((2, 3), (6, 4)), Gap((2**70 + 1, 2**70), (5, 5)),
                Gap((2**70 + 5, 2**70 + 3, 2**70 + 1), (2, 2, 2))):
        g = enlarge(gap, 1)
        terms = {e: c for e, c in all_terms.items() if e < g.volume}
        if not terms:
            continue
        for sense, pick in (("min", min), ("max", max)):
            value = pick(true_value(g, e) for e in terms)
            on_value = [e for e in terms if true_value(g, e) == value]
            count = sum(terms[e] for e in on_value)
            assert select_optimum(arrays(terms), g, sense) == (min(on_value), value, count)


def test_select_optimum_empty():
    g = enlarge(Gap((1,), (5,)), 1)
    with pytest.raises(InfeasibleInstance, match="no feasible solution"):
        select_optimum(arrays({}), g, "min")


def test_select_optimum_bad_sense():
    g = enlarge(Gap((1,), (5,)), 1)
    with pytest.raises(ValueError):
        select_optimum(arrays({1: 1}), g, "best")
