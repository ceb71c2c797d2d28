import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsolve import CoordTuple, Gap, enlarge, kappa, select_optimum, true_value
from gapsolve.errors import InfeasibleInstance


def test_select_optimum_single_term():
    g = enlarge(Gap((1,), (50,)), 1)
    assert select_optimum({7: 2}, g, "min") == (7, 7, 2)
    assert select_optimum({7: 2}, g, "max") == (7, 7, 2)


def test_select_optimum_uses_true_values():
    # encodings are ordered lexicographically but values reverse the order
    g = enlarge(Gap((3, 10), (2, 2)), 1)
    e12 = kappa(g, CoordTuple((1, 2)))
    e21 = kappa(g, CoordTuple((2, 1)))
    terms = {e12: 1, e21: 1}
    assert select_optimum(terms, g, "min") == (e21, 16, 1)
    assert select_optimum(terms, g, "max") == (e12, 23, 1)


def test_select_optimum_counts_every_exponent_on_the_value():
    # 2*3 = 3*2: <3, 0> and <0, 2> both have value 6 in the non-proper GAP
    g = enlarge(Gap((2, 3), (6, 4)), 1)
    e30 = kappa(g, CoordTuple((3, 0)))
    e02 = kappa(g, CoordTuple((0, 2)))
    e10 = kappa(g, CoordTuple((1, 0)))
    terms = {e30: 2, e02: 5, e10: 1}
    assert e02 < e30
    assert select_optimum(terms, g, "max") == (e02, 6, 7)
    assert select_optimum(terms, g, "min") == (e10, 2, 1)


@given(st.dictionaries(st.integers(0, 34), st.integers(1, 3), min_size=1, max_size=8))
def test_select_optimum_brute_force(all_terms):
    # Gap((2, 3), (6, 4)) is not proper: distinct exponents share a value
    for gap in (Gap((5, 3), (4, 4)), Gap((2, 3), (6, 4))):
        g = enlarge(gap, 1)
        terms = {e: c for e, c in all_terms.items() if e < g.range_bound}
        if not terms:
            continue
        for sense, pick in (("min", min), ("max", max)):
            value = pick(true_value(g, e) for e in terms)
            on_value = [e for e in terms if true_value(g, e) == value]
            count = sum(terms[e] for e in on_value)
            assert select_optimum(terms, g, sense) == (min(on_value), value, count)


def test_select_optimum_empty():
    g = enlarge(Gap((1,), (5,)), 1)
    with pytest.raises(InfeasibleInstance, match="no feasible solution"):
        select_optimum({}, g, "min")


def test_select_optimum_bad_sense():
    g = enlarge(Gap((1,), (5,)), 1)
    with pytest.raises(ValueError):
        select_optimum({1: 1}, g, "best")
