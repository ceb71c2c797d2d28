import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapsolve import Gap, SolutionPolynomial, enlarge, select_optimum, true_value
from gapsolve.errors import EmptyPolynomial


def test_select_optimum_single_term():
    g = enlarge(Gap((1,), (50,)), 1)
    p = SolutionPolynomial({7: 2})
    assert select_optimum(p, g, "min") == 7
    assert select_optimum(p, g, "max") == 7


def test_select_optimum_uses_true_values():
    # encodings are ordered lexicographically but values reverse the order
    from gapsolve import CoordTuple, kappa

    g = enlarge(Gap((3, 10), (2, 2)), 1)
    e12 = kappa(g, CoordTuple((1, 2)))
    e21 = kappa(g, CoordTuple((2, 1)))
    p = SolutionPolynomial({e12: 1, e21: 1})
    assert select_optimum(p, g, "min") == e21
    assert select_optimum(p, g, "max") == e12


@given(st.dictionaries(st.integers(0, 80), st.integers(1, 3), min_size=1, max_size=8))
def test_select_optimum_brute_force(terms):
    g = enlarge(Gap((5, 3), (4, 4)), 1)
    terms = {e: c for e, c in terms.items() if e < g.range_bound}
    if not terms:
        return
    p = SolutionPolynomial(terms)
    best_min = min(terms, key=lambda e: (true_value(g, e), e))
    best_max = max(terms, key=lambda e: (true_value(g, e), -e))
    assert select_optimum(p, g, "min") == best_min
    assert select_optimum(p, g, "max") == best_max


def test_select_optimum_empty():
    g = enlarge(Gap((1,), (5,)), 1)
    with pytest.raises(EmptyPolynomial):
        select_optimum(SolutionPolynomial.zero(), g, "min")
