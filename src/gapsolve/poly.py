"""Optimum selection over solution terms: generating functions over objective values.

Every solver returns its solutions as a plain dict that maps each attainable
(encoded) objective value, the exponent, to the number of solutions
attaining it.  Coefficients are exact integers.
"""

from .encoding import true_value
from .errors import EmptyPolynomial


def select_optimum(terms, g, sense):
    """(exponent, true value, count) of the optimal term of `terms`.

    Each exponent is decoded once.  Comparison is by (true value, encoding),
    the order `encoding.value_rank` counts positions in; ties break toward
    the smaller encoding under either sense.  Distinct exponents can share
    a true value, so `count` sums the coefficients of every exponent on the
    optimal value.  Raises EmptyPolynomial for an empty map (infeasible
    instance).
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if not terms:
        raise EmptyPolynomial("no feasible solution")
    sign = 1 if sense == "min" else -1
    best = value = None
    count = 0
    for e, c in terms.items():
        v = true_value(g, e)
        if best is None or sign * (v - value) < 0:
            best, value, count = e, v, c
        elif v == value:
            best = min(best, e)
            count += c
    return best, value, count
