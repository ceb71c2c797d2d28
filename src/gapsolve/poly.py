"""Optimum selection over solution terms: generating functions over objective values.

Every solver returns its solutions as a plain dict that maps each attainable
(encoded) objective value, the exponent, to the number of solutions
attaining it.  Coefficients are exact integers.
"""

from .encoding import true_values
from .errors import EmptyPolynomial


def select_optimum(terms, g, sense):
    """(exponent, true value, count) of the optimal term of `terms`.

    All exponents are decoded in one `true_values` call.  Comparison is by
    (true value, encoding), the order `encoding.value_rank` counts positions
    in; ties break toward the smaller encoding under either sense.  Distinct
    exponents can share a true value, so `count` sums the coefficients of
    every exponent on the optimal value.  Raises EmptyPolynomial for an
    empty map (infeasible instance).
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if not terms:
        raise EmptyPolynomial("no feasible solution")
    import numpy as np

    exps = list(terms)
    values = true_values(g, exps)
    value = values.min() if sense == "min" else values.max()
    on_value = np.flatnonzero(values == value).tolist()
    best = min(exps[i] for i in on_value)
    count = sum(terms[exps[i]] for i in on_value)
    return best, value, count
