"""Sparse solution polynomials: generating functions over objective values.

A solution polynomial maps each attainable (encoded) objective value to the
number of solutions attaining it.  Coefficients are exact integers.
"""

from dataclasses import dataclass

from .encoding import true_value
from .errors import EmptyPolynomial


@dataclass(frozen=True)
class SolutionPolynomial:
    """Exponent -> coefficient map; zero coefficients are never stored."""

    terms: dict

    def __post_init__(self):
        object.__setattr__(self, "terms", {e: c for e, c in self.terms.items() if c})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def monomial(cls, exponent, coeff=1):
        return cls({exponent: coeff})

    def is_zero(self):
        return not self.terms


def select_optimum(p, g, sense):
    """Exponent whose decoded true value is minimal/maximal.

    Comparison is decode-and-evaluate: (true_value, encoding) pairs, the
    order `encoding.value_rank` counts positions in.  Ties break toward the
    smaller encoding under either sense.  Raises EmptyPolynomial for the
    zero polynomial (infeasible instance).
    """
    if p.is_zero():
        raise EmptyPolynomial("no feasible solution")
    if sense == "min":
        return min(p.terms, key=lambda e: (true_value(g, e), e))
    if sense == "max":
        return max(p.terms, key=lambda e: (true_value(g, e), -e))
    raise ValueError("sense must be 'min' or 'max'")
