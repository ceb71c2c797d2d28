"""Sparse solution polynomials: generating functions over objective values.

A solution polynomial maps each attainable (encoded) objective value to the
number of solutions attaining it.  Coefficients are exact big integers by
default; modular mode reduces them mod a prime, which preserves
nonzero-ness except with probability ~log2(count)/p per term.
"""

from dataclasses import dataclass, field

from .encoding import true_value
from .errors import EmptyPolynomial, ModeMismatch


@dataclass(frozen=True)
class SolutionPolynomial:
    """Exponent -> coefficient map; zero coefficients are never stored."""

    terms: dict
    modulus: int = None  # None = exact mode

    def __post_init__(self):
        cleaned = {}
        for e, c in self.terms.items():
            if self.modulus is not None:
                c %= self.modulus
            if c:
                cleaned[e] = c
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def zero(cls, modulus=None):
        return cls({}, modulus)

    @classmethod
    def monomial(cls, exponent, coeff=1, modulus=None):
        return cls({exponent: coeff}, modulus)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            raise EmptyPolynomial("zero polynomial has no degree")
        return max(self.terms)

    def dumps(self):
        """Sorted 'exponent:coefficient' lines for golden tests."""
        return "\n".join(f"{e}:{self.terms[e]}" for e in sorted(self.terms))


def _check_modes(p, q):
    if p.modulus != q.modulus:
        raise ModeMismatch(f"{p.modulus} vs {q.modulus}")


def poly_add(p, q):
    _check_modes(p, q)
    terms = dict(p.terms)
    for e, c in q.terms.items():
        terms[e] = terms.get(e, 0) + c
    return SolutionPolynomial(terms, p.modulus)


def poly_mul(p, q):
    """Convolution: exponents add, coefficients multiply."""
    _check_modes(p, q)
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = e1 + e2
            terms[e] = terms.get(e, 0) + c1 * c2
    return SolutionPolynomial(terms, p.modulus)


def select_optimum(p, g, sense):
    """Exponent whose decoded true value is minimal/maximal.

    Comparison is decode-and-evaluate: (true_value, encoding) pairs, the
    order `encoding.value_rank` counts positions in.  Raises
    EmptyPolynomial for the zero polynomial (infeasible instance).
    """
    if p.is_zero():
        raise EmptyPolynomial("no feasible solution")
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    key = lambda e: (true_value(g, e), e)
    if sense == "min":
        return min(p.terms, key=key)
    # max: still break ties toward the smaller encoding
    best = None
    best_tv = None
    for e in sorted(p.terms):
        tv = true_value(g, e)
        if best is None or tv > best_tv:
            best, best_tv = e, tv
    return best
