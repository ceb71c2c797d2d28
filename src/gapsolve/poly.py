"""Optimum selection over solution terms: generating functions over objective values.

Every solver returns its solutions as one pair `(exps, counts)` of
equal-length int64 ndarrays: `exps` holds each attainable (encoded)
objective value, the exponent, strictly ascending, and `counts[j]` the
number of solutions attaining `exps[j]`.  Two empty arrays mean no
solution.
"""

from .encoding import order_weights, radix_digits, weigh
from .errors import InfeasibleInstance


def select_optimum(terms, g, sense):
    """(exponent, true value, count) of the optimal term of `terms`, as ints.

    `terms` is an `(exps, counts)` pair over the GAP `g`.  Comparison is by
    (true value, encoding): the true value first, and ties break toward
    the smaller encoding under either sense.  Distinct exponents can share
    a true value, so `count` sums the counts of every exponent on the
    optimal value.  Every exponent is range-checked as in `radix_digits`
    (OutOfRange, then BoundExceeded); an empty pair raises
    InfeasibleInstance.

    The digits are split once.  Their sums under `encoding.order_weights(g)`
    order and tie as the true values do over g's box, so the optimal
    exponents are those on the extreme key, and the true value is decoded
    from the digits of the first of them.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    exps, counts = terms
    if not len(exps):
        raise InfeasibleInstance("no feasible solution")
    digits = radix_digits(g, exps)
    keys = weigh(g, order_weights(g), digits)
    on_key = (keys == (keys.min() if sense == "min" else keys.max())).nonzero()[0]
    # exps ascend, so the first exponent on the key is the smallest
    first = on_key[0]
    value = sum(x * int(digit[first]) for x, digit in zip(g.generators, digits))
    return int(exps[first]), value, int(counts[on_key].sum())
