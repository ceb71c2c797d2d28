"""Optimum selection over solution terms: generating functions over objective values.

Every solver returns its solutions as one pair `(exps, counts)` of
equal-length int64 ndarrays: `exps` holds each attainable (encoded)
objective value, the exponent, strictly ascending, and `counts[j]` the
number of solutions attaining `exps[j]`.  Two empty arrays mean no
solution.
"""

from .encoding import digit_values, radix_digits
from .errors import InfeasibleInstance


def select_optimum(terms, g, sense):
    """(exponent, true value, count) of the optimal term of `terms`, as ints.

    `terms` is an `(exps, counts)` pair over the GAP `g`.  Comparison is by
    (true value, encoding): the true value first, and ties break toward
    the smaller encoding under either sense.  Distinct exponents can share
    a true value, so `count` sums the counts of every exponent on the
    optimal value.  Every exponent is
    range-checked as in `radix_digits` (OutOfRange, then BoundExceeded);
    an empty pair raises InfeasibleInstance.

    Only the exponents near the optimum are decoded exactly.  With d the
    dimension, l_ij the digits of exponent j, t_i = max_j l_ij and
    A = sum_i x_i * t_i, the generators are shifted down by s bits,
    s = max(0, bitlen(A) - 1000), so no float64 step overflows.  The
    estimate of exponent j is E_j = sum_i float(x_i >> s) * float(l_ij) in
    float64.  With u = 2^-53 and A' = A >> s, each term takes three
    roundings and the sum d - 1 more, so E_j lies within
    gamma_(d+2) * A' <= (d+3) * u * A' of sum_i (x_i >> s) * l_ij, which
    lies within sum_i t_i (0 when s = 0) below V_j / 2^s, V_j the true value.
    tau = floor((d+4) * u * A') + 1 + [s > 0] * sum_i t_i bounds that error
    with u * A' to spare, which covers rounding E* +- 2 tau (below 2^53
    every step is exact).  For min, let E* be the least estimate: it
    estimates a value not below the optimum V*, so E* >= V*/2^s - tau, and
    every exponent on V* has E_j <= V*/2^s + tau <= E* + 2 tau (for max,
    symmetrically, E_j >= E* - 2 tau).  Keeping the exponents within 2 tau
    of E* therefore keeps all of them, and `digit_values` decodes just
    those from the digits already split.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    exps, counts = terms
    if not len(exps):
        raise InfeasibleInstance("no feasible solution")
    import numpy as np

    digits = radix_digits(g, exps)
    tops = [int(digit.max()) for digit in digits]
    reach = sum(x * t for x, t in zip(g.generators, tops))
    shift = max(0, reach.bit_length() - 1000)
    estimate = np.zeros(len(exps))
    for x, digit, top in zip(g.generators, digits, tops):
        if top:  # a generator no exponent uses may lie beyond float64
            estimate += float(x >> shift) * digit
    tau = ((g.dim + 4) * (reach >> shift) >> 53) + 1 + (sum(tops) if shift else 0)
    if sense == "min":
        near = np.flatnonzero(estimate <= estimate.min() + 2.0 * tau)
    else:
        near = np.flatnonzero(estimate >= estimate.max() - 2.0 * tau)
    values = digit_values(g, [digit[near] for digit in digits])
    value = values.min() if sense == "min" else values.max()
    on_value = near[values == value]
    # exps ascend, so the first exponent on the value is the smallest
    return int(exps[on_value[0]]), value, int(counts[on_value].sum())
