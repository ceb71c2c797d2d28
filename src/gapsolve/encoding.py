"""Order-aware mixed-radix pairing of GAP coordinates into integers.

kappa maps a coordinate tuple <l_1..l_d> to the mixed-radix number with
radices <B_i + 1> (dimension 1 most significant), where B_i are the
bounds of the GAP it is given: the cover's bounds scaled by lambda
(`enlarge`), so that the encoded range is that GAP's volume.  It is
additive on tuples that stay inside the box and strictly monotone w.r.t.
lexicographic tuple order, which makes it injective.  Encoded order
differs from true-value order in general, so optima are compared by
(true value, encoding): the true value first, ties toward the smaller
encoding.  `order_keys` gives the true-value order exactly, ties
included, as sums of the small `order_weights` over the coordinates.
"""

from math import gcd
from operator import mul

from .additive import Gap
from .errors import BoundExceeded, OutOfBounds, OutOfRange

# the numpy paths hold encodings and their sums in int64; below 2^62 the
# sum of two such values cannot wrap
EXPONENT_LIMIT = 2**62


def enlarge(g, lam):
    """The GAP `g` with every bound scaled by `lam`; generators unchanged."""
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    return Gap(g.generators, tuple(lam * b for b in g.bounds))


def kappa(g, t):
    """Encode a coordinate tuple as a mixed-radix integer.

    Raises ValueError for a tuple whose length is not the GAP's dimension,
    and OutOfBounds for a coordinate outside [0, its bound].
    """
    coords = tuple(t)
    if len(coords) != g.dim:
        raise ValueError(f"{len(coords)} coordinates for a GAP of dimension {g.dim}")
    e = 0
    for i, (l, b) in enumerate(zip(coords, g.bounds)):
        if not 0 <= l <= b:
            raise OutOfBounds(i)
        e = e * (b + 1) + l
    return e


def kappa_inv(g, e):
    """Decode an encoded value back to its coordinate tuple."""
    if e < 0 or e >= g.volume:
        raise OutOfRange(f"encoded value of {int(e).bit_length()} bits outside "
                         f"[0, a volume of {g.volume.bit_length()} bits)")
    coords = []
    for b in reversed(g.bounds):
        e, l = divmod(e, b + 1)
        coords.append(l)
    return tuple(reversed(coords))


def true_value(g, e):
    """Original-scale value sum(x_i * l_i) of an encoded weight."""
    coords = kappa_inv(g, e)
    return sum(x * l for x, l in zip(g.generators, coords))


def order_weights(g):
    """Small positive ints y that compare bounded combinations as g's generators do.

    sign(y . D) = sign(x . D) for every integer vector D with |D_i| <=
    g.bounds[i], zero included, where x is g's generators (Frank and
    Tardos's simultaneous approximation, done exactly for this box):

      d = 1   y = (1,).
      d = 2   x_1/x_2 is compared with r/s, 0 <= r <= M_2, 1 <= s <= M_1;
              y is the mediant of the nearest such fractions on each side
              (1/0 above all), found by a Stern-Brocot walk with batched
              steps, or x/gcd(x) when x_1/x_2 is one of them.
      d >= 3  when x_1 > sum_{j>=2} x_j M_j, x_1 decides every D with D_1 !=
              0, so y = (1 + sum_{j>=2} y'_j M_j, y') with y' the order
              weights of the later dimensions; otherwise y = x/gcd(x).

    With y, the mixed-radix encodings of the box's points order as their
    true values whenever y . l does, and y . l is polynomial in the bounds
    for d <= 2 and for separated scales, whatever the generators' size.
    """
    x, bounds = g.generators, g.bounds
    if len(x) == 1:
        return (1,)
    if len(x) == 2:
        return _order_pair(*x, *bounds)
    if x[0] > sum(xj * mj for xj, mj in zip(x[1:], bounds[1:])):
        rest = order_weights(Gap(x[1:], bounds[1:]))
        return (1 + sum(yj * mj for yj, mj in zip(rest, bounds[1:])),) + rest
    div = gcd(*x)
    return tuple(xj // div for xj in x)


def _order_pair(p, q, top_s, top_r):
    """order_weights of generators (p, q) under bounds (top_s, top_r).

    The walk keeps a/b < p/q < c/d, neighbours in the Stern-Brocot tree, so
    every fraction strictly between them has numerator at least a + c and
    denominator at least b + d: once their mediant leaves the box, a/b and
    c/d are the nearest fractions of the box.  A run of steps toward one
    side is taken at once, as many as keep that side's bound on its side of
    p/q and inside the box; an exact hit means p/q is in the box.
    """
    a, b, c, d = 0, 1, 1, 0
    while a + c <= top_r and b + d <= top_s:
        below = (a + c) * q < p * (b + d)
        if below:  # the mediant is below p/q: raise a/b
            num, den = p * b - a * q, c * q - d * p
            room = min((top_r - a) // c, (top_s - b) // d if d else num)
        else:  # lower c/d
            num, den = c * q - d * p, p * b - a * q
            room = min((top_r - c) // a if a else num, (top_s - d) // b)
        if num % den == 0 and num // den <= room:
            div = gcd(p, q)
            return p // div, q // div
        k = min((num - 1) // den, room)
        if below:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
    return a + c, b + d


def radix_digits(g, exps):
    """The mixed-radix digits of every encoded weight in `exps`.

    Returns one int64 ndarray per dimension, dimension 1 first, so that
    kappa_inv(g, exps[j]) is the tuple of the j-th entries.  The digits are
    split off in int64.  Raises OutOfRange, an InvariantViolated, for an
    encoding outside [0, g.volume), and then BoundExceeded for one of
    EXPONENT_LIMIT or more.  An `exps` outside int64 is read twice, so it
    must be a collection.
    """
    import numpy as np

    try:
        rest = np.asarray(exps, dtype=np.int64)
        lo, top = (int(rest.min()), int(rest.max())) if rest.size else (0, 0)
    except OverflowError:  # beyond int64
        lo, top = min(exps), max(exps)
    if lo < 0 or top >= g.volume:
        raise OutOfRange(f"encoded values outside [0, a volume of {g.volume.bit_length()} bits)")
    if top >= EXPONENT_LIMIT:
        raise BoundExceeded("an encoded value is not below 2^62")
    digits = []
    for b in reversed(g.bounds):
        # a radix above every value splits off the same digit as 2^62 does
        rest, digit = np.divmod(rest, min(b + 1, EXPONENT_LIMIT))
        digits.append(digit)
    return digits[::-1]


def weigh(g, weights, digits):
    """sum(w_i * l_i) over digit arrays shaped as `radix_digits` returns them.

    The sums are int64 when sum(w_i * B_i) over g's bounds B is below
    2^63, so no partial sum can wrap, and Python ints in an object ndarray
    otherwise, so generators at 2^63 scale stay exact.
    """
    import numpy as np

    dtype = np.int64 if sum(map(mul, weights, g.bounds)) < 2**63 else object
    sums = np.zeros(digits[0].shape, dtype=dtype)
    for w, b, digit in zip(weights, g.bounds, digits):
        if b:  # a digit of bound 0 is 0, and its weight may lie beyond int64
            sums += digit.astype(dtype, copy=False) * w
    return sums


def true_values(g, exps):
    """true_value of every encoded weight in `exps`, as `weigh` returns it.

    The digits come from `radix_digits`, with its range checks.
    """
    return weigh(g, g.generators, radix_digits(g, exps))


def order_keys(g, exps):
    """The order weights' sums of every encoded weight in `exps`.

    Over g's box these order, and tie, as the true values do, and they
    fit int64 wherever `order_weights` is small.  The digits come from
    `radix_digits`, with its range checks.
    """
    return weigh(g, order_weights(g), radix_digits(g, exps))
