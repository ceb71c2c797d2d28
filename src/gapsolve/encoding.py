"""Order-aware mixed-radix pairing of GAP coordinates into integers.

kappa maps a coordinate tuple <l_1..l_d> to the mixed-radix number with
radices <B_i + 1> (dimension 1 most significant), where B_i are the
bounds of the GAP it is given: the cover's bounds scaled by lambda
(`enlarge`), so that the encoded range is that GAP's volume.  It is
additive on tuples that stay inside the box and strictly monotone w.r.t.
lexicographic tuple order, which makes it injective.  Encoded order
differs from true-value order in general, so optima are compared by
(true value, encoding): the true value decoded from the coordinates
first, ties toward the smaller encoding.
"""

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
        raise OutOfRange(f"encoded value {e} outside [0, {g.volume})")
    coords = []
    for b in reversed(g.bounds):
        e, l = divmod(e, b + 1)
        coords.append(l)
    return tuple(reversed(coords))


def true_value(g, e):
    """Original-scale value sum(x_i * l_i) of an encoded weight."""
    coords = kappa_inv(g, e)
    return sum(x * l for x, l in zip(g.generators, coords))


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
        raise OutOfRange(f"encoded values outside [0, {g.volume})")
    if top >= EXPONENT_LIMIT:
        raise BoundExceeded("an encoded value is not below 2^62")
    digits = []
    for b in reversed(g.bounds):
        # a radix above every value splits off the same digit as 2^62 does
        rest, digit = np.divmod(rest, min(b + 1, EXPONENT_LIMIT))
        digits.append(digit)
    return digits[::-1]


def digit_values(g, digits):
    """sum(x_i * l_i) over digit arrays shaped as `radix_digits` returns them.

    The sums are taken over Python ints in an object ndarray, so
    generators at 2^63 scale stay exact.
    """
    import numpy as np

    values = np.zeros(digits[0].shape, dtype=object)
    for x, digit in zip(g.generators, digits):
        values += digit.astype(object) * x
    return values


def true_values(g, exps):
    """true_value of every encoded weight in `exps`, as an object ndarray.

    The digits come from `radix_digits`, with its range checks.
    """
    return digit_values(g, radix_digits(g, exps))

