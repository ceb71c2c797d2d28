"""Order-aware mixed-radix pairing of GAP coordinates into integers.

kappa maps a coordinate tuple <l_1..l_d> to the mixed-radix number with
radices <B_i + 1> (dimension 1 most significant), where B_i are the
lambda-enlarged bounds.  It is additive on tuples that stay inside the
enlarged box and strictly monotone w.r.t. lexicographic tuple order, which
makes it injective.  Because encoded order differs from true-value order
in general, ranks by (true value, encoding) restore the order of the
represented values: `value_rank` counts one rank directly, without
materializing the whole permutation.
"""

from dataclasses import dataclass, field

from .additive import Gap
from .errors import BoundExceeded, OutOfBounds, OutOfRange

# the numpy paths hold encodings and their sums in int64; below 2^62 the
# sum of two such values cannot wrap
EXPONENT_LIMIT = 2**62


@dataclass(frozen=True)
class EnlargedGap:
    """A GAP with bounds scaled by the solver-specific lambda."""

    base: Gap
    lam: int
    enlarged_bounds: tuple = field(init=False)

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError("lambda must be >= 1")
        object.__setattr__(
            self, "enlarged_bounds", tuple(self.lam * b for b in self.base.bounds)
        )

    @property
    def dim(self):
        return self.base.dim

    @property
    def generators(self):
        return self.base.generators

    @property
    def range_bound(self):
        """Number of encodable values, prod(lambda*L_i + 1)."""
        v = 1
        for b in self.enlarged_bounds:
            v *= b + 1
        return v


def enlarge(g, lam):
    """Scale the dimension bounds of `g` by `lam`; generators unchanged."""
    return EnlargedGap(g, lam)


def kappa(g, t):
    """Encode a coordinate tuple as a mixed-radix integer.

    Raises ValueError for a tuple whose length is not the GAP's dimension,
    and OutOfBounds for a coordinate outside [0, its enlarged bound].
    """
    coords = tuple(t)
    if len(coords) != g.dim:
        raise ValueError(f"{len(coords)} coordinates for a GAP of dimension {g.dim}")
    e = 0
    for i, (l, b) in enumerate(zip(coords, g.enlarged_bounds)):
        if not 0 <= l <= b:
            raise OutOfBounds(i)
        e = e * (b + 1) + l
    return e


def kappa_inv(g, e):
    """Decode an encoded value back to its coordinate tuple."""
    if e < 0 or e >= g.range_bound:
        raise OutOfRange(f"encoded value {e} outside [0, {g.range_bound})")
    coords = []
    for b in reversed(g.enlarged_bounds):
        e, l = divmod(e, b + 1)
        coords.append(l)
    return tuple(reversed(coords))


def true_value(g, e):
    """Original-scale value sum(x_i * l_i) of an encoded weight."""
    coords = kappa_inv(g, e)
    return sum(x * l for x, l in zip(g.generators, coords))


def true_values(g, exps):
    """true_value of every encoded weight in `exps`, as an object ndarray.

    The mixed-radix digits are split off in int64, and the sums of
    x_i * l_i are taken over Python ints, so generators at 2^63 scale stay
    exact.  Raises OutOfRange, an InvariantViolated, for an encoding outside
    [0, range_bound), and then BoundExceeded for one of EXPONENT_LIMIT or
    more.  An `exps` outside int64 is read twice, so it must be a collection.
    """
    import numpy as np

    try:
        rest = np.fromiter(exps, dtype=np.int64)
        lo, top = (int(rest.min()), int(rest.max())) if rest.size else (0, 0)
    except OverflowError:  # beyond int64
        lo, top = min(exps), max(exps)
    if lo < 0 or top >= g.range_bound:
        raise OutOfRange(f"encoded values outside [0, {g.range_bound})")
    if top >= EXPONENT_LIMIT:
        raise BoundExceeded("an encoded value is not below 2^62")
    values = np.zeros(rest.shape, dtype=object)
    for x, b in zip(reversed(g.generators), reversed(g.enlarged_bounds)):
        # a radix above every value splits off the same digit as 2^62 does
        rest, digit = np.divmod(rest, min(b + 1, EXPONENT_LIMIT))
        values += digit.astype(object) * x
    return values


def value_rank(g, e):
    """Position of `e` in [0, range_bound) ordered by (true value, encoding).

    The range is not enumerated.  With T = true_value(g, e), the rank
    counts the tuples of the enlarged box whose value is below T, plus
    those on value T with a smaller encoding (kappa is lexicographic, so
    that is the tie order).  For each tuple over every
    dimension but the widest one j, the t_j below T form a prefix of
    [0, B_j] whose length is one floor division, and at most one t_j lies
    on T.  That is range_bound / (B_j + 1) steps.
    """
    target = true_value(g, e)
    bounds = g.enlarged_bounds
    j = max(range(g.dim), key=bounds.__getitem__)
    # kappa(t) = sum(t_i * place[i]), mixed radix, dimension 1 most significant
    place = [1] * g.dim
    for i in range(g.dim - 2, -1, -1):
        place[i] = place[i + 1] * (bounds[i + 1] + 1)
    # (true value, encoding) of every tuple over the dimensions other than j
    partial = [(0, 0)]
    for i, (x, b) in enumerate(zip(g.generators, bounds)):
        if i != j:
            w = place[i]
            partial = [(s + x * l, k + w * l) for s, k in partial for l in range(b + 1)]
    xj, wj, bj = g.generators[j], place[j], bounds[j]
    rank = 0
    for s, k in partial:
        q, r = divmod(target - s, xj)
        if q < 0:  # every t_j is above T
            continue
        if r:  # t_j = 0..q are below T, none on it
            rank += min(q + 1, bj + 1)
        elif q > bj:
            rank += bj + 1
        else:  # t_j = 0..q-1 are below T; t_j = q ties and counts if lex-smaller
            rank += q + (k + wj * q < e)
    return rank
