"""Bounded-input algebraic solvers operating on encoded integer weights.

Each solver receives a problem instance together with a map from original
weight values to their encoded integers, and returns its terms as one pair
`(exps, counts)` of equal-length int64 ndarrays: `exps` holds each
exponent, a sum of encoded weights, strictly ascending, and `counts` the
number of solutions with that sum; two empty arrays mean no solution.
Every exponent stays within the lambda-enlarged GAP bounds of its problem:

  TSP        lambda = n        (a tour sums n edge weights)
  Max-Cut    lambda = m        (a cut sums at most m edge weights)
  k-Clique   lambda = k(k-1)   (auxiliary-graph triangles double each weight)
  Steiner    lambda = n - 1    (a tree has fewer than n edges)
  MinPlus    lambda = 2        (sums of two sequence entries)

Each lambda is at least 1, also for graphs without vertices or edges.

Coefficients are exact integers, normalized so they are checkable against
brute force: each undirected tour, each bipartition, and each k-clique
counts once.  Steiner keeps one optimal tree, one term of count 1, and
min-plus's entry turns each index's minimum into a term of count 1.
SOLVER_SPECS is the one table of the supported kinds.

The cores work on exponents as machine integers: max-cut on int64 part
tables whose cut sums are counted in a histogram over [0, sum of enc],
the k-clique auxiliary graph on int64 edge rows and adjacency rows packed
64 nodes to a uint64 word, TSP on Held-Karp levels of numpy rows holding
a path count per exponent, each block of rows pulled from the rows it
sums by one gather and one sum, and min-plus on an n x 2n int32 table of
pair ranks or a float FFT grid, whichever is less work.
Sums of at most lambda encoded weights stay below EXPONENT_LIMIT = 2^62,
checked once per call (BoundExceeded above it), so int64 never wraps.
TSP and min-plus are dense in the exponent: their memory grows with the
spread of the encoded weights.  Steiner orders trees by a key built
from `encoding.order_weights`, small integers that order the cover's
bounded combinations as its generators do; the key is exact at any
generator size, and held by the same rule: one int64 while the DP's
bound on its values is below EXPONENT_LIMIT, else as many int64 limbs
below EXPONENT_LIMIT as that bound needs.  Every solver prices its
largest table in bits where it builds it and raises BoundExceeded
through `_refuse_over` above TABLE_BITS = 2^32 (512 MiB), before the
table is allocated.  The terms stay int64 arrays up to
`poly.select_optimum`, which ranks them by their order keys, the order
weights' sums over their digits, and decodes the optimum alone; min-plus
ranks its attainable sums by the same keys in one `encoding.order_keys`
call.  numpy is imported inside the functions that use it.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .additive import Gap, WeightSet
from .encoding import EXPONENT_LIMIT, kappa_inv, order_keys, order_weights, true_values
from .errors import (
    BoundExceeded,
    Disconnected,
    InvalidInstance,
    InvariantViolated,
    KNotDivisibleBy3,
)
from .oracle import clique_bf, maxcut_bf, minplus_naive, steiner_bf, tsp_bf

# steiner's keys are int64 limbs below EXPONENT_LIMIT: two add without wrapping
_LIMB = EXPONENT_LIMIT.bit_length() - 1
_LIMB_MASK = EXPONENT_LIMIT - 1
# the largest table any solver may build, in bits (512 MiB)
TABLE_BITS = 2**32
# maxcut lists 2^(n-1) cut sums: the most vertices it takes
MAXCUT_VERTICES = 30
# maxcut sorts its cut sums when its histogram has more bins per cut sum
_SORT_BINS = 4
# tsp gathers the links of its Held-Karp rows a block of at most _TSP_BLOCK slots
_TSP_BLOCK = 1 << 18
# tsp keeps the links of every n whose plan takes at most _TSP_PLAN bytes
_TSP_PLAN = 1 << 20
# tsp builds the links of larger n in chunks of at most _TSP_LINKS links
_TSP_LINKS = 1 << 16


def _integers(values):
    """Whether every value is an integer by the `__index__` rule: ints,
    bools and numpy integers are, floats are not."""
    return all(hasattr(t, "__index__") for t in set(map(type, values)))


@dataclass(frozen=True)
class ProblemInstance:
    """Tagged union over the supported problem kinds."""

    kind: str
    n: int = 0
    edges: tuple = ()  # (u, v, weight) triples, undirected, 0-based
    k: int = 0  # ewclique only
    terminals: tuple = ()  # steiner only
    sequence: tuple = ()  # minplusconv only
    gap: Gap = None  # optional user-supplied cover

    def __post_init__(self):
        if self.kind not in SOLVER_SPECS:
            raise InvalidInstance(f"unknown kind {self.kind!r}")
        if self.n < 0 or self.k < 0:
            raise InvalidInstance(f"n = {self.n} and k = {self.k} must be non-negative")
        n, seen, integral = self.n, set(), True
        for u, v, w in self.edges:
            if u == v:
                raise InvalidInstance("self-loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstance("edge endpoint out of range")
            if w < 0:
                raise InvalidInstance("weights must be non-negative")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InvalidInstance(f"duplicate edge {key}")
            if type(u) is not int or type(v) is not int or type(w) is not int:
                if not _integers((u, v)):
                    raise InvalidInstance("edge endpoints must be integers")
                integral = integral and _integers((w,))
            seen.add(key)
        if self.kind == "steiner":
            if len(self.terminals) < 2:
                raise InvalidInstance("steiner needs >= 2 terminals")
            if any(not 0 <= t < self.n for t in self.terminals):
                raise InvalidInstance("terminal out of range")
        if self.kind == "minplusconv" and not self.sequence:
            raise InvalidInstance("minplusconv needs a non-empty sequence")
        if any(v < 0 for v in self.sequence):
            raise InvalidInstance("weights must be non-negative")
        # the integer rule for weights and terminals comes last, so a fault
        # refused without it keeps its message
        if not (integral and _integers(self.sequence)):
            raise InvalidInstance("weights must be integers")
        if not _integers(self.terminals):
            raise InvalidInstance("terminals must be integers")

    @property
    def weights(self):
        """The instance's weight set: sequence values, or edge weights with
        {0}, the empty sum, standing for a graph with no edges."""
        if self.kind == "minplusconv":
            return WeightSet.of(self.sequence)
        return WeightSet.of([w for _, _, w in self.edges] or [0])


@dataclass(frozen=True)
class SolverSpec:
    """Everything the pipeline needs to know about one problem kind.

    `solve(inst, enc, egap, stats)` runs the kind's solver on the weights
    encoded over `egap`, the cover with its bounds scaled by
    `lambda_bound(inst)`, and returns its `(exps, counts)` pair of int64
    ndarrays, `exps` strictly ascending; what else it reports goes into
    `stats`, the result's dict (min-plus: its minima as "sequence").  Two
    solvers read `egap`: steiner, for the order weights of its key, and
    min-plus, to rank its sums by their order keys and decode its minima.
    `oracle(inst)` returns the brute-force optimum (the min-plus sequence).
    `counts` is False where the coefficients do not count the optima:
    steiner keeps one optimal tree, and min-plus one minimum per index.
    Both callables look the public functions up by name when called, so a
    wrapper installed in this module's globals sees every call.
    """

    sense: str
    lambda_bound: callable = field(repr=False)
    solve: callable = field(repr=False)
    oracle: callable = field(repr=False)
    counts: bool = True


def _minplus_terms(inst, enc, egap, stats):
    """The distinct per-index minima of the self-convolution, ranked by
    `encoding.order_keys`, as terms of count 1; their true values go to
    stats["sequence"]."""
    import numpy as np

    minima = minplus_selfconv_min([enc[v] for v in inst.sequence], egap.volume,
                                  keys=lambda sums: order_keys(egap, sums))
    stats["sequence"] = true_values(egap, minima).tolist()
    exps = np.unique(minima)
    return exps, np.ones_like(exps)


SOLVER_SPECS = {
    "tsp": SolverSpec(
        "min", lambda inst: max(1, inst.n),
        lambda inst, enc, egap, stats: tsp_algebraic(inst, enc),
        lambda inst: tsp_bf(inst).optimum),
    "maxcut": SolverSpec(
        "max", lambda inst: max(1, len(inst.edges)),
        lambda inst, enc, egap, stats: maxcut_algebraic(inst, enc),
        lambda inst: maxcut_bf(inst).optimum),
    "ewclique": SolverSpec(
        "max", lambda inst: max(1, 2 * comb(inst.k, 2)),
        lambda inst, enc, egap, stats: ewclique_algebraic(inst, enc),
        lambda inst: clique_bf(inst, inst.k).optimum),
    "steiner": SolverSpec(
        "min", lambda inst: max(1, inst.n - 1),
        lambda inst, enc, egap, stats: steiner_algebraic(inst, enc, egap),
        lambda inst: steiner_bf(inst).optimum,
        counts=False),
    "minplusconv": SolverSpec(
        "min", lambda inst: 2,
        _minplus_terms,
        lambda inst: minplus_naive(list(inst.sequence)),
        counts=False),
}


def _refuse_over(bits, what):
    """Raise BoundExceeded when a table of `bits` bits passes TABLE_BITS."""
    if bits > TABLE_BITS:
        raise BoundExceeded(f"{what} exceed 2^32 bits")


def _check_int64(lam, top):
    """Raise BoundExceeded unless lam * top < EXPONENT_LIMIT.

    `top` is the largest encoded edge weight.  Every exponent a solver
    forms is a sum of at most `lam` encoded edge weights, so below that
    limit all of its int64 arithmetic is exact.
    """
    if lam * top >= EXPONENT_LIMIT:
        raise BoundExceeded(f"lambda {lam} times an encoded weight of "
                            f"{int(top).bit_length()} bits is not below 2^62")


def _int64_edges(inst, enc, lam):
    """n x n int64 (adjacency, encoded weight) matrices, after _check_int64."""
    import numpy as np

    u, v, w = list(zip(*inst.edges)) or [(), (), ()]
    codes = [enc[x] for x in w]
    _check_int64(lam, max(codes, default=0))
    adj = np.zeros((inst.n, inst.n), dtype=np.int64)
    weight = np.zeros_like(adj)
    u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    adj[u, v] = adj[v, u] = 1
    weight[u, v] = weight[v, u] = np.array(codes, dtype=np.int64)
    return adj, weight


def _tsp_links(n):
    """For each level s = 2 .. n - 2, an iterator over the links into the
    rows of level s + 1, a chunk of at most _TSP_LINKS links at a time.

    Masks are ascending and rows mask-major: row j * s + q of level s + 1
    ends at the q-th vertex u of its mask other than 0, and its s - 1 links
    are the rows of level s for the mask without u, ending at each other
    vertex v in ascending order.  A chunk is (first, pair, pred): the row
    of level s + 1 it starts at, and rows x (s - 1) read-only arrays of the
    edge codes v * n + u as uint16 and the linked rows of level s as int32.
    """
    import numpy as np

    odd = np.arange(1, 1 << n, 2)
    size = np.bitwise_count(odd)

    def level(s):
        masks, later = odd[size == s], odd[size == s + 1]
        # the r-th link of row q ends at the r-th vertex other than the q-th
        cols = np.arange(s - 1)
        cols = cols + (cols >= np.arange(s)[:, None])
        step = max(1, _TSP_LINKS // (s * (s - 1)))  # masks a chunk
        for c in range(0, len(later), step):
            part = later[c:c + step, None]
            ends = np.nonzero(part >> np.arange(1, n) & 1)[1].reshape(-1, s) + 1
            pair = (ends[:, cols] * n + ends[:, :, None]).astype(np.uint16).reshape(-1, s - 1)
            base = np.searchsorted(masks, part ^ np.left_shift(1, ends)) * (s - 1)
            pred = (base[:, :, None] + np.arange(s - 1)).astype(np.int32).reshape(-1, s - 1)
            pair.flags.writeable = pred.flags.writeable = False
            yield c * s, pair, pred

    return map(level, range(2, n - 1))


@lru_cache(maxsize=None)
def _tsp_plan(n):
    """`_tsp_links(n)` as tuples, kept for each n whose plan takes at most
    _TSP_PLAN bytes, the only n it is called for."""
    return tuple(tuple(chunks) for chunks in _tsp_links(n))


def tsp_algebraic(inst, enc):
    """Held-Karp subset DP whose cells are dense generating functions.

    The cell of (mask, v) stands for the simple paths from vertex 0 to v
    visiting exactly the vertices in mask, as one slot per shifted path
    weight t holding the number of those paths of weight t.  Taking an
    edge moves a cell by whole slots, and merging two cells adds them.
    Every tour has n edges, so each edge weight is lowered by w_min, the
    smallest encoded edge weight, and n * w_min is added back at the end;
    the cells then span the spread of the weights, not their size.  Cells
    are built a level at a time, the level being the size of the mask.  A
    slot of level s counts at most (s-2)! paths, the orders of the s-2
    vertices between 0 and v, so a sum never carries into the next slot.
    A level is numpy rows, one per cell, of the smallest unsigned dtype
    holding (s-2)!: uint8 up to level 7, uint16 up to 10, uint32 up to 14.
    Level 2 has a row for each vertex v, with a 1 at slot enc(0, v) - w_min
    where the edge (0, v) exists.  A row of level s + 1 is the sum of its
    links, the rows of its mask without its end vertex u, each moved by its
    edge to u, and is pulled from them.  A level that is a source keeps
    `spread` zero slots before each row and one all-zero row after them,
    so a strided window over it shows every row moved by every d in
    0..spread, and a missing edge links to the zero row.  A block of new
    rows, at most _TSP_BLOCK slots of links, is then one fancy gather of
    its moved links and one np.sum into the rows, in the new level's dtype.
    The links depend on n alone: `_tsp_plan` keeps them for each n whose
    plan takes at most _TSP_PLAN = 1 MiB, n <= 13 (810 KB at n = 13, and
    1.4 MB for all of them held at once).  That covers the n of every
    benchmark workload and the n = 12, 13 scale rows, where repeated calls
    at one n skip the link build (0.27 ms of a 1.8 ms `run_meta` at
    n = 9); at n = 14 the plan would take 1.9 MB and a call without it
    takes about 1.1x as long.  Larger n build their links a chunk of
    _TSP_LINKS links at a time, so index memory stays small beside the
    levels.  On G = ((10^12, 7), (1, 30)), complete graphs take 1.8 ms,
    40 ms and 0.13 s through `run_meta` at n = 9, 12 and 13, against 3.3,
    74 and 250 ms when each link was pushed into its row.  Level n is never
    formed: the one level n - 1 mask missing u goes on to u and back to 0,
    into a total whose dtype holds (n-1)!, the directed Hamiltonian cycles
    through vertex 0.  Each undirected tour is one of two such cycles of
    the same weight, so counts are halved, and only the occupied slots of
    the total are read.  Returns two empty arrays when no Hamiltonian cycle
    exists; refuses n > 21, whose counts do not fit 64 bits.

    A cell takes up to ((n-1) * spread + 1) slots, where spread is the
    largest encoded edge weight minus w_min, so memory grows with the
    spread, not with the number of distinct path weights.  2^(n-1) widest
    cells of bitlen((n-1)!) bits a slot, rounded up to whole bytes, are
    priced against TABLE_BITS before any cell is built.  The levels share
    one allocation, level s in one of two parts by the parity of s, so a
    call allocates its rows once and the allocator keeps their pages for
    the next call.  Complete graphs peak at 0.67-0.83 of the price at
    n = 10..13 (tracemalloc, plan kept), and the two widest levels with
    their zero slots alone reach about 0.93-0.97 of it at n = 17..18 and
    1.01-1.09 at n = 19..21, computed from the level sizes.  At n < 10 or
    a spread of a few slots, fixed index and block temporaries of up to
    about 2 MB pass the price.
    """
    import numpy as np
    from numpy.lib.stride_tricks import as_strided

    n = inst.n
    if n < 3 or not inst.edges:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    _check_int64(n, max(enc[w] for _, _, w in inst.edges))
    width = -(-factorial(n - 1).bit_length() // 8)  # bytes per slot of the price
    if width > 8:
        raise BoundExceeded(f"tour counts at n = {n} do not fit in 64 bits")
    w_min = min(enc[w] for _, _, w in inst.edges)
    spread = max(enc[w] for _, _, w in inst.edges) - w_min
    _refuse_over(((n - 1) * spread + 1) * 8 * width << (n - 1),
                 f"Held-Karp cells for n = {n} and encoded weight spread {spread}")
    # shift[v][u]: the slots a cell moves when it takes edge (v, u), -1 without one
    shift = [[-1] * n for _ in range(n)]
    for u, v, w in inst.edges:
        shift[u][v] = shift[v][u] = enc[w] - w_min
    moved = spread - np.array(shift).ravel()  # by edge code v * n + u
    # the plan holds sum over s of C(n-1, s) s (s-1) links of 6 bytes
    links = (n - 1) * (n - 2) * ((1 << n - 3) - 1)
    plan = _tsp_plan(n) if 6 * links <= _TSP_PLAN else _tsp_links(n)

    # each level as (rows, slots, dtype), rows mask-major: row i * (s - 1) + r
    # holds the paths to the r-th vertex of the i-th mask; a source level
    # (s < n - 1) is stored with its zero slots and zero row
    shape = {s: (comb(n - 1, s - 1) * (s - 1), (s - 1) * spread + 1,
                 np.dtype(np.min_scalar_type(factorial(s - 2)))) for s in range(2, n)}
    stored = {s: (r + 1, w + spread) if s < n - 1 else (r, w)
              for s, (r, w, _) in shape.items()}
    # one allocation holds level s in part s % 2: allocating the levels one
    # by one, the allocator handed their pages back after each call and
    # faulted them in again on the next one
    nbytes = [max([0] + [r * w * shape[s][2].itemsize for s, (r, w) in stored.items()
                         if s % 2 == h]) for h in (0, 1)]
    start = (0, -(-nbytes[0] // 8) * 8)
    work = np.empty(start[1] + nbytes[1], dtype=np.uint8)

    def carve(s):
        """Level s as stored, its zero slots and zero row set, and its rows."""
        (rows, slots), at = stored[s], start[s % 2]
        table = work[at:at + rows * slots * shape[s][2].itemsize].view(
            shape[s][2]).reshape(rows, slots)
        if s == n - 1:
            return table, table
        table[:, :spread] = 0
        table[-1] = 0
        return table, table[:-1, spread:]

    table, rows = carve(2)
    rows.fill(0)
    for v, d in enumerate(shift[0]):  # row v - 1: the edge from 0 to v
        if d >= 0:
            rows[v - 1, d] = 1
    for s, chunks in enumerate(plan, 2):
        count, stride = shape[s][0], stored[s][1]
        # window row at: the stride slots from flat[at]; row i moved d
        # slots starts at i * stride + spread - d, the zero row at count * stride
        flat = table.reshape(-1)
        window = as_strided(flat, (count * stride + 1, stride), 2 * flat.strides)
        # a link's window row is its row times `scale` plus `offset`
        scale = np.where(moved <= spread, stride, 0)
        offset = np.where(moved <= spread, moved, count * stride)
        table, rows = carve(s + 1)
        dtype = shape[s + 1][2]
        step = max(1, _TSP_BLOCK // ((s - 1) * stride))  # rows a block
        for first, pairs, preds in chunks:
            for b in range(0, len(pairs), step):
                pair = pairs[b:b + step]
                at = preds[b:b + step] * np.take(scale, pair)
                at += np.take(offset, pair)
                np.sum(window[at], axis=1, dtype=dtype, out=rows[first + b:][:len(at)])
    # level n folds into the closing: the i-th level n - 1 mask misses
    # u = n - 1 - i, and goes on to u and back to 0
    span = shape[n - 1][1]
    total = np.zeros(n * spread + 1, dtype=np.min_scalar_type(factorial(n - 1)))
    for i in range(n - 1):
        u = n - 1 - i
        for r, v in enumerate(v for v in range(1, n) if v != u):
            if shift[v][u] >= 0 and shift[u][0] >= 0:
                d = shift[v][u] + shift[u][0]
                total[d:d + span] += rows[i * (n - 2) + r]
    hit = np.flatnonzero(total)
    return hit + n * w_min, total[hit].astype(np.int64) // 2


def maxcut_algebraic(inst, enc):
    """Split-and-list over a 3-way vertex partition, on int64 tables.

    Vertices split into V1, V2, V3 of size <= ceil(n/3).  Part i's
    assignments are the rows of a 0/1 matrix X_i over all n vertices that
    marks the part's vertices on the cut side.  With W the encoded weight
    matrix and d its row sums, a cut side x weighs x d - x W x^T, the weight
    of its edges to the other side (R. Williams, TCS 2005), so over
    x = x_1 + x_2 + x_3 it is the sum of the part terms x_i d - x_i W x_i^T
    and the cross terms -2 x_i W x_j^T, i < j: three part-pair products,
    and no table of the vertices off the cut side.  Vertex 0 is pinned
    outside the cut side so each bipartition {S, V\\S} counts exactly once.
    A broadcast adds the three parts' tables into the 2^(n-1) cut sums,
    each of which lies in [0, w], w the sum of the encoded edge weights.
    Every partial sum, the cross terms included, lies in [-2w, 2w], and
    `_check_int64` (lambda = m) keeps w below 2^62, so 2w < 2^63 and int64
    never wraps.  Two ways count the cut sums:

      histogram  one block of part-1 rows at a time, at most 2^22 sums, is
                 counted by np.bincount into one int64 histogram over that
                 range, so memory follows the range, not the cut count;
      sort       all sums at once, counted by np.unique.

    Both are priced in bits before the part tables are formed: the
    histogram at 192 bits per bin plus its block, the sort at 144 bits per
    cut sum plus 192 per possible distinct sum, min(2^(n-1), bins), each
    plus the part tables.  The histogram runs when it fits TABLE_BITS and
    has at most _SORT_BINS bins per cut sum (or the sort does not fit), so
    wide ranges over few cuts sort; BoundExceeded names both when neither
    fits.  On a range of about 4 * 10^5 bins n = 26 takes about 0.14 s and
    41 MiB, and n = 30 2.1-2.3 s and 59 MiB: time, not memory, bounds n on a
    small range, so n above MAXCUT_VERTICES = 30 is refused before
    anything is allocated.
    """
    import numpy as np

    n = inst.n
    if n > MAXCUT_VERTICES:
        raise BoundExceeded(f"2^{n - 1} cut sums at n = {n} pass the work cap of "
                            f"2^{MAXCUT_VERTICES - 1} (n = {MAXCUT_VERTICES})")
    _, weight = _int64_edges(inst, enc, max(1, len(inst.edges)))
    size = -(-n // 3)
    sides = []
    for part in (range(0, min(size, n)), range(size, min(2 * size, n)),
                 range(2 * size, n)):
        free = [v for v in part if v != 0]
        rows = np.arange(1 << len(free))[:, None]
        cut = np.zeros((len(rows), n), dtype=np.int64)
        cut[:, free] = rows >> np.arange(len(free)) & 1
        sides.append(cut)
    count0, count1, count2 = map(len, sides)
    cuts = count0 * count1 * count2
    bins = int(weight.sum()) // 2 + 1
    step = max(1, (1 << 22) // (count1 * count2))  # part-1 rows per block
    tables = 64 * (2 * count0 * count1 + count1 * count2 + count0 * count2)
    hist_bits = tables + 64 * min(step, count0) * count1 * count2 + 192 * bins
    sort_bits = tables + 144 * cuts + 192 * min(cuts, bins)
    _refuse_over(min(hist_bits, sort_bits),
                 f"{cuts} cut sums: a histogram of {bins} bins ({hist_bits} bits)"
                 f" and a sort ({sort_bits} bits)")
    hist = hist_bits <= TABLE_BITS and (bins <= _SORT_BINS * cuts or sort_bits > TABLE_BITS)

    x0, x1, x2 = sides
    degree, cross = weight.sum(axis=1), -2 * weight
    own0, own1, own2 = (x @ degree - (x @ weight * x).sum(axis=1) for x in sides)
    left = own0[:, None] + own1[None, :] + x0 @ cross @ x1.T  # s0 x s1
    right = own2[None, :] + x1 @ cross @ x2.T                 # s1 x s2
    across = x0 @ cross @ x2.T                                # s0 x s2

    def block(r, rows):
        sums = left[r:r + rows, :, None] + right[None, :, :]
        sums += across[r:r + rows, None, :]
        return sums

    if not hist:
        return np.unique(block(0, count0), return_counts=True)
    counts = np.bincount(block(0, step).ravel(), minlength=bins)
    for r in range(step, count0, step):
        counts += np.bincount(block(r, step).ravel(), minlength=bins)
    exps = np.flatnonzero(counts)
    return exps, counts[exps]


def build_auxiliary_graph(inst, enc):
    """Auxiliary graph H for edge-weighted k-clique, k = inst.k divisible by 3.

    Nodes are the (k/3)-cliques of G; two nodes are adjacent iff their
    union induces a (2k/3)-clique.  Edge weights double the cross weight
    and add both internal weights, so every H-triangle weighs exactly
    twice the underlying k-clique.  With I the N x n node-incidence
    matrix and A the adjacency of G, nodes i and j are adjacent iff
    (I A I^T)[i, j] = (k/3)^2, float64 products whose entries are at most
    (k/3)^2 and so exact, formed one block of at most 4 MB of rows at a
    time.  Cross weights are summed from the encoded weights at the
    adjacent pairs alone.  Returns int64 arrays (nodes, internal, hedges):
    nodes is N x k/3, each row a node's sorted vertices, rows in
    lexicographic order; internal[i] is node i's internal encoded weight;
    hedges is E x 3, rows (i, j, encoded H-edge weight) with i < j, in
    row-major order of (i, j), filled a block of edges at a time.  H is
    priced at 64 bits per N^2 against TABLE_BITS before any product is
    formed (N > 8192 is refused), the price `ewclique_algebraic` is held
    to; this function peaks at about 32 bytes per H-edge, the edges as
    i * N + j and the hedges, plus its 4 MB blocks.
    """
    import numpy as np

    if inst.k % 3 or inst.k < 3:
        raise KNotDivisibleBy3(f"k = {inst.k}")
    kk = inst.k // 3
    adj_m, weight_m = _int64_edges(inst, enc, inst.k * (inst.k - 1))
    combos = np.array(list(combinations(range(inst.n), kk)), dtype=np.int64).reshape(-1, kk)
    a, b = np.triu_indices(kk, 1)  # the vertex pairs inside a node
    combos = combos[adj_m[combos[:, a], combos[:, b]].all(axis=1)]
    size = len(combos)
    _refuse_over(64 * size**2, f"{size} x {size} float64 node products")
    own = weight_m[combos[:, a], combos[:, b]].sum(axis=1)
    inc = np.zeros((size, inst.n))
    inc[np.repeat(np.arange(size), kk), combos.ravel()] = 1
    reach = adj_m.astype(float) @ inc.T  # (A I^T)[v, j]: node j's vertices adjacent to v
    # H's edges (i, j), i < j, as i * N + j, from the product's columns j >= r
    pairs = [np.zeros(0, dtype=np.int64)]
    rows = max(1, (1 << 19) // max(1, size))  # rows per 4 MB of product
    for r in range(0, size, rows):
        i, j = np.divmod(np.flatnonzero(inc[r:r + rows] @ reach[:, r:] == kk * kk), size - r)
        pairs.append(((i + r) * size + j + r)[j > i])
    pairs = np.concatenate(pairs)
    # (I W)[i, v] is node i's weight to vertex v; sum it over node j's vertices
    to_vertex = weight_m[:, combos].sum(axis=2).T
    hedges = np.empty((len(pairs), 3), dtype=np.int64)
    step = 1 << 13
    for s in range(0, len(pairs), step):
        i, j = np.divmod(pairs[s:s + step], size)
        cross = np.take(to_vertex, (i * inst.n)[:, None] + combos[j]).sum(axis=1)
        hedges[s:s + step] = np.stack([i, j, 2 * cross + own[i] + own[j]], axis=1)
    return combos, own, hedges


def _bit_rows(size, rows, cols):
    """size x ceil(size/64) uint64 words with bit c of row r set for each
    (r, c) of the index arrays rows and cols.

    Columns are packed in little bit order within bytes, so the bits of a
    word's uint8 view, unpacked in little bit order, are its 64 columns.
    """
    import numpy as np

    flags = np.zeros((size, 64 * -(-size // 64)), dtype=bool)
    flags[rows, cols] = True
    return np.packbits(flags, axis=1, bitorder="little").view(np.uint64)


def _add_terms(blocks):
    """One pair (ascending distinct sums, counts) of int64 arrays from a
    list of such pairs: the counts of equal sums add."""
    import numpy as np

    sums, where = np.unique(np.concatenate([s for s, _ in blocks]), return_inverse=True)
    counts = np.zeros(len(sums), dtype=np.int64)
    np.add.at(counts, where, np.concatenate([c for _, c in blocks]))
    return sums, counts


def ewclique_algebraic(inst, enc):
    """Maximum-weight k-clique via the triangles of the auxiliary graph H.

    A k-clique is a triangle of H once per way to split it into three
    (k/3)-cliques, C(k,k/3)*C(2k/3,k/3)/6 ways in all.  Only the split into
    consecutive thirds of the sorted clique is listed: the triangles of the
    H-edges (i, j) with max(nodes[i]) < min(nodes[j]), so each k-clique
    counts once.  A triangle weighs twice its k-clique's encoded weight
    (additivity of the encoding), so the emitted exponent is the halved
    triangle weight.  Each triangle i < j < l is found once, from its edge
    (i, j): the rows of the kept edges are packed 64 nodes to a uint64
    word, the rows of i and j are ANDed for a block of edges at once, and
    only the set bits of nonzero words are expanded into the third nodes
    l.  The weights of (i, l) and (j, l) are read through an N x N int32
    matrix of kept-edge indices.  Two checks raise InvariantViolated:
    every triangle weight is even, and the listed triangles times
    C(k,k/3)*C(2k/3,k/3)/6 equal H's triangle count, independent of the
    listing: the popcounts of the ANDed rows of both ends of every H-edge
    (i, j), in rows packed from all of H that hold each node's higher
    neighbours, so each triangle i < j < l counts once, from (i, j)
    (M. Latapy, TCS 2008).  The hedges are dropped before the 4 bytes per
    N^2 of the index matrix are allocated, so the peak is about 32 bytes
    per H-edge or 8 per kept edge plus 5 per N^2, within the 8 bytes per
    N^2 `build_auxiliary_graph` prices while H has at most about N^2 / 5
    edges and N is above about 1000 (tracemalloc:
    7.2-7.8 bytes per N^2 for k = 6 on G(n, 0.8), N = 1417 and 2033, which
    have N^2 / 5.3 H-edges; 4.6 on G(80, 0.5), N = 1602).
    """
    import numpy as np

    nodes, _, hedges = build_auxiliary_graph(inst, enc)
    size = len(nodes)
    first, second, hw = hedges.T
    kk = inst.k // 3
    per_clique = comb(inst.k, kk) * comb(inst.k - kk, kk) // 6
    words = -(-size // 64)
    step = max(1, (1 << 15) // max(1, words))  # edges per 256 KB of words
    higher = _bit_rows(size, first, second)

    def count_and_keep(s):
        """The popcounts of a block of edges, and the block's edges whose
        first node lies wholly below the second (node rows are sorted):
        the consecutive thirds of each sorted clique.  A function, so no
        view of `hedges` outlives the loop and `del hedges` frees it."""
        i, j = first[s:s + step], second[s:s + step]
        both = np.take(higher, i, axis=0)
        both &= np.take(higher, j, axis=0)
        return int(np.bitwise_count(both).sum()), np.flatnonzero(nodes[i, -1] < nodes[j, 0]) + s

    counted = [count_and_keep(s) for s in range(0, len(hw), step)]
    in_h = sum(c for c, _ in counted)
    kept = np.concatenate([hw[:0]] + [keep for _, keep in counted])
    first, second, hw = first[kept], second[kept], hw[kept]
    del higher, hedges, kept, counted
    # the kept edges (i, j), i < j, so a row holds the higher neighbours
    upper = _bit_rows(size, first, second)
    index = np.zeros(size * size, dtype=np.int32)
    index[first * size + second] = np.arange(len(hw), dtype=np.int32)
    # each block of edges lists its triangles and counts their weights, so
    # memory follows the block (at most 64 triangles per nonzero word),
    # not the triangle count
    blocks = [(hw[:0], hw[:0])]
    for s in range(0, len(hw), step):
        i, j = first[s:s + step], second[s:s + step]
        both = np.take(upper, i, axis=0)
        both &= np.take(upper, j, axis=0)
        # the nonzero words, then the set bits of each: the third nodes l
        hit = np.flatnonzero(both)
        bits = np.unpackbits(both.ravel()[hit].view(np.uint8), bitorder="little")
        pos = np.flatnonzero(bits.view(bool))
        # per nonzero word: its edge's weight and where (i, l) and (j, l)
        # of its first column l lie in the index matrix
        e, col = np.divmod(hit, words)
        at_i, at_j = i[e] * size + 64 * col, j[e] * size + 64 * col
        word, bit = pos >> 6, pos & 63
        total = (hw[s + e][word] + np.take(hw, np.take(index, at_i[word] + bit))
                 + np.take(hw, np.take(index, at_j[word] + bit)))
        odd = np.flatnonzero(total & 1)
        if odd.size:
            raise InvariantViolated(f"triangle weight {total[odd[0]]} is odd")
        blocks.append(np.unique(total, return_counts=True))
        if len(blocks) > 16:  # the blocks repeat sums: bound what is kept
            blocks = [_add_terms(blocks)]
    sums, counts = _add_terms(blocks)
    listed = int(counts.sum())
    if listed * per_clique != in_h:
        raise InvariantViolated(
            f"{listed} k-cliques listed, but H has {in_h} triangles, "
            f"not {per_clique} per clique")
    return sums // 2, counts


def _limb_add(a, b):
    """a + b for limb arrays: limb axis first, most significant limb first."""
    total = a + b
    for j in range(len(total) - 1, 0, -1):
        total[j - 1] += total[j] >> _LIMB
        total[j] &= _LIMB_MASK
    return total


def _limb_min(x):
    """Minimum of the limb array x along axis 1 of each limb's array."""
    import numpy as np

    if len(x) == 1:
        return x.min(axis=2)
    lows = []
    for limb in x:
        if lows:  # keep the positions tied so far; the fill is above every limb
            limb = np.where(last == lows[-1], limb, EXPONENT_LIMIT)
        lows.append(limb.min(axis=1, keepdims=True))
        last = limb
    return np.stack(lows).squeeze(2)


def steiner_algebraic(inst, enc, egap):
    """Dreyfus-Wagner DP over (terminal subset, root) on one exact integer key.

    Only the first terminal's component is kept; n is its vertex count.
    With y = `encoding.order_weights(egap)` and c(w) the coordinates of
    enc[w] over `egap`, edge weight w has the key (y . c(w)) * R + enc[w],
    R = (n - 1) * max(enc) + 1, above the encodings of any tree.  A tree
    has fewer than n edges, so its coordinate sum stays in egap's box,
    where y . c orders as the true value does: key sums order trees by
    (true value, encoding).  y >= 0, so each DP candidate, an edge
    multiset, holds a tree of no larger key, and the optimum's encoding is
    its key mod R.  y is small wherever the cover's scales separate (every
    cover of dimension <= 2, and those of dimension 3 whose first generator
    outweighs the rest of the box).  The DP's values lie below a bound inf;
    while inf < EXPONENT_LIMIT = 2^62 they run on one int64, any two adding
    without wrapping, and otherwise on as many int64 limbs below
    EXPONENT_LIMIT as inf needs.  Floyd-Warshall relaxes only the
    rows that reach its pivot, low-degree pivots first, so sparse graphs
    cost less than n^3; on one limb a pivot is one np.minimum, over the
    whole matrix in place once half the rows reach a pivot, and each DP
    step one sum and one min.  Subsets of one size are solved at once, in
    blocks that bound the (block, n, n) temporaries.  Raises Disconnected
    when the terminals span components.  Before Floyd-Warshall the peak
    is priced against TABLE_BITS: the DP table, limbs x 2^(t-1) subsets x
    n int64 keys, the 2^(t-1) x (t-1) subset bits, the limbs x n x n
    distances with the temporaries of a pivot, and the largest of the
    subset sizes' split tables with one block's sums (24 terminals on
    n = 100 are refused).  Where that price passes 1 MB the tracemalloc
    peak is 0.6-0.9 of it (n = 12..400, 3 to 14 terminals, one and two
    limbs); smaller instances add about 0.3 MB of fixed overhead.  After
    the DP, BoundExceeded is raised when the optimal tree's encoding
    reaches EXPONENT_LIMIT.
    """
    import numpy as np

    terms = list(dict.fromkeys(inst.terminals))
    nbrs = [[] for _ in range(inst.n)]
    for u, v, _ in inst.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, todo = {terms[0]}, [terms[0]]
    while todo:
        fresh = set(nbrs[todo.pop()]) - seen
        seen |= fresh
        todo += fresh
    for t in terms[1:]:
        if t not in seen:
            raise Disconnected(f"terminal {t} unreachable from {terms[0]}")
    at = {v: i for i, v in enumerate(sorted(seen))}
    n = len(at)
    edges = [(at[u], at[v], w) for u, v, w in inst.edges if u in seen]
    radix = (n - 1) * max((enc[w] for *_, w in edges), default=0) + 1
    y = order_weights(egap)
    key = {w: sum(a * l for a, l in zip(y, kappa_inv(egap, enc[w]))) * radix + enc[w]
           for w in {w for *_, w in edges}}
    # a DP value sums fewer than 2 * len(terms) paths of fewer than n edges,
    # so `inf` lies above all; each limb of inf is below EXPONENT_LIMIT, so
    # the sum of two values never wraps
    inf = 2 * len(terms) * (n - 1) * max(key.values(), default=0) + 1
    count = -(-inf.bit_length() // _LIMB)
    k = len(terms) - 1

    def step(splits):  # subsets per DP block: bounds its (splits + n) x n sums
        return max(1, (1 << 17) // (n * max(n, splits)))

    # limb carries and ties: two more temporaries of one limb's size
    extra = 2 if count > 1 else 0

    def level_cost(s):
        """int64s of level s's split tables and of one block's sums: two
        gathered halves, their sum and the gathers' indices, then the
        re-rooting sums."""
        splits, subsets = (1 << (s - 1)) - 1, comb(k, s)
        block = min(subsets, step(splits))
        return subsets * (2 * splits + s) + block * n * (
            (3 * count + 1 + extra) * splits + (count + extra) * n)

    _refuse_over(64 * (((count * n + k) << k) + (2 * count + 1 + extra) * n * n
                       + max(map(level_cost, range(2, k + 1)), default=0)),
                 f"Dreyfus-Wagner tables of {count} limbs x 2^{k} subsets x {n} "
                 "vertices")

    def limbs(values):
        return np.array([[v >> (_LIMB * j) & _LIMB_MASK for v in values]
                         for j in reversed(range(count))], dtype=np.int64)

    top = limbs([inf])
    dist = np.tile(top[:, :, None], (1, n, n))
    dist[:, range(n), range(n)] = 0
    u, v = np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2).T
    dist[:, u, v] = dist[:, v, u] = limbs([key[w] for *_, w in edges])
    # ties in golden-ratio order: a path pivoted along itself costs n^3 / 2
    pivots = np.lexsort((np.arange(n) * 0.618034 % 1,
                         np.bincount(np.r_[u, v], minlength=n)))
    if count == 1:
        one, full = dist[0], False
        for m in pivots:
            # the rows reaching m, until half of them do: then all, as a view
            if not full:
                rows = np.flatnonzero(one[:, m] != inf)
                full = 2 * len(rows) >= n
            if full:
                np.minimum(one, one[:, m, None] + one[m], out=one)
            else:
                part = one[rows]
                np.minimum(part, part[:, m, None] + one[m], out=part)
                one[rows] = part
    else:
        for m in pivots:
            rows = np.flatnonzero((dist[:, :, m] != top).any(axis=0))
            # gathering more than half the rows costs more than relaxing all
            rows = rows if 2 * len(rows) < n else slice(None)
            old = dist[:, rows]
            via = _limb_add(old[:, :, m, None], dist[:, None, m, :])
            # _limb_min's order, inlined: _limb_min on a stack took twice as long
            less, tied = via[0] < old[0], via[0] == old[0]
            for new, cur in zip(via[1:], old[1:]):
                less |= tied & (new < cur)
                tied &= new == cur
            np.copyto(old, via, where=less)
            dist[:, rows] = old
    root, *leaves = (at[t] for t in terms)
    # dp[:, S, v]: least key of a tree joining {terms[i+1] : i in S} and v
    dp = np.zeros((count, 1 << k, n), dtype=np.int64)
    dp[:, 1 << np.arange(k)] = dist[:, leaves]
    bits = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    for s in range(2, k + 1):
        level = np.flatnonzero(bits.sum(axis=1) == s)
        members = 1 << np.nonzero(bits[level])[1].reshape(-1, s)
        # each split {T, S \ T} once: T holds the highest member of S
        picks = np.arange(1 << (s - 1), (1 << s) - 1)[:, None] >> np.arange(s) & 1
        firsts = members @ picks.T
        seconds = level[:, None] - firsts
        size = step(len(picks))
        for b in range(0, len(level), size):
            part = slice(b, b + size)
            # merge two sub-trees at one root, then re-root along shortest paths
            merged = _limb_min(_limb_add(dp[:, firsts[part]], dp[:, seconds[part]]))
            dp[:, level[part]] = _limb_min(_limb_add(merged[:, :, :, None], dist[:, None]))
        del firsts, seconds  # before the next level's are formed
    best = sum(limb << _LIMB * j for j, limb in enumerate(dp[::-1, -1, root].tolist()))
    best %= radix
    if best >= EXPONENT_LIMIT:
        raise BoundExceeded(
            f"the optimal tree's encoding of {best.bit_length()} bits is not below 2^62")
    return np.array([best], dtype=np.int64), np.ones(1, dtype=np.int64)


def _fft_len(m):
    """Smallest 2^a * 3^b that is >= m: a fast pocketfft length."""
    best = 1 << (m - 1).bit_length()
    p3 = 3
    while p3 < best:
        p = p3
        while p < m:
            p *= 2
        best = min(best, p)
        p3 *= 3
    return best


def _selfconv_support(seq):
    """Attainable (position sum, value sum) pairs as a (2n-1, 2*max(seq)+1) bool array.

    Entry [k, s] is True iff some i + j = k has seq[i] + seq[j] = s.  The
    0/1 indicator ind[i, seq[i]] is convolved with itself by a 2-D real
    FFT over an R x C grid, 2^a * 3^b lengths at least as long as the
    2n-1 position sums and 2*max(seq)+1 value sums, so no wrap-around
    occurs.  Counts are at most n and the float64 rounding error of the
    transform is far below 0.5 at any size TABLE_BITS admits, so
    thresholding at 0.5 is exact.

    One complex128 spectrum of R x (C/2+1) is transformed in place: its
    first n rows are filled from blocks of indicator rows, and the column
    inverse runs on the 2n-1 needed rows, one block of at most 4 MB of
    float64 at a time.  Peak memory is about 10 bytes per padded slot
    (9.2-10.4 bytes measured with tracemalloc at n = 1000..4096,
    max(seq) = 1020..4000; small grids pay more per slot for the blocks),
    so the R * C slots are priced at 80 bits each against TABLE_BITS
    before anything is allocated: at most 53,687,091 slots.  This is
    min-plus's FFT core: `minplus_selfconv_min` runs it when its grid has
    fewer slots than the n^2 pair table has pairs, or the pairs do not fit.
    """
    import numpy as np

    n = len(seq)
    rows, cols = 2 * n - 1, 2 * max(seq) + 1
    height, width = _fft_len(rows), _fft_len(cols)
    _refuse_over(80 * height * width,
                 f"FFT grid of {height}x{width} slots (80 bits each)")
    step = max(1, (1 << 19) // width)  # rows per 4 MB of float64
    spec = np.zeros((height, width // 2 + 1), dtype=complex)
    for r in range(0, n, step):
        part = seq[r:r + step]
        ind = np.zeros((len(part), width))
        ind[np.arange(len(part)), part] = 1.0
        np.fft.rfft(ind, axis=1, out=spec[r:r + len(part)])
    np.fft.fft(spec, axis=0, out=spec)
    spec *= spec
    np.fft.ifft(spec, axis=0, out=spec)
    support = np.empty((rows, cols), dtype=bool)
    for r in range(0, rows, step):
        inverse = np.fft.irfft(spec[r:min(r + step, rows)], width, axis=1)
        support[r:r + step] = inverse[:, :cols] > 0.5
    return support


def minplus_selfconv_min(seq, bound, keys=None):
    """Per-index minimum of the self-convolution, compared by `keys`.

    `keys(sums)` gives the sort key of every sum in the int64 array `sums`
    in one call, and defaults to the sums themselves; pass
    `encoding.order_keys` over the enlarged GAP to restore the true-value
    order of encoded sums.  Ties break toward the smaller encoded value.
    Keys may be int64 or arbitrarily large Python ints: the attainable
    sums are ranked once by (key, encoding), and each row's minimum is its
    attainable sum of lowest rank.  Sums of 2^62 or more are refused by
    `_check_int64` before either core is priced.

    Two exact cores find those sums: the pair table of `_pair_min`, which
    forms all n^2 sums seq[i] + seq[j], and the FFT grid of
    `_selfconv_support`.  Both are priced in bits before anything is
    allocated: the pair table at 96 bits per pair, 32 per value sum up to
    2 * max(seq) and 64 per entry and per attainable sum, the FFT grid at
    80 bits per padded slot.  Among the cores whose price fits TABLE_BITS,
    the one with less work runs, n^2 pairs against H x W padded slots (ties
    go to the pairs), and BoundExceeded names both tables when neither
    fits.  So short sequences over a wide range run on pairs, and long ones
    over a small range on the FFT: n = 192 over entries <= 91 has 36,864
    pairs against a 384 x 192 grid, n = 4096 over entries <= 100 has
    16,777,216 pairs against an 8192 x 216 grid.
    """
    import numpy as np

    if any(not 0 <= v < bound for v in seq):
        raise BoundExceeded("encoded value outside [0, bound)")
    n, top = len(seq), max(seq)
    _check_int64(2, top)
    values = 2 * top + 1
    height, width = _fft_len(2 * n - 1), _fft_len(values)
    pair_bits = 96 * n * n + 32 * values + 64 * (n + min(n * n, values))
    grid_bits = 80 * height * width
    _refuse_over(min(pair_bits, grid_bits),
                 f"pair table of {n}x{n} sums ({pair_bits} bits) and FFT grid"
                 f" of {height}x{width} slots ({grid_bits} bits)")
    pairs_win = n * n <= height * width or grid_bits > TABLE_BITS
    if pair_bits <= TABLE_BITS and pairs_win:
        return _pair_min(seq, top, keys).tolist()
    support = _selfconv_support(seq)
    # only attainable sums are guaranteed to be decodable, so evaluate
    # the keys just on columns that occur somewhere
    cols = _ranked(np.flatnonzero(support.any(axis=0)), keys)
    # columns in rank order: the first attainable one in a row has the
    # lowest rank among that row's sums
    ranked = support[:, cols]
    first = ranked.argmax(axis=1)
    if not ranked[np.arange(len(first)), first].all():
        raise InvariantViolated("a self-convolution index has no attainable sum")
    return cols[first].tolist()


def _ranked(cols, keys):
    """The ascending attainable sums `cols` by (key, encoding), lowest first."""
    import numpy as np

    if keys is None:
        return cols
    # cols ascend, so a stable sort keeps ties in encoding order
    return cols[np.argsort(keys(cols), kind="stable")]


def _pair_min(seq, top, keys):
    """Each index's lowest-rank sum from an n x 2n int32 table of pair ranks.

    A value-indexed int32 lookup marks the sums of the distinct entries,
    ranks them once, and gives each pair (i, j) its rank at table[i, j];
    the other n columns of a row hold a rank above all.  Re-read row-major
    with rows of 2n - 1, the table shifts row i right by i, so column k
    holds the rank of every pair with i + j = k, and one min over the rows
    gives index k's lowest-rank sum, ties toward the smaller encoding.
    The table is the n x n int64 sums' own memory, rewritten a block of at
    most 2 MB of ranks at a time, so the peak is 8 bytes a pair plus one
    block, the lookup and the attainable sums (tracemalloc: 10.1 MB at
    n = 1000, 136 MB at n = 4096 with entries <= 1020), within the price.
    """
    import numpy as np

    n = len(seq)
    v = np.array(seq, dtype=np.int64)
    rank = np.zeros(2 * top + 1, dtype=np.int32)
    distinct = np.unique(v)
    rank[distinct[:, None] + distinct] = 1
    cols = _ranked(np.flatnonzero(rank), keys)
    rank[cols] = np.arange(len(cols), dtype=np.int32)
    sums = v[:, None] + v
    # row i of the int64 sums is rewritten in place as 2n int32: its n
    # ranks, then n ranks above all, one block of rows at a time
    table = sums.view(np.int32)
    step = max(1, (1 << 19) // n)
    for r in range(0, n, step):
        table[r:r + step, :n] = np.take(rank, sums[r:r + step])
        table[r:r + step, n:] = len(cols)
    shifted = table.reshape(-1)[:n * (2 * n - 1)].reshape(n, 2 * n - 1)
    return cols[shifted.min(axis=0)]
