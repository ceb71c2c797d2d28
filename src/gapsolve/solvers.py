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
min-plus returns each output index's minimum instead of terms.
SOLVER_SPECS is the one table of the supported kinds.

The cores work on exponents as machine integers: max-cut and the k-clique
auxiliary graph on int64 numpy arrays, TSP on Held-Karp cells that are
each one int packing a count per exponent, and min-plus on a float FFT.
Sums of at most lambda encoded weights stay below EXPONENT_LIMIT = 2^62,
checked once per call (BoundExceeded above it), so int64 never wraps.
TSP and min-plus are dense in the exponent: their memory grows with the
spread of the encoded weights.  Steiner's key, exact at any generator
size, is split into as many 61-bit int64 limbs as its sums need.  Every
solver prices its largest table in bits where it builds it and raises
BoundExceeded through `_refuse_over` above TABLE_BITS = 2^32 (512 MiB),
before the table is allocated.  The terms stay int64
arrays up to `poly.select_optimum`, which decodes exactly, over Python
ints, only the exponents near the optimum; min-plus's sums are decoded in
one `encoding.true_values` call.  numpy is imported inside the functions
that use it.
"""

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial

from .additive import Gap, WeightSet
from .encoding import EXPONENT_LIMIT, true_values
from .errors import (
    BoundExceeded,
    Disconnected,
    InvalidInstance,
    InvariantViolated,
    KNotDivisibleBy3,
)
from .oracle import clique_bf, maxcut_bf, minplus_naive, steiner_bf, tsp_bf

# steiner's keys are int64 limbs of _LIMB bits; two limbs add below 2^62
_LIMB = 61
_LIMB_MASK = (1 << _LIMB) - 1
# the largest table any solver may build, in bits (512 MiB)
TABLE_BITS = 2**32


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
        seen = set()
        for u, v, w in self.edges:
            if u == v:
                raise InvalidInstance("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidInstance("edge endpoint out of range")
            if w < 0:
                raise InvalidInstance("weights must be non-negative")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidInstance(f"duplicate edge {key}")
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

    `solve(inst, enc, egap)` runs the kind's solver on the weights encoded
    over `egap`, the cover with its bounds scaled by `lambda_bound(inst)`,
    and returns its `(exps, counts)` pair of int64 ndarrays, `exps`
    strictly ascending; for min-plus it returns the per-index minimum
    encodings instead.  `oracle(inst)` returns the
    brute-force optimum (the min-plus sequence).  `counts` is False where
    the coefficients do not count the optima: steiner keeps one optimal
    tree, and min-plus keeps one minimum per index.  Both callables look
    the public functions up by name when called, so a wrapper installed in
    this module's globals sees every call.
    """

    sense: str
    lambda_bound: callable = field(repr=False)
    solve: callable = field(repr=False)
    oracle: callable = field(repr=False)
    counts: bool = True


SOLVER_SPECS = {
    "tsp": SolverSpec(
        "min", lambda inst: max(1, inst.n),
        lambda inst, enc, egap: tsp_algebraic(inst, enc),
        lambda inst: tsp_bf(inst).optimum),
    "maxcut": SolverSpec(
        "max", lambda inst: max(1, len(inst.edges)),
        lambda inst, enc, egap: maxcut_algebraic(inst, enc),
        lambda inst: maxcut_bf(inst).optimum),
    "ewclique": SolverSpec(
        "max", lambda inst: max(1, 2 * comb(inst.k, 2)),
        lambda inst, enc, egap: ewclique_algebraic(inst, enc, inst.k),
        lambda inst: clique_bf(inst, inst.k).optimum),
    "steiner": SolverSpec(
        "min", lambda inst: max(1, inst.n - 1),
        lambda inst, enc, egap: steiner_algebraic(inst, enc),
        lambda inst: steiner_bf(inst).optimum,
        counts=False),
    "minplusconv": SolverSpec(
        "min", lambda inst: 2,
        lambda inst, enc, egap: minplus_selfconv_min(
            [enc[v] for v in inst.sequence], egap.volume,
            keys=lambda sums: true_values(egap, sums)),
        lambda inst: minplus_naive(list(inst.sequence)),
        counts=False),
}


def _refuse_over(bits, what):
    """Raise BoundExceeded when a table of `bits` bits passes TABLE_BITS."""
    if bits > TABLE_BITS:
        raise BoundExceeded(f"{what} exceed 2^32 bits")


def _check_int64(inst, enc, lam):
    """Raise BoundExceeded unless lam * max(enc) < EXPONENT_LIMIT.

    Every exponent a solver forms is a sum of at most `lam` encoded edge
    weights, so below that limit all of its int64 arithmetic is exact.
    """
    top = max((enc[w] for _, _, w in inst.edges), default=0)
    if lam * top >= EXPONENT_LIMIT:
        raise BoundExceeded(
            f"lambda {lam} times encoded weight {top} is not below 2^62")


def _int64_edges(inst, enc, lam):
    """n x n int64 (adjacency, encoded weight) matrices, after _check_int64."""
    import numpy as np

    _check_int64(inst, enc, lam)
    adj = np.zeros((inst.n, inst.n), dtype=np.int64)
    weight = np.zeros_like(adj)
    if inst.edges:
        u, v, w = (list(col) for col in zip(*inst.edges))
        adj[u, v] = adj[v, u] = 1
        weight[u, v] = weight[v, u] = [enc[x] for x in w]
    return adj, weight


def tsp_algebraic(inst, enc):
    """Held-Karp subset DP whose cells are packed generating functions.

    dp[mask][v] stands for the simple paths from vertex 0 to v visiting
    exactly the vertices in mask, as one int: slot t, S bits wide, holds
    the number of those paths of shifted weight t.  Adding an edge shifts a
    cell by whole slots, and merging two cells adds them.  Every tour has n
    edges, so each edge weight is lowered by w_min, the smallest encoded
    edge weight, and n * w_min is added back at the end; the packed ints
    then span the spread of the weights, not their size.  S is
    bitlen((n-1)!) rounded up to whole bytes: a slot counts distinct paths
    or directed cycles, and no slot holds more than (n-1)!, the number of
    directed Hamiltonian cycles through vertex 0, so a sum never carries
    into the next slot.  Closing every path with the edge back to 0 counts
    each undirected tour twice (once per orientation, same weight), so
    final counts are halved.  Returns two empty arrays when no Hamiltonian
    cycle exists.

    A cell takes up to ((n-1) * spread + 1) slots, where spread is the
    largest encoded edge weight minus w_min, so memory grows with the
    spread, not with the number of distinct path weights.  2^(n-1) widest
    cells are priced against TABLE_BITS before any cell is built (complete
    graphs peaked at a quarter to a third of that price).  The decode
    widens only the occupied slots of the total to 64 bits: beyond a byte
    copy of the total it needs one byte per slot and 16 per occupied slot.
    """
    import numpy as np

    n = inst.n
    if n < 3 or not inst.edges:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    _check_int64(inst, enc, n)
    width = -(-factorial(n - 1).bit_length() // 8)  # bytes per slot
    if width > 8:
        raise BoundExceeded(f"tour counts at n = {n} do not fit in 64 bits")
    slot = 8 * width
    w_min = min(enc[w] for _, _, w in inst.edges)
    spread = max(enc[w] for _, _, w in inst.edges) - w_min
    _refuse_over(((n - 1) * spread + 1) * slot << (n - 1),
                 f"Held-Karp cells for n = {n} and encoded weight spread {spread}")
    # out[v]: (u, bit of u, bits a cell moves when it takes edge (v, u))
    out = [[] for _ in range(n)]
    for u, v, w in inst.edges:
        d = (enc[w] - w_min) * slot
        out[u].append((v, 1 << v, d))
        out[v].append((u, 1 << u, d))
    full = (1 << n) - 1
    dp = {1 | bit: {v: 1 << d} for v, bit, d in out[0]}
    for mask in range(3, full, 2):
        row = dp.pop(mask, None)
        if row is None:
            continue
        for v, cell in row.items():
            for u, bit, d in out[v]:
                if mask & bit:
                    continue
                nxt = dp.setdefault(mask | bit, {})
                if u in nxt:
                    nxt[u] += cell << d
                else:
                    nxt[u] = cell << d
    total = 0
    for v, cell in dp.get(full, {}).items():
        for u, _, d in out[v]:
            if u == 0:
                total += cell << d
    slots = -(-total.bit_length() // slot)
    raw = np.frombuffer(total.to_bytes(slots * width, "little"),
                        dtype=np.uint8).reshape(slots, width)
    hit = np.flatnonzero(raw.max(axis=1))
    words = np.zeros((len(hit), 8), dtype=np.uint8)
    words[:, :width] = raw[hit]
    counts = words.view("<u8")[:, 0] // 2  # below 2^63: (n-1)! fits 64 bits
    return hit + n * w_min, counts.astype(np.int64)


def maxcut_algebraic(inst, enc):
    """Split-and-list over a 3-way vertex partition, on int64 tables.

    Vertices split into V1, V2, V3 of size <= ceil(n/3).  Part i's
    assignments are the rows of two 0/1 matrices over all n vertices: X_i
    marks the part's vertices on the cut side, Xc_i the rest of the part.
    With W the encoded weight matrix, X_i W Xc_j^T + Xc_i W X_j^T is the
    cut weight between parts i != j, and the row sums of (X_i W) * Xc_i are
    part i's internal cut weights.  One broadcast adds them over all
    compatible triples of assignments, and np.unique counts the sums, so
    memory stays O(2^(n-1)).  Vertex 0 is pinned outside the cut side so
    each bipartition {S, V\\S} counts exactly once.  The 2^(n-1) int64
    cut sums are priced against TABLE_BITS before any table is built:
    n >= 28 is refused.
    """
    import numpy as np

    n = inst.n
    _refuse_over(64 << max(n - 1, 0), f"2^{n - 1} int64 cut sums at n = {n}")
    _, weight = _int64_edges(inst, enc, max(1, len(inst.edges)))
    size = -(-n // 3)
    sides = []
    for part in (range(0, min(size, n)), range(size, min(2 * size, n)),
                 range(2 * size, n)):
        free = [v for v in part if v != 0]
        rows = np.arange(1 << len(free))[:, None]
        cut = np.zeros((len(rows), n), dtype=np.int64)
        cut[:, free] = rows >> np.arange(len(free)) & 1
        rest = np.zeros_like(cut)
        rest[:, list(part)] = 1
        rest -= cut
        sides.append((cut, rest))

    def between(i, j):
        (xi, ci), (xj, cj) = sides[i], sides[j]
        return xi @ weight @ cj.T + ci @ weight @ xj.T

    int0, int1, int2 = ((x @ weight * c).sum(axis=1) for x, c in sides)
    left = int0[:, None] + int1[None, :] + between(0, 1)   # s0 x s1
    right = int2[None, :] + between(1, 2)                   # s1 x s2
    sums = left[:, :, None] + right[None, :, :]
    sums += between(0, 2)[:, None, :]
    return np.unique(sums, return_counts=True)


def build_auxiliary_graph(inst, enc, k):
    """Auxiliary graph H for edge-weighted k-clique, k divisible by 3.

    Nodes are the (k/3)-cliques of G; two nodes are adjacent iff their
    union induces a (2k/3)-clique.  Edge weights double the cross weight
    and add both internal weights, so every H-triangle weighs exactly
    twice the underlying k-clique.  With I the N x n node-incidence
    matrix and A the adjacency of G, nodes i and j are adjacent iff
    (I A I^T)[i, j] = (k/3)^2, one float64 product whose entries are at
    most (k/3)^2 and so exact.  Cross weights are summed from the encoded
    weights at the adjacent pairs alone.  Returns int64 arrays (nodes,
    internal, hedges): nodes is N x k/3, each row a node's sorted vertices,
    rows in lexicographic order; internal[i] is node i's internal encoded
    weight; hedges is E x 3, rows (i, j, encoded H-edge weight) with i < j,
    in row-major order of (i, j).  The product's N^2 float64 entries are
    priced against TABLE_BITS before it is formed: N > 8192 is refused.
    """
    import numpy as np

    if k % 3 or k < 3:
        raise KNotDivisibleBy3(f"k = {k}")
    kk = k // 3
    adj_m, weight_m = _int64_edges(inst, enc, k * (k - 1))
    combos = np.array(list(combinations(range(inst.n), kk)), dtype=np.int64).reshape(-1, kk)
    a, b = np.triu_indices(kk, 1)  # the vertex pairs inside a node
    combos = combos[adj_m[combos[:, a], combos[:, b]].all(axis=1)]
    _refuse_over(64 * len(combos) ** 2,
                 f"{len(combos)} x {len(combos)} float64 node products")
    own = weight_m[combos[:, a], combos[:, b]].sum(axis=1)
    inc = np.zeros((len(combos), inst.n))
    inc[np.repeat(np.arange(len(combos)), kk), combos.ravel()] = 1
    linked = inc @ adj_m.astype(float) @ inc.T == kk * kk
    i, j = np.nonzero(np.triu(linked, 1))
    # (I W)[i, v] is node i's weight to vertex v; sum it over node j's vertices
    to_vertex = weight_m[:, combos].sum(axis=2).T
    cross = to_vertex[i[:, None], combos[j]].sum(axis=1)
    hedges = np.stack([i, j, 2 * cross + own[i] + own[j]], axis=1)
    return combos, own, hedges


def ewclique_algebraic(inst, enc, k):
    """Maximum-weight k-clique via the triangles of the auxiliary graph H.

    A k-clique is a triangle of H once per way to split it into three
    (k/3)-cliques, C(k,k/3)*C(2k/3,k/3)/6 ways in all.  Only the split into
    consecutive thirds of the sorted clique is listed: the triangles of the
    H-edges (i, j) with max(nodes[i]) < min(nodes[j]), so each k-clique
    counts once.  A triangle weighs twice its k-clique's encoded weight
    (additivity of the encoding), so the emitted exponent is the halved
    triangle weight.  Each triangle i < j < l is found once, from its edge
    (i, j): the third vertices are the l > j adjacent to both, found for a
    block of edges at once.  Two checks raise InvariantViolated: every
    triangle weight is even, and the listed triangles times
    C(k,k/3)*C(2k/3,k/3)/6 equal H's triangle count ((A A) * A).sum() / 6,
    over H's symmetric 0/1 adjacency A.  A is float32, exact for entries
    of A A up to N < 2^24; the product is taken one block of rows at a
    time and summed in float64, exact below N = 2^17.
    """
    import numpy as np

    nodes, _, hedges = build_auxiliary_graph(inst, enc, k)
    size = len(nodes)
    first, second, hw = hedges.T
    adj = np.zeros((size, size), dtype=np.float32)
    adj[first, second] = adj[second, first] = 1
    rows = max(1, (1 << 20) // max(1, size))  # rows per 4 MB of product
    in_h = sum(int(((adj[r:r + rows] @ adj) * adj[r:r + rows]).sum(dtype=np.float64))
               for r in range(0, size, rows)) // 6
    kk = k // 3
    per_clique = comb(k, kk) * comb(k - kk, kk) // 6
    # node rows are sorted: keep the edges whose first node lies wholly
    # below the second, the consecutive thirds of each sorted clique
    keep = nodes[first, -1] < nodes[second, 0]
    first, second, hw = first[keep], second[keep], hw[keep]
    # the kept edges (i, j), i < j, so a row lists the higher neighbours
    upper = np.zeros((size, size), dtype=bool)
    weight = np.zeros((size, size), dtype=np.int64)
    upper[first, second] = True
    weight[first, second] = hw
    # each block of edges lists its triangles and counts their weights, so
    # memory follows the block, not the triangle count
    block_sums = [np.zeros(0, dtype=np.int64)]
    block_counts = [np.zeros(0, dtype=np.int64)]
    step = max(1, (1 << 20) // max(1, size))  # edges per 1 MB of flags
    for s in range(0, len(hw), step):
        i, j = first[s:s + step], second[s:s + step]
        e, l = np.nonzero(upper[i] & upper[j])
        total = hw[s:s + step][e] + weight[i[e], l] + weight[j[e], l]
        odd = np.flatnonzero(total & 1)
        if odd.size:
            raise InvariantViolated(f"triangle weight {total[odd[0]]} is odd")
        sums, counts = np.unique(total, return_counts=True)
        block_sums.append(sums)
        block_counts.append(counts)
    sums, where = np.unique(np.concatenate(block_sums), return_inverse=True)
    counts = np.zeros(len(sums), dtype=np.int64)
    np.add.at(counts, where, np.concatenate(block_counts))
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


def _limb_min(x, axis):
    """Minimum of the limb array x along `axis` of each limb's array."""
    import numpy as np

    lows = []
    for limb in x:
        if lows:  # keep the positions tied so far; the fill is above every limb
            limb = np.where(last == lows[-1], limb, 1 << _LIMB)
        lows.append(limb.min(axis=axis, keepdims=True))
        last = limb
    return np.stack(lows).squeeze(axis + 1)


def steiner_algebraic(inst, enc):
    """Dreyfus-Wagner DP over (terminal subset, root) on one exact integer key.

    Only the first terminal's component is kept; n is its vertex count.
    Edge weight w has the key w * R + enc[w], R = (n - 1) * max(enc) + 1,
    above the encodings of any tree: key sums order trees by (true value,
    encoding), each DP candidate, an edge multiset, holds a tree of no
    larger key, and the optimum's encoding is its key mod R.  Keys are
    int64 limbs, as many as the largest sum needs.  Floyd-Warshall relaxes
    only the rows that reach its pivot, low-degree pivots first, so sparse
    graphs cost less than n^3.  Subsets of one size are solved at once, in
    blocks that bound the (block, n, n) temporaries.  Raises Disconnected
    when the terminals span components.  Before Floyd-Warshall the DP
    table, limbs x 2^(t-1) subsets x n int64 keys, plus the 2^(t-1) x (t-1)
    subset bits, is priced against TABLE_BITS (24 terminals on n = 100 are
    refused); after the DP, BoundExceeded is raised when the optimal tree's
    encoding reaches EXPONENT_LIMIT.
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
    key = {w: w * radix + enc[w] for *_, w in edges}
    # a DP value sums fewer than 2 * len(terms) paths of fewer than n edges,
    # so `inf` lies above all; the limbs hold 2 * inf, Floyd-Warshall's sum
    inf = 2 * len(terms) * (n - 1) * max(key.values(), default=0) + 1
    count = -(-(2 * inf).bit_length() // _LIMB)
    k = len(terms) - 1
    _refuse_over(64 * ((count * n + k) << k),
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
    for m in np.lexsort((np.arange(n) * 0.618034 % 1,
                         np.bincount(np.r_[u, v], minlength=n))):
        rows = np.flatnonzero((dist[:, :, m] != top).any(axis=0))
        # gathering more than half the rows costs more than relaxing all
        rows = rows if 2 * len(rows) < n else slice(None)
        old = dist[:, rows]
        via = _limb_add(old[:, :, m, None], dist[:, None, m, :])
        # _limb_min's order, inlined: _limb_min on a stack took twice as long
        less, tied = via[0] < old[0], via[0] == old[0]
        for x, y in zip(via[1:], old[1:]):
            less |= tied & (x < y)
            tied &= x == y
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
        step = max(1, (1 << 17) // (n * max(n, len(picks))))
        for b in range(0, len(level), step):
            part = slice(b, b + step)
            # merge two sub-trees at one root, then re-root along shortest paths
            merged = _limb_min(_limb_add(dp[:, firsts[part]], dp[:, seconds[part]]), 1)
            dp[:, level[part]] = _limb_min(
                _limb_add(merged[:, :, :, None], dist[:, None]), 1)
    best = sum(limb << _LIMB * j for j, limb in enumerate(dp[::-1, -1, root].tolist()))
    best %= radix
    if best >= EXPONENT_LIMIT:
        raise BoundExceeded(f"the optimal tree's encoding {best} is not below 2^62")
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


def _selfconv_support(seq, bound):
    """Attainable (position sum, value sum) pairs as a (2n-1, 2*max(seq)+1) bool array.

    Entry [k, s] is True iff some i + j = k has seq[i] + seq[j] = s.  The
    0/1 indicator ind[i, seq[i]] is convolved with itself by a 2-D real
    FFT over an R x C grid, 2^a * 3^b lengths at least as long as the
    2n-1 position sums and 2*max(seq)+1 value sums, so no wrap-around
    occurs.  `bound` only checks that every entry lies in [0, bound).
    Counts are at most n and the float64 rounding error of the transform
    is far below 0.5 at any size TABLE_BITS admits, so thresholding at 0.5
    is exact.

    One complex128 spectrum of R x (C/2+1) is transformed in place: its
    first n rows are filled from blocks of indicator rows, and the column
    inverse runs on the 2n-1 needed rows, one block of at most 4 MB of
    float64 at a time.  Peak memory is about 10 bytes per padded slot
    (9.2-10.4 bytes measured with tracemalloc at n = 1000..4096,
    max(seq) = 1020..4000; small grids pay more per slot for the blocks),
    so the R * C slots are priced at 80 bits each against TABLE_BITS
    before anything is allocated: at most 53,687,091 slots.
    """
    import numpy as np

    n = len(seq)
    if any(not 0 <= v < bound for v in seq):
        raise BoundExceeded("encoded value outside [0, bound)")
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
    in one call, and defaults to the sums themselves; pass a batch
    true-value decoder to restore the original order of encoded sums.
    Ties break toward the smaller encoded value.  Keys may be arbitrarily
    large Python ints: the attainable sums are ranked once by
    (key, encoding), and each row's minimum is its attainable sum of
    lowest rank.
    """
    import numpy as np

    support = _selfconv_support(seq, bound)
    # only attainable sums are guaranteed to be decodable, so evaluate
    # the keys just on columns that occur somewhere
    cols = np.flatnonzero(support.any(axis=0))
    if keys is not None:
        # cols ascend, so a stable sort keeps ties in encoding order
        cols = cols[np.argsort(keys(cols), kind="stable")]
    # columns in rank order: the first attainable one in a row has the
    # lowest rank among that row's sums
    ranked = support[:, cols]
    first = ranked.argmax(axis=1)
    if not ranked[np.arange(len(first)), first].all():
        raise InvariantViolated("a self-convolution index has no attainable sum")
    return cols[first].tolist()
