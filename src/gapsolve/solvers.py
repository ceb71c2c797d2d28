"""Bounded-input algebraic solvers operating on encoded integer weights.

Each solver receives a problem instance together with a map from original
weight values to their encoded integers, and returns a plain dict that maps
each exponent, a sum of encoded weights, to the number of solutions with
that sum.  Every exponent stays within the lambda-enlarged GAP bounds of
its problem:

  TSP        lambda = n        (a tour sums n edge weights)
  Max-Cut    lambda = m        (a cut sums at most m edge weights)
  k-Clique   lambda = k(k-1)   (auxiliary-graph triangles double each weight)
  Steiner    lambda = n - 1    (a tree has fewer than n edges)
  MinPlus    lambda = 2        (sums of two sequence entries)

Each lambda is at least 1, also for graphs without vertices or edges.

Coefficients are exact integers, normalized so they are checkable against
brute force: each undirected tour, each bipartition, and each k-clique
counts once.  Steiner keeps one optimal tree, {exponent: 1}, and min-plus
returns each output index's minimum instead of a dict.  SOLVER_SPECS is the
one table of the supported kinds.

The cores work on exponents as machine integers: max-cut and the k-clique
auxiliary graph on int64 numpy arrays, TSP on Held-Karp cells that are
each one int packing a count per exponent, and min-plus on a float FFT.
Sums of at most lambda encoded weights stay below EXPONENT_LIMIT = 2^62,
checked once per call (BoundExceeded above it), so int64 never wraps.
TSP and min-plus are dense in the exponent: their memory grows with the
spread of the encoded weights, and each raises BoundExceeded above a
fixed budget.  The optimum and min-plus's sums are decoded in one
`encoding.true_values` call, over Python ints.  numpy is imported inside
the functions that use it.
"""

import heapq
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb, factorial

from .additive import Gap, WeightSet
from .encoding import EXPONENT_LIMIT, true_value, true_values
from .errors import (
    BoundExceeded,
    Disconnected,
    InvalidInstance,
    InvariantViolated,
    KNotDivisibleBy3,
)
from .oracle import clique_bf, maxcut_bf, minplus_naive, steiner_bf, tsp_bf


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

    `solve(inst, enc, egap)` runs the kind's solver on encoded weights and
    returns its {exponent: count} dict; for min-plus it returns the
    per-index minimum encodings instead.  `oracle(inst)` returns the
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
        lambda inst, enc, egap: steiner_algebraic(
            inst, enc, lambda e: true_value(egap, e)),
        lambda inst: steiner_bf(inst).optimum,
        counts=False),
    "minplusconv": SolverSpec(
        "min", lambda inst: 2,
        lambda inst, enc, egap: minplus_selfconv_min(
            [enc[v] for v in inst.sequence], egap.range_bound,
            keys=lambda sums: true_values(egap, sums)),
        lambda inst: minplus_naive(list(inst.sequence)),
        counts=False),
}


def _encoded_edges(inst, enc):
    """Adjacency map u -> {v: encoded weight}."""
    adj = {u: {} for u in range(inst.n)}
    for u, v, w in inst.edges:
        adj[u][v] = enc[w]
        adj[v][u] = enc[w]
    return adj


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


def tsp_algebraic(inst, enc, budget=2**32):
    """Held-Karp subset DP whose cells are packed generating functions.

    dp[mask][v] stands for the simple paths from vertex 0 to v visiting
    exactly the vertices in mask, as one int: slot t, S bits wide, holds
    the number of those paths of shifted weight t.  Adding an edge shifts a
    cell by whole slots, and merging two cells adds them.  Every tour has n
    edges, so each edge weight is lowered by w_min, the smallest encoded
    edge weight, and n * w_min is added back at the end; the packed ints
    then span the spread of the weights, not their size.  A slot has
    bitlen((n-1)!) + 1 bits, rounded up to whole bytes, above any count of
    directed cycles.  Closing every path with the edge back to 0 counts
    each undirected tour twice (once per orientation, same weight), so
    final counts are halved.  Returns {} when no Hamiltonian cycle exists.

    A cell takes up to ((n-1) * spread + 1) slots, where spread is the
    largest encoded edge weight minus w_min, so memory grows with the
    spread, not with the number of distinct path weights.  `budget` caps
    2^(n-1) widest cells, in bits (2^32, 512 MiB; complete graphs peaked
    at a quarter to a third of that); above it BoundExceeded is raised
    before any cell is built.
    """
    import numpy as np

    n = inst.n
    if n < 3 or not inst.edges:
        return {}
    _check_int64(inst, enc, n)
    width = -(-(factorial(n - 1).bit_length() + 1) // 8)  # bytes per slot
    if width > 8:
        raise BoundExceeded(f"tour counts at n = {n} do not fit in 64 bits")
    slot = 8 * width
    w_min = min(enc[w] for _, _, w in inst.edges)
    spread = max(enc[w] for _, _, w in inst.edges) - w_min
    if ((n - 1) * spread + 1) * slot << (n - 1) > budget:
        raise BoundExceeded(
            f"Held-Karp cells for n = {n} and encoded weight spread {spread} "
            f"exceed budget {budget} bits")
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
    raw = np.frombuffer(total.to_bytes(slots * width, "little"), dtype=np.uint8)
    words = np.zeros((slots, 8), dtype=np.uint8)
    words[:, :width] = raw.reshape(slots, width)
    counts = words.view("<u8")[:, 0]
    hit = np.flatnonzero(counts)
    return dict(zip((hit + n * w_min).tolist(), (counts[hit] // 2).tolist()))


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
    each bipartition {S, V\\S} counts exactly once.
    """
    import numpy as np

    n = inst.n
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
    exps, counts = np.unique(sums, return_counts=True)
    return dict(zip(exps.tolist(), counts.tolist()))


def build_auxiliary_graph(inst, enc, k):
    """Auxiliary graph H for edge-weighted k-clique, k divisible by 3.

    Nodes are the (k/3)-cliques of G; two nodes are adjacent iff their
    union induces a (2k/3)-clique.  Edge weights double the cross weight
    and add both internal weights, so every H-triangle weighs exactly
    twice the underlying k-clique.  With I the N x n node-incidence
    matrix, A the adjacency and W the encoded weights of G, nodes i and j
    are adjacent iff (I A I^T)[i, j] = (k/3)^2, and (I W I^T)[i, j] is
    their cross weight.  Returns (nodes, internal, hedges) where nodes are
    vertex-index tuples, internal maps node -> internal encoded weight,
    and hedges maps (i, j), i < j, -> encoded H-edge weight.
    """
    import numpy as np

    if k % 3 or k < 3:
        raise KNotDivisibleBy3(f"k = {k}")
    kk = k // 3
    adj_m, weight_m = _int64_edges(inst, enc, k * (k - 1))
    adj = _encoded_edges(inst, enc)
    nodes, internal = [], []
    for combo in combinations(range(inst.n), kk):
        tot = 0
        ok = True
        for u, v in combinations(combo, 2):
            w = adj[u].get(v)
            if w is None:
                ok = False
                break
            tot += w
        if ok:
            nodes.append(combo)
            internal.append(tot)
    inc = np.zeros((len(nodes), inst.n), dtype=np.int64)
    inc[np.repeat(np.arange(len(nodes)), kk), np.ravel(nodes).astype(np.int64)] = 1
    linked = inc @ adj_m @ inc.T == kk * kk
    cross = inc @ weight_m @ inc.T
    own = np.array(internal, dtype=np.int64)
    i, j = np.nonzero(np.triu(linked, 1))
    hw = 2 * cross[i, j] + own[i] + own[j]
    hedges = dict(zip(zip(i.tolist(), j.tolist()), hw.tolist()))
    return nodes, internal, hedges


def ewclique_algebraic(inst, enc, k):
    """Maximum-weight k-clique via minimum/maximum triangles in H.

    Enumerates all triangles of the auxiliary graph; each triangle's weight
    is twice its k-clique's encoded weight (additivity of the encoding), so
    the emitted exponent is the halved triangle weight.  Each triangle
    i < j < l is found once, from its edge (i, j): the third vertices are
    the l > j adjacent to both, found for a block of edges at once.
    Every k-clique yields C(k,k/3)*C(2k/3,k/3)/6 triangles; coefficients
    are divided by that constant so each clique counts once.
    """
    import numpy as np

    nodes, _, hedges = build_auxiliary_graph(inst, enc, k)
    size = len(nodes)
    first, second = np.fromiter(chain.from_iterable(hedges), dtype=np.int64,
                                count=2 * len(hedges)).reshape(-1, 2).T
    hw = np.fromiter(hedges.values(), dtype=np.int64, count=len(hedges))
    # H's edges (i, j) with i < j only, so a row lists the higher neighbours
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
    exps = sums // 2
    kk = k // 3
    per_clique = comb(k, kk) * comb(k - kk, kk) // 6
    bad = np.flatnonzero(counts % per_clique)
    if bad.size:
        raise InvariantViolated(
            f"{counts[bad[0]]} triangles at exponent {exps[bad[0]]} "
            f"are not a multiple of {per_clique}")
    return dict(zip(exps.tolist(), (counts // per_clique).tolist()))


def _encoded_dijkstra(n, adj, tv_of, src):
    """Shortest paths from src where edge lengths are (true value, encoding).

    True values add exactly (the encoding is additive within the enlarged
    bounds), so comparing accumulated (tv, enc) pairs orders paths by
    original weight with deterministic tie-breaking.
    """
    INF = None
    dist = [INF] * n
    heap = [(0, 0, src)]
    done = [False] * n
    while heap:
        tv, e, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        dist[u] = (tv, e)
        for v, w in adj[u].items():
            if not done[v]:
                heapq.heappush(heap, (tv + tv_of[w], e + w, v))
    return dist


def steiner_algebraic(inst, enc, tv):
    """Dreyfus-Wagner DP over (terminal subset, root) with encoded weights.

    States hold the minimum (true value, encoding) pair; the returned dict
    holds the single optimal exponent with coefficient 1.
    Raises Disconnected when the terminals span components.
    """
    n = inst.n
    terms = list(dict.fromkeys(inst.terminals))
    adj = _encoded_edges(inst, enc)
    tv_of = {e: tv(e) for e in set(enc.values())}
    dist = [_encoded_dijkstra(n, adj, tv_of, s) for s in range(n)]
    for t in terms[1:]:
        if dist[terms[0]][t] is None:
            raise Disconnected(f"terminal {t} unreachable from {terms[0]}")

    k = len(terms)
    full = (1 << (k - 1)) - 1  # subsets of terms[1:]
    # dp[S][v]: best tree connecting {terms[i+1] : i in S} plus vertex v
    dp = [[None] * n for _ in range(full + 1)]
    for i in range(k - 1):
        t = terms[i + 1]
        for v in range(n):
            dp[1 << i][v] = dist[t][v]
    for S in range(1, full + 1):
        if S & (S - 1) == 0:
            continue
        row = dp[S]
        # merge two sub-trees at the same root
        T = (S - 1) & S
        while T:
            U = S ^ T
            if T > U:  # each split once
                a, b = dp[T], dp[U]
                for v in range(n):
                    if a[v] is None or b[v] is None:
                        continue
                    cand = (a[v][0] + b[v][0], a[v][1] + b[v][1])
                    if row[v] is None or cand < row[v]:
                        row[v] = cand
            T = (T - 1) & S
        # re-root along shortest paths
        best = [(row[u], u) for u in range(n) if row[u] is not None]
        for v in range(n):
            for cur, u in best:
                d = dist[u][v]
                if d is None:
                    continue
                cand = (cur[0] + d[0], cur[1] + d[1])
                if row[v] is None or cand < row[v]:
                    row[v] = cand
    ans = dp[full][terms[0]] if full else (0, 0)
    if ans is None:
        raise Disconnected("no connecting tree")
    return {ans[1]: 1}


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


def _selfconv_support(seq, bound, budget):
    """Attainable (position sum, value sum) pairs as a (2n-1, 2*bound) bool array.

    Entry [k, s] is True iff some i + j = k has seq[i] + seq[j] = s.  The
    0/1 indicator ind[i, seq[i]] is convolved with itself by a 2-D real
    FFT, padded to 2^a * 3^b lengths so no wrap-around occurs.  Counts are
    at most n and the float64 rounding error of the transform is far below
    0.5 at any size the budget admits, so thresholding at 0.5 is exact.

    `budget` caps the slots of the padded grid, checked before anything is
    allocated.  Peak memory is about 21 bytes per padded slot (the
    complex128 spectra and the float64 inverse; 17-21 bytes measured with
    tracemalloc at n = 600..4096, bound = 256..2000), so the default 5*10^7
    slots allow about 1 GB.
    """
    import numpy as np

    n = len(seq)
    if any(not 0 <= v < bound for v in seq):
        raise BoundExceeded("encoded value outside [0, bound)")
    block = 2 * bound
    rows, cols = 2 * n - 1, 2 * bound - 1
    shape = (_fft_len(rows), _fft_len(cols))
    if shape[0] * shape[1] > budget:
        raise BoundExceeded(
            f"FFT grid of {shape[0]}x{shape[1]} slots exceeds budget {budget}")
    ind = np.zeros((n, bound))
    ind[np.arange(n), seq] = 1.0
    spec = np.fft.rfft2(ind, shape)
    del ind
    spec *= spec
    # invert the row axis first, so only the 2n-1 needed rows go through
    # the column transform; the full spectrum is freed before that
    half = np.fft.ifft(spec, axis=0)[:rows]
    del spec
    support = np.zeros((rows, block), dtype=bool)
    support[:, :cols] = np.fft.irfft(half, shape[1], axis=1)[:, :cols] > 0.5
    return support


def minplus_selfconv_min(seq, bound, keys=None, budget=5 * 10**7):
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

    support = _selfconv_support(seq, bound, budget)
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
