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

Coefficients are exact integers, normalized so they are checkable against
brute force: each undirected tour, each bipartition, and each k-clique
counts once.  Steiner keeps one optimal tree, {exponent: 1}, and min-plus
returns each output index's minimum instead of a dict.  SOLVER_SPECS is the
one table of the supported kinds.
"""

import heapq
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .additive import Gap, WeightSet
from .encoding import true_value
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
        "min", lambda inst: inst.n,
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
            key=lambda e: true_value(egap, e)),
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


def tsp_algebraic(inst, enc):
    """Held-Karp subset DP with polynomial-valued cells.

    dp[mask][v] is the generating function of simple paths from vertex 0
    to v visiting exactly the vertices in mask.  Closing every path with
    the edge back to 0 counts each undirected tour twice (once per
    orientation, same weight), so final coefficients are halved.
    Returns {} when no Hamiltonian cycle exists.
    """
    n = inst.n
    if n < 3:
        return {}
    adj = _encoded_edges(inst, enc)
    full = (1 << n) - 1
    dp = {1 | (1 << v): {v: {adj[0][v]: 1}} for v in adj[0] if v != 0}
    for mask in range(3, full + 1, 2):
        row = dp.get(mask)
        if row is None:
            continue
        for v, terms in row.items():
            for u, w in adj[v].items():
                if u == 0 or mask & (1 << u):
                    continue
                nxt = dp.setdefault(mask | (1 << u), {}).setdefault(u, {})
                for e, c in terms.items():
                    nxt[e + w] = nxt.get(e + w, 0) + c
    total = {}
    for v, terms in dp.get(full, {}).items():
        w = adj[v].get(0)
        if w is None:
            continue
        for e, c in terms.items():
            total[e + w] = total.get(e + w, 0) + c
    return {e: c // 2 for e, c in total.items()}


def maxcut_algebraic(inst, enc):
    """Split-and-list over a 3-way vertex partition.

    Vertices split into V1, V2, V3 of size <= ceil(n/3); per-part internal
    cut weights and the three cross tables are listed, then all compatible
    triples of part-assignments are combined.  Vertex 0 is pinned outside
    the cut side so each bipartition {S, V\\S} counts exactly once.
    """
    n = inst.n
    if n == 0:
        return {0: 1}
    size = -(-n // 3)
    parts = [list(range(0, min(size, n))),
             list(range(size, min(2 * size, n))),
             list(range(2 * size, n))]
    adj = _encoded_edges(inst, enc)

    def subsets(part, pin_zero):
        out = []
        free = [v for v in part if not (pin_zero and v == 0)]
        for mask in range(1 << len(free)):
            out.append(frozenset(v for i, v in enumerate(free) if mask >> i & 1))
        return out

    def internal(part, s):
        tot = 0
        for u, v in combinations(part, 2):
            w = adj[u].get(v)
            if w is not None and (u in s) != (v in s):
                tot += w
        return tot

    subs = [subsets(parts[0], True), subsets(parts[1], False), subsets(parts[2], False)]
    part_of = {}
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    cross_edges = {(0, 1): [], (1, 2): [], (0, 2): []}
    for u, v, w in inst.edges:
        i, j = part_of[u], part_of[v]
        if i != j:
            cross_edges[(min(i, j), max(i, j))].append((u, v, enc[w]))

    def cross_table(i, j):
        table = {}
        for sa in subs[i]:
            for sb in subs[j]:
                tot = 0
                for u, v, w in cross_edges[(i, j)]:
                    if (u in sa or u in sb) != (v in sa or v in sb):
                        tot += w
                table[(sa, sb)] = tot
        return table

    t01, t12, t02 = cross_table(0, 1), cross_table(1, 2), cross_table(0, 2)
    int_w = [
        {s: internal(parts[i], s) for s in subs[i]} for i in range(3)
    ]
    terms = {}
    for s0 in subs[0]:
        base0 = int_w[0][s0]
        for s1 in subs[1]:
            base01 = base0 + int_w[1][s1] + t01[(s0, s1)]
            for s2 in subs[2]:
                e = base01 + int_w[2][s2] + t12[(s1, s2)] + t02[(s0, s2)]
                terms[e] = terms.get(e, 0) + 1
    return terms


def build_auxiliary_graph(inst, enc, k):
    """Auxiliary graph H for edge-weighted k-clique, k divisible by 3.

    Nodes are the (k/3)-cliques of G; two nodes are adjacent iff their
    union induces a (2k/3)-clique.  Edge weights double the cross weight
    and add both internal weights, so every H-triangle weighs exactly
    twice the underlying k-clique.  Returns (nodes, internal, hedges)
    where nodes are vertex-index tuples, internal maps node -> internal
    encoded weight, and hedges maps (i, j) -> encoded H-edge weight.
    """
    if k % 3 or k < 3:
        raise KNotDivisibleBy3(f"k = {k}")
    kk = k // 3
    adj = _encoded_edges(inst, enc)
    adjmask = [0] * inst.n
    for u in range(inst.n):
        for v in adj[u]:
            adjmask[u] |= 1 << v
    nodes, internal, masks = [], [], []
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
            masks.append(sum(1 << u for u in combo))
    hedges = {}
    for i, j in combinations(range(len(nodes)), 2):
        if masks[i] & masks[j]:
            continue
        crossw = 0
        ok = True
        for u in nodes[i]:
            if adjmask[u] & masks[j] != masks[j]:
                ok = False
                break
            for v in nodes[j]:
                crossw += adj[u][v]
        if ok:
            hedges[(i, j)] = 2 * crossw + internal[i] + internal[j]
    return nodes, internal, hedges


def ewclique_algebraic(inst, enc, k):
    """Maximum-weight k-clique via minimum/maximum triangles in H.

    Enumerates all triangles of the auxiliary graph; each triangle's weight
    is twice its k-clique's encoded weight (additivity of the encoding), so
    the emitted exponent is the halved triangle weight.  Every k-clique
    yields C(k,k/3)*C(2k/3,k/3)/6 triangles; coefficients are divided by
    that constant so each clique counts once.
    """
    nodes, _, hedges = build_auxiliary_graph(inst, enc, k)
    nbr = {i: {} for i in range(len(nodes))}
    for (i, j), w in hedges.items():
        nbr[i][j] = w
        nbr[j][i] = w
    terms = {}
    for (i, j), wij in hedges.items():
        for l, wjl in nbr[j].items():
            if l <= j or l not in nbr[i]:
                continue
            total = wij + wjl + nbr[i][l]
            if total % 2:
                raise InvariantViolated(f"triangle weight {total} is odd")
            e = total // 2
            terms[e] = terms.get(e, 0) + 1
    kk = k // 3
    per_clique = comb(k, kk) * comb(k - kk, kk) // 6
    for e in terms:
        if terms[e] % per_clique:
            raise InvariantViolated(
                f"{terms[e]} triangles at exponent {e} are not a multiple of {per_clique}")
        terms[e] //= per_clique
    return terms


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


def minplus_selfconv_min(seq, bound, key=None, budget=5 * 10**7):
    """Per-index minimum of the self-convolution, compared by `key`.

    `key(e)` defaults to the identity; pass a true-value key to restore
    the original order of encoded sums.  Ties break toward the smaller
    encoded value.  Keys may be arbitrarily large Python ints: the
    attainable sums are ranked once by (key(e), e) in Python, and each
    row's minimum is its attainable sum of lowest rank.
    """
    import numpy as np

    support = _selfconv_support(seq, bound, budget)
    # only attainable sums are guaranteed to be decodable, so evaluate
    # the key just on columns that occur somewhere
    cols = np.flatnonzero(support.any(axis=0)).tolist()
    if key is not None:
        cols.sort(key=lambda e: (key(e), e))
    # columns in rank order: the first attainable one in a row has the
    # lowest rank among that row's sums
    ranked = support[:, cols]
    first = ranked.argmax(axis=1)
    if not ranked[np.arange(len(first)), first].all():
        raise InvariantViolated("a self-convolution index has no attainable sum")
    return [cols[i] for i in first.tolist()]
