"""Differential tests: the int64 solver cores against the loop solvers they replaced.

The ref_* functions are the dict-loop Held-Karp, split-and-list max-cut,
auxiliary graph and triangle loop, the per-term optimum selection, and the
Dreyfus-Wagner DP over (true value, encoding) tuples with its Dijkstra,
kept here verbatim (renamed) as references.  The _numpy_* functions are
the numpy max-cut, auxiliary graph and k-clique kernels that ran before
the cut-sum histogram and the bit-packed triangle listing, kept verbatim
(renamed) too: max-cut sorted all 2^(n-1) cut sums at once, and the
triangles came from one byte per H-node per edge.  _bigint_tsp is the
Held-Karp that held every cell as one packed Python int, with slots of
bitlen((n-1)!) bits at every level, kept verbatim (renamed) as well.
Every instance is seeded, and the solvers must return the same terms as
the {exponent: count} dicts of the references and pick the same optimum
under both senses, on covers of ordinary size, with 2^63-scale, 2^200-scale and 2^1100-scale generators
(beyond float64), with a 2^63 translation, in three dimensions (also with
2^63- and 2^200-scale generators none of which outweighs the rest, where
steiner's keys need several int64 limbs), and on the non-proper GAP
((2, 3), (6, 4)), whose values have several encodings.
"""

import heapq
import random
import re
from functools import partial
from itertools import combinations
from math import comb, factorial

import numpy as np
import numpy.lib.stride_tricks as stride_tricks
import pytest

from gapsolve import (
    SOLVER_SPECS,
    Gap,
    ProblemInstance,
    build_auxiliary_graph,
    enlarge,
    ewclique_algebraic,
    get_gap_coordinates,
    kappa,
    maxcut_algebraic,
    run_meta,
    select_optimum,
    steiner_algebraic,
    true_value,
    tsp_algebraic,
)
from gapsolve.errors import (
    BoundExceeded,
    Disconnected,
    InfeasibleInstance,
    InvariantViolated,
    KNotDivisibleBy3,
)
from gapsolve.encoding import order_keys
from gapsolve.oracle import minplus_naive, steiner_bf
import gapsolve.solvers as solvers
from gapsolve.solvers import _check_int64, _int64_edges, _refuse_over
from test_solvers import as_dict, spy_limbs


def _encoded_edges(inst, enc):
    """Adjacency map u -> {v: encoded weight}."""
    adj = {u: {} for u in range(inst.n)}
    for u, v, w in inst.edges:
        adj[u][v] = enc[w]
        adj[v][u] = enc[w]
    return adj


def ref_tsp_algebraic(inst, enc):
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


def ref_maxcut_algebraic(inst, enc):
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


def ref_build_auxiliary_graph(inst, enc, k):
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


def ref_ewclique_algebraic(inst, enc, k):
    """Maximum-weight k-clique via minimum/maximum triangles in H.

    Enumerates all triangles of the auxiliary graph; each triangle's weight
    is twice its k-clique's encoded weight (additivity of the encoding), so
    the emitted exponent is the halved triangle weight.  Every k-clique
    yields C(k,k/3)*C(2k/3,k/3)/6 triangles; coefficients are divided by
    that constant so each clique counts once.
    """
    nodes, _, hedges = ref_build_auxiliary_graph(inst, enc, k)
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


def _bigint_tsp(inst, enc):
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
    _check_int64(n, max(enc[w] for _, _, w in inst.edges))
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


def _numpy_maxcut(inst, enc):
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


def _numpy_auxiliary_graph(inst, enc, k):
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


def _numpy_ewclique(inst, enc, k):
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

    nodes, _, hedges = _numpy_auxiliary_graph(inst, enc, k)
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


def ref_select_optimum(terms, g, sense):
    """(exponent, true value, count) of the optimal term of `terms`.

    Each exponent is decoded once.  Comparison is by (true value, encoding):
    the true value first, and ties break toward the smaller encoding under
    either sense.  Distinct exponents can share
    a true value, so `count` sums the coefficients of every exponent on the
    optimal value.  Raises InfeasibleInstance for an empty map.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if not terms:
        raise InfeasibleInstance("no feasible solution")
    sign = 1 if sense == "min" else -1
    best = value = None
    count = 0
    for e, c in terms.items():
        v = true_value(g, e)
        if best is None or sign * (v - value) < 0:
            best, value, count = e, v, c
        elif v == value:
            best = min(best, e)
            count += c
    return best, value, count


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


def ref_steiner(inst, enc, tv):
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


T63 = 2**63
# (cover, coordinate draw) per family; every weight is a point of its cover
FAMILIES = {
    "G": Gap((10**12, 7), (1, 30)),
    "H": Gap((T63 + 29, 2**61 + 3), (3, 12)),
    "T63": Gap((T63, 3**30, 5**11), (1, 5, 5)),  # every weight has l_1 = 1
    "3dim": Gap((10**9 + 7, 1000003, 13), (8, 8, 8)),
    "nonproper": Gap((2, 3), (6, 4)),
    "B200": Gap((2**200 + 1, 5), (2, 9)),
    "B1100": Gap((2**1100 + 1, 5), (2, 9)),
    # x_1 does not outweigh the later dimensions, so steiner's keys need limbs
    "3dim-T63": Gap((T63 + 29, 2**62 + 7, 2**61 + 3), (1, 2, 2)),
    "3dim-B200": Gap((2**200 + 1, 2**199 + 5, 2**198 + 9), (1, 1, 2)),
}


def draw_weight(rng, family):
    gap = FAMILIES[family]
    low = 1 if family == "T63" else 0
    coords = [rng.randint(low if i == 0 else 0, b) for i, b in enumerate(gap.bounds)]
    return sum(x * l for x, l in zip(gap.generators, coords))


def graph(kind, family, n, density, seed, k=0, edges=None):
    rng = random.Random(f"{kind}-{family}-{n}-{density}-{seed}")
    if edges is None:
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
    edges = tuple((u, v, draw_weight(rng, family)) for u, v in edges)
    return ProblemInstance(kind=kind, n=n, edges=edges, k=k, gap=FAMILIES[family])


def encoded(inst):
    egap = enlarge(inst.gap, SOLVER_SPECS[inst.kind].lambda_bound(inst))
    coords = get_gap_coordinates(inst.weights, inst.gap)
    return egap, {w: kappa(egap, c) for w, c in zip(inst.weights, coords)}


def assert_same_optimum(terms, egap):
    for sense in ("min", "max"):
        try:
            expected = ref_select_optimum(as_dict(terms), egap, sense)
        except InfeasibleInstance:
            with pytest.raises(InfeasibleInstance):
                select_optimum(terms, egap, sense)
        else:
            assert select_optimum(terms, egap, sense) == expected


def path_edges(n):
    return [(u, u + 1) for u in range(n - 1)]


def tsp_cases(family):
    yield from (graph("tsp", family, n, 1.0, 0) for n in (0, 1, 2, 3, 4, 7))
    yield graph("tsp", family, 8, 0.7, 1)
    yield graph("tsp", family, 6, 0.5, 2)
    yield graph("tsp", family, 6, 1.0, 3, edges=path_edges(6))  # no tour
    yield graph("tsp", family, 5, 1.0, 4, edges=[(0, v) for v in range(1, 5)])  # a star
    yield graph("tsp", family, 4, 1.0, 5, edges=[])


def maxcut_cases(family):
    yield from (graph("maxcut", family, n, 1.0, 0) for n in (0, 1, 2, 4))
    yield graph("maxcut", family, 7, 0.6, 1)
    yield graph("maxcut", family, 11, 0.5, 2)
    yield graph("maxcut", family, 6, 1.0, 3, edges=[])
    yield graph("maxcut", family, 13, 0.4, 4)


def ewclique_cases(family):
    yield graph("ewclique", family, 2, 1.0, 0, k=3)
    yield graph("ewclique", family, 8, 0.8, 1, k=3)
    yield graph("ewclique", family, 8, 0.9, 2, k=6)
    yield graph("ewclique", family, 9, 0.95, 6, k=6)
    yield graph("ewclique", family, 12, 0.7, 34, k=6)
    yield graph("ewclique", family, 10, 1.0, 3, k=9)
    yield graph("ewclique", family, 11, 0.95, 12, k=9)  # 4 to 19 overlapping cliques
    yield graph("ewclique", family, 6, 1.0, 4, k=6, edges=path_edges(6))  # no clique
    yield graph("ewclique", family, 5, 1.0, 5, k=3, edges=[])
    yield graph("ewclique", family, 5, 1.0, 6, k=6, edges=[])  # H has no nodes
    # H-rows of several uint64 words: N = 70 and, as in the benchmark, N near 140
    yield graph("ewclique", family, 70, 0.3, 7, k=3)
    yield graph("ewclique", family, 18, 0.9, 8, k=6)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tsp_matches_loop_reference(family):
    for inst in tsp_cases(family):
        egap, enc = encoded(inst)
        terms = tsp_algebraic(inst, enc)
        assert as_dict(terms) == ref_tsp_algebraic(inst, enc), inst
        assert_same_optimum(terms, egap)


def assert_same_arrays(terms, expected):
    assert [a.tolist() for a in terms] == [a.tolist() for a in expected]
    assert [a.dtype for a in terms] == [a.dtype for a in expected]


def tsp_with_stages(inst, enc):
    """tsp_algebraic's terms and the stages it ran: ("rows", dtype) for each
    level of numpy rows formed from the one before, from level 3 on, and
    ("total", dtype) for the closing total."""
    stages = []
    window, nonzero = stride_tricks.as_strided, np.flatnonzero
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stride_tricks, "as_strided", lambda rows, *shape: (
            stages.append(("rows", rows.dtype)), window(rows, *shape))[1])
        patch.setattr(np, "flatnonzero", lambda total: (
            stages.append(("total", total.dtype)), nonzero(total))[1])
        return tsp_algebraic(inst, enc), stages


def assert_same_tsp(inst, enc):
    """tsp_algebraic returns _bigint_tsp's arrays or raises its refusal;
    the stages it ran, or None when both refuse."""
    try:
        expected = _bigint_tsp(inst, enc)
    except BoundExceeded as exc:
        with pytest.raises(BoundExceeded, match=re.escape(str(exc))):
            tsp_algebraic(inst, enc)
        return None
    terms, stages = tsp_with_stages(inst, enc)
    assert_same_arrays(terms, expected)
    return stages


def tsp_tail_cases(family):
    yield from (graph("tsp", family, n, density, 6)
                for n in range(3, 12) for density in (0.6, 0.8, 1.0))
    yield graph("tsp", family, 10, 1.0, 7, edges=path_edges(10))  # no tour
    yield graph("tsp", family, 10, 1.0, 8, edges=[(0, v) for v in range(1, 10)])  # a star
    # every path dies at level 6: 0 lies in a K6, the other 4 vertices apart
    yield graph("tsp", family, 10, 1.0, 9, edges=[
        (u, v) for u, v in combinations(range(10), 2) if (u < 6) == (v < 6)])
    # a K5 and a K4 joined by one edge: the paths cross it, and die at level 9
    yield graph("tsp", family, 9, 1.0, 10, edges=[
        (u, v) for u, v in combinations(range(9), 2) if (u < 5) == (v < 5)] + [(4, 5)])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tsp_matches_bigint_kernel(family):
    # n = 3..11 at densities 0.6-1.0, and graphs whose paths die before
    # the closing; n = 11 on 3dim's encoded spread is refused by both
    ran = []
    for inst in tsp_tail_cases(family):
        egap, enc = encoded(inst)
        stages = assert_same_tsp(inst, enc)
        if stages is not None:
            ran.append(inst.n)
            assert [s for s, _ in stages] == ["rows"] * (inst.n - 3) + ["total"], inst
    assert (11 in ran) != (family == "3dim")


@pytest.mark.parametrize("n, rows, total", [
    (9, ["uint8"] * 5 + ["uint16"], "uint16"),
    (10, ["uint8"] * 5 + ["uint16"] * 2, "uint32"),
])
def test_tsp_stages_and_dtypes(n, rows, total):
    # numpy rows of the smallest unsigned dtype holding (s-2)! at level s,
    # levels 3 .. n - 1 formed from level 2 on, and a total holding (n-1)!
    for family in ("G", "H"):
        inst = graph("tsp", family, n, 1.0, 11)
        egap, enc = encoded(inst)
        stages = assert_same_tsp(inst, enc)
        assert stages == ([("rows", np.dtype(r)) for r in rows]
                          + [("total", np.dtype(total))])
        assert factorial(n - 1) <= np.iinfo(total).max




@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_maxcut_matches_loop_reference(family, monkeypatch):
    # every case on both cores: the histogram wherever it fits, then the sort
    for inst in maxcut_cases(family):
        egap, enc = encoded(inst)
        expected = _numpy_maxcut(inst, enc)
        for sort_bins in (2**70, 0):
            monkeypatch.setattr(solvers, "_SORT_BINS", sort_bins)
            terms = maxcut_algebraic(inst, enc)
            assert as_dict(terms) == ref_maxcut_algebraic(inst, enc), inst
            assert_same_arrays(terms, expected)
            assert_same_optimum(terms, egap)


def maxcut_with_cores(inst, enc):
    """maxcut_algebraic's terms and the counting calls it made: "histogram"
    for each np.bincount block, "sort" for np.unique."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name, attr in (("histogram", "bincount"), ("sort", "unique")):
            def spy(*args, _name=name, _real=getattr(np, attr), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            patch.setattr(np, attr, spy)
        return maxcut_algebraic(inst, enc), calls


def test_maxcut_wide_cover_sorts_and_matches_loop_reference():
    # d=1 x=1 L=10^6: |G'| is about m * 10^6, thousands of bins per cut sum
    cover = Gap((1,), (10**6,))
    for n, density in ((6, 1.0), (10, 0.5), (14, 0.6)):
        rng = random.Random(f"wide-{n}")
        inst = ProblemInstance(kind="maxcut", n=n, gap=cover, edges=tuple(
            (u, v, rng.randint(0, 10**6)) for u, v in combinations(range(n), 2)
            if rng.random() < density))
        egap, enc = encoded(inst)
        terms, cores = maxcut_with_cores(inst, enc)
        assert cores == ["sort"]
        assert as_dict(terms) == ref_maxcut_algebraic(inst, enc)
        assert_same_arrays(terms, _numpy_maxcut(inst, enc))
        assert_same_optimum(terms, egap)


def test_maxcut_histogram_blocks_match_numpy_kernel():
    # n = 24: 2^7 part-1 rows against 2^8 x 2^8 assignments of parts 2 and
    # 3, so the 2^22-sum blocks take 64 rows each, in two blocks
    for family in ("G", "H"):
        inst = graph("maxcut", family, 24, 0.3, 5)
        egap, enc = encoded(inst)
        terms, cores = maxcut_with_cores(inst, enc)
        assert cores == ["histogram", "histogram"]
        assert_same_arrays(terms, _numpy_maxcut(inst, enc))
        assert_same_optimum(terms, egap)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ewclique_matches_loop_reference(family):
    for inst in ewclique_cases(family):
        egap, enc = encoded(inst)
        nodes, internal, hedges = build_auxiliary_graph(inst, enc)
        ref_nodes, ref_internal, ref_hedges = ref_build_auxiliary_graph(inst, enc, inst.k)
        assert nodes.shape == (len(ref_nodes), inst.k // 3), inst
        assert hedges.shape == (len(ref_hedges), 3), inst
        assert nodes.dtype == internal.dtype == hedges.dtype == np.int64
        assert list(map(tuple, nodes.tolist())) == ref_nodes, inst
        assert internal.tolist() == ref_internal, inst
        assert hedges.tolist() == [[i, j, w] for (i, j), w in ref_hedges.items()], inst
        terms = ewclique_algebraic(inst, enc)
        assert as_dict(terms) == ref_ewclique_algebraic(inst, enc, inst.k), inst
        assert_same_arrays(terms, _numpy_ewclique(inst, enc, inst.k))
        assert_same_optimum(terms, egap)


@pytest.mark.parametrize("family", ["G", "H", "3dim"])
def test_ewclique_edge_blocks_match_numpy_kernel(family):
    # k = 6 on 30 vertices: N = 391 nodes, 7 words per H-row, so a block
    # holds 4681 edges, and H has more kept edges than that
    inst = graph("ewclique", family, 30, 0.9, 9, k=6)
    egap, enc = encoded(inst)
    nodes, _, hedges = build_auxiliary_graph(inst, enc)
    kept = (nodes[hedges[:, 0], -1] < nodes[hedges[:, 1], 0]).sum()
    assert kept > 2 * ((1 << 15) // -(-len(nodes) // 64))
    terms = ewclique_algebraic(inst, enc)
    assert_same_arrays(terms, _numpy_ewclique(inst, enc, 6))
    assert_same_optimum(terms, egap)


def steiner_case(family, n, density, seed, terminals, edges=None, zero=False):
    """Seeded steiner instance; `terminals` is a count or the terminals."""
    rng = random.Random(f"steiner-{family}-{n}-{density}-{seed}")
    if edges is None:
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
    edges = tuple((u, v, 0 if zero and rng.random() < 0.5 else draw_weight(rng, family))
                  for u, v in edges)
    if isinstance(terminals, int):
        terminals = rng.sample(range(n), terminals)
    return ProblemInstance(kind="steiner", n=n, edges=edges, terminals=tuple(terminals),
                           gap=FAMILIES[family])


def steiner_cases(family):
    zero = family != "T63"  # 0 is no point of T63, whose weights all have l_1 = 1
    yield steiner_case(family, 2, 1.0, 0, 2)
    for t in range(2, 9):
        yield steiner_case(family, t + 4, 0.5, t, t)
    yield steiner_case(family, 12, 0.3, 1, 5)
    yield steiner_case(family, 9, 0.6, 2, 4, zero=zero)
    yield steiner_case(family, 7, 1.0, 3, 4, edges=path_edges(7), zero=zero)
    # two components: terminals in one of them, then across both
    halves = [(u, v) for u, v in combinations(range(8), 2) if (u < 4) == (v < 4)]
    yield steiner_case(family, 8, 1.0, 4, (0, 2, 3), edges=halves)
    yield steiner_case(family, 8, 1.0, 5, (0, 2, 5), edges=halves)
    yield steiner_case(family, 5, 1.0, 6, (0, 4), edges=[])
    # one 8-vertex component among 32 isolated vertices, then a terminal outside it
    block = list(combinations(range(8, 16), 2))
    yield steiner_case(family, 40, 1.0, 8, (9, 12, 15), edges=block)
    yield steiner_case(family, 40, 1.0, 9, (9, 12, 30), edges=block)
    # sparse: a path labelled in its order, with and without a few chords
    yield steiner_case(family, 30, 1.0, 10, 4, edges=path_edges(30))
    chords = [(0, 17), (4, 25), (9, 12)]
    yield steiner_case(family, 30, 1.0, 11, 5, edges=path_edges(30) + chords)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_steiner_matches_loop_reference(family):
    disconnected = 0
    for inst in steiner_cases(family):
        egap, enc = encoded(inst)
        tv = partial(true_value, egap)
        try:
            expected = ref_steiner(inst, enc, tv)
        except Disconnected as err:
            with pytest.raises(Disconnected, match=re.escape(str(err))):
                steiner_algebraic(inst, enc, egap)
            disconnected += 1
        else:
            assert as_dict(steiner_algebraic(inst, enc, egap)) == expected, inst
    assert disconnected >= 3


@pytest.mark.parametrize("terminals", [(3, 3), (1, 4, 1, 4, 1)])
def test_steiner_duplicate_terminals_collapse(terminals):
    for family in sorted(FAMILIES):
        inst = steiner_case(family, 6, 1.0, 7, terminals)
        egap, enc = encoded(inst)
        tv = partial(true_value, egap)
        assert as_dict(steiner_algebraic(inst, enc, egap)) == ref_steiner(inst, enc, tv)
        if len(set(terminals)) == 1:
            assert as_dict(steiner_algebraic(inst, enc, egap)) == {0: 1}


def test_steiner_matches_bruteforce_on_2_200_generators():
    checked = 0
    for seed in range(12):
        inst = steiner_case("B200", 8, 0.5, seed, 3 + seed % 4)
        egap, enc = encoded(inst)
        try:
            optimum = steiner_bf(inst).optimum
        except Disconnected:
            with pytest.raises(Disconnected):
                steiner_algebraic(inst, enc, egap)
            continue
        [(e, count)] = as_dict(steiner_algebraic(inst, enc, egap)).items()
        assert (true_value(egap, e), count) == (optimum, 1)
        checked += 1
    assert checked >= 6


@pytest.mark.parametrize("family", ["3dim-T63", "3dim-B200"])
def test_steiner_limb_keys_match_bruteforce(family, monkeypatch):
    limbs = spy_limbs(monkeypatch)
    checked = 0
    for seed in range(8):
        inst = steiner_case(family, 8, 0.5, seed, 3 + seed % 4)
        egap, enc = encoded(inst)
        try:
            optimum = steiner_bf(inst).optimum
        except Disconnected:
            continue
        [(e, count)] = as_dict(steiner_algebraic(inst, enc, egap)).items()
        assert (true_value(egap, e), count) == (optimum, 1)
        checked += 1
    assert checked >= 4 and min(limbs) >= 2


@pytest.mark.parametrize("family", ["3dim-T63", "3dim-B200"])
def test_minplus_object_order_keys_match_naive(family):
    # no generator outweighs the rest, so the order weights are the
    # generators and min-plus ranks its sums by Python-int order keys
    rng = random.Random(f"minplus-{family}")
    seq = tuple(draw_weight(rng, family) for _ in range(24))
    inst = ProblemInstance(kind="minplusconv", sequence=seq, gap=FAMILIES[family])
    assert order_keys(enlarge(inst.gap, 2), [0]).dtype == object
    assert run_meta(inst).stats["sequence"] == minplus_naive(list(seq))


def test_select_optimum_matches_loop_reference_on_ties():
    # the non-proper GAP: many exponents share a true value
    rng = random.Random(7)
    egap = enlarge(Gap((2, 3), (6, 4)), 3)
    for size in (1, 2, 5, 40, 200):
        terms = {e: rng.randint(1, 5)
                 for e in rng.sample(range(egap.volume), size)}
        exps = sorted(terms)
        assert_same_optimum((np.array(exps), np.array([terms[e] for e in exps])), egap)
