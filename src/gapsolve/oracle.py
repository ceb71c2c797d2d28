"""Brute-force reference solvers, independent of the algebraic code paths.

These enumerate solution spaces directly over the original weights and are
the ground truth for every cross-check.  Counts use the same normalization
as the algebraic solvers: one per undirected tour, one per bipartition,
one per k-clique.
"""

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

from .errors import Disconnected, InfeasibleInstance, TooLarge


@dataclass(frozen=True)
class OracleResult:
    optimum: int
    count: int


def _weight_lookup(inst):
    w = {}
    for u, v, x in inst.edges:
        w[(u, v)] = x
        w[(v, u)] = x
    return w


def tsp_bf(inst):
    """Enumerate all (n-1)!/2 undirected tours."""
    n = inst.n
    if n > 10:
        raise TooLarge(f"n = {n} > 10")
    if n < 3:
        raise InfeasibleInstance("no tour on fewer than 3 vertices")
    w = _weight_lookup(inst)
    best, count = None, 0
    for perm in permutations(range(1, n)):
        if perm[0] > perm[-1]:  # one orientation per tour
            continue
        cycle = (0,) + perm + (0,)
        total = 0
        ok = True
        for a, b in zip(cycle, cycle[1:]):
            if (a, b) not in w:
                ok = False
                break
            total += w[(a, b)]
        if not ok:
            continue
        if best is None or total < best:
            best, count = total, 1
        elif total == best:
            count += 1
    if best is None:
        raise InfeasibleInstance("graph has no Hamiltonian cycle")
    return OracleResult(best, count)


def maxcut_bf(inst):
    """Scan all 2^(n-1) bipartitions (vertex 0 pinned outside S)."""
    n = inst.n
    if n > 20:
        raise TooLarge(f"n = {n} > 20")
    if n == 0:
        return OracleResult(0, 1)
    best, count = None, 0
    for mask in range(0, 1 << n, 2):  # bit 0 always clear
        total = 0
        for u, v, w in inst.edges:
            if (mask >> u & 1) != (mask >> v & 1):
                total += w
        if best is None or total > best:
            best, count = total, 1
        elif total == best:
            count += 1
    return OracleResult(best, count)


def clique_bf(inst, k):
    """Scan all k-subsets, maximize clique weight."""
    if comb(inst.n, k) > 10**7:
        raise TooLarge(f"C({inst.n}, {k}) too large")
    w = _weight_lookup(inst)
    best, count = None, 0
    for combo in combinations(range(inst.n), k):
        total = 0
        ok = True
        for a, b in combinations(combo, 2):
            if (a, b) not in w:
                ok = False
                break
            total += w[(a, b)]
        if not ok:
            continue
        if best is None or total > best:
            best, count = total, 1
        elif total == best:
            count += 1
    if best is None:
        raise InfeasibleInstance(f"no {k}-clique")
    return OracleResult(best, count)


def _mst_weight(vertices, edges):
    """Prim over an induced vertex set; None when disconnected."""
    verts = set(vertices)
    adj = {v: [] for v in verts}
    for u, v, w in edges:
        if u in verts and v in verts:
            adj[u].append((w, v))
            adj[v].append((w, u))
    start = next(iter(verts))
    seen = {start}
    import heapq

    heap = list(adj[start])
    heapq.heapify(heap)
    total = 0
    while heap and len(seen) < len(verts):
        w, v = heapq.heappop(heap)
        if v in seen:
            continue
        seen.add(v)
        total += w
        for item in adj[v]:
            heapq.heappush(heap, item)
    return total if len(seen) == len(verts) else None


def steiner_bf(inst):
    """Minimum over all vertex supersets of the terminals of their MST."""
    n = inst.n
    if n > 12:
        raise TooLarge(f"n = {n} > 12")
    K = set(inst.terminals)
    others = [v for v in range(n) if v not in K]
    best, count = None, 0
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            w = _mst_weight(K | set(extra), inst.edges)
            if w is None:
                continue
            if best is None or w < best:
                best, count = w, 1
            elif w == best:
                count += 1
    if best is None:
        raise Disconnected("terminals span components")
    return OracleResult(best, count)


def minplus_naive(seq):
    """Direct double loop: c[k] = min over i+j = k of seq[i] + seq[j]."""
    n = len(seq)
    if n > 2**14:
        raise TooLarge(f"n = {n} > 2^14")
    out = []
    for k in range(2 * n - 1):
        best = None
        for i in range(max(0, k - n + 1), min(k, n - 1) + 1):
            s = seq[i] + seq[k - i]
            if best is None or s < best:
                best = s
        out.append(best)
    return out
