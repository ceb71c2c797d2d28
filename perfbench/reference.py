"""Expected answers for benchmark cases, never from the solver under test.

`gapsolve.oracle` is used where its enumeration is small.  Above that, the
oracles refuse the size or would take seconds per case, so this module
carries plain scalar references over the original weights: Held-Karp for
TSP, a Gray-code scan for max-cut and Dreyfus-Wagner for Steiner trees.
Answers are cached per case key in a JSON file, so a repeated seed skips
the work and a new seed is still checked.
"""

import hashlib
import json
from itertools import combinations

TSP_ORACLE_MAX_N = 9
MAXCUT_ORACLE_MAX_N = 14
STEINER_ORACLE_MAX_N = 10


def case_digest(case):
    return hashlib.sha256(repr(case.key()).encode()).hexdigest()


def _adjacency(n, edges):
    adj = [dict() for _ in range(n)]
    for u, v, w in edges:
        adj[u][v] = w
        adj[v][u] = w
    return adj


def tsp_held_karp(n, edges):
    """(minimum tour weight, number of optimal undirected tours)."""
    adj = _adjacency(n, edges)
    # best[(mask, v)] = (weight, count) of paths 0 -> v visiting mask
    best = {(1 | 1 << v, v): (w, 1) for v, w in adj[0].items()}
    for mask in range(3, 1 << n, 2):
        for v in range(1, n):
            cell = best.get((mask, v))
            if cell is None:
                continue
            w0, c0 = cell
            for u, w in adj[v].items():
                if mask >> u & 1:
                    continue
                key = (mask | 1 << u, u)
                cand = w0 + w
                old = best.get(key)
                if old is None or cand < old[0]:
                    best[key] = (cand, c0)
                elif cand == old[0]:
                    best[key] = (cand, old[1] + c0)
    full = (1 << n) - 1
    opt, count = None, 0
    for v in range(1, n):
        cell = best.get((full, v))
        if cell is None or 0 not in adj[v]:
            continue
        total = cell[0] + adj[v][0]
        if opt is None or total < opt:
            opt, count = total, cell[1]
        elif total == opt:
            count += cell[1]
    # every undirected tour was counted once per orientation
    return opt, count // 2


def maxcut_gray(n, edges):
    """(maximum cut weight, number of optimal bipartitions), vertex 0 pinned."""
    adj = [list(d.items()) for d in _adjacency(n, edges)]
    side = [0] * n
    cut, opt, count = 0, 0, 1
    for i in range(1, 1 << (n - 1)):
        v = (i & -i).bit_length()  # Gray code flips vertex 1 + trailing zeros
        s = side[v]
        for u, w in adj[v]:
            cut += w if side[u] == s else -w
        side[v] = 1 - s
        if cut > opt:
            opt, count = cut, 1
        elif cut == opt:
            count += 1
    return opt, count


def steiner_dreyfus_wagner(n, edges, terminals):
    """Minimum Steiner tree weight over Floyd-Warshall distances."""
    dist = [[None] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v, w in edges:
        if dist[u][v] is None or w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for m in range(n):
        dm = dist[m]
        for a in range(n):
            dam = dist[a][m]
            if dam is None:
                continue
            da = dist[a]
            for b in range(n):
                if dm[b] is not None and (da[b] is None or dam + dm[b] < da[b]):
                    da[b] = dam + dm[b]
    terms = sorted(set(terminals))
    root, rest = terms[0], terms[1:]
    k = len(rest)
    # tree[S][v]: lightest tree spanning {rest[i] : i in S} and vertex v
    tree = [None] * (1 << k)
    for i, t in enumerate(rest):
        tree[1 << i] = list(dist[t])
    for S in range(1, 1 << k):
        if S & (S - 1) == 0:
            continue
        merged = [None] * n
        T = (S - 1) & S
        while T:
            if T < S ^ T:
                a, b = tree[T], tree[S ^ T]
                for v in range(n):
                    if a[v] is not None and b[v] is not None:
                        c = a[v] + b[v]
                        if merged[v] is None or c < merged[v]:
                            merged[v] = c
            T = (T - 1) & S
        row = list(merged)
        for u in range(n):
            if merged[u] is None:
                continue
            du = dist[u]
            for v in range(n):
                if du[v] is not None and (row[v] is None or merged[u] + du[v] < row[v]):
                    row[v] = merged[u] + du[v]
        tree[S] = row
    return tree[(1 << k) - 1][root]


def expected(case, oracle):
    """{"optimum", "count", "sequence"} for one case; count None where undefined."""
    from gapsolve.solvers import ProblemInstance

    kind = case.kind
    if kind == "minplusconv":
        seq = oracle.minplus_naive(list(case.sequence))
        return {"optimum": min(seq), "count": None, "sequence": seq}
    inst = ProblemInstance(kind=kind, n=case.n, edges=case.edges, k=case.k,
                           terminals=case.terminals)
    if kind == "tsp":
        if case.n <= TSP_ORACLE_MAX_N:
            r = oracle.tsp_bf(inst)
            opt, count = r.optimum, r.count
        else:
            opt, count = tsp_held_karp(case.n, case.edges)
    elif kind == "maxcut":
        if case.n <= MAXCUT_ORACLE_MAX_N:
            r = oracle.maxcut_bf(inst)
            opt, count = r.optimum, r.count
        else:
            opt, count = maxcut_gray(case.n, case.edges)
    elif kind == "ewclique":
        r = oracle.clique_bf(inst, case.k)
        opt, count = r.optimum, r.count
    else:
        if case.n <= STEINER_ORACLE_MAX_N:
            opt = oracle.steiner_bf(inst).optimum
        else:
            opt = steiner_dreyfus_wagner(case.n, case.edges, case.terminals)
        count = None  # the Steiner solver keeps one tree, so counts are undefined
    return {"optimum": opt, "count": count, "sequence": None}


class ReferenceCache:
    """Expected answers keyed by case digest, persisted as one JSON file."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.table = json.load(fh)
        except (OSError, ValueError):
            self.table = {}
        self.dirty = False

    def get(self, case, oracle):
        d = case_digest(case)
        if d not in self.table:
            self.table[d] = expected(case, oracle)
            self.dirty = True
        return self.table[d]

    def save(self):
        if not self.dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.table, fh)
        tmp.replace(self.path)
