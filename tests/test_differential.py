"""Differential tests: the int64 solver cores against the loop solvers they replaced.

The ref_* functions are the dict-loop Held-Karp, split-and-list max-cut,
auxiliary graph and triangle loop, and the per-term optimum selection,
kept here verbatim (renamed) as references.  Every instance is seeded, and
the solvers must return the same {exponent: count} dicts and pick the same
optimum under both senses, on covers of ordinary size, with 2^63-scale
generators, with a 2^63 translation, in three dimensions, and on the
non-proper GAP ((2, 3), (6, 4)), whose values have several encodings.
"""

import random
from itertools import combinations
from math import comb

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
    select_optimum,
    true_value,
    tsp_algebraic,
)
from gapsolve.errors import EmptyPolynomial, InvariantViolated, KNotDivisibleBy3


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


def ref_select_optimum(terms, g, sense):
    """(exponent, true value, count) of the optimal term of `terms`.

    Each exponent is decoded once.  Comparison is by (true value, encoding),
    the order `encoding.value_rank` counts positions in; ties break toward
    the smaller encoding under either sense.  Distinct exponents can share
    a true value, so `count` sums the coefficients of every exponent on the
    optimal value.  Raises EmptyPolynomial for an empty map (infeasible
    instance).
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if not terms:
        raise EmptyPolynomial("no feasible solution")
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


T63 = 2**63
# (cover, coordinate draw) per family; every weight is a point of its cover
FAMILIES = {
    "G": Gap((10**12, 7), (1, 30)),
    "H": Gap((T63 + 29, 2**61 + 3), (3, 12)),
    "T63": Gap((T63, 3**30, 5**11), (1, 5, 5)),  # every weight has l_1 = 1
    "3dim": Gap((10**9 + 7, 1000003, 13), (8, 8, 8)),
    "nonproper": Gap((2, 3), (6, 4)),
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
            expected = ref_select_optimum(terms, egap, sense)
        except EmptyPolynomial:
            with pytest.raises(EmptyPolynomial):
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


def ewclique_cases(family):
    yield graph("ewclique", family, 2, 1.0, 0, k=3)
    yield graph("ewclique", family, 8, 0.8, 1, k=3)
    yield graph("ewclique", family, 8, 0.9, 2, k=6)
    yield graph("ewclique", family, 9, 0.95, 6, k=6)
    yield graph("ewclique", family, 10, 1.0, 3, k=9)
    yield graph("ewclique", family, 6, 1.0, 4, k=6, edges=path_edges(6))  # no clique
    yield graph("ewclique", family, 5, 1.0, 5, k=3, edges=[])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tsp_matches_loop_reference(family):
    for inst in tsp_cases(family):
        egap, enc = encoded(inst)
        terms = tsp_algebraic(inst, enc)
        assert terms == ref_tsp_algebraic(inst, enc), inst
        assert_same_optimum(terms, egap)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_maxcut_matches_loop_reference(family):
    for inst in maxcut_cases(family):
        egap, enc = encoded(inst)
        terms = maxcut_algebraic(inst, enc)
        assert terms == ref_maxcut_algebraic(inst, enc), inst
        assert_same_optimum(terms, egap)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ewclique_matches_loop_reference(family):
    for inst in ewclique_cases(family):
        egap, enc = encoded(inst)
        aux = build_auxiliary_graph(inst, enc, inst.k)
        assert aux == ref_build_auxiliary_graph(inst, enc, inst.k), inst
        terms = ewclique_algebraic(inst, enc, inst.k)
        assert terms == ref_ewclique_algebraic(inst, enc, inst.k), inst
        assert_same_optimum(terms, egap)


def test_select_optimum_matches_loop_reference_on_ties():
    # the non-proper GAP: many exponents share a true value
    rng = random.Random(7)
    egap = enlarge(Gap((2, 3), (6, 4)), 3)
    for size in (1, 2, 5, 40, 200):
        terms = {e: rng.randint(1, 5)
                 for e in rng.sample(range(egap.range_bound), size)}
        assert_same_optimum(terms, egap)
