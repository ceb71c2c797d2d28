"""End-to-end acceptance checks for the whole pipeline.

Each test covers one headline property of the package and prints a single
PASS/FAIL line (run with `pytest -s` to see them).  Everything here is
checked exactly; the only timing numbers that are not hard gates are
explicitly marked informational.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import prod

from gapsolve.additive import Gap, WeightSet, sumset, doubling_constant
from gapsolve.encoding import (
    enlarge,
    kappa,
    kappa_inv,
    true_value,
)
from gapsolve.instances import generate_instance
from gapsolve.meta import run_meta
from gapsolve.oracle import (
    tsp_bf,
    maxcut_bf,
    clique_bf,
    steiner_bf,
    minplus_naive,
)
from gapsolve.solvers import (
    ProblemInstance,
    build_auxiliary_graph,
    minplus_selfconv_min,
)
from test_encoding import build_permutation


def _line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}", flush=True)
    assert ok, f"{name}{suffix}"


def _random_gap(rng, max_dim=5, max_bound=8, max_gen=2**63 - 1):
    d = rng.randint(1, max_dim)
    gens = tuple(rng.randint(1, max_gen) for _ in range(d))
    bounds = tuple(rng.randint(1, max_bound) for _ in range(d))
    return Gap(gens, bounds)


def _corpus(seed, count):
    """Random (gap, lambda, sample tuples) triples shared by two tests."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = _random_gap(rng)
        lam = rng.randint(2, 4)
        egap = enlarge(g, lam)
        tuples = [tuple(rng.randint(0, b) for b in g.bounds) for _ in range(8)]
        out.append((g, lam, egap, tuples))
    return out


def test_encoding_algebra():
    t0 = time.perf_counter()
    checked = 0
    branch_first = branch_later = 0
    for g, lam, egap, tuples in _corpus(11, 1000):
        top = tuple(egap.enlarged_bounds)
        assert kappa(egap, top) == egap.range_bound - 1
        seen = {}
        for s in tuples:
            e = kappa(egap, s)
            assert 0 <= e < egap.range_bound
            if s in seen:
                continue
            seen[s] = e
        # injectivity on the sample
        assert len(set(seen.values())) == len(seen)
        for s, t in zip(tuples, tuples[1:]):
            # sums of two in-bounds tuples stay inside the enlarged box
            u = tuple(a + b for a, b in zip(s, t))
            assert kappa(egap, u) == kappa(egap, s) + kappa(egap, t)
            # encoding order is exactly lexicographic tuple order
            assert (s < t) == (kappa(egap, s) < kappa(egap, t))
            if s != t:
                i = next(j for j in range(len(s)) if s[j] != t[j])
                if i == 0:
                    branch_first += 1
                else:
                    branch_later += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = branch_first > 0 and branch_later > 0 and elapsed < 10.0
    _line("encoding algebra", ok,
          f"1000 gaps, {checked} pairs, first/later branches "
          f"{branch_first}/{branch_later}, {elapsed:.2f}s")


def test_encoding_roundtrip():
    checked = 0
    for g, lam, egap, tuples in _corpus(11, 1000):
        for s in tuples:
            e = kappa(egap, s)
            assert tuple(kappa_inv(egap, e).coords) == s
            assert true_value(egap, e) == sum(
                x * l for x, l in zip(g.generators, s))
            checked += 1
    _line("encoding roundtrip", True, f"{checked} tuples")


def test_rank_table_agreement():
    rng = random.Random(23)
    built = 0
    while built < 30:
        g = _random_gap(rng, max_dim=3, max_bound=6, max_gen=10**9)
        lam = rng.randint(2, 3)
        egap = enlarge(g, lam)
        if egap.range_bound > 10**5:
            continue
        table = build_permutation(egap)
        expected = sorted(
            ((e, true_value(egap, e)) for e in range(egap.range_bound)),
            key=lambda p: (p[1], p[0]))
        assert list(table.sorted_entries) == expected
        for i, (e, _) in enumerate(expected):
            assert table.rank(e) == i
        built += 1
    _line("rank table agreement", True, "30 gaps, range <= 10^5")


def _instance_gap(rng, lam_cap):
    """Random gap of dimension <= 3 with generators up to 10**12, small
    enough that the lambda-enlarged range stays workable."""
    d = rng.randint(1, 3)
    gens = tuple(rng.randint(1, 10**12) for _ in range(d))
    bounds = tuple(rng.randint(1, 4 if d == 1 else 2) for _ in range(d))
    g = Gap(gens, bounds)
    if prod(lam_cap * b + 1 for b in bounds) > 3 * 10**5:
        return _instance_gap(rng, lam_cap)
    return g


def test_solver_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(37)
    counts = {}
    plans = [
        ("tsp", 100, lambda: dict(n=rng.randint(4, 9))),
        ("maxcut", 100, lambda: dict(n=rng.randint(4, 12), density=0.8)),
        ("ewclique", 50, lambda: dict(n=rng.randint(4, 15), k=3,
                                      density=0.9)),
        ("ewclique", 50, lambda: dict(n=rng.randint(7, 12), k=6,
                                      density=1.0)),
        ("steiner", 100, lambda: dict(n=rng.randint(4, 10),
                                      n_terminals=rng.randint(2, 4),
                                      density=0.6)),
    ]
    for kind, total, params in plans:
        done = 0
        while done < total:
            kw = params()
            lam_cap = {"tsp": kw["n"], "maxcut": kw["n"] * (kw["n"] - 1) // 2,
                       "ewclique": kw.get("k", 3) * (kw.get("k", 3) - 1),
                       "steiner": kw["n"] - 1}[kind]
            gap = _instance_gap(rng, lam_cap)
            inst = generate_instance(kind, gap=gap,
                                        seed=rng.randrange(2**31), **kw)
            if kind == "ewclique":
                oracle = clique_bf(inst, inst.k)
            else:
                oracle = {"tsp": tsp_bf, "maxcut": maxcut_bf,
                          "steiner": steiner_bf}[kind](inst)
            res = run_meta(inst)
            assert res.optimum == oracle.optimum, (kind, kw)
            if kind != "steiner":  # steiner DP keeps one tree, no counts
                assert res.stats["optimal_count"] == oracle.count, (kind, kw)
            done += 1
        counts[f"{kind}{kw.get('k', '')}" if kind == "ewclique" else kind] = \
            counts.get(kind, 0) + total
    elapsed = time.perf_counter() - t0
    _line("solver/oracle equivalence", elapsed < 300.0,
          f"400 instances over 4 families, {elapsed:.1f}s")


def test_auxiliary_graph_identities():
    rng = random.Random(41)
    k, kk = 6, 2
    triangles = 0
    for _ in range(50):
        n = rng.randint(6, 11)
        gap = _instance_gap(rng, k * (k - 1))
        inst = generate_instance("ewclique", n=n, k=k, density=1.0,
                                    gap=gap, seed=rng.randrange(2**31))
        egap = enlarge(gap, k * (k - 1))
        from gapsolve.additive import get_gap_coordinates
        weights = inst.weights
        coords = get_gap_coordinates(weights, gap)
        enc = {w: kappa(egap, c) for w, c in zip(weights, coords)}
        w_enc = max(enc.values())
        ew = {}
        for u, v, w in inst.edges:
            ew[frozenset((u, v))] = enc[w]
        nodes, internal, hedges = build_auxiliary_graph(inst, enc, k)
        hw = {(i, j): w for i, j, w in hedges.tolist()}
        for w in hw.values():
            assert w <= (3 * kk * kk - kk) * w_enc
        for i, j, l in combinations(range(len(nodes)), 3):
            if not ((i, j) in hw and (i, l) in hw and (j, l) in hw):
                continue
            union = nodes[[i, j, l]].ravel().tolist()
            w_clique = sum(ew[frozenset(p)] for p in combinations(union, 2))
            assert hw[(i, j)] + hw[(i, l)] + hw[(j, l)] == 2 * w_clique
            triangles += 1
    _line("auxiliary graph identities", triangles > 0,
          f"50 graphs, {triangles} triangles")


def test_encoded_range_bounds():
    # run_meta asserts the size chain in-run; re-derive it here from the
    # reported stats for a handful of fresh runs across all kinds
    rng = random.Random(53)
    runs = 0
    for kind, kw in [("tsp", dict(n=6)), ("maxcut", dict(n=8, density=0.8)),
                     ("ewclique", dict(n=8, k=3, density=0.9)),
                     ("steiner", dict(n=7, n_terminals=3, density=0.7)),
                     ("minplusconv", dict(n=40))]:
        for _ in range(4):
            lam_cap = 40 if kind == "minplusconv" else 30
            gap = _instance_gap(rng, 2 if kind == "minplusconv" else lam_cap)
            inst = generate_instance(kind, gap=gap,
                                        seed=rng.randrange(2**31), **kw)
            res = run_meta(inst)
            g, lam = res.gap_used, res.lam
            bound = res.stats["encoded_range_bound"]
            assert bound == prod(lam * b + 1 for b in g.bounds)
            assert bound <= lam ** g.dim * prod(b + 1 for b in g.bounds)
            assert 0 <= res.encoded_optimum < bound
            runs += 1
    _line("encoded range bounds", True, f"{runs} runs, asserted in-run")


def test_doubling_examples():
    assert doubling_constant(WeightSet.of([2, 4, 6, 8])) == Fraction(7, 4)
    assert doubling_constant(WeightSet.of([3, 5, 9, 17])) == Fraction(10, 4)
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(2, 1000)
        base = rng.randint(0, 10**9)
        step = rng.randint(1, 10**6)
        a = WeightSet.of([base + step * i for i in range(n)])
        assert len(sumset(a, a)) == 2 * n - 1
    _line("doubling analytics", True,
          "C({2,4,6,8})=7/4, C({3,5,9,17})=5/2, 20 random APs")


def test_minplus_matches_naive():
    rng = random.Random(71)
    for i in range(200):
        n = rng.randint(2, 512 if i < 190 else 2048)
        step = rng.randint(1, 20)
        span = rng.randint(1, 40)
        seq = [step * rng.randrange(span + 1) for _ in range(n)]
        bound = max(seq) + 1
        assert minplus_selfconv_min(seq, bound) == minplus_naive(seq)

    # informational timing probe: bounded-value path vs naive at n = 4096
    n, bound = 4096, 256
    seq = [rng.randrange(bound) for _ in range(n)]
    t0 = time.perf_counter()
    fast = minplus_selfconv_min(seq, bound)
    t1 = time.perf_counter()
    naive = minplus_naive(seq)
    t2 = time.perf_counter()
    assert fast == naive
    ratio = (t2 - t1) / (t1 - t0)
    _line("min-plus self-convolution", True,
          f"200 sequences exact; n=4096 speedup {ratio:.1f}x, "
          f"informational target >= 5x")


def test_cover_independent_optimum():
    rng = random.Random(83)
    import dataclasses

    agreed = 0
    for i in range(20):
        g = rng.randint(1, 10**9)
        ll = 2 * rng.randint(2, 6)
        cover_a = Gap((g,), (ll,))
        cover_b = Gap((2 * g, g), (ll // 2, 1))
        kind = "maxcut" if i % 2 == 0 else "steiner"
        kw = dict(n=7, density=0.8) if kind == "maxcut" else \
            dict(n=7, n_terminals=3, density=0.7)
        inst = generate_instance(kind, gap=cover_a,
                                    seed=rng.randrange(2**31), **kw)
        alt = dataclasses.replace(inst, gap=cover_b)
        ra = run_meta(inst)
        rb = run_meta(alt)
        assert ra.optimum == rb.optimum
        assert ra.stats["optimal_count"] == rb.stats["optimal_count"]
        agreed += 1
    _line("cover-independent optimum", agreed == 20,
          "20 weight sets, two covers each")
