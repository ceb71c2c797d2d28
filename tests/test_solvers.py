import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest

from gapsolve import (
    Gap,
    ProblemInstance,
    SOLVER_SPECS,
    build_auxiliary_graph,
    enlarge,
    ewclique_algebraic,
    kappa_inv,
    maxcut_algebraic,
    minplus_selfconv_min,
    run_meta,
    select_optimum,
    steiner_algebraic,
    true_value,
    tsp_algebraic,
)
from gapsolve.errors import BoundExceeded, Disconnected, KNotDivisibleBy3
from gapsolve.instances import generate_instance
import gapsolve.solvers as solvers
from gapsolve.solvers import _selfconv_support
from gapsolve.oracle import (
    clique_bf,
    maxcut_bf,
    minplus_naive,
    steiner_bf,
    tsp_bf,
)


def identity_enc(inst):
    """Identity encoding over the trivial one-dimensional unit GAP."""
    w = max(inst.weights.elements)
    spec = SOLVER_SPECS[inst.kind]
    egap = enlarge(Gap((1,), (max(w, 1),)), spec.lambda_bound(inst))
    return egap, {v: v for v in inst.weights}


def complete_graph(n, weights):
    edges = []
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            edges.append((u, v, weights[i % len(weights)]))
            i += 1
    return tuple(edges)


def random_instance(kind, n, rng, weight_pool, **kw):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if kind == "tsp" or rng.random() < kw.get("density", 1.0):
                edges.append((u, v, rng.choice(weight_pool)))
    terminals = tuple(sorted(rng.sample(range(n), kw["t"]))) if kind == "steiner" else ()
    return ProblemInstance(kind=kind, n=n, edges=tuple(edges),
                           k=kw.get("k", 0), terminals=terminals)


def as_dict(terms):
    """A solver's (exps, counts) pair as {exponent: count}, after checking
    that both are int64 arrays of one length and exps strictly ascend."""
    exps, counts = terms
    assert exps.dtype == counts.dtype == np.int64
    assert exps.shape == counts.shape and (np.diff(exps) > 0).all()
    return dict(zip(exps.tolist(), counts.tolist()))


def assert_exponents_bounded(terms, egap):
    lam_bounds = egap.bounds
    for e in as_dict(terms):
        coords = kappa_inv(egap, e)
        assert all(l <= b for l, b in zip(coords, lam_bounds))


# --- TSP ---------------------------------------------------------------


def test_tsp_k4_unit_weights():
    inst = ProblemInstance(kind="tsp", n=4, edges=complete_graph(4, [1]))
    egap, enc = identity_enc(inst)
    assert as_dict(tsp_algebraic(inst, enc)) == {4: 3}  # three undirected tours, each of weight 4


def test_tsp_triangle_unique_tour():
    inst = ProblemInstance(kind="tsp", n=3,
                           edges=((0, 1, 3), (1, 2, 5), (0, 2, 9)))
    egap, enc = identity_enc(inst)
    assert as_dict(tsp_algebraic(inst, enc)) == {17: 1}


def test_tsp_no_tour():
    # path graph has no Hamiltonian cycle
    inst = ProblemInstance(kind="tsp", n=4,
                           edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)))
    egap, enc = identity_enc(inst)
    assert as_dict(tsp_algebraic(inst, enc)) == {}


def test_tsp_fullest_slots_on_complete_graphs():
    # one weight: every tour lands in one slot, which holds (n-1)! directed
    # tours, the largest count a slot of bitlen((n-1)!) bits, rounded up to
    # whole bytes, must hold
    for n in range(3, 12):
        inst = ProblemInstance(kind="tsp", n=n, edges=complete_graph(n, [7]))
        assert as_dict(tsp_algebraic(inst, {7: 5})) == {n * 5: factorial(n - 1) // 2}


def test_tsp_matches_bruteforce_random():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 8)
        inst = random_instance("tsp", n, rng, [1, 4, 7, 10, 13])
        egap, enc = identity_enc(inst)
        terms = tsp_algebraic(inst, enc)
        ref = tsp_bf(inst)
        _, value, count = select_optimum(terms, egap, "min")
        assert (value, count) == (ref.optimum, ref.count)
        assert_exponents_bounded(terms, egap)


# --- Max-Cut -----------------------------------------------------------


def test_maxcut_single_edge():
    inst = ProblemInstance(kind="maxcut", n=2, edges=((0, 1, 9),))
    egap, enc = identity_enc(inst)
    assert as_dict(maxcut_algebraic(inst, enc)) == {0: 1, 9: 1}


def test_maxcut_triangle():
    inst = ProblemInstance(kind="maxcut", n=3,
                           edges=((0, 1, 1), (1, 2, 2), (0, 2, 3)))
    egap, enc = identity_enc(inst)
    best, value, _ = select_optimum(maxcut_algebraic(inst, enc), egap, "max")
    assert true_value(egap, best) == value == 5


def test_maxcut_empty_graph():
    inst = ProblemInstance(kind="maxcut", n=0)
    assert as_dict(maxcut_algebraic(inst, {})) == {0: 1}


def test_maxcut_matches_bruteforce_random():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 10)
        inst = random_instance("maxcut", n, rng, [2, 3, 5, 8], density=0.7)
        egap, enc = identity_enc(inst) if inst.edges else (None, {})
        if not inst.edges:
            continue
        terms = maxcut_algebraic(inst, enc)
        ref = maxcut_bf(inst)
        _, value, count = select_optimum(terms, egap, "max")
        assert (value, count) == (ref.optimum, ref.count)
        assert sum(as_dict(terms).values()) == 2 ** (n - 1)  # one term per bipartition
        assert_exponents_bounded(terms, egap)


# --- Edge-weighted k-clique --------------------------------------------


def test_clique_k3_triangle_weight_doubling():
    inst = ProblemInstance(kind="ewclique", n=3, k=3,
                           edges=((0, 1, 1), (1, 2, 2), (0, 2, 3)))
    egap, enc = identity_enc(inst)
    nodes, internal, hedges = build_auxiliary_graph(inst, enc, 3)
    tri_weight = int(hedges[:, 2].sum())  # single triangle
    assert tri_weight == 2 * 6
    assert as_dict(ewclique_algebraic(inst, enc, 3)) == {6: 1}


def test_clique_unique_triangle():
    inst = ProblemInstance(
        kind="ewclique", n=4, k=3,
        edges=((0, 1, 2), (1, 2, 4), (0, 2, 6), (2, 3, 8)),
    )
    egap, enc = identity_enc(inst)
    assert as_dict(ewclique_algebraic(inst, enc, 3)) == {12: 1}


def test_clique_k_not_divisible():
    inst = ProblemInstance(kind="ewclique", n=5, k=4, edges=complete_graph(5, [1]))
    egap, enc = identity_enc(inst)
    with pytest.raises(KNotDivisibleBy3):
        ewclique_algebraic(inst, enc, 4)


def test_clique_triangle_identity_and_weight_bound_random():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(6, 9)
        inst = random_instance("ewclique", n, rng, [1, 3, 5, 9], density=0.8, k=6)
        egap, enc = identity_enc(inst)
        nodes, internal, hedges = build_auxiliary_graph(inst, enc, 6)
        rows = hedges.tolist()
        internal = internal.tolist()
        nbr = {}
        for i, j, w in rows:
            nbr.setdefault(i, {})[j] = w
            nbr.setdefault(j, {})[i] = w
        w_enc = max(enc.values())
        kk = 2  # k/3
        assert all(w <= (3 * kk**2 - kk) * w_enc for *_, w in rows)
        cross = {}
        for i, j, w in rows:
            cross[(i, j)] = (w - internal[i] - internal[j]) // 2
        for i, j, wij in rows:
            for l in nbr.get(j, {}):
                if l <= j or l not in nbr.get(i, {}):
                    continue
                tri = wij + nbr[j][l] + nbr[i][l]
                clique_w = (internal[i] + internal[j] + internal[l]
                            + cross[(i, j)] + cross[(min(j, l), max(j, l))]
                            + cross[(min(i, l), max(i, l))])
                assert tri == 2 * clique_w


def test_clique_k6_matches_bruteforce():
    rng = random.Random(17)
    for _ in range(5):
        n = rng.randint(7, 10)
        inst = random_instance("ewclique", n, rng, [2, 5, 11], density=0.9, k=6)
        egap, enc = identity_enc(inst)
        terms = ewclique_algebraic(inst, enc, 6)
        try:
            ref = clique_bf(inst, 6)
        except Exception:
            assert as_dict(terms) == {}
            continue
        _, value, count = select_optimum(terms, egap, "max")
        assert (value, count) == (ref.optimum, ref.count)
        assert_exponents_bounded(terms, egap)


def test_clique_k6_counts_every_clique_of_k8():
    inst = ProblemInstance(kind="ewclique", n=8, k=6,
                           edges=complete_graph(8, [1, 2, 4, 8, 16]))
    egap, enc = identity_enc(inst)
    terms = ewclique_algebraic(inst, enc, 6)
    assert sum(as_dict(terms).values()) == comb(8, 6)
    ref = clique_bf(inst, 6)
    _, value, count = select_optimum(terms, egap, "max")
    assert (value, count) == (ref.optimum, ref.count)


# --- Steiner -----------------------------------------------------------


def test_steiner_two_terminals_is_shortest_path():
    inst = ProblemInstance(
        kind="steiner", n=4, terminals=(0, 3),
        edges=((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 100)),
    )
    _, enc = identity_enc(inst)
    assert as_dict(steiner_algebraic(inst, enc)) == {9: 1}


def test_steiner_star_graph():
    edges = tuple((0, v, v * 10) for v in range(1, 5))
    inst = ProblemInstance(kind="steiner", n=5, terminals=(1, 2, 3, 4), edges=edges)
    egap, enc = identity_enc(inst)
    [(e, c)] = as_dict(steiner_algebraic(inst, enc)).items()
    assert true_value(egap, e) == 10 + 20 + 30 + 40 and c == 1


def test_steiner_disconnected():
    inst = ProblemInstance(kind="steiner", n=4, terminals=(0, 3),
                           edges=((0, 1, 1), (2, 3, 1)))
    _, enc = identity_enc(inst)
    with pytest.raises(Disconnected):
        steiner_algebraic(inst, enc)


def test_steiner_matches_bruteforce_random():
    rng = random.Random(23)
    checked = 0
    for _ in range(25):
        n = rng.randint(4, 9)
        inst = random_instance("steiner", n, rng, [1, 2, 5, 9], density=0.7, t=3)
        egap, enc = identity_enc(inst)
        try:
            ref = steiner_bf(inst)
        except Disconnected:
            with pytest.raises(Disconnected):
                steiner_algebraic(inst, enc)
            continue
        terms = steiner_algebraic(inst, enc)
        _, value, count = select_optimum(terms, egap, "min")
        assert (value, count) == (ref.optimum, 1)
        checked += 1
    assert checked >= 10


def test_steiner_table_refused_before_floyd_warshall():
    # 30 terminals on a 40-vertex path: 2^29 subsets x 40 roots of int64
    # keys pass 2^32 bits, and nothing of that size may be allocated first
    inst = ProblemInstance(kind="steiner", n=40, terminals=tuple(range(30)),
                           edges=tuple((v, v + 1, 1 + v % 3) for v in range(39)))
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded, match="2\\^29 subsets x 40 vertices"):
            steiner_algebraic(inst, {1: 1, 2: 2, 3: 3})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_steiner_encoding_from_2_62_raises_bound_exceeded():
    # a path of 2^62-scale weights on the unit cover: the optimal tree's
    # encoding is its weight, 2^62 and then 3 * 2^62, past int64
    for n, w in ((3, 2**61), (4, 2**62)):
        inst = ProblemInstance(kind="steiner", n=n, terminals=(0, n - 1),
                               edges=tuple((v, v + 1, w) for v in range(n - 1)),
                               gap=Gap((1,), (w,)))
        with pytest.raises(BoundExceeded, match="2\\^62"):
            run_meta(inst)


# --- min-plus self-convolution ------------------------------------------


def test_minplus_zeros():
    assert minplus_selfconv_min([0, 0, 0], 1) == [0] * 5


def test_minplus_example():
    assert minplus_selfconv_min([1, 3, 5], 8) == [2, 4, 6, 8, 10]


def test_minplus_matches_naive_random():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 200)
        seq = [rng.randrange(64) for _ in range(n)]
        assert minplus_selfconv_min(seq, 64) == minplus_naive(seq)


def attainable_sums(seq, bound):
    """Attainable encoded sums per output index, one sorted list each."""
    support = _selfconv_support(seq, bound)
    return [[int(s) for s in row.nonzero()[0]] for row in support]


@pytest.mark.parametrize("kind", ["tsp", "maxcut", "ewclique"])
def test_int64_cores_exact_below_2_62_and_raise_above(kind):
    # a triangle whose encoded weights put lambda * max(enc) just below 2^62
    inst = ProblemInstance(kind=kind, n=3, edges=((0, 1, 1), (1, 2, 2), (0, 2, 3)),
                           k=3 if kind == "ewclique" else 0)
    solve = {"tsp": tsp_algebraic, "maxcut": maxcut_algebraic,
             "ewclique": lambda inst, enc: ewclique_algebraic(inst, enc, 3)}[kind]
    top = (2**62 - 1) // SOLVER_SPECS[kind].lambda_bound(inst)
    enc = {1: top, 2: top - 1, 3: top - 2}
    expected = {
        "tsp": {3 * top - 3: 1},
        "maxcut": {0: 1, 2 * top - 1: 1, 2 * top - 3: 1, 2 * top - 2: 1},
        "ewclique": {3 * top - 3: 1},
    }[kind]
    assert as_dict(solve(inst, enc)) == expected
    with pytest.raises(BoundExceeded):
        solve(inst, {1: top + 1, 2: 0, 3: 0})



def test_tsp_budget_counts_widest_cells(monkeypatch):
    # n = 3: slots of one byte, encoded spread 2, so 2^2 cells of
    # (2 * 2 + 1) * 8 bits make 160 bits
    inst = ProblemInstance(kind="tsp", n=3, edges=((0, 1, 1), (1, 2, 2), (0, 2, 3)))
    enc = {1: 5, 2: 6, 3: 7}
    monkeypatch.setattr(solvers, "TABLE_BITS", 160)
    assert as_dict(tsp_algebraic(inst, enc)) == {18: 1}
    monkeypatch.setattr(solvers, "TABLE_BITS", 159)
    with pytest.raises(BoundExceeded):
        tsp_algebraic(inst, enc)


def test_tsp_wide_spread_raises_before_building_cells():
    # six-digit weights on the unit GAP: each cell would span about 9 * 10^6
    # slots of 24 bits, so the 2^32-bit table budget refuses n = 10 at once
    rng = random.Random(1)
    inst = ProblemInstance(kind="tsp", n=10, edges=tuple(
        (u, v, rng.randrange(10**6)) for u in range(10) for v in range(u + 1, 10)))
    with pytest.raises(BoundExceeded, match="spread"):
        tsp_algebraic(inst, {w: w for _, _, w in inst.edges})


def test_tsp_small_n_wide_spread_decodes_in_slot_bytes():
    # n = 3, one tour: a spread of 10^8 needs 2^2 cells of 2 * 10^8 + 1
    # one-byte slots, 6.4e9 bits, so the 2^32-bit table budget refuses it
    inst = ProblemInstance(kind="tsp", n=3, edges=((0, 1, 1), (1, 2, 2), (0, 2, 3)))
    with pytest.raises(BoundExceeded, match="spread"):
        tsp_algebraic(inst, {1: 1, 2: 1, 3: 10**8})
    # a spread of 10^6 is admitted; its total has 10^6 + 1 one-byte slots
    # with one occupied, and the decode must not widen every slot to 64 bits
    tracemalloc.start()
    try:
        assert as_dict(tsp_algebraic(inst, {1: 1, 2: 1, 3: 10**6})) == {10**6 + 2: 1}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6


def test_minplus_bound_errors(monkeypatch):
    with pytest.raises(BoundExceeded):
        minplus_selfconv_min([5], 4)
    # sums reach 2 * (10^7 - 1): a 216 x 20155392 grid
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 10**6)
    with pytest.raises(BoundExceeded):
        minplus_selfconv_min([0, 10**7 - 1] * 50, 10**7)


def test_minplus_grid_spans_sums_not_bound(monkeypatch):
    # sums of ones reach 2, so a bound of 10^7 still gives a 216 x 3 grid
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 10**6)
    assert minplus_selfconv_min([1] * 100, 10**7) == minplus_naive([1] * 100)
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 216 * 3)
    assert _selfconv_support([1] * 100, 10**7).shape == (199, 3)
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * (216 * 3) - 1)
    with pytest.raises(BoundExceeded):
        _selfconv_support([1] * 100, 10**7)


def test_minplus_exact_for_any_bound():
    rng = random.Random(16)
    cases = [[0], [7], [0] * 9, [0, 0]]
    for _ in range(60):
        top = rng.choice([1, 5, 63, 1000])
        cases.append([rng.randint(0, top) for _ in range(rng.randint(1, 80))])
    for seq in cases:
        for bound in (max(seq) + 1, 10 * max(seq) + 1, 2**20):
            assert minplus_selfconv_min(seq, bound) == minplus_naive(seq)


def test_minplus_support_peak_per_padded_slot():
    # n = 1000 with entries up to 2000 on the lambda = 2 bound: the table
    # budget prices a 2048 x 4096 grid, and one complex spectrum of half of it
    # plus 4 MB blocks must stay within 12 bytes per slot
    rng = random.Random(3)
    seq = [rng.randint(0, 2000) for _ in range(999)] + [2000]
    _selfconv_support([0, 1, 2], 3)  # numpy's one-time FFT setup
    tracemalloc.start()
    try:
        support = _selfconv_support(seq, 4001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert support.shape == (1999, 4001)
    assert peak <= 12 * 2048 * 4096


def test_ewclique_auxiliary_matrix_refused_before_product():
    # K_40 with k = 9 has C(40, 3) = 9880 nodes in H: 64 * 9880^2 bits pass
    # 2^32, and nothing of that size may be allocated before the refusal
    inst = ProblemInstance(kind="ewclique", n=40, k=9, edges=tuple(
        (u, v, 1 + (u + v) % 3) for u in range(40) for v in range(u + 1, 40)))
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded, match="9880 x 9880"):
            ewclique_algebraic(inst, {1: 1, 2: 2, 3: 3}, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("kind", sorted(SOLVER_SPECS))
def test_every_kind_refuses_through_the_table_budget(monkeypatch, kind):
    # with no table budget at all, every solver refuses its first table
    monkeypatch.setattr(solvers, "TABLE_BITS", 0)
    with pytest.raises(BoundExceeded, match="exceed 2\\^32 bits"):
        run_meta(generate_instance(kind, 6, Gap((1,), (5,)), seed=1))


def test_minplus_budget_counts_padded_grid(monkeypatch):
    # 3 * 2 * 5 = 30 slots fit a budget of 40 slots of 80 bits, but the FFT
    # grid is padded to _fft_len(5) * _fft_len(9) = 6 * 9 = 54 slots
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 40)
    with pytest.raises(BoundExceeded):
        minplus_selfconv_min([0, 1, 4], 5)
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 54)
    assert attainable_sums([0, 1, 4], 5) == [[0], [1], [2, 4], [5], [8]]
    assert minplus_selfconv_min([0, 1, 4], 5) == [0, 1, 2, 5, 8]


def test_minplus_attainable_sets():
    assert attainable_sums([1, 3], 8) == [[2], [4], [6]]


def test_ewclique_invariant_holds_under_python_O():
    # -O strips assert statements; the triangle-evenness check must survive it
    script = textwrap.dedent("""
        import sys
        import gapsolve.solvers as solvers
        from gapsolve import Gap, generate_instance, run_meta
        from gapsolve.errors import InvariantViolated

        build = solvers.build_auxiliary_graph

        def odd_edges(*args):
            nodes, internal, hedges = build(*args)
            return nodes, internal, hedges + [0, 0, 1]

        solvers.build_auxiliary_graph = odd_edges
        inst = generate_instance("ewclique", n=6, gap=Gap((3,), (9,)), seed=1, k=3)
        try:
            run_meta(inst)
        except InvariantViolated as exc:
            print(sys.flags.optimize, type(exc).__name__, exc)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("1 InvariantViolated triangle weight"), out.stdout
