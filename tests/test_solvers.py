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
    get_gap_coordinates,
    kappa,
    kappa_inv,
    maxcut_algebraic,
    minplus_selfconv_min,
    run_meta,
    select_optimum,
    steiner_algebraic,
    true_value,
    true_values,
    tsp_algebraic,
)
from gapsolve.errors import BoundExceeded, Disconnected, InvariantViolated, KNotDivisibleBy3
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
    nodes, internal, hedges = build_auxiliary_graph(inst, enc)
    tri_weight = int(hedges[:, 2].sum())  # single triangle
    assert tri_weight == 2 * 6
    assert as_dict(ewclique_algebraic(inst, enc)) == {6: 1}


def test_clique_unique_triangle():
    inst = ProblemInstance(
        kind="ewclique", n=4, k=3,
        edges=((0, 1, 2), (1, 2, 4), (0, 2, 6), (2, 3, 8)),
    )
    egap, enc = identity_enc(inst)
    assert as_dict(ewclique_algebraic(inst, enc)) == {12: 1}


def test_clique_k_not_divisible():
    inst = ProblemInstance(kind="ewclique", n=5, k=4, edges=complete_graph(5, [1]))
    egap, enc = identity_enc(inst)
    with pytest.raises(KNotDivisibleBy3):
        ewclique_algebraic(inst, enc)


def test_clique_triangle_identity_and_weight_bound_random():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(6, 9)
        inst = random_instance("ewclique", n, rng, [1, 3, 5, 9], density=0.8, k=6)
        egap, enc = identity_enc(inst)
        nodes, internal, hedges = build_auxiliary_graph(inst, enc)
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
        terms = ewclique_algebraic(inst, enc)
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
    terms = ewclique_algebraic(inst, enc)
    assert sum(as_dict(terms).values()) == comb(8, 6)
    ref = clique_bf(inst, 6)
    _, value, count = select_optimum(terms, egap, "max")
    assert (value, count) == (ref.optimum, ref.count)


def test_ewclique_triangle_count_invariant_fires(monkeypatch):
    # the second _bit_rows call packs the kept edges the listing reads:
    # with node 0's row cleared, the 210 cliques whose lowest third is
    # node 0 = {0, 1} go unlisted, while the count from the first call,
    # over all of H, still has C(12, 6) = 924 cliques of 15 triangles each
    inst, enc = encoded_instance("ewclique", 12, Gap((10**12, 7), (1, 30)),
                                 density=1.0, k=6)
    calls = []
    bit_rows = solvers._bit_rows

    def drop_node_0(*args):
        calls.append(bit_rows(*args))
        if len(calls) == 2:
            calls[1][0] = 0
        return calls[-1]

    monkeypatch.setattr(solvers, "_bit_rows", drop_node_0)
    with pytest.raises(InvariantViolated) as exc:
        ewclique_algebraic(inst, enc)
    assert str(exc.value) == ("714 k-cliques listed, but H has 13860 triangles, "
                              "not 15 per clique")
    assert len(calls) == 2


# --- Steiner -----------------------------------------------------------


def test_steiner_two_terminals_is_shortest_path():
    inst = ProblemInstance(
        kind="steiner", n=4, terminals=(0, 3),
        edges=((0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 100)),
    )
    egap, enc = identity_enc(inst)
    assert as_dict(steiner_algebraic(inst, enc, egap)) == {9: 1}


def test_steiner_star_graph():
    edges = tuple((0, v, v * 10) for v in range(1, 5))
    inst = ProblemInstance(kind="steiner", n=5, terminals=(1, 2, 3, 4), edges=edges)
    egap, enc = identity_enc(inst)
    [(e, c)] = as_dict(steiner_algebraic(inst, enc, egap)).items()
    assert true_value(egap, e) == 10 + 20 + 30 + 40 and c == 1


def test_steiner_disconnected():
    inst = ProblemInstance(kind="steiner", n=4, terminals=(0, 3),
                           edges=((0, 1, 1), (2, 3, 1)))
    egap, enc = identity_enc(inst)
    with pytest.raises(Disconnected):
        steiner_algebraic(inst, enc, egap)


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
                steiner_algebraic(inst, enc, egap)
            continue
        terms = steiner_algebraic(inst, enc, egap)
        _, value, count = select_optimum(terms, egap, "min")
        assert (value, count) == (ref.optimum, 1)
        checked += 1
    assert checked >= 10


def spy_limbs(monkeypatch):
    """A list that records the limb count of every later `solvers._limb_add` call."""
    limbs = []
    limb_add = solvers._limb_add
    monkeypatch.setattr(solvers, "_limb_add",
                        lambda a, b: limbs.append(len(a)) or limb_add(a, b))
    return limbs


def test_steiner_benchmark_shapes_run_on_one_limb(monkeypatch):
    # steiner50t7's shape on G and on the 2^63-scale H: the order weights
    # keep the DP's bound inf below 2^62, so it never adds more than one limb
    limbs = spy_limbs(monkeypatch)
    for gap in (Gap((10**12, 7), (1, 30)), Gap((2**63 + 29, 2**61 + 3), (3, 12))):
        inst = generate_instance("steiner", 50, gap, seed=1, density=0.2, n_terminals=7)
        limbs.clear()
        run_meta(inst)
        assert limbs and set(limbs) == {1}, gap
    # the planted 3-dim cover at n = 100: the bound inf on its DP values has
    # 61 bits, below EXPONENT_LIMIT = 2^62, so it too runs on one limb
    inst = generate_instance("steiner", 100, Gap((10**9 + 7, 1000003, 13), (8, 8, 8)),
                             seed=1, density=0.05, n_terminals=4)
    limbs.clear()
    run_meta(inst)
    assert limbs and set(limbs) == {1}
    # a 3-dim cover whose first generator does not outweigh the rest keeps
    # 2^63-scale order weights, and its keys need limbs
    inst = generate_instance("steiner", 8, Gap((2**63 + 29, 2**62 + 7, 2**61 + 3), (1, 1, 1)),
                             seed=1, density=0.5, n_terminals=4)
    limbs.clear()
    run_meta(inst)
    assert min(limbs) >= 2


def test_steiner_table_refused_before_floyd_warshall():
    # 30 terminals on a 40-vertex path: 2^29 subsets x 40 roots of int64
    # keys pass 2^32 bits, and nothing of that size may be allocated first
    inst = ProblemInstance(kind="steiner", n=40, terminals=tuple(range(30)),
                           edges=tuple((v, v + 1, 1 + v % 3) for v in range(39)))
    egap, enc = identity_enc(inst)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded, match="2\\^29 subsets x 40 vertices"):
            steiner_algebraic(inst, enc, egap)
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


def attainable_sums(seq):
    """Attainable encoded sums per output index, one sorted list each."""
    support = _selfconv_support(seq)
    return [[int(s) for s in row.nonzero()[0]] for row in support]


@pytest.mark.parametrize("kind", ["tsp", "maxcut", "ewclique"])
def test_int64_cores_exact_below_2_62_and_raise_above(kind):
    # a triangle whose encoded weights put lambda * max(enc) just below 2^62
    inst = ProblemInstance(kind=kind, n=3, edges=((0, 1, 1), (1, 2, 2), (0, 2, 3)),
                           k=3 if kind == "ewclique" else 0)
    solve = {"tsp": tsp_algebraic, "maxcut": maxcut_algebraic,
             "ewclique": ewclique_algebraic}[kind]
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


def test_maxcut_partial_sums_reach_twice_the_weight_sum():
    # two edges of (2^62 - 1) // 2 = 2^61 - 1 at vertex 1: their sum w is
    # 2^62 - 2, the most _check_int64 lets through at m = 2; parts {0, 1}
    # and {2, 3} each have a cut-side term of w, so two part terms add to
    # 2w = 2^63 - 4 before the cross term -2w brings it back
    top = (2**62 - 1) // 2
    inst = ProblemInstance(kind="maxcut", n=6, edges=((1, 2, 1), (1, 3, 2)))
    terms = maxcut_algebraic(inst, {1: top, 2: top})
    assert as_dict(terms) == {0: 8, 2**61 - 1: 16, 2**62 - 2: 8}
    ref = maxcut_bf(ProblemInstance(kind="maxcut", n=6, edges=((1, 2, top), (1, 3, top))))
    assert (ref.optimum, ref.count) == (2**62 - 2, 8)



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


def test_tsp_counts_past_64_bits_refused_before_tables():
    # K_22 of one weight: its 21! directed cycles through vertex 0 need 66
    # bits, and nothing of a Held-Karp level may be allocated first
    inst = ProblemInstance(kind="tsp", n=22, edges=complete_graph(22, [5]))
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded, match="do not fit in 64 bits"):
            tsp_algebraic(inst, {5: 5})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_minplus_bound_errors(monkeypatch):
    with pytest.raises(BoundExceeded):
        minplus_selfconv_min([5], 4)
    # sums reach 2 * (10^7 - 1): a 216 x 20155392 grid
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 10**6)
    with pytest.raises(BoundExceeded, match="FFT grid of 216x20155392"):
        _selfconv_support([0, 10**7 - 1] * 50)
    # the pair table's rank lookup over 2 * 10^7 value sums passes it too
    with pytest.raises(BoundExceeded, match="pair table of 100x100 sums"):
        minplus_selfconv_min([0, 10**7 - 1] * 50, 10**7)


def test_minplus_grid_spans_sums_not_bound(monkeypatch):
    # sums of ones reach 2, so a bound of 10^7 still gives a 216 x 3 grid
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 10**6)
    assert minplus_selfconv_min([1] * 100, 10**7) == minplus_naive([1] * 100)
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 216 * 3)
    assert _selfconv_support([1] * 100).shape == (199, 3)
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * (216 * 3) - 1)
    with pytest.raises(BoundExceeded):
        _selfconv_support([1] * 100)


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
    _selfconv_support([0, 1, 2])  # numpy's one-time FFT setup
    tracemalloc.start()
    try:
        support = _selfconv_support(seq)
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
            ewclique_algebraic(inst, {1: 1, 2: 2, 3: 3})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def encoded_instance(kind, n, gap, **kw):
    """generate_instance at seed 1 with its weights encoded over the
    lambda-enlarged `gap`."""
    inst = generate_instance(kind, n, gap, seed=1, **kw)
    egap = enlarge(gap, SOLVER_SPECS[kind].lambda_bound(inst))
    return inst, {w: kappa(egap, c) for w, c in
                  zip(inst.weights, get_gap_coordinates(inst.weights, gap))}


def traced_peak(call):
    """call()'s result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ewclique_peak_within_price():
    # k = 6 on G(80, 0.5): N = 1602 nodes, priced at 64 bits per N^2 by
    # build_auxiliary_graph; the tables peak at about 4.6 bytes per N^2
    inst, enc = encoded_instance("ewclique", 80, Gap((10**12, 7), (1, 30)),
                                 density=0.5, k=6)
    ewclique_algebraic(*encoded_instance("ewclique", 8, Gap((3,), (9,)), k=3))
    size = len(build_auxiliary_graph(inst, enc)[0])
    assert 1500 <= size <= 1700
    _, peak = traced_peak(lambda: ewclique_algebraic(inst, enc))
    price = 8 * size**2
    assert price / 3 <= peak <= price, peak / size**2


def priced_peak(monkeypatch, call):
    """call()'s result, the bits its one `_refuse_over` check priced, and
    its tracemalloc peak in bytes."""
    priced = []
    refuse = solvers._refuse_over
    monkeypatch.setattr(solvers, "_refuse_over",
                        lambda bits, what: (priced.append(bits), refuse(bits, what)))
    result, peak = traced_peak(call)
    [bits] = priced
    return result, bits, peak


@pytest.mark.parametrize("cover, n", [
    (Gap((10**12, 7), (1, 30)), 11),  # an encoded spread of 360 slots
    (Gap((1,), (10**4,)), 9),          # 9918 slots
], ids=["G", "L10^4"])
def test_tsp_peak_within_price(monkeypatch, cover, n):
    # the 2^(n-1) widest cells priced against TABLE_BITS are at least the
    # tracemalloc peak of two adjacent levels of rows, and within 2x of it
    # (0.6-0.7 of the price measured)
    inst, enc = encoded_instance("tsp", n, cover)
    tsp_algebraic(*encoded_instance("tsp", 9, Gap((3,), (9,))))  # numpy's one-time setup
    terms, bits, peak = priced_peak(monkeypatch, lambda: tsp_algebraic(inst, enc))
    assert sum(as_dict(terms).values()) == factorial(n - 1) // 2
    assert bits / 16 <= peak <= bits / 8, peak * 8 / bits


@pytest.mark.parametrize("gap, n, density, terminals", [
    (Gap((10**12, 7), (1, 30)), 100, 0.03, 8),
    (Gap((10**12, 7), (1, 30)), 200, 0.015, 12),
    (Gap((10**12, 7), (1, 30)), 20, 0.5, 14),   # split tables above the DP table
    (Gap((10**12, 7), (1, 30)), 400, 0.006, 3),  # the n x n distances dominate
    (Gap((2**63 + 29, 2**62 + 7, 2**61 + 3), (1, 1, 1)), 12, 0.5, 10),  # two limbs
    (Gap((10**9 + 7, 1000003, 13), (8, 8, 8)), 100, 0.05, 4),  # one limb below 2^62
], ids=["n100t8", "n200t12", "n20t14", "n400t3", "limbs", "3dim-n100t4"])
def test_steiner_peak_within_price(monkeypatch, gap, n, density, terminals):
    # the DP table, the subset bits, the Floyd-Warshall distances and a DP
    # level's split tables and block are priced together: at least the
    # tracemalloc peak, and within 2x of it (0.6-0.9 of the price measured)
    inst = generate_instance("steiner", n, gap, seed=1, density=density,
                             n_terminals=terminals)
    egap = enlarge(gap, SOLVER_SPECS["steiner"].lambda_bound(inst))
    enc = {w: kappa(egap, c) for w, c in
           zip(inst.weights, get_gap_coordinates(inst.weights, gap))}
    steiner_algebraic(*encoded_instance("steiner", 8, Gap((3,), (9,))), egap)
    _, bits, peak = priced_peak(monkeypatch, lambda: steiner_algebraic(inst, enc, egap))
    assert bits / 16 <= peak <= bits / 8, peak * 8 / bits


@pytest.mark.parametrize("cover, n, core", [
    (Gap((10**12, 7), (1, 30)), 22, "histogram"),  # 1 bin per 10 cut sums
    (Gap((1,), (10**6,)), 20, "sort"),              # 87 bins per cut sum
], ids=["histogram", "sort"])
def test_maxcut_peak_within_price(monkeypatch, cover, n, core):
    # the price maxcut checks against TABLE_BITS is at least the
    # tracemalloc peak of the core that runs, and less than twice it
    inst, enc = encoded_instance("maxcut", n, cover, density=0.5)
    maxcut_algebraic(*encoded_instance("maxcut", 6, cover))
    priced = []
    refuse = solvers._refuse_over
    monkeypatch.setattr(solvers, "_refuse_over",
                        lambda bits, what: (priced.append((bits, what)), refuse(bits, what)))
    terms, peak = traced_peak(lambda: maxcut_algebraic(inst, enc))
    [(bits, what)] = priced
    assert sum(as_dict(terms).values()) == 2 ** (n - 1)
    assert f"({bits} bits)" in what.split(" and ")[core == "sort"]
    assert bits / 16 <= peak <= bits / 8, peak * 8 / bits


@pytest.mark.parametrize("kind", sorted(SOLVER_SPECS))
def test_every_kind_refuses_through_the_table_budget(monkeypatch, kind):
    # with no table budget at all, every solver refuses its first table
    monkeypatch.setattr(solvers, "TABLE_BITS", 0)
    with pytest.raises(BoundExceeded, match="exceed 2\\^32 bits"):
        run_meta(generate_instance(kind, 6, Gap((1,), (5,)), seed=1))


def test_minplus_budget_counts_padded_grid(monkeypatch):
    # 3 * 2 * 5 = 30 slots fit a budget of 40 slots of 80 bits, but the FFT
    # grid is padded to _fft_len(5) * _fft_len(9) = 6 * 9 = 54 slots; the
    # pair table of 3 x 3 sums fits either budget
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 40)
    with pytest.raises(BoundExceeded):
        _selfconv_support([0, 1, 4])
    assert minplus_selfconv_min([0, 1, 4], 5) == [0, 1, 2, 5, 8]
    monkeypatch.setattr(solvers, "TABLE_BITS", 80 * 54)
    assert attainable_sums([0, 1, 4]) == [[0], [1], [2, 4], [5], [8]]
    assert minplus_selfconv_min([0, 1, 4], 5) == [0, 1, 2, 5, 8]


def spy_fft(monkeypatch):
    """Record the sequence length of every FFT-core call."""
    calls = []

    def spy(seq):
        calls.append(len(seq))
        return _selfconv_support(seq)

    monkeypatch.setattr(solvers, "_selfconv_support", spy)
    return calls


def pair_bits(seq):
    """The pair table's price: 96 bits a pair, 32 a value sum up to
    2 * max(seq), 64 an entry and an attainable sum (at most n^2 of them)."""
    n, values = len(seq), 2 * max(seq) + 1
    return 96 * n * n + 32 * values + 64 * (n + min(n * n, values))


def test_minplus_core_follows_the_shape(monkeypatch):
    # n = 192 over entries <= 91: 36,864 pairs against a 384 x 192 grid;
    # n = 4096 over entries <= 100: 16.8M pairs against an 8192 x 216 grid
    calls = spy_fft(monkeypatch)
    rng = random.Random(20)
    short = [rng.randint(0, 91) for _ in range(192)]
    assert minplus_selfconv_min(short, 92) == minplus_naive(short)
    assert calls == []
    long = [rng.randint(0, 100) for _ in range(4096)]
    out = minplus_selfconv_min(long, 101)
    assert calls == [4096]
    for k in [0, 1, 2, 4095, 8189, 8190] + rng.sample(range(8191), 20):
        lo = max(0, k - 4095)
        assert out[k] == min(long[i] + long[k - i] for i in range(lo, k - lo + 1))


def test_minplus_both_cores_match_naive_on_either_side():
    # seeded shapes on both sides of n^2 = H * W, and n = 800, whose pair
    # table is rewritten in more than one block; every sequence also runs
    # through both cores directly
    rng = random.Random(2020)
    shapes = [(800, 5), (800, 1000)] + [
        (rng.choice([1, 2, 7, 40, 150, 300, 400]),
         rng.choice([0, 1, 3, 20, 91, 1000, 5000])) for _ in range(58)]
    sides = set()
    for n, top in shapes:
        seq = [rng.randint(0, top) for _ in range(n)]
        naive = minplus_naive(seq)
        height = solvers._fft_len(2 * n - 1)
        width = solvers._fft_len(2 * max(seq) + 1)
        sides.add(n * n <= height * width)
        assert minplus_selfconv_min(seq, top + 1) == naive
        assert solvers._pair_min(seq, max(seq), None).tolist() == naive
        assert [row[0] for row in attainable_sums(seq)] == naive
    assert sides == {True, False}


def test_minplus_ties_agree_on_both_cores(monkeypatch):
    # the two equal generators give one true value many encodings: 6 * 3^40
    # is (0, 6) = 6 and (1, 5) = 16 over the enlarged bounds (10, 10).  At
    # n = 256 the 65,536 pairs tie the 512 x 128 grid, so the pairs run;
    # the grid's own price leaves only the FFT
    calls = spy_fft(monkeypatch)
    gap = Gap((3**40, 3**40), (5, 5))
    rng = random.Random(7)
    seq = tuple(3**40 * rng.randint(0, 10) for _ in range(255)) + (10 * 3**40,)
    inst = ProblemInstance(kind="minplusconv", sequence=seq, gap=gap)
    egap = enlarge(gap, 2)
    enc = {w: kappa(egap, c) for w, c in
           zip(inst.weights, get_gap_coordinates(inst.weights, gap))}
    codes = [enc[v] for v in seq]
    runs = []
    for budget in (solvers.TABLE_BITS, 80 * 512 * 128):
        monkeypatch.setattr(solvers, "TABLE_BITS", budget)
        res = run_meta(inst)
        by_value = minplus_selfconv_min(
            codes, egap.volume, keys=lambda sums: true_values(egap, sums))
        runs.append((res.stats["sequence"], res.optimum, res.encoded_optimum,
                     res.coords, by_value))
    assert calls == [256, 256]
    assert runs[0] == runs[1]
    assert runs[0][0] == minplus_naive(list(seq))
    pair_codes = {a + b for a in set(codes) for b in set(codes)}
    assert len({true_value(egap, c) for c in pair_codes}) < len(pair_codes)


def test_minplus_pair_price_boundary(monkeypatch):
    calls = spy_fft(monkeypatch)
    # n = 6 over {0, 1}: 36 pairs tie a 12 x 3 grid of 2880 bits, below the
    # pair table's 4128 bits
    seq = [0, 1, 1, 0, 1, 0]
    assert pair_bits(seq) == 4128
    monkeypatch.setattr(solvers, "TABLE_BITS", 4128)
    assert minplus_selfconv_min(seq, 2) == minplus_naive(seq) and calls == []
    monkeypatch.setattr(solvers, "TABLE_BITS", 4127)
    assert minplus_selfconv_min(seq, 2) == minplus_naive(seq) and calls == [6]
    # [0, 1, 4]: a 1920-bit pair table and a 6 x 9 grid of 4320 bits
    assert pair_bits([0, 1, 4]) == 1920
    monkeypatch.setattr(solvers, "TABLE_BITS", 1920)
    assert minplus_selfconv_min([0, 1, 4], 5) == [0, 1, 2, 5, 8]
    monkeypatch.setattr(solvers, "TABLE_BITS", 1919)
    with pytest.raises(BoundExceeded, match="pair table of 3x3 sums .1920 bits. and "
                                            "FFT grid of 6x9 slots .4320 bits. exceed"):
        minplus_selfconv_min([0, 1, 4], 5)
    assert calls == [6]


def test_minplus_pair_peak_within_price():
    # n = 1000..2000 on the pair core: the tracemalloc peak is at most the
    # priced bits and at least half of them
    solvers._pair_min([0, 1], 1, None)  # numpy's one-time setup
    for n, top in ((1000, 1000), (1500, 20000), (2000, 2000)):
        rng = random.Random(n)
        seq = [rng.randint(0, top) for _ in range(n - 1)] + [top]
        tracemalloc.start()
        try:
            minplus_selfconv_min(seq, top + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair_bits(seq) / 16 <= peak <= pair_bits(seq) / 8, (n, peak)


def test_minplus_attainable_sets():
    assert attainable_sums([1, 3]) == [[2], [4], [6]]


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
