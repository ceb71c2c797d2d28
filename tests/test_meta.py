import json
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from gapsolve import (
    Gap,
    ProblemInstance,
    enlarge,
    get_gap_coordinates,
    kappa,
    minplus_selfconv_min,
    run_meta,
    true_value,
)
import gapsolve.encoding as encoding
import gapsolve.poly as poly
from gapsolve.encoding import radix_digits
from gapsolve.errors import (
    Disconnected,
    InfeasibleInstance,
    InvariantViolated,
    NoCoverFound,
)
from gapsolve.instances import generate_instance, parse_gap_spec
from gapsolve.oracle import maxcut_bf, minplus_naive, steiner_bf, tsp_bf
import gapsolve.solvers as solvers
from gapsolve.solvers import SOLVER_SPECS, SolverSpec


def complete(n, weight_of):
    return tuple((u, v, weight_of(u, v)) for u in range(n) for v in range(u + 1, n))


def test_tsp_k4_ap_weights():
    gap = Gap((1,), (3,))
    rng = random.Random(0)
    inst = ProblemInstance(kind="tsp", n=4,
                           edges=complete(4, lambda u, v: rng.randrange(4)), gap=gap)
    res = run_meta(inst)
    assert res.optimum == tsp_bf(inst).optimum
    assert res.gap_used == gap
    assert true_value(enlarge(gap, res.lam), res.encoded_optimum) == res.optimum


def test_maxcut_high_offset_ap():
    # weights V + 7j with V = 10^12: the d=1 special case of the encoding
    V, r = 10**12, 7
    rng = random.Random(4)
    inst = ProblemInstance(
        kind="maxcut", n=8,
        edges=complete(8, lambda u, v: V + r * rng.randrange(10)),
    )
    res = run_meta(inst)
    assert res.optimum == maxcut_bf(inst).optimum
    # discovered cover folds the offset into a leading dimension
    assert res.gap_used.generators[0] >= V


def test_degenerate_equal_weights_tsp():
    w = 123456789
    inst = ProblemInstance(kind="tsp", n=5, edges=complete(5, lambda u, v: w))
    res = run_meta(inst)
    assert res.optimum == 5 * w  # a tour has n edges


def test_infeasible_tsp():
    inst = ProblemInstance(kind="tsp", n=4,
                           edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)))
    with pytest.raises(InfeasibleInstance):
        run_meta(inst)


def test_no_cover_found():
    rng = random.Random(2)
    edges = complete(6, lambda u, v: rng.randrange(10**15))
    inst = ProblemInstance(kind="maxcut", n=6, edges=edges)
    with pytest.raises(NoCoverFound):
        run_meta(inst, volume_budget=10**3)


def test_gap_independence():
    # same weights, two different valid covers, identical optimum
    gap_a = Gap((7,), (40,))
    gap_b = Gap((14, 7), (20, 1))
    rng = random.Random(6)
    edges = complete(6, lambda u, v: 7 * rng.randrange(41))
    for kind in ("tsp", "maxcut"):
        ia = ProblemInstance(kind=kind, n=6, edges=edges, gap=gap_a)
        ib = ProblemInstance(kind=kind, n=6, edges=edges, gap=gap_b)
        assert run_meta(ia).optimum == run_meta(ib).optimum


def test_meta_stats_record_size_chain():
    gap = parse_gap_spec("d=2 x=100,3 L=5,5")
    inst = generate_instance("maxcut", 6, gap, seed=1)
    res = run_meta(inst)
    lam = res.lam
    assert res.stats["encoded_range_bound"] <= lam ** gap.dim * gap.volume
    assert "doubling_constant" not in res.stats  # analytics stay off the hot path
    assert res.stats["wall_time"] >= 0


def test_meta_minplus_sequence():
    gap = parse_gap_spec("d=1 x=3 L=30 offset=10^9")
    inst = generate_instance("minplusconv", 40, gap, seed=3)
    res = run_meta(inst)
    assert res.stats["sequence"] == minplus_naive(list(inst.sequence))
    assert res.optimum == min(res.stats["sequence"])


def test_meta_minplus_searched_cover_of_G():
    # the 62 points of G with no cover given: the search finds the planted
    # cover, so the encoded range is (2*1 + 1) * (2*30 + 1) at lambda = 2,
    # where the cover over (10^12, 1) of volume 422 gave 1263
    seq = tuple(10**12 * l1 + 7 * l2 for l1 in range(2) for l2 in range(31))
    res = run_meta(ProblemInstance(kind="minplusconv", sequence=seq))
    assert res.stats["encoded_range_bound"] == 183
    assert res.stats["sequence"] == minplus_naive(list(seq))


def test_meta_steiner_end_to_end():
    gap = parse_gap_spec("d=2 x=1000,7 L=5,5")
    inst = generate_instance("steiner", 8, gap, seed=12, n_terminals=4)
    res = run_meta(inst)
    assert res.optimum == steiner_bf(inst).optimum


def test_meta_reconstruction_consistency():
    gap = parse_gap_spec("d=2 x=10^12,13 L=4,4")
    inst = generate_instance("ewclique", 8, gap, seed=2, k=3)
    res = run_meta(inst)
    egap = enlarge(res.gap_used, res.lam)
    assert true_value(egap, res.encoded_optimum) == res.optimum
    assert sum(x * l for x, l in zip(res.gap_used.generators, res.coords)) == res.optimum


def test_escaping_exponent_raises_invariant_violated(monkeypatch, tmp_path, capsys):
    # a typed error, not an assert, so the check survives `python -O`; an
    # exponent past 2^62 is still an escape (exit 5), not BoundExceeded (exit 2)
    from dataclasses import replace

    from gapsolve.cli import main
    from gapsolve.instances import serialize_instance

    spec = SOLVER_SPECS["maxcut"]
    inst = generate_instance("maxcut", 5, Gap((3,), (4,)), seed=1)
    bound = enlarge(inst.gap, spec.lambda_bound(inst)).volume
    assert bound < 100
    path = tmp_path / "cut.txt"
    path.write_text(serialize_instance(inst))
    for bad in (bound, 2**62):
        def escaping(inst, enc, egap, stats):
            exps, counts = spec.solve(inst, enc, egap, stats)
            return np.append(exps, bad), np.append(counts, 1)

        monkeypatch.setitem(SOLVER_SPECS, "maxcut", replace(spec, solve=escaping))
        with pytest.raises(InvariantViolated, match="outside"):
            run_meta(inst)
        assert main(["solve", str(path)]) == 5
        out = capsys.readouterr()
        assert out.err.startswith("internal error: encoded values outside")
        assert out.out == ""


def test_raw_cover_of_huge_volume():
    # the d=1 cover x=1, L=10^12 has 10^12 + 1 points; the coordinates are
    # solved, not walked, so it reaches the solver
    rng = random.Random(11)
    inst = ProblemInstance(kind="maxcut", n=8,
                           edges=complete(8, lambda u, v: rng.randrange(10**12)),
                           gap=Gap((1,), (10**12,)))
    res = run_meta(inst)
    ref = maxcut_bf(inst)
    assert (res.optimum, res.stats["optimal_count"]) == (ref.optimum, ref.count)
    assert res.coords == (res.optimum,)


def test_meta_minplus_2_63_generators():
    # the 2^63-scale family of the benchmark: true values exceed int64
    gap = Gap((2**63 + 29, 2**61 + 3), (3, 12))
    inst = generate_instance("minplusconv", 80, gap, seed=5)
    res = run_meta(inst)
    assert max(res.stats["sequence"]) >= 2**64
    assert res.stats["sequence"] == minplus_naive(list(inst.sequence))
    assert res.optimum == min(res.stats["sequence"])


def test_meta_minplus_kappa_order_differs_from_true_order():
    # dimension 1 is most significant in kappa but has the small generator,
    # so the smallest encoded sum is often not the smallest true sum
    gap = Gap((1, 10), (5, 5))
    inst = generate_instance("minplusconv", 60, gap, seed=8)
    res = run_meta(inst)
    naive = minplus_naive(list(inst.sequence))
    assert res.stats["sequence"] == naive
    egap = enlarge(gap, res.lam)
    enc = {w: kappa(egap, c) for w, c in
           zip(inst.weights, get_gap_coordinates(inst.weights, gap))}
    by_code = minplus_selfconv_min([enc[v] for v in inst.sequence], egap.volume)
    assert [true_value(egap, e) for e in by_code] != naive


def test_readme_library_example(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from gapsolve import Gap, generate_instance, run_meta" in example
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_steiner_optimal_count_is_none():
    # the Dreyfus-Wagner DP keeps one tree, so it cannot count optima
    inst = generate_instance("steiner", n=7, gap=Gap((5,), (10,)), seed=2,
                             n_terminals=3)
    res = run_meta(inst)
    assert res.optimum == steiner_bf(inst).optimum
    assert res.stats["optimal_count"] is None


@pytest.mark.parametrize("gap", [None, Gap((5,), (3,))])
def test_graph_without_edges(gap):
    # the weight set of a graph with no edges is {0}, the empty sum
    for n, count in ((0, 1), (1, 1), (3, 4)):  # 2^(n-1) bipartitions, all of cut 0
        inst = ProblemInstance(kind="maxcut", n=n, gap=gap)
        assert inst.weights.elements == (0,)
        res = run_meta(inst)
        ref = maxcut_bf(inst)
        assert (res.optimum, res.stats["optimal_count"]) == (0, count)
        assert (ref.optimum, ref.count) == (0, count)
    with pytest.raises(InfeasibleInstance):
        run_meta(ProblemInstance(kind="tsp", n=3, gap=gap))
    with pytest.raises(InfeasibleInstance):
        run_meta(ProblemInstance(kind="ewclique", n=4, k=3, gap=gap))
    with pytest.raises(Disconnected):
        run_meta(ProblemInstance(kind="steiner", n=4, terminals=(0, 2), gap=gap))


def test_each_term_decoded_once(monkeypatch):
    # one digit split per run_meta, over every term: the order keys and
    # the optimum's true value both come from those digits, not split again
    calls = []

    def counting(g, exps):
        calls.append(len(exps))
        return radix_digits(g, exps)

    monkeypatch.setattr(poly, "radix_digits", counting)
    monkeypatch.setattr(encoding, "radix_digits", counting)
    for kind, n in product(("tsp", "maxcut", "ewclique", "steiner"), (6, 8)):
        inst = generate_instance(kind, n, Gap((10**12, 7), (1, 30)), seed=1)
        calls.clear()
        res = run_meta(inst)
        assert calls == [res.stats["solution_terms"]]


def test_stats_keys_same_for_every_kind():
    gap = Gap((2**63 + 29, 5), (1, 6))
    keys = {}
    for kind in SOLVER_SPECS:
        inst = generate_instance(kind, 6, gap, seed=4)
        res = run_meta(inst)
        stats = res.stats
        keys[kind] = set(stats) - {"sequence"}
        # plain ints, not numpy scalars, so the JSON report can dump them
        plain = [res.optimum, res.encoded_optimum, *res.coords,
                 stats["solution_terms"], stats["optimal_count"]]
        assert all(type(v) is int or v is None for v in plain), (kind, plain)
        json.dumps([plain, stats])
        assert ("sequence" in stats) == (kind == "minplusconv")
        if not SOLVER_SPECS[kind].counts:
            assert stats["optimal_count"] is None
    assert len({frozenset(k) for k in keys.values()}) == 1, keys


SOLVER_NAMES = {"tsp": "tsp_algebraic", "maxcut": "maxcut_algebraic",
                "ewclique": "ewclique_algebraic", "steiner": "steiner_algebraic",
                "minplusconv": "minplus_selfconv_min"}


@pytest.mark.parametrize("kind", sorted(SOLVER_NAMES))
def test_run_meta_calls_each_solver_by_name(kind, monkeypatch):
    # perfbench/tracing.py times a solver by replacing its name in the
    # solvers module's globals: a table entry holding the function object
    # itself would run untimed
    assert set(SOLVER_NAMES) == set(SOLVER_SPECS)
    name, calls = SOLVER_NAMES[kind], []
    real = getattr(solvers, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, name, spy)
    inst = generate_instance(kind, 6, Gap((10**12, 7), (1, 30)), seed=1)
    res = run_meta(inst)
    assert calls == [name]
    oracle = SOLVER_SPECS[kind].oracle(inst)
    assert res.stats.get("sequence", res.optimum) == oracle


def test_run_meta_is_kind_agnostic(monkeypatch):
    # a kind added to SOLVER_SPECS runs through run_meta with no edit to
    # meta.py, and what its solve writes into stats reaches the result
    def heaviest_edge(inst, enc, egap, stats):
        stats["edges_seen"] = len(inst.edges)
        exps = np.unique([enc[w] for *_, w in inst.edges])
        return exps, np.ones_like(exps)

    spec = SolverSpec("max", lambda inst: 1, heaviest_edge,
                      lambda inst: max(w for *_, w in inst.edges))
    monkeypatch.setitem(SOLVER_SPECS, "heaviest", spec)
    gap = Gap((10**12, 7), (1, 30))
    inst = ProblemInstance(kind="heaviest", n=4, gap=gap, edges=(
        (0, 1, 10**12 + 14), (1, 2, 70), (2, 3, 10**12), (0, 3, 7)))
    res = run_meta(inst)
    assert res.optimum == spec.oracle(inst) == 10**12 + 14
    assert res.stats["edges_seen"] == 4 and res.stats["optimal_count"] == 1
