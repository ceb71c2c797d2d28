import json
import os
import random
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import pytest

from gapsolve import SOLVER_SPECS, ProblemInstance, enlarge, errors
import gapsolve.cli as cli

from gapsolve.cli import main
from gapsolve.instances import parse_gap_spec, parse_instance, serialize_instance


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


GEN_ARGS = ["gen", "tsp", "--n", "6", "--gap", "d=1 x=7 L=20 offset=10^12",
            "--seed", "1"]


def test_gen_deterministic(capsys):
    code1, out1, _ = run(GEN_ARGS, capsys)
    code2, out2, _ = run(GEN_ARGS, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    inst, seed = parse_instance(out1)
    assert inst.kind == "tsp" and len(inst.edges) == 15 and seed == 1
    # all weights lie on the offset AP
    for _, _, w in inst.edges:
        assert w % 7 in (0, 10**12 % 7)


def test_gen_roundtrip(capsys):
    _, out, _ = run(GEN_ARGS, capsys)
    inst, seed = parse_instance(out)
    assert serialize_instance(inst, seed=seed) == out


def test_solve_text_and_json(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    code, out, _ = run(GEN_ARGS + ["-o", str(path)], capsys)
    assert code == 0
    code, out, _ = run(["solve", str(path)], capsys)
    assert code == 0
    assert "optimum" in out and "|G'| bound" in out
    assert "doubling constant" not in out
    code, out, _ = run(["solve", str(path), "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 2
    assert report["kind"] == "tsp"
    assert report["optimum"] > 10**12
    assert "permutation_size" in report


def test_solve_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    for text, msg in [("nonsense\n", "content outside any section: 'nonsense'"),
                      ("problem\nkind maxcut\nn 3\nedges\n0 1 x\n",
                       "invalid literal for int() with base 10: 'x'"),
                      ("problem\nkind maxcut\nn 3\ngap\n1\n5\n-1\n",
                       "bounds must be non-negative")]:
        path.write_text(text)
        assert run(["solve", str(path)], capsys) == (1, "", f"error: {msg}\n")
    missing = tmp_path / "missing.txt"
    assert run(["solve", str(missing)], capsys) == (
        1, "", f"error: [Errno 2] No such file or directory: '{missing}'\n")
    path.write_bytes(b"\xff\n")
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, out) == (1, "") and err.startswith("error: 'utf-8' codec")


@pytest.mark.parametrize("spec", ["d=2 x=zz L=1", "d=2 x=3 L=1", "x=3,5 L=1"])
def test_solve_and_gen_bad_gap_flag_exit_1(tmp_path, capsys, spec):
    path = tmp_path / "inst.txt"
    run(GEN_ARGS + ["-o", str(path)], capsys)
    for argv in (["solve", str(path), "--gap", spec],
                 ["gen", "tsp", "--n", "4", "--gap", spec]):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


@pytest.mark.parametrize("spec", ["d=2 x=zz L=1", "d=2 x=3 L=1"])
def test_verify_bad_gap_exit_1(tmp_path, capsys, spec):
    path = tmp_path / "inst.txt"
    run(GEN_ARGS + ["-o", str(path)], capsys)
    for argv in (["verify", "--sweep", "1", "--gap", spec],
                 ["verify", str(path), "--gap", spec]):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""


def test_verify_file_uses_gap_flag(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run(GEN_ARGS + ["-o", str(path)], capsys)
    # a valid cover other than the file's own: same verdict
    code, out, _ = run(["verify", str(path), "--gap", "d=2 x=10^12,7 L=1,20"],
                       capsys)
    assert code == 0 and out.startswith("PASS")
    # a cover that misses the weights is used, and fails
    code, _, err = run(["verify", str(path), "--gap", "d=1 x=5 L=3"], capsys)
    assert code == 1 and "not covered" in err


def test_verify_without_file_or_sweep_exit_1(capsys):
    code, out, err = run(["verify"], capsys)
    assert code == 1
    assert err.startswith("error: ") and out == ""


@pytest.mark.parametrize("argv, message", [
    (["verify", "--sweep", "-2", "--gap", "d=1 x=1 L=3"], "--sweep -2 is negative"),
    (["verify", "--sweep", "2"], "--sweep requires --gap"),
    (["verify"], "verify needs an instance file or --sweep"),
], ids=["negative-sweep", "sweep-without-gap", "no-file-no-sweep"])
def test_verify_bad_flags_exact_stderr(argv, message, capsys):
    assert run(argv, capsys) == (1, "", f"error: {message}\n")


SEVENS = ("problem\nkind tsp\nn 4\nedges\n"
          "0 1 7\n0 2 14\n0 3 21\n1 2 28\n1 3 35\n2 3 42\n")


def test_given_gap_missing_a_weight_exit_1(tmp_path, capsys):
    # weights 7, 14, ..., 42; L=5 leaves out 42 alone
    bare = tmp_path / "bare.txt"
    bare.write_text(SEVENS)
    in_file = tmp_path / "in_file.txt"
    in_file.write_text(SEVENS + "gap\n1\n7\n5\n")
    for argv in (["solve", str(bare), "--gap", "d=1 x=7 L=5"],
                 ["verify", str(bare), "--gap", "d=1 x=7 L=5"],
                 ["solve", str(in_file)]):
        code, out, err = run(argv, capsys)
        assert code == 1, argv
        assert err == "error: weight 42 is not covered by the GAP\n" and out == ""


def test_invariant_violated_exit_5(tmp_path, capsys, monkeypatch):
    import gapsolve.solvers as solvers

    path = tmp_path / "clique.txt"
    run(["gen", "ewclique", "--n", "6", "--gap", "d=1 x=3 L=9", "--k", "3",
         "--seed", "1", "-o", str(path)], capsys)
    build = solvers.build_auxiliary_graph

    def odd_edges(*args):
        nodes, internal, hedges = build(*args)
        return nodes, internal, hedges + [0, 0, 1]

    monkeypatch.setattr(solvers, "build_auxiliary_graph", odd_edges)
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 5
    assert err.startswith("internal error: triangle weight") and out == ""


def test_missing_h_edge_raises_invariant_violated_exit_5(tmp_path, capsys, monkeypatch):
    import gapsolve.solvers as solvers
    from gapsolve import run_meta
    from gapsolve.errors import InvariantViolated

    path = tmp_path / "clique6.txt"
    run(["gen", "ewclique", "--n", "8", "--gap", "d=1 x=3 L=9", "--k", "6",
         "--seed", "1", "-o", str(path)], capsys)
    inst, _ = parse_instance(path.read_text())
    build = solvers.build_auxiliary_graph

    def drop_first_edge(*args):
        nodes, internal, hedges = build(*args)
        return nodes, internal, hedges[1:]

    monkeypatch.setattr(solvers, "build_auxiliary_graph", drop_first_edge)
    with pytest.raises(InvariantViolated, match="triangles"):
        run_meta(inst)
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 5
    assert err.startswith("internal error: ") and out == ""


def test_solve_no_cover_exit_2(tmp_path, capsys):
    import random

    rng = random.Random(0)
    lines = ["problem", "kind maxcut", "n 6", "edges"]
    for u in range(6):
        for v in range(u + 1, 6):
            lines.append(f"{u} {v} {rng.randrange(10**15)}")
    path = tmp_path / "wild.txt"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(["solve", str(path), "--volume-budget", "1000"], capsys)
    assert code == 2


def test_solve_infeasible_exit_3(tmp_path, capsys):
    path = tmp_path / "path.txt"
    path.write_text(
        "problem\nkind tsp\nn 4\nedges\n0 1 5\n1 2 5\n2 3 5\n"
    )
    code, _, err = run(["solve", str(path)], capsys)
    assert code == 3


def test_solve_k_not_divisible_by_3_exit_1(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text("problem\nkind ewclique\nn 6\nk 4\nedges\n0 1 3\n1 2 6\n")
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 1
    assert err == "error: k = 4\n" and out == ""


def test_solve_minplus_fft_grid_over_budget_solves_on_pairs(tmp_path, capsys):
    # two values whose sums reach 1.8*10^7, so the padded FFT grid of
    # 3 x 18874368 slots at 80 bits each passes the 2^32-bit table budget,
    # while the pair table of 2 x 2 sums and its rank lookup fit
    path = tmp_path / "wide.txt"
    path.write_text("problem\nkind minplusconv\nsequence\n0 9000000\n"
                    "gap\n1\n1\n9000000\n")
    code, out, err = run(["solve", str(path), "--json"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["sequence"] == [0, 9000000, 18000000]


def test_solve_minplus_both_tables_over_budget_exit_2(tmp_path, capsys):
    # sums reach 1.4*10^8: the pair table's rank lookup over its value sums
    # and the 3 x 143327232 FFT grid both pass the 2^32-bit table budget
    path = tmp_path / "wider.txt"
    path.write_text("problem\nkind minplusconv\nsequence\n0 70000000\n"
                    "gap\n1\n1\n70000000\n")
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: pair table of 2x2 sums (")
    assert "and FFT grid of 3x143327232 slots" in err


def test_solve_minplus_small_sums_on_wide_gap(tmp_path, capsys):
    # the GAP bound of 9*10^6 makes the encoded range 1.8*10^7 wide, but the
    # sums of 0 and 1 stay below 3, so the FFT grid is 3 x 3
    path = tmp_path / "narrow.txt"
    path.write_text("problem\nkind minplusconv\nsequence\n0 1\n"
                    "gap\n1\n1\n9000000\n")
    code, out, err = run(["solve", str(path), "--json"], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["sequence"] == [0, 1, 2]
    assert report["encoded_range_bound"] == 18000001


def test_solve_ewclique_auxiliary_matrix_over_budget_exit_2(tmp_path, capsys):
    # k = 9 on the complete graph K_40: C(40, 3) = 9880 triangles would need
    # a 9880 x 9880 float64 product, past the 2^32-bit budget
    path = tmp_path / "k40.txt"
    path.write_text("problem\nkind ewclique\nn 40\nk 9\nedges\n" + "".join(
        f"{u} {v} {1 + (u + v) % 3}\n" for u in range(40) for v in range(u + 1, 40)))
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: 9880 x 9880 float64 node products exceed 2^32 bits\n"


def test_solve_steiner_table_over_budget_exit_2(tmp_path, capsys):
    # 30 terminals on a 40-vertex path: the Dreyfus-Wagner table of 2^29
    # subsets x 40 roots is refused before it is built
    from gapsolve import ProblemInstance

    path = tmp_path / "path40.txt"
    path.write_text(serialize_instance(ProblemInstance(
        kind="steiner", n=40, terminals=tuple(range(30)),
        edges=tuple((v, v + 1, 1 + v % 3) for v in range(39)))))
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == ("error: Dreyfus-Wagner tables of 1 limbs x 2^29 subsets x 40 "
                   "vertices exceed 2^32 bits\n")


def test_verify_pass_and_sweep(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run(GEN_ARGS + ["-o", str(path)], capsys)
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(
        ["verify", "--sweep", "5", "--kind", "maxcut", "--n", "7",
         "--gap", "d=1 x=3 L=9 offset=50", "--seed", "2"],
        capsys,
    )
    assert code == 0
    assert out.count("PASS") == 5


def test_verify_disconnected_steiner_infeasible_both(tmp_path, capsys):
    path = tmp_path / "st.txt"
    path.write_text(
        "problem\nkind steiner\nn 4\nterminals 0 3\nedges\n0 1 2\n2 3 2\n"
    )
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0 and "infeasible" in out.lower()


def test_analyze(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    run(GEN_ARGS + ["-o", str(path)], capsys)
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == 0
    assert "|A|" in out and "C(A)" in out and "gap" in out


def test_analyze_bounds_sumsets_by_volume_budget(tmp_path, capsys):
    # 120 random weights: |2A| * |A| = 871,200 sums fit the default budget,
    # so 3A is formed, but |3A| * |A| = 35.4 M do not, so 4A is skipped
    weights = random.Random(0).sample(range(10**9), 120)
    edges = [(u, v) for u in range(16) for v in range(u + 1, 16)]
    path = tmp_path / "wide.txt"
    path.write_text("problem\nkind maxcut\nn 16\nedges\n" + "".join(
        f"{u} {v} {w}\n" for (u, v), w in zip(edges, weights)))
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == 0
    assert "|A+A|      7260\n" in out
    assert "|3A|      295218\n" in out and "|4A|      skipped\n" in out
    assert out.endswith("gap        none found\n")  # the search fails


def test_analyze_bounds_a_plus_a_by_volume_budget(tmp_path, capsys):
    # |A| = 10, so A + A takes 100 sums: a budget of 99 skips every sumset
    path = tmp_path / "ten.txt"
    path.write_text("problem\nkind minplusconv\nsequence\n"
                    + " ".join(str(3**i) for i in range(10)) + "\n")
    code, out, _ = run(["analyze", str(path), "--volume-budget", "99"], capsys)
    assert code == 0
    assert out.startswith("|A|        10\n|A+A|      skipped\nC(A)       skipped\n"
                          "|1A|      10\n|2A|      skipped\n|3A|      skipped\n"
                          "|4A|      skipped\n")
    code, out, _ = run(["analyze", str(path), "--volume-budget", "100"], capsys)
    assert code == 0
    assert "|A+A|      55\nC(A)       11/2\n" in out and "|2A|      55\n" in out


def test_analyze_prints_cover_volume(tmp_path, capsys):
    # G's 62 weights and no gap section: the search finds the planted cover
    weights = [10**12 * l1 + 7 * l2 for l1 in range(2) for l2 in range(31)]
    path = tmp_path / "g.txt"
    path.write_text("problem\nkind minplusconv\nsequence\n"
                    + " ".join(map(str, weights)) + "\n")
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == 0
    assert out.endswith("gap gens   [1000000000000, 7]\ngap bounds [1, 30]\n"
                        "gap volume 62 (1.00 x |A|)\n")


def test_analyze_sidon_doubling(tmp_path, capsys):
    lines = ["problem", "kind maxcut", "n 4", "edges",
             "0 1 3", "0 2 5", "0 3 9", "1 2 17"]
    path = tmp_path / "sidon.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == 0
    assert "C(A)       5/2" in out


@pytest.mark.parametrize("spec", ["d=2 x=zz L=1", "d=2 x=3 L=1", "x=3,5 L=1",
                                  "x=3 L=-1", "x=3", "x=3 L=1 offset=q",
                                  "x=2^-1 L=3", "x=3 L=1 ofset=5", "x=3 L=1 offset=-5",
                                  "x=3 L=1 offset=0^-1"])
def test_parse_gap_spec_errors(spec):
    from gapsolve.errors import ParseError

    with pytest.raises(ParseError):
        parse_gap_spec(spec)


def test_unknown_section_rejected():
    from gapsolve.errors import ParseError

    with pytest.raises(ParseError):
        parse_instance("problem\nkind tsp\nn 3\nmystery\nx y z\n")


@pytest.mark.parametrize("body", ["n x", "n 3\nedges\n0 1 x", "n 3\nedges\n0 1 2^x",
                                  "n 3\nterminals a", "n 3\ngap\nq\n1\n3",
                                  "n 3\ngap\n1\n5\n-1", "n 3\nseed\nzz",
                                  "n 3\nedges\n0 1 2^-1", "n 3\ngap\n1\n0^-1\n3"])
def test_parse_instance_bad_token(body):
    from gapsolve.errors import ParseError

    with pytest.raises(ParseError):
        parse_instance(f"problem\nkind maxcut\n{body}\n")


REPORT_KEYS = {"schema_version", "kind", "optimum", "encoded_optimum", "coords",
               "gap", "lambda", "encoded_range_bound", "permutation_size",
               "wall_time"}


@pytest.mark.parametrize("kind, cover", [
    ("maxcut", "d=2 x=10^12,7 L=1,4"),
    # 15 edges: |G'| = 15 * 10^6 + 1 is above 10^7 and is still reported
    ("maxcut", "d=1 x=1 L=10^6"),
    ("minplusconv", "d=2 x=10^12,7 L=1,4"),
], ids=["maxcut", "maxcut-above-1e7", "minplusconv"])
def test_solve_json_key_set(tmp_path, capsys, kind, cover):
    path = tmp_path / "inst.txt"
    run(["gen", kind, "--n", "6", "--gap", "d=1 x=7 L=4", "--seed", "3",
         "-o", str(path)], capsys)
    code, out, _ = run(["solve", str(path), "--json", "--gap", cover], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == REPORT_KEYS | ({"sequence"} if kind == "minplusconv" else set())
    assert report["schema_version"] == 2
    egap = enlarge(parse_gap_spec(cover), report["lambda"])
    assert report["permutation_size"] == report["encoded_range_bound"] == egap.volume


def test_solve_wall_time_covers_parse(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.txt"
    run(GEN_ARGS + ["-o", str(path)], capsys)
    parse = cli.parse_instance

    def slow_parse(text):
        time.sleep(0.2)
        return parse(text)

    monkeypatch.setattr(cli, "parse_instance", slow_parse)
    code, out, _ = run(["solve", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["wall_time"] >= 0.2
    code, out, _ = run(["solve", str(path)], capsys)
    wall = next(ln for ln in out.splitlines() if ln.startswith("wall time"))
    assert float(wall.split()[-1].rstrip("s")) >= 0.2


@pytest.mark.parametrize("argv", [["solve", "f.txt", "--bogus"], ["frobnicate"],
                                  ["solve"], ["gen", "tsp", "--n", "x", "--gap", "x=1 L=1"],
                                  ["gen", "bogus", "--n", "4", "--gap", "d=1 x=3 L=5"],
                                  ["solve", "f.txt", "--max-dim", "0"],
                                  ["verify", "--max-dim", "4"],
                                  ["analyze", "f.txt", "--max-dim", "0"],
                                  ["verify", "--sweep", "1", "--kind", "maxcut", "--n", "5",
                                   "--gap", "d=1 x=3 L=5", "--json"],
                                  ["verify", "f.txt", "--perm-budget", "0"],
                                  ["solve", "f.txt", "--perm-budget", "0"]])
def test_usage_error_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage: gapsolve" in err and "error: " in err


@pytest.mark.parametrize("argv", [
    ["gen", "steiner", "--n", "5", "--terminals", "1", "--gap", "d=1 x=3 L=5"],
    ["gen", "tsp", "--n", "-2", "--gap", "d=1 x=3 L=5"],
    ["gen", "ewclique", "--n", "4", "--k", "-3", "--gap", "d=1 x=3 L=5"],
    ["verify", "--sweep", "1", "--kind", "minplusconv", "--n", "0",
     "--gap", "d=1 x=3 L=5"],
    # gen refuses what solve would refuse
    ["gen", "ewclique", "--n", "6", "--k", "4", "--gap", "d=1 x=3 L=5"],
    ["gen", "ewclique", "--n", "6", "--k", "0", "--gap", "d=1 x=3 L=5"],
    ["gen", "steiner", "--n", "3", "--terminals", "9", "--gap", "d=1 x=3 L=5"],
    # a negative exponent, an unknown or a negative gap field
    ["gen", "tsp", "--n", "4", "--gap", "d=1 x=2^-1 L=3"],
    ["gen", "tsp", "--n", "4", "--gap", "d=1 x=3 L=5 ofset=5"],
    ["verify", "--sweep", "1", "--gap", "d=1 x=3 L=5 offset=-5"],
    # a missing instance file
    ["solve", "no-such-file.txt"],
    ["verify", "no-such-file.txt"],
    ["analyze", "no-such-file.txt"],
    # a negative steiner terminal count, in gen and in a sweep
    ["gen", "steiner", "--n", "5", "--terminals", "-1", "--gap", "d=1 x=1 L=3"],
    ["verify", "--sweep", "1", "--kind", "steiner", "--terminals", "-1",
     "--gap", "d=1 x=1 L=3"],
    # a negative sweep count
    ["verify", "--sweep", "-2", "--gap", "d=1 x=1 L=3"],
])
def test_invalid_instance_exit_1(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_gen_into_missing_directory_exit_1(tmp_path, capsys):
    path = tmp_path / "missing" / "f.txt"
    code, out, err = run(["gen", "tsp", "--n", "3", "--gap", "d=1 x=1 L=3",
                          "-o", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == "" and not path.parent.exists()


def test_solve_negative_sequence_exit_1(tmp_path, capsys):
    path = tmp_path / "neg.txt"
    path.write_text("problem\nkind minplusconv\nsequence\n-1 2\n")
    code, _, err = run(["solve", str(path)], capsys)
    assert code == 1
    assert err == "error: weights must be non-negative\n"


def test_graph_without_edges(tmp_path, capsys):
    path = tmp_path / "bare.txt"
    path.write_text("problem\nkind maxcut\nn 3\n")
    code, out, _ = run(["solve", str(path), "--json"], capsys)
    assert code == 0 and json.loads(out)["optimum"] == 0
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0 and out == "PASS: meta=0 oracle=0\n"
    code, out, _ = run(["analyze", str(path)], capsys)
    assert code == 0 and "|A|        1" in out
    for argv in (["--kind", "maxcut", "--n", "1"],
                 ["--kind", "maxcut", "--n", "5", "--density", "0"],
                 ["--kind", "tsp", "--n", "1"]):
        code, out, err = run(["verify", "--sweep", "2", "--gap", "d=1 x=3 L=5"]
                             + argv, capsys)
        assert code == 0 and "Traceback" not in err, (argv, err)
        assert out.count("PASS") + out.count("INFEASIBLE") == 2, (argv, out)


def test_tsp_without_vertices_is_infeasible(tmp_path, capsys):
    # lambda is max(1, n) for tsp as for every kind, so n = 0 reaches the solver
    path = tmp_path / "empty.txt"
    path.write_text("problem\nkind tsp\nn 0\n")
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 3 and out == "" and err.startswith("infeasible: ")
    code, out, err = run(["verify", "--sweep", "1", "--kind", "tsp", "--n", "0",
                          "--gap", "d=1 x=3 L=5"], capsys)
    assert (code, out, err) == (0, "[0] INFEASIBLE: both report infeasible\n", "")



def test_maxcut_too_many_vertices_exit_2(tmp_path, capsys):
    # n = 30 lists 2^29 cut sums in about 4 s; n = 31 and above pass the
    # work cap and are refused before anything is allocated
    import tracemalloc

    from gapsolve import ProblemInstance, maxcut_algebraic

    tracemalloc.start()
    try:
        with pytest.raises(errors.BoundExceeded,
                           match="n = 31 pass the work cap of 2\\^29 \\(n = 30\\)$"):
            maxcut_algebraic(ProblemInstance(kind="maxcut", n=31), {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    path = tmp_path / "big.txt"
    path.write_text("problem\nkind maxcut\nn 34\nedges\n0 33 5\n")
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err == "error: 2^33 cut sums at n = 34 pass the work cap of 2^29 (n = 30)\n"


def test_solve_tsp_wide_spread_exit_2(tmp_path, capsys):
    # weights spread over 10^5 make Held-Karp cells too wide for the budget
    path = tmp_path / "wide.txt"
    code, _, _ = run(["gen", "tsp", "--n", "10", "--gap", "d=1 x=1 L=10^5",
                      "--seed", "1", "-o", str(path)], capsys)
    assert code == 0
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: Held-Karp cells for n = 10 ")

@pytest.mark.parametrize("kind", sorted(SOLVER_SPECS))
def test_gen_then_verify_every_kind(tmp_path, capsys, kind):
    # a kind added to SOLVER_SPECS reaches gen and verify with no other edit;
    # test_usage_error_exit_1 checks that an unknown kind exits 1
    path = tmp_path / f"{kind}.txt"
    code, _, _ = run(["gen", kind, "--n", "6", "--gap", "d=2 x=2^63,5 L=2,6",
                      "--seed", "4", "-o", str(path)], capsys)
    assert code == 0
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 0 and out.startswith("PASS: "), (out, err)


def test_verify_sweep_every_kind_under_python_O():
    # the whole table, with every assert statement stripped
    script = textwrap.dedent("""
        from gapsolve.cli import main
        from gapsolve.solvers import SOLVER_SPECS

        assert False, "asserts are not stripped"
        for kind in SOLVER_SPECS:
            code = main(["verify", "--sweep", "2", "--kind", kind, "--n", "6",
                         "--gap", "d=2 x=2^63,5 L=2,6", "--seed", "5"])
            print(kind, code)
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    for kind in SOLVER_SPECS:
        assert f"{kind} 0" in lines, out.stdout
    assert sum("] PASS: " in ln for ln in lines) == 2 * len(SOLVER_SPECS), out.stdout



ERROR_EXITS = {
    errors.ParseError: 1, errors.InvalidInstance: 1,
    errors.KNotDivisibleBy3: 1, errors.NotCovered: 1,
    errors.BudgetExceeded: 2, errors.NoCoverFound: 2,
    errors.BoundExceeded: 2, errors.TooLarge: 2, errors.TooManyDigits: 2,
    errors.InfeasibleInstance: 3, errors.Disconnected: 3,
    errors.GapsolveError: 5, errors.InvariantViolated: 5,
    errors.OutOfRange: 5, errors.OutOfBounds: 5,
}


@pytest.mark.parametrize("exc, code", [
    *((cls("boom"), code) for cls, code in ERROR_EXITS.items()),
    (OSError("boom"), 1),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "boom"), 1),
], ids=lambda v: str(v) if isinstance(v, int) else type(v).__name__)
def test_every_error_type_has_its_exit_code(exc, code, capsys, monkeypatch):
    # a new error type must declare its exit family in ERROR_EXITS
    assert set(ERROR_EXITS) == {cls for cls in vars(errors).values()
                                if isinstance(cls, type) and issubclass(cls, errors.GapsolveError)}

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    prefix = {3: "infeasible", 5: "internal error"}.get(code, "error")
    assert run(["analyze", "f.txt"], capsys) == (code, "", f"{prefix}: {exc}\n")


def test_parser_built_once_by_three_calls(capsys, monkeypatch):
    builds = []
    build = cli._build_parser

    def spy():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", spy)
    assert run(["analyze", "no-such-file.txt"], capsys)[0] == 1
    with pytest.raises(SystemExit):
        main(["solve"])
    assert run(["verify"], capsys)[0] == 1
    assert len(builds) == 1
    # the tree holds names, not functions: cmd_* are looked up per call
    args = cli._PARSER.parse_args(["analyze", "f.txt"])
    assert not any(callable(v) for v in vars(args).values())


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    # weights on a 2-dim GAP: a 1-dim cover is over the volume budget
    path = tmp_path / "inst.txt"
    run(["gen", "tsp", "--n", "6", "--gap", "d=2 x=10^12,7 L=1,20", "--seed", "2",
         "-o", str(path)], capsys)
    inst, _ = parse_instance(path.read_text())
    bare = tmp_path / "bare.txt"
    bare.write_text(serialize_instance(replace(inst, gap=None)))

    def report(argv):
        code, out, err = run(argv, capsys)
        assert code == 0, err
        return json.loads(out)

    # --gap, then the file's own cover
    rep = report(["solve", str(path), "--json", "--gap", "d=2 x=10^12,7 L=1,40"])
    assert rep["gap"] == {"generators": [10**12, 7], "bounds": [1, 40]}
    rep = report(["solve", str(path), "--json"])
    assert rep["gap"] == {"generators": list(inst.gap.generators),
                          "bounds": list(inst.gap.bounds)}
    # --max-dim 1, then the default 3
    code, out, err = run(["solve", str(bare), "--max-dim", "1"], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert len(report(["solve", str(bare), "--json"])["gap"]["generators"]) == 2
    # a usage error, then a valid command
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(path), "--sweep", "2"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert report(["solve", str(path), "--json"])["optimum"] == rep["optimum"]
    # a sweep, then one file
    code, out, _ = run(["verify", "--sweep", "2", "--kind", "maxcut", "--n", "5",
                        "--gap", "d=1 x=3 L=5", "--seed", "3"], capsys)
    assert code == 0 and out.count("] PASS: ") == 2
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0 and out == f"PASS: meta={rep['optimum']} oracle={rep['optimum']}\n"


def test_power_past_the_digit_limit_refused():
    import tracemalloc

    from gapsolve.errors import ParseError
    from gapsolve.instances import parse_int

    # the same limit as a decimal literal's
    assert parse_int("10^4299") == int("1" + "0" * 4299)
    assert parse_int("-10^4299") == -(10**4299)
    assert parse_int("2^14284") == 2**14284  # 4300 digits
    with pytest.raises(ValueError):
        int("1" + "0" * 4300)
    for tok in ("10^4300", "2^14285", "-10^4300", "10^3000000", "7^2000000",
                "10^1000000000", "3^" + "9" * 4000):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                parse_int(tok)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, (tok, peak)
        assert str(exc.value) == f"{tok!r} has more than 4300 digits"
    # a bounded power of any size
    assert parse_int("1^" + "9" * 4000) == 1 and parse_int("0^5") == 0
    assert parse_int("0^0") == 1
    with pytest.raises(ParseError, match="'7\\^2000000' has more than 4300 digits"):
        parse_instance("problem\nkind maxcut\nn 2\nedges\n0 1 7^2000000\n")
    with pytest.raises(ParseError, match="has more than 4300 digits"):
        parse_gap_spec("d=1 x=10^3000000 L=1")
    # the limit follows Python's own
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert parse_int("10^4999") == 10**4999
        with pytest.raises(ValueError, match="has more than 5000 digits"):
            parse_int("10^5000")
    finally:
        sys.set_int_max_str_digits(limit)


def test_power_past_the_digit_limit_exit_1(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("problem\nkind maxcut\nn 2\nedges\n0 1 7^2000000\n")
    assert run(["solve", str(path)], capsys) == (
        1, "", "error: '7^2000000' has more than 4300 digits\n")
    path.write_text("problem\nkind maxcut\nn 2\nedges\n0 1 7\n")
    code, out, err = run(["solve", str(path), "--gap", "d=1 x=10^3000000 L=1"], capsys)
    assert (code, out) == (1, "") and err.endswith("has more than 4300 digits\n")


@pytest.mark.parametrize("argv", [
    ["gen", "tsp", "--n", "3", "--gap", "d=1 x=10^4299 L=20", "--seed", "1"],
    ["solve", "{path}"],
    ["solve", "{path}", "--json"],
    ["verify", "{path}"],
], ids=["gen", "solve", "solve-json", "verify"])
def test_number_past_the_digit_limit_exit_2(argv, tmp_path, capsys):
    # gen draws up to 20 * 10^4299, 4301 digits; the file's weights have
    # 4300, the most int() reads, and its optimum 3 * 9 * 10^4299 has 4301
    path = tmp_path / "wide.txt"
    w = 9 * 10**4299
    path.write_text(f"problem\nkind tsp\nn 3\nedges\n0 1 {w}\n0 2 {w}\n1 2 {w}\n")
    code, out, err = run([a.format(path=path) for a in argv], capsys)
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err
    assert err.startswith("error: ") and "more than 4300 digits" in err


@pytest.mark.parametrize("argv", [
    ["gen", "tsp", "--n", "3", "--seed", "1"],
    ["verify", "--sweep", "1", "--kind", "tsp", "--n", "4"],
], ids=["gen", "verify-sweep"])
def test_enumerated_volume_past_the_digit_limit_exit_2(argv, capsys):
    # the GAP's volume, (10^4299 + 1)^2, has 8599 digits: the enumeration
    # budget's refusal names its bit length, not its value
    code, out, err = run(argv + ["--gap", "d=2 x=1,3 L=10^4299,10^4299"], capsys)
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err
    assert err.startswith("error: ") and "bits exceeds budget" in err


@pytest.mark.parametrize("fields, body, message", [
    (dict(kind="knapsack", n=2), "kind knapsack\nn 2\n", "unknown kind 'knapsack'"),
    (dict(kind="steiner", n=2, terminals=(0,)), "kind steiner\nn 2\nterminals 0\n",
     "steiner needs >= 2 terminals"),
    (dict(kind="steiner", n=2, terminals=(0, 2)), "kind steiner\nn 2\nterminals 0 2\n",
     "terminal out of range"),
], ids=["kind", "one-terminal", "terminal-range"])
def test_problem_instance_refusals_exit_1(fields, body, message, tmp_path, capsys):
    # ProblemInstance refuses each one itself, and `solve` exits 1 on its file
    with pytest.raises(errors.InvalidInstance, match=message):
        ProblemInstance(edges=((0, 1, 1),), **fields)
    path = tmp_path / "bad.txt"
    path.write_text(f"problem\n{body}edges\n0 1 1\n")
    assert run(["solve", str(path)], capsys) == (1, "", f"error: {message}\n")


def test_analyze_volume_past_the_digit_limit_exit_2(tmp_path, capsys):
    # the given GAP's volume, (10^4299 + 1)^2, has 8599 digits
    path = tmp_path / "wide-gap.txt"
    path.write_text("problem\nkind tsp\nn 3\nedges\n0 1 1\n0 2 2\n1 2 3\n"
                    "gap\n2\n1 2\n10^4299 10^4299\n")
    code, out, err = run(["analyze", str(path)], capsys)
    assert code == 2 and "gap volume" not in out
    assert "Traceback" not in err
    assert err == "error: the analysis holds a number of more than 4300 digits\n"


HUGE_COVER_BODIES = {
    "tsp": "n 3\nedges\n0 1 3\n0 2 5\n1 2 7\n",
    "maxcut": "n 3\nedges\n0 1 3\n0 2 5\n1 2 7\n",
    "ewclique": "n 3\nk 3\nedges\n0 1 3\n0 2 5\n1 2 7\n",
    # the tree 0-1 is the edge of weight 3, encoded at 2 * 10^4299 + 1
    "steiner": "n 3\nterminals 0 1\nedges\n0 1 3\n0 2 5\n1 2 7\n",
    "minplusconv": "sequence\n3 5 7\n",
}


@pytest.mark.parametrize("kind", sorted(HUGE_COVER_BODIES))
def test_solve_encoding_past_the_digit_limit_exit_2(kind, tmp_path, capsys):
    # the weights' encodings over bounds of 10^4299 have more than 4300
    # digits: each refusal names their bit length, not their value, and
    # min-plus refuses them before it prices its tables
    path = tmp_path / f"{kind}.txt"
    path.write_text(f"problem\nkind {kind}\n{HUGE_COVER_BODIES[kind]}"
                    "gap\n3\n1 3 5\n10^4299 10^4299 10^4299\n")
    start = time.perf_counter()
    code, out, err = run(["solve", str(path)], capsys)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ") and err.endswith("bits is not below 2^62\n")
    assert "Traceback" not in err
    assert time.perf_counter() - start < 5
