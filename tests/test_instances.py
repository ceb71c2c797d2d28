"""Differential tests: the bulk instance parser and edge check against the
loops they replaced.

`ref_parse_instance` is the per-line parser and `_RefInstance.__post_init__`
the per-edge check that ran before the edges and sequence sections were
converted with one split and the edge tuple checked column by column; both
are kept here verbatim (renamed), save the integer-endpoint and
integer-weight rules added to _RefInstance.  On a seeded corpus of every
kind, with 10^k tokens, comments, blank lines, CRLF line ends and injected
faults, the package must return an equal instance, or raise the same error
type with the same message: the first fault, in file order, wins.
"""

import random
from dataclasses import astuple, dataclass

import numpy as np
import pytest

from gapsolve import SOLVER_SPECS, Gap, ProblemInstance, run_meta
from gapsolve.errors import InvalidInstance, ParseError
from gapsolve.instances import (
    SECTIONS,
    generate_instance,
    parse_int,
    parse_instance,
    serialize_instance,
)


@dataclass(frozen=True)
class _RefInstance(ProblemInstance):
    """The per-edge check as it ran before the column check, plus the
    integer-endpoint rule, last in the loop, and the integer-weight rule,
    last of all, as the package checks them."""

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
            if (type(u) is not int or type(v) is not int) and not (
                    hasattr(type(u), "__index__") and hasattr(type(v), "__index__")):
                raise InvalidInstance("edge endpoints must be integers")
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
        if any(not hasattr(type(w), "__index__") for _, _, w in self.edges):
            raise InvalidInstance("weights must be integers")


def ref_parse_instance(text):
    """Parse an instance file; returns (ProblemInstance, seed-or-None)."""
    lines = [ln.strip() for ln in text.splitlines()]
    sections = {}
    current = None
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        head = ln.split()[0]
        if head in SECTIONS and ln == head:
            if head in sections:
                raise ParseError(f"duplicate section {head!r}")
            current = sections.setdefault(head, [])
            continue
        if current is None:
            raise ParseError(f"content outside any section: {ln!r}")
        current.append(ln)
    if "problem" not in sections:
        raise ParseError("missing problem section")

    meta = {}
    for ln in sections["problem"]:
        parts = ln.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("kind", "n", "k", "terminals"):
            raise ParseError(f"bad problem line {ln!r}")
        meta[parts[0]] = parts[1]
    kind = meta.get("kind")
    if kind is None:
        raise ParseError("problem section missing kind")

    try:  # a bad integer or an invalid Gap or instance is a ParseError
        edges = []
        for ln in sections.get("edges", []):
            toks = ln.split()
            if len(toks) != 3:
                raise ParseError(f"bad edge line {ln!r}")
            edges.append((int(toks[0]), int(toks[1]), parse_int(toks[2])))

        sequence = []
        for ln in sections.get("sequence", []):
            sequence.extend(parse_int(t) for t in ln.split())

        gap = None
        if "gap" in sections:
            gl = sections["gap"]
            if len(gl) != 3:
                raise ParseError("gap section must be 3 lines: d, generators, bounds")
            d = int(gl[0])
            gens = tuple(parse_int(t) for t in gl[1].split())
            bounds = tuple(parse_int(t) for t in gl[2].split())
            if len(gens) != d or len(bounds) != d:
                raise ParseError("gap dimension mismatch")
            gap = Gap(gens, bounds)

        seed = None
        if "seed" in sections:
            if len(sections["seed"]) != 1:
                raise ParseError("seed section must be a single line")
            seed = int(sections["seed"][0])

        inst = _RefInstance(
            kind=kind,
            n=int(meta.get("n", "0")),
            edges=tuple(edges),
            k=int(meta.get("k", "0")),
            terminals=tuple(int(t) for t in meta.get("terminals", "").split()),
            sequence=tuple(sequence),
            gap=gap,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return inst, seed


def outcome(fn):
    """('ok', fn's result) or ('raised', the error's type, its message)."""
    try:
        return "ok", fn()
    except Exception as exc:  # compared by the caller, type and message
        return "raised", type(exc), str(exc)


def assert_same_parse(text):
    def parsed(parse):
        inst, seed = parse(text)
        return astuple(inst), seed

    expected = outcome(lambda: parsed(ref_parse_instance))
    assert outcome(lambda: parsed(parse_instance)) == expected, text[:300]
    return expected


GAPS = (Gap((10**12, 7), (1, 30)), Gap((2**63 + 29, 2**61 + 3), (3, 12)),
        Gap((1,), (9,)))


def corpus():
    """Seeded canonical files of every kind, on small and 2^63-scale covers."""
    rng = random.Random(25)
    texts = []
    for kind in sorted(SOLVER_SPECS):
        for gap in GAPS:
            for _ in range(3):
                n = rng.randint(4, 12)
                inst = generate_instance(kind, n, gap, rng.randrange(10**6),
                                         density=rng.choice((0.3, 0.7, 1.0)), k=3,
                                         n_terminals=min(n, 3))
                texts.append(serialize_instance(inst, seed=rng.choice((None, 7))))
    return texts


CORPUS = corpus()


def edge_bounds(lines):
    """The indices of the first and past the last edge line."""
    lo = lines.index("edges") + 1
    hi = lo
    while hi < len(lines) and lines[hi] not in SECTIONS:
        hi += 1
    return lo, hi


def styled(text, rng):
    """The same instance written differently: 10^k and 1^k tokens, comments,
    blank lines, runs of spaces and tabs, CRLF line ends."""
    out = []
    for ln in text.splitlines():
        toks = ln.split()
        if len(toks) == 3 and all(t.isdigit() for t in toks) and rng.random() < 0.3:
            toks[2] = rng.choice(("10^3", "1^40", "0^0", "2^10", "7^2"))
        if rng.random() < 0.2:
            out.append(rng.choice(("", "   ", "# a comment", "#edges")))
        sep = rng.choice((" ", "  ", "\t", " \t "))
        out.append(rng.choice(("", " ", "\t")) + sep.join(toks))
    return rng.choice(("\n", "\r\n")).join(out) + rng.choice(("", "\n", "\r\n"))


def test_corpus_parses_equal():
    assert len(CORPUS) == 45
    for text in CORPUS:
        assert assert_same_parse(text)[0] == "ok"


def test_styled_corpus_parses_equal():
    rng = random.Random(1)
    for text in CORPUS:
        for _ in range(3):
            assert assert_same_parse(styled(text, rng))[0] == "ok"


FAULTS = {
    "two tokens": lambda u, v, w, n, edges: f"{u} {v}",
    "four tokens": lambda u, v, w, n, edges: f"{u} {v} {w} 5",
    "non-integer weight": lambda u, v, w, n, edges: f"{u} {v} x",
    "non-integer endpoint": lambda u, v, w, n, edges: f"{u} 1.5 {w}",
    "caret endpoint": lambda u, v, w, n, edges: f"2^1 {v} {w}",
    "negative exponent": lambda u, v, w, n, edges: f"{u} {v} 2^-1",
    "too many digits": lambda u, v, w, n, edges: f"{u} {v} 10^5000",
    "separator token": lambda u, v, w, n, edges: f"{u} ; {w}",
    "self-loop": lambda u, v, w, n, edges: f"{u} {u} {w}",
    "endpoint out of range": lambda u, v, w, n, edges: f"{u} {n} {w}",
    "negative endpoint": lambda u, v, w, n, edges: f"-1 {v} {w}",
    "negative weight": lambda u, v, w, n, edges: f"{u} {v} -5",
    "duplicate as (v, u)": lambda u, v, w, n, edges: "{1} {0} {2}".format(*edges[0]),
    "duplicate as (u, v)": lambda u, v, w, n, edges: "{0} {1} 3".format(*edges[-1]),
}


def with_faults(text, faults, rng):
    """`text` with each named fault written over a distinct edge line."""
    lines = text.splitlines()
    lo, hi = edge_bounds(lines)
    n = int(next(ln.split()[1] for ln in lines if ln.startswith("n ")))
    edges = [tuple(ln.split()) for ln in lines[lo:hi]]
    # the first and last edge lines stay, for the duplicates to copy
    for fault, i in zip(faults, rng.sample(range(lo + 1, hi - 1), len(faults))):
        u, v, w = lines[i].split()
        lines[i] = FAULTS[fault](u, v, w, n, edges)
    return "\n".join(lines) + "\n"


def edge_count(text):
    lo, hi = edge_bounds(text.splitlines())
    return hi - lo


GRAPHS = [t for t in CORPUS if "\nedges\n" in t and edge_count(t) >= 8]


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_fault_raises_the_same_error(fault):
    rng = random.Random(fault)
    for text in GRAPHS:
        kind, cls, msg = assert_same_parse(with_faults(text, [fault], rng))
        assert kind == "raised" and cls is ParseError, (fault, msg)


def test_mixed_faults_first_wins():
    rng = random.Random(2)
    names = sorted(FAULTS)
    seen = set()
    for text in GRAPHS:
        for _ in range(8):
            faults = rng.sample(names, rng.randint(2, 4))
            result = assert_same_parse(with_faults(text, faults, rng))
            assert result[0] == "raised"
            seen.add(result[2])
    # the faults that win differ from file to file
    assert len(seen) > 10


@pytest.mark.parametrize("body", [
    "kind minplusconv\nsequence\n1 2 x 3 2^-1",
    "kind minplusconv\nsequence\n1 2\n3 10^2 -4",
    "kind minplusconv\nsequence\n10^3 1^9\n0 7",
    "kind minplusconv\nsequence\n1 10^4300",
    "kind minplusconv\nsequence\n",
    "kind maxcut\nn 3\nedges\n0 1 5\n\n# gone\n1 2 6\nedges\n0 2 1",
    "kind maxcut\nn 3\nedges\n0 1",
    "kind maxcut\nn 3\nedges\n;",
    "kind maxcut\nn 3\nedges\n0 1 ;\n1 2 3",
    "kind maxcut\nn 3\nedges\n0 1 2\n; 1 2",
    # a short and a long line, with as many tokens as two good ones
    "kind maxcut\nn 4\nedges\n0 1\n1 2 3 4\n2 3 5",
    "kind maxcut\nn 4\nedges\n0 1 2 3\n1 2\n2 3 5",
    "kind steiner\nn 3\nterminals 0 2\nedges\n0 1 4\n1 2 4\n0 1 9",
    "kind tsp\nn 2\nedges\n0 1 10^12",
])
def test_edge_cases_parse_equal(body):
    assert_same_parse(f"problem\n{body}\n")


def edge_tuples(rng):
    """Edge tuples around every check: valid ones, a pair given twice, and
    up to two faulty edges."""
    n = rng.randint(2, 9)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(u, v, rng.randrange(10**13)) if rng.random() < 0.5 else (v, u, rng.randrange(9))
             for u, v in rng.sample(pairs, rng.randint(1, len(pairs)))]
    if rng.random() < 0.3:
        u, v, _ = rng.choice(edges)
        edges.insert(rng.randrange(len(edges) + 1), rng.choice(((u, v, 1), (v, u, 2))))
    valid = list(edges)
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(edges))
        u, v, w = valid[i]
        edges[i] = rng.choice([
            (u, u, w), (u, n, w), (-1, v, w), (u, v, -w - 1), (v, u, w), (u, v),
            (u, v, w, 0), (float(u), v, w), (u, v + 0.5, w), (True, v, w),
            (u, v, w + 0.5), (u, v, float(w)), (float(u), v, w + 0.5),
            (u, v, 2**70), (u, 2**70, w), (u, v, "w"), None, [u, v, w],
        ])
    return n, tuple(edges)


def test_edge_check_matches_the_loop():
    rng = random.Random(3)
    raised = 0
    for _ in range(3000):
        n, edges = edge_tuples(rng)
        expected = outcome(lambda: astuple(_RefInstance(kind="maxcut", n=n, edges=edges)))
        got = outcome(lambda: astuple(ProblemInstance(kind="maxcut", n=n, edges=edges)))
        assert got == expected, (n, edges)
        raised += expected[0] == "raised"
    # both outcomes occur often
    assert 600 < raised < 2400, raised


ENDPOINT_KINDS = [("tsp", {}), ("maxcut", {}), ("ewclique", dict(k=3)),
                  ("steiner", dict(terminals=(0, 2)))]


@pytest.mark.parametrize("kind, fields", ENDPOINT_KINDS, ids=[k for k, _ in ENDPOINT_KINDS])
def test_edge_endpoints_must_be_integers(kind, fields):
    def instance(a):
        return ProblemInstance(kind=kind, n=3, edges=((0, a, 5), (0, 2, 7), (1, 2, 4)),
                               **fields)

    # a float endpoint is refused, not truncated or left to crash a solver
    for a in (1.5, 1.0):
        with pytest.raises(InvalidInstance, match="^edge endpoints must be integers$"):
            instance(a)
    # a float weight too, after the checks that already refused an edge
    for w in (5.5, 5.0):
        with pytest.raises(InvalidInstance, match="^weights must be integers$"):
            ProblemInstance(kind=kind, n=3, edges=((0, 1, 5), (0, 2, w), (1, 2, 4)),
                            **fields)
    with pytest.raises(InvalidInstance, match="^weights must be non-negative$"):
        ProblemInstance(kind=kind, n=3, edges=((0, 1, -5.5), (0, 2, 7)), **fields)
    # numpy integers and bools are integers: solved as the int 1 is
    expected = run_meta(instance(1)).optimum
    assert expected == SOLVER_SPECS[kind].oracle(instance(1))
    for a in (np.int64(1), True):
        assert run_meta(instance(a)).optimum == expected
    weighted = ProblemInstance(kind=kind, n=3, edges=((0, 1, np.int64(5)), (0, 2, 7),
                                                      (1, 2, 4)), **fields)
    assert run_meta(weighted).optimum == run_meta(instance(1)).optimum


def test_sequence_and_terminals_must_be_integers():
    # a float entry or terminal is refused, not left to crash a solver or
    # be solved as the int it equals
    for sequence in ((1.5, 2), (1.0, 2), (2, np.float64(3))):
        with pytest.raises(InvalidInstance, match="^weights must be integers$"):
            ProblemInstance(kind="minplusconv", sequence=sequence)
    edges = ((0, 1, 5), (1, 2, 4), (0, 2, 7))
    for terminals in ((0, 1.5), (0, 2.0)):
        with pytest.raises(InvalidInstance, match="^terminals must be integers$"):
            ProblemInstance(kind="steiner", n=3, edges=edges, terminals=terminals)
    # faults refused before keep their message
    with pytest.raises(InvalidInstance, match="^weights must be non-negative$"):
        ProblemInstance(kind="minplusconv", sequence=(1.5, -1))
    with pytest.raises(InvalidInstance, match="^terminal out of range$"):
        ProblemInstance(kind="steiner", n=3, edges=edges, terminals=(0.5, 3))
    # bools and numpy integers are integers
    plain = run_meta(ProblemInstance(kind="minplusconv", sequence=(3, 1))).stats["sequence"]
    seq = ProblemInstance(kind="minplusconv", sequence=(3, True))
    assert run_meta(seq).stats["sequence"] == plain
    tree = ProblemInstance(kind="steiner", n=3, edges=edges, terminals=(np.int64(0), 2))
    assert run_meta(tree).optimum == 7
