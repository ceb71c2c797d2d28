"""Text instance files: parsing, serialization, and seeded generation.

Format (UTF-8, LF): a file is a sequence of sections, each started by its
name on a line of its own.

  problem        key/value lines: kind, n, k (ewclique), terminals (steiner)
  edges          one "u v w" triple per line, 0-based vertices
  sequence       whitespace-separated weights (minplusconv)
  gap            three lines: dimension, generators, bounds
  seed           one integer line

Unknown sections are rejected.  Serialization is canonical, so generation
with a fixed seed is byte-identical.
"""

import random

from .additive import Gap, gap_enumerate
from .errors import InvalidInstance, KNotDivisibleBy3, ParseError
from .solvers import ProblemInstance

SECTIONS = ("problem", "edges", "sequence", "gap", "seed")


def parse_int(tok):
    """Integer literal, allowing 10^12-style shorthand with a non-negative exponent."""
    if "^" in tok:
        base, exp = (int(t) for t in tok.split("^", 1))
        if exp < 0:
            raise ValueError(f"negative exponent in {tok!r}")
        return base ** exp
    return int(tok)


def parse_gap_spec(spec):
    """Gap from a 'd=2 x=3,10 L=2,1 offset=10^12' style string.

    A positive offset becomes a leading dimension with generator `offset`
    and bound 1, keeping translated weight sets inside one GAP.  Unknown
    fields and a negative offset are refused.
    """
    fields = {}
    for tok in spec.split():
        key, eq, val = tok.partition("=")
        if not eq or key not in ("d", "x", "L", "offset"):
            raise ParseError(f"bad gap token {tok!r}")
        fields[key] = val
    try:
        gens = [parse_int(t) for t in fields["x"].split(",")]
        bounds = [parse_int(t) for t in fields["L"].split(",")]
        if "d" in fields and parse_int(fields["d"]) != len(gens):
            raise ParseError("gap spec dimension disagrees with generators")
        offset = parse_int(fields.get("offset", "0"))
        if offset < 0:
            raise ParseError(f"negative gap offset {offset}")
        if offset > 0:
            gens = [offset] + gens
            bounds = [1] + bounds
        return Gap(tuple(gens), tuple(bounds))
    except KeyError as exc:
        raise ParseError(f"gap spec missing {exc}") from exc
    except ValueError as exc:  # a bad integer, or an invalid Gap
        raise ParseError(f"bad gap spec {spec!r}: {exc}") from exc


def parse_instance(text):
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

        inst = ProblemInstance(
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


def serialize_instance(inst, seed=None):
    """Canonical text form of an instance."""
    out = ["problem", f"kind {inst.kind}"]
    if inst.kind != "minplusconv":
        out.append(f"n {inst.n}")
    if inst.kind == "ewclique":
        out.append(f"k {inst.k}")
    if inst.kind == "steiner":
        out.append("terminals " + " ".join(str(t) for t in inst.terminals))
    if inst.edges:
        out.append("edges")
        for u, v, w in inst.edges:
            out.append(f"{u} {v} {w}")
    if inst.sequence:
        out.append("sequence")
        out.append(" ".join(str(v) for v in inst.sequence))
    if inst.gap is not None:
        out.append("gap")
        out.append(str(inst.gap.dim))
        out.append(" ".join(str(x) for x in inst.gap.generators))
        out.append(" ".join(str(b) for b in inst.gap.bounds))
    if seed is not None:
        out.append("seed")
        out.append(str(seed))
    return "\n".join(out) + "\n"


def generate_instance(kind, n, gap, seed, density=1.0, k=3, n_terminals=3):
    """Deterministic random instance with weights drawn from `gap`.

    Graph kinds draw each candidate edge with probability `density`
    (steiner instances always keep a random spanning chain so the
    terminals stay connected; tsp keeps the complete graph).  Raises
    KNotDivisibleBy3 for an ewclique k the solver refuses, and
    InvalidInstance for a steiner terminal count outside [2, n].
    """
    if kind == "ewclique" and (k % 3 or k == 0):
        raise KNotDivisibleBy3(f"k = {k}")
    if kind == "steiner" and not 2 <= n_terminals <= n:
        raise InvalidInstance(f"steiner needs 2 to n = {n} terminals, not {n_terminals}")
    rng = random.Random(seed)
    values = list(gap_enumerate(gap))

    def draw():
        return values[rng.randrange(len(values))]

    if kind == "minplusconv":
        seq = tuple(draw() for _ in range(n))
        return ProblemInstance(kind=kind, sequence=seq, gap=gap)

    chain = set()
    if kind == "steiner":
        order = list(range(n))
        rng.shuffle(order)
        chain = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    edges = [(u, v, draw()) for u in range(n) for v in range(u + 1, n)
             if kind == "tsp" or (u, v) in chain or rng.random() < density]

    terminals = tuple(sorted(rng.sample(range(n), n_terminals))) \
        if kind == "steiner" else ()
    return ProblemInstance(
        kind=kind, n=n, edges=tuple(edges), k=k if kind == "ewclique" else 0,
        terminals=terminals, gap=gap,
    )
