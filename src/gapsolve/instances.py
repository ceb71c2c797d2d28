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
import sys

from .additive import Gap, gap_enumerate
from .errors import InvalidInstance, KNotDivisibleBy3, ParseError, TooManyDigits
from .solvers import ProblemInstance

SECTIONS = ("problem", "edges", "sequence", "gap", "seed")


def parse_int(tok):
    """Integer literal, allowing 10^12-style shorthand with a non-negative
    exponent.  A power with more digits than int() converts is refused
    before it is computed, as a too-long decimal literal is."""
    if "^" in tok:
        base, exp = (int(t) for t in tok.split("^", 1))
        if exp < 0:
            raise ValueError(f"negative exponent in {tok!r}")
        # the most digits int() converts: 4300, its default, where the
        # limit is missing (before Python 3.10.7) or 0 (switched off)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        too_long = f"{tok!r} has more than {limit} digits"
        # |base|^exp >= 2^(exp * (bits - 1)) and 16^limit > 10^limit, so
        # past this bound the power is refused before it is computed
        if exp * (abs(base).bit_length() - 1) > 4 * limit:
            raise ValueError(too_long)
        value = base ** exp
        # 8^limit < 10^limit: only a power past 3 * limit bits can be too long
        if value.bit_length() > 3 * limit and abs(value) >= 10 ** limit:
            raise ValueError(too_long)
        return value
    return int(tok)


def check_digits(what, *values):
    """Raise TooManyDigits if one of `values` (non-negative ints or iterables of
    them) has more digits than str() converts, before `what` is written."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = max((v if isinstance(v, int) else max(v, default=0) for v in values), default=0)
    if limit and top.bit_length() > 3 * limit and top >= 10 ** limit:
        raise TooManyDigits(f"{what} holds a number of more than {limit} digits")


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
    sections = {}
    current = None
    for ln in map(str.strip, text.splitlines()):
        if not ln or ln.startswith("#"):
            continue
        if ln in SECTIONS:
            if ln in sections:
                raise ParseError(f"duplicate section {ln!r}")
            current = sections[ln] = []
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
        edges = _parse_edges(sections.get("edges", []))
        sequence = _parse_ints(" ".join(sections.get("sequence", [])).split())

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
            edges=edges,
            k=int(meta.get("k", "0")),
            terminals=tuple(int(t) for t in meta.get("terminals", "").split()),
            sequence=sequence,
            gap=gap,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return inst, seed


def _parse_ints(toks):
    """parse_int of every token, as a tuple: one int() pass, and parse_int
    token by token only when int() refuses one (a 10^k token or a fault),
    so the first faulty token is the one reported."""
    try:
        return tuple(map(int, toks))
    except ValueError:
        return tuple(parse_int(t) for t in toks)


def _parse_edges(lines):
    """The (u, v, w) triples of the edges section's lines, as a tuple.

    The whole section is split once, with a ";" token between lines; int()
    converts the endpoints and _parse_ints the weights.  On any fault the
    per-line loop runs instead, and its first faulty line is the one
    reported."""
    toks = " ; ".join(lines).split()
    m = len(lines)
    # 4m - 1 tokens with the m - 1 separators at every 4th place mean three
    # tokens a line; a separator anywhere else stays among the tokens
    # converted below, where int() refuses it
    if m and len(toks) == 4 * m - 1:
        del toks[3::4]
        try:
            return tuple(zip(map(int, toks[0::3]), map(int, toks[1::3]),
                             _parse_ints(toks[2::3])))
        except ValueError:
            pass
    edges = []
    for ln in lines:
        toks = ln.split()
        if len(toks) != 3:
            raise ParseError(f"bad edge line {ln!r}")
        edges.append((int(toks[0]), int(toks[1]), parse_int(toks[2])))
    return tuple(edges)


def serialize_instance(inst, seed=None):
    """Canonical text form of an instance (TooManyDigits past the digit limit)."""
    gap = inst.gap.generators + inst.gap.bounds if inst.gap is not None else ()
    check_digits("the instance", [e[2] for e in inst.edges], inst.sequence, gap)
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
