"""Command-line front end: gen / solve / verify / analyze.

Exit codes (`EXIT_CODES` maps each base error class to its code):
  0  ok
  1  bad input (ParseError, InvalidInstance, OSError, UnicodeDecodeError):
     a missing, unreadable or malformed file, a bad flag or --gap, an
     unwritable gen -o path, an invalid instance, a given GAP that misses a
     weight, or an ewclique k not divisible by 3
  2  no usable cover (BudgetExceeded): none found, or a budget is exceeded
     (gen's GAP enumeration, a solver's 2^32-bit table budget or int64
     limit, an oracle's size limit, Python's int -> str digit limit)
  3  infeasible instance (InfeasibleInstance)
  4  verification mismatch
  5  internal fault (any other GapsolveError): an invariant check failed
"""

import argparse
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction

from .additive import DEFAULT_ENUM_BUDGET, gap_cover_search, sumset
from .errors import (
    BudgetExceeded,
    GapsolveError,
    InfeasibleInstance,
    InvalidInstance,
    NoCoverFound,
    ParseError,
)
from .instances import (
    check_digits,
    generate_instance,
    parse_gap_spec,
    parse_instance,
    serialize_instance,
)
from .meta import run_meta
from .solvers import SOLVER_SPECS

SCHEMA_VERSION = 2
# (base classes, exit code, message prefix); the first row that matches
# wins, and the last row catches every other GapsolveError.  OSError and
# UnicodeDecodeError come from reading an instance file or writing gen -o.
EXIT_CODES = (
    ((ParseError, InvalidInstance, OSError, UnicodeDecodeError), 1, "error"),
    ((BudgetExceeded,), 2, "error"),
    ((InfeasibleInstance,), 3, "infeasible"),
    ((GapsolveError,), 5, "internal error"),
)


def _read_instance(path):
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())


def cmd_gen(args):
    inst = generate_instance(
        args.kind, args.n, parse_gap_spec(args.gap), args.seed,
        density=args.density, k=args.k, n_terminals=args.terminals,
    )
    text = serialize_instance(inst, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _solve(inst, args):
    return run_meta(inst, max_dim=args.max_dim, volume_budget=args.volume_budget)


def _report(inst, res, args, t0):
    """Print the report; wall_time is the time since t0, the command's start."""
    check_digits("the report", res.optimum, res.encoded_optimum, res.coords,
                 res.gap_used.generators, res.gap_used.bounds, res.lam,
                 res.stats["encoded_range_bound"], res.stats.get("sequence", ()))
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": inst.kind,
        "optimum": res.optimum,
        "encoded_optimum": res.encoded_optimum,
        "coords": list(res.coords),
        "gap": {
            "generators": list(res.gap_used.generators),
            "bounds": list(res.gap_used.bounds),
        },
        "lambda": res.lam,
        "encoded_range_bound": res.stats["encoded_range_bound"],
        # |G'| again, under its schema-1 name, which perfbench/run.py checks
        "permutation_size": res.stats["encoded_range_bound"],
        "wall_time": time.perf_counter() - t0,
    }
    if "sequence" in res.stats:
        report["sequence"] = res.stats["sequence"]
    if args.json:
        print(json.dumps(report))
    else:
        print(f"kind              {report['kind']}")
        print(f"optimum           {report['optimum']}")
        print(f"encoded optimum   {report['encoded_optimum']}")
        print(f"gap generators    {report['gap']['generators']}")
        print(f"gap bounds        {report['gap']['bounds']}")
        print(f"lambda            {report['lambda']}")
        print(f"|G'| bound        {report['encoded_range_bound']}")
        print(f"wall time         {report['wall_time']:.4f}s")
        if "sequence" in report:
            print("sequence          " + " ".join(str(v) for v in report["sequence"]))


def _file_instance(args):
    """The instance in args.path, with its cover replaced by --gap if given."""
    inst, _ = _read_instance(args.path)
    if args.gap:
        inst = replace(inst, gap=parse_gap_spec(args.gap))
    return inst


def cmd_solve(args):
    t0 = time.perf_counter()
    inst = _file_instance(args)
    _report(inst, _solve(inst, args), args, t0)
    return 0


def _verify_one(inst, args):
    """Returns (status, message); status in {'pass', 'fail', 'infeasible'}."""
    try:
        res = _solve(inst, args)
        meta_opt = res.stats.get("sequence", res.optimum)
        meta_ok = True
    except InfeasibleInstance:
        meta_ok = False
    try:
        oracle_opt = SOLVER_SPECS[inst.kind].oracle(inst)
        oracle_ok = True
    except InfeasibleInstance:
        oracle_ok = False
    if not meta_ok or not oracle_ok:
        if meta_ok == oracle_ok:
            return "infeasible", "both report infeasible"
        return "fail", f"feasibility disagrees (meta={meta_ok}, oracle={oracle_ok})"
    check_digits("the verdict", meta_opt, oracle_opt)
    if meta_opt == oracle_opt:
        return "pass", f"meta={meta_opt} oracle={oracle_opt}"
    return "fail", f"meta={meta_opt} oracle={oracle_opt}"


def cmd_verify(args):
    if args.sweep < 0:
        print(f"error: --sweep {args.sweep} is negative", file=sys.stderr)
        return 1
    if args.sweep:
        if not args.gap:
            print("error: --sweep requires --gap", file=sys.stderr)
            return 1
        gap = parse_gap_spec(args.gap)
        failures = 0
        for i in range(args.sweep):
            inst = generate_instance(
                args.kind, args.n, gap, args.seed + i,
                density=args.density, k=args.k, n_terminals=args.terminals,
            )
            status, msg = _verify_one(inst, args)
            print(f"[{i}] {status.upper()}: {msg}")
            if status == "fail":
                failures += 1
        return 4 if failures else 0
    if args.path is None:
        print("error: verify needs an instance file or --sweep", file=sys.stderr)
        return 1
    status, msg = _verify_one(_file_instance(args), args)
    print(f"{status.upper()}: {msg}")
    return 4 if status == "fail" else 0


def cmd_analyze(args):
    inst, _ = _read_instance(args.path)
    a = inst.weights
    folds = [a, sumset(a, a)]  # folds[h - 1] is hA = (h-1)A + A
    # 3A and 4A only while the |(h-1)A| * |A| sums fit --volume-budget
    while len(folds) < 4 and len(folds[-1]) * len(a) <= args.volume_budget:
        folds.append(sumset(folds[-1], a))
    print(f"|A|        {len(a)}")
    print(f"|A+A|      {len(folds[1])}")
    print(f"C(A)       {Fraction(len(folds[1]), len(a))}")
    for h in range(1, 5):
        size = len(folds[h - 1]) if h <= len(folds) else "skipped"
        print(f"|{h}A|{' ' * (7 - len(str(h)))}{size}")
    gap = inst.gap
    if gap is None:
        try:
            gap = gap_cover_search(a, max_dim=args.max_dim,
                                   volume_budget=args.volume_budget)
        except NoCoverFound:
            gap = None
    if gap is None:
        print("gap        none found")
    else:
        check_digits("the analysis", gap.generators, gap.bounds, gap.volume)
        print(f"gap gens   {list(gap.generators)}")
        print(f"gap bounds {list(gap.bounds)}")
        # |A| is a lower bound: a GAP of volume V holds at most V values
        ratio = (200 * gap.volume + len(a)) // (2 * len(a))  # in hundredths, rounded
        print(f"gap volume {gap.volume} ({ratio // 100}.{ratio % 100:02d} x |A|)")
    return 0


def _add_search_flags(p):
    p.add_argument("--max-dim", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--volume-budget", type=int, default=DEFAULT_ENUM_BUDGET)


def _add_common_solve_flags(p):
    p.add_argument("--gap", help="override GAP, e.g. 'd=1 x=7 L=20 offset=10^12'")
    _add_search_flags(p)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the parse-error code, not argparse's 2 (no cover)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    """The argparse tree.  It holds no function objects: main() dispatches
    on the subcommand's name through the module's globals at call time, so
    a cmd_* replaced after the build is the one that runs."""
    parser = _Parser(
        prog="gapsolve",
        description="Solve small-doubling weighted instances via GAP encoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a deterministic instance")
    p.add_argument("kind", choices=SOLVER_SPECS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gap", required=True)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--terminals", type=int, default=3)
    p.add_argument("-o", "--output")

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("path")
    _add_common_solve_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="compare against the brute-force oracle")
    p.add_argument("path", nargs="?")
    p.add_argument("--sweep", type=int, default=0, metavar="N",
                   help="generate and verify N random instances")
    p.add_argument("--kind", default="tsp", choices=SOLVER_SPECS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--terminals", type=int, default=3)
    _add_common_solve_flags(p)

    p = sub.add_parser("analyze", help="doubling analytics of the weight set")
    p.add_argument("path")
    _add_search_flags(p)
    return parser


# built by the first main() call, not at import, and reused by every later one
_PARSER = None


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (GapsolveError, OSError, UnicodeDecodeError) as exc:
        _, code, prefix = next(row for row in EXIT_CODES if isinstance(exc, row[0]))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
