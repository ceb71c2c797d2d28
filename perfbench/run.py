"""Seeded, closed-loop benchmark of gapsolve.

    python3 perfbench/run.py --workload solver-grid --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; gapsolve is imported from its
`src/`.  One process and one thread run the workload's cases back to back,
pass after pass, for `--seconds`.  End-to-end timings are given at a
reference machine speed: a fixed probe loop is timed before and after every
call, and each call's time is scaled by PROBE_REF_S over the probes' mean
time (see speed_probe).  Every output is then checked against an expected answer that
never comes from the solver under test.  The last line
of standard output is one JSON object: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`.  Details (every sample with its median
and quartiles, the environment, work counters) go to
`.perfbench_state/results/`, spans of a traced run to
`.perfbench_state/spans/`.  See README.md for the grids and metrics.
"""

import os

# pin BLAS and OpenMP pools before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from reference import ReferenceCache, case_digest
from tracing import LAYERS, SOLVER_SPANS, Tracer, profile
from workloads import KINDS, METRIC_KIND, WORKLOADS, volume, warmup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
STATE = ROOT / ".perfbench_state"
SETUP_REPEATS = 11
MIN_PASSES = 3
# what speed_probe() takes at the reference speed end-to-end times are given in
PROBE_REF_S = 0.003
# the most of a traced pass that may fall outside every gapsolve span
MAX_BENCH_SHARE = 0.05


class Setup:
    """One fresh import of gapsolve plus the workload's inputs, warmed up."""

    def __init__(self, workload, seed):
        for name in [m for m in sys.modules
                     if m == "gapsolve" or m.startswith("gapsolve.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        self.cli = importlib.import_module("gapsolve.cli")
        self.meta = sys.modules["gapsolve.meta"]
        self.instances = importlib.import_module("gapsolve.instances")
        self.oracle = importlib.import_module("gapsolve.oracle")
        gapsolve = sys.modules["gapsolve"]
        if not Path(gapsolve.__file__).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"gapsolve imported from {gapsolve.__file__}, not {SRC}")
        self.Gap = gapsolve.Gap
        self.ProblemInstance = gapsolve.ProblemInstance
        self.NoCoverFound = sys.modules["gapsolve.errors"].NoCoverFound
        self.workload = workload
        self.cases = WORKLOADS[workload](seed)
        self.inputs = STATE / "inputs" / f"{workload}-{seed}"
        self.ops = [self.op(c) for c in self.cases]
        for op in [self.op(c) for c in warmup(seed, workload != "cover-search")]:
            op()

    def op(self, case):
        """A zero-argument call that runs one case through the entry point."""
        inst = self.ProblemInstance(
            kind=case.kind, n=case.n, edges=case.edges, k=case.k,
            terminals=case.terminals, sequence=case.sequence,
            gap=self.Gap(*case.cover) if case.cover else None)
        if self.workload == "cli-report":
            path = self.inputs / f"{case.name}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.instances.serialize_instance(inst), encoding="utf-8")
            return lambda: run_cli(self.cli, str(path))
        fallback = replace(inst, gap=self.Gap(*case.planted))

        def solve():
            # attribute lookup at call time, so a tracer's wrapper is used
            try:
                return self.meta.run_meta(inst)
            except self.NoCoverFound:
                # the documented remedy: supply an explicit GAP
                return self.meta.run_meta(fallback)
        return solve


def run_cli(cli, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["solve", path, "--json"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def speed_probe():
    """Seconds a fixed loop of big-int and dict work takes right now.

    Other tenants of the machine slow it by up to 2x, for seconds or
    minutes at a time, and gapsolve's pure-Python work slows with it.  The
    probe runs right before and right after every timed call, so the ratio
    of the call's time to the mean of the two keeps the call's cost and
    drops the machine's speed at that moment.
    """
    t0 = perf_counter()
    acc = {}
    x = 3**40
    for i in range(4000):
        x = (x * 1000003 + i) % (2**127 - 1)
        acc[i & 255] = acc.get(i & 255, 0) + (x >> 64)
    return perf_counter() - t0


def at_reference_speed(times, before, after):
    """Median over calls of the call's time over the mean of the probes
    before and after it, in seconds at the reference speed."""
    ratios = [2 * t / (a + b) for t, a, b in zip(times, before, after)]
    return statistics.median(ratios) * PROBE_REF_S


def run_pass(setup, tracer=None):
    """One closed-loop pass: (batch seconds, per-op seconds, outputs, span
    range, probe seconds).

    Untraced passes probe the machine's speed before the first op and after
    each op; traced passes do not, so the spans cover the whole pass.
    """
    gc.collect()
    lo = len(tracer.spans) if tracer else 0
    times, outputs = [], []
    probes = [] if tracer else [speed_probe()]
    root = tracer.begin("bench.pass") if tracer else None
    for case, op in zip(setup.cases, setup.ops):
        if tracer:
            tracer.instance = case.name
            tracer.planted_volume = volume(case.planted)
            span = tracer.begin("bench.op")
        t0 = perf_counter()
        try:
            out = op()
        except Exception as exc:  # checked, and counted as failed, below
            out = exc
        times.append(perf_counter() - t0)
        if tracer:
            tracer.end(span)
        else:
            probes.append(speed_probe())
        outputs.append(out)
    if tracer:
        tracer.end(root)
        batch = tracer.spans[root][2] - tracer.spans[root][1]
        return batch, times, outputs, (lo, len(tracer.spans)), probes
    return sum(times), times, outputs, None, probes


def raised(out):
    """True when the operation ended in an error instead of an answer."""
    return isinstance(out, Exception) or (isinstance(out, tuple) and out[0] != 0)


def check(out, exp):
    """(error message or None, reported wall_time or None) for one output."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}", None
    if isinstance(out, tuple):  # cli: (exit code, stdout, stderr)
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}", None
        try:
            rep = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "no JSON report", None
        if rep["optimum"] != exp["optimum"]:
            return f"optimum {rep['optimum']} != {exp['optimum']}", None
        if exp["sequence"] is not None and rep.get("sequence") != exp["sequence"]:
            return "min-plus sequence differs", None
        if rep.get("permutation_size") != rep["encoded_range_bound"]:
            return "rank table missing from report", None
        return None, rep["wall_time"]
    if out.optimum != exp["optimum"]:
        return f"optimum {out.optimum} != {exp['optimum']}", None
    if exp["count"] is not None and out.stats.get("optimal_count") != exp["count"]:
        return f"count {out.stats.get('optimal_count')} != {exp['count']}", None
    if exp["sequence"] is not None and out.stats.get("sequence") != exp["sequence"]:
        return "min-plus sequence differs", None
    return None, None


def summary(values):
    """Minimum, quartiles, median and sample count of one metric's samples."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"min": min(values), "p25": q[0], "median": statistics.median(values),
            "p75": q[2], "n": len(values), "samples": values}


def code_digest():
    """sha256 over the package's sources, so records of other code are not compared."""
    h = hashlib.sha256()
    for f in sorted((SRC / "gapsolve").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def environment():
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gmpy2": has_gmpy2,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                      "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # set-up: fresh import, inputs, warm-up; the median of several repeats
    setup_times, setup_probes = [], [speed_probe()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        try:
            setup = Setup(args.workload, args.seed)
        except ImportError as exc:
            print(f"error: cannot import gapsolve from {SRC}: {exc}", file=sys.stderr)
            return 2
        setup_times.append(perf_counter() - t0)
        setup_probes.append(speed_probe())

    tracer = Tracer() if args.trace else None
    untraced, traced, pass_counters = [], [], []
    deadline = perf_counter() + args.seconds
    while (perf_counter() < deadline or len(untraced) < MIN_PASSES
           or (tracer and len(traced) < MIN_PASSES)):
        untraced.append(run_pass(setup))
        if tracer:
            tracer.install()
            try:
                traced.append(run_pass(setup, tracer))
            finally:
                tracer.uninstall()
            pass_counters.append(dict(tracer.counters))
            tracer.counters.clear()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checking happens after the measured passes, so reference work stays
    # out of the timings and out of the peak memory
    refs = ReferenceCache(STATE / "cache" / "references.json")
    expected = [refs.get(c, setup.oracle) for c in setup.cases]
    refs.save()
    errors, failed, attempted = [], 0, 0
    wall_reported = wall_measured = 0.0
    for is_traced, passes in ((False, untraced), (True, traced)):
        for _, times, outputs, _, _ in passes:
            for case, t, out, exp in zip(setup.cases, times, outputs, expected):
                attempted += 1
                msg, wall = check(out, exp)
                if msg:
                    errors.append(f"{case.name}: {msg}")
                    failed += raised(out)
                elif wall is not None and not is_traced:
                    wall_reported += wall
                    wall_measured += t
    correct = not errors

    if tracer:
        metrics, detail = layer_metrics(setup, tracer, untraced, traced,
                                        pass_counters, wall_reported,
                                        wall_measured, args.seed)
        if detail.pop("error", None):
            errors.append(detail["problem"])
            correct = False
        span_dir = STATE / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        with open(span_dir / f"{args.workload}-seed{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        metrics, detail = end_to_end_metrics(setup, untraced, setup_times,
                                             setup_probes, peak_rss_mb)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(),
        "setup_s": summary(setup_times),
        "cases": [{"name": c.name, "kind": c.kind, "digest": case_digest(c)}
                  for c in setup.cases],
        "errors": errors[:20],
    })
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str), encoding="utf-8")
    for e in errors[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end_metrics(setup, passes, setup_times, setup_probes, peak_rss_mb):
    """Timings in seconds at the reference speed: each case's median over
    passes, summed per kind and over the batch."""
    case_s, case_ref = {}, {}
    for i, c in enumerate(setup.cases):
        case_s[c.name] = [p[1][i] for p in passes]
        case_ref[c.name] = at_reference_speed(
            case_s[c.name], [p[4][i] for p in passes], [p[4][i + 1] for p in passes])
    metrics = {
        "setup_s": {"value": at_reference_speed(setup_times, setup_probes,
                                                setup_probes[1:]), "unit": "s"},
        "batch_s": {"value": sum(case_ref.values()), "unit": "s"},
    }
    for k in KINDS:
        total = sum(case_ref[c.name] for c in setup.cases if c.kind == k)
        metrics[f"{METRIC_KIND[k]}_s"] = {"value": total, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    detail = {"pass_s": summary([p[0] for p in passes]),
              "probe_s": summary([x for p in passes for x in p[4]]),
              "setup_probe_s": summary(setup_probes),
              "case_s": {name: summary(v) for name, v in case_s.items()},
              "case_at_reference_speed_s": case_ref}
    return metrics, detail


def layer_metrics(setup, tracer, untraced, traced, pass_counters, wall_reported,
                  wall_measured, seed):
    # every layer figure is in plain seconds, from the fastest traced pass,
    # so its self times add up to that pass's batch time
    batch, _, _, (lo, hi), _ = min(traced, key=lambda p: p[0])
    prof = profile(tracer.spans, lo, hi)
    self_s, total = prof["self"], prof["total"]
    counters = pass_counters[0]
    detail = {"passes_traced": len(traced), "passes_untraced": len(untraced),
              "counters": counters}

    # work counters must repeat exactly: in every traced pass, and in every
    # run of the same code with the same seed and cases
    if any(c != counters for c in pass_counters):
        detail.update(error=True, problem="work counters differ between passes")
    code = code_digest()
    digest = hashlib.sha256("".join(case_digest(c) for c in setup.cases).encode())
    path = STATE / "cache" / f"counters-{setup.workload}-{seed}-{code[:16]}.json"
    record = {"code": code, "cases": digest.hexdigest(), "counters": counters}
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        previous = None
    if previous and previous["code"] == code and previous["cases"] == record["cases"]:
        if previous["counters"] != counters:
            detail.update(error=True, problem="work counters differ from an "
                          f"earlier run with seed {seed}: {previous['counters']}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record), encoding="utf-8")

    # the spans must cover the pass: the harness's own time stays small, and
    # every kind the workload runs shows up in its solver's span
    if self_s["bench"] > MAX_BENCH_SHARE * batch:
        detail.update(error=True, problem=f"untraced time {self_s['bench']:.4f} s "
                      f"is over {MAX_BENCH_SHARE:.0%} of the pass ({batch:.4f} s)")
    for span, kind in SOLVER_SPANS.items():
        if total[span] <= 0 and any(METRIC_KIND[c.kind] == kind for c in setup.cases):
            detail.update(error=True, problem=f"no time in {span}")

    def m(value, unit):
        return {"value": value, "unit": unit}

    planted = counters.get("planted_volume", 0)
    untraced_batch = min(p[0] for p in untraced)
    cli_total = prof["cli_total"]
    metrics = {
        "additive.cover_s": m(total["additive.gap_cover_search"], "s"),
        "additive.coords_s": m(total["additive.get_gap_coordinates"], "s"),
        "additive.doubling_s": m(total["additive.doubling_constant"], "s"),
        "additive.cover_failures": m(counters.get("cover_failures", 0), "count"),
        "additive.cover_volume_ratio": m(
            counters.get("cover_volume", 0) / planted if planted else 0.0, "ratio"),
        "encoding.range_bound": m(counters.get("range_bound", 0), "count"),
        "encoding.permutation_s": m(total["encoding.build_permutation"], "s"),
        "encoding.permutation_entries": m(
            counters.get("permutation_entries", 0), "count"),
    }
    for span, kind in SOLVER_SPANS.items():
        metrics[f"solvers.{kind}_s"] = m(total[span], "s")
    slots = counters.get("minplus_slots", 0)
    metrics.update({
        "solvers.terms": m(counters.get("terms", 0), "count"),
        "solvers.aux_nodes": m(counters.get("aux_nodes", 0), "count"),
        "solvers.aux_edges": m(counters.get("aux_edges", 0), "count"),
        "solvers.minplus_slots": m(slots, "count"),
        "solvers.minplus_bytes_computed": m(2 * slots, "bytes"),
        "poly.select_s": m(total["poly.select_optimum"], "s"),
        "instances.parse_s": m(total["instances.parse_instance"], "s"),
        "cli.report_share": m(
            (cli_total - prof["meta_in_cli"]) / cli_total if cli_total else 0.0,
            "ratio"),
        "cli.reported_wall_ratio": m(
            wall_reported / wall_measured if wall_measured else 0.0, "ratio"),
    })
    for layer in LAYERS + ("bench",):
        metrics[f"{layer}.self_s"] = m(self_s[layer], "s")
    metrics.update({
        "trace.batch_s": m(batch, "s"),
        "trace.untraced_batch_s": m(untraced_batch, "s"),
        "trace.overhead_s": m(batch - untraced_batch, "s"),
    })
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
