"""Layer spans timed from outside the package.

`Tracer.install` wraps the public functions of the gapsolve layers and puts
each wrapper wherever a loaded gapsolve module references the original, so
calls between modules (meta -> solvers, cli -> encoding, ...) pass through
it.  Calls inside one module go through module globals too, so they are
caught as well.  `run_meta` and `cli.main` run unmodified; `uninstall`
restores every reference.

Spans are kept in memory as [name, start, end, parent, instance] and
written out when the benchmark ends.  Work counters are read from the
arguments and return values at the same boundaries.
"""

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("additive", "encoding", "solvers", "poly", "meta", "cli", "instances")
# per-value helpers called once per term or token; a span around each call
# would cost more than the call, so their time stays in the caller's self time
PER_VALUE = frozenset({"kappa", "kappa_inv", "true_value", "parse_int"})
SOLVER_SPANS = {
    "solvers.tsp_algebraic": "tsp",
    "solvers.maxcut_algebraic": "maxcut",
    "solvers.ewclique_algebraic": "ewclique",
    "solvers.steiner_algebraic": "steiner",
    "solvers.minplus_selfconv_min": "minplus",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.planted_volume = 0  # of the case being run, for the cover ratio
        self.counters = Counter()
        self._patches = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.instance])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"gapsolve.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in PER_VALUE):
                    originals[id(fn)] = (fn, f"{layer}.{attr}")
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "gapsolve" and not modname.startswith("gapsolve."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is None or hit[0] is not val:
                    continue
                if id(val) not in wrappers:
                    wrappers[id(val)] = self._wrap(*hit)
                setattr(mod, attr, wrappers[id(val)])
                self._patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, fn in self._patches:
            setattr(mod, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, name):
        count = self._counters_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count is not None:
                    count(args, kwargs, None, exc)
                raise
            finally:
                # also on SystemExit, which cli.main raises on bad input
                self.end(idx)
            if count is not None:
                count(args, kwargs, result, None)
            return result

        return traced

    def _counters_for(self, name):
        method = {
            "additive.gap_cover_search": self._count_cover,
            "solvers.build_auxiliary_graph": self._count_aux,
            "solvers.minplus_selfconv_min": self._count_minplus,
            "encoding.build_permutation": self._count_permutation,
            "meta.run_meta": self._count_meta,
        }
        return method.get(name)

    def _count_cover(self, args, kwargs, gap, exc):
        if exc is None:
            self.counters["cover_volume"] += gap.volume
            self.counters["planted_volume"] += self.planted_volume
        elif type(exc).__name__ == "NoCoverFound":
            self.counters["cover_failures"] += 1

    def _count_aux(self, args, kwargs, result, exc):
        if exc is None:
            nodes, _, hedges = result
            self.counters["aux_nodes"] += len(nodes)
            self.counters["aux_edges"] += len(hedges)

    def _count_minplus(self, args, kwargs, result, exc):
        seq = args[0]
        bound = args[1] if len(args) > 1 else kwargs["bound"]
        self.counters["minplus_slots"] += len(seq) * 2 * bound

    def _count_permutation(self, args, kwargs, table, exc):
        if exc is None:
            self.counters["permutation_entries"] += len(table.sorted_entries)

    def _count_meta(self, args, kwargs, res, exc):
        if exc is None:
            self.counters["range_bound"] += res.stats["encoded_range_bound"]
            self.counters["terms"] += res.stats.get("solution_terms", 0)


def profile(spans, lo, hi):
    """Per-layer and per-function times of the spans spans[lo:hi], one pass.

    A span's self time is its duration minus its children's durations, so
    the self times of a pass add up to its root span.
    """
    child = Counter()
    for name, t0, t1, parent, _ in spans[lo:hi]:
        if parent >= lo:
            child[parent] += t1 - t0
    self_s, total = Counter(), Counter()
    cli_total = meta_in_cli = 0.0
    for i in range(lo, hi):
        name, t0, t1, parent, _ = spans[i]
        self_s[name.split(".")[0]] += (t1 - t0) - child[i]
        total[name] += t1 - t0
        if name == "cli.main":
            cli_total += t1 - t0
        elif name == "meta.run_meta":
            p = parent
            while p >= lo and spans[p][0] != "cli.main":
                p = spans[p][3]
            if p >= lo:
                meta_in_cli += t1 - t0
    return {"self": self_s, "total": total, "cli_total": cli_total,
            "meta_in_cli": meta_in_cli}
