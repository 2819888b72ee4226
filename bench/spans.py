"""Spans around chainfold's public functions, installed only for a traced run.

`Tracer.install` replaces each traced function with a wrapper in every
chainfold module that holds it by name (`solver` imports `union_product`,
`cover` imports `relabel` and `supports`, and so on), and patches
`SetSystem.__init__`, `SetSystem.successors` and
`PermutationProblem.__post_init__` on the classes themselves.  No source file
changes; `uninstall` puts every original back.

A span is `[name, start, end, parent index, leaf seconds]`.  Spans stay in a
list in memory and are written once when the run ends.  `local_cost` runs
hundreds of thousands of times per operation, so it gets no span: its calls
and time are added up, and its time is charged to the enclosing span as
`leaf seconds` so that self time stays right.
"""

import sys
import time
from functools import wraps
from statistics import median

SPANNED = {
    "solver": (
        "restricted_dp",
        "held_karp",
        "random_split_solver",
        "framework_solver",
        "split_prefix_system",
    ),
    "systems": ("union_product", "count_chains", "relabel", "load_system", "dump_system"),
    "constructions": (
        "powerset",
        "koivisto_parviainen",
        "tower_of_cubes",
        "split_band_system",
        "banded_prefix_system",
        "core_prefix_system",
    ),
    "cover": (
        "covers_all",
        "random_cover",
        "greedy_prune",
        "make_unique",
        "exactly_once",
        "regularly_intersecting",
    ),
    "semiring": ("evaluate_dp", "count_linear_extensions", "evaluate_restricted", "evaluate_unique"),
    "analysis": ("optimize_params", "emit_curve"),
    "cli": ("main",),
}

# (metric name, unit, better) for every per-layer metric a traced run prints;
# BENCHMARK.json lists the same names in the same order.  Unprefixed metrics
# are per pass over the workload's operations.
PER_LAYER = (
    [("solver.restricted_dp." + k, u, b) for k, u, b in (
        ("calls", "count", "lower"), ("busy_s", "s", "lower"),
        ("self_s", "s", "lower"), ("ms_p50", "ms", "lower"))]
    + [("solver.%s.busy_s" % f, "s", "lower")
       for f in ("held_karp", "random_split_solver", "framework_solver", "split_prefix_system")]
    + [
        ("solver.peak_table_entries", "count", "lower"),
        ("solver.relaxations", "count", "lower"),
        ("solver.relaxations_per_s", "1/s", "higher"),
        ("systems.SetSystem.calls", "count", "lower"),
        ("systems.SetSystem.busy_s", "s", "lower"),
        ("systems.successors.busy_s", "s", "lower"),
    ]
    + [("systems.%s.busy_s" % f, "s", "lower")
       for f in ("union_product", "count_chains", "relabel", "load_system", "dump_system")]
    + [("constructions.%s.busy_s" % f, "s", "lower") for f in SPANNED["constructions"]]
    + [
        ("constructions.sets_per_s", "1/s", "higher"),
        ("cover.covers_all.calls", "count", "lower"),
        ("cover.covers_all.busy_s", "s", "lower"),
    ]
    + [("cover.%s.busy_s" % f, "s", "lower")
       for f in ("random_cover", "greedy_prune", "make_unique", "exactly_once")]
    + [
        ("cover.regularly_intersecting.calls", "count", "lower"),
        ("cover.keep_ratio", "ratio", "lower"),
    ]
    + [("semiring.%s.busy_s" % f, "s", "lower") for f in SPANNED["semiring"]]
    + [
        ("semiring.local_cost.calls", "count", "lower"),
        ("semiring.local_cost.busy_s", "s", "lower"),
        ("analysis.optimize_params.busy_s", "s", "lower"),
        ("analysis.emit_curve.busy_s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.busy_s", "s", "lower"),
        ("cli.stdout_mismatches", "count", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
    ]
)

# layers that also run while a workload is built; their set-up share is
# reported under the same name with a `setup.` prefix
SETUP_LAYERS = (
    "systems.SetSystem.calls",
    "systems.SetSystem.busy_s",
    "systems.successors.busy_s",
    "systems.relabel.busy_s",
    "systems.dump_system.busy_s",
    *("constructions.%s.busy_s" % f for f in SPANNED["constructions"]),
    "constructions.sets_per_s",
    "cover.covers_all.calls",
    "cover.random_cover.busy_s",
    "cover.greedy_prune.busy_s",
    "cover.make_unique.busy_s",
    "cover.regularly_intersecting.calls",
)
_UNITS = {name: (unit, better) for name, unit, better in PER_LAYER}
PER_LAYER += [("setup." + name, *_UNITS[name]) for name in SETUP_LAYERS]

_CONSTRUCTIONS = tuple("constructions." + f for f in SPANNED["constructions"])


def relaxations(f) -> int:
    """Relaxations restricted_dp(inst, f) performs, computed from f alone:
    over first cities c0 with {c0} in F and sets s in F holding c0 (the full
    set excluded), the sum of |s| * |succ(s)|."""
    masks = f.mask_set()
    n = f.n
    full = (1 << n) - 1
    if 0 not in masks or full not in masks:
        return 0
    total = 0
    for s in masks:
        if s == full:
            continue
        size = bin(s).count("1")
        succ = sum(1 for e in range(n) if not s >> e & 1 and s | 1 << e in masks)
        firsts = sum(1 for e in range(n) if s >> e & 1 and 1 << e in masks)
        total += firsts * size * succ
    return total


class Tracer:
    """Wrappers, the spans they record, and the exact counts taken beside them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.cost_calls = 0
        self.cost_s = 0.0
        self.peak_table_entries = 0
        self.relaxations = 0
        self.count_relaxations = True
        self.kept = 0
        self.drawn = 0

    # -- recording -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                t0 = time.perf_counter()
                after(span, args, result)
                if stack:  # keep the bookkeeping out of the caller's self time
                    spans[stack[-1]][4] += time.perf_counter() - t0
            return result

        return traced

    def _counted_cost(self, cost):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def counted(mask, tail):
            t0 = clock()
            value = cost(mask, tail)
            dt = clock() - t0
            self.cost_calls += 1
            self.cost_s += dt
            if stack:
                spans[stack[-1]][4] += dt
            return value

        counted.bench_counted = True
        return counted

    def _after_solution(self, span, args, result):
        if result is not None:
            self.peak_table_entries = max(self.peak_table_entries, result.table_entries)
        if span[0] == "solver.restricted_dp" and self.count_relaxations:
            self.relaxations += relaxations(args[1])

    def _after_prune(self, span, args, result):
        self.drawn += len(args[0])
        self.kept += len(result)

    def _after_construction(self, span, args, result):
        span.append(len(result))

    # -- install / uninstall ---------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "chainfold" or modname.startswith("chainfold.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_class(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        import chainfold.semiring as semiring
        import chainfold.systems as systems

        hooks = {
            "solver.restricted_dp": self._after_solution,
            "solver.held_karp": self._after_solution,
            "cover.greedy_prune": self._after_prune,
        }
        for c in _CONSTRUCTIONS:
            hooks[c] = self._after_construction
        for modname, names in SPANNED.items():
            mod = sys.modules["chainfold." + modname]
            for name in names:
                full = f"{modname}.{name}"
                original = getattr(mod, name)
                self._rebind(original, self._span(full, original, hooks.get(full)))
        cls = systems.SetSystem
        self._patch_class(cls, "__init__", self._span("systems.SetSystem", cls.__init__))
        self._patch_class(cls, "successors", self._span("systems.successors", cls.successors))

        post_init = semiring.PermutationProblem.__post_init__
        counted_cost = self._counted_cost

        def wrap_cost(problem):
            post_init(problem)
            if not getattr(problem.local_cost, "bench_counted", False):
                object.__setattr__(problem, "local_cost", counted_cost(problem.local_cost))

        self._patch_class(semiring.PermutationProblem, "__post_init__", wrap_cost)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derived metrics -------------------------------------------------------

    def _phase(self, lo, hi, passes):
        """Metrics of spans lo..hi-1, divided by the number of passes they cover."""
        spans = self.spans
        calls, busy, self_s, durations = {}, {}, {}, {}
        sets_built = constructions_s = 0.0

        def nested_in(idx, names):
            p = spans[idx][3]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][3]
            return False

        for i in range(lo, hi):
            name, start, end, _, leaf = spans[i][:5]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - self._child[i] - leaf
            durations.setdefault(name, []).append(dur)
            if not nested_in(i, (name,)):
                busy[name] = busy.get(name, 0.0) + dur
            if name in _CONSTRUCTIONS and len(spans[i]) > 5 and not nested_in(i, _CONSTRUCTIONS):
                sets_built += spans[i][5]  # absent when the construction raised
                constructions_s += dur
        out = {"constructions.sets_per_s": sets_built / constructions_s if constructions_s else 0.0}
        for name in calls:
            out[name + ".calls"] = calls[name] / passes
            out[name + ".busy_s"] = busy[name] / passes
            out[name + ".self_s"] = self_s[name] / passes
            out[name + ".ms_p50"] = 1000 * median(durations[name])
        return out

    def layer_metrics(self, setup_spans: int, cycles: int, overhead: float,
                      stdout_mismatches: float) -> dict:
        """Per-layer values.

        Spans with index below setup_spans were recorded while building the
        workload once and give the `setup.` metrics; the rest were recorded
        over `cycles` full passes of the operations and are reported per
        pass.  Every pass runs the same operations on the same inputs, so
        per-pass counts are exact.  Relaxations are summed over the first
        pass only.
        """
        self._child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                self._child[s[3]] += s[2] - s[1]
        setup = self._phase(0, setup_spans, 1)
        ops = self._phase(setup_spans, len(self.spans), cycles)
        out = {}
        for metric, _unit, _better in PER_LAYER:
            if metric.startswith("setup."):
                out[metric] = setup.get(metric[6:], 0.0)
            else:
                out[metric] = ops.get(metric, 0.0)
        rdp_self = out["solver.restricted_dp.self_s"]
        out.update({
            "solver.peak_table_entries": self.peak_table_entries,
            "solver.relaxations": self.relaxations,
            "solver.relaxations_per_s": self.relaxations / rdp_self if rdp_self > 0 else 0.0,
            "cover.keep_ratio": self.kept / self.drawn if self.drawn else 0.0,
            "semiring.local_cost.calls": self.cost_calls / cycles,
            "semiring.local_cost.busy_s": self.cost_s / cycles,
            "cli.stdout_mismatches": stdout_mismatches,
            "bench.trace_overhead": overhead,
        })
        return out
