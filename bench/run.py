"""Run one chainfold benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload dp --seed 1 --seconds 50 --trace 0

The workload runs as a closed loop with one client on one thread: each
operation starts when the previous one ends, over whole passes of the
workload's operation list until --seconds have gone by.  Answers are checked
against references after the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes that record spans around chainfold's public functions,
and prints the per-layer metrics (see spans.py).  Either way the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give the same numbers for people.  A fuller record, with
provenance and, for traced runs, every span, goes to bench/out/.

chainfold is imported from the checkout's src/, never from an installed copy.
The run exits with code 2 and prints no result when those sources are absent.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("dp", "systems-cover")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

END_TO_END = (
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_op_share", "fraction"),
)


@dataclass(frozen=True)
class Raised:
    """The answer of an operation that raised."""

    message: str


@dataclass
class Phase:
    """Timings and answers of whole passes over a workload's operations."""

    times: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    cycles: int = 0
    elapsed: float = 0.0

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / self.elapsed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs and a single set-up, for bench/selftest.py")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_seconds(modules) -> float:
    """Time to import numpy and the workload's chainfold modules in a fresh
    interpreter, as a user's process pays it."""
    code = (
        "import time\nt = time.perf_counter()\nimport numpy\n"
        + "".join(f"import chainfold.{m}\n" for m in modules)
        + "print(time.perf_counter() - t)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def set_up(build, modules, repeats):
    """Build the workload `repeats` times, each after a fresh import; return
    the last build and the median set-up time."""
    totals = []
    for _ in range(repeats):
        workload = None  # free the previous build before timing the next
        gc.collect()
        t_import = import_seconds(modules)
        t0 = time.perf_counter()
        workload = build()
        totals.append(t_import + time.perf_counter() - t0)
    return workload, median(totals)


def run_pass(ops, phase):
    """Run every operation once, in order, and add the pass to phase."""
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            answer = op.run()
        except Exception as exc:  # a raising operation is a failed one
            answer = Raised(f"{op.kind}: {type(exc).__name__}: {exc}")
        phase.times.append(clock() - t0)
        phase.answers.append(answer)
    phase.cycles += 1
    phase.elapsed += clock() - start


def measure(ops, seconds) -> Phase:
    phase = Phase()
    while phase.elapsed < seconds:
        run_pass(ops, phase)
    return phase


def measure_traced(plain_ops, traced_ops, seconds, tracer):
    """Alternate untraced and traced passes, so that both see the same
    machine and their throughput ratio is the tracing overhead."""
    plain, traced = Phase(), Phase()
    while plain.elapsed + traced.elapsed < seconds:
        run_pass(plain_ops, plain)
        tracer.install()
        try:
            run_pass(traced_ops, traced)
        finally:
            tracer.uninstall()
        tracer.count_relaxations = False  # relaxations are summed over one pass
    return plain, traced


def check(ops, phase):
    """(failed operations, distinct problems, CLI stdout mismatches)."""
    memo = {}
    failed = mismatches = 0
    for k, answer in enumerate(phase.answers):
        i = k % len(ops)
        key = (i, answer)
        if key not in memo:
            if isinstance(answer, Raised):
                memo[key] = [answer.message]
            else:
                try:
                    memo[key] = [f"{ops[i].kind}: {p}" for p in ops[i].check(answer)]
                except Exception as exc:  # a check that cannot run fails the operation
                    memo[key] = [f"{ops[i].kind}: check raised {type(exc).__name__}: {exc}"]
        problems = memo[key]
        failed += bool(problems)
        mismatches += sum("cli stdout mismatch" in p for p in problems)
    distinct = sorted({p for ps in memo.values() for p in ps})
    return failed, distinct, mismatches


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def latency_metrics(times):
    """Median, and the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return {
        "op_ms_p50": 1000 * median(ordered),
        "op_ms_tail": 1000 * ordered[k],
        "tail_percentile": 100 * (k + 1) / n,
        "tail_beyond": n - k - 1,
        "samples": n,
    }


def kind_medians(ops, times):
    by_kind = {}
    for k, t in enumerate(times):
        by_kind.setdefault(ops[k % len(ops)].kind, []).append(1000 * t)
    return {kind: median(ts) for kind, ts in by_kind.items()}


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, load_at_start, inputs_digest):
    import chainfold
    import numpy

    h = hashlib.sha256()
    for path in sorted((SRC / "chainfold").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "chainfold_file": chainfold.__file__,
        "src_digest": h.hexdigest(),
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu_model(),
        "loadavg_at_start": load_at_start,
        "inputs_digest": inputs_digest,
    }


def run(args):
    load_at_start = os.getloadavg()
    import chainfold

    if not Path(chainfold.__file__).resolve().is_relative_to(SRC):
        print(f"error: chainfold imported from {chainfold.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:

        def build():
            return workloads.build(args.workload, args.seed, args.tiny, workdir)

        record = {}
        if args.trace == 0:
            repeats = 1 if args.tiny else SETUP_REPEATS
            w, setup_s = set_up(build, workloads.MODULES[args.workload], repeats)
            phase = measure(w.ops, args.seconds)
            rss = peak_rss_mib()  # before any reference answer is computed
            failed, problems, _ = check(w.ops, phase)
            attempted = len(phase.times)
            lat = latency_metrics(phase.times)
            values = {
                "op_ms_p50": lat["op_ms_p50"],
                "op_ms_tail": lat["op_ms_tail"],
                "ops_per_s": phase.ops_per_s,
                "setup_s": setup_s,
                "peak_rss_mib": rss,
                "ok_op_share": 1 - failed / attempted,
            }
            units = dict(END_TO_END)
            record["latency"] = lat
            record["op_ms_p50_by_kind"] = kind_medians(w.ops, phase.times)
            record["cycles"] = phase.cycles
            lines = [
                f"op_ms_p50 {lat['op_ms_p50']:.3f} ms",
                f"op_ms_tail {lat['op_ms_tail']:.3f} ms (p{lat['tail_percentile']:.1f}, "
                f"{lat['tail_beyond']} of {lat['samples']} samples beyond)",
                f"ops_per_s {phase.ops_per_s:.4f} 1/s ({attempted} operations, "
                f"{phase.cycles} passes, {phase.elapsed:.2f} s)",
                f"setup_s {setup_s:.4f} s (median of {repeats})",
                f"peak_rss_mib {rss:.2f} MiB",
                f"failed_op_share {failed / attempted:.4f} fraction ({failed} of {attempted})",
            ]
        else:
            w = build()
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_w = build()
            finally:
                tracer.uninstall()
            setup_spans = len(tracer.spans)
            plain, traced = measure_traced(w.ops, traced_w.ops, args.seconds, tracer)
            failed_plain, problems_plain, _ = check(w.ops, plain)
            failed_traced, problems_traced, mismatches = check(traced_w.ops, traced)
            failed = failed_plain + failed_traced
            problems = sorted(set(problems_plain) | set(problems_traced))
            attempted = len(plain.times) + len(traced.times)
            overhead = plain.ops_per_s / traced.ops_per_s
            values = tracer.layer_metrics(setup_spans, traced.cycles, overhead,
                                          mismatches / traced.cycles)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            record["spans"] = [
                [s[0], round(s[1], 7), round(s[2], 7), s[3], round(s[4], 7)] for s in tracer.spans
            ]
            record["setup_spans"] = setup_spans
            record["cycles"] = {"untraced": plain.cycles, "traced": traced.cycles}
            lines = [f"{name} {values[name]:.6g} {units[name]}" for name in units]

    record["provenance"] = provenance(args, load_at_start, w.digest())
    record["problems"] = problems
    record["metrics"] = values
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh)

    print(f"workload {args.workload} seed {args.seed} inputs {record['provenance']['inputs_digest'][:16]}")
    for line in lines:
        print(line)
    for p in problems:
        print(f"problem: {p}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chainfold" / "__init__.py").is_file():
        print(f"error: no chainfold sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
