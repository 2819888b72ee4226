"""Time the calls of the baseline table in ROADMAP.md (open item 1).

From the root of a checkout:

    python3 bench/roadmap_table.py

Prints one markdown row per call: the median wall time of three calls, or of
one call when a call takes longer than two seconds.  README.md in this
directory lists the result beside the ROADMAP figures.
"""

import sys
import time
from math import comb
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chainfold import constructions, semiring, solver, systems, verify  # noqa: E402


def timed(fn, prepare=lambda: None):
    """Median time of fn(prepare()), the preparation left untimed."""
    times = []
    for _ in range(3):
        arg = prepare()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
        if times[-1] > 2:
            break
    return median(times)


def show(seconds):
    return f"{seconds * 1000:.1f} ms" if seconds < 1 else f"{seconds:.2f} s"


def rows():
    inst = {n: solver.random_instance(n, seed=1) for n in (10, 14, 16, 18)}
    for n in (10, 14, 16):
        pset = constructions.powerset(n)
        pset.successors()
        pset.elements()
        yield f"restricted_dp(powerset), n = {n}", timed(lambda _: solver.restricted_dp(inst[n], pset))
    for n in (10, 14, 16, 18):
        yield f"held_karp, n = {n}", timed(lambda _: solver.held_karp(inst[n]))
    i10 = inst[10]
    yield "exhaustive random_split_solver, n = 10", timed(
        lambda _: solver.random_split_solver(i10, 0.445, comb(10, 5), 0))
    bs, fams = verify.framework_plan(10)
    yield "framework_solver, n = 10", timed(lambda _: solver.framework_solver(i10, bs, fams))
    yield "brute_force, n = 10", timed(lambda _: solver.brute_force(i10))
    kp = constructions.koivisto_parviainen()
    yield "kp count_chains", timed(lambda _: systems.count_chains(kp))
    yield "kp successors() on a fresh system", timed(
        lambda f: f.successors(), constructions.koivisto_parviainen)
    yield "banded n = 24 build", timed(lambda _: constructions.from_spec("thm41:24,0.5,0.4112,auto"))
    chain = semiring.Poset.from_relations(16, [(i, i + 1) for i in range(1, 8)])
    yield "linear extensions, n = 16", timed(lambda _: semiring.count_linear_extensions(chain))


if __name__ == "__main__":
    print("| call | median |\n|---|---|")
    for label, seconds in rows():
        print(f"| {label} | {show(seconds)} |", flush=True)
