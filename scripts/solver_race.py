#!/usr/bin/env python3
"""Race the exact solvers on one seeded instance and check they agree.

Usage: python scripts/solver_race.py [--n 9] [--seed 0] [--trials 70]

Exits 1 when the solvers disagree on the optimal value or on its witness, the
lexicographically smallest optimal tour, so it can serve as a smoke check.
A sampled split run (--trials below the number of splits) may support the
optimal cycle only as another rotation, so its tour alone is compared from
city 1; every other tour is compared exactly.
A solver that refuses the size (brute force above solver.BRUTE_CAP, the
framework solver where verify.framework_plan has no block plan) is skipped
with a line saying why.
"""

import argparse
import sys
import time
from math import comb

from chainfold import solver, verify
from chainfold.constructions import powerset


def random_split(inst, trials, seed, sampled):
    """The split solver's answer; a sampled run's tour is rotated to start at
    city 1."""
    sol = solver.random_split_solver(inst, 0.445, trials, seed)
    if not sampled:
        return sol
    at = sol.tour.index(1)
    return solver.Solution(sol.value, sol.tour[at:] + sol.tour[:at], sol.table_entries)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="split samples (default: exhaustive)")
    args = parser.parse_args()

    inst = solver.random_instance(args.n, args.seed)
    trials = args.trials or comb(args.n, args.n // 2)
    sampled = trials < comb(args.n, args.n // 2)
    pset = powerset(args.n)
    runs, skipped = [("brute", lambda: solver.brute_force(inst))], []
    if args.n > solver.BRUTE_CAP:
        runs, skipped = [], [("brute", f"n > BRUTE_CAP = {solver.BRUTE_CAP}")]
    runs += [
        ("held-karp", lambda: solver.held_karp(inst)),
        ("restricted(powerset)", lambda: solver.restricted_dp(inst, pset)),
        ("divide&conquer d=1", lambda: solver.gurevich_shelah(inst, 1)),
        ("divide&conquer d=2", lambda: solver.gurevich_shelah(inst, 2)),
        ("random-split", lambda: random_split(inst, trials, args.seed, sampled)),
    ]
    try:
        block_size, families = verify.framework_plan(args.n)
    except ValueError as exc:
        skipped.append(("framework", str(exc)))
    else:
        runs.append(("framework", lambda: solver.framework_solver(inst, block_size, families)))
    print(f"n = {args.n}, seed = {args.seed}, split trials = {trials}")
    for name, why in skipped:
        print(f"  {name:<22s} skipped: {why}")
    answers = set()
    for name, fn in runs:
        t0 = time.time()
        sol = fn()
        dt = (time.time() - t0) * 1000
        answers.add((sol.value, sol.tour))
        entries = f" table={sol.table_entries}" if sol.table_entries else ""
        print(f"  {name:<22s} value={sol.value}  {dt:8.1f} ms{entries}")
    if len(answers) == 1:
        print("all agree")
        return 0
    print(f"DISAGREEMENT: {sorted(answers)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
