"""Self-test of the benchmark.  From the root of a checkout:

    python3 bench/selftest.py

It checks, on tiny inputs:
  * every workload, untraced and traced, prints the result schema with every
    metric BENCHMARK.json names, answers correctly, and leaves at zero the
    layers it is predicted not to touch;
  * exact counts repeat exactly for one seed;
  * a wrong answer and a raising operation are counted as failed;
  * each reference oracle agrees with chainfold's own exhaustive oracles;
  * without the checkout's src/, the benchmark exits non-zero and prints no
    result.
Exits 1 and lists what failed when any check fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT = ("solver.peak_table_entries", "solver.relaxations", "semiring.local_cost.calls",
         "solver.restricted_dp.calls", "systems.SetSystem.calls", "cli.main.calls")
# layers each workload must not reach
ZERO = {
    "dp": ("cli.main.calls", "analysis.optimize_params.busy_s", "systems.count_chains.busy_s"),
    "systems-cover": ("solver.restricted_dp.calls", "solver.held_karp.busy_s",
                      "semiring.evaluate_dp.busy_s", "semiring.local_cost.calls"),
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload, trace, seed=5):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--tiny")
    expect(out.returncode == 0, f"{workload} trace {trace}: exit {out.returncode}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None


def check_schema(workload, trace, result):
    where = f"{workload} trace {trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: failed operations")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    expect(list(result["metrics"]) == [m["name"] for m in declared],
           f"{where}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
               f"{where}: {m['name']} is {got}")


def check_workloads():
    for workload in run.WORKLOAD_NAMES:
        plain = result_of(workload, 0)
        if plain:
            check_schema(workload, 0, plain)
            expect(plain["metrics"]["ok_op_share"]["value"] == 1.0, f"{workload}: ok_op_share")
        traced = [result_of(workload, 1) for _ in range(2)]
        if not all(traced):
            continue
        check_schema(workload, 1, traced[0])
        first, second = (t["metrics"] for t in traced)
        for name in EXACT:
            expect(first[name]["value"] == second[name]["value"],
                   f"{workload}: {name} {first[name]['value']} then {second[name]['value']}")
        for name in ZERO[workload]:
            expect(first[name]["value"] == 0, f"{workload}: {name} should be 0, is {first[name]['value']}")
        expect(first["cli.stdout_mismatches"]["value"] == 0, f"{workload}: cli stdout mismatches")


def check_injected_failures():
    import workloads

    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        w = workloads.build("dp", 5, True, workdir)
        right = w.ops[0].run

        def wrong():
            value, tour, entries = right()
            return value + 1, tour, entries

        def raising():
            raise RuntimeError("injected")

        w.ops[0].run, w.ops[1].run = wrong, raising
        phase = run.measure(w.ops, 0.2)
        failed, problems, _ = run.check(w.ops, phase)
        expect(failed == 2 * phase.cycles, f"injected failures: {failed} failed of {phase.cycles} passes")
        expect(any("injected" in p for p in problems), "the raised exception is not reported")


def check_oracles():
    import random
    from fractions import Fraction

    import oracles
    from chainfold import constructions, semiring, solver, systems

    rng = random.Random(7)
    for n in (2, 3, 5, 7, 8):
        rows = [[0 if i == j else rng.randint(1, 50) for j in range(n)] for i in range(n)]
        inst = solver.TspInstance.from_rows(rows)
        expect(oracles.tsp_optimum(rows) == solver.brute_force(inst).value, f"tsp_optimum n={n}")
        if n <= 7:
            path = semiring.evaluate_brute(semiring.tsp_path_problem(inst))
            expect(oracles.min_hamiltonian_path(rows) == path, f"min_hamiltonian_path n={n}")
    for density in (0.0, 0.2, 0.6):
        rel = [(a, b) for a in range(1, 8) for b in range(a + 1, 9) if rng.random() < density]
        ref = semiring.count_linear_extensions_brute(semiring.Poset.from_relations(8, rel))
        expect(oracles.linear_extensions(8, rel) == ref, f"linear_extensions density {density}")
    expect(oracles.chains_multinomial([2, 3, 1]) == 60, "chains_multinomial")
    for spec in ("tower:3,2", "thm45:7,0.715,0.43", "thm41:8,0.5,0.375,0.5", "warmup:4,0.75"):
        f = constructions.from_spec(spec)
        expect(oracles.chain_count(f.n, f.masks) == systems.supported_permutation_count(f),
               f"chain_count {spec}")
        expect(oracles.successor_edges(f.n, f.masks) == sum(map(len, f.successors().values())),
               f"successor_edges {spec}")
    first = [Fraction(rng.randint(1, 9), 10) for _ in range(5)]
    weights = [[Fraction(rng.randint(1, 9), 10) for _ in range(5)] for _ in range(5)]
    import workloads

    ref = semiring.evaluate_brute(workloads.degree2_problem(first, weights, semiring.MAX_TIMES))
    expect(oracles.max_product_path(first, weights) == ref, "max_product_path")


def check_without_sources():
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = bench("--workload", "dp", "--seed", "1", "--seconds", "1", cwd=bare)
        expect(out.returncode != 0, "runs without src/")
        expect(not out.stdout.strip(), f"prints a result without src/: {out.stdout[-200:]}")


def main():
    run.OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    check_oracles()
    check_injected_failures()
    check_without_sources()
    check_workloads()
    for f in failures:
        print("FAIL", f)
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
