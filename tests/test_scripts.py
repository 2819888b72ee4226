"""Smoke checks for the reports under scripts/ and the benchmark's self-test:
exit code and final line."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainfold import solver

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name,args,last_line",
    [
        ("solver_race.py", ["--n", "7"], "all agree"),
        ("finite_size_scan.py", ["--sizes", "8,12"], "extremal at these sizes."),
        ("tradeoff_report.py", ["--grid", "64"], "min lower-bound S T = 3.000000 (>= 3)"),
        # above BRUTE_CAP and the block plans; depth-1 leaves of 7 cities are
        # batched sweeps
        ("solver_race.py", ["--n", "13", "--trials", "70"], "all agree"),
    ],
)
def test_script_runs(name, args, last_line):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].strip() == last_line


def test_benchmark_selftest_passes():
    # the benchmark calls the package's API; a change under src/ that breaks
    # a call it makes fails here, not only when the benchmark next runs
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "selftest: 0 failures"


def _race_with(monkeypatch, held_karp, *args):
    spec = importlib.util.spec_from_file_location("solver_race", SCRIPTS / "solver_race.py")
    race = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(race)
    monkeypatch.setattr(solver, "held_karp", held_karp)
    monkeypatch.setattr(sys, "argv", ["solver_race.py", "--n", "7", *args])
    return race.main()


def test_solver_race_exits_1_on_disagreement(monkeypatch, capsys):
    held_karp = solver.held_karp

    def wrong_held_karp(inst):
        sol = held_karp(inst)
        return solver.Solution(sol.value + 1, sol.tour, sol.table_entries)

    assert _race_with(monkeypatch, wrong_held_karp) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("DISAGREEMENT: ")


def test_solver_race_exits_1_on_another_witness(monkeypatch, capsys):
    # the right value with another tour is still a disagreement: every solver
    # in the race returns the lexicographically smallest optimal tour
    held_karp = solver.held_karp

    def other_tour_held_karp(inst):
        sol = held_karp(inst)
        return solver.Solution(sol.value, (1, *reversed(sol.tour[1:])), sol.table_entries)

    assert _race_with(monkeypatch, other_tour_held_karp) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("DISAGREEMENT: ")


@pytest.mark.parametrize("args", [[], ["--trials", "20"]])
def test_solver_race_exits_1_on_a_rotated_witness(monkeypatch, capsys, args):
    # only a sampled split run has its tour read from city 1: another
    # rotation from an exact solver is a disagreement, sampled run or not
    held_karp = solver.held_karp

    def rotated_held_karp(inst):
        sol = held_karp(inst)
        return solver.Solution(sol.value, sol.tour[1:] + sol.tour[:1], sol.table_entries)

    assert _race_with(monkeypatch, rotated_held_karp, *args) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("DISAGREEMENT: ")
