"""End-to-end command-line checks: outputs, exit codes, reproducibility."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainfold.cli import main
from chainfold.constructions import powerset
from chainfold.cover import load_family
from chainfold.rng import SplitMix64
from chainfold.solver import WEIGHT_BOUND, TspInstance, brute_force, random_instance
from chainfold.systems import dump_system


def write_instance(inst, path):
    """An instance file: "n <n>", then the n rows of the distance matrix."""
    rows = (" ".join(map(str, row[1:])) for row in inst.dist[1:])
    Path(path).write_text(f"n {inst.n}\n" + "".join(row + "\n" for row in rows))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def instance8(tmp_path):
    path = tmp_path / "ex8.tsp"
    write_instance(random_instance(8, 42), path)
    return str(path)


# --- solve -------------------------------------------------------------------

def test_solve_brute_equals_bhk(capsys, instance8):
    code_b, out_b = run_cli(capsys, "solve", "--alg", "brute", "--instance", instance8)
    code_h, out_h = run_cli(capsys, "solve", "--alg", "bhk", "--instance", instance8)
    assert code_b == code_h == 0
    value_b = [ln for ln in out_b.splitlines() if ln.startswith("value ")]
    value_h = [ln for ln in out_h.splitlines() if ln.startswith("value ")]
    assert value_b == value_h
    tour_b = [ln for ln in out_b.splitlines() if ln.startswith("tour ")]
    tour_h = [ln for ln in out_h.splitlines() if ln.startswith("tour ")]
    assert tour_b == tour_h


def test_solve_restricted_powerset_matches(capsys, tmp_path, instance8):
    sys_path = tmp_path / "p8.ss"
    dump_system(powerset(8), sys_path)
    code_r, out_r = run_cli(
        capsys, "solve", "--alg", "restricted", "--instance", instance8,
        "--set-system", str(sys_path),
    )
    code_h, out_h = run_cli(capsys, "solve", "--alg", "bhk", "--instance", instance8)
    assert code_r == 0
    pick = lambda out: [ln for ln in out.splitlines() if ln.startswith("value ")]
    assert pick(out_r) == pick(out_h)


def test_solve_all_algorithms_agree(capsys, instance8):
    values = {}
    for argv in (
        ["solve", "--alg", "gs", "--instance", instance8, "--depth", "1"],
        ["solve", "--alg", "warmup", "--instance", instance8, "--trials", "70"],
        ["solve", "--alg", "framework", "--instance", instance8],
        ["solve", "--alg", "brute", "--instance", instance8],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        values[argv[2]] = [ln for ln in out.splitlines() if ln.startswith("value ")][0]
    assert len(set(values.values())) == 1


def test_solve_missing_file_exits_2(capsys, tmp_path):
    for path in ("nope.tsp", str(tmp_path)):
        code, _ = run_cli(capsys, "solve", "--alg", "bhk", "--instance", path)
        assert code == 2


def test_paths_through_a_regular_file_exit_2(capsys, instance8):
    # NotADirectoryError, on a read and on a write
    for argv in (
        ["solve", "--alg", "bhk", "--instance", instance8 + "/x"],
        ["sys", "--make", "powerset:3", "--out", instance8 + "/out.ss"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:")


def test_solve_at_the_weight_bound(capsys, tmp_path):
    # n * max|w| = WEIGHT_BOUND is refused as a bad file; one below it, with
    # tied signed weights, solves to the brute-force value and tour
    n = 8
    path = tmp_path / "bound.tsp"
    path.write_text(f"n {n}\n" + "".join(
        " ".join("0" if i == j else str(WEIGHT_BOUND // n) for j in range(n)) + "\n"
        for i in range(n)
    ))
    code = main(["solve", "--alg", "bhk", "--instance", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {path}: n * max|weight| must stay below 2^56\n"
    big = WEIGHT_BOUND // n - 1
    gen = SplitMix64(n)
    weights = (big, -big, big - 1)
    inst = TspInstance.from_rows([[weights[gen.randbelow(3)] for _ in range(n)] for _ in range(n)])
    write_instance(inst, path)
    ref = brute_force(inst)
    expected = [f"value {ref.value}", "tour " + " ".join(map(str, ref.tour))]
    for alg in ("brute", "bhk", "warmup"):  # 70 trials: every split of 8 cities
        code, out = run_cli(capsys, "solve", "--alg", alg, "--instance", str(path), "--trials", "70")
        assert code == 0 and out.splitlines()[1:3] == expected


def test_solve_framework_block_size(capsys, tmp_path):
    path = tmp_path / "ex9.tsp"
    inst = random_instance(9, 5)
    write_instance(inst, path)
    argv = ["solve", "--alg", "framework", "--instance", str(path), "--block-size"]
    code, out = run_cli(capsys, *argv, "3")
    ref = brute_force(inst)
    assert code == 0
    assert f"value {ref.value}" in out.splitlines()
    assert "tour " + " ".join(map(str, ref.tour)) in out.splitlines()
    # block size 2 splits 9 cities into blocks 2, 2, 2, 3, and there is no
    # stock family for 2
    code = main(argv + ["2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: no stock covering family for block sizes [2, 2, 2]; "
        "pick --block-size so blocks land in [3, 4, 5]\n"
    )


def test_non_integer_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CHAINFOLD_SEED", "x")
    code = main(["cover", "--base", "chain:3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: CHAINFOLD_SEED='x' is not an integer\n"


def test_solve_cap_violation_exits_3(capsys, tmp_path):
    path = tmp_path / "big.tsp"
    write_instance(random_instance(25, 0), path)
    code, _ = run_cli(capsys, "solve", "--alg", "bhk", "--instance", str(path))
    assert code == 3


def test_solve_gs_cap_violation_exits_3(capsys, tmp_path):
    # refused before the recursion builds its first table
    path = tmp_path / "big.tsp"
    write_instance(random_instance(25, 0), path)
    for depth in ("0", "2"):
        argv = ["solve", "--alg", "gs", "--depth", depth, "--instance", str(path)]
        code, out = run_cli(capsys, *argv)
        assert code == 3 and out == ""


def test_solve_gs_negative_depth_exits_2(capsys, instance8):
    # a negative switch depth is refused, not run as depth 0
    code = main(["solve", "--alg", "gs", "--depth", "-2", "--instance", instance8])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: switch depth must be nonnegative, got -2\n"


def test_solve_restricted_ground_set_mismatch_exits_2(capsys, tmp_path, instance8):
    sys_path = tmp_path / "p7.ss"
    dump_system(powerset(7), sys_path)
    argv = ["solve", "--alg", "restricted", "--instance", instance8, "--set-system", str(sys_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: system over [7] vs instance with 8 cities\n"


def test_solve_restricted_infeasible_exits_1(capsys, tmp_path, instance8):
    from chainfold.systems import SetSystem

    sys_path = tmp_path / "empty.ss"
    dump_system(SetSystem(8, [0]), sys_path)
    code, out = run_cli(
        capsys, "solve", "--alg", "restricted", "--instance", instance8,
        "--set-system", str(sys_path),
    )
    assert code == 1 and "infeasible" in out


# --- sys ---------------------------------------------------------------------

def test_sys_make_and_metrics_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "kp.ss"
    code, out_make = run_cli(capsys, "sys", "--make", "kp", "--out", str(out_path))
    assert code == 0
    code, out_metrics = run_cli(capsys, "sys", "--metrics", str(out_path))
    assert code == 0
    assert out_make == out_metrics
    assert "S=1.452419" in out_metrics and "P=1.861602" in out_metrics


def test_sys_bare_metrics_without_make_exits_2(capsys):
    code, out = run_cli(capsys, "sys", "--metrics")
    assert code == 2 and out == ""
    # with --make, the bare flag names the metrics --make prints
    code, out = run_cli(capsys, "sys", "--make", "tower:2,2", "--metrics")
    assert code == 0 and out.startswith("n=4 ")


def test_sys_cap_violation_exits_3(capsys):
    code, _ = run_cli(capsys, "sys", "--make", "powerset:40")
    assert code == 3
    # a split band of about 98 M sets is refused before it is built
    code, out = run_cli(capsys, "sys", "--make", "warmup:14,0.5")
    assert code == 3 and out == ""


def test_sys_negative_powerset_exits_2(capsys):
    code = main(["sys", "--make", "powerset:-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: bad construction spec 'powerset:-1': powerset needs n >= 0, got -1\n"
    )


def test_sys_auto_gamma(capsys, tmp_path):
    code, out = run_cli(capsys, "sys", "--make", "thm41:8,0.5,0.4112,auto")
    assert code == 0 and "sets=47" in out


def test_sys_banded_24_regression(capsys):
    # frozen from the chain-count oracle: the n=24 banded system on the
    # sqrt(2)-space ray already beats the n=26 two-block point (3.93)
    code, out = run_cli(capsys, "sys", "--make", "thm41:24,0.5,0.4112,auto")
    assert code == 0
    assert "sets=15199" in out
    assert "chains=2294425328025600000" in out
    assert "S2P=3.756810" in out


# --- cover ----------------------------------------------------------------------

def test_cover_exact_family(capsys, tmp_path):
    fam_path = tmp_path / "fam.cf"
    code, out = run_cli(
        capsys, "cover", "--base", "tower:2,2", "--exact", "--out", str(fam_path)
    )
    assert code == 0
    assert "family size 6" in out
    fam = load_family(fam_path)
    assert len(fam) == 6


def test_cover_unique_roundtrip(capsys, tmp_path):
    fam_path = tmp_path / "uf.cf"
    code, out = run_cli(
        capsys, "cover", "--base", "thm45:4,0.75,0.5", "--prune", "--unique",
        "--seed", "5", "--out", str(fam_path),
    )
    assert code == 0 and "mode unique" in out
    fam = load_family(fam_path)
    assert fam.unique_mode


def test_cover_unique_beyond_enumeration_cap(capsys):
    code, out = run_cli(capsys, "cover", "--base", "thm45:7,0.715,0.43", "--prune", "--unique")
    assert code == 0 and "mode unique" in out


def test_cover_unique_family_file_bytes(capsys, tmp_path):
    # the benchmark's unique family: stdout and file are regression values
    fam_path = tmp_path / "uf.cf"
    code, out = run_cli(
        capsys, "cover", "--base", "thm45:6,0.667,0.334", "--prune", "--unique",
        "--seed", "11", "--out", str(fam_path),
    )
    assert code == 0
    assert out == "family size 3\nmode unique\nprescribed q(n) 90\n"
    assert fam_path.read_text().split("\n", 1)[1] == (
        "mode unique\n1 2 3 4 5 6\n6 5 3 2 1 4\n6 1 4 5 3 2\n"
        "removed 2: 6 7 e f\nremoved 3: 9 30 b d 32 34 f 36\n"
    )


def test_cover_runs_past_ten_elements(capsys):
    code, out = run_cli(capsys, "cover", "--base", "thm45:11,0.728,0.364", "--prune")
    assert code == 0
    assert out == "family size 13\nmode plain\nprescribed q(n) 571\n"


def test_cover_over_state_budget_exits_3(capsys, monkeypatch):
    from chainfold import systems

    monkeypatch.setattr(systems, "STATE_BUDGET", 1000)
    code = main(["cover", "--base", "thm45:11,0.728,0.364", "--prune"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: coverage DP holds over 1000 live states\n"


def test_cover_seed_determinism(capsys, tmp_path):
    paths = []
    for name in ("a.cf", "b.cf"):
        fam_path = tmp_path / name
        code, _ = run_cli(
            capsys, "cover", "--base", "chain:3", "--seed", "9", "--out", str(fam_path)
        )
        assert code == 0
        paths.append(fam_path.read_bytes())
    # identical seeds give byte-identical families (up to the base pointer line)
    strip = lambda b: b.split(b"\n", 1)[1]
    assert strip(paths[0]) == strip(paths[1])


def test_cover_env_seed_override(capsys, tmp_path, monkeypatch):
    outs = []
    for env_seed in ("3", "4"):
        monkeypatch.setenv("CHAINFOLD_SEED", env_seed)
        fam_path = tmp_path / f"env{env_seed}.cf"
        code, _ = run_cli(capsys, "cover", "--base", "chain:3", "--out", str(fam_path))
        assert code == 0
        outs.append(fam_path.read_text().splitlines()[2:])
    assert outs[0] != outs[1]
    # explicit flag beats the environment
    monkeypatch.setenv("CHAINFOLD_SEED", "3")
    flagged = tmp_path / "flag.cf"
    code, _ = run_cli(capsys, "cover", "--base", "chain:3", "--seed", "4", "--out", str(flagged))
    assert code == 0
    assert flagged.read_text().splitlines()[2:] == outs[1]


# --- count-le / eval ----------------------------------------------------------------

def test_count_le_chain(capsys, tmp_path):
    poset = tmp_path / "chain6.po"
    poset.write_text("n 6\n" + "".join(f"{i} < {i+1}\n" for i in range(1, 6)))
    code, out = run_cli(capsys, "count-le", "--poset", str(poset))
    assert code == 0 and out.strip() == "count 1"


def test_count_le_long_chain_runs_past_brute_range(capsys, tmp_path):
    # the DP is capped by live states, and a chain holds one per level
    poset = tmp_path / "chain40.po"
    poset.write_text("n 40\n" + "".join(f"{i} < {i+1}\n" for i in range(1, 40)))
    code, out = run_cli(capsys, "count-le", "--poset", str(poset))
    assert code == 0 and out == "count 1\n"


def test_count_le_over_state_budget_exits_3(capsys, tmp_path, monkeypatch):
    from chainfold import systems

    monkeypatch.setattr(systems, "STATE_BUDGET", 30)
    poset = tmp_path / "anti6.po"
    poset.write_text("n 6\n")  # antichain: 35 live states at its widest
    code, out = run_cli(capsys, "count-le", "--poset", str(poset))
    assert code == 3 and out == ""


def test_count_le_corrupted_exits_2(capsys, tmp_path):
    poset = tmp_path / "bad.po"
    poset.write_text("n 3\n1 < 2\n2 < 1\n")
    code, _ = run_cli(capsys, "count-le", "--poset", str(poset))
    assert code == 2


def test_count_le_negative_ground_set_exits_2(capsys, tmp_path):
    poset = tmp_path / "negative.po"
    poset.write_text("n -1\n")
    for argv in (["count-le"], ["eval", "--problem", "le", "--method", "brute"]):
        code, out = run_cli(capsys, *argv, "--poset", str(poset))
        assert code == 2 and out == ""


def test_count_le_huge_ground_set_exits_3(capsys, tmp_path):
    poset = tmp_path / "huge.po"
    poset.write_text("n 20000000\n1 < 2\n")
    code, out = run_cli(capsys, "count-le", "--poset", str(poset))
    assert code == 3 and out == ""


def test_eval_le_brute_and_dp_agree(capsys, tmp_path):
    poset = tmp_path / "p.po"
    poset.write_text("n 4\n1 < 3\n2 < 3\n")
    _, out_dp = run_cli(capsys, "eval", "--problem", "le", "--poset", str(poset))
    _, out_brute = run_cli(
        capsys, "eval", "--problem", "le", "--poset", str(poset), "--method", "brute"
    )
    assert out_dp == out_brute


def test_eval_tsp_path_value(capsys, instance8):
    code, out = run_cli(capsys, "eval", "--problem", "tsp", "--instance", instance8)
    assert code == 0 and out.startswith("value ")


def test_eval_tsp_over_state_budget_exits_3_before_sweeping(capsys, tmp_path, monkeypatch):
    from chainfold import semiring

    def never(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(semiring, "_dp_over_masks", never)
    path = tmp_path / "ex19.tsp"
    write_instance(random_instance(19, 0), path)
    code, out = run_cli(capsys, "eval", "--problem", "tsp", "--instance", str(path))
    assert code == 3 and out == ""


# --- bounds / optimize / curve ----------------------------------------------------------

def test_bounds_sqrt2(capsys):
    code, out = run_cli(
        capsys, "bounds", "--theorem", "41", "--alpha", "0.5", "--beta", "0.4112",
        "--gamma", "auto",
    )
    assert code == 0
    fields = dict(ln.split() for ln in out.splitlines())
    assert abs(float(fields["P"]) - 1.785930) <= 1e-4
    assert float(fields["ST"]) < 3.5720


def test_optimize_core(capsys):
    code, out = run_cli(capsys, "optimize", "--target-lgS", "1.0", "--theorem", "45")
    assert code == 0
    fields = dict(ln.split() for ln in out.splitlines())
    assert float(fields["P"]) == pytest.approx(1.0)


def test_curve_reproducible(capsys, tmp_path):
    blobs = []
    for name in ("c1.csv", "c2.csv"):
        path = tmp_path / name
        code, _ = run_cli(capsys, "curve", "--out", str(path), "--grid", "128")
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0].decode().splitlines()[0] == "x_lgS,S,T_upper,ST_upper,T_lower,ST_lower,source"


# --- verify -----------------------------------------------------------------------------

def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "lemma37")
    assert code == 0
    assert out.splitlines()[0] == "PASS lemma37"


def test_verify_default_runs_every_suite(capsys, monkeypatch):
    import chainfold.verify as verify

    small = {k: verify.SUITES[k] for k in ("cor42", "cor43", "lemma37")}
    monkeypatch.setattr(verify, "SUITES", small)
    code, out = run_cli(capsys, "verify")
    assert code == 0
    statuses = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert [s.split()[1] for s in statuses] == list(small)
    assert out.splitlines()[-1] == "suites 3 failed 0"


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    import chainfold.verify as verify

    def broken():
        return verify.SuiteResult("cor42", False, ["forced failure"])

    monkeypatch.setattr(verify, "SUITES", {"cor42": broken})
    code, out = run_cli(capsys, "verify")
    assert code == 1
    assert out.splitlines()[0] == "FAIL cor42"


def test_verify_timings_go_to_stderr(capsys, monkeypatch):
    import types

    import chainfold.verify as verify

    # a clock whose steps grow, so every timed interval differs from the last
    ticks = iter(range(1000))
    clock = types.SimpleNamespace(time=lambda: next(ticks) ** 2 / 1000)
    monkeypatch.setattr(verify, "time", clock)
    runs = []
    for _ in range(2):
        code = main(["verify", "--suite", "kp"])
        runs.append((code, *capsys.readouterr()))
    (code1, out1, err1), (code2, out2, err2) = runs
    assert code1 == code2 == 0
    assert out1 == out2
    assert "  metrics in < 1s: True" in out1.splitlines()
    assert err1 != err2
    for err in (err1, err2):
        lines = err.splitlines()
        assert len(lines) == 2 and all(line.startswith("kp ") for line in lines)
        assert lines[0].startswith("kp elapsed ") and lines[0].endswith("s")
        assert lines[1].startswith("kp gate metrics ") and "of 1s (" in lines[1]


def test_verify_unknown_suite_exits_2(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_system_file(capsys, tmp_path):
    good = tmp_path / "good.ss"
    dump_system(powerset(3), good)
    code, _ = run_cli(capsys, "verify", "--system", str(good))
    assert code == 0
    bad = tmp_path / "bad.ss"
    bad.write_text("n 4\ncount 2\n3\n1\n")
    code, _ = run_cli(capsys, "verify", "--system", str(bad))
    assert code == 2


# --- help and console entry point -----------------------------------------------------------

def test_help_exits_zero():
    for argv in (["--help"], ["solve", "--help"], ["sys", "--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_console_script_runs():
    # the subprocess imports chainfold from this checkout, as pytest does
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "chainfold.cli", "sys", "--make", "powerset:3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "S=2.000000" in proc.stdout
