"""Command-line interface: one binary for solvers, constructions, covers,
semiring evaluation, bound curves, and the verification suites.

Subcommands: solve, sys, cover, count-le, eval, bounds, optimize, curve,
verify.  Exit codes: 0 success, 1 computation failure (failed suite,
infeasible restriction), 2 parse errors and any error reading or writing a
file, 3 resource-cap violations.

Reproducibility: identical flags and seed give byte-identical stdout and
output files.  Timings go to stderr so they cannot perturb that.  The only
environment variable honored is CHAINFOLD_SEED, which overrides the default
seed (an explicit --seed flag still wins).
"""

import argparse
import os
import sys
import time

from . import analysis, constructions, cover, semiring, solver, systems, verify


def _default_seed() -> int:
    env = os.environ.get("CHAINFOLD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise systems.FormatError(f"CHAINFOLD_SEED={env!r} is not an integer") from None
    return 0


def _load_or_make_system(token: str) -> systems.SetSystem:
    if os.path.exists(token):
        return systems.load_system(token)
    return constructions.from_spec(token)


def _print_metrics(f: systems.SetSystem) -> None:
    m = systems.metrics(f)
    print(
        f"n={f.n} sets={m.sets} chains={m.chains} "
        f"S={m.size_s:.6f} P={m.density_p:.6f} S2P={m.product_st:.6f}"
    )


def cmd_solve(args) -> int:
    inst = solver.load_instance(args.instance)
    t0 = time.time()
    if args.alg == "brute":
        sol = solver.brute_force(inst)
    elif args.alg == "bhk":
        sol = solver.held_karp(inst)
    elif args.alg == "restricted":
        if not args.set_system:
            raise systems.FormatError("--alg restricted needs --set-system FILE")
        sol = solver.restricted_dp(inst, systems.load_system(args.set_system))
    elif args.alg == "gs":
        sol = solver.gurevich_shelah(inst, args.depth)
    elif args.alg == "warmup":
        sol = solver.random_split_solver(inst, args.alpha, args.trials, args.seed)
    elif args.alg == "framework":
        plan = verify.framework_plan(inst.n, block_size=args.block_size)
        sol = solver.framework_solver(inst, *plan)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.alg)
    elapsed = time.time() - t0
    print(f"algorithm {args.alg}")
    if sol is None:
        print("infeasible")
        print(f"elapsed_ms {elapsed * 1000:.1f}", file=sys.stderr)
        return 1
    print(f"value {sol.value}")
    print("tour " + " ".join(map(str, sol.tour)))
    print(f"table_entries {sol.table_entries}")
    print(f"elapsed_ms {elapsed * 1000:.1f}", file=sys.stderr)
    return 0


def cmd_sys(args) -> int:
    if not args.make and (not args.metrics or args.metrics is True):
        raise systems.FormatError("sys needs --make SPEC and/or --metrics FILE")
    if args.make:
        f = constructions.from_spec(args.make)
        if args.out:
            systems.dump_system(f, args.out)
        _print_metrics(f)
    if args.metrics and args.metrics is not True:
        _print_metrics(systems.load_system(args.metrics))
    return 0


def cmd_cover(args) -> int:
    base = _load_or_make_system(args.base)
    if args.exact:
        fam = cover.exact_min_cover(base)
    else:
        fam = cover.random_cover(base, args.seed, args.max_tries)
        if args.prune:
            fam = cover.greedy_prune(fam)
    if args.unique:
        fam = cover.make_unique(fam)
    print(f"family size {len(fam)}")
    print(f"mode {'unique' if fam.unique_mode else 'plain'}")
    print(f"prescribed q(n) {cover.prescribed_family_size(base)}")
    if args.out:
        base_out = args.base_out or args.out + ".base"
        cover.dump_family(fam, args.out, base_out)
    return 0


def cmd_count_le(args) -> int:
    poset = semiring.load_poset(args.poset)
    print(f"count {semiring.count_linear_extensions(poset)}")
    return 0


def cmd_eval(args) -> int:
    if args.problem == "tsp":
        if not args.instance:
            raise systems.FormatError("eval --problem tsp needs --instance FILE")
        problem = semiring.tsp_path_problem(solver.load_instance(args.instance))
        if args.method == "dp":
            semiring.check_tsp_budget(problem.n)
    else:
        if not args.poset:
            raise systems.FormatError("eval --problem le needs --poset FILE")
        problem = semiring.linear_extension_problem(semiring.load_poset(args.poset))
    value = (
        semiring.evaluate_brute(problem)
        if args.method == "brute"
        else semiring.evaluate_dp(problem)
    )
    print(f"value {value}")
    return 0


def cmd_bounds(args) -> int:
    if args.theorem == 41:
        gamma = (
            analysis.solve_gamma(args.alpha, args.beta)
            if args.gamma in (None, "auto")
            else float(args.gamma)
        )
        params = analysis.BoundParams(args.alpha, args.beta, gamma)
        print(f"gamma {gamma:.9f}")
    else:
        params = analysis.BoundParams(args.alpha, args.beta)
    lg_s, lg_p = analysis.bounds_for(args.theorem, params)
    s, p = 2**lg_s, 2**lg_p
    print(f"lgS {lg_s:.9f}")
    print(f"lgP {lg_p:.9f}")
    print(f"S {s:.6f}")
    print(f"P {p:.6f}")
    print(f"T {s * p:.6f}")
    print(f"ST {s * s * p:.6f}")
    return 0


def cmd_optimize(args) -> int:
    params = analysis.optimize_params(args.target_lg_s, args.theorem, args.grid)
    lg_s, lg_p = analysis.bounds_for(args.theorem, params)
    print(f"alpha {params.alpha:.9f}")
    print(f"beta {params.beta:.9f}")
    if params.gamma is not None:
        print(f"gamma {params.gamma:.9f}")
    print(f"lgS {lg_s:.9f}")
    print(f"lgP {lg_p:.9f}")
    print(f"S {2**lg_s:.6f}")
    print(f"P {2**lg_p:.6f}")
    print(f"ST {2 ** (2 * lg_s + lg_p):.6f}")
    return 0


def cmd_curve(args) -> int:
    rows = analysis.emit_curve(args.grid)
    analysis.write_curve_csv(rows, args.out)
    print(f"rows {len(rows)}")
    print(f"out {args.out}")
    return 0


def cmd_verify(args) -> int:
    if args.system:
        systems.load_system(args.system)
        print(f"ok {args.system}")
        return 0
    names = [args.suite] if args.suite else list(verify.SUITES)
    for name in names:
        if name not in verify.SUITES:
            raise systems.FormatError(
                f"unknown suite {name!r}; available: {', '.join(verify.SUITES)}"
            )
    failed = 0
    for name in names:
        result = verify.run_suite(name)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {name}")
        for line in result.lines:
            print(f"  {line}")
        # stderr lines name their suite, so they can be read apart from stdout
        print(f"{name} elapsed {result.elapsed:.1f}s", file=sys.stderr)
        if result.gate:
            what, seconds, limit = result.gate
            print(
                f"{name} gate {what} {seconds:.3f}s of {limit:g}s ({seconds / limit:.1%})",
                file=sys.stderr,
            )
        if not result.passed:
            failed += 1
    print(f"suites {len(names)} failed {failed}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainfold",
        description="Set-system space-time tradeoffs: exact TSP solvers, "
        "extremal constructions, covering families, and bound curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a TSP instance")
    p.add_argument("--alg", required=True, choices=["brute", "bhk", "restricted", "gs", "warmup", "framework"])
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--set-system", help="set-system file (restricted)")
    p.add_argument("--depth", type=int, default=0, help="switch depth (gs)")
    p.add_argument("--alpha", type=float, default=0.445, help="prefix fraction (warmup)")
    p.add_argument("--trials", type=int, default=1, help="split samples (warmup)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--block-size", type=int, default=0, help="block size (framework)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sys", help="construct and measure set systems")
    p.add_argument("--make", help="construction spec, e.g. tower:2,2 or thm41:24,0.5,0.4112,auto")
    p.add_argument("--out", help="write the system here")
    p.add_argument(
        "--metrics",
        nargs="?",
        const=True,
        help="print metrics of an existing file (bare flag: metrics of --make)",
    )
    p.set_defaults(func=cmd_sys)

    p = sub.add_parser("cover", help="build covering families")
    p.add_argument("--base", required=True, help="construction spec or system file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-tries", type=int, default=10000)
    p.add_argument("--prune", action="store_true", help="greedy-prune the family")
    p.add_argument("--exact", action="store_true", help="exact minimum cover")
    p.add_argument("--unique", action="store_true", help="exact-once family")
    p.add_argument("--out", help="write the family here")
    p.add_argument("--base-out", help="write the base system here")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("count-le", help="count linear extensions of a poset")
    p.add_argument("--poset", required=True)
    p.set_defaults(func=cmd_count_le)

    p = sub.add_parser("eval", help="evaluate a permutation problem")
    p.add_argument("--problem", required=True, choices=["tsp", "le"])
    p.add_argument("--instance", help="instance file (tsp)")
    p.add_argument("--poset", help="poset file (le)")
    p.add_argument("--method", default="dp", choices=["brute", "dp"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bounds", help="evaluate the closed-form bounds")
    p.add_argument("--theorem", type=int, required=True, choices=[41, 45])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", default=None, help="number or 'auto' (41 only)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("optimize", help="search bound parameters")
    p.add_argument("--target-lgS", dest="target_lg_s", type=float, required=True)
    p.add_argument("--theorem", type=int, required=True, choices=[41, 45])
    p.add_argument("--grid", type=float, default=0.005)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("curve", help="emit the tradeoff curve CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=512)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", help="run the acceptance suites")
    p.add_argument("--suite", help="run a single suite")
    p.add_argument("--system", help="validate a set-system file instead")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except systems.CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
