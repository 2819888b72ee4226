"""The benchmark's workloads and the sections they are made of.

A section is a fixed list of operations whose inputs come from one seeded
random stream; a workload runs the operations of one or more sections.  The
runner calls them in order, one at a time, again and again (a closed loop
with one client).  Each pass runs the same operations on the same inputs, so
exact counts repeat per pass.  An operation returns a small hashable answer;
its `check` compares that answer with a reference after the timed region and
returns the problems it finds (an empty list when the answer is right).

Every generated input is also described as plain data in `Workload.inputs`,
whose digest lets two runs show that they measured the same inputs.

Operation sizes: within a section the operations cost within a few times of
each other, and sizes never depend on the seed, so every seed costs the
same.  The dearest kinds together hold well over ten samples per run, so the
tail percentile falls inside them.  See README.md for why each section
exists.
"""

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial

from chainfold import analysis, cli, constructions, cover, semiring, solver, systems, verify

import oracles

SPLIT_ALPHA = 0.445


@dataclass
class Op:
    kind: str
    run: callable
    check: callable


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    inputs: list = field(default_factory=list)

    def add(self, kind, run, check, *inputs):
        self.ops.append(Op(kind, run, check))
        self.inputs.append((kind, *inputs))

    def digest(self) -> str:
        return hashlib.sha256(repr(self.inputs).encode()).hexdigest()


def random_rows(rng, n, top=99):
    return [[0 if i == j else rng.randint(1, top) for j in range(n)] for i in range(n)]


def tour_problems(rows, value, tour) -> list:
    """A tour must be a permutation of the cities whose cyclic cost is value."""
    n = len(rows)
    if sorted(tour) != list(range(1, n + 1)):
        return [f"tour {tour} is not a permutation of 1..{n}"]
    cost = sum(rows[a - 1][b - 1] for a, b in zip(tour, tour[1:] + tour[:1]))
    return [] if cost == value else [f"tour costs {cost}, reported value {value}"]


def solution(sol):
    return None if sol is None else (sol.value, sol.tour, sol.table_entries)


# ---------------------------------------------------------------------------
# tsp-sparse: hundreds of small restricted DPs per operation


def _split(inst):
    n = inst.n
    return solution(solver.random_split_solver(inst, SPLIT_ALPHA, comb(n, n // 2), 0))


def _framework(inst, block_size, families):
    return solution(solver.framework_solver(inst, block_size, families))


def _check_brute(inst, rows, answer):
    if answer is None:
        return ["no tour returned"]
    value, tour, _ = answer
    best = solver.brute_force(inst).value
    problems = tour_problems(rows, value, tour)
    if value != best:
        problems.append(f"value {value} != brute force {best}")
    return problems


def tsp_sparse(rng, tiny, workdir):
    slots = (
        [("split", 5), ("framework", 5), ("split", 6), ("framework", 6), ("framework", 7)]
        if tiny
        else [("split", 8), ("framework", 9), ("split", 9), ("split", 9), ("split", 9),
              ("framework", 10), ("framework", 10)]
    )
    fams = verify.block_families()
    for fam in fams.values():
        fam.systems()  # member systems are cached on the family; users keep it
    w = Workload()
    for kind, n in slots:
        rows = random_rows(rng, n)
        inst = solver.TspInstance.from_rows(rows)
        if kind == "split":
            run = partial(_split, inst)
        else:
            block_size, families = verify.framework_plan(n, fams)
            run = partial(_framework, inst, block_size, families)
        w.add(f"{kind}{n}", run, partial(_check_brute, inst, rows), rows)
    return w


# ---------------------------------------------------------------------------
# tsp-dense: one large DP per operation over systems built in set-up


def _held_karp(inst):
    return solution(solver.held_karp(inst))


def _restricted(inst, f):
    return solution(solver.restricted_dp(inst, f))


def _check_dense(rows, spec, masks, answer):
    if answer is None:
        return [f"{spec}: no tour returned"]
    value, tour, _ = answer
    problems = tour_problems(rows, value, tour)
    best = oracles.tsp_optimum(rows)
    if masks is None or spec.startswith("powerset:"):
        if value != best:
            problems.append(f"{spec}: value {value} != optimum {best}")
        return problems
    if not problems and not all(p in masks for p in oracles.prefix_sets(tour)):
        problems.append(f"{spec}: a prefix of tour {tour} is not in F")
    if value < best:
        problems.append(f"{spec}: value {value} below the optimum {best}")
    return problems


def tsp_dense(rng, tiny, workdir):
    slots = (
        ["held_karp:7", "powerset:6", "tower:3,2", "warmup:3,0.6", "thm45:6,0.667,0.334"]
        if tiny
        else ["tower:8,2", "warmup:7,0.6", "thm41:18,0.5,0.4112,auto", "held_karp:15",
              "held_karp:15", "held_karp:15", "thm45:14,0.8412,0.6309", "powerset:12",
              "powerset:12"]
    )
    built = {}
    w = Workload()
    for spec in slots:
        if spec.startswith("held_karp:"):
            rows = random_rows(rng, int(spec.partition(":")[2]))
            inst = solver.TspInstance.from_rows(rows)
            w.add(spec, partial(_held_karp, inst), partial(_check_dense, rows, spec, None), rows)
            continue
        if spec not in built:
            f = constructions.from_spec(spec)
            f.successors()  # cached on the system, as a user solving many instances keeps it
            f.elements()
            built[spec] = f
        f = built[spec]
        rows = random_rows(rng, f.n)
        inst = solver.TspInstance.from_rows(rows)
        check = partial(_check_dense, rows, spec, f.mask_set())
        w.add(spec, partial(_restricted, inst, f), check, rows)
    return w


# ---------------------------------------------------------------------------
# semiring: evaluate_dp over three semirings, restricted and unique evaluation

COVER_BASE = "thm45:6,0.667,0.334"
COVER_SEED = 11  # fixed so that family sizes, and so operation costs, do not depend on the seed


def random_poset_relations(rng, n, density):
    """Relations a < b for a random order of 1..n, each pair kept with the
    given probability."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]


def chain_union_relations(rng, n, parts):
    """A disjoint union of `parts` chains with random lengths and labels."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    relations, start = [], 0
    for k in lengths:
        chain = labels[start:start + k]
        relations += list(zip(chain, chain[1:]))
        start += k
    return lengths, relations


def _count_le(poset):
    return semiring.count_linear_extensions(poset)


def _check_le(n, relations, lengths, answer):
    problems = []
    ref = oracles.linear_extensions(n, relations)
    if answer != ref:
        problems.append(f"linear extensions {answer} != reference {ref}")
    if lengths is not None and answer != oracles.chains_multinomial(lengths):
        problems.append(f"linear extensions {answer} != multinomial of {lengths}")
    return problems


def _evaluate_all(problems):
    return tuple(semiring.evaluate_dp(p) for p in problems)


def _check_min_paths(rows_list, answer):
    ref = tuple(oracles.min_hamiltonian_path(rows) for rows in rows_list)
    return [] if answer == ref else [f"min paths {answer} != reference {ref}"]


def degree2_problem(first, weights, ring):
    """Degree-2 problem: the first entry v costs first[v-1], every later step
    a -> b costs weights[a-1][b-1], folded in the given semiring."""

    def cost(mask, tail):
        if len(tail) < 2:
            return first[tail[-1] - 1]
        return weights[tail[0] - 1][tail[1] - 1]

    return semiring.PermutationProblem(len(first), 2, cost, ring)


def _check_max_times(first, weights, answer):
    ref = (oracles.max_product_path(first, weights),)
    return [] if answer == ref else [f"max-times {answer} != reference {ref}"]


def _restricted_batch(problems, family):
    return tuple(semiring.evaluate_restricted(p, family) for p in problems)


def _unique_batch(problems, family):
    return tuple(semiring.evaluate_unique(p, family) for p in problems)


def path_problems(rows_list):
    return [semiring.tsp_path_problem(solver.TspInstance.from_rows(r)) for r in rows_list]


def counting_problems(data):
    """(+, *) problems over small integer weights: not idempotent, so only an
    exact-once family evaluates them correctly."""
    return [degree2_problem(first, weights, semiring.COUNTING) for first, weights in data]


def _check_brute_batch(make_problems, answer):
    # the problems are made afresh here, so a traced run's counting wrappers
    # never see the oracle's calls
    ref = tuple(semiring.evaluate_brute(p) for p in make_problems())
    bad = sum(1 for a, r in zip(answer, ref) if a != r)
    return [f"{bad} of {len(ref)} evaluations differ from brute force"] if bad else []


def semiring_families():
    base = constructions.from_spec(COVER_BASE)
    plain = cover.greedy_prune(cover.random_cover(base, COVER_SEED, 1000))
    unique = cover.make_unique(plain)
    plain.systems()
    unique.systems()
    return plain, unique


def semiring_section(rng, tiny, workdir):
    n_le, n_path, n_max = (7, 6, 6) if tiny else (14, 10, 10)
    paths_per_op, batch_restricted, batch_unique = (1, 3, 3) if tiny else (4, 110, 130)
    plain, unique = semiring_families()
    w = Workload()

    lengths, relations = chain_union_relations(rng, n_le, 4)
    poset = semiring.Poset.from_relations(n_le, relations)
    w.add("le-chains", partial(_count_le, poset),
          partial(_check_le, n_le, relations, lengths), relations)
    for density in (0.1, 0.35):
        relations = random_poset_relations(rng, n_le, density)
        poset = semiring.Poset.from_relations(n_le, relations)
        w.add(f"le-{density}", partial(_count_le, poset),
              partial(_check_le, n_le, relations, None), relations)

    rows_list = [random_rows(rng, n_path) for _ in range(paths_per_op)]
    w.add("min-path", partial(_evaluate_all, path_problems(rows_list)),
          partial(_check_min_paths, rows_list), rows_list)

    first = [Fraction(rng.randint(1, 9), 10) for _ in range(n_max)]
    weights = [[Fraction(rng.randint(1, 9), 10) for _ in range(n_max)] for _ in range(n_max)]
    problem = degree2_problem(first, weights, semiring.MAX_TIMES)
    w.add("max-times", partial(_evaluate_all, [problem]),
          partial(_check_max_times, first, weights), first, weights)

    rows_list = [random_rows(rng, 6) for _ in range(batch_restricted)]
    w.add("restricted", partial(_restricted_batch, path_problems(rows_list), plain),
          partial(_check_brute_batch, partial(path_problems, rows_list)), rows_list)

    data = [([rng.randint(0, 3) for _ in range(6)],
             [[rng.randint(0, 3) for _ in range(6)] for _ in range(6)])
            for _ in range(batch_unique)]
    w.add("unique", partial(_unique_batch, counting_problems(data), unique),
          partial(_check_brute_batch, partial(counting_problems, data)), data)
    return w


# ---------------------------------------------------------------------------
# systems-cover: constructions, metrics, covers, analysis and the CLI; no DP


def core_counts(n, alpha, beta):
    """Closed forms for core_prefix_system(n, alpha, beta): the number of
    sets per level, and the chain count an!/(an-bn)! * (n-bn)!."""
    an, bn = int(alpha * n + 1e-9), int(beta * n + 1e-9)
    levels = [0] * (n + 1)
    for i in range(an + 1):
        for j in range(n - an + 1):
            if (j == 0 and i <= bn) or i >= bn:
                levels[i + j] += comb(an, i) * comb(n - an, j)
    chains = factorial(an) // factorial(an - bn) * factorial(n - bn)
    return tuple(levels), chains


def tower_counts(t, k):
    return k * 2**t - k + 1, factorial(t) ** k


def _summary(f):
    """(|F|, C(F), successor edges): a system's metrics plus one read of
    its successor map."""
    m = systems.metrics(f)
    return m.sets, m.chains, sum(len(v) for v in f.successors().values())


def _kp(tiny):
    return _summary(constructions.tower_of_cubes(4, 2) if tiny else constructions.koivisto_parviainen())


def _check_summary(sets, chains, reference_masks, answer):
    got_sets, got_chains, edges = answer
    problems = []
    if got_sets != sets:
        problems.append(f"|F| = {got_sets}, expected {sets}")
    if got_chains != chains:
        problems.append(f"C(F) = {got_chains}, expected {chains}")
    n, masks = reference_masks()
    ref_edges = oracles.successor_edges(n, masks)
    if edges != ref_edges:
        problems.append(f"{edges} successor edges, reference {ref_edges}")
    return problems


def _masks_of(spec):
    f = constructions.from_spec(spec)
    return f.n, f.masks


def _core_build(spec):
    f = constructions.from_spec(spec)
    return tuple(len(lv) for lv in f.levels)


def _check_levels(levels, answer):
    return [] if answer == levels else [f"levels {answer} != closed form {levels}"]


def _metrics(f):
    m = systems.metrics(f)
    return m.sets, m.chains


def _check_pair(expected, answer):
    return [] if answer == expected else [f"{answer} != expected {expected}"]


def _banded_towers(spec, shapes):
    f = constructions.from_spec(spec)
    m = systems.metrics(f)
    return (m.sets, m.chains), tuple(_summary(constructions.tower_of_cubes(t, k)) for t, k in shapes)


def _check_banded_towers(sets, chains, shapes, answer):
    banded, towers = answer
    problems = []
    if sets is not None and banded[0] != sets:
        problems.append(f"banded |F| = {banded[0]}, expected {sets}")
    if banded[1] != chains():
        problems.append(f"banded C(F) = {banded[1]}, reference {chains()}")
    for (t, k), (sets, chains, edges) in zip(shapes, towers):
        if (sets, chains) != tower_counts(t, k):
            problems.append(f"tower:{t},{k} gives {(sets, chains)}, closed form {tower_counts(t, k)}")
        ref_edges = oracles.successor_edges(t * k, constructions.tower_of_cubes(t, k).masks)
        if edges != ref_edges:
            problems.append(f"tower:{t},{k} has {edges} successor edges, reference {ref_edges}")
    return problems


def _digest(masks):
    return hashlib.sha256(repr(tuple(masks)).encode()).hexdigest()


def _roundtrip(pairs, path):
    out = []
    for f, sigma in pairs:
        g = systems.relabel(f, sigma)
        systems.dump_system(g, path)
        h = systems.load_system(path)
        out.append((len(h), h == g, _digest(h.masks)))
    return tuple(out)


def _check_roundtrip(pairs, answer):
    problems = []
    for (f, sigma), (size, same, digest) in zip(pairs, answer):
        ref = sorted(oracles.relabeled(f.masks, sigma), key=lambda m: (bin(m).count("1"), m))
        if not same or size != len(ref) or digest != _digest(ref):
            problems.append(f"relabel/dump/load of a system over [{f.n}] lost or changed sets")
    return problems


def _covers(bases, seeds):
    return tuple(
        cover.greedy_prune(cover.random_cover(base, s, 5000)).relabelings
        for base, s in zip(bases, seeds)
    )


def _check_covers(bases, answer):
    problems = []
    for base, relabelings in zip(bases, answer):
        members = [oracles.relabeled(base.masks, sigma) for sigma in relabelings]
        if min(oracles.support_counts(base.n, members)) < 1:
            problems.append(f"pruned family over [{base.n}] misses a permutation")
        if not cover.covers_all(cover.CoverFamily(base, relabelings)):
            problems.append("covers_all rejects the pruned family")
    return problems


def _unique_family(base, seed):
    fam = cover.make_unique(cover.greedy_prune(cover.random_cover(base, seed, 1000)))
    return fam.relabelings, fam.removed, cover.exactly_once(fam)


def _check_unique(base, answer):
    relabelings, removed, once = answer
    members = [oracles.relabeled(base.masks, sigma) - set(rm)
               for sigma, rm in zip(relabelings, removed)]
    counts = oracles.support_counts(base.n, members)
    problems = [] if once else ["exactly_once returned False"]
    if set(counts) != {1}:
        problems.append(f"support counts {sorted(set(counts))}, expected exactly 1")
    fam = cover.CoverFamily(base, relabelings, unique_mode=True, removed=removed)
    if not cover.covers_all(fam):
        problems.append("covers_all rejects the unique family")
    return problems


# lg S targets with the paper's anchors: Corollary 4.2 (S = sqrt 2) and the
# core family of Theorem 4.5 (S = 1.7916)
OPTIMIZE = ((0.5, 41, 0.01, 1.785975 + 1e-4), (math.log2(1.7916), 45, 0.005, 1.20375 + 1e-4))


def _optimize():
    out = []
    for target, theorem, grid, _ in OPTIMIZE:
        p = analysis.optimize_params(target, theorem, grid)
        out.append((p.alpha, p.beta, p.gamma))
    return tuple(out)


def _check_optimize(answer):
    problems = []
    for (target, theorem, _, p_cap), (a, b, g) in zip(OPTIMIZE, answer):
        params = analysis.BoundParams(a, b) if g is None else analysis.BoundParams(a, b, g)
        lg_s, lg_p = analysis.bounds_for(theorem, params)
        if lg_s > target + 1e-9 or 2**lg_p > p_cap:
            problems.append(f"theorem {theorem}: lgS {lg_s:.6f}, P {2**lg_p:.6f} misses the anchor")
    return problems


def _cli(argvs, curve_path):
    outs = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        outs.append((rc, buf.getvalue()))
    with open(curve_path) as fh:
        curve_lines = sum(1 for _ in fh)
    return tuple(outs), curve_lines


def metrics_line(n, sets, chains):
    s = math.exp(math.log(sets) / n)
    p = math.exp((math.log(math.factorial(n)) - math.log(chains)) / n)
    return f"n={n} sets={sets} chains={chains} S={s:.6f} P={p:.6f} S2P={s * s * p:.6f}\n"


def cli_problems(expected, answer):
    """One problem per CLI call whose exit code or stdout is not the expected
    one; run.py counts these as `cli.stdout_mismatches`."""
    outs, curve_lines = answer
    want_outs, want_lines = expected()
    problems = [f"cli stdout mismatch: {got!r} != {want!r}"
                for got, want in zip(outs, want_outs) if got != want]
    if curve_lines != want_lines:
        problems.append(f"curve file has {curve_lines} lines, expected {want_lines}")
    return problems


def systems_cover(rng, tiny, workdir):
    kp_spec = "tower:4,2" if tiny else "kp"
    thm41 = "thm41:8,0.5,0.375,0.5" if tiny else "thm41:24,0.5,0.4112,auto"
    core = (8, 0.5, 0.25) if tiny else (18, 0.5, 0.28)
    core_spec = "thm45:%d,%s,%s" % core
    towers = [(3, 2), (2, 3)] if tiny else [(12, 2), (6, 4), (4, 6), (3, 8)]
    cover_specs = ["thm45:5,0.6,0.4"] if tiny else ["thm45:7,0.715,0.43"]

    thm41_sys = constructions.from_spec(thm41)
    kp_sys = constructions.from_spec(kp_spec)
    core_sys = constructions.from_spec(core_spec)
    cover_bases = [constructions.from_spec(s) for s in cover_specs]
    unique_base = constructions.from_spec(COVER_BASE)
    stored = os.path.join(workdir, "stored.ss")
    systems.dump_system(thm41_sys, stored)

    w = Workload()
    kp_t = 4 if tiny else 13
    w.add("kp", partial(_kp, tiny),
          partial(_check_summary, *tower_counts(kp_t, 2), partial(_masks_of, kp_spec)), kp_spec)
    thm41_chains = cache(partial(oracles.chain_count, thm41_sys.n, thm41_sys.masks))
    w.add("banded-towers", partial(_banded_towers, thm41, towers),
          partial(_check_banded_towers, None if tiny else 15199, thm41_chains, towers),
          thm41, towers)
    levels, core_chains = core_counts(*core)
    w.add("core-build", partial(_core_build, core_spec), partial(_check_levels, levels), core_spec)
    w.add("core-metrics", partial(_metrics, core_sys),
          partial(_check_pair, (sum(levels), core_chains)), core_spec)

    sigma = list(range(1, kp_sys.n + 1))
    rng.shuffle(sigma)
    pairs = [(kp_sys, tuple(sigma))]
    w.add("roundtrip", partial(_roundtrip, pairs, os.path.join(workdir, "roundtrip.ss")),
          partial(_check_roundtrip, pairs), sigma)

    # cover sizes, and with them these two operations' costs, vary with the
    # draw; fixed draws keep every seed's timings comparable
    seeds = [COVER_SEED + i for i in range(len(cover_bases))]
    w.add("cover", partial(_covers, cover_bases, seeds), partial(_check_covers, cover_bases),
          cover_specs, seeds)
    w.add("unique", partial(_unique_family, unique_base, COVER_SEED),
          partial(_check_unique, unique_base), COVER_BASE, COVER_SEED)
    w.add("optimize", _optimize, _check_optimize, OPTIMIZE)

    cli_seed = rng.randrange(1 << 30)
    t, k = towers[0]
    curve_path = os.path.join(workdir, "curve.csv")
    grid = 64 if tiny else 2048
    argvs = [
        ["sys", "--make", f"tower:{t},{k}", "--metrics", stored],
        ["cover", "--base", COVER_BASE, "--prune", "--seed", str(cli_seed)],
        ["curve", "--out", curve_path, "--grid", str(grid)],
    ]

    def expected():
        fam = cover.greedy_prune(cover.random_cover(unique_base, cli_seed, 10000))
        q = math.ceil(factorial(6) * 36 / core_counts(6, 0.667, 0.334)[1])
        thm41_line = metrics_line(thm41_sys.n, len(thm41_sys), thm41_chains())
        return (
            (0, metrics_line(t * k, *tower_counts(t, k)) + thm41_line),
            (0, f"family size {len(fam)}\nmode plain\nprescribed q(n) {q}\n"),
            (0, f"rows {grid}\nout {curve_path}\n"),
        ), grid + 1

    w.add("cli", partial(_cli, argvs, curve_path), partial(cli_problems, expected),
          thm41, (t, k), cli_seed, grid)
    return w


# A section function takes (rng, tiny, workdir); workdir is a scratch
# directory inside the checkout for the files an operation writes.
SECTIONS = {
    "tsp-sparse": tsp_sparse,
    "tsp-dense": tsp_dense,
    "semiring": semiring_section,
    "systems-cover": systems_cover,
}

# Each workload runs the operations of its sections, one pass after another.
# `dp` holds every operation that runs a subset DP, solver or semiring;
# `systems-cover` runs none, so a DP-engine change should leave it unchanged.
WORKLOADS = {
    "dp": ("tsp-sparse", "tsp-dense", "semiring"),
    "systems-cover": ("systems-cover",),
}

# chainfold modules each workload loads; the set-up import probe imports them
MODULES = {
    "dp": ("solver", "cover", "systems", "verify", "constructions", "semiring"),
    "systems-cover": ("systems", "constructions", "cover", "analysis", "cli"),
}


def build(workload, seed, tiny, workdir) -> Workload:
    """The workload's operations, each kind named `section/kind`; every
    section draws from its own stream of the seed."""
    w = Workload()
    for section in WORKLOADS[workload]:
        part = SECTIONS[section](random.Random(f"{section}:{seed}"), tiny, workdir)
        for op, inputs in zip(part.ops, part.inputs):
            op.kind = f"{section}/{op.kind}"
            w.ops.append(op)
            w.inputs.append((section, *inputs))
    return w
