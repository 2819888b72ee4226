"""Acceptance suites: every headline number and identity, checked end to end.

Each suite returns a SuiteResult with one detail line per check; the CLI
`verify` subcommand and the acceptance tests both run this registry.  Suites
pin their tolerances here, not in the callers:

  kp               n=26 two-block system: S in [1.4523, 1.4525],
                   P in [1.8615, 1.8618], S^2 P in [3.925, 3.931], < 1 s
  cor42 / cor43    banded-family anchors: P <= 1.785975 + 1e-4 (so
                   S T < 3.5720 at S = sqrt 2), P <= 2.121604 + 1e-4
  cor47            core family: S = 1.7916 +- 5e-4, P <= 1.20375 + 1e-4,
                   S^2 P < 3.864
  warmup-constants 2^0.889972 in [1.8531, 1.8533], S T < 3.7066
  solvers          brute = held-karp = restricted(powerset) = divide&conquer
                   (depths 0..2) = covering-family solver, 50 seeded
                   instances each of n in 4..10
  lemma37          union-product size/chain identities, 200 random pairs
  split            induced-split support equivalence, all 6! permutations
  fraction         supported count = (M/N) n!, exhaustive relabelings
  lower-bound      C(F) <= (ceil(n/(k+1))!)^(k+1) |F|^k over the corpus
  cover            cover completeness, exact-once families, unique counting
  count-le         linear-extension counts vs brute enumeration, and a
                   40-chain and a union of chains past the brute range
  regular          regular self-intersection checks
  jlr              tower-of-cubes density vs the banded family, side by side
"""

import math
import time
from dataclasses import dataclass, field
from itertools import permutations as iter_permutations
from math import comb, factorial

from . import analysis, constructions, cover, semiring, solver, systems
from .rng import SplitMix64


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)
    elapsed: float = 0.0
    # (what is timed, its seconds, its limit in seconds) of a suite whose
    # pass needs a time gate; the seconds go to stderr, never to the lines
    gate: tuple | None = None


def _random_system(n: int, gen: SplitMix64) -> systems.SetSystem:
    """Each subset of [n] kept with probability 1/2."""
    masks = [m for m in range(1 << n) if gen.randbelow(2) == 0]
    return systems.SetSystem(n, masks)


def suite_kp() -> SuiteResult:
    t0 = time.time()
    lines = []
    m = systems.metrics(constructions.koivisto_parviainen())
    elapsed = time.time() - t0
    ok_size = m.sets == 2 * 2**13 - 1
    ok_s = 1.4523 <= m.size_s <= 1.4525
    ok_p = 1.8615 <= m.density_p <= 1.8618
    ok_st = 3.925 <= m.product_st <= 3.931
    ok_time = elapsed < 1.0
    lines.append(f"|F| = {m.sets}, C = {m.chains}")
    lines.append(f"S = {m.size_s:.6f} in [1.4523, 1.4525]: {ok_s}")
    lines.append(f"P = {m.density_p:.6f} in [1.8615, 1.8618]: {ok_p}")
    lines.append(f"S^2 P = {m.product_st:.6f} in [3.925, 3.931]: {ok_st}")
    lines.append(f"metrics in < 1s: {ok_time}")
    passed = ok_size and ok_s and ok_p and ok_st and ok_time
    return SuiteResult("kp", passed, lines, gate=("metrics", elapsed, 1.0))


def suite_cor42() -> SuiteResult:
    p = analysis.SQRT2_PARAMS
    lg_s, lg_p = analysis.banded_bounds(p)
    pv = 2**lg_p
    st = 2 * pv
    ok = pv <= 1.785975 + 1e-4 and st < 3.5720 and abs(lg_s - 0.5) < 1e-12
    lines = [
        f"gamma = {p.gamma:.6f}",
        f"P = {pv:.6f} <= 1.785975 + 1e-4: {pv <= 1.785975 + 1e-4}",
        f"S T = {st:.6f} < 3.5720: {st < 3.5720}",
    ]
    return SuiteResult("cor42", ok, lines)


def suite_cor43() -> SuiteResult:
    _, lg_p = analysis.banded_bounds(analysis.LOWSPACE_PARAMS)
    pv = 2**lg_p
    ok = pv <= 2.121604 + 1e-4
    return SuiteResult("cor43", ok, [f"P = {pv:.6f} <= 2.121604 + 1e-4: {ok}"])


def suite_cor47() -> SuiteResult:
    lg_s, lg_p = analysis.core_bounds(analysis.CORE_PARAMS)
    s, pv = 2**lg_s, 2**lg_p
    s2p = s * s * pv
    ok_s = abs(s - 1.7916) <= 5e-4
    ok_p = pv <= 1.20375 + 1e-4
    ok_st = s2p < 3.864
    lines = [
        f"S = {s:.6f} = 1.7916 +- 5e-4: {ok_s}",
        f"P = {pv:.6f} <= 1.20375 + 1e-4: {ok_p}",
        f"S^2 P = {s2p:.6f} < 3.864: {ok_st}",
    ]
    # the narrative quotes both S = 1.7913 and S = 1.7916 for this family;
    # report the optimized evaluation at the second S alongside (informational)
    alt = analysis.optimize_params(math.log2(1.7913), 45, grid=0.002)
    p_alt = 2 ** analysis.core_bounds(alt)[1]
    lines.append(f"at S = 1.7913 the same family gives P = {p_alt:.6f} (quoted: < 1.20398)")
    return SuiteResult("cor47", ok_s and ok_p and ok_st, lines)


def suite_warmup_constants() -> SuiteResult:
    root = 0.889972
    base = 2**root
    st = 2 * base  # sqrt2 * base * sqrt2
    ok_h = abs(analysis.entropy(root) - 0.5) <= 1e-5
    ok_base = 1.8531 <= base <= 1.8533
    ok_st = st < 3.7066
    lines = [
        f"H({root}) = {analysis.entropy(root):.7f} = 1/2 +- 1e-5: {ok_h}",
        f"2^{root} = {base:.6f} in [1.8531, 1.8533]: {ok_base}",
        f"S T = {st:.6f} < 3.7066: {ok_st}",
    ]
    return SuiteResult("warmup-constants", ok_h and ok_base and ok_st, lines)


def block_families():
    """Verified covering families for block sizes 3..5 (exact minimum covers
    for 3 and 4, a pruned random cover for 5)."""
    fam3 = cover.exact_min_cover(constructions.single_chain(3))
    fam4 = cover.exact_min_cover(constructions.tower_of_cubes(2, 2))
    fam5 = cover.greedy_prune(
        cover.random_cover(constructions.core_prefix_system(5, 0.8, 0.4), seed=7, max_tries=500)
    )
    return {3: fam3, 4: fam4, 5: fam5}


def framework_plan(n: int, fams=None, block_size: int = 0):
    """(block_size, families) used by the equivalence suite and the CLI: the
    blocks solver.partition_blocks cuts for block_size (0 picks the stock
    size for n), each with the stock family of its size."""
    fams = fams or block_families()
    if not block_size:
        plans = {4: 4, 5: 5, 6: 3, 7: 3, 8: 4, 9: 4, 10: 5}
        if n not in plans:
            raise ValueError(f"no block plan for n={n}")
        block_size = plans[n]
    sizes = solver.partition_blocks(n, block_size)
    missing = [s for s in sizes if s not in fams]
    if missing:
        raise ValueError(
            f"no stock covering family for block sizes {missing}; "
            f"pick --block-size so blocks land in {sorted(fams)}"
        )
    return block_size, [fams[s] for s in sizes]


def suite_solvers() -> SuiteResult:
    t0 = time.time()
    fams = block_families()
    checked = 0
    failures = []
    for n in range(4, 11):
        bs, families = framework_plan(n, fams)
        pset = constructions.powerset(n)
        for i in range(50):
            inst = solver.random_instance(n, seed=n * 1000 + i)
            ref = solver.brute_force(inst)
            got = {
                "bhk": solver.held_karp(inst),
                "restricted": solver.restricted_dp(inst, pset),
                "gs0": solver.gurevich_shelah(inst, 0),
                "gs1": solver.gurevich_shelah(inst, 1),
                "gs2": solver.gurevich_shelah(inst, 2),
                "framework": solver.framework_solver(inst, bs, families),
                "warmup": solver.random_split_solver(
                    inst, 0.445, trials=comb(n, n // 2), seed=0
                ),
            }
            # every solver returns the lexicographically smallest optimal tour
            want = ref.value, ref.tour
            answers = {k: (sol.value, sol.tour) for k, sol in got.items()}
            bad = {k: answer for k, answer in answers.items() if answer != want}
            if bad:
                failures.append((n, i, want, bad))
            checked += 1
    elapsed = time.time() - t0
    lines = [
        f"{checked} instances across n in 4..10, all solvers agree: {not failures}",
        f"elapsed < 120s: {elapsed < 120}",
    ]
    for f in failures[:5]:
        lines.append(f"mismatch: {f}")
    passed = not failures and elapsed < 120
    return SuiteResult("solvers", passed, lines, gate=("elapsed", elapsed, 120.0))


def suite_lemma37() -> SuiteResult:
    gen = SplitMix64(3737)
    bad = 0
    for _ in range(200):
        n1, n2 = 1 + gen.randbelow(6), 1 + gen.randbelow(6)
        f1, f2 = _random_system(n1, gen), _random_system(n2, gen)
        if len(f1) == 0 or len(f2) == 0:
            continue
        prod = systems.union_product(f1, f2)
        ok_n = prod.n == n1 + n2
        ok_size = len(prod) == len(f1) * len(f2)
        ok_chains = systems.count_chains(prod) == comb(n1 + n2, n1) * systems.count_chains(
            f1
        ) * systems.count_chains(f2)
        if not (ok_n and ok_size and ok_chains):
            bad += 1
    lines = [f"200 random pairs, exact size/chain identities: {bad == 0}"]
    return SuiteResult("lemma37", bad == 0, lines)


def suite_split() -> SuiteResult:
    gen = SplitMix64(1212)
    perms = list(iter_permutations(range(1, 7)))
    bad = 0
    for _ in range(20):
        f1, f2 = _random_system(3, gen), _random_system(3, gen)
        prod = systems.union_product(f1, f2)
        for p in perms:
            p1, p2 = systems.induced_split(p, (3, 3))
            lhs = systems.supports(prod, p)
            rhs = systems.supports(f1, p1) and systems.supports(f2, p2)
            if lhs != rhs:
                bad += 1
    lines = [f"20 pairs x 720 permutations, support equivalence: {bad == 0}"]
    return SuiteResult("split", bad == 0, lines)


def suite_fraction() -> SuiteResult:
    gen = SplitMix64(4646)
    bad = 0
    tested = 0
    for _ in range(20):
        n = 3 + gen.randbelow(3)
        f = _random_system(n, gen)
        images = systems.relabeling_orbit(f)
        identity_chain = systems.prefix_chain(tuple(range(1, n + 1)))
        n_distinct = len(images)
        m_distinct = sum(
            1 for key in images if all(mask in key for mask in identity_chain)
        )
        if systems.count_chains(f) * n_distinct != m_distinct * factorial(n):
            bad += 1
        tested += 1
    lines = [f"{tested} systems, C(F) * N == M * n! exactly: {bad == 0}"]
    return SuiteResult("fraction", bad == 0, lines)


def corpus() -> list:
    """The constructed systems every corpus-wide check runs against."""
    out = [
        constructions.powerset(3),
        constructions.powerset(5),
        constructions.single_chain(4),
        constructions.single_chain(8),
        constructions.tower_of_cubes(2, 2),
        constructions.tower_of_cubes(3, 2),
        constructions.tower_of_cubes(2, 3),
        constructions.koivisto_parviainen(),
        constructions.split_band_system(3, 1.0),
        constructions.split_band_system(4, 0.9),
        constructions.core_prefix_system(6, 2 / 3, 1 / 3),
        constructions.core_prefix_system(5, 0.8, 0.4),
    ]
    g = analysis.SQRT2_PARAMS
    out.append(constructions.banded_prefix_system(8, g.alpha, g.beta, g.gamma))
    out.append(constructions.banded_prefix_system(12, g.alpha, g.beta, g.gamma))
    return out


def suite_lower_bound() -> SuiteResult:
    bad = []
    checked = corpus()
    for f in checked:
        c = systems.count_chains(f)
        size = len(f)
        for k in range(0, 7):
            piece = -(-f.n // (k + 1))  # ceil
            bound = factorial(piece) ** (k + 1) * size**k
            if c > bound:
                bad.append((repr(f), k))
    lines = [f"{len(checked)} systems x k in 0..6, C(F) within the chain bound: {not bad}"]
    lines += [f"violated: {b}" for b in bad[:5]]
    return SuiteResult("lower-bound", not bad, lines)


def suite_cover() -> SuiteResult:
    lines = []
    ok = True
    # plain covers, verified complete by the signature DP
    for n, base in ((4, constructions.tower_of_cubes(2, 2)),
                    (5, constructions.core_prefix_system(5, 0.8, 0.4))):
        fam = cover.greedy_prune(cover.random_cover(base, seed=n, max_tries=2000))
        complete = cover.covers_all(fam)
        ok &= complete
        lines.append(f"n={n}: pruned cover of {len(fam)} members complete: {complete}")
    # unique families, verified exact-once
    uniques = {}
    for n, base in (
        (4, constructions.core_prefix_system(4, 3 / 4, 1 / 2)),
        (5, constructions.core_prefix_system(5, 0.8, 0.4)),
        (6, constructions.core_prefix_system(6, 2 / 3, 1 / 3)),
    ):
        fam = cover.make_unique(
            cover.greedy_prune(cover.random_cover(base, seed=10 + n, max_tries=2000))
        )
        once = cover.exactly_once(fam)
        uniques[n] = fam
        ok &= once
        lines.append(f"n={n}: unique family of {len(fam)} members exact-once: {once}")
    # unique counting: all-one costs over (+, *) give n! exactly
    for n, fam in uniques.items():
        problem = semiring.PermutationProblem(
            n, 0, lambda mask, tail: 1, semiring.COUNTING
        )
        total = semiring.evaluate_unique(problem, fam)
        ok &= total == factorial(n)
        lines.append(f"n={n}: unique all-ones count = {total} (= {n}!): {total == factorial(n)}")
    return SuiteResult("cover", ok, lines)


def _linear_extensions(poset) -> int | None:
    """The count of the downset sweep when the semiring DP agrees, else None."""
    count = semiring.count_linear_extensions(poset)
    dp = semiring.evaluate_dp(semiring.linear_extension_problem(poset))
    return count if count == dp else None


def suite_count_le() -> SuiteResult:
    # the downset sweep and the semiring DP against each other, and against
    # brute enumeration or a closed form
    gen = SplitMix64(6161)
    bad = 0
    tested = 0
    while tested < 100:
        n = 3 + gen.randbelow(6)
        rels = [
            (a + 1, b + 1)
            for a in range(n)
            for b in range(n)
            if a != b and gen.randbelow(5) == 0
        ]
        try:
            poset = semiring.Poset.from_relations(n, rels)
        except ValueError:
            continue
        tested += 1
        if _linear_extensions(poset) != semiring.count_linear_extensions_brute(poset):
            bad += 1
    anti = semiring.Poset.from_relations(6, [])
    chain = semiring.Poset.from_relations(7, [(i, i + 1) for i in range(1, 7)])
    ok_anti = _linear_extensions(anti) == factorial(6)
    ok_chain = _linear_extensions(chain) == 1
    # beyond brute force: a 40-chain, and disjoint chains 1..8, 9..16,
    # 17..23, 24..30 (5184 downsets), counted by the multinomial
    long_chain = semiring.Poset.from_relations(40, [(i, i + 1) for i in range(1, 40)])
    ok_long = _linear_extensions(long_chain) == 1
    lengths, starts = (8, 8, 7, 7), (1, 9, 17, 24)
    union = semiring.Poset.from_relations(
        30, [(a + i, a + i + 1) for a, k in zip(starts, lengths) for i in range(k - 1)]
    )
    multinomial = factorial(30)
    for k in lengths:
        multinomial //= factorial(k)
    ok_union = _linear_extensions(union) == multinomial
    lines = [
        f"{tested} random posets match brute enumeration: {bad == 0}",
        f"antichain(6) = 6!: {ok_anti}; chain(7) = 1: {ok_chain}",
        f"chain(40) = 1: {ok_long}; chains 8+8+7+7 = 30!/(8!8!7!7!): {ok_union}",
    ]
    ok = bad == 0 and ok_anti and ok_chain and ok_long and ok_union
    return SuiteResult("count-le", ok, lines)


def suite_regular() -> SuiteResult:
    f = constructions.core_prefix_system(6, 2 / 3, 1 / 3)
    ok_core = cover.regularly_self_intersecting(f)
    ok_pow = cover.regularly_self_intersecting(constructions.powerset(4))
    lines = [
        f"core-prefix system at n=6 regularly self-intersecting: {ok_core}",
        f"powerset(4) regularly self-intersecting: {ok_pow}",
    ]
    return SuiteResult("regular", ok_core and ok_pow, lines)


def suite_jlr() -> SuiteResult:
    rows = analysis.jlr_rows((8, 12, 16, 20, 24))
    lines = [
        "n   tower S  tower P  banded S  banded P  formula P",
    ]
    for r in rows:
        lines.append(
            f"{r['n']:<3d} {r['tower_s']:.4f}   {r['tower_p']:.4f}   "
            f"{r['banded_s']:.4f}    {r['banded_p']:.4f}    {r['formula_p']:.6f}"
        )
    last = rows[-1]
    towers = [r["tower_p"] for r in rows]
    ok_trend = all(a < b for a, b in zip(towers, towers[1:])) and towers[-1] < 2
    ok_above = last["tower_p"] > last["formula_p"]
    strict = last["banded_p"] < last["tower_p"]
    lines.append(f"tower P climbing toward 2: {ok_trend}")
    lines.append(f"tower P at n=24 above the banded formula value: {ok_above}")
    lines.append(f"banded P strictly below tower P at n=24: {strict}")
    return SuiteResult("jlr", ok_trend and ok_above, lines)


SUITES = {
    "kp": suite_kp,
    "cor42": suite_cor42,
    "cor43": suite_cor43,
    "cor47": suite_cor47,
    "warmup-constants": suite_warmup_constants,
    "solvers": suite_solvers,
    "lemma37": suite_lemma37,
    "split": suite_split,
    "fraction": suite_fraction,
    "lower-bound": suite_lower_bound,
    "cover": suite_cover,
    "count-le": suite_count_le,
    "regular": suite_regular,
    "jlr": suite_jlr,
}


def run_suite(name: str) -> SuiteResult:
    t0 = time.time()
    result = SUITES[name]()
    result.elapsed = time.time() - t0
    return result
