"""Semiring permutation problems: evaluators, families, linear extensions."""

from fractions import Fraction
from itertools import permutations
from math import factorial, inf

import pytest

from chainfold import cover, semiring, systems
from chainfold.constructions import core_prefix_system, from_spec, powerset
from chainfold.cover import (
    CoverFamily,
    covers_all,
    exactly_once,
    greedy_prune,
    make_unique,
    random_cover,
)
from chainfold.rng import SplitMix64
from chainfold.semiring import (
    COUNTING,
    MAX_TIMES,
    MIN_PLUS,
    PermutationProblem,
    Poset,
    _dp_over_masks,
    count_linear_extensions,
    count_linear_extensions_brute,
    dump_poset,
    evaluate_brute,
    evaluate_dp,
    evaluate_restricted,
    evaluate_unique,
    linear_extension_problem,
    load_poset,
    tsp_live_peak,
    tsp_path_problem,
)
from chainfold.solver import random_instance
from chainfold.systems import CapError, FormatError, SetSystem, supports


# --- semiring axioms ----------------------------------------------------------

def _samples(descriptor, gen, count):
    if descriptor is MIN_PLUS:
        pool = [inf, 0] + [gen.randbelow(200) - 100 for _ in range(count)]
    elif descriptor is COUNTING:
        pool = [0, 1] + [gen.randbelow(10**6) for _ in range(count)]
    else:
        pool = [Fraction(0), Fraction(1)] + [
            Fraction(gen.randbelow(99), gen.randbelow(99) + 1) for _ in range(count)
        ]
    return pool


@pytest.mark.parametrize("descriptor", [MIN_PLUS, COUNTING, MAX_TIMES])
def test_semiring_axioms(descriptor):
    gen = SplitMix64(13)
    pool = _samples(descriptor, gen, 30)
    add, mul, zero, one = descriptor.add, descriptor.mul, descriptor.zero, descriptor.one
    for _ in range(1000):
        a = pool[gen.randbelow(len(pool))]
        b = pool[gen.randbelow(len(pool))]
        c = pool[gen.randbelow(len(pool))]
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, zero) == a
        assert mul(a, one) == a == mul(one, a)
        assert mul(zero, a) == zero == mul(a, zero)  # the DP drops zero states
        if descriptor.idempotent:
            assert add(a, a) == a


# --- brute and DP evaluation -----------------------------------------------------

def test_all_one_count_is_factorial():
    for n in (1, 3, 5):
        p = PermutationProblem(n, 0, lambda mask, tail: 1, COUNTING)
        assert evaluate_brute(p) == factorial(n)
        assert evaluate_dp(p) == factorial(n)


def test_all_identity_min_plus_is_zero():
    p = PermutationProblem(4, 0, lambda mask, tail: 0, MIN_PLUS)
    assert evaluate_brute(p) == 0
    assert evaluate_dp(p) == 0


def test_tsp_problem_is_min_hamiltonian_path():
    inst = random_instance(6, 17)
    problem = tsp_path_problem(inst)
    best = min(
        sum(inst.dist[a][b] for a, b in zip(p, p[1:]))
        for p in permutations(range(1, 7))
    )
    assert evaluate_brute(problem) == best
    assert evaluate_dp(problem) == best


def test_cyclic_tour_via_split_city_reduction():
    # the classic reduction: duplicate the anchor city as a forced endpoint,
    # so the cyclic optimum becomes a pure minimum-path permutation problem
    from chainfold.solver import held_karp

    inst = random_instance(6, 31)
    n = inst.n
    end = n + 1  # copy of city 1, must come last
    big = 10**9

    def dist(x, y):
        if x == end:
            return big
        return inst.dist[x][1] if y == end else inst.dist[x][y]

    def cost(mask, tail):
        if len(tail) == 1:
            return 0 if tail[0] == 1 else big
        x, y = tail
        w = dist(x, y)
        if bin(mask).count("1") == end and y != end:
            w += big
        return w

    p = PermutationProblem(end, 2, cost, MIN_PLUS)
    assert evaluate_dp(p) == held_karp(inst).value


def _random_problem(gen, n, degree, descriptor):
    """Costs drawn on first use, the semiring zero about a third of the time,
    so the DP skips transitions; the draws follow the order of the calls."""
    table = {}

    def cost(mask, tail):
        key = (mask, tail)
        if key not in table:
            if gen.randbelow(3) == 0:
                table[key] = descriptor.zero
            elif descriptor is MIN_PLUS:
                table[key] = gen.randbelow(30)
            elif descriptor is COUNTING:
                table[key] = gen.randbelow(5)
            else:
                table[key] = Fraction(gen.randbelow(5), gen.randbelow(4) + 1)
        return table[key]

    return PermutationProblem(n, degree, cost, descriptor)


@pytest.mark.parametrize("descriptor", [MIN_PLUS, COUNTING, MAX_TIMES])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_dp_matches_brute_random_problems(descriptor, degree):
    gen = SplitMix64(degree * 101 + 7)
    for trial in range(4):
        n = 3 + gen.randbelow(4)
        p = _random_problem(gen, n, degree, descriptor)
        assert evaluate_dp(p) == evaluate_brute(p)


@pytest.mark.parametrize("descriptor", [MIN_PLUS, COUNTING, MAX_TIMES])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_restricted_dp_matches_brute_over_supported_permutations(descriptor, degree):
    # the DP over a system's masks folds exactly the permutations whose
    # prefix sets all lie in the system
    gen = SplitMix64(degree * 37 + 5)
    supported = []
    for trial in range(4):
        n = 3 + gen.randbelow(4)
        f = SetSystem(n, {m for m in range(1 << n) if gen.randbelow(4)} | {0, (1 << n) - 1})
        p = _random_problem(gen, n, degree, descriptor)
        ref = descriptor.zero
        perms = [perm for perm in permutations(range(1, n + 1)) if supports(f, perm)]
        for perm in perms:
            ref = descriptor.add(ref, p.value(perm))
        assert _dp_over_masks(p, f) == ref
        supported.append(len(perms) / factorial(n))
    assert 0 < min(supported) and max(supported) < 1


def _reference_dp(p, allowed=None):
    """The semiring DP as a per-tail dict loop, the oracle for _dp_over_masks:
    free bits walked in ascending order, each transition updating its own
    next state.  Returns the value and the most states live at once, the
    level being swept plus the next; it has no budget of its own."""
    add, mul, zero = p.semiring.add, p.semiring.mul, p.semiring.zero
    n, d = p.n, p.degree
    keep = max(0, d - 1)
    full = (1 << n) - 1
    if allowed is not None and 0 not in allowed:
        return zero, 0
    level, width, peak = {0: {(): p.semiring.one}}, 1, 1
    for j in range(n):
        cut = 1 if d and j >= keep else 0
        live = width
        nxt = {}
        for mask, tails in level.items():
            free = full & ~mask
            while free:
                bit = free & -free
                free ^= bit
                m2 = mask | bit
                if allowed is not None and m2 not in allowed:
                    continue
                newest = (bit.bit_length(),) if d else ()
                row = nxt.get(m2, {})
                for tail, val in tails.items():
                    args = tail + newest
                    w = p.local_cost(m2, args)
                    if w is zero:
                        continue
                    t2 = args[cut:]
                    contrib = mul(val, w)
                    if t2 in row:
                        row[t2] = add(row[t2], contrib)
                    elif contrib != zero:
                        row[t2] = contrib
                        live += 1
                if row:
                    nxt[m2] = row
        level, width, peak = nxt, live - width, max(peak, live)
    total = zero
    for tails in level.values():
        for val in tails.values():
            total = add(total, val)
    return total, peak


def _recorded(seed, n, degree, descriptor):
    """A _random_problem drawn from SplitMix64(seed) whose zero costs are, on
    odd (mask + tail sum), an equal but distinct zero object, so the DP runs
    their multiply; and the list of (mask, tail) calls it receives."""
    p = _random_problem(SplitMix64(seed), n, degree, descriptor)
    calls = []

    def cost(mask, tail):
        calls.append((mask, tail))
        w = p.local_cost(mask, tail)
        if w is descriptor.zero and (mask + sum(tail)) % 2:
            return float("inf") if descriptor is MIN_PLUS else Fraction(0)
        return w

    return PermutationProblem(n, degree, cost, descriptor), calls


@pytest.mark.parametrize("descriptor", [MIN_PLUS, COUNTING, MAX_TIMES])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_dp_matches_per_tail_reference(descriptor, degree):
    # the same value from the same cost calls in the same order, over every
    # mask and over a random system's, which lacks the empty or the full set
    # on some trials
    gen = SplitMix64(degree * 53 + 3)
    for trial in range(8):
        n = 1 + gen.randbelow(7)
        f = None
        if trial % 2:
            forced = {0, (1 << n) - 1} if trial % 4 == 1 else set()
            f = SetSystem(n, {m for m in range(1 << n) if gen.randbelow(4)} | forced)
        seed = gen.next64()
        p, calls = _recorded(seed, n, degree, descriptor)
        ref_p, ref_calls = _recorded(seed, n, degree, descriptor)
        allowed = None if f is None else f.mask_set()
        assert _dp_over_masks(p, f) == _reference_dp(ref_p, allowed)[0]
        assert calls == ref_calls


@pytest.mark.parametrize(
    "degree, mask, tail", [(1, 0b011, (1,)), (2, 0b0111, (1, 3))], ids=["degree1", "degree2"]
)
def test_a_state_that_sums_to_zero_stays_live(degree, mask, tail):
    # one step costs -1 and every other 1, so the state that step reaches
    # sums to 1 - 1 = 0; it was created, so it still extends, as in the
    # reference
    def cost(m, t):
        calls.append((m, t))
        return -1 if (m, t) == (mask, tail) else 1

    p = PermutationProblem(4, degree, cost, COUNTING)
    calls = []
    value = _dp_over_masks(p)
    got, calls = calls, []
    assert (value, got) == (_reference_dp(p)[0], calls)
    assert value == evaluate_brute(p)


def _finite_degree3_problem():
    return PermutationProblem(6, 3, lambda mask, tail: (mask * 7 + sum(tail)) % 11, MIN_PLUS)


@pytest.mark.parametrize(
    "problem, member",
    [
        (_finite_degree3_problem(), None),
        (tsp_path_problem(random_instance(6, 4)), from_spec("thm45:6,0.667,0.334")),
    ],
    ids=["degree3", "member"],
)
def test_reference_live_peak_is_the_budget_edge(monkeypatch, problem, member):
    # past test_tsp_live_peak_is_the_sweeps_own_peak: every state is live at
    # degree 3 with finite costs, and a member DP holds its system's states
    value, peak = _reference_dp(problem, None if member is None else member.mask_set())
    monkeypatch.setattr(systems, "STATE_BUDGET", peak)
    assert _dp_over_masks(problem, member) == value < inf
    monkeypatch.setattr(systems, "STATE_BUDGET", peak - 1)
    with pytest.raises(CapError):
        _dp_over_masks(problem, member)


@pytest.mark.parametrize("descriptor", [MIN_PLUS, COUNTING, MAX_TIMES])
def test_dp_matches_brute_at_cap_size(descriptor):
    gen = SplitMix64(42)
    p = _random_problem(gen, 8, 2, descriptor)
    assert evaluate_dp(p) == evaluate_brute(p)


def test_degree_zero_prefix_size_closed_form():
    n = 5
    weights = [0, 2, 3, 1, 4, 2]  # weight by prefix size 1..n

    def cost(mask, tail):
        return weights[bin(mask).count("1")]

    p = PermutationProblem(n, 0, cost, COUNTING)
    product = 1
    for w in weights[1:]:
        product *= w
    assert evaluate_dp(p) == factorial(n) * product


def test_single_element_problem():
    p = PermutationProblem(1, 2, lambda mask, tail: 7 if tail == (1,) else 0, COUNTING)
    assert evaluate_brute(p) == 7
    assert evaluate_dp(p) == 7


def test_degree_cap():
    with pytest.raises(ValueError):
        PermutationProblem(4, 4, lambda mask, tail: 1, COUNTING)


# --- restricted and unique evaluation ------------------------------------------------

def test_restricted_tsp_with_cover_matches_dp():
    inst = random_instance(5, 23)
    problem = tsp_path_problem(inst)
    fam = greedy_prune(random_cover(core_prefix_system(5, 0.8, 0.4), seed=2, max_tries=500))
    assert evaluate_restricted(problem, fam) == evaluate_dp(problem)


def test_restricted_with_powerset_member_trivial():
    inst = random_instance(4, 3)
    problem = tsp_path_problem(inst)
    fam = CoverFamily(powerset(4), ((1, 2, 3, 4),))
    assert evaluate_restricted(problem, fam) == evaluate_dp(problem)


def test_restricted_absorbs_supportless_member():
    inst = random_instance(4, 5)
    problem = tsp_path_problem(inst)
    # second member supports nothing after losing the empty set
    fam = CoverFamily(
        powerset(4),
        ((1, 2, 3, 4), (1, 2, 3, 4)),
        unique_mode=True,
        removed=((), (0,)),
    )
    assert evaluate_unique(problem, fam) == evaluate_dp(problem)


def test_restricted_refuses_family_that_misses_a_permutation():
    # one identity member of the core base supports 288 of the 720 orders;
    # summed without the check, the minimum path over them would read 93
    problem = tsp_path_problem(random_instance(6, 3))
    assert evaluate_dp(problem) == 67
    fam = CoverFamily(from_spec("thm45:6,0.667,0.334"), ((1, 2, 3, 4, 5, 6),))
    assert _dp_over_masks(problem, fam.systems()[0]) == 93
    with pytest.raises(ValueError, match="does not cover"):
        evaluate_restricted(problem, fam)
    assert fam._covers_all is False


def test_restricted_checks_coverage_once_per_family(monkeypatch):
    problem = tsp_path_problem(random_instance(5, 23))
    fam = greedy_prune(random_cover(core_prefix_system(5, 0.8, 0.4), seed=2, max_tries=500))
    assert fam._covers_all is None
    first = evaluate_restricted(problem, fam)
    assert fam._covers_all is True

    def recount(n, where):
        raise AssertionError("coverage counted twice")

    monkeypatch.setattr(cover, "_signatures", recount)
    assert evaluate_restricted(problem, fam) == first


def test_restricted_refuses_non_idempotent():
    fam = CoverFamily(powerset(3), ((1, 2, 3),))
    p = PermutationProblem(3, 0, lambda mask, tail: 1, COUNTING)
    with pytest.raises(ValueError):
        evaluate_restricted(p, fam)


def test_overlap_hazard_is_real():
    # two identical powerset members: every permutation is counted twice
    fam = CoverFamily(powerset(3), ((1, 2, 3), (1, 2, 3)))
    p = PermutationProblem(3, 0, lambda mask, tail: 1, COUNTING)
    member_sum = sum(_dp_over_masks(p, g) for g in fam.systems())
    assert member_sum == 12 > evaluate_dp(p) == 6


def test_unique_counting_gives_factorial():
    base = core_prefix_system(5, 0.8, 0.4)
    fam = make_unique(greedy_prune(random_cover(base, seed=3, max_tries=500)))
    p = PermutationProblem(5, 0, lambda mask, tail: 1, COUNTING)
    assert evaluate_unique(p, fam) == factorial(5)


def test_unique_counting_gives_factorial_at_n8():
    # n = 8: make_unique and the exact-once check run on chain counts alone
    base = from_spec("thm45:8,0.75,0.375")
    fam = make_unique(greedy_prune(random_cover(base, seed=0, max_tries=5000)))
    p = PermutationProblem(8, 0, lambda mask, tail: 1, COUNTING)
    assert evaluate_unique(p, fam) == factorial(8)


def test_unique_powerset_family_matches_dp():
    fam = CoverFamily(powerset(4), ((1, 2, 3, 4),), unique_mode=True, removed=((),))
    gen = SplitMix64(8)
    p = _random_problem(gen, 4, 2, COUNTING)
    assert evaluate_unique(p, fam) == evaluate_dp(p)


def test_unique_requires_unique_mode():
    fam = CoverFamily(powerset(4), ((1, 2, 3, 4),))
    p = PermutationProblem(4, 0, lambda mask, tail: 1, COUNTING)
    with pytest.raises(ValueError):
        evaluate_unique(p, fam)


def test_unique_refuses_false_unique_claim():
    # two identity members of powerset(4) support every permutation twice:
    # summing them would count 48 permutations, not 24
    ident = (1, 2, 3, 4)
    fam = CoverFamily(powerset(4), (ident, ident), unique_mode=True, removed=((), ()))
    p = PermutationProblem(4, 0, lambda mask, tail: 1, COUNTING)
    assert not exactly_once(fam)
    with pytest.raises(ValueError):
        evaluate_unique(p, fam)


def test_unique_check_is_cached_on_the_family():
    fam = CoverFamily(powerset(4), ((1, 2, 3, 4),), unique_mode=True, removed=((),))
    p = PermutationProblem(4, 0, lambda mask, tail: 1, COUNTING)
    assert fam._exactly_once is None
    assert evaluate_unique(p, fam) == 24
    assert fam._exactly_once is True


def test_le_on_random_poset_with_unique_family():
    base = core_prefix_system(6, 2 / 3, 1 / 3)
    fam = make_unique(greedy_prune(random_cover(base, seed=11, max_tries=2000)))
    poset = Poset.from_relations(6, [(1, 4), (2, 4), (4, 6), (3, 5)])
    problem = linear_extension_problem(poset)
    assert evaluate_unique(problem, fam) == evaluate_brute(problem)
    assert evaluate_brute(problem) == count_linear_extensions_brute(poset)


# --- linear extensions -----------------------------------------------------------------

def test_antichain_and_total_order():
    assert count_linear_extensions(Poset.from_relations(3, [])) == 6
    chain = Poset.from_relations(6, [(i, i + 1) for i in range(1, 6)])
    assert count_linear_extensions(chain) == 1


def _counted(problem):
    """The problem with its local cost wrapped to count calls."""
    calls = []

    def cost(mask, tail):
        calls.append(None)
        return problem.local_cost(mask, tail)

    return PermutationProblem(problem.n, problem.degree, cost, problem.semiring), calls


def _chain(n):
    return Poset.from_relations(n, [(i, i + 1) for i in range(1, n)])


@pytest.mark.parametrize(
    "poset, count, calls",
    [
        (_chain(6), 1, 21),  # one downset per level: 6 + 5 + ... + 1
        (Poset.from_relations(6, []), 720, 192),  # every mask: 6 * 2^5, none skipped
        (_chain(40), 1, 820),  # 40 + 39 + ... + 1
    ],
    ids=["chain6", "antichain6", "chain40"],
)
def test_linear_extension_dp_visits_downsets_only(poset, count, calls):
    p, seen = _counted(linear_extension_problem(poset))
    assert evaluate_dp(p) == count
    assert len(seen) == calls


def test_an_equal_but_distinct_zero_creates_no_state_either():
    # a cost of Fraction(0) is not the semiring's zero object, so its
    # multiply runs, but the zero product still creates no state
    preds = _chain(6).pred_masks
    p, seen = _counted(PermutationProblem(
        6, 1, lambda mask, tail: Fraction(0) if preds[tail[-1] - 1] & ~mask else 1, COUNTING
    ))
    assert evaluate_dp(p) == 1
    assert len(seen) == 21


def test_state_budget_caps_every_semiring_dp(monkeypatch):
    # the budget counts live (mask, tail) states, not n: the antichain on 6
    # elements holds 20 + 15 states at its widest two levels, a 40-chain at
    # most 2
    monkeypatch.setattr(systems, "STATE_BUDGET", 34)
    assert count_linear_extensions(_chain(40)) == 1
    with pytest.raises(CapError):
        count_linear_extensions(Poset.from_relations(6, []))
    monkeypatch.setattr(systems, "STATE_BUDGET", 35)
    assert count_linear_extensions(Poset.from_relations(6, [])) == 720
    # the per-member DPs of a family run under the same budget (the families'
    # own coverage checks, which hold 10 states, are cached before it drops)
    plain = CoverFamily(powerset(4), ((1, 2, 3, 4),))
    unique = CoverFamily(powerset(4), ((1, 2, 3, 4),), unique_mode=True, removed=((),))
    assert covers_all(plain) and exactly_once(unique)
    monkeypatch.setattr(systems, "STATE_BUDGET", 4)
    with pytest.raises(CapError, match="semiring DP"):
        evaluate_restricted(tsp_path_problem(random_instance(4, 3)), plain)
    with pytest.raises(CapError, match="semiring DP"):
        evaluate_unique(PermutationProblem(4, 0, lambda mask, tail: 1, COUNTING), unique)


@pytest.mark.parametrize("n", range(2, 10))
def test_tsp_live_peak_is_the_sweeps_own_peak(monkeypatch, n):
    p = tsp_path_problem(random_instance(n, n))
    peak = tsp_live_peak(n)
    monkeypatch.setattr(systems, "STATE_BUDGET", peak)
    assert evaluate_dp(p) < inf
    semiring.check_tsp_budget(n)
    monkeypatch.setattr(systems, "STATE_BUDGET", peak - 1)
    with pytest.raises(CapError):
        evaluate_dp(p)
    with pytest.raises(CapError):
        semiring.check_tsp_budget(n)


def test_tsp_live_peak_fits_the_budget_through_18_cities():
    assert tsp_live_peak(18) == 875160 <= systems.STATE_BUDGET < tsp_live_peak(19)


def test_random_posets_match_brute():
    gen = SplitMix64(21)
    checked = 0
    while checked < 30:
        n = 3 + gen.randbelow(5)
        rels = [
            (a + 1, b + 1)
            for a in range(n)
            for b in range(n)
            if a != b and gen.randbelow(4) == 0
        ]
        try:
            poset = Poset.from_relations(n, rels)
        except ValueError:
            continue
        checked += 1
        assert count_linear_extensions(poset) == count_linear_extensions_brute(poset)


def test_transitive_closure_and_cycle_rejection():
    poset = Poset.from_relations(4, [(1, 2), (2, 3)])
    assert poset.precedes(1, 3)
    with pytest.raises(ValueError):
        Poset.from_relations(3, [(1, 2), (2, 3), (3, 1)])


def test_poset_file_roundtrip(tmp_path):
    poset = Poset.from_relations(5, [(1, 3), (2, 3), (3, 5)])
    path = tmp_path / "p.po"
    dump_poset(poset, path)
    assert load_poset(path) == poset


def test_poset_file_rejects(tmp_path):
    path = tmp_path / "bad.po"
    path.write_text("n 3\n1 precedes 2\n")
    with pytest.raises(FormatError):
        load_poset(path)
    path.write_text("n 3\n1 < 2\n2 < 1\n")
    with pytest.raises(FormatError):
        load_poset(path)
    path.write_text("n -1\n")  # a negative ground set
    with pytest.raises(FormatError):
        load_poset(path)
    path.write_text("n 20000000\n1 < 2\n")  # refused before anything is built
    with pytest.raises(CapError):
        load_poset(path)
