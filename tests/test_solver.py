"""Solver equivalences, restriction monotonicity, and witness soundness."""

from itertools import chain, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold.constructions import (
    core_prefix_system,
    powerset,
    single_chain,
    tower_of_cubes,
)
from chainfold.cover import exact_min_cover, greedy_prune, random_cover
from chainfold.rng import SplitMix64
from chainfold.solver import (
    BATCH_ROWS,
    WEIGHT_BOUND,
    Solution,
    _Lattice,
    TspInstance,
    _chain_dp,
    _fixed_path,
    _path_brute,
    brute_force,
    framework_solver,
    gurevich_shelah,
    held_karp,
    load_instance,
    partition_blocks,
    random_instance,
    random_split_solver,
    restricted_dp,
    split_prefix_system,
)
from chainfold.systems import CapError, FormatError, SetSystem, mask_of, prefix_chain, supports

SEEDS = range(5)
SIZES = range(4, 9)


def tour_value(inst, tour):
    """Cyclic cost of a tour, closing edge included."""
    d = inst.dist
    return d[tour[-1]][tour[0]] + sum(d[a][b] for a, b in zip(tour, tour[1:]))


def _instance(n, seed, low, high):
    """Seeded instance with weights uniform in [low, high]."""
    gen = SplitMix64(seed)
    rows = [[0 if i == j else low + gen.randbelow(high - low + 1) for j in range(n)] for i in range(n)]
    return TspInstance.from_rows(rows)


def _weights(kind, n):
    """Weights of one kind: wide, tied, signed, or at the int64 edge, where
    |w| sits just under WEIGHT_BOUND // n and tours still tie."""
    big = WEIGHT_BOUND // n - 1
    return {
        "99": st.integers(1, 99),
        "ties": st.integers(1, 2),
        "signed": st.integers(-1, 1),
        "bound": st.sampled_from((big, big - 1, -big)),
    }[kind]


@st.composite
def instances(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(("99", "ties", "signed", "bound")))
    cells = draw(st.lists(_weights(kind, n), min_size=n * n, max_size=n * n))
    return TspInstance.from_rows([cells[i * n:(i + 1) * n] for i in range(n)])


# --- brute force -------------------------------------------------------------

def test_brute_three_cities_compares_both_directions():
    inst = TspInstance.from_rows([[0, 1, 10], [7, 0, 2], [3, 9, 0]])
    # (1,2,3): 1+2+3 = 6; (1,3,2): 10+9+7 = 26
    sol = brute_force(inst)
    assert sol.value == 6 and sol.tour == (1, 2, 3)


def test_brute_two_cities():
    inst = TspInstance.from_rows([[0, 5], [7, 0]])
    assert brute_force(inst).value == 12


def test_brute_cap():
    with pytest.raises(CapError):
        brute_force(random_instance(12, 0))


# --- held-karp ----------------------------------------------------------------

# weights in {1, 2} tie often, so the lexicographically smallest witness is
# checked along with the value
@pytest.mark.parametrize(
    "n, max_weight",
    [pytest.param(n, 99, id=str(n)) for n in (2, *SIZES)]
    + [pytest.param(n, 2, id=f"{n}-ties") for n in SIZES],
)
def test_held_karp_matches_brute(n, max_weight):
    for seed in SEEDS:
        inst = random_instance(n, seed * 31 + n, max_weight=max_weight)
        b, h = brute_force(inst), held_karp(inst)
        assert h.value == b.value
        assert h.tour == b.tour
        assert tour_value(inst, h.tour) == h.value


def test_held_karp_equal_weights():
    n, w = 7, 3
    inst = TspInstance.from_rows([[0 if i == j else w for j in range(n)] for i in range(n)])
    assert held_karp(inst).value == n * w


def test_held_karp_rectangle_optimum():
    # corners of a 3x4 rectangle; the perimeter tour is the unique optimum
    inst = TspInstance.from_rows(
        [[0, 3, 5, 4], [3, 0, 4, 5], [5, 4, 0, 3], [4, 5, 3, 0]]
    )
    assert brute_force(inst).value == 14
    sol = held_karp(inst)
    assert sol.value == 14 and sol.tour == (1, 2, 3, 4)


@pytest.mark.parametrize("n", range(2, 10))
def test_held_karp_table_entries(n):
    # the table_entries line of `chainfold solve --alg bhk`
    assert held_karp(random_instance(n, n)).table_entries == 2 ** (n - 1) * (n - 1) + 1


def _indexed_lattice(cities):
    """Every subset of the ascending cities as a cached-index lattice: the
    level arrays and successor index of powerset(len(cities))."""
    f = powerset(len(cities))
    return _Lattice(cities, f.level_arrays(), f.successor_index())


@pytest.mark.parametrize("k", range(3, 8))
def test_path_dp_matches_path_brute_on_every_endpoint_pair(k):
    # weights in {1, 2} tie often, so the lexicographically smallest witness
    # is checked along with the value; a == b is the closed-tour case.  The
    # sweep runs over the rank lattice of the subsets that hold a, as
    # _fixed_path builds it, and over powerset(k)'s cached-index lattice
    for seed in range(4):
        inst = random_instance(9, seed * 13 + k, max_weight=2)
        cities = SplitMix64(seed).sample(9, k)
        for a in cities:
            for b in cities:
                # b follows the last city, so it lies outside the path's cities
                path = cities if a == b else [c for c in cities if c != b]
                expected = _path_brute(inst.dist, path, a, b)
                assert _fixed_path(inst.dist, path, a, b) == expected
                lat = _indexed_lattice(sorted(path))
                [(value, order, _)] = _chain_dp(inst.dist, lat, [(a, b, None)])
                assert (value, order) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fixed_path_matches_path_brute_differential(data):
    # every endpoint pair of a random city set; up to 7 cities keeps the
    # enumeration oracle fast
    inst = data.draw(instances(3, 8))
    cities = sorted(data.draw(st.sets(st.integers(1, inst.n), min_size=1, max_size=7)))
    for a in cities:
        for b in cities:
            path = cities if a == b else [c for c in cities if c != b]
            assert _fixed_path(inst.dist, path, a, b) == _path_brute(inst.dist, path, a, b)


# --- restricted DP ---------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_restricted_matches_supported_permutations_differential(data):
    # the oracle lists every permutation f supports; most systems also hold
    # the prefix-sets of a few orders, so that tours exist and can tie
    inst = data.draw(instances(4, 7))
    n = inst.n
    kept = data.draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n))
    masks = {m for m, keep in enumerate(kept) if keep}
    for _ in range(data.draw(st.integers(0, 3))):
        masks |= set(prefix_chain(data.draw(st.permutations(range(1, n + 1)))))
    f = SetSystem(n, masks)
    tours = [(tour_value(inst, p), p) for p in permutations(range(1, n + 1)) if supports(f, p)]
    sol = restricted_dp(inst, f)
    if tours:
        assert (sol.value, sol.tour) == min(tours)
    else:
        assert sol is None


@pytest.mark.parametrize("n", SIZES)
def test_restricted_on_powerset_equals_held_karp(n):
    pset = powerset(n)
    for seed in SEEDS:
        inst = random_instance(n, seed * 17 + n)
        r, h = restricted_dp(inst, pset), held_karp(inst)
        assert r.value == h.value and r.tour == h.tour


def test_restricted_on_identity_chain():
    inst = random_instance(6, 99)
    sol = restricted_dp(inst, single_chain(6))
    ident = tuple(range(1, 7))
    assert sol.tour == ident and sol.value == tour_value(inst, ident)


def test_restricted_on_empty_system_infeasible():
    inst = random_instance(5, 1)
    assert restricted_dp(inst, SetSystem(5, [])) is None
    assert restricted_dp(inst, single_chain(5).__class__(5, [0])) is None


def test_restricted_never_beats_held_karp_and_is_monotone():
    from chainfold.rng import SplitMix64

    gen = SplitMix64(55)
    for trial in range(25):
        n = 4 + gen.randbelow(3)
        inst = random_instance(n, trial)
        hk = held_karp(inst).value
        masks = {0, (1 << n) - 1}
        masks.update(gen.randbelow(1 << n) for _ in range(gen.randbelow(2 * n) + 2))
        small = SetSystem(n, masks)
        bigger = SetSystem(n, set(small.mask_set()) | {gen.randbelow(1 << n) for _ in range(6)})
        sol_small = restricted_dp(inst, small)
        sol_big = restricted_dp(inst, bigger)
        if sol_small is not None:
            assert sol_small.value >= hk
            assert tour_value(inst, sol_small.tour) == sol_small.value
            assert sol_big is not None and sol_big.value <= sol_small.value


def test_restricted_table_stays_within_bound():
    inst = random_instance(7, 12)
    f = powerset(7)
    sol = restricted_dp(inst, f)
    assert 0 < sol.table_entries <= 7 * len(f)


@pytest.mark.parametrize(
    "low, high",
    [pytest.param(1, 99, id="99"), pytest.param(1, 2, id="2"), pytest.param(-1, 1, id="negative")],
)
def test_restricted_matches_supported_enumeration_oracle(low, high):
    # direct oracle: enumerate every permutation the system supports, take
    # the cheapest cyclic cost with the lexicographically smallest witness;
    # narrow weight ranges make that witness the tie-breaker.  Each system
    # holds the prefix-sets of a random permutation, so every case has a tour
    gen = SplitMix64(2024)
    for trial in range(30):
        n = 4 + gen.randbelow(3)
        inst = _instance(n, 900 + trial, low, high)
        masks = {gen.randbelow(1 << n) for _ in range(gen.randbelow(3 * n) + 2)}
        f = SetSystem(n, masks | set(prefix_chain(gen.permutation(n))))
        expected = min(
            (tour_value(inst, p), p) for p in permutations(range(1, n + 1)) if supports(f, p)
        )
        sol = restricted_dp(inst, f)
        assert (sol.value, sol.tour) == expected


def test_restricted_on_wide_ground_sets():
    # masks of 40 and 63 cities leave few bits of an int64 key for the first
    # city; the oracle walks every chain of the system by depth-first search
    def supported(f, s=0, perm=()):
        if s == (1 << f.n) - 1:
            yield perm
        for e in range(1, f.n + 1):
            if not s >> (e - 1) & 1 and s | 1 << (e - 1) in f:
                yield from supported(f, s | 1 << (e - 1), perm + (e,))

    for n in (40, 63):
        gen = SplitMix64(n)
        inst = _instance(n, n, 1, 3)
        f = SetSystem(n, {m for _ in range(4) for m in prefix_chain(gen.permutation(n))})
        sol = restricted_dp(inst, f)
        assert (sol.value, sol.tour) == min((tour_value(inst, p), p) for p in supported(f))


def test_restricted_ties_between_cities_past_32():
    # tours run 1..30 and then any order of 31..36, with weights 1 or 2, so
    # the last six steps tie and the stored choices reach columns 30..35:
    # every one must survive in the low bits beside its value
    n, head = 36, 30
    gen = SplitMix64(36)
    inst = TspInstance.from_rows([[1 + gen.randbelow(2) for _ in range(n)] for _ in range(n)])
    chain = [(1 << k) - 1 for k in range(head + 1)]
    f = SetSystem(n, chain + [chain[-1] | t << head for t in range(1 << (n - head))])
    head_tour = tuple(range(1, head + 1))
    expected = min(
        (tour_value(inst, head_tour + p), head_tour + p)
        for p in permutations(range(head + 1, n + 1))
    )
    sol = restricted_dp(inst, f)
    assert (sol.value, sol.tour) == expected
    assert sol.table_entries == sum(range(1, head)) + sum(
        comb(n - head, j) * (head + j) for j in range(n - head + 1)
    )


@pytest.mark.parametrize("low, high", [(-9, -1), (1, 9)])
def test_restricted_drops_sets_with_no_successor(low, high):
    # {1, 2} and {1, 2, 5} lie on no chain to the top, so the rows of first
    # city 2 all die and first city 1 keeps one row a level.  With negative
    # weights a dead row's value, SENTINEL plus weights, falls below
    # SENTINEL, and must still be dropped rather than counted or walked
    n = 5
    inst = _instance(n, 5, low, high)
    live = set(prefix_chain((1, 3, 4, 2, 5)))
    dead = {mask_of({2}), mask_of({1, 2}), mask_of({1, 2, 5})}
    sol = restricted_dp(inst, SetSystem(n, live | dead))
    assert (sol.value, sol.tour) == (tour_value(inst, (1, 3, 4, 2, 5)), (1, 3, 4, 2, 5))
    assert sol.table_entries == 5 + 4 + 3 + 2 + 1
    assert restricted_dp(inst, SetSystem(n, dead | {0, (1 << n) - 1, mask_of({1, 2, 3, 4})})) is None


@pytest.mark.parametrize("signs", ["mixed", "positive"])
@pytest.mark.parametrize("n", range(4, 8))
def test_chain_dp_is_exact_at_the_weight_bound(n, signs):
    # |w| just under WEIGHT_BOUND // n and two values, so tours tie.  Mixed
    # signs cancel, positive ones push packed chain values, shifted left by
    # SHIFT bits, close to 2^62: a sentinel that does not stay above every
    # chain value, or a sum that wraps around int64, changes a value or a
    # witness
    big = WEIGHT_BOUND // n - 1
    weights = (big, -big) if signs == "mixed" else (big, big - 1)
    gen = SplitMix64(70 + n)
    inst = TspInstance.from_rows([[weights[gen.randbelow(2)] for _ in range(n)] for _ in range(n)])
    tours = [(tour_value(inst, p), p) for p in permutations(range(1, n + 1))]
    best = min(tours)
    assert best[1][0] == 1  # every rotation costs the same, so city 1 leads
    for sol in (held_karp(inst), restricted_dp(inst, powerset(n))):
        assert (sol.value, sol.tour) == best
    gen = SplitMix64(n)
    f = SetSystem(n, {gen.randbelow(1 << n) for _ in range(3 * n)} | set(prefix_chain(gen.permutation(n))))
    sol = restricted_dp(inst, f)
    assert (sol.value, sol.tour) == min(t for t in tours if supports(f, t[1]))
    for a, b in ((1, n), (n, 1), (2, 2)):
        paths = [(a, *p, b) for p in permutations(set(range(1, n + 1)) - {a, b})]
        expected = min((sum(inst.dist[x][y] for x, y in zip(t, t[1:])), t[:-1]) for t in paths)
        cities = range(1, n + 1) if a == b else [c for c in range(1, n + 1) if c != b]
        assert _fixed_path(inst.dist, cities, a, b) == expected


# --- gurevich-shelah ---------------------------------------------------------------

def test_gs_two_cities():
    inst = TspInstance.from_rows([[0, 5], [7, 0]])
    assert gurevich_shelah(inst, 3).value == 12


# ids 0..3 are the depth with weights in [1, 99]; narrow ranges tie often, so
# the lexicographically smallest witness decides; at depth 0, n = 9 and 10
# reach the DP leaf
@pytest.mark.parametrize(
    "depth, low, high",
    [pytest.param(depth, 1, 99, id=str(depth)) for depth in range(4)]
    + [pytest.param(depth, low, high, id=f"{depth}-{kind}")
       for kind, low, high in (("ties", 1, 2), ("negative", -1, 1)) for depth in range(4)],
)
def test_gs_matches_brute(depth, low, high):
    for n in (5, 6, 8, 9, 10):
        for seed in (0, 1):
            inst = _instance(n, seed * 7 + n, low, high)
            g, b = gurevich_shelah(inst, depth), brute_force(inst)
            assert g.value == b.value and g.tour == b.tour


@pytest.mark.parametrize("n", range(2, 13))
def test_gs_depth_zero_is_held_karp(n):
    # at depth 0 the tour is one _fixed_path(1..n, 1, 1) leaf, the sweep
    # held_karp runs
    for low, high in ((1, 99), (1, 2), (-50, 50)):
        inst = _instance(n, 60 + n, low, high)
        g, h = gurevich_shelah(inst, 0), held_karp(inst)
        assert (g.value, g.tour) == (h.value, h.tour)


# at depth 1, n = 12 splits into leaves of 6 cities, all brute force; n = 13
# adds leaves of 7 cities, answered one sweep per group over a city set
@pytest.mark.parametrize("n", (12, 13))
@pytest.mark.parametrize("low, high", [(1, 99), (1, 2), (-1, 1)], ids=["99", "ties", "negative"])
def test_gs_batched_leaves_match_held_karp(n, low, high):
    inst = _instance(n, 80 + n, low, high)
    g, h = gurevich_shelah(inst, 1), held_karp(inst)
    assert (g.value, g.tour) == (h.value, h.tour)


@pytest.mark.parametrize("k", (7, 8))
def test_batched_chain_dp_matches_one_fixed_path_per_leaf(k):
    # the two shapes of a leaf group: one first city with many last cities
    # (a path's first half), many first cities with one last city (its rest),
    # swept over the rank lattices of every subset and of the subsets that
    # hold the one first city, and over powerset(k)'s cached-index lattice
    inst = _instance(2 * k, k, 1, 2)
    cities = sorted(SplitMix64(k).sample(2 * k, k))
    outside = [c for c in range(1, 2 * k + 1) if c not in cities]
    shapes = ([(cities[0], b) for b in outside], [(a, outside[0]) for a in cities])
    expected = [[_fixed_path(inst.dist, cities, a, b) for a, b in ends] for ends in shapes]
    every, holding_first = _Lattice.of_cities(cities), _Lattice.of_cities(cities, cities[0])
    indexed = _indexed_lattice(cities)
    assert every.index is None and holding_first.index is None and indexed.index is not None
    for ends, paths in zip(shapes, expected):
        one_first = ends[0][0] == ends[1][0]
        for lat in (every, indexed, holding_first) if one_first else (every, indexed):
            got = list(_chain_dp(inst.dist, lat, [(a, b, None) for a, b in ends]))
            assert [(value, order) for value, order, _ in got] == paths


@pytest.mark.parametrize("n", (13, 14))
def test_held_karp_matches_restricted_dp_over_the_powerset(n):
    # held_karp sweeps the rank lattice of the subsets that hold city 1;
    # restricted_dp sweeps powerset(n)'s cached index from every first city.
    # Weights in {-1, 0, 1} tie on most tours, so the witnesses must agree
    for seed in range(3):
        inst = _instance(n, seed, -1, 1)
        h, r = held_karp(inst), restricted_dp(inst, powerset(n))
        assert (h.value, h.tour) == (r.value, r.tour)


def test_chain_dp_restores_numpy_buffer_size(monkeypatch):
    # a sweep runs under FILL_BUFSIZE and puts the caller's size back, also
    # when it raises (here: a ragged distance matrix)
    from chainfold import solver

    inst = random_instance(6, 0)
    lat = _Lattice.of_cities(list(range(1, 7)))
    expected = held_karp(inst).value
    seen = []
    levels = solver._sweep_levels

    def recording(*args):
        seen.append(np.getbufsize())
        return levels(*args)

    monkeypatch.setattr(solver, "_sweep_levels", recording)
    before = np.getbufsize()
    assert before != solver.FILL_BUFSIZE
    assert list(_chain_dp(inst.dist, lat, [(1, 1, None)]))[0][0] == expected
    assert np.getbufsize() == before
    with pytest.raises(ValueError):
        list(_chain_dp([[0, 1], [1]], lat, [(1, 1, None)]))
    assert np.getbufsize() == before
    assert seen == [solver.FILL_BUFSIZE] * 2


def test_gs_cap():
    with pytest.raises(CapError):
        gurevich_shelah(random_instance(25, 0), 2)


def test_gs_refuses_a_negative_switch_depth():
    for inst in (random_instance(6, 0), random_instance(25, 0)):
        with pytest.raises(ValueError, match="switch depth"):
            gurevich_shelah(inst, -1)


# --- warmup split solver --------------------------------------------------------------

def test_warmup_alpha_zero_single_trial_is_exact():
    inst = random_instance(7, 5)
    sol = random_split_solver(inst, 0.0, trials=1, seed=9)
    assert sol.value == held_karp(inst).value


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_warmup_exhaustive_matches_brute(n):
    inst = random_instance(n, n * 13)
    sol = random_split_solver(inst, 0.445, trials=comb(n, n // 2), seed=0)
    b = brute_force(inst)
    assert sol.value == b.value and sol.tour == b.tour


@pytest.mark.parametrize("n, first", [(12, 6), (13, 2)])
def test_sampled_split_tour_is_rotated_to_city_1(n, first):
    # none of these 70 sampled splits supports the optimal cycle from city 1:
    # unrotated, the best system's tour starts at city `first`; the solver
    # answers with that cycle read from city 1, which is held_karp's witness
    gen = SplitMix64(0)
    drawn = dict.fromkeys(gen.sample(n, n // 2) for _ in range(70))
    inst = random_instance(n, 0)
    systems = (split_prefix_system(n, chosen, 0.445) for chosen in drawn)
    assert _sweeps(inst, systems).tour[0] == first
    sol = random_split_solver(inst, 0.445, 70, 0)
    ref = held_karp(inst)
    assert (sol.value, sol.tour) == (ref.value, ref.tour)


def test_warmup_prescribed_trials_statistical_regression():
    # n = 10, alpha = 0.445: a split works with probability
    # p = C(n - 2 t, n/2 - t) / C(n, n/2) = 2/252; the prescribed budget of
    # ceil(n/p) = 1260 draws recovers the optimum on every recorded seed
    n, alpha = 10, 0.445
    t = int(alpha * n)
    p_num, p_den = comb(n - 2 * t, n // 2 - t), comb(n, n // 2)
    trials = -(-n * p_den // p_num)
    assert trials == 1260
    inst = random_instance(n, 777)
    ref = brute_force(inst).value
    seeds = range(50)
    hits = sum(
        1
        for s in seeds
        if random_split_solver(inst, alpha, trials=trials, seed=s).value == ref
    )
    assert hits == len(seeds)


def _best_of(solutions):
    """The lowest (value, tour) of some restricted_dp answers, with the
    largest table_entries among them."""
    solutions = [sol for sol in solutions if sol is not None]
    value, tour = min((sol.value, sol.tour) for sol in solutions)
    return Solution(value, tour, max(sol.table_entries for sol in solutions))


def _sweeps(inst, systems):
    """The lowest (value, tour) over restricted_dp's answer streams on every
    system, unrotated, with the largest table among them: one _chain_dp
    call per system that holds the empty and the full set."""
    from chainfold import solver

    answers = (solver._orbit_answers(inst, f, [None]) for f in systems)
    return solver._fold(chain.from_iterable(answers))


def _from_city_1(sol):
    at = sol.tour.index(1)
    return Solution(sol.value, sol.tour[at:] + sol.tour[:at], sol.table_entries)


@pytest.mark.parametrize("n", range(6, 10))
def test_batched_solvers_match_one_restricted_dp_per_system(n, monkeypatch):
    # the split and framework solvers sweep many systems at once; each must
    # return the lowest (value, tour) of one restricted_dp per system with
    # the largest table_entries, and so must a mixed stream of systems,
    # whether a sweep holds one first city or many systems
    from functools import reduce
    from itertools import combinations, product

    from chainfold import solver, verify
    from chainfold.systems import union_product

    inst = random_instance(n, 40 + n, max_weight=2)
    half = n // 2
    gen = SplitMix64(3)
    drawn = [gen.sample(n, half) for _ in range(comb(n, half) - 1)]
    assert len(set(drawn)) < len(drawn)  # the sampled run meets repeated draws
    exhaustive = list(combinations(range(1, n + 1), half))
    block_size, families = verify.framework_plan(n)
    tuples = product(*(fam.systems() for fam in families))
    full = (1 << n) - 1
    mixed = [powerset(n), SetSystem(n, [0, full]), single_chain(n), SetSystem(n, [0, 1, 3])]
    mixed += [SetSystem(n, {gen.randbelow(full) for _ in range(4 * n)} | set(prefix_chain(gen.permutation(n))))
              for _ in range(6)]
    expected = {
        "exhaustive": _best_of(_from_city_1(restricted_dp(inst, split_prefix_system(n, c, 0.445)))
                               for c in exhaustive),
        "sampled": _best_of(_from_city_1(restricted_dp(inst, split_prefix_system(n, c, 0.3)))
                            for c in drawn),
        "framework": _best_of(restricted_dp(inst, reduce(union_product, t)) for t in tuples),
        "mixed": _best_of(restricted_dp(inst, f) for f in mixed),
    }
    for batch_rows in (1, 3 << n, BATCH_ROWS):
        monkeypatch.setattr(solver, "BATCH_ROWS", batch_rows)
        got = {
            "exhaustive": random_split_solver(inst, 0.445, comb(n, half), seed=0),
            "sampled": random_split_solver(inst, 0.3, comb(n, half) - 1, seed=3),
            "framework": framework_solver(inst, block_size, families),
            "mixed": _sweeps(inst, mixed),
        }
        assert got == expected


def test_batched_solvers_keep_the_largest_table_beside_the_best_tour():
    # the optimal tour's own prefix chain is a small system that wins; a
    # bigger system that misses every rotation of that tour (it finds
    # another tour of the same value, larger from city 1) fills the largest
    # table, and the answer reports that table, whichever system comes first
    n = 7
    inst = random_instance(n, 5)
    best = held_karp(inst)
    small = SetSystem(n, prefix_chain(best.tour))
    cycle = best.tour + best.tour[:1]
    cut = {mask_of(pair) for pair in zip(cycle, cycle[1:])}
    big = SetSystem(n, set(powerset(n).mask_set()) - cut)
    from_big, from_small = restricted_dp(inst, big), restricted_dp(inst, small)
    assert (from_big.value, from_big.tour) > (best.value, best.tour) == (from_small.value, from_small.tour)
    assert from_small.table_entries < from_big.table_entries
    expected = Solution(100, (1, 5, 6, 4, 3, 2, 7), 252)
    assert Solution(best.value, best.tour, from_big.table_entries) == expected
    for stream in ([small, big], [big, small]):
        assert _sweeps(inst, stream) == expected


def test_chain_dp_cuts_sweeps_by_rows_and_key_room(monkeypatch):
    # one problem per sweep when a single problem fills BATCH_ROWS, all in
    # one sweep when the rows never fill; a generator gives what a list
    # gives.  Rows carry no problem index, so even at n = 63 every first
    # city of a system shares one sweep
    from chainfold import solver

    sizes = []
    sweep = solver._sweep

    def recording(d, lat, problems):
        sizes.append(len(problems))
        return sweep(d, lat, problems)

    inst = random_instance(6, 1)
    lat = _Lattice.of_cities(list(range(1, 7)))  # each problem counts its 64 sets
    problems = [(a, a, None) for a in range(1, 7)]
    expected = list(_chain_dp(inst.dist, lat, problems))
    monkeypatch.setattr(solver, "_sweep", recording)
    for batch_rows, cut in ((1, [1] * 6), (1 << 40, [6]), (2 * 64, [2] * 3)):
        monkeypatch.setattr(solver, "BATCH_ROWS", batch_rows)
        for stream in (problems, (p for p in problems)):
            sizes.clear()
            assert list(_chain_dp(inst.dist, lat, stream)) == expected
            assert sizes == cut
    monkeypatch.setattr(solver, "BATCH_ROWS", 1 << 40)
    gen = SplitMix64(63)
    f = SetSystem(63, {m for _ in range(4) for m in prefix_chain(gen.permutation(63))})
    firsts = sum(1 for c in range(1, 64) if 1 << (c - 1) in f.mask_set())
    sizes.clear()
    assert restricted_dp(_instance(63, 63, 1, 3), f) is not None
    assert sizes == [firsts] and firsts > 1


def _orbit_member(inst, base, perm):
    from chainfold import solver

    return solver._fold(solver._orbit_answers(inst, base, [perm]))


@pytest.mark.parametrize("low, high", [(1, 2), (-1, 1)])
@pytest.mark.parametrize("n", (5, 6, 7, 9))
def test_relabeled_ties_match_one_restricted_dp_per_built_system(n, low, high):
    # tied weights give many optimal tours, so a member that broke a tie in
    # the base's labels instead of its own would return another witness or
    # table size.  Each member of a split or framework orbit, swept over the
    # base, must give what restricted_dp gives on its explicitly built
    # system.  Each solver must give the best of its members, with the
    # largest table.  A unique family's members lose their removed sets, so
    # only its solver's answer is checked, against the built members
    from functools import reduce
    from itertools import combinations, product

    from chainfold import verify
    from chainfold.cover import make_unique
    from chainfold.systems import union_product

    inst = _instance(n, 60 + n, low, high)
    half = n // 2
    base = split_prefix_system(n, range(1, half + 1), 0.445)
    everyone = set(range(1, n + 1))
    splits = list(combinations(range(1, n + 1), half))
    members = []
    for chosen in splits:
        perm = np.array([*chosen, *sorted(everyone - set(chosen))]) - 1
        members.append(restricted_dp(inst, split_prefix_system(n, chosen, 0.445)))
        assert _orbit_member(inst, base, perm) == members[-1]
    assert random_split_solver(inst, 0.445, len(splits), 0) == _best_of(map(_from_city_1, members))
    gen = SplitMix64(n)
    drawn = [gen.sample(n, half) for _ in range(len(splits) // 2)]
    sampled = (restricted_dp(inst, split_prefix_system(n, c, 0.3)) for c in drawn)
    expected = _best_of(map(_from_city_1, sampled))
    assert random_split_solver(inst, 0.3, len(drawn), n) == expected

    block_size, plain = verify.framework_plan(n)
    for families in (plain, [make_unique(fam) for fam in plain]):
        product_base = reduce(union_product, [fam.base for fam in families])
        members = []
        for parts in product(*(zip(fam.relabelings, fam.systems()) for fam in families)):
            built = reduce(union_product, [g for _, g in parts])
            members.append(restricted_dp(inst, built))
            sigma, off = [], 0
            for relabeling, g in parts:
                sigma += [off + v for v in relabeling]
                off += g.n
            if families is plain:
                assert _orbit_member(inst, product_base, np.array(sigma) - 1) == members[-1]
        assert framework_solver(inst, block_size, families) == _best_of(members)


def test_unique_framework_reports_its_largest_table():
    # unique-mode members are relabelings minus removed sets, so the tables
    # of their built products differ.  The solver sweeps the plain
    # relabelings instead, and reports the largest table (2307), that of
    # the product of the first members, which drop nothing
    from functools import reduce
    from itertools import product

    from chainfold.cover import make_unique
    from chainfold.systems import union_product

    base = core_prefix_system(5, 0.8, 0.4)
    fam = make_unique(greedy_prune(random_cover(base, seed=4, max_tries=500)))
    assert any(fam.removed)
    inst = random_instance(10, 1)
    sol = framework_solver(inst, 5, [fam, fam])
    assert (sol.value, sol.table_entries) == (110, 2307)
    tuples = product(fam.systems(), repeat=2)
    assert sol == _best_of(restricted_dp(inst, reduce(union_product, t)) for t in tuples)


@pytest.mark.parametrize("low, high", [(1, 2), (-1, 1)])
@pytest.mark.parametrize("n", (8, 9, 10))
def test_unique_framework_answers_as_its_plain_family(n, low, high):
    # a unique family is solved over its plain relabelings, supersets of its
    # members that cover every permutation too.  Tied weights give many
    # optimal tours, so a solver that read another cover's witness would
    # show here: value and tour must equal the plain family's, held_karp's
    # and the best restricted_dp over the built unique products.  Blocks of
    # 4 and 5 take families whose unique members all but the first drop sets
    from functools import reduce
    from itertools import product

    from chainfold import verify
    from chainfold.cover import make_unique
    from chainfold.systems import union_product

    fam4 = greedy_prune(random_cover(core_prefix_system(4, 0.75, 0.5), seed=1, max_tries=500))
    block_size, plain = verify.framework_plan(n, {4: fam4, 5: verify.block_families()[5]})
    unique = [make_unique(fam) for fam in plain]
    assert all(all(fam.removed[1:]) for fam in unique)
    for seed in range(4):
        inst = _instance(n, 80 + seed, low, high)
        got = framework_solver(inst, block_size, unique)
        over_plain, exact = framework_solver(inst, block_size, plain), held_karp(inst)
        tuples = product(*(fam.systems() for fam in unique))
        built = _best_of(restricted_dp(inst, reduce(union_product, t)) for t in tuples)
        for other in (over_plain, exact, built):
            assert (got.value, got.tour) == (other.value, other.tour)
        assert got.table_entries == over_plain.table_entries >= built.table_entries


def _index_searches(monkeypatch):
    """The len(lower) of every systems.successor_index call from now on, on
    either path: searched, or read from a rank table."""
    from chainfold import systems

    calls = []
    build = systems.successor_index

    def counting(lower, *args):
        calls.append(len(lower))
        return build(lower, *args)

    monkeypatch.setattr(systems, "successor_index", counting)
    return calls


def test_restricted_dp_builds_each_systems_index_once(monkeypatch):
    # the successor index is built on a system's first restricted_dp, one
    # search per level below the top, and read by every later call; it and
    # the level arrays are read-only, and a fresh, equal system answers alike
    calls = _index_searches(monkeypatch)
    f = core_prefix_system(9, 0.78, 0.45)
    first = [restricted_dp(random_instance(9, seed), f) for seed in range(4)]
    assert calls == [len(level) for level in f.levels[:-1]]
    more = [restricted_dp(random_instance(9, seed), f) for seed in range(4)]
    assert more == first and len(calls) == f.n
    for array in f.successor_index() + f.level_arrays():
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0
    fresh = SetSystem(f.n, f.masks)
    assert [restricted_dp(random_instance(9, seed), fresh) for seed in range(4)] == first
    assert len(calls) == 2 * f.n


def test_successors_and_restricted_dp_share_one_index(monkeypatch):
    # successors() reads the successor index that restricted_dp sweeps: on a
    # fresh system, the two together search each level below the top once
    calls = _index_searches(monkeypatch)
    f = core_prefix_system(9, 0.78, 0.45)
    succ = f.successors()
    assert calls == [len(level) for level in f.levels[:-1]]
    restricted_dp(random_instance(9, 0), f)
    assert len(calls) == f.n and f.successors() is succ


def test_restricted_dp_refuses_a_system_over_another_ground_set():
    inst = random_instance(7, 0)
    for n in (6, 8):
        with pytest.raises(ValueError, match=rf"^system over \[{n}\] vs instance with 7 cities$"):
            restricted_dp(inst, powerset(n))


def test_warmup_validation():
    inst = random_instance(5, 0)
    with pytest.raises(ValueError):
        random_split_solver(inst, 0.7, trials=1, seed=0)
    with pytest.raises(ValueError):
        random_split_solver(inst, 0.4, trials=0, seed=0)


# --- framework solver -------------------------------------------------------------------

def test_partition_blocks():
    assert partition_blocks(8, 4) == (4, 4)
    assert partition_blocks(9, 4) == (4, 5)
    assert partition_blocks(10, 5) == (5, 5)
    assert partition_blocks(7, 3) == (3, 4)
    with pytest.raises(ValueError):
        partition_blocks(4, 9)


def test_framework_single_powerset_block_is_held_karp():
    inst = random_instance(6, 3)
    fam = random_cover(powerset(6), seed=0, max_tries=5)
    sol = framework_solver(inst, 6, [fam])
    assert sol.value == held_karp(inst).value


def test_framework_two_blocks_of_four():
    fam4 = exact_min_cover(tower_of_cubes(2, 2))
    for seed in (1, 2, 3):
        inst = random_instance(8, seed)
        sol = framework_solver(inst, 4, [fam4, fam4])
        b = brute_force(inst)
        assert sol.value == b.value and sol.tour == b.tour


def test_framework_mixed_blocks_four_five():
    fam4 = exact_min_cover(tower_of_cubes(2, 2))
    fam5 = greedy_prune(random_cover(core_prefix_system(5, 0.8, 0.4), seed=4, max_tries=500))
    for seed in (4, 5):
        inst = random_instance(9, seed)
        sol = framework_solver(inst, 4, [fam4, fam5])
        assert sol.value == brute_force(inst).value


def test_framework_rejects_noncovering_family():
    from chainfold.cover import CoverFamily

    half = CoverFamily(single_chain(4), ((1, 2, 3, 4),))
    inst = random_instance(4, 2)
    with pytest.raises(ValueError):
        framework_solver(inst, 4, [half])


# --- instance validation and file format ----------------------------------------------------

def test_instance_rejects_overflow_weights():
    with pytest.raises(ValueError):
        TspInstance.from_rows([[0, 2**62], [2**62, 0]])


def test_instance_roundtrip(tmp_path):
    inst = random_instance(5, 123)
    path = tmp_path / "inst.tsp"
    rows = (" ".join(map(str, row[1:])) for row in inst.dist[1:])
    path.write_text(f"n {inst.n}\n" + "".join(row + "\n" for row in rows))
    assert load_instance(path) == inst


@pytest.mark.parametrize(
    "text",
    ["5 rows missing\n", "n 3\n0 1 2\n1 0 2\n", "n 2\n0 x\n1 0\n", "n 2\n0 1 2\n1 0 2\n"],
)
def test_instance_rejects(tmp_path, text):
    path = tmp_path / "bad.tsp"
    path.write_text(text)
    with pytest.raises(FormatError):
        load_instance(path)
