"""Core set-system operations against enumeration oracles."""

import math
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold import systems
from chainfold.constructions import (
    from_spec,
    koivisto_parviainen,
    powerset,
    single_chain,
    split_band_system,
    tower_of_cubes,
)
from chainfold.cover import load_family
from chainfold.semiring import load_poset
from chainfold.solver import load_instance
from chainfold.systems import (
    CapError,
    EmptyGroundSetError,
    FormatError,
    SetSystem,
    chain_counts,
    count_chains,
    dump_system,
    elems_of,
    induced_split,
    load_system,
    mask_of,
    metrics,
    prefix_chain,
    relabel,
    relabeling_orbit,
    submasks,
    supported_permutation_count,
    supports,
    union_product,
)

from permutation_oracles import closure_from_permutations


@st.composite
def set_systems(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=min(48, 1 << n)))
    return SetSystem(n, masks)


@st.composite
def small_permutations(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


# --- constructor -------------------------------------------------------------

def setsystem_reference(n, masks):
    """The levels the per-mask constructor loop builds: each mask checked,
    deduplicated through a set and filed under its popcount."""
    if n < 0:
        raise ValueError("ground-set size must be nonnegative")
    if n > systems.GROUND_CAP:
        raise CapError(f"ground set {n} exceeds cap {systems.GROUND_CAP}")
    top = 1 << n
    levels = [[] for _ in range(n + 1)]
    seen = set()
    for m in masks:
        if not 0 <= m < top:
            raise ValueError(f"mask {m:#x} outside ground set [{n}]")
        if m not in seen:
            seen.add(m)
            levels[m.bit_count()].append(m)
    return tuple(tuple(sorted(lv)) for lv in levels)


def assert_constructor_matches_reference(n, masks):
    """SetSystem(n, ...) against the reference over the masks as a list, a
    generator, a frozenset and (where they fit) an int64 array: equal
    levels, or the same error type and message."""
    masks = list(masks)
    shapes = [list, lambda ms: (m for m in ms), frozenset]
    if all(-(1 << 63) <= m < 1 << 63 for m in masks):
        shapes.append(lambda ms: np.array(ms, dtype=np.int64))
    for shape in shapes:
        try:
            want = setsystem_reference(n, shape(masks))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                SetSystem(n, shape(masks))
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            continue
        f = SetSystem(n, shape(masks))
        flat = tuple(m for lv in want for m in lv)
        assert f.n == n and f.levels == want and f.masks == flat
        assert [a.tolist() for a in f.level_arrays()] == [list(lv) for lv in want]
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in f.level_arrays())
        assert f.mask_set() == frozenset(flat) and len(f) == len(flat)
        assert f.mask_set() is f.mask_set()  # built once, then cached


def test_views_share_the_successor_maps_ints():
    # built after successors(), mask_set() and elements() hold the map's key
    # objects rather than a fresh int per set; built first, they hold their own
    f = powerset(10)
    keys = {id(m) for m in f.successors()}
    assert f.mask_set() == frozenset(range(1 << 10))
    assert f.elements() == {m: elems_of(m) for m in range(1 << 10)}
    assert all(id(m) in keys for m in f.mask_set())
    assert all(id(m) in keys for m in f.elements())
    g = powerset(10)
    assert g.mask_set() == f.mask_set() and g.elements() == f.elements()
    keys = {id(m) for m in g.successors()}
    assert not any(id(m) in keys for m in g.mask_set() if m > 256)  # small ints are shared anyway


def test_constructor_leaves_its_input_array_alone():
    for masks in ([0, 1, 3, 7], [7, 3, 3, 0]):
        arr = np.array(masks, dtype=np.int64)
        f = SetSystem(3, arr)
        assert arr.tolist() == masks and arr.flags.writeable
        assert not any(np.shares_memory(arr, a) for a in f.level_arrays())


CONSTRUCTOR_CASES = [
    (0, []),
    (0, [0]),
    (0, [0, 0, 0]),
    (0, [1]),
    (3, []),
    (3, range(8)),
    (3, [7, 0, 5, 5, 2, 7, 0, 1]),
    (4, [0b1010, 0, 0b1111, 0b1, 0b1010]),
    (10, [(m * 389) % 1024 for m in range(3000)]),
    (63, [0, (1 << 63) - 1, 1 << 62, 5, (1 << 63) - 1]),
    (5, [3, -1, 4]),
    (5, [3, 1 << 5, 4]),
    (5, [3, 1 << 63, 4]),
    (5, [3, 1 << 70, 4]),
    (5, [3, -(1 << 70), 4]),
    (63, [1, 1 << 63]),
    (63, [1 << 70, -1]),
    (4, [1, 2, 3, 1 << 70, 99, -1]),  # the first bad mask, in input order
    (4, [1, -1, 1 << 70]),
    (-1, []),
    (-1, [1 << 70]),
    (64, [0]),
    (70, [1 << 70]),
]


@pytest.mark.parametrize("n,masks", CONSTRUCTOR_CASES)
def test_constructor_matches_reference(n, masks):
    assert_constructor_matches_reference(n, masks)


@settings(max_examples=100)
@given(st.integers(0, 12), st.data())
def test_constructor_matches_reference_on_random_masks(n, data):
    masks = data.draw(st.lists(st.integers(-2, (1 << n) + 1), max_size=80))
    ok = [m for m in masks if 0 <= m < 1 << n]
    assert_constructor_matches_reference(n, data.draw(st.permutations(ok + ok[:10])))
    assert_constructor_matches_reference(n, masks)


def test_equal_masks_build_equal_systems_with_equal_hashes():
    masks = [(m * 389) % 1024 for m in range(300)]
    shuffled = np.array(masks, dtype=np.int64)
    np.random.default_rng(4).shuffle(shuffled)
    same = [SetSystem(10, masks), SetSystem(10, shuffled), SetSystem(10, frozenset(masks))]
    assert all(f == same[0] and hash(f) == hash(same[0]) for f in same)
    assert len({*same}) == 1
    different = [SetSystem(11, masks), SetSystem(10, masks[1:]), SetSystem(10, masks[:-1])]
    assert all(f != same[0] for f in different)
    assert SetSystem(3, []) != SetSystem(4, []) and SetSystem(3, []) == SetSystem(3, ())
    assert SetSystem(3, [0]) != frozenset([0])


def test_system_holds_its_masks_once():
    # the int64 level arrays are the only masks a system keeps: 8 B a set,
    # plus a small constant, after building and counting its chains
    from chainfold.constructions import from_spec

    from_spec("thm45:18,0.5,0.28")  # warm lazy imports and caches
    tracemalloc.start()
    try:
        f = from_spec("thm45:18,0.5,0.28")
        metrics(f)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(f) == 131328
    assert held <= 9 * len(f) + (1 << 16)


# --- prefix_chain ----------------------------------------------------------

def test_prefix_chain_two_elements():
    assert prefix_chain((1, 2)) == (0, 0b01, 0b11)
    assert prefix_chain((2, 1)) == (0, 0b10, 0b11)


def test_prefix_chain_longer():
    chain = prefix_chain((1, 4, 3, 6, 2, 5, 7))
    assert chain[2] == mask_of([1, 4])
    assert chain[3] == mask_of([1, 3, 4])
    assert chain[0] == 0 and chain[-1] == (1 << 7) - 1


def test_prefix_chain_rejects_non_permutation():
    with pytest.raises(ValueError):
        prefix_chain((1, 1, 3))


# --- supports --------------------------------------------------------------

def test_powerset_supports_everything():
    f = powerset(3)
    assert all(supports(f, p) for p in permutations(range(1, 4)))


def test_chain_supports_only_identity():
    f = single_chain(3)
    assert supports(f, (1, 2, 3))
    assert not supports(f, (2, 1, 3))


def test_tower_support_cases():
    f = tower_of_cubes(2, 2)
    assert len(f) == 7
    assert supports(f, (1, 2, 3, 4))
    assert not supports(f, (3, 1, 2, 4))


def test_supports_ground_set_mismatch():
    with pytest.raises(ValueError):
        supports(powerset(3), (1, 2, 3, 4))


# --- count_chains ----------------------------------------------------------

def test_chain_counts_basics():
    assert count_chains(powerset(3)) == 6
    assert count_chains(single_chain(4)) == 1


def test_tower_chain_count_matches_enumeration():
    f = tower_of_cubes(2, 2)
    brute = sum(1 for p in permutations(range(1, 5)) if supports(f, p))
    assert brute == 4
    assert count_chains(f) == brute == factorial(2) ** 2


def test_missing_endpoints_kill_chains():
    f = SetSystem(3, [0b001, 0b011, 0b111])  # no empty set
    assert count_chains(f) == 0
    g = SetSystem(3, [0, 0b001, 0b011])  # no full set
    assert count_chains(g) == 0


def _reference_chain_levels(f):
    """The path-count DP as a dict loop, the oracle for the numpy sweep:
    yields {set: chains from ∅ to it} per level that some chain reaches."""
    paths = {0: 1} if f.levels[0] else {}
    for lv in f.levels[1:]:
        if not paths:
            return
        yield paths
        nxt = {}
        for m in lv:
            total = 0
            rest = m
            while rest:
                b = rest & -rest
                p = paths.get(m ^ b)
                if p:
                    total += p
                rest ^= b
            if total:
                nxt[m] = total
        paths = nxt
    yield paths


def _assert_matches_reference(f):
    ref = {m: c for paths in _reference_chain_levels(f) for m, c in paths.items()}
    got = chain_counts(f)
    assert got == ref
    assert list(got) == list(ref)  # level by level, ascending within a level
    assert all(type(c) is int for c in got.values())
    total = count_chains(f)
    assert total == ref.get((1 << f.n) - 1, 0)
    assert type(total) is int


@st.composite
def chained_systems(draw, max_n=26):
    """Closures of random permutations at n up to max_n, with a few of their
    sets dropped and random extra masks added."""
    n = draw(st.integers(0, max_n))
    perms = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=8))
    masks = set(closure_from_permutations(n, perms).mask_set())
    masks -= draw(st.sets(st.sampled_from(sorted(masks)), max_size=3))
    masks |= draw(st.sets(st.integers(0, (1 << n) - 1), max_size=40))
    return SetSystem(n, masks)


@st.composite
def dense_systems(draw, max_n=12):
    """Random subsets of powerset(n), n <= max_n, with at least 2^n/n sets,
    so the rank-table side of the density rule: the prefix sets of a few
    random permutations, with random masks added."""
    n = draw(st.integers(1, max_n))
    perms = draw(st.lists(st.permutations(range(1, n + 1)), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(-(-(1 << n) // n), 1 << n))
    masks = rng.choice(1 << n, size=size, replace=False)
    f = SetSystem(n, np.concatenate((masks, *closure_from_permutations(n, perms).level_arrays())))
    assert systems._rank_table(f.n, len(f)) is not None
    return f


@settings(max_examples=150, deadline=None)
@given(st.one_of(chained_systems(), dense_systems()))
def test_chain_sweep_matches_dict_reference(f):
    _assert_matches_reference(f)


def test_density_rule_picks_the_path():
    # a 2^n int32 rank table when it holds no more cells than |F|*n
    rule = [(spec, systems._rank_table(f.n, len(f)) is not None)
            for spec in ("thm45:18,0.5,0.28", "powerset:16", "kp", "thm41:24,0.5,0.4112,auto",
                         "tower:12,2")
            for f in [from_spec(spec)]]
    assert rule == [("thm45:18,0.5,0.28", True), ("powerset:16", True), ("kp", False),
                    ("thm41:24,0.5,0.4112,auto", False), ("tower:12,2", False)]
    table = systems._rank_table(18, 131328)
    assert table.dtype == np.int32 and table.nbytes == 1 << 20 and (table == -1).all()
    assert systems._rank_table(4, 4) is not None and systems._rank_table(4, 3) is None


@pytest.mark.parametrize("spec", ["thm45:14,0.8412,0.6309", "powerset:10", "kp", "tower:7,3",
                                  "thm41:12,0.5,0.375,0.5"])
def test_rank_and_searched_paths_agree(monkeypatch, spec):
    # the same counts, index and successor map whichever path the rule picks
    def answers(f):
        index = f.successor_index()
        return chain_counts(f), count_chains(f), index, f.successors()

    rank, searched = from_spec(spec), from_spec(spec)
    default = answers(rank)
    monkeypatch.setattr(systems, "_rank_table", lambda n, size: None)
    other = answers(searched)
    assert default[:2] == other[:2] and default[3] == other[3]
    assert all(map(np.array_equal, default[2], other[2]))


@pytest.mark.parametrize("levels", [0, 3, 8])
def test_object_counts_on_both_paths(monkeypatch, levels):
    # counts above INT64_LEVELS are Python ints, on the rank path (powerset,
    # the dense systems) as on the searched one (the towers)
    monkeypatch.setattr(systems, "INT64_LEVELS", levels)
    for f in (powerset(9), from_spec("thm45:10,0.6,0.3"), tower_of_cubes(3, 3), single_chain(12)):
        _assert_matches_reference(f)
    assert count_chains(powerset(9)) == factorial(9)


@pytest.mark.parametrize("cells", [1, 7, 100])
def test_chain_sweep_is_the_same_in_any_chunking(monkeypatch, cells):
    monkeypatch.setattr(systems, "CHAIN_CELLS", cells)
    for f in (tower_of_cubes(7, 3), split_band_system(6, 0.5), powerset(9), single_chain(30)):
        _assert_matches_reference(f)


def test_chain_sweep_boundaries():
    # 13!^2 > 2^63: levels above 20 hold Python ints
    assert factorial(13) ** 2 > 1 << 63
    assert count_chains(koivisto_parviainen()) == factorial(13) ** 2
    assert count_chains(single_chain(63)) == 1  # top mask 2^63 - 1
    assert count_chains(tower_of_cubes(7, 3)) == factorial(7) ** 3  # n = 21
    assert count_chains(SetSystem(0, [0])) == 1
    for f in (koivisto_parviainen(), single_chain(63), SetSystem(0, [0])):
        _assert_matches_reference(f)


def test_unreachable_middle_level_has_no_chains():
    # {3} is reached, but {1, 2} has no predecessor in f, so neither it nor
    # the full set is reached
    f = SetSystem(3, [0, 0b100, 0b011, 0b111])
    assert count_chains(f) == 0
    assert chain_counts(f) == {0: 1, 0b100: 1}
    _assert_matches_reference(f)


# --- submasks --------------------------------------------------------------

def test_submasks_ascend_over_every_subset():
    assert submasks(0).tolist() == [0]
    assert submasks(0b1011).tolist() == [0, 1, 2, 3, 8, 9, 10, 11]
    mask = 0b1101_0110
    assert submasks(mask).tolist() == [s for s in range(mask + 1) if s & ~mask == 0]
    top = submasks(1 << 62 | 1)
    assert top.dtype == "int64" and top.tolist() == [0, 1, 1 << 62, 1 << 62 | 1]


# --- metrics ---------------------------------------------------------------

def test_metrics_powerset():
    m = metrics(powerset(3))
    assert m.size_s == 2.0
    assert m.density_p == 1.0
    assert m.product_st == 4.0


def test_metrics_koivisto_parviainen():
    m = metrics(koivisto_parviainen())
    assert m.sets == 2**13 + 2**13 - 1
    assert abs(m.size_s - 1.4524) < 1e-4
    assert abs(m.density_p - 1.8616) < 1e-4


def test_metrics_single_chain_eight():
    m = metrics(single_chain(8))
    assert abs(m.size_s - 9 ** (1 / 8)) < 1e-12
    assert abs(m.size_s - 1.3161) < 1e-4
    assert abs(m.density_p - factorial(8) ** (1 / 8)) < 1e-9
    assert abs(m.density_p - 3.7644) < 1e-4
    assert m.size_s * m.density_p <= 4.9552


def test_metrics_empty_ground_set():
    with pytest.raises(EmptyGroundSetError):
        metrics(SetSystem(0, [0]))


def test_metrics_infinite_density_iff_no_chains():
    f = SetSystem(2, [0b01])
    m = metrics(f)
    assert m.chains == 0 and m.density_p == math.inf


# --- supported_permutation_count (oracle) ----------------------------------

def test_oracle_powerset():
    assert supported_permutation_count(powerset(3)) == 6


def test_oracle_matches_chain_count_on_band_system():
    f = split_band_system(3, 1.0)
    assert supported_permutation_count(f) == count_chains(f)


def test_oracle_no_empty_set():
    f = SetSystem(3, [0b001, 0b011, 0b111])
    assert supported_permutation_count(f) == 0


def test_oracle_cap():
    with pytest.raises(CapError):
        supported_permutation_count(SetSystem(11, [0]))


@settings(max_examples=60)
@given(set_systems(max_n=5))
def test_oracle_equivalence(f):
    assert supported_permutation_count(f) == count_chains(f)


# --- invariants ------------------------------------------------------------

@settings(max_examples=60)
@given(set_systems())
def test_normalized_bounds(f):
    if len(f) == 0:
        return
    m = metrics(f)
    assert count_chains(f) <= factorial(f.n)
    assert m.size_s <= 2 + 1e-12
    assert m.density_p >= 1 - 1e-12
    assert (m.density_p == math.inf) == (m.chains == 0)


# --- union_product ---------------------------------------------------------

def test_union_product_tiny():
    f = SetSystem(1, [0, 1])
    prod = union_product(f, f)
    assert prod.n == 2
    assert prod.mask_set() == {0b00, 0b01, 0b10, 0b11}


def test_union_product_identity_element():
    f = tower_of_cubes(2, 2)
    unit = SetSystem(0, [0])
    assert union_product(f, unit) == f
    left = union_product(unit, f)
    assert left == f


def test_union_product_cap():
    with pytest.raises(CapError):
        union_product(SetSystem(32, [0]), SetSystem(32, [0]))


@settings(max_examples=40)
@given(set_systems(max_n=5), set_systems(max_n=3))
def test_union_product_identities(f1, f2):
    prod = union_product(f1, f2)
    assert prod.n == f1.n + f2.n
    assert len(prod) == len(f1) * len(f2)
    expected = comb(f1.n + f2.n, f1.n) * count_chains(f1) * count_chains(f2)
    assert count_chains(prod) == expected


@settings(max_examples=25)
@given(set_systems(max_n=4), set_systems(max_n=3), st.data())
def test_split_support_equivalence(f1, f2, data):
    prod = union_product(f1, f2)
    p = tuple(data.draw(st.permutations(range(1, prod.n + 1))))
    if prod.n == 0:
        return
    sizes = (f1.n, f2.n) if f1.n and f2.n else (prod.n,)
    parts = induced_split(p, sizes)
    if len(sizes) == 2:
        rhs = supports(f1, parts[0]) and supports(f2, parts[1])
    else:
        inner = f1 if f1.n else f2
        rhs = supports(inner, parts[0])
    assert supports(prod, p) == rhs


# --- induced_split ---------------------------------------------------------

def test_induced_split_worked_example():
    assert induced_split((1, 4, 3, 6, 2, 5, 7), (2, 2, 3)) == (
        (1, 2),
        (2, 1),
        (2, 1, 3),
    )


def test_induced_split_identity_blocks():
    ident = tuple(range(1, 7))
    assert induced_split(ident, (3, 3)) == ((1, 2, 3), (1, 2, 3))


def test_induced_split_single_block():
    p = (3, 1, 2)
    assert induced_split(p, (3,)) == (p,)


def test_induced_split_bad_sizes():
    with pytest.raises(ValueError):
        induced_split((1, 2, 3), (2, 2))


# --- relabel ---------------------------------------------------------------

def test_relabel_identity():
    f = tower_of_cubes(2, 2)
    assert relabel(f, (1, 2, 3, 4)) == f


@settings(max_examples=40)
@given(set_systems(), st.data())
def test_relabel_inverse_roundtrip(f, data):
    sigma = tuple(data.draw(st.permutations(range(1, f.n + 1))))
    inverse = tuple(sorted(range(1, f.n + 1), key=lambda v: sigma[v - 1]))
    assert relabel(relabel(f, sigma), inverse) == f


@settings(max_examples=40)
@given(set_systems(), st.data())
def test_relabel_preserves_metrics(f, data):
    if len(f) == 0:
        return
    sigma = tuple(data.draw(st.permutations(range(1, f.n + 1))))
    g = relabel(f, sigma)
    assert len(g) == len(f)
    assert count_chains(g) == count_chains(f)
    assert metrics(g) == metrics(f)


def _reference_successors(f):
    """The successor map as a bit loop over each set's elements with one
    membership probe per element, the oracle for successors(): mask ->
    tuple of (added element, next mask), ascending by added element."""
    ms = f.mask_set()
    succ = {m: [] for m in ms}
    for lv in f.levels[1:]:
        for m in lv:
            rest = m
            while rest:
                b = rest & -rest
                if m ^ b in ms:
                    succ[m ^ b].append((b.bit_length(), m))
                rest ^= b
    return {m: tuple(v) for m, v in succ.items()}


def _assert_successors_match_reference(f):
    got = f.successors()
    assert got == _reference_successors(f)
    assert got.keys() == f.mask_set()  # every mask is a key, top and sinks too
    for m, steps in got.items():
        elements = [v for v, _ in steps]
        assert elements == sorted(set(elements))


@settings(max_examples=60, deadline=None)
@given(st.one_of(set_systems(), chained_systems(), dense_systems()))
def test_successor_map_matches_bit_loop_reference(f):
    _assert_successors_match_reference(f)


@pytest.mark.parametrize("f", [
    SetSystem(4, []),  # empty
    SetSystem(4, [0]),  # {∅} alone
    SetSystem(0, []),
    SetSystem(0, [0]),
    SetSystem(3, [0b001, 0b011, 0b111, 0b101]),  # no ∅
    closure_from_permutations(63, [range(1, 64), range(63, 0, -1), [*range(2, 64, 2), *range(1, 64, 2)]]),
], ids=["empty", "empty-set-only", "n0-empty", "n0", "no-empty-set", "chains-63"])
def test_successor_map_edge_cases(f):
    _assert_successors_match_reference(f)


@settings(max_examples=40, deadline=None)
@given(st.one_of(set_systems(), dense_systems(max_n=9)))
def test_successor_index_matches_successor_map(f):
    # entry [i, j] of level k is where set i plus element j + 1 lies in
    # level k + 1, -1 where F lacks it, as the bit-loop reference says; the
    # reference lists each set's successors by ascending added element
    arrays, index = f.level_arrays(), f.successor_index()
    reference = _reference_successors(f)
    assert len(index) == f.n
    for k, (level, idx) in enumerate(zip(arrays, index)):
        assert idx.shape == (len(level), f.n) and idx.dtype == np.int32
        for i, s in enumerate(level.tolist()):
            got = {j + 1: int(arrays[k + 1][idx[i, j]]) for j in range(f.n) if idx[i, j] >= 0}
            assert reference[s] == tuple(got.items())


@pytest.mark.parametrize("n", (1, 8, 9, 16, 63))
def test_relabel_matches_bitwise_reference(n):
    # the per-byte image tables against mapping each mask bit by bit
    import random

    rng = random.Random(n)
    f = SetSystem(n, {rng.getrandbits(n) for _ in range(300)} | {0, (1 << n) - 1})
    for _ in range(5):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        images = [mask_of(sigma[e - 1] for e in elems_of(m)) for m in f.masks]
        assert systems.image_masks(list(f.masks), sigma).tolist() == images
        g = relabel(f, sigma)
        assert g.levels == SetSystem(n, images).levels
        assert g.mask_set() == frozenset(images)
        assert [a.tolist() for a in g.level_arrays()] == [list(lv) for lv in g.levels]


# --- closure_from_permutations ---------------------------------------------

def test_closure_single_permutation():
    assert closure_from_permutations(3, [(1, 2, 3)]) == single_chain(3)


def test_closure_all_permutations():
    assert closure_from_permutations(3, permutations(range(1, 4))) == powerset(3)


def test_closure_two_chains():
    f = closure_from_permutations(3, [(1, 2, 3), (2, 1, 3)])
    assert f.mask_set() == {0, 0b001, 0b010, 0b011, 0b111}


# --- supported-fraction identity -------------------------------------------

@settings(max_examples=20, deadline=None)
@given(set_systems(max_n=4))
def test_supported_fraction_identity(f):
    images = relabeling_orbit(f)
    identity_chain = prefix_chain(tuple(range(1, f.n + 1)))
    n_distinct = len(images)
    m_distinct = sum(1 for key in images if all(m in key for m in identity_chain))
    assert Fraction(count_chains(f)) == Fraction(m_distinct, n_distinct) * factorial(f.n)


# --- file format ------------------------------------------------------------

def test_system_file_roundtrip(tmp_path):
    f = split_band_system(3, 0.7)
    path = tmp_path / "sys.ss"
    dump_system(f, path)
    assert load_system(path) == f


def test_system_file_layout(tmp_path):
    f = SetSystem(4, [0, 0b1010, 0b1, 0b1111])
    path = tmp_path / "sys.ss"
    dump_system(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n 4"
    assert lines[1] == "count 4"
    assert lines[2:] == ["0", "1", "a", "f"]


@pytest.mark.parametrize(
    "text",
    [
        "count 2\n0\n1\n",  # missing n header
        "n 2\ncount 3\n0\n1\n",  # count mismatch
        "n 2\ncount 2\n1\n1\n",  # duplicate / not ascending
        "n 2\ncount 2\n3\n1\n",  # popcount order violated
        "n 2\ncount 1\n7\n",  # mask outside ground set
        "n 2\ncount 1\nzz\n",  # bad hex
    ],
)
def test_system_file_rejects(tmp_path, text):
    path = tmp_path / "bad.ss"
    path.write_text(text)
    with pytest.raises(FormatError):
        load_system(path)


def _reference_load(path):
    """load_system as a per-line loop, the oracle for its bulk checks."""
    (n, count), body = systems.read_int_headers(path, "n", "count")
    if len(body) != count:
        raise FormatError(f"{path}: count says {count}, found {len(body)} masks")
    masks, prev_key = [], None
    for ln in body:
        try:
            m = int(ln, 16)
        except ValueError:
            raise FormatError(f"{path}: bad hex mask {ln!r}") from None
        if m < 0 or m >= 1 << n:
            raise FormatError(f"{path}: mask {ln} outside ground set [{n}]")
        key = (m.bit_count(), m)
        if prev_key is not None and key <= prev_key:
            raise FormatError(f"{path}: masks not ascending by (popcount, value)")
        prev_key = key
        masks.append(m)
    return SetSystem(n, masks)


FAULTY_LINES = ["zz", "0x1g", "-1", "-8000000000000000", "8000000000000000",
                "7fffffffffffffff", "10000000000000000", "1" + "0" * 20]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 63), st.data())
def test_load_system_reports_the_first_fault_as_the_line_loop(tmp_path_factory, n, data):
    # the bulk checks raise what the per-line loop raises: the first faulty
    # line in file order, its hex, range and order faults in that order
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    lines = ["%x" % m for m in sorted(set(masks), key=lambda m: (m.bit_count(), m))]
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(FAULTY_LINES + (lines or ["0"]))))
    path = tmp_path_factory.mktemp("load") / "f.ss"
    path.write_text(f"n {n}\ncount {len(lines)}\n" + "".join(ln + "\n" for ln in lines))
    try:
        want = _reference_load(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            load_system(path)
        assert str(got.value) == str(exc)
    else:
        assert load_system(path) == want


def test_system_file_cap(tmp_path):
    path = tmp_path / "big.ss"
    path.write_text("n 70\ncount 0\n")
    with pytest.raises(CapError):
        load_system(path)


BAD_INT = "bad header: invalid literal for int() with base 10: 'x'"


@pytest.mark.parametrize(
    "loader, keys, bad_header, bad_message",
    [
        (load_system, "'n'/'count'", "n 2\ncount x\n", BAD_INT),
        (load_instance, "'n'", "n x\n", BAD_INT),
        (load_instance, "'n'", "n -1\n", "negative ground-set size"),
        (load_poset, "'n'", "n x\n", BAD_INT),
        (load_family, "'base'/'mode'", "base b.ss\nmode odd\n", "unknown mode 'odd'"),
    ],
    ids=["system", "instance", "instance-negative", "poset", "family"],
)
def test_file_header_messages(tmp_path, loader, keys, bad_header, bad_message):
    dump_system(powerset(2), tmp_path / "b.ss")
    path = tmp_path / "bad.txt"
    for text, message in (("x 1\ny 2\n", f"missing {keys} header"), (bad_header, bad_message)):
        path.write_text(text)
        with pytest.raises(FormatError) as exc:
            loader(path)
        assert str(exc.value) == f"{path}: {message}"


def test_elems_mask_roundtrip():
    assert elems_of(mask_of([2, 5, 7])) == (2, 5, 7)
