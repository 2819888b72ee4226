"""Core set-system operations against enumeration oracles."""

import math
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold import systems
from chainfold.constructions import (
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
    closure_from_permutations,
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


@st.composite
def set_systems(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    masks = draw(st.frozensets(st.integers(0, (1 << n) - 1), max_size=min(48, 1 << n)))
    return SetSystem(n, masks)


@st.composite
def small_permutations(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    return tuple(draw(st.permutations(range(1, n + 1))))


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


@settings(max_examples=150, deadline=None)
@given(chained_systems())
def test_chain_sweep_matches_dict_reference(f):
    _assert_matches_reference(f)


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


@settings(max_examples=40)
@given(set_systems())
def test_successor_index_matches_successor_map(f):
    # entry [i, j] of level k is where set i plus element j + 1 lies in
    # level k + 1, -1 where F lacks it, as the dict-based successor map says;
    # the map lists each set's successors by ascending added element
    arrays, index = f.level_arrays(), f.successor_index()
    assert len(index) == f.n
    for k, (level, idx) in enumerate(zip(arrays, index)):
        assert idx.shape == (len(level), f.n) and idx.dtype == np.int32
        for i, s in enumerate(level.tolist()):
            got = {j + 1: int(arrays[k + 1][idx[i, j]]) for j in range(f.n) if idx[i, j] >= 0}
            assert f.successors()[s] == tuple(got.items())


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
