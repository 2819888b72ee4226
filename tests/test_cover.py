"""Covering families, regular-intersection witnesses, and unique covers."""

import math
from itertools import combinations, permutations
from math import factorial

import pytest

from chainfold.constructions import (
    core_prefix_system,
    powerset,
    single_chain,
    tower_of_cubes,
)
from chainfold.cover import (
    COVER_CAP,
    CoverFamily,
    covers_all,
    dump_family,
    exact_min_cover,
    exactly_once,
    greedy_prune,
    load_family,
    make_unique,
    prescribed_family_size,
    random_cover,
    regularly_intersecting,
    regularly_self_intersecting,
    supported_set,
)
from chainfold.rng import SplitMix64
from chainfold.systems import (
    CapError,
    FormatError,
    SetSystem,
    count_chains,
    dump_system,
    mask_of,
    prefix_chain,
    relabel,
    supports,
)


# --- random_cover -----------------------------------------------------------

def test_powerset_cover_is_identity_alone():
    fam = random_cover(powerset(4), seed=0, max_tries=10)
    assert len(fam) == 1
    assert fam.relabelings == ((1, 2, 3, 4),)


def test_chain_cover_prunes_to_six():
    fam = greedy_prune(random_cover(single_chain(3), seed=1, max_tries=5000))
    assert len(fam) == 6
    assert covers_all(fam)


def test_tower_cover_prunes_to_exact_minimum():
    base = tower_of_cubes(2, 2)
    pruned = greedy_prune(random_cover(base, seed=2, max_tries=5000))
    exact = exact_min_cover(base)
    assert len(exact) == 6  # one member per choice of the lower block
    assert len(pruned) == 6
    assert covers_all(pruned)


def test_cover_gives_up_within_budget():
    with pytest.raises(ValueError):
        random_cover(single_chain(3), seed=3, max_tries=2)


def test_cover_rejects_chainless_base():
    with pytest.raises(ValueError):
        random_cover(SetSystem(3, [0b1]), seed=0, max_tries=5)


# --- greedy_prune ------------------------------------------------------------

def test_prune_keeps_single_powerset_member():
    base = powerset(3)
    fam = CoverFamily(base, ((2, 1, 3), (1, 2, 3), (3, 2, 1)))
    assert len(greedy_prune(fam)) == 1


def test_prune_collapses_duplicates():
    base = single_chain(3)
    sigmas = tuple(sorted(permutations(range(1, 4)))) + ((1, 2, 3), (2, 1, 3))
    fam = CoverFamily(base, sigmas)
    assert len(greedy_prune(fam)) == 6


# --- exact_min_cover -----------------------------------------------------------

def test_exact_cover_sizes():
    assert len(exact_min_cover(powerset(3))) == 1
    assert len(exact_min_cover(single_chain(4))) == 24


def test_exact_cover_cap():
    with pytest.raises(CapError):
        exact_min_cover(powerset(6))


# --- regular intersection -------------------------------------------------------

def test_self_pair_witness_is_whole_system():
    f = tower_of_cubes(2, 2)
    w = regularly_intersecting(f, f)
    assert w is not None
    assert set(w) == f.mask_set()


def test_powerset_vs_relabeled_powerset():
    f = powerset(4)
    g = relabel(f, (2, 3, 4, 1))
    w = regularly_intersecting(f, g)
    assert w is not None
    assert set(w) == f.mask_set()


def test_core_witness_contains_and_validates_minimal_one():
    f = core_prefix_system(6, 2 / 3, 1 / 3)
    core = {1, 2, 3, 4}
    for sigma in [(2, 3, 4, 5, 6, 1), (6, 5, 4, 3, 2, 1), (1, 2, 5, 6, 3, 4)]:
        g = relabel(f, sigma)
        shifted_core = {sigma[v - 1] for v in core}
        witness = regularly_intersecting(f, g)
        assert witness is not None
        minimal = {mask_of(c) for c in combinations(sorted(core & shifted_core), 2)}
        assert minimal <= set(witness)
        # the minimal witness independently satisfies both clauses
        sup_f, sup_g = supported_set(f), supported_set(g)
        for p in sup_f & sup_g:
            assert any(m in minimal for m in prefix_chain(p))
        for p in sup_f - sup_g:
            assert not any(m in minimal for m in prefix_chain(p))


def test_self_intersection_outcomes():
    assert regularly_self_intersecting(powerset(4))
    assert regularly_self_intersecting(core_prefix_system(6, 2 / 3, 1 / 3))
    # disjoint supports make the empty witness valid: chains qualify
    assert regularly_self_intersecting(single_chain(3))


def test_self_intersection_cap():
    with pytest.raises(CapError):
        regularly_self_intersecting(powerset(7))


def test_witness_outcome_symmetric_within_isomorphism_class():
    f = core_prefix_system(5, 0.8, 0.4)
    for sigma in [(2, 3, 4, 5, 1), (5, 4, 3, 2, 1), (1, 3, 2, 5, 4)]:
        g = relabel(f, sigma)
        assert (regularly_intersecting(f, g) is None) == (
            regularly_intersecting(g, f) is None
        )


# --- make_unique -----------------------------------------------------------------

def test_duplicate_powerset_members_collapse():
    base = powerset(3)
    fam = CoverFamily(base, ((1, 2, 3), (1, 2, 3)))
    uf = make_unique(fam)
    members = uf.systems()
    assert len(members[1]) == 0  # second member loses every set
    assert len(members[0]) == len(base)
    assert exactly_once(uf)


def test_disjoint_chain_family_unchanged():
    base = single_chain(3)
    fam = greedy_prune(random_cover(base, seed=5, max_tries=5000))
    uf = make_unique(fam)
    assert all(not rm for rm in uf.removed)
    assert exactly_once(uf)


def test_core_family_exact_once():
    base = core_prefix_system(6, 2 / 3, 1 / 3)
    fam = greedy_prune(random_cover(base, seed=6, max_tries=5000))
    uf = make_unique(fam)
    assert exactly_once(uf)


def test_tower_is_self_intersecting_via_disjoint_supports():
    # distinct block choices share no supported permutation, so the empty
    # witness validates every cross pair (regression value)
    assert regularly_self_intersecting(tower_of_cubes(2, 2))


def test_make_unique_requires_self_intersecting_base():
    from chainfold.systems import closure_from_permutations

    base = closure_from_permutations(4, [(1, 3, 4, 2), (2, 3, 4, 1), (3, 4, 1, 2)])
    assert not regularly_self_intersecting(base)
    fam = greedy_prune(random_cover(base, seed=7, max_tries=5000))
    with pytest.raises(ValueError):
        make_unique(fam)


# --- support-probability sanity ----------------------------------------------------

def test_random_relabeling_support_frequency():
    base = tower_of_cubes(2, 2)
    target = (2, 4, 1, 3)
    p = count_chains(base) / factorial(4)  # 4/24
    gen = SplitMix64(424242)
    draws = 10_000
    hits = sum(
        1 for _ in range(draws) if supports(relabel(base, gen.permutation(4)), target)
    )
    freq = hits / draws
    stderr = math.sqrt(p * (1 - p) / draws)
    assert abs(freq - p) <= 3 * stderr


def test_prescribed_size_formula():
    base = tower_of_cubes(2, 2)  # C = 4, n = 4
    assert prescribed_family_size(base) == math.ceil(factorial(4) / 4 * 16)


# --- family file format ---------------------------------------------------------------

def test_family_roundtrip_plain(tmp_path):
    fam = greedy_prune(random_cover(single_chain(3), seed=8, max_tries=5000))
    path, base_path = tmp_path / "fam.cf", tmp_path / "base.ss"
    dump_family(fam, path, base_path)
    loaded = load_family(path)
    assert loaded.base == fam.base
    assert loaded.relabelings == fam.relabelings
    assert not loaded.unique_mode


def test_family_roundtrip_unique(tmp_path):
    base = core_prefix_system(4, 3 / 4, 1 / 2)
    fam = make_unique(greedy_prune(random_cover(base, seed=9, max_tries=5000)))
    path, base_path = tmp_path / "fam.cf", tmp_path / "base.ss"
    dump_family(fam, path, base_path)
    loaded = load_family(path)
    assert loaded.unique_mode
    assert loaded.removed == fam.removed
    assert [g.mask_set() for g in loaded.systems()] == [g.mask_set() for g in fam.systems()]


def test_family_file_rejects_bad_mode(tmp_path):
    base = single_chain(3)
    base_path = tmp_path / "base.ss"
    from chainfold.systems import dump_system

    dump_system(base, base_path)
    path = tmp_path / "fam.cf"
    path.write_text(f"base {base_path}\nmode sometimes\n1 2 3\n")
    with pytest.raises(FormatError):
        load_family(path)


def _unique_family_file(tmp_path, base, relabelings):
    base_path = tmp_path / "base.ss"
    dump_system(base, base_path)
    path = tmp_path / "fam.cf"
    lines = [" ".join(map(str, sigma)) for sigma in relabelings]
    path.write_text(f"base {base_path}\nmode unique\n" + "\n".join(lines) + "\n")
    return path


def test_family_file_rejects_false_unique_claim(tmp_path):
    # the identity of powerset(4) twice supports every permutation twice;
    # trusted, evaluate_unique would count 48 orders instead of 24
    identity = (1, 2, 3, 4)
    path = _unique_family_file(tmp_path, powerset(4), [identity, identity])
    assert not exactly_once(CoverFamily(powerset(4), (identity, identity), unique_mode=True))
    with pytest.raises(FormatError):
        load_family(path)


def test_family_file_refuses_unique_claim_above_cap(tmp_path):
    n = COVER_CAP + 1
    path = _unique_family_file(tmp_path, single_chain(n), [tuple(range(1, n + 1))])
    with pytest.raises(CapError):
        load_family(path)
