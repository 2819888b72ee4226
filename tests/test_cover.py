"""Covering families, regular-intersection witnesses, and unique covers."""

import math
import re
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold import cover, systems
from chainfold.constructions import (
    core_prefix_system,
    from_spec,
    powerset,
    single_chain,
    split_band_system,
    tower_of_cubes,
)
from chainfold.cover import (
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

from permutation_oracles import closure_from_permutations


# --- enumeration oracles ------------------------------------------------------
# Every coverage question by listing all n! permutations: the judges of the
# signature DP behind covers_all, random_cover, greedy_prune and exactly_once,
# and of the chain-count certificate in regularly_intersecting.

def supported_set(f: SetSystem) -> set:
    """All permutations supported by f, by full enumeration."""
    return {p for p in permutations(range(1, f.n + 1)) if supports(f, p)}


def _covers_all_by_enumeration(family):
    members = family.systems()
    perms = permutations(range(1, family.base.n + 1))
    return all(any(supports(g, p) for g in members) for p in perms)


def _random_cover_by_enumeration(base, seed, max_tries):
    """random_cover's relabelings, tracking the covered permutations as a set."""
    n = base.n
    base_support = supported_set(base)
    if not base_support:
        raise ValueError("base supports no permutation; cover impossible")
    gen = SplitMix64(seed)
    relabelings = [tuple(range(1, n + 1))]
    # support of relabel(base, sigma) = {sigma o tau : tau in base_support}
    covered = set(base_support)
    tries = 0
    while len(covered) < factorial(n):
        if tries >= max_tries:
            raise ValueError(f"no complete cover within {max_tries} draws")
        sigma = gen.permutation(n)
        tries += 1
        relabelings.append(sigma)
        for tau in base_support:
            covered.add(tuple(sigma[v - 1] for v in tau))
    return tuple(relabelings)


def _greedy_prune_by_enumeration(family):
    """greedy_prune's relabelings, over the members' supports as sets."""
    supports_by_member = [supported_set(g) for g in family.systems()]
    uncovered = set().union(*supports_by_member)
    if len(uncovered) < factorial(family.base.n):
        raise ValueError("family does not cover all permutations")
    keep = []
    while uncovered:
        best, best_gain = None, -1
        for j, s in enumerate(supports_by_member):
            gain = len(uncovered & s)
            if gain > best_gain:
                best, best_gain = j, gain
        keep.append(best)
        uncovered -= supports_by_member[best]
    return tuple(family.relabelings[j] for j in sorted(keep))


def _exactly_once_by_enumeration(family):
    n = family.base.n
    members = family.systems()
    return all(
        sum(1 for g in members if supports(g, p)) == 1
        for p in permutations(range(1, n + 1))
    )


def _witness_by_enumeration(f1, f2):
    s1, s2 = supported_set(f1), supported_set(f2)
    forbidden = set()
    for p in s1 - s2:
        forbidden.update(prefix_chain(p))
    candidate = (f1.mask_set() & f2.mask_set()) - forbidden
    for p in s1 & s2:
        if candidate.isdisjoint(prefix_chain(p)):
            return None
    return tuple(sorted(candidate, key=lambda m: (m.bit_count(), m)))


def _random_closure(gen, n):
    perms = [gen.permutation(n) for _ in range(1 + gen.randbelow(5))]
    return closure_from_permutations(n, perms)


@st.composite
def cover_bases(draw):
    """Core, tower, powerset and random-closure bases at n = 3..7."""
    kind = draw(st.sampled_from(("core", "tower", "powerset", "closure")))
    if kind == "tower":
        towers = [(t, k) for t in range(1, 8) for k in range(1, 8) if 3 <= t * k <= 7]
        return tower_of_cubes(*draw(st.sampled_from(towers)))
    n = draw(st.integers(3, 7))
    if kind == "core":
        an = draw(st.integers(1, n))
        bn = draw(st.integers((an + 1) // 2, an))
        return core_prefix_system(n, an / n, bn / n)
    if kind == "powerset":
        return powerset(n)
    perms = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=6))
    return closure_from_permutations(n, perms)


# --- the signature DP against the enumeration oracles ---------------------------

@settings(max_examples=50, deadline=None)
@given(cover_bases(), st.integers(0, 2**32 - 1))
def test_random_cover_and_prune_match_enumeration(base, seed):
    try:
        expected = _random_cover_by_enumeration(base, seed, 60)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            random_cover(base, seed, 60)
        return
    fam = random_cover(base, seed, 60)
    assert fam.relabelings == expected
    assert covers_all(fam)
    pruned = greedy_prune(fam)
    assert pruned.relabelings == _greedy_prune_by_enumeration(fam)
    assert covers_all(pruned)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coverage_questions_match_enumeration_on_any_family(data):
    base = data.draw(cover_bases())
    sigmas = st.permutations(range(1, base.n + 1)).map(tuple)
    relabelings = tuple(data.draw(st.lists(sigmas, max_size=10)))
    fam = CoverFamily(base, relabelings)
    complete = _covers_all_by_enumeration(fam)
    assert covers_all(fam) == complete
    if complete:
        assert greedy_prune(fam).relabelings == _greedy_prune_by_enumeration(fam)
    else:
        with pytest.raises(ValueError, match="does not cover"):
            greedy_prune(fam)
    as_unique = CoverFamily(base, relabelings, unique_mode=True)
    assert exactly_once(as_unique) == _exactly_once_by_enumeration(as_unique)


@settings(max_examples=50, deadline=None)
@given(cover_bases(), st.integers(0, 2**32 - 1))
def test_exactly_once_matches_enumeration_on_unique_families(base, seed):
    # unique families with removals, and each of their corruptions
    try:
        uf = make_unique(greedy_prune(random_cover(base, seed, 60)))
    except ValueError:
        return  # no cover within 60 draws, or members not regularly intersecting
    for fam in [uf] + _corruptions(uf):
        assert exactly_once(fam) == _exactly_once_by_enumeration(fam)
        assert covers_all(fam) == _covers_all_by_enumeration(fam)


def test_benchmark_cover_inputs_match_enumeration():
    base = from_spec("thm45:7,0.715,0.43")
    fam = random_cover(base, 11, 5000)
    assert fam.relabelings == _random_cover_by_enumeration(base, 11, 5000)
    pruned = greedy_prune(fam)
    assert pruned.relabelings == _greedy_prune_by_enumeration(fam)
    assert (len(fam), len(pruned)) == (15, 6)
    base = from_spec("thm45:6,0.667,0.334")
    uf = make_unique(greedy_prune(random_cover(base, 11, 1000)))
    assert exactly_once(uf) and _exactly_once_by_enumeration(uf)
    assert covers_all(uf) and _covers_all_by_enumeration(uf)
    assert uf.removed == ((), (6, 7, 14, 15), (9, 48, 11, 13, 50, 52, 15, 54))


# --- each coverage DP runs once per family -----------------------------------------

def _counting_signatures(monkeypatch):
    """Patch cover._signatures to record each call; returns the record."""
    calls = []
    signatures = cover._signatures

    def counted(n, where):
        calls.append(n)
        return signatures(n, where)

    monkeypatch.setattr(cover, "_signatures", counted)
    return calls


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(3, 8), st.integers(0, 2**32 - 1))
def test_random_cover_hands_over_its_familys_histogram(data, n, seed):
    an = data.draw(st.integers(n // 2 + 1, n))
    bn = data.draw(st.integers((an + 1) // 2, an))
    base = core_prefix_system(n, an / n, bn / n)  # the thm45 spec's base
    fam = random_cover(base, seed, 5000)
    fresh = cover._histogram(CoverFamily(base, fam.relabelings))
    assert fam._hist == fresh
    greedy_prune(fam)
    assert fam._hist == fresh  # pruning reads the histogram, never edits it


def test_cover_then_prune_runs_one_dp_per_check(monkeypatch):
    calls = _counting_signatures(monkeypatch)
    built = []
    init = SetSystem.__init__

    def counted_init(self, n, masks):
        built.append(len(calls))
        init(self, n, masks)

    def no_relabel(f, sigma):
        raise AssertionError("random_cover built a member system")

    monkeypatch.setattr(SetSystem, "__init__", counted_init)
    monkeypatch.setattr(cover, "relabel", no_relabel)
    fam = random_cover(from_spec("thm45:7,0.715,0.43"), 11, 5000)
    assert len(calls) == len(fam) == 15  # the identity, then 14 draws
    assert not any(built)  # no system built after the first check
    greedy_prune(fam)
    assert len(calls) == len(fam)


def test_covers_all_and_exactly_once_share_one_dp(monkeypatch):
    uf = make_unique(greedy_prune(random_cover(from_spec("thm45:6,0.667,0.334"), 11, 1000)))
    fresh = CoverFamily(uf.base, uf.relabelings, unique_mode=True, removed=uf.removed)
    calls = _counting_signatures(monkeypatch)
    assert covers_all(fresh) and exactly_once(fresh)
    assert exactly_once(fresh) and covers_all(fresh)
    assert len(calls) == 1


# --- the live-state budget -------------------------------------------------------
# One powerset(4) member holds one signature per prefix set, so the DP is widest
# on the step from level 1 to level 2 (or 2 to 3): C(4,1) + C(4,2) = 10 states.

def test_state_budget_caps_every_coverage_question(monkeypatch):
    plain = CoverFamily(powerset(4), ((1, 2, 3, 4),))
    unique = CoverFamily(powerset(4), ((1, 2, 3, 4),), unique_mode=True, removed=((),))
    monkeypatch.setattr(systems, "STATE_BUDGET", 10)
    assert covers_all(CoverFamily(powerset(4), ((1, 2, 3, 4),)))
    assert exactly_once(CoverFamily(powerset(4), ((1, 2, 3, 4),), True, ((),)))
    monkeypatch.setattr(systems, "STATE_BUDGET", 9)
    with pytest.raises(CapError):
        covers_all(plain)
    with pytest.raises(CapError):
        random_cover(powerset(4), seed=0, max_tries=5)
    with pytest.raises(CapError):
        greedy_prune(plain)
    with pytest.raises(CapError):
        exactly_once(unique)
    assert plain._hist is None and unique._hist is None


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


def test_witness_matches_enumeration_oracle():
    gen = SplitMix64(606)
    bases = [
        core_prefix_system(4, 3 / 4, 1 / 2),
        core_prefix_system(5, 0.8, 0.4),
        core_prefix_system(6, 2 / 3, 1 / 3),
        core_prefix_system(7, 0.715, 0.43),
        tower_of_cubes(2, 2),
        tower_of_cubes(3, 2),
        split_band_system(2, 0.5),
        split_band_system(3, 0.6),
    ] + [_random_closure(gen, 3 + gen.randbelow(5)) for _ in range(12)]
    outcomes = {True: 0, False: 0}
    for base in bases:
        for _ in range(6):
            g = relabel(base, gen.permutation(base.n))
            expected = _witness_by_enumeration(base, g)
            assert regularly_intersecting(base, g) == expected
            outcomes[expected is None] += 1
    # both answers occur, so neither branch of the certificate goes untested
    assert outcomes[True] >= 10 and outcomes[False] >= 50


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
    base = closure_from_permutations(4, [(1, 3, 4, 2), (2, 3, 4, 1), (3, 4, 1, 2)])
    assert not regularly_self_intersecting(base)
    fam = greedy_prune(random_cover(base, seed=7, max_tries=5000))
    with pytest.raises(ValueError):
        make_unique(fam)


def test_make_unique_accepts_pairwise_regular_members_of_irregular_base():
    # the base is not regularly self-intersecting, but these three members
    # are pairwise regularly intersecting, which is all the removals need
    base = closure_from_permutations(4, [(1, 4, 3, 2), (2, 3, 4, 1), (2, 4, 1, 3), (3, 1, 2, 4)])
    assert not regularly_self_intersecting(base)
    fam = greedy_prune(random_cover(base, seed=2, max_tries=5000))
    uf = make_unique(fam)
    assert len(uf) == 3
    assert exactly_once(uf)
    assert _exactly_once_by_enumeration(uf)


def test_make_unique_refuses_incomplete_cover():
    base = core_prefix_system(5, 0.8, 0.4)
    fam = greedy_prune(random_cover(base, seed=3, max_tries=500))
    partial = CoverFamily(base, fam.relabelings[:-1])
    with pytest.raises(ValueError, match="does not cover"):
        make_unique(partial)


def _corruptions(uf):
    """Unique-mode families that each break exact-once in one way."""
    rel, rm = uf.relabelings, uf.removed
    out = [CoverFamily(uf.base, rel + rel[-1:], True, rm + rm[-1:])]  # member duplicated
    if len(rel) > 1:
        out.append(CoverFamily(uf.base, rel[:-1], True, rm[:-1]))  # member dropped
        # one member replaced by a copy of another: the chain counts can
        # still sum to n!, so only a signature of two members catches it
        out.append(CoverFamily(uf.base, rel[:1] + rel[:1] + rel[2:], True, rm[:1] + rm[:1] + rm[2:]))
    for j, masks in enumerate(rm):
        if masks:  # one removal dropped
            out.append(CoverFamily(uf.base, rel, True, rm[:j] + (masks[1:],) + rm[j + 1:]))
            break
    return out


def test_exactly_once_matches_enumeration_oracle():
    cases = []
    for seed, base in enumerate([
        single_chain(3),
        powerset(3),
        tower_of_cubes(2, 2),
        core_prefix_system(4, 3 / 4, 1 / 2),
        core_prefix_system(5, 0.8, 0.4),
        core_prefix_system(6, 2 / 3, 1 / 3),
    ]):
        plain = random_cover(base, seed=seed, max_tries=5000)
        pruned = greedy_prune(plain)
        uf = make_unique(pruned)
        cases += [CoverFamily(base, plain.relabelings, True), CoverFamily(base, pruned.relabelings, True)]
        cases += [CoverFamily(base, uf.relabelings, True, uf.removed)]
        cases += _corruptions(uf)
    outcomes = {True: 0, False: 0}
    for fam in cases:
        expected = _exactly_once_by_enumeration(fam)
        assert exactly_once(fam) == expected
        outcomes[expected] += 1
    assert outcomes[True] >= 8 and outcomes[False] >= 20


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


def test_family_file_checks_unique_claim_beyond_enumeration(tmp_path):
    # at n = 11 no n! enumeration runs; the claim is checked by chain counts
    identity = tuple(range(1, 12))
    loaded = load_family(_unique_family_file(tmp_path, powerset(11), [identity]))
    assert loaded.unique_mode and exactly_once(loaded)
    for base, relabelings in ((powerset(11), [identity, identity]), (single_chain(11), [identity])):
        with pytest.raises(FormatError):
            load_family(_unique_family_file(tmp_path, base, relabelings))


def test_family_file_refuses_unique_claim_over_budget(tmp_path, monkeypatch):
    # two powerset(11) members share one signature per prefix set, so the
    # check holds C(11,5) + C(11,6) = 924 states at its widest step
    identity = tuple(range(1, 12))
    path = _unique_family_file(tmp_path, powerset(11), [identity, identity])
    monkeypatch.setattr(systems, "STATE_BUDGET", 924)
    with pytest.raises(FormatError):
        load_family(path)
    monkeypatch.setattr(systems, "STATE_BUDGET", 923)
    with pytest.raises(CapError):
        load_family(path)


def _dumped_unique_family(tmp_path):
    base = from_spec("thm45:6,0.667,0.334")
    fam = make_unique(greedy_prune(random_cover(base, 11, 1000)))
    path = tmp_path / "fam.cf"
    dump_family(fam, path, tmp_path / "base.ss")
    return path


@pytest.mark.parametrize("mask", ["ffff", "ffffffffffffffffff", "-1"])
def test_family_file_rejects_removed_mask_outside_ground_set(tmp_path, mask):
    path = _dumped_unique_family(tmp_path)
    assert load_family(path).unique_mode
    # member 1 removes nothing, so a mask outside [6] would change no member
    path.write_text(path.read_text() + f"removed 1: {mask}\n")
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: removed mask outside"):
        load_family(path)


@pytest.mark.parametrize("line", ["1 2 2 4 5 6", "1 2 3"])
def test_family_file_rejects_relabeling_that_is_not_a_permutation(tmp_path, line):
    path = _dumped_unique_family(tmp_path)
    path.write_text(path.read_text().replace("mode unique\n", f"mode unique\n{line}\n"))
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: not a permutation of \\[6\\]"):
        load_family(path)


def _plain_family_file(tmp_path, base, relabelings):
    path = _unique_family_file(tmp_path, base, relabelings)
    path.write_text(path.read_text().replace("mode unique", "mode plain"))
    return path


def test_family_file_rejects_plain_claim_that_misses_a_permutation(tmp_path):
    base = core_prefix_system(6, 2 / 3, 1 / 3)
    fam = greedy_prune(random_cover(base, seed=11, max_tries=1000))
    loaded = load_family(_plain_family_file(tmp_path, base, fam.relabelings))
    assert loaded.relabelings == fam.relabelings and covers_all(loaded)
    with pytest.raises(FormatError, match="not supported"):
        load_family(_plain_family_file(tmp_path, base, fam.relabelings[:-1]))
