"""Construction builders against permutation-closure and enumeration oracles."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

import numpy as np
import pytest

from chainfold import constructions
from chainfold.analysis import SQRT2_PARAMS
from chainfold.constructions import (
    TOWER_LEVEL_CAP,
    _TOKENS,
    banded_prefix_system,
    core_prefix_system,
    from_spec,
    koivisto_parviainen,
    powerset,
    single_chain,
    split_band_system,
    split_system,
    tower_of_cubes,
)
from chainfold.rng import SplitMix64
from chainfold.solver import split_prefix_system
from chainfold.systems import (
    GROUND_CAP,
    CapError,
    SetSystem,
    count_chains,
    mask_of,
    metrics,
    prefix_chain,
    submasks,
    supported_permutation_count,
    supports,
)

from permutation_oracles import closure_from_permutations


# --- powerset / single chain -------------------------------------------------

def test_powerset_sizes():
    assert len(powerset(2)) == 4
    assert count_chains(powerset(3)) == 6
    m = metrics(powerset(4))
    assert m.size_s == 2.0 and m.density_p == 1.0


def test_powerset_cap():
    with pytest.raises(CapError):
        powerset(29)


def test_powerset_rejects_negative_n():
    with pytest.raises(ValueError, match=r"^powerset needs n >= 0, got -1$"):
        powerset(-1)
    with pytest.raises(ValueError) as exc:
        from_spec("powerset:-1")
    assert str(exc.value) == "bad construction spec 'powerset:-1': powerset needs n >= 0, got -1"


def test_single_chain_basics():
    f = single_chain(1)
    assert f.mask_set() == {0, 1}
    assert count_chains(f) == 1
    for n in range(1, 7):
        assert count_chains(single_chain(n)) == 1


def test_single_chain_ends_at_the_cap():
    assert single_chain(63).levels == tuple(((1 << k) - 1,) for k in range(64))
    for n in (64, 10**12):
        with pytest.raises(CapError, match=f"^ground set {n} exceeds cap 63$"):
            single_chain(n)


# --- tower of cubes ----------------------------------------------------------

@pytest.mark.parametrize("t,k", [(1, 1), (2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (5, 3), (4, 4)])
def test_tower_formulas(t, k):
    f = tower_of_cubes(t, k)
    assert len(f) == k * 2**t - k + 1
    assert count_chains(f) == factorial(t) ** k
    if t * k <= 8:
        assert supported_permutation_count(f) == factorial(t) ** k


def test_tower_single_antichain_is_powerset():
    assert tower_of_cubes(5, 1) == powerset(5)


def test_tower_caps():
    with pytest.raises(CapError):
        tower_of_cubes(29, 1)
    with pytest.raises(CapError):
        tower_of_cubes(8, 8)


def tower_reference(t, k):
    """tower_of_cubes as one set of masks, one mask at a time."""
    if t < 1 or k < 1:
        raise ValueError("tower_of_cubes needs t, k >= 1")
    if t > TOWER_LEVEL_CAP:
        raise CapError(f"antichain size {t} exceeds per-level cap {TOWER_LEVEL_CAP}")
    n = t * k
    if n > GROUND_CAP:
        raise CapError(f"ground set {n} exceeds cap {GROUND_CAP}")
    masks = set()
    for j in range(k):
        base = (1 << (j * t)) - 1
        for sub in range(1 << t):
            masks.add(base | (sub << (j * t)))
    return SetSystem(n, masks)


def same_outcome(build, reference, *args):
    """build and reference give systems with equal levels, or raise the same
    error type with the same message."""
    try:
        want = reference(*args)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            build(*args)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = build(*args)
    assert got.n == want.n and got.levels == want.levels and got == want


@pytest.mark.parametrize(
    "t,k",
    [(t, k) for t in range(0, 8) for k in range(0, 5)]
    + [(13, 2), (10, 3), (3, 21), (1, 63), (1, 64), (2, 31), (2, 32), (29, 1), (8, 8), (16, 3)],
)
def test_tower_matches_reference(t, k):
    same_outcome(tower_of_cubes, tower_reference, t, k)


# --- koivisto-parviainen point ------------------------------------------------

def test_kp_is_the_13_by_2_tower():
    kp = koivisto_parviainen()
    assert kp == tower_of_cubes(13, 2)
    assert len(kp) == 2**13 + 2**13 - 1


def test_kp_product_window():
    m = metrics(koivisto_parviainen())
    assert 3.925 <= m.product_st <= 3.931


# --- split band system ---------------------------------------------------------

def test_band_collapses_to_tower_at_beta_one():
    assert split_band_system(3, 1.0) == tower_of_cubes(3, 2)


def test_band_space_near_sqrt2():
    m = metrics(split_band_system(10, 0.889972))
    assert abs(m.size_s - math.sqrt(2)) / math.sqrt(2) < 0.05


@pytest.mark.parametrize("k,beta", [(2, 0.6), (3, 0.7), (4, 0.889972), (8, 0.889972)])
def test_band_supported_fraction_is_exact_binomial_ratio(k, beta):
    f = split_band_system(k, beta)
    t = math.ceil(beta * k - 1e-12)
    expected = Fraction(comb(2 * k - 2 * t, k - t), comb(2 * k, k))
    assert Fraction(count_chains(f), factorial(2 * k)) == expected


def test_band_fraction_against_permutation_oracle():
    for k, beta in [(2, 0.6), (3, 0.7)]:
        f = split_band_system(k, beta)
        assert supported_permutation_count(f) == count_chains(f)


def test_band_fraction_via_relabeling_oracle():
    # (M/N) n! through the relabeling orbit agrees with the binomial ratio
    from chainfold.systems import relabeling_orbit

    for k, beta in [(2, 0.6), (3, 0.889972)]:
        f = split_band_system(k, beta)
        images = relabeling_orbit(f)
        identity_chain = prefix_chain(tuple(range(1, 2 * k + 1)))
        n_distinct = len(images)
        m_distinct = sum(1 for key in images if all(m in key for m in identity_chain))
        t = math.ceil(beta * k - 1e-12)
        expected = Fraction(comb(2 * k - 2 * t, k - t), comb(2 * k, k))
        assert Fraction(m_distinct, n_distinct) == expected
        assert count_chains(f) * n_distinct == m_distinct * factorial(2 * k)


def split_reference(n, chosen, t):
    """split_system as one set of masks, one set at a time."""
    cmask = mask_of(chosen)
    rest = ((1 << n) - 1) ^ cmask
    lows = submasks(cmask).tolist()
    highs = submasks(rest).tolist()
    cap = rest.bit_count() - t
    band_highs = [b for b in highs if b.bit_count() <= cap]
    masks = set(lows)
    masks.update(cmask | b for b in highs)
    for a in lows:
        if a.bit_count() >= t:
            masks.update(a | b for b in band_highs)
    return SetSystem(n, masks)


@pytest.mark.parametrize("n", range(0, 13))
def test_split_matches_reference(n):
    # t runs past both sides' sizes and below zero, where the band is empty
    # or every set
    choices = [(), range(1, n // 2 + 1), range(1, n + 1), SplitMix64(n).sample(n, n // 2)]
    choices += [c for c in combinations(range(1, n + 1), 3) if n <= 6]
    for chosen in choices:
        for t in range(-2, n + 2):
            same_outcome(split_system, split_reference, n, chosen, t)


def split_band_reference(k, beta):
    """split_band_system with split_reference in place of split_system."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructions, "split_system", split_reference)
        return split_band_system(k, beta)


@pytest.mark.parametrize("k", [-1, 0, 1, 2, 3, 5, 8, 9, 29, 32])
def test_split_band_matches_reference(k):
    for beta in (0.3, 0.5, 0.6, 0.75, 0.889972, 1.0, 1.2):
        same_outcome(split_band_system, split_band_reference, k, beta)


def test_band_parameter_validation():
    with pytest.raises(ValueError):
        split_band_system(4, 0.3)
    with pytest.raises(CapError):
        split_band_system(30, 0.9)


def test_split_set_cap_refuses_before_allocating():
    # a band of 9 908 x 9 908 sets, refused from binomials alone
    tracemalloc.start()
    try:
        with pytest.raises(CapError, match="split system asks for"):
            split_band_system(14, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # the count is exact: split_band_system(4, 0.5) asks for 2^4 lows, 2^4
    # highs and a band of 11 x 11 sets, so a cap at that sum admits it
    asked = 2 * (1 << 4) + 11 * 11
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(constructions, "SPLIT_SET_CAP", asked)
        assert split_band_system(4, 0.5) == split_band_reference(4, 0.5)
        patch.setattr(constructions, "SPLIT_SET_CAP", asked - 1)
        with pytest.raises(CapError):
            split_band_system(4, 0.5)


# --- split prefix system (the one split builder) --------------------------------

@pytest.mark.parametrize("alpha", [0, 0.2, 0.3, 0.445, 0.5])
@pytest.mark.parametrize("n", range(4, 9))
def test_split_prefix_matches_closure_oracle(n, alpha):
    # the minimal system supporting the permutations whose first t cities
    # are chosen and whose last t are not, t = floor(alpha*n)
    chosen = SplitMix64(n).sample(n, n // 2)
    t = int(alpha * n + 1e-9)
    qualifying = [
        p for p in permutations(range(1, n + 1))
        if all(v in chosen for v in p[:t]) and not any(v in chosen for v in p[n - t:])
    ]
    assert split_prefix_system(n, chosen, alpha) == closure_from_permutations(n, qualifying)


@pytest.mark.parametrize("beta", [0.5, 0.6, 0.75, 0.889972, 1.0])
@pytest.mark.parametrize("k", range(1, 7))
def test_split_prefix_on_the_lower_block_is_the_band_system(k, beta):
    t = math.ceil(beta * k - 1e-12)
    assert split_prefix_system(2 * k, range(1, k + 1), t / (2 * k)) == split_band_system(k, beta)


# --- banded prefix system ------------------------------------------------------

def banded_permutation_predicate(n, alpha, beta, gamma):
    """The permutation-level membership test behind banded_prefix_system,
    with its parameters floored to counts as the builder floors them."""
    h = n // 2
    an, bn, gn = (int(x * n + 1e-9) for x in (alpha, beta, gamma))
    left2 = set(range(1, an + 1))
    left1 = set(range(1, h + 1))
    right1 = set(range(h + 1, n + 1))
    right2 = set(range(n - an + 1, n + 1))

    def ok(perm) -> bool:
        if any(v not in left2 for v in perm[:bn]):
            return False
        if bn and any(v not in right2 for v in perm[-bn:]):
            return False
        if sum(1 for v in perm[:h] if v in left1) < gn:
            return False
        return sum(1 for v in perm[h:] if v in right1) >= gn

    return ok


def closure_oracle(n, alpha, beta, gamma):
    ok = banded_permutation_predicate(n, alpha, beta, gamma)
    qualifying = [p for p in permutations(range(1, n + 1)) if ok(p)]
    return closure_from_permutations(n, qualifying), qualifying


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [(0.5, 0.25, 0.5), (0.5, 0.30, 0.42), (0.45, 0.27, 0.38), (0.5, 0.4112, 0.4703)],
)
def test_banded_matches_closure_oracle_n8(alpha, beta, gamma):
    f = banded_prefix_system(8, alpha, beta, gamma)
    oracle, qualifying = closure_oracle(8, alpha, beta, gamma)
    assert f == oracle
    assert all(supports(f, p) for p in qualifying)


def test_banded_quartile_case_is_tower():
    assert banded_prefix_system(8, 0.5, 0.25, 0.5) == tower_of_cubes(4, 2)


def test_banded_size_matches_set_level_enumeration_n12():
    n, alpha, beta, gamma = 12, 0.5, 5 / 12, 5 / 12
    f = banded_prefix_system(n, alpha, beta, gamma)
    an, bn, gn, h = 6, 5, 5, 6
    left2 = (1 << an) - 1
    right2 = ((1 << an) - 1) << (n - an)

    def admits(m):  # independent per-set reading of the membership rules
        x1 = bin(m & left2).count("1")
        x4 = bin(m & right2).count("1")
        k = bin(m).count("1")
        if k <= bn:
            return m & ~left2 == 0
        if k >= n - bn:
            return m | right2 == (1 << n) - 1 and x1 == an
        if x1 < bn or x4 > an - bn:
            return False
        if k <= h:
            return x1 >= k - h + gn
        spill = max(0, (k - h) - x4)
        return x1 - spill >= gn and x1 - spill >= bn

    brute = {m for m in range(1 << n) if admits(m)}
    assert f.mask_set() == brute
    assert len(f) == len(brute)


def test_banded_supported_count_beats_binomial_fraction():
    for n in (8, 12):
        p = SQRT2_PARAMS
        f = banded_prefix_system(n, p.alpha, p.beta, p.gamma)
        h = n // 2
        an = int(p.alpha * n + 1e-9)
        bn = int(p.beta * n + 1e-9)
        gn = int(p.gamma * n + 1e-9)
        frac = Fraction(
            comb(h - bn, gn - bn) * comb(h - bn, h - gn) * comb(h - bn, an - bn) ** 2,
            comb(n, h) * comb(h, an) ** 2,
        )
        assert Fraction(count_chains(f)) >= frac * factorial(n)


def banded_reference(n, alpha, beta, gamma):
    """banded_prefix_system as a list of masks, one combination of each
    block's elements at a time."""
    if n < 2 or n % 2:
        raise ValueError(f"ground set must be even and >= 2, got {n}")
    h = n // 2
    an, bn, gn = (int(x * n + 1e-9) for x in (alpha, beta, gamma))
    if not (n // 4 <= bn <= gn <= h and bn <= an <= h):
        raise ValueError(f"invalid floored counts an={an} bn={bn} gn={gn} for n={n}")
    if n > 2 * TOWER_LEVEL_CAP or an > TOWER_LEVEL_CAP:
        raise CapError(f"n={n} exceeds enumeration caps")

    def admits(x1, x2, x3, x4):
        k = x1 + x2 + x3 + x4
        if k <= bn:
            return x2 == 0 and x3 == 0 and x4 == 0
        if k >= n - bn:
            return x1 == an and x2 == h - an and x3 == h - an
        if x1 < bn or x4 > an - bn:
            return False
        if k <= h:
            return x1 + x2 >= k - h + gn
        from_left = max(0, k - h - x3 - x4)
        if x1 + x2 - from_left < gn:
            return False
        return x1 - max(0, from_left - x2) >= bn

    blocks = (
        range(1, an + 1),
        range(an + 1, h + 1),
        range(h + 1, n - an + 1),
        range(n - an + 1, n + 1),
    )
    masks = []
    for xs in product(*(range(len(b) + 1) for b in blocks)):
        if admits(*xs):
            parts = [[mask_of(c) for c in combinations(b, x)] for b, x in zip(blocks, xs)]
            for m1 in parts[0]:
                for m2 in parts[1]:
                    for m3 in parts[2]:
                        for m4 in parts[3]:
                            masks.append(m1 | m2 | m3 | m4)
    return SetSystem(n, masks)


BANDED_TRIPLES = [
    (a, b, g)
    for a in (0.1, 0.25, 0.4, 0.5, 0.6)
    for b in (0.2, 0.25, 0.3, 0.375, 0.4112, 0.5)
    for g in (0.3, 0.42, 0.4703, 0.5, 0.55)
]


@pytest.mark.parametrize("n", [-2, 0, 1, 2, 3, 4, 6, 8, 9, 10, 12, 14, 16, 58, 60])
def test_banded_matches_reference(n):
    for alpha, beta, gamma in BANDED_TRIPLES:
        same_outcome(banded_prefix_system, banded_reference, n, alpha, beta, gamma)


@pytest.mark.parametrize("n,sets", [(24, 15199), (30, 82560)])
def test_banded_matches_reference_on_the_sqrt2_ray(n, sets):
    gamma = SQRT2_PARAMS.gamma
    same_outcome(banded_prefix_system, banded_reference, n, 0.5, 0.4112, gamma)
    assert len(banded_prefix_system(n, 0.5, 0.4112, gamma)) == sets
    assert from_spec(f"thm41:{n},0.5,0.4112,auto") == banded_prefix_system(n, 0.5, 0.4112, gamma)


def test_banded_validation():
    with pytest.raises(ValueError):
        banded_prefix_system(9, 0.5, 0.3, 0.4)  # odd n
    with pytest.raises(ValueError):
        banded_prefix_system(8, 0.2, 0.3, 0.4)  # alpha below beta


# --- core prefix system ---------------------------------------------------------

def test_core_full_alpha_is_powerset():
    assert core_prefix_system(5, 1.0, 0.6) == powerset(5)


def test_core_n6_size_by_enumeration():
    f = core_prefix_system(6, 2 / 3, 1 / 3)
    an, bn = 4, 2
    core = (1 << an) - 1
    brute = {
        m
        for m in range(1 << 6)
        if (m & ~core == 0 and bin(m).count("1") <= bn) or bin(m & core).count("1") >= bn
    }
    assert f.mask_set() == brute
    assert len(f) == 49


def test_core_supports_exactly_core_starting_permutations():
    f = core_prefix_system(6, 2 / 3, 1 / 3)
    core = {1, 2, 3, 4}
    for p in permutations(range(1, 7)):
        expected = set(p[:2]) <= core
        assert supports(f, p) == expected


def test_core_validation():
    with pytest.raises(ValueError):
        core_prefix_system(6, 0.5, 0.1)  # beta below alpha/2


def core_reference(n, alpha, beta):
    """core_prefix_system by testing every subset of [n] one at a time."""
    if n < 1:
        raise ValueError("core_prefix_system needs n >= 1")
    an, bn = int(alpha * n + 1e-9), int(beta * n + 1e-9)
    if not (0 < an <= n and 0 <= bn <= an and 2 * bn >= an):
        raise ValueError(f"invalid floored counts an={an} bn={bn} for n={n}")
    if n > TOWER_LEVEL_CAP:
        raise CapError(f"n={n} exceeds enumeration cap {TOWER_LEVEL_CAP}")
    core = (1 << an) - 1
    masks = [
        m
        for m in range(1 << n)
        if (m & ~core == 0 and m.bit_count() <= bn) or (m & core).bit_count() >= bn
    ]
    return SetSystem(n, masks)


CORE_PAIRS = [
    (a, b)
    for a in (0.1, 0.3, 0.5, 0.6, 0.667, 0.75, 0.8412, 1.0)
    for b in (0.0, 0.25, 0.28, 0.334, 0.4, 0.5, 0.6309)
]


@pytest.mark.parametrize("n", [-1, 0, *range(1, 15), 29, 40])
def test_core_matches_reference(n):
    for alpha, beta in CORE_PAIRS:
        same_outcome(core_prefix_system, core_reference, n, alpha, beta)


def test_core_level_sizes_match_the_closed_form_n20():
    n, an, bn = 20, 10, 5  # thm45:20,0.5,0.28
    f = core_prefix_system(n, 0.5, 0.28)
    levels = [0] * (n + 1)
    for i in range(an + 1):
        for j in range(n - an + 1):
            if (j == 0 and i <= bn) or i >= bn:
                levels[i + j] += comb(an, i) * comb(n - an, j)
    assert [len(lv) for lv in f.levels] == levels


# --- construction spec parsing ---------------------------------------------------

def test_from_spec_tokens():
    assert from_spec("powerset:3") == powerset(3)
    assert from_spec("chain:4") == single_chain(4)
    assert from_spec("tower:2,2") == tower_of_cubes(2, 2)
    assert from_spec("kp") == koivisto_parviainen()
    assert from_spec("warmup:3,1.0") == split_band_system(3, 1.0)
    assert from_spec("thm45:6,0.667,0.334") == core_prefix_system(6, 2 / 3, 1 / 3)
    auto = from_spec("thm41:8,0.5,0.4112,auto")
    assert auto == banded_prefix_system(8, 0.5, 0.4112, 0.4703)


SPECS = [
    "kp",
    "powerset:0",
    "powerset:5",
    "chain:1",
    "chain:6",
    "tower:1,1",
    "tower:3,2",
    "tower:2,4",
    "tower:1,9",
    "warmup:3,0.6",
    "warmup:4,1.0",
    "thm41:8,0.5,0.375,0.5",
    "thm41:12,0.5,0.4112,auto",
    "thm45:2,1.0,0.5",
    "thm45:6,0.667,0.334",
    "thm45:7,0.715,0.43",
    "thm45:10,1.0,0.5",
    "thm45:12,0.5,0.28",
]


@pytest.mark.parametrize("spec", SPECS)
def test_trusted_levels_are_well_formed(spec):
    """Pins the constructor's level invariants for every token: each level
    ascending, duplicate-free, inside [n] and of its popcount, and the same
    as its read-only int64 array."""
    f = from_spec(spec)
    assert len(f.levels) == len(f.level_arrays()) == f.n + 1
    for k, (level, arr) in enumerate(zip(f.levels, f.level_arrays())):
        assert arr.dtype == np.int64 and level == tuple(arr.tolist())
        assert all(a < b for a, b in zip(level, level[1:]))  # ascending, no duplicates
        assert all(0 <= m < 1 << f.n and m.bit_count() == k for m in level)
    assert f == SetSystem(f.n, f.masks)
    assert f.levels == SetSystem(f.n, f.masks).levels


def test_trusted_levels_cover_every_token():
    assert {spec.partition(":")[0] for spec in SPECS} == {"kp", "thm41", "thm45"} | set(_TOKENS)


def test_from_spec_rejects_garbage():
    with pytest.raises(ValueError):
        from_spec("tower:2")
    with pytest.raises(ValueError):
        from_spec("nonsense:1")
