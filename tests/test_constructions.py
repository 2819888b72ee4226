"""Construction builders against permutation-closure and enumeration oracles."""

import math
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from chainfold.analysis import SQRT2_PARAMS
from chainfold.constructions import (
    banded_permutation_predicate,
    banded_prefix_system,
    core_prefix_system,
    from_spec,
    koivisto_parviainen,
    powerset,
    single_chain,
    split_band_system,
    tower_of_cubes,
)
from chainfold.rng import SplitMix64
from chainfold.solver import split_prefix_system
from chainfold.systems import (
    CapError,
    closure_from_permutations,
    count_chains,
    metrics,
    prefix_chain,
    supported_permutation_count,
    supports,
)


# --- powerset / single chain -------------------------------------------------

def test_powerset_sizes():
    assert len(powerset(2)) == 4
    assert count_chains(powerset(3)) == 6
    m = metrics(powerset(4))
    assert m.size_s == 2.0 and m.density_p == 1.0


def test_powerset_cap():
    with pytest.raises(CapError):
        powerset(29)


def test_single_chain_basics():
    f = single_chain(1)
    assert f.mask_set() == {0, 1}
    assert count_chains(f) == 1
    for n in range(1, 7):
        assert count_chains(single_chain(n)) == 1


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


def test_band_parameter_validation():
    with pytest.raises(ValueError):
        split_band_system(4, 0.3)
    with pytest.raises(CapError):
        split_band_system(30, 0.9)


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


def test_from_spec_rejects_garbage():
    with pytest.raises(ValueError):
        from_spec("tower:2")
    with pytest.raises(ValueError):
        from_spec("nonsense:1")
