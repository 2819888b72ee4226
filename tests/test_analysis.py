"""Bound formulas, parameter search, boosting, and the tradeoff curve."""

import math
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfold import analysis
from chainfold.analysis import (
    CORE_PARAMS,
    LOWSPACE_PARAMS,
    SQRT2_PARAMS,
    BoundParams,
    TradeoffPoint,
    _banded_range,
    _core_range,
    banded_bounds,
    boost,
    bounds_for,
    core_bounds,
    density_lower_bound,
    emit_curve,
    entropy,
    finite_size_rows,
    interpolation_constant,
    jlr_rows,
    optimal_lower_k,
    optimize_params,
    reference_points,
    solve_gamma,
    write_curve_csv,
)


# --- entropy -------------------------------------------------------------------

def test_entropy_anchor_values():
    assert entropy(0.5) == 1.0
    assert entropy(0.0) == 0.0 and entropy(1.0) == 0.0
    assert abs(entropy(0.889972) - 0.5) <= 1e-5


def test_entropy_domain():
    with pytest.raises(ValueError):
        entropy(-0.01)
    with pytest.raises(ValueError):
        entropy(1.01)


@settings(max_examples=80)
@given(st.floats(0, 1))
def test_entropy_symmetry(x):
    assert abs(entropy(x) - entropy(1 - x)) <= 1e-12


def test_entropy_concavity_on_grid():
    xs = [i / 400 for i in range(401)]
    hs = [entropy(x) for x in xs]
    for i in range(1, 400):
        assert hs[i] >= (hs[i - 1] + hs[i + 1]) / 2 - 1e-12


# --- solve_gamma ------------------------------------------------------------------

def test_solve_gamma_anchor_values():
    assert abs(solve_gamma(0.5, 0.4112) - 0.4703) <= 1e-3
    assert abs(solve_gamma(0.46, 0.406) - 0.4821) <= 1e-3


def test_solve_gamma_degenerate_band():
    beta = 0.3
    alpha = entropy(2 * beta) / 2  # band already closed at gamma = 1/2
    assert solve_gamma(alpha, beta) == 0.5


def test_solve_gamma_no_root():
    with pytest.raises(ValueError):
        solve_gamma(0.25, 0.25)


# --- banded-family bounds -----------------------------------------------------------

def test_banded_sqrt2_anchor():
    lg_s, lg_p = banded_bounds(SQRT2_PARAMS)
    assert lg_s == 0.5
    assert abs(2**lg_p - 1.785975) <= 1e-4
    assert 2 * 2**lg_p < 3.5720


def test_banded_lowspace_anchor():
    _, lg_p = banded_bounds(LOWSPACE_PARAMS)
    assert abs(2**lg_p - 2.121604) <= 1e-4


def test_banded_degenerate_band_collapses():
    lg_s, lg_p = banded_bounds(BoundParams(0.5, 0.5, 0.5))
    assert lg_s == 0.5
    assert lg_p == 1 + entropy(1.0)  # bracket vanishes entirely


def test_banded_range_check():
    with pytest.raises(ValueError):
        banded_bounds(BoundParams(0.6, 0.3, 0.4))


# --- core-family bounds ----------------------------------------------------------------

def test_core_anchor():
    lg_s, lg_p = core_bounds(CORE_PARAMS)
    s, p = 2**lg_s, 2**lg_p
    assert abs(s - 1.7916) <= 5e-4
    assert p <= 1.20375 + 1e-4
    assert s * s * p < 3.864


def test_core_trivial_point():
    lg_s, lg_p = core_bounds(BoundParams(1.0, 1.0))
    assert lg_s == 1.0 and lg_p == 0.0


def test_core_reported_inconsistency_pair():
    # the narrative quotes both S = 1.7913 (P < 1.20398) and S = 1.7916
    # (P < 1.20375); both evaluations are reproduced side by side
    p_7916 = 2 ** core_bounds(CORE_PARAMS)[1]
    best_7913 = optimize_params(math.log2(1.7913), 45, grid=0.002)
    p_7913 = 2 ** core_bounds(best_7913)[1]
    assert p_7916 <= 1.20375 + 1e-4
    assert p_7913 <= 1.20398 + 5e-4


def test_bounds_dispatch():
    assert bounds_for(41, SQRT2_PARAMS) == banded_bounds(SQRT2_PARAMS)
    assert bounds_for(45, CORE_PARAMS) == core_bounds(CORE_PARAMS)
    with pytest.raises(ValueError):
        bounds_for(44, SQRT2_PARAMS)


# --- chain-counting lower bound ----------------------------------------------------------

def test_lower_bound_at_full_space():
    assert density_lower_bound(2.0) == 1.0
    assert 2.0 * density_lower_bound(2.0) >= 2.0  # T >= 2 is unavoidable


def test_lower_bound_floor_three():
    for s in (1.2, 1.3334, 1.45, 1.7, 2.0):
        assert s * s * density_lower_bound(s) >= 3 - 1e-12
    s = 1.4  # k = 2 optimal here, giving exactly 3
    assert abs(s * s * density_lower_bound(s) - 3) <= 1e-12


def test_lower_bound_reaches_four():
    s = (7 / 4) ** 0.25
    k, val = optimal_lower_k(s)
    assert k == 6
    assert abs(s * s * val - 4) <= 1e-9


def test_lower_bound_optimal_k_bracket():
    for s in (1.05, 1.21, 1.4, 1.6, 1.9):
        k, _ = optimal_lower_k(s)
        if k > 0:
            assert (k + 2) / (k + 1) <= s + 1e-12
        assert s <= (k + 1) / max(k, 1) + 1e-12


def lower_k_reference(s):
    """optimal_lower_k by walking k up from 1 until safely past the peak."""
    best_k, best = 0, 1.0
    k = 1
    while True:
        v = (k + 1) / s**k
        if v > best:
            best_k, best = k, v
        elif k > 2 / (s - 1) + 2:  # safely past the peak (k+2)/(k+1) <= s
            return best_k, best
        k += 1


@pytest.mark.parametrize("grid", [64, 512, 2048])
def test_lower_k_window_matches_the_full_walk(grid):
    for i in range(1, grid + 1):
        s = 2 ** (i / grid)
        assert optimal_lower_k(s) == lower_k_reference(s), s


def test_lower_k_close_to_one():
    s = 1 + 1e-9
    start = time.perf_counter()
    k, best = optimal_lower_k(s)
    assert time.perf_counter() - start < 1.0
    assert best == (k + 1) / s**k
    assert best >= k / s ** (k - 1) and best >= (k + 2) / s ** (k + 1)


def test_lower_bound_domain():
    with pytest.raises(ValueError):
        density_lower_bound(1.0)
    with pytest.raises(ValueError):
        density_lower_bound(2.5)


# --- interpolation -------------------------------------------------------------------------

def test_interpolation_segment_matches_quoted_form():
    # quoted low-space segment: P <= 1.785975 * 74.0839^(1/2 - x)
    pts = reference_points()
    x2, lg_p2 = pts["banded_low"]
    _, lg_p1 = pts["banded_sqrt2"]
    x = 0.48
    mu = (x - x2) / (0.5 - x2)
    p_interp = (2**lg_p1) ** mu * (2**lg_p2) ** (1 - mu)  # union-product mixing
    quoted = 1.785975 * 74.0839 ** (0.5 - x)
    assert abs(p_interp - quoted) <= 1e-3
    assert abs(interpolation_constant() - 74.0839) <= 0.05


# --- boost ------------------------------------------------------------------------------------

def test_boost_of_the_classic_point():
    pt = boost(TradeoffPoint(2.0, 2.0, "st4"))
    assert pt.s == math.sqrt(2) and pt.t == 2 * math.sqrt(2)
    assert pt.source == "boost(st4)"


def test_boost_fixed_point():
    pt = boost(TradeoffPoint(1.0, 4.0, "st4"))
    assert pt.s == 1.0 and pt.t == 4.0


def test_boost_of_sqrt2_anchor():
    _, lg_p = banded_bounds(SQRT2_PARAMS)
    t = 2**0.5 * 2**lg_p
    pt = boost(TradeoffPoint(2**0.5, t, "thm41"))
    assert abs(pt.s - 2**0.25) <= 1e-12
    assert abs(pt.t - 2 * math.sqrt(t)) <= 1e-12
    assert pt.source == "boost(thm41)"
    assert boost(pt).source == "boost^2(thm41)"
    assert boost(boost(pt)).source == "boost^3(thm41)"


@settings(max_examples=60)
@given(
    st.floats(1.0, 2.0),
    st.floats(0.0, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0),
)
def test_boost_preserves_dominance(s1, t_extra1, ds, dt):
    s2 = min(2.0, s1 + ds)
    t1 = s1 + t_extra1
    t2 = max(t1 + dt, s2)
    p1 = boost(TradeoffPoint(s1, t1, "a"))
    p2 = boost(TradeoffPoint(s2, t2, "b"))
    assert p1.s <= p2.s + 1e-12 and p1.t <= p2.t + 1e-12


# --- optimizer ----------------------------------------------------------------------------------

def test_optimizer_recovers_sqrt2_anchor():
    params = optimize_params(0.5, 41)
    _, lg_p = banded_bounds(params)
    _, lg_p_anchor = banded_bounds(SQRT2_PARAMS)
    assert abs(lg_p - lg_p_anchor) <= 1e-3


def test_optimizer_recovers_core_anchor():
    target, lg_p_anchor = core_bounds(CORE_PARAMS)
    params = optimize_params(target, 45)
    _, lg_p = core_bounds(params)
    assert abs(lg_p - lg_p_anchor) <= 1e-3


def test_optimizer_full_space_is_free():
    params = optimize_params(1.0, 45)
    lg_s, lg_p = core_bounds(params)
    assert lg_s <= 1.0 and abs(lg_p) <= 1e-9


def banded_range_reference(a, b, g):
    return 0.25 <= b <= g <= 0.5 and b <= a <= 0.5


def core_range_reference(a, b):
    return 0 < a <= 1 and a / 2 <= b <= a


def optimize_reference(target_lg_s, theorem, grid=0.005):
    """optimize_params testing the range and evaluating lg S and lg P
    through bounds_for one point of the scan at a time."""
    if grid < 1e-4:
        raise ValueError("grid resolution below the 1e-4 floor")
    if theorem == 41:
        valid, axes = banded_range_reference, ((0.25, 0.5),) * 3
    elif theorem == 45:
        valid, axes = core_range_reference, ((1e-6, 1.0),) * 2
    else:
        raise ValueError(f"unknown bound family {theorem}; expected 41 or 45")

    def scan(centers, step):
        best = None
        ranges = []
        for (lo, hi), c in zip(axes, centers):
            if c is None:
                n_steps = int((hi - lo) / step)
                ranges.append([lo + i * step for i in range(n_steps + 1)] + [hi])
            else:
                ranges.append([min(max(c + i * step, lo), hi) for i in range(-3, 4)])
        for coords in product(*ranges):
            if not valid(*coords):
                continue
            try:
                lg_s, lg_p = bounds_for(theorem, BoundParams(*coords))
            except ValueError:
                continue
            if lg_s > target_lg_s + 1e-12:
                continue
            if best is None or lg_p < best[0] - 1e-15:
                best = (lg_p, coords)
        return best

    best = scan([None] * len(axes), grid)
    if best is None:
        raise ValueError(f"no feasible parameters with lg S <= {target_lg_s}")
    step = grid
    for _ in range(10):
        step /= 4
        refined = scan(best[1], step)
        if refined is not None and refined[0] < best[0]:
            best = refined
    return BoundParams(*best[1])


@pytest.mark.parametrize(
    "target,theorem,grid",
    [
        (0.5, 41, 0.01),  # the benchmark's Corollary 4.2 call
        (math.log2(1.7916), 45, 0.005),  # the benchmark's Theorem 4.5 call
        (math.log2(1.7913), 45, 0.002),  # verify's cor47 call
        (0.46, 41, 0.02),
        (0.48, 41, 0.05),
        (0.3, 41, 0.02),  # below the family's least lg S: infeasible
        (1.0, 41, 0.05),
        (0.7, 45, 0.01),
        (0.9, 45, 0.02),
        (1.0, 45, 0.05),
        (0.1, 45, 0.01),  # infeasible
        (0.5, 45, 1e-5),  # below the grid floor
        (0.5, 44, 0.01),  # no such family
    ],
)
def test_optimizer_matches_the_full_scan(target, theorem, grid):
    try:
        want = optimize_reference(target, theorem, grid)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            optimize_params(target, theorem, grid)
        assert str(got.value) == str(exc)
        return
    got = optimize_params(target, theorem, grid)
    assert (got.alpha, got.beta, got.gamma) == (want.alpha, want.beta, want.gamma)


@pytest.mark.parametrize("points", [1, 50, 3000])
def test_optimizer_is_the_same_in_any_chunking(monkeypatch, points):
    # the range test runs on GRID_POINTS grid points at a time, at least
    # one row of the first axis
    monkeypatch.setattr(analysis, "GRID_POINTS", points)
    for target, theorem, grid in [(0.48, 41, 0.05), (0.9, 45, 0.02)]:
        assert optimize_params(target, theorem, grid) == optimize_reference(target, theorem, grid)


def test_range_checks_agree_with_chained_comparisons():
    axis = [0.0, 1e-6, 0.2, 0.25, 0.3, 0.375, 0.4, 0.5, 0.6, 0.75, 1.0, 1.1]
    for valid, ref, dims in [(_banded_range, banded_range_reference, 3), (_core_range, core_range_reference, 2)]:
        points = list(product(axis, repeat=dims))
        grids = [np.array(c) for c in zip(*points)]
        assert valid(*grids).tolist() == [ref(*p) for p in points]
        assert [valid(*p) for p in points] == [ref(*p) for p in points]


def test_optimizer_infeasible_target():
    with pytest.raises(ValueError):
        optimize_params(0.1, 41)
    with pytest.raises(ValueError):
        optimize_params(0.5, 41, grid=1e-5)


# --- curve ----------------------------------------------------------------------------------------

def test_curve_shape_and_headline_points():
    rows = emit_curve(512)
    assert len(rows) == 512
    assert [r.x_lg_s for r in rows] == sorted(r.x_lg_s for r in rows)
    by_x = {r.x_lg_s: r for r in rows}
    mid = by_x[0.5]
    assert mid.st_upper < 3.572
    assert by_x[1.0].t_upper == pytest.approx(2.0)
    for r in rows:
        if 2 < r.t_upper < 4:
            assert r.st_upper < 4
        assert r.st_lower >= 3 - 1e-9
        if not r.source.startswith("boost"):
            # the chain-counting bound constrains single-system points
            assert r.t_upper >= r.t_lower - 1e-9


def test_curve_dominates_kp_point():
    pts = reference_points()
    x_kp, lg_p_kp = pts["kp"]
    t_kp = 2 ** (x_kp + lg_p_kp)
    for r in emit_curve(256):
        if r.x_lg_s >= x_kp:
            assert r.t_upper <= t_kp + 1e-12


def test_curve_csv_layout(tmp_path):
    rows = emit_curve(64)
    path = tmp_path / "curve.csv"
    write_curve_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_lgS,S,T_upper,ST_upper,T_lower,ST_lower,source"
    assert len(lines) == 65
    assert lines[-1].startswith("1,2,2,4,2,4,")


# --- finite-size and density comparisons ----------------------------------------------------------

def test_finite_size_margins_trend_down():
    rows = finite_size_rows((8, 12, 16, 20, 24))
    for r in rows:
        assert r["margin_s"] >= 0  # measured space never beats the formula
    assert abs(rows[-1]["margin_s"]) < abs(rows[0]["margin_s"])
    assert abs(rows[-1]["margin_p"]) < abs(rows[0]["margin_p"])


def test_density_comparison_rows():
    rows = jlr_rows((8, 12, 16, 20, 24))
    towers = [r["tower_p"] for r in rows]
    assert all(a < b for a, b in zip(towers, towers[1:]))  # climbing toward 2
    assert towers[-1] < 2
    last = rows[-1]
    assert last["tower_p"] > last["formula_p"]  # conjectured family is beaten
    assert last["banded_p"] < last["tower_p"]  # strictly, already at n = 24
