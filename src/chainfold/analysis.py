"""Closed-form tradeoff bounds, parameter optimization, and curve emission.

Everything is in lg-space (base-2 exponents per ground-set element).  The two
parametric families mirror the constructions module:

* banded_bounds(alpha, beta, gamma) -- the banded-prefix family:

      lg S <= max{alpha, (H(2 beta) + H(1 - 2 gamma)) / 2}
      lg P <= 1 + H(2 alpha)
              - (1/2 - beta) * ( H((gamma-beta)/(1/2-beta))
                               + H((1/2-gamma)/(1/2-beta))
                               + 2 H((alpha-beta)/(1/2-beta)) )

  with 1/4 <= beta <= gamma <= 1/2 and beta <= alpha <= 1/2.  At the
  sqrt(2)-space anchor (alpha = 1/2, beta = 0.4112, gamma the root of
  H(2 beta) + H(1 - 2 gamma) = 2 alpha) this gives P < 1.785975, i.e.
  S*T < 3.572.

* core_bounds(alpha, beta) -- the regularly self-intersecting core-prefix
  family (usable over non-idempotent semirings):

      lg S <= max{alpha, (1-alpha) + alpha H(beta/alpha)}
      lg P <= H(alpha) - (1-beta) H((alpha-beta)/(1-beta))

  with 0 < alpha <= 1 and alpha/2 <= beta <= alpha; at alpha = 0.8412,
  beta = 0.75 alpha: S = 1.7916, P < 1.20375, S^2 P < 3.864.

Feasible points compose: geometric interpolation (union products of the
witnessing systems) and the divide-and-conquer boost (S, T) -> (sqrt S,
2 sqrt T).  Against these upper bounds stands the chain-counting lower bound
P >= (k+1)/S^k for every integer k >= 0, which pins S^2 P >= 3 (k = 2).

All formulas are evaluated with the asymptotic slack term set to zero;
finite-n gaps are reported separately by the finite-size helpers.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .systems import SetSystem, metrics

LG = math.log2
GRID_POINTS = 1 << 20  # optimize_params range-tests this many grid points at once


def entropy(x: float) -> float:
    """Binary entropy H(x) = -x lg x - (1-x) lg(1-x); endpoints exactly 0."""
    if -1e-12 <= x < 0:
        x = 0.0
    if 1 < x <= 1 + 1e-12:
        x = 1.0
    if not 0 <= x <= 1:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    if x == 0 or x == 1:
        return 0.0
    return -x * LG(x) - (1 - x) * LG(1 - x)


def solve_gamma(alpha: float, beta: float) -> float:
    """Root of H(2 beta) + H(1 - 2 gamma) = 2 alpha in [beta, 1/2].

    H(1 - 2 gamma) is monotone on the bracket, so plain bisection converges;
    refined to absolute tolerance 1e-12.
    """
    def g(gm: float) -> float:
        return entropy(2 * beta) + entropy(1 - 2 * gm) - 2 * alpha

    lo, hi = beta, 0.5
    glo, ghi = g(lo), g(hi)
    if ghi == 0:
        return 0.5
    if glo == 0:
        return lo
    if glo * ghi > 0:
        raise ValueError(f"no root bracketed for alpha={alpha}, beta={beta}")
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if g(mid) * glo > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass(frozen=True)
class BoundParams:
    alpha: float
    beta: float
    gamma: float | None = None  # unused for the core-prefix family


# The parameter range of each family, on floats or elementwise on arrays.
def _banded_range(a, b, g):
    return (0.25 <= b) & (b <= g) & (g <= 0.5) & (b <= a) & (a <= 0.5)


def _core_range(a, b):
    return (0 < a) & (a <= 1) & (a / 2 <= b) & (b <= a)


# The lg S and lg P formulas of each family at a point of its range; h is
# entropy or a memo of it.
def _banded_lg_s(a, b, g, h=entropy):
    return max(a, (h(2 * b) + h(1 - 2 * g)) / 2)


def _banded_lg_p(a, b, g, h=entropy):
    width = 0.5 - b
    if width <= 0:
        bracket = 0.0
    else:
        bracket = width * (
            h((g - b) / width)
            + h((0.5 - g) / width)
            + 2 * h((a - b) / width)
        )
    return 1 + h(2 * a) - bracket


def _core_lg_s(a, b, h=entropy):
    return max(a, (1 - a) + a * h(b / a))


def _core_lg_p(a, b, h=entropy):
    width = 1 - b
    return h(a) - (width * h((a - b) / width) if width > 0 else 0.0)


def banded_bounds(p: BoundParams) -> tuple[float, float]:
    """(lg S, lg P) for the banded-prefix family."""
    a, b, g = p.alpha, p.beta, p.gamma
    if not _banded_range(a, b, g):
        raise ValueError(f"parameters out of range: {p}")
    return _banded_lg_s(a, b, g), _banded_lg_p(a, b, g)


def core_bounds(p: BoundParams) -> tuple[float, float]:
    """(lg S, lg P) for the regularly self-intersecting core-prefix family."""
    a, b = p.alpha, p.beta
    if not _core_range(a, b):
        raise ValueError(f"parameters out of range: {p}")
    return _core_lg_s(a, b), _core_lg_p(a, b)


# each bound family by its CLI token: its bounds, its parameter range, its
# lg S and lg P on a point of that range, and the box optimize_params
# searches, one (lo, hi) per alpha, beta[, gamma]
_FAMILIES = {
    41: (banded_bounds, _banded_range, _banded_lg_s, _banded_lg_p, ((0.25, 0.5),) * 3),
    45: (core_bounds, _core_range, _core_lg_s, _core_lg_p, ((1e-6, 1.0),) * 2),
}


def _family(theorem: int):
    if theorem not in _FAMILIES:
        raise ValueError(f"unknown bound family {theorem}; expected 41 or 45")
    return _FAMILIES[theorem]


def bounds_for(theorem: int, p: BoundParams) -> tuple[float, float]:
    """Dispatch on the CLI family token: 41 = banded, 45 = core."""
    return _family(theorem)[0](p)


# canonical anchor points used throughout
SQRT2_PARAMS = BoundParams(0.5, 0.4112, solve_gamma(0.5, 0.4112))
LOWSPACE_PARAMS = BoundParams(0.46, 0.406, solve_gamma(0.46, 0.406))
CORE_PARAMS = BoundParams(0.8412, 0.75 * 0.8412)


def density_lower_bound(s: float) -> float:
    """max over integers k >= 0 of (k+1)/s^k: no system with S(F) <= s has a
    smaller inverse chain density."""
    k, best = optimal_lower_k(s)
    return best


def optimal_lower_k(s: float) -> tuple[int, float]:
    """(argmax k, value) of the chain-counting lower bound at space base s.

    v(k+1)/v(k) = (k+2)/((k+1) s) falls as k grows, so v(k) = (k+1)/s^k
    rises to one peak and falls after it.  The peak is the least k with
    (k+1)(s-1) >= 1, which lies within half a step below 1/ln s - 1.  The
    first k of largest v is taken among k = 0 and the seven k from
    max(1, floor(1/ln s) - 3) on, a window around that peak.
    """
    if not 1 < s <= 2:
        raise ValueError(f"space base {s} outside (1, 2]")
    best_k, best = 0, 1.0
    low = max(1, math.floor(1 / math.log(s)) - 3)
    for k in range(low, low + 7):
        v = (k + 1) / s**k
        if v > best:
            best_k, best = k, v
    return best_k, best


@dataclass(frozen=True)
class TradeoffPoint:
    """A feasible (space base, time base) pair with a provenance label."""

    s: float
    t: float
    source: str

    def __post_init__(self):
        if not (1 <= self.s <= 2 + 1e-9 and self.t >= self.s - 1e-9):
            raise ValueError(f"not a feasible-looking point: {self}")

    @property
    def product(self) -> float:
        return self.s * self.t


def _boost_source(source: str) -> str:
    if source.startswith("boost^") and source.endswith(")"):
        head, _, rest = source.partition("(")
        k = int(head[6:])
        return f"boost^{k + 1}({rest[:-1]})"
    if source.startswith("boost(") and source.endswith(")"):
        return f"boost^2({source[6:-1]})"
    return f"boost({source})"


def boost(pt: TradeoffPoint) -> TradeoffPoint:
    """One divide-and-conquer level on top of an existing solver:
    (S, T) -> (sqrt S, 2 sqrt T)."""
    return TradeoffPoint(math.sqrt(pt.s), 2 * math.sqrt(pt.t), _boost_source(pt.source))


def optimize_params(target_lg_s: float, theorem: int, grid: float = 0.005) -> BoundParams:
    """Best found parameters minimizing lg P subject to lg S <= target.

    Deterministic: a fixed coarse grid scanned in a fixed order (first best
    wins ties), then locally refined; grid is the coarse step, floored at
    1e-4 by contract.  The range is tested in numpy, on up to GRID_POINTS
    points of the grid at once in itertools.product order; each point in
    range is tested on lg S alone, and lg P is computed only where lg S <=
    target + 1e-12 holds, so the scan order and the points compared are
    those of evaluating both at every point.
    """
    if grid < 1e-4:
        raise ValueError("grid resolution below the 1e-4 floor")
    _, valid, lg_s_of, lg_p_of, axes = _family(theorem)
    limit = target_lg_s + 1e-12
    h = cache(entropy)  # entropy is pure: equal arguments, equal values

    def scan(centers, step):
        best = None
        ranges = []
        for (lo, hi), c in zip(axes, centers):
            if c is None:
                n_steps = int((hi - lo) / step)
                ranges.append([lo + i * step for i in range(n_steps + 1)] + [hi])
            else:
                ranges.append(
                    [min(max(c + i * step, lo), hi) for i in range(-3, 4)]
                )
        first, rest = ranges[0], ranges[1:]
        rows = max(1, GRID_POINTS // math.prod(map(len, rest)))
        for lo in range(0, len(first), rows):
            grids = [g.ravel() for g in np.meshgrid(first[lo : lo + rows], *rest, indexing="ij")]
            inside = valid(*grids)
            for coords in zip(*(g[inside].tolist() for g in grids)):
                if lg_s_of(*coords, h=h) > limit:
                    continue
                lg_p = lg_p_of(*coords, h=h)
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


# ---------------------------------------------------------------------------
# tradeoff curve


@dataclass(frozen=True)
class CurveRow:
    x_lg_s: float
    s: float
    t_upper: float
    st_upper: float
    t_lower: float
    st_lower: float
    source: str


def reference_points() -> dict:
    """The named anchor values the curve is assembled from."""
    lg_s1, lg_p1 = banded_bounds(SQRT2_PARAMS)
    lg_s2, lg_p2 = banded_bounds(LOWSPACE_PARAMS)
    lg_s3, lg_p3 = core_bounds(CORE_PARAMS)
    kp_size = 2 * 2**13 - 1
    kp_lg_p = (LG(math.factorial(26)) - 2 * LG(math.factorial(13))) / 26
    return {
        "banded_sqrt2": (0.5, lg_p1),
        "banded_low": (lg_s2, lg_p2),
        "core": (lg_s3, lg_p3),
        "kp": (LG(kp_size) / 26, kp_lg_p),
    }


def interpolation_constant() -> float:
    """Slope constant of the low-space interpolation segment, recomputed from
    the two banded anchors: (P_low / P_sqrt2)^(1/(1/2 - lgS_low))."""
    pts = reference_points()
    x2, lg_p2 = pts["banded_low"]
    _, lg_p1 = pts["banded_sqrt2"]
    return 2 ** ((lg_p2 - lg_p1) / (0.5 - x2))


def emit_curve(grid: int = 512) -> list[CurveRow]:
    """Upper/lower tradeoff envelope over x = lg S in (0, 1].

    Upper candidates at each grid point: the banded-family curve (anchor
    interpolation on [0.46, 1/2], powerset interpolation on [1/2, 1]), the
    core-family segment, the kp point (valid for all larger spaces), the
    boost of the point at 2x, and the classic ST = 4 reference.  First
    minimum in that order wins, so the reference never masks a strict
    improvement.  Lower: T >= S * max_k (k+1)/S^k.

    The lower column bounds what a *single set system* can achieve; it does
    not constrain boost-closure points (divide-and-conquer composites), and
    the two legitimately cross at small S, which is precisely why boosting
    is needed there.

    One sequential pass from x = 1 down fills both columns: the boost
    candidate at x reads the upper envelope already computed at 2x.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    pts = reference_points()
    x_low, lg_p_low = pts["banded_low"]
    _, lg_p_sqrt2 = pts["banded_sqrt2"]
    x_core, lg_p_core = pts["core"]
    x_kp, lg_p_kp = pts["kp"]
    t_kp = 2 ** (x_kp + lg_p_kp)

    upper: dict[int, tuple[float, str]] = {}
    rows = []
    for k in range(grid, 0, -1):
        x = k / grid
        s = 2**x
        cands: list[tuple[float, str]] = []
        if x >= x_low:
            if x <= 0.5:
                mu = (x - x_low) / (0.5 - x_low)
                lg_p = mu * lg_p_sqrt2 + (1 - mu) * lg_p_low
            else:
                lg_p = lg_p_sqrt2 * (1 - x) / 0.5
            cands.append((s * 2**lg_p, "thm41"))
        if x >= x_core:
            lg_p = lg_p_core * (1 - x) / (1 - x_core)
            cands.append((s * 2**lg_p, "thm45"))
        if x >= x_kp:
            cands.append((t_kp, "kp"))
        if 2 * k <= grid:
            t2, src2 = upper[2 * k]
            cands.append((2 * math.sqrt(t2), _boost_source(src2)))
        cands.append((2 ** (2 - x), "st4"))
        t_up, src = min(cands, key=lambda c: c[0])
        upper[k] = (t_up, src)
        t_low = s * density_lower_bound(s)
        rows.append(CurveRow(x, s, t_up, s * t_up, t_low, s * t_low, src))
    rows.reverse()
    return rows


def write_curve_csv(rows, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("x_lgS,S,T_upper,ST_upper,T_lower,ST_lower,source\n")
        for r in rows:
            fh.write(
                f"{r.x_lg_s:.10g},{r.s:.10g},{r.t_upper:.10g},{r.st_upper:.10g},"
                f"{r.t_lower:.10g},{r.st_lower:.10g},{r.source}\n"
            )


# ---------------------------------------------------------------------------
# finite-size reports


def measured_lg(f: SetSystem) -> tuple[float, float]:
    """(lg S, lg P) actually attained by a concrete system."""
    m = metrics(f)
    return LG(m.size_s), LG(m.density_p)


def finite_size_rows(ns=(8, 12, 16, 20, 24)) -> list[dict]:
    """Measured vs formula exponents for banded systems on the sqrt(2) ray.

    The measured values sit above the formula values (the formula is the
    n -> infinity envelope); the gap trends down in n but integer rounding
    of the parameter counts makes it wobble, so consumers should assert the
    trend, not monotonicity.
    """
    from .constructions import banded_prefix_system

    lg_s_formula, lg_p_formula = banded_bounds(SQRT2_PARAMS)
    out = []
    for n in ns:
        f = banded_prefix_system(n, SQRT2_PARAMS.alpha, SQRT2_PARAMS.beta, SQRT2_PARAMS.gamma)
        lg_s, lg_p = measured_lg(f)
        out.append(
            {
                "n": n,
                "lg_s": lg_s,
                "lg_p": lg_p,
                "margin_s": lg_s - lg_s_formula,
                "margin_p": lg_p - lg_p_formula,
            }
        )
    return out


def jlr_rows(ns=(8, 12, 16, 20, 24)) -> list[dict]:
    """Side-by-side densities: the height-two tower (conjectured extremal,
    density approaching 2) against the banded family at the same ground set,
    with the banded formula value for reference."""
    from .constructions import banded_prefix_system, tower_of_cubes

    _, lg_p_formula = banded_bounds(SQRT2_PARAMS)
    out = []
    for n in ns:
        tower = tower_of_cubes(n // 2, 2)
        banded = banded_prefix_system(
            n, SQRT2_PARAMS.alpha, SQRT2_PARAMS.beta, SQRT2_PARAMS.gamma
        )
        mt, mb = metrics(tower), metrics(banded)
        out.append(
            {
                "n": n,
                "tower_s": mt.size_s,
                "tower_p": mt.density_p,
                "banded_s": mb.size_s,
                "banded_p": mb.density_p,
                "formula_p": 2 ** lg_p_formula,
            }
        )
    return out
