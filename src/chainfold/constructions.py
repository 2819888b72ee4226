"""Concrete set-system constructions.

Each builder returns a canonically labeled SetSystem; the isomorphism class
is generated by systems.relabel.  Fractional parameters are floored to
integer counts and validated after flooring, so every builder is a pure
function of integers.

Every builder hands SetSystem one int64 array of masks, built from submask
arrays of the ground set's blocks with broadcast ors, and no builder loops
over single sets in Python; the constructor validates, sorts, deduplicates
and splits the masks into levels.  Apart from powerset, no temporary spans
the 2^n subsets of the ground set: the largest arrays are the size of the
output.

The two parametric families:

* banded_prefix_system(n, alpha, beta, gamma) -- minimal system supporting
  all permutations that start inside a designated prefix block, end inside a
  suffix block, and keep each half of the ground set mostly on its own side.
  Canonical blocks: L1 = first half, L2 = its first floor(alpha*n) elements,
  R1 = second half, R2 = its last floor(alpha*n) elements.  Built from the
  set-level membership characterization (below), not permutation closure:
  for each admitted count tuple, the sets are one outer or of the blocks'
  submasks of those sizes.

* core_prefix_system(n, alpha, beta) -- minimal system supporting all
  permutations whose first floor(beta*n) entries lie in the core
  L = [1..floor(alpha*n)]: all subsets of L of size <= beta*n plus every set
  meeting L in at least beta*n elements.  This family is regularly
  self-intersecting, which is what the unique-cover path for non-idempotent
  semirings needs.

Membership in the banded system depends only on how a set meets the four
blocks (L2, L1\\L2, R1\\R2, R2).  Writing (x1,x2,x3,x4) for those counts and
k for the size, a set is a prefix-set of a qualifying permutation iff

    k <= bn:      it is a subset of L2;
    k >= n-bn:    its complement is a subset of R2;
    otherwise:    x1 >= bn, x4 <= an-bn, and the half-point checkpoint is
                  reachable: growing the set to size n/2 entirely inside L1
                  must reach gn elements of L1 (k <= n/2), or shrinking it to
                  size n/2 by removing R-side elements first must keep gn
                  elements of L1 and bn elements of L2 (k >= n/2).

The two middle readings coincide at k = n/2; the closure oracle verifies the
whole predicate exhaustively at small n.
"""

import math
from itertools import product

import numpy as np

from .systems import GROUND_CAP, CapError, SetSystem, mask_of, split_levels, submasks

TOWER_LEVEL_CAP = 28  # per-level 2^t enumeration
SPLIT_SET_CAP = 1 << 24  # masks split_system may ask for, counted before it builds any


def powerset(n: int) -> SetSystem:
    """All 2^n subsets.  S = 2, P = 1: the no-restriction baseline."""
    if n < 0:
        raise ValueError(f"powerset needs n >= 0, got {n}")
    if n > TOWER_LEVEL_CAP:
        raise CapError(f"powerset cap is n <= {TOWER_LEVEL_CAP}, got {n}")
    return SetSystem(n, np.arange(1 << n, dtype=np.int64))


def single_chain(n: int) -> SetSystem:
    """The n+1 prefix-sets of the identity permutation.  C = 1."""
    if n < 1:
        raise ValueError("single_chain needs n >= 1")
    if n > GROUND_CAP:  # before np.arange(n) allocates
        raise CapError(f"ground set {n} exceeds cap {GROUND_CAP}")
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    return SetSystem(n, np.append(0, np.cumsum(bits)))  # each prefix sums its bits


def tower_of_cubes(t: int, k: int) -> SetSystem:
    """Order ideals of k stacked antichains of size t (a height-k bucket
    order): full blocks 1..j-1 plus any subset of block j.

    |F| = k*2^t - k + 1 and C(F) = (t!)^k.  Built as one int64 array:
    the 2^t subsets of block 1, then for each later block j the full blocks
    below it or-ed with each nonempty subset of block j.
    """
    if t < 1 or k < 1:
        raise ValueError("tower_of_cubes needs t, k >= 1")
    if t > TOWER_LEVEL_CAP:
        raise CapError(f"antichain size {t} exceeds per-level cap {TOWER_LEVEL_CAP}")
    n = t * k
    if n > GROUND_CAP:
        raise CapError(f"ground set {n} exceeds cap {GROUND_CAP}")
    subs = np.arange(1 << t, dtype=np.int64)
    # block j adds base | sub << j*t with sub > 0 (sub = 0 is block j-1's
    # full set)
    parts = [subs] + [((1 << (j * t)) - 1) | subs[1:] << (j * t) for j in range(1, k)]
    return SetSystem(n, np.concatenate(parts))


def koivisto_parviainen() -> SetSystem:
    """The n=26 two-block system behind the previous best tradeoff point
    (ST about 3.93); identical to tower_of_cubes(13, 2)."""
    return tower_of_cubes(13, 2)


def split_system(n: int, chosen, t: int) -> SetSystem:
    """Minimal system supporting the permutations of [n] whose first t
    entries are chosen and whose last t are not (t at most the size of
    either side, so that such permutations exist).

    Subsets of the chosen cities, the chosen cities plus any subset of the
    rest, and the band of sets holding at least t chosen cities and missing
    at least t of the rest.  Raises CapError when these parts ask for more
    than SPLIT_SET_CAP masks, counted from binomials before any is built.
    """
    cmask = mask_of(chosen)
    rest = ((1 << n) - 1) ^ cmask
    c, r = cmask.bit_count(), rest.bit_count()
    cap = r - t
    band_lows = sum(math.comb(c, i) for i in range(max(t, 0), c + 1))
    band_highs = sum(math.comb(r, j) for j in range(min(cap, r) + 1))
    asked = (1 << c) + (1 << r) + band_lows * band_highs
    if asked > SPLIT_SET_CAP:
        raise CapError(f"split system asks for {asked} sets; cap {SPLIT_SET_CAP}")
    lows, highs = submasks(cmask), submasks(rest)
    band = lows[np.bitwise_count(lows) >= t, None] | highs[np.bitwise_count(highs) <= cap]
    return SetSystem(n, np.concatenate((lows, cmask | highs, band.ravel())))


def split_band_system(k: int, beta: float) -> SetSystem:
    """Two-block system over [2k] with a crossing band.

    Lower-block powerset, upper translates of the full lower block, and the
    band {s1 ∪ (s2+k) : |s1| >= beta*k, |s2| <= (1-beta)*k}.  The thresholds
    are the exact real comparisons, so the integer cut is ceil(beta*k).
    Supports exactly the permutations whose first ceil(beta*k) entries lie in
    the lower block and last ceil(beta*k) entries in the upper block.
    """
    if k < 1:
        raise ValueError("split_band_system needs k >= 1")
    if not 0.5 <= beta <= 1.0:
        raise ValueError(f"beta must be in [1/2, 1], got {beta}")
    if k > TOWER_LEVEL_CAP or 2 * k > GROUND_CAP:
        raise CapError(f"block size {k} exceeds enumeration caps")
    t = math.ceil(beta * k - 1e-12)  # |s1| >= beta*k over integers
    return split_system(2 * k, range(1, k + 1), t)


def _floored(n: int, x: float) -> int:
    return int(x * n + 1e-9)


def banded_prefix_system(n: int, alpha: float, beta: float, gamma: float) -> SetSystem:
    """Minimal system supporting the block-banded permutations (see module
    docstring).  Requires n even; alpha, beta, gamma floored to counts and
    validated as floor(n/4) <= bn <= gn <= n/2, bn <= an <= n/2."""
    if n < 2 or n % 2:
        raise ValueError(f"ground set must be even and >= 2, got {n}")
    h = n // 2
    an, bn, gn = _floored(n, alpha), _floored(n, beta), _floored(n, gamma)
    if not (n // 4 <= bn <= gn <= h and bn <= an <= h):
        raise ValueError(
            f"invalid floored counts an={an} bn={bn} gn={gn} for n={n}"
        )
    if n > 2 * TOWER_LEVEL_CAP or an > TOWER_LEVEL_CAP:
        raise CapError(f"n={n} exceeds enumeration caps")

    def admits(x1: int, x2: int, x3: int, x4: int) -> bool:
        k = x1 + x2 + x3 + x4
        if k <= bn:
            return x2 == 0 and x3 == 0 and x4 == 0
        if k >= n - bn:
            return x1 == an and x2 == h - an and x3 == h - an
        if x1 < bn or x4 > an - bn:
            return False
        if k <= h:
            return x1 + x2 >= k - h + gn
        removable = k - h  # drop down to the half-point checkpoint
        from_left = max(0, removable - x3 - x4)  # R-side elements go first
        if x1 + x2 - from_left < gn:
            return False
        from_core = max(0, from_left - x2)  # L1\L2 before L2
        return x1 - from_core >= bn

    # the blocks L2, L1\L2, R1\R2, R2 as bit ranges; groups[i][x] holds the
    # submasks of block i with x elements
    bounds = (0, an, h, n - an, n)
    groups = [
        split_levels(submasks((1 << hi) - (1 << lo)), hi - lo)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    parts = []
    for x in product(*(range(len(g)) for g in groups)):
        if admits(*x):
            g1, g2, g3, g4 = (g[i] for g, i in zip(groups, x))
            parts.append((g1[:, None, None, None] | g2[:, None, None] | g3[:, None] | g4).ravel())
    return SetSystem(n, np.concatenate(parts))


def core_prefix_system(n: int, alpha: float, beta: float) -> SetSystem:
    """Minimal system supporting all permutations whose first floor(beta*n)
    entries lie in the core L = [1..floor(alpha*n)].

    Built as one int64 array from submasks(L) and submasks of the rest: the
    subsets of L, then each nonempty subset of the rest or-ed with each
    subset of L of at least floor(beta*n) elements."""
    if n < 1:
        raise ValueError("core_prefix_system needs n >= 1")
    an, bn = _floored(n, alpha), _floored(n, beta)
    if not (0 < an <= n and 0 <= bn <= an and 2 * bn >= an):
        raise ValueError(f"invalid floored counts an={an} bn={bn} for n={n}")
    if n > TOWER_LEVEL_CAP:
        raise CapError(f"n={n} exceeds enumeration cap {TOWER_LEVEL_CAP}")
    core = (1 << an) - 1
    lows = submasks(core)
    highs = submasks(((1 << n) - 1) ^ core)
    cut = lows[np.bitwise_count(lows) >= bn]
    return SetSystem(n, np.concatenate((lows, (highs[1:, None] | cut).ravel())))


_TOKENS = {
    "kp": lambda args: koivisto_parviainen(),
    "powerset": lambda args: powerset(int(args[0])),
    "chain": lambda args: single_chain(int(args[0])),
    "tower": lambda args: tower_of_cubes(int(args[0]), int(args[1])),
    "warmup": lambda args: split_band_system(int(args[0]), float(args[1])),
}


def from_spec(spec: str) -> SetSystem:
    """Parse a CLI construction token.

    Grammar: powerset:n | chain:n | tower:t,k | kp | warmup:k,beta |
    thm41:n,a,b,g (g may be 'auto') | thm45:n,a,b.
    """
    name, _, rest = spec.partition(":")
    args = [a for a in rest.split(",") if a] if rest else []
    try:
        if name == "thm41":
            n, a, b = int(args[0]), float(args[1]), float(args[2])
            if args[3] == "auto":
                from .analysis import solve_gamma

                g = solve_gamma(a, b)
            else:
                g = float(args[3])
            return banded_prefix_system(n, a, b, g)
        if name == "thm45":
            return core_prefix_system(int(args[0]), float(args[1]), float(args[2]))
        if name in _TOKENS:
            return _TOKENS[name](args)
    except (IndexError, ValueError) as exc:
        if isinstance(exc, CapError):
            raise
        raise ValueError(f"bad construction spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown construction {spec!r}")
