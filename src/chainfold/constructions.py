"""Concrete set-system constructions.

Each builder returns a canonically labeled SetSystem; the isomorphism class
is generated by systems.relabel.  Fractional parameters are floored to
integer counts and validated after flooring, so every builder is a pure
function of integers.

tower_of_cubes and core_prefix_system build their masks as int64 arrays,
in ascending order, from submask arrays of the ground set's blocks; a stable
sort by popcount splits them into levels, which go to SetSystem._of_levels
without a per-mask Python loop.  No temporary spans the 2^n subsets of the
ground set: the largest arrays are the size of the output.

The two parametric families:

* banded_prefix_system(n, alpha, beta, gamma) -- minimal system supporting
  all permutations that start inside a designated prefix block, end inside a
  suffix block, and keep each half of the ground set mostly on its own side.
  Canonical blocks: L1 = first half, L2 = its first floor(alpha*n) elements,
  R1 = second half, R2 = its last floor(alpha*n) elements.  Built from the
  set-level membership characterization (below), not permutation closure, so
  it scales to n around 24.

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
from itertools import combinations

import numpy as np

from .systems import GROUND_CAP, CapError, SetSystem, mask_of, split_levels, submasks

TOWER_LEVEL_CAP = 28  # per-level 2^t enumeration


def powerset(n: int) -> SetSystem:
    """All 2^n subsets.  S = 2, P = 1: the no-restriction baseline."""
    if n > TOWER_LEVEL_CAP:
        raise CapError(f"powerset cap is n <= {TOWER_LEVEL_CAP}, got {n}")
    return SetSystem(n, range(1 << n))


def single_chain(n: int) -> SetSystem:
    """The n+1 prefix-sets of the identity permutation.  C = 1."""
    if n < 1:
        raise ValueError("single_chain needs n >= 1")
    return SetSystem(n, ((1 << i) - 1 for i in range(n + 1)))


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
    # full set); the blocks ascend one after another, so the masks do too
    parts = [subs] + [((1 << (j * t)) - 1) | subs[1:] << (j * t) for j in range(1, k)]
    return SetSystem._of_levels(n, split_levels(np.concatenate(parts), n))


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
    at least t of the rest.
    """
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

    blocks = (
        tuple(range(1, an + 1)),  # L2
        tuple(range(an + 1, h + 1)),  # L1 \ L2
        tuple(range(h + 1, n - an + 1)),  # R1 \ R2
        tuple(range(n - an + 1, n + 1)),  # R2
    )
    masks = []
    sizes = tuple(len(b) for b in blocks)
    for x1 in range(sizes[0] + 1):
        for x2 in range(sizes[1] + 1):
            for x3 in range(sizes[2] + 1):
                for x4 in range(sizes[3] + 1):
                    if not admits(x1, x2, x3, x4):
                        continue
                    parts = [
                        [mask_of(c) for c in combinations(blocks[i], x)]
                        for i, x in enumerate((x1, x2, x3, x4))
                    ]
                    for m1 in parts[0]:
                        for m2 in parts[1]:
                            m12 = m1 | m2
                            for m3 in parts[2]:
                                m123 = m12 | m3
                                for m4 in parts[3]:
                                    masks.append(m123 | m4)
    return SetSystem(n, masks)


def banded_permutation_predicate(n: int, alpha: float, beta: float, gamma: float):
    """The permutation-level membership test behind banded_prefix_system,
    for closure-oracle cross-checks at small n."""
    h = n // 2
    an, bn, gn = _floored(n, alpha), _floored(n, beta), _floored(n, gamma)
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
    # the rest's bits lie above the core's, so the core's own subsets (rest
    # part empty) and then, row by row, each nonempty rest submask or-ed
    # with the core submasks of at least bn elements ascend
    cut = lows[np.bitwise_count(lows) >= bn]
    masks = np.concatenate((lows, (highs[1:, None] | cut).ravel()))
    return SetSystem._of_levels(n, split_levels(masks, n))


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
