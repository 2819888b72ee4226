"""Exact TSP solvers, from brute force to set-system-restricted DP.

All solvers return the optimal cyclic tour value plus a witness permutation,
with ties broken by the lexicographically smallest witness so outputs are
deterministic and diffable.  The restricted solvers share one engine:

    restricted_dp(inst, f) minimizes over tours whose prefix-sets (read from
    the tour's first city) all lie in f.  State is (prefix-set, last city);
    transitions only step between sets of f differing by one element, and the
    DP runs once per choice of first city, keeping the table at <= n*|f|
    entries.

The table is filled backward -- B(s, c) = cheapest completion of a tour whose
prefix-set is s and last city is c -- because a backward table makes the
lexicographically smallest optimal witness recoverable by a forward greedy
walk (always take the smallest next city whose completion cost certifies
optimality).

The unrestricted solvers share a second engine, _path_dp: the same backward
table and forward walk over all subsets of the cities strictly between two
fixed endpoints.  held_karp is _path_dp from city 1 back to city 1, and
gurevich_shelah hands it the subproblems left when its recursion stops.

brute_force enumerates all (n-1)! tours with numpy as the ground-truth
oracle.  gurevich_shelah recursively guesses the first half of the tour and
the endpoint pair of each half; warmup-style random splits and the covering-
family solver both reduce to restricted_dp runs.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .cover import CoverFamily, covers_all
from .rng import SplitMix64
from .systems import CapError, FormatError, SetSystem, mask_of, union_product

HELD_KARP_CAP = 24
BRUTE_CAP = 11
WEIGHT_BOUND = 1 << 62  # n * max |weight| must stay below 2^63


@dataclass(frozen=True)
class TspInstance:
    """n cities with a full (possibly asymmetric) integer distance matrix.

    dist is indexed 1-based on both axes (row 0 / col 0 unused); the diagonal
    is ignored.
    """

    n: int
    dist: tuple

    @staticmethod
    def from_rows(rows) -> "TspInstance":
        n = len(rows)
        if n < 2:
            raise ValueError("need at least 2 cities")
        worst = 0
        padded = [(0,) * (n + 1)]
        for r in rows:
            if len(r) != n:
                raise ValueError("distance matrix must be square")
            worst = max(worst, max(abs(int(w)) for w in r))
            padded.append((0,) + tuple(int(w) for w in r))
        if n * worst >= WEIGHT_BOUND:
            raise ValueError("worst-case tour sum overflows 64-bit range")
        return TspInstance(n, tuple(padded))

    def tour_value(self, tour) -> int:
        """Cyclic cost of a tour, closing edge included."""
        d = self.dist
        total = d[tour[-1]][tour[0]]
        for a, b in zip(tour, tour[1:]):
            total += d[a][b]
        return int(total)


@dataclass(frozen=True)
class Solution:
    value: int
    tour: tuple
    table_entries: int = 0  # peak DP-table size, 0 for table-free solvers


def random_instance(n: int, seed: int, max_weight: int = 99) -> TspInstance:
    """Seeded instance with weights uniform in [1, max_weight]."""
    gen = SplitMix64(seed)
    rows = [
        [0 if i == j else gen.randbelow(max_weight) + 1 for j in range(n)]
        for i in range(n)
    ]
    return TspInstance.from_rows(rows)


_PERM_CACHE: dict[int, np.ndarray] = {}


def _tail_permutations(n: int) -> np.ndarray:
    """All permutations of cities 2..n in lexicographic order, as an array."""
    if n not in _PERM_CACHE:
        from itertools import permutations

        arr = np.array(list(permutations(range(2, n + 1))), dtype=np.int8)
        _PERM_CACHE[n] = arr
    return _PERM_CACHE[n]


def brute_force(inst: TspInstance) -> Solution:
    """Ground-truth oracle: enumerate all (n-1)! tours with city 1 first."""
    n = inst.n
    if n > BRUTE_CAP:
        raise CapError(f"brute force caps at n <= {BRUTE_CAP}")
    if n == 2:
        return Solution(inst.dist[1][2] + inst.dist[2][1], (1, 2))
    d = np.array([row for row in inst.dist], dtype=np.int64)
    tails = _tail_permutations(n)
    cost = d[1, tails[:, 0]] + d[tails[:, -1], 1]
    for i in range(tails.shape[1] - 1):
        cost += d[tails[:, i], tails[:, i + 1]]
    best = int(np.argmin(cost))  # first minimum = lexicographically smallest
    return Solution(int(cost[best]), (1, *map(int, tails[best])))


def held_karp(inst: TspInstance) -> Solution:
    """Subset DP over all prefix-sets, anchored at city 1: the fixed-endpoint
    path DP from city 1 back to city 1, whose table holds 2^(n-1)*(n-1)
    entries plus the closing one."""
    n = inst.n
    if n > HELD_KARP_CAP:
        raise CapError(f"held_karp caps at n <= {HELD_KARP_CAP}")
    value, tour = _path_dp(inst.dist, range(1, n + 1), 1, 1)
    return Solution(value, tour[:-1], table_entries=(1 << (n - 1)) * (n - 1) + 1)


def restricted_dp(inst: TspInstance, f: SetSystem):
    """Cheapest tour among those supported by f, or None when f admits no
    chain.  Runs the (set, last)-state DP once per first city."""
    n = inst.n
    if f.n != n:
        raise ValueError(f"system over [{f.n}] vs instance with {n} cities")
    masks = f.mask_set()
    if 0 not in masks:
        return None
    succ = f.successors()
    elements = f.elements()
    d = inst.dist
    full = (1 << n) - 1
    if full not in masks:
        return None
    by_level_desc = [lv for lv in reversed(f.levels[1:])]
    best_value, best_tour = None, None
    peak = 0
    for c0 in range(1, n + 1):
        start = 1 << (c0 - 1)
        if start not in masks:
            continue
        c0bit = start
        # B[s][c] = cheapest completion of prefix-set s ending at city c
        table: dict[int, dict[int, int]] = {full: {c: d[c][c0] for c in elements[full]}}
        entries = n
        for lv in by_level_desc:
            for s in lv:
                if s == full or not s & c0bit:
                    continue
                choices = []
                for e, nxt in succ[s]:
                    nxt_row = table.get(nxt)
                    if nxt_row is not None and e in nxt_row:
                        choices.append((e, nxt_row[e]))
                if not choices:
                    continue
                row = {}
                for c in elements[s]:
                    dc = d[c]
                    row[c] = min(dc[e] + v for e, v in choices)
                table[s] = row
                entries += len(row)
        peak = max(peak, entries)
        start_row = table.get(start)
        if start_row is None or c0 not in start_row:
            continue
        value = start_row[c0]
        if best_value is not None and value > best_value:
            continue
        # forward greedy along the certified-optimal completions
        tour = [c0]
        s, c, target = start, c0, value
        while s != full:
            for e, nxt in succ[s]:
                nxt_row = table.get(nxt)
                if nxt_row is not None and e in nxt_row and d[c][e] + nxt_row[e] == target:
                    target -= d[c][e]
                    tour.append(e)
                    s, c = nxt, e
                    break
        tour = tuple(tour)
        if best_value is None or value < best_value or (value == best_value and tour < best_tour):
            best_value, best_tour = value, tour
    if best_value is None:
        return None
    return Solution(best_value, best_tour, table_entries=peak)


def _path_brute(d, cities, a, b):
    """Min Hamiltonian path a -> b through cities, by lexicographic
    enumeration of the middle; first minimum is the smallest witness."""
    from itertools import permutations

    middle = sorted(set(cities) - {a, b})
    best_v, best_t = None, None
    for order in permutations(middle):
        v = 0
        c = a
        for x in order:
            v += d[c][x]
            c = x
        v += d[c][b]
        if best_v is None or v < best_v:
            best_v, best_t = v, (a, *order, b)
    return best_v, best_t


def _path_dp(d, cities, a, b):
    """Min Hamiltonian path a -> b through cities (a == b closes a cycle),
    by the backward subset DP over the middle cities and a forward greedy
    walk that recovers the lexicographically smallest witness."""
    middle = sorted(set(cities) - {a, b})
    m = len(middle)
    if m == 0:
        return d[a][b], (a, b)
    size = 1 << m
    dp = [[0] * m for _ in range(size)]
    for i, c in enumerate(middle):
        dp[0][i] = d[c][b]
    dm = [[d[c][y] for y in middle] for c in middle]  # d re-indexed by position
    for mask in range(1, size):
        row = dp[mask]
        for i in range(m):
            if mask >> i & 1:
                continue
            di = dm[i]
            best = None
            rest = mask
            while rest:
                bbit = rest & -rest
                x = bbit.bit_length() - 1
                v = di[x] + dp[mask ^ bbit][x]
                if best is None or v < best:
                    best = v
                rest ^= bbit
            row[i] = best
    full = size - 1
    da = d[a]
    value = min(da[middle[x]] + dp[full ^ (1 << x)][x] for x in range(m))
    tour = [a]
    remaining, c, target = full, a, value
    while remaining:
        dc = d[c]
        rest = remaining
        while rest:
            bbit = rest & -rest
            x = bbit.bit_length() - 1
            if dc[middle[x]] + dp[remaining ^ bbit][x] == target:
                tour.append(middle[x])
                target -= dc[middle[x]]
                remaining ^= bbit
                c = middle[x]
                break
            rest ^= bbit
    tour.append(b)
    return value, tuple(tour)


def gurevich_shelah(inst: TspInstance, switch_depth: int) -> Solution:
    """Divide and conquer on the tour: guess the city set of the first half
    and the endpoint pair joining the halves, recursing switch_depth levels
    before handing subproblems to the fixed-endpoint subset DP."""
    n = inst.n
    d = inst.dist
    if n == 2:
        return Solution(d[1][2] + d[2][1], (1, 2))
    memo: dict = {}

    def solve_path(cities: frozenset, a: int, b: int, depth: int):
        if len(cities) == 1:
            return 0, (a,)
        if len(cities) == 2:
            return d[a][b], (a, b)
        # value and lex-min witness are method-independent, so the memo key
        # can ignore the depth at which a subproblem is first solved
        key = (cities, a, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if depth >= switch_depth:
            if len(cities) <= 8:
                res = _path_brute(d, cities, a, b)
            else:
                res = _path_dp(d, cities, a, b)
        else:
            half = len(cities) // 2
            pool = sorted(cities - {a, b})
            best_v, best_t = None, None
            for extra in combinations(pool, half - 1):
                first = frozenset((a, *extra))
                second = cities - first
                for x in sorted(first) if half > 1 else [a]:
                    if half > 1 and x == a:
                        continue
                    va, ta = solve_path(first, a, x, depth + 1)
                    for y in sorted(second):
                        if y == b and len(second) > 1:
                            continue
                        vb, tb = solve_path(second, y, b, depth + 1)
                        v = va + d[x][y] + vb
                        t = ta + tb
                        if best_v is None or v < best_v or (v == best_v and t < best_t):
                            best_v, best_t = v, t
            res = best_v, best_t
        memo[key] = res
        return res

    cities = frozenset(range(1, n + 1))
    best_v, best_t = None, None
    for c in range(2, n + 1):
        v, t = solve_path(cities, 1, c, 0)
        v += d[c][1]
        if best_v is None or v < best_v or (v == best_v and t < best_t):
            best_v, best_t = v, t
    return Solution(best_v, best_t)


def _best(solutions):
    """Lowest (value, tour) among the solutions that are not None, the first
    one on a full tie; None when there are none."""
    return min(
        (sol for sol in solutions if sol is not None),
        key=lambda sol: (sol.value, sol.tour),
        default=None,
    )


def split_prefix_system(n: int, chosen, alpha: float) -> SetSystem:
    """Prefix-set collection for one sampled half-split: subsets of the
    chosen half, supersets of it, and the middle band where at least
    floor(alpha*n) chosen cities are visited and at least floor(alpha*n)
    unchosen ones remain."""
    t = int(alpha * n + 1e-9)
    chosen = tuple(sorted(chosen))
    others = tuple(v for v in range(1, n + 1) if v not in set(chosen))
    cmask = mask_of(chosen)
    masks = set()
    sub = cmask
    while True:  # all submasks of the chosen half
        masks.add(sub)
        if sub == 0:
            break
        sub = (sub - 1) & cmask
    full = (1 << n) - 1
    rest = full ^ cmask
    sub = rest
    while True:  # chosen half plus any subset of the rest
        masks.add(cmask | sub)
        if sub == 0:
            break
        sub = (sub - 1) & rest
    cap2 = len(others) - t
    for i in range(t, len(chosen) + 1):
        for s1 in combinations(chosen, i):
            m1 = mask_of(s1)
            for j in range(0, cap2 + 1):
                for s2 in combinations(others, j):
                    masks.add(m1 | mask_of(s2))
    return SetSystem(n, masks)


def random_split_solver(inst: TspInstance, alpha: float, trials: int, seed: int) -> Solution:
    """Best restricted-DP tour over sampled half-splits.

    Each trial draws a uniform floor(n/2)-subset, builds its prefix-set
    collection, and solves the restricted DP; every trial is feasible, and
    with enough trials some split brackets the optimal tour.  When trials
    covers all C(n, floor(n/2)) splits the enumeration is exhaustive (and
    deterministic), which makes the solver an exact oracle.  Repeated draws
    of the same split reuse the cached result.
    """
    n = inst.n
    if not 0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be in [0, 1/2], got {alpha}")
    if trials < 1:
        raise ValueError("need at least one trial")
    half = n // 2
    total_splits = comb(n, half)
    cache: dict[tuple, Solution] = {}

    def run(chosen) -> Solution:
        sol = cache.get(chosen)
        if sol is None:
            sol = restricted_dp(inst, split_prefix_system(n, chosen, alpha))
            cache[chosen] = sol
        return sol

    if trials >= total_splits:
        splits = combinations(range(1, n + 1), half)
    else:
        gen = SplitMix64(seed)
        splits = (gen.sample(n, half) for _ in range(trials))
    return _best(run(tuple(chosen)) for chosen in splits)


def partition_blocks(n: int, block_size: int) -> tuple[int, ...]:
    """Split [n] into consecutive blocks with sizes in [block_size, 2*block_size]."""
    if not 1 <= block_size <= n:
        raise ValueError(f"block size {block_size} out of range for n={n}")
    k = n // block_size
    base, rem = divmod(n, k)
    sizes = (base,) * (k - rem) + (base + 1,) * rem
    assert all(block_size <= s <= 2 * block_size for s in sizes)
    return sizes


def framework_solver(
    inst: TspInstance, block_size: int, families: "list[CoverFamily]"
) -> Solution:
    """Optimal tour via per-block covering families.

    The ground set splits into consecutive blocks; for every index tuple j,
    the union product of the chosen members supports exactly the tours whose
    induced per-block orders the members support, so scanning all tuples and
    taking the best restricted-DP result is exact whenever every family
    covers its block's permutations.
    """
    n = inst.n
    sizes = partition_blocks(n, block_size)
    families = list(families)
    if len(families) != len(sizes):
        raise ValueError(f"need {len(sizes)} families for blocks {sizes}")
    for fam, s in zip(families, sizes):
        if fam.base.n != s:
            raise ValueError(f"family over [{fam.base.n}] for block of size {s}")
        if not covers_all(fam):
            raise ValueError("family does not cover its block's permutations")
    member_systems = [fam.systems() for fam in families]

    from itertools import product as iter_product

    def assemble(index_tuple) -> SetSystem:
        combined = member_systems[0][index_tuple[0]]
        for i in range(1, len(index_tuple)):
            combined = union_product(combined, member_systems[i][index_tuple[i]])
        return combined

    tuples = iter_product(*(range(len(ms)) for ms in member_systems))
    best = _best(restricted_dp(inst, assemble(t)) for t in tuples)
    if best is None:
        raise ValueError("no index tuple admits a tour")
    return best


# ---------------------------------------------------------------------------
# instance file format: line 1 "n <n>", then n rows of n integers.


def dump_instance(inst: TspInstance, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"n {inst.n}\n")
        for i in range(1, inst.n + 1):
            fh.write(" ".join(str(inst.dist[i][j]) for j in range(1, inst.n + 1)) + "\n")


def load_instance(path) -> TspInstance:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise FormatError(f"{path}: missing 'n' header")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header: {exc}") from None
    if len(lines) != n + 1:
        raise FormatError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(t) for t in ln.split()]
        except ValueError:
            raise FormatError(f"{path}: non-integer weight in {ln!r}") from None
        if len(row) != n:
            raise FormatError(f"{path}: row with {len(row)} entries, expected {n}")
        rows.append(row)
    try:
        return TspInstance.from_rows(rows)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
