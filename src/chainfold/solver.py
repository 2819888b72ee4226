"""Exact TSP solvers, from brute force to set-system-restricted DP.

All solvers return the optimal cyclic tour value plus a witness permutation,
with ties broken by the lexicographically smallest witness so outputs are
deterministic and diffable.  Every subset DP here is one engine, _chain_dp.
It solves many chain problems (sets, first, last) over one distance matrix
in a single numpy sweep: B(s, c) = cheapest completion of a chain whose
prefix-set is s and whose last city is c, held in int64 rows keyed by
(problem, s) and filled one popcount level at a time, from the top set down.
Each row finds its successors s | e in the level above with one searchsorted
and gathers B(s | e, e) into a (rows x cities) table; the level is then the
(min,+) product of that table with d, taken one next city e at a time.  A
candidate d[c][e] + B(s | e, e) replaces the running minimum only when it is
strictly smaller, so the stored choice (int8) is the smallest optimal next
city, and following those choices from {first} yields the lexicographically
smallest optimal witness.

A missing successor reads SENTINEL = 3 * 2^61.  Instances keep
n * max|w| < WEIGHT_BOUND = 2^62, so every chain value and every value plus
one weight lies below 2^62 < SENTINEL - max|w|, and SENTINEL plus one weight
stays below 2^63: the int64 fill never overflows and never picks a missing
successor.  Only two levels of values are alive at a time, the
(rows x cities) temporaries are cut into CHUNK-cell pieces, and a row key
packs the problem index above the set's bits, so a sweep holds at most
2^(63 - n) problems; _chain_dp cuts any stream of problems into sweeps.

The callers differ only in the problems they hand the engine:

    restricted_dp(inst, f) minimizes over tours whose prefix-sets (read from
    the tour's first city) all lie in f.  It solves one problem per first
    city {c} in f, each table holding <= n*|f| entries.

    _fixed_path(cities, a, b) is the engine over every subset of cities
    that holds a: the cheapest order of cities from a, plus the step from
    its last city to b.  held_karp is _fixed_path(1..n, 1, 1), the sweep
    gurevich_shelah runs at depth 0.  Deeper, gurevich_shelah hands the
    engine every leaf over one city set at once: the leaves of a split
    share top, so one sweep answers the whole group.  Neither builds a
    SetSystem.

    random_split_solver and framework_solver draw their systems lazily,
    stream every first city of every system through the same sweeps and
    fold each answer into the best tour as it arrives; table_entries is the
    largest table the run filled.  The split solver rotates each tour to
    start at city 1 first; restricted_dp keeps the rotation it solved, so
    every prefix of its tour lies in f.  The split systems come from
    constructions.split_system, the one builder behind the warm-up
    split_band_system too; split_prefix_system only turns alpha into its
    threshold.

brute_force enumerates all (n-1)! tours with numpy as the ground-truth
oracle.  gurevich_shelah solves the tour as the path from city 1 back to
itself, recursively guessing the city set of a path's first half and the
city that follows it; its smallest leaves are enumerated by _path_brute.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product
from math import comb

import numpy as np

from .constructions import split_system
from .cover import CoverFamily, covers_all
from .rng import SplitMix64
from .systems import (
    CapError,
    FormatError,
    SetSystem,
    mask_of,
    read_int_headers,
    submasks,
    union_product,
)

HELD_KARP_CAP = 24
BRUTE_CAP = 11
WEIGHT_BOUND = 1 << 62  # n * max |weight| must stay below 2^63
SENTINEL = 3 << 61  # a missing successor: see the module docstring
BATCH_ROWS = 1 << 13  # candidate rows per sweep of the batched solvers
CHUNK = 1 << 14  # cells of one (rows x cities) fill temporary


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


@cache
def _tail_permutations(n: int) -> np.ndarray:
    """All permutations of cities 2..n in lexicographic order, as an array."""
    return np.array(list(permutations(range(2, n + 1))), dtype=np.int8)


def brute_force(inst: TspInstance) -> Solution:
    """Ground-truth oracle: enumerate all (n-1)! tours with city 1 first."""
    n = inst.n
    if n > BRUTE_CAP:
        raise CapError(f"brute force caps at n <= {BRUTE_CAP}")
    d = np.array([row for row in inst.dist], dtype=np.int64)
    tails = _tail_permutations(n)
    cost = d[1, tails[:, 0]] + d[tails[:, -1], 1]
    for i in range(tails.shape[1] - 1):
        cost += d[tails[:, i], tails[:, i + 1]]
    best = int(np.argmin(cost))  # first minimum = lexicographically smallest
    return Solution(int(cost[best]), (1, *map(int, tails[best])))


def held_karp(inst: TspInstance) -> Solution:
    """Subset DP over all prefix-sets, anchored at city 1: the closed path
    _fixed_path(1..n, 1, 1), whose table holds 2^(n-1)*(n-1) entries plus the
    closing one."""
    n = inst.n
    if n > HELD_KARP_CAP:
        raise CapError(f"held_karp caps at n <= {HELD_KARP_CAP}")
    value, tour = _fixed_path(inst.dist, range(1, n + 1), 1, 1)
    return Solution(value, tour, table_entries=(1 << (n - 1)) * (n - 1) + 1)


def restricted_dp(inst: TspInstance, f: SetSystem):
    """Cheapest tour among those supported by f, or None when f admits no
    chain.  Runs the chain DP for every first city {c} in f, their problems
    swept together; table_entries is the largest of their tables."""
    return _restricted_sweeps(inst, [f])


def _restricted_sweeps(inst: TspInstance, systems, from_city_1=False):
    """Lowest (value, tour) over the restricted DPs of every system, the
    first on a tie, with the largest table the run filled; None when no
    system admits a chain.  Systems are drawn lazily and each answer is
    folded in as it arrives, so no list of systems or of tours is held.
    With from_city_1, each tour is rotated to start at city 1 before it is
    folded in, so the fold compares cycles rather than their rotations."""
    n = inst.n
    full = (1 << n) - 1

    def problems():
        for f in systems:
            if f.n != n:
                raise ValueError(f"system over [{f.n}] vs instance with {n} cities")
            masks = f.mask_set()
            if 0 in masks and full in masks:
                sets = np.fromiter(masks, np.int64, len(masks))
                yield from ((sets, c, c) for c in range(1, n + 1) if 1 << (c - 1) in masks)

    best, peak = None, 0
    for value, tour, entries in _chain_dp(inst.dist, full, problems()):
        peak = max(peak, entries)
        if value is None:
            continue
        if from_city_1:
            at = tour.index(1)
            tour = tour[at:] + tour[:at]
        if best is None or (value, tour) < best:
            best = value, tour
    return None if best is None else Solution(*best, peak)


def _chain_dp(d, top, problems):
    """Answer chain problems (sets, first, last) that share d and top, one
    (value, order, entries) per problem, in order.  The problems, any
    iterable, are cut into _sweep calls of BATCH_ROWS candidate rows, or of
    as many problems as fit beside a mask in an int64 key."""
    room = 1 << (63 - top.bit_length())
    batch, rows = [], 0
    for problem in problems:
        batch.append(problem)
        rows += len(problem[0])
        if rows >= BATCH_ROWS or len(batch) == room:
            yield from _sweep(d, top, batch)
            batch, rows = [], 0
    if batch:
        yield from _sweep(d, top, batch)


def _sweep(d, top, problems):
    """Solve a list of chain problems (sets, first, last) that share d and
    top in one level sweep.  A problem asks for the cheapest chain from
    {first} up to top through its sets, paying d[c][e] for each step that
    adds city e after city c and d[c][last] after the last city c of top.

    sets is an int64 array of subsets of top; those without first are
    skipped.  A row is keyed (problem << top.bit_length()) | s, and its
    values table[s][c] are the cheapest completions from prefix-set s ending
    at city c.  Levels (popcount of s) are filled from |top| down to 1, keys
    sorted within each, so the successors s | e of a row are found with one
    searchsorted in the level above, CHUNK // |top| rows at a time.  They
    give nxt[r][e] = B(s | e, e), SENTINEL where s | e is missing; a row with
    no successor is dropped, as no chain through it reaches top.  The row's
    values are the (min,+) product min_e d[c][e] + nxt[r][e], folded in one
    next city e at a time; a candidate wins only when strictly smaller, so
    the stored choice is the smallest optimal next city, and following the
    choices from {first} gives the lexicographically smallest optimal order.
    Returns one (value, order, entries) per problem: order lists the cities
    of top from first, value and order are None when no chain reaches top,
    and entries counts the table's cells.
    """
    shift = top.bit_length()
    pos = [j for j in range(shift) if top >> j & 1]
    m = len(pos)
    bits = np.array([1 << j for j in pos], dtype=np.int64)
    cities = np.array(pos) + 1
    dist = np.array(d, dtype=np.int64)
    w = dist[cities][:, cities]  # columns are the cities of top, in order
    count = len(problems)
    keys = [np.zeros(0, dtype=np.int64)]
    for p, (sets, first, _) in enumerate(problems):
        keys.append(sets[(sets >> (first - 1) & 1 == 1) & (sets != top)] | p << shift)
    keys = np.concatenate(keys)
    level = np.bitwise_count(keys & top)
    keys = keys[np.lexsort((keys, level))]
    starts = np.concatenate(([0], np.cumsum(np.bincount(level, minlength=m))))
    # level m is top alone, one row per problem
    up_keys = np.arange(count, dtype=np.int64) << shift | top
    up_vals = dist[:, [last for _, _, last in problems]].T[:, cities]
    entries = np.full(count, m, dtype=np.int64)
    keys_at, choices_at = [None] * m, [None] * m
    span = max(1, CHUNK // m)
    every = np.arange(m)
    steps = np.ascontiguousarray(w.T)  # steps[e][c] = d[c][e]
    for k in range(m - 1, 0, -1):
        level_keys = keys[starts[k]:starts[k + 1]]
        if not len(up_keys):  # no row above reaches top, so none here does
            level_keys = level_keys[:0]
        vals = np.empty((len(level_keys), m), dtype=np.int64)
        choices = np.zeros((len(level_keys), m), dtype=np.int8)
        alive = np.empty(len(level_keys), dtype=bool)
        for lo in range(0, len(level_keys), span):
            succ = level_keys[lo:lo + span, None] | bits
            idx = np.searchsorted(up_keys, succ)
            np.minimum(idx, len(up_keys) - 1, out=idx)
            found = up_keys[idx] == succ
            nxt = up_vals[idx, every]  # nxt[r, e] = B(s | e, e)
            nxt[~found] = SENTINEL
            rows = len(nxt)
            alive[lo:lo + rows] = found.any(axis=1)
            v, ch = vals[lo:lo + rows], choices[lo:lo + rows]
            # succ and found are spent: they hold each next city's candidates
            # and the cells those improve, so the chunk allocates nothing more
            cand, better = succ, found
            np.add(nxt[:, :1], steps[0], out=v)
            for e in range(1, m):
                np.add(nxt[:, e:e + 1], steps[e], out=cand)
                np.less(cand, v, out=better)  # strict: a tie keeps the smaller city
                ch[better] = e
                np.minimum(v, cand, out=v)
            del succ, idx, found, nxt, cand, better  # freed before the next chunk allocates
        up_vals = None  # read in full: free it before this level is compacted
        if not alive.all():
            level_keys, vals, choices = level_keys[alive], vals[alive], choices[alive]
        up_keys, up_vals = level_keys, vals
        keys_at[k], choices_at[k] = level_keys, choices
        entries += np.bincount(up_keys >> shift, minlength=count) * k
    # up_keys and up_vals hold level 1 now; walk from each {first} found there
    firsts = np.array([first for _, first, _ in problems], dtype=np.int64)
    key = np.arange(count, dtype=np.int64) << shift | 1 << (firsts - 1)
    row = np.searchsorted(up_keys, key)
    solved = np.flatnonzero(row < len(up_keys))
    solved = solved[up_keys[row[solved]] == key[solved]]
    row, key = row[solved], key[solved]
    col = np.searchsorted(cities, firsts[solved])
    values = up_vals[row, col]
    order = np.empty((len(solved), m), dtype=np.int64)
    order[:, 0] = cities[col]
    for k in range(1, m):
        col = choices_at[k][row, col]
        order[:, k] = cities[col]
        key |= bits[col]
        if k + 1 < m:
            row = np.searchsorted(keys_at[k + 1], key)
    out = [(None, None, e) for e in entries.tolist()]
    for p, value, tour in zip(solved.tolist(), values.tolist(), order.tolist()):
        out[p] = value, tuple(tour), out[p][2]
    return out


def _submasks(top, first):
    """Every subset of top that holds first, ascending, as an int64 array."""
    fbit = 1 << (first - 1)
    return submasks(top & ~fbit) | fbit


def _fixed_path(d, cities, a, b):
    """Cheapest order of cities from a, plus the step from its last city to b
    (b outside cities, or b == a to close a cycle): the chain DP over every
    subset of cities that holds a.  Returns (value, order)."""
    top = mask_of(cities)
    [(value, order, _)] = _chain_dp(d, top, [(_submasks(top, a), a, b)])
    return value, order


def _path_brute(d, cities, a, b):
    """_fixed_path by lexicographic enumeration of the orders of cities after
    a; the first minimum is the smallest witness."""
    best_v, best_t = None, None
    for order in permutations(sorted(set(cities) - {a})):
        v = 0
        c = a
        for x in order:
            v += d[c][x]
            c = x
        v += d[c][b]
        if best_v is None or v < best_v:
            best_v, best_t = v, (a, *order)
    return best_v, best_t


def gurevich_shelah(inst: TspInstance, switch_depth: int) -> Solution:
    """Divide and conquer on the tour, the path from city 1 back to itself.
    solve_path(cities, a, b) is the cheapest order of cities from a plus the
    step from its last city to b; it guesses the city set of the first half
    and the city y that follows it, recursing switch_depth levels before
    handing subproblems to the fixed-endpoint subset DP.

    At the last split, the leaves come in groups over one city set: the
    first half's (first, a, y) for every y, and the rest's (rest, y, b) for
    every y.  One _chain_dp call answers a group, and each answer goes to
    the memo.  Leaves of up to brute_leaf cities are cheaper by _path_brute,
    one at a time, so their groups are not swept.  Under HELD_KARP_CAP only
    the root's split (switch_depth 1, n >= 13) has larger leaves, and its
    groups share no leaf, so no group is already in the memo."""
    n = inst.n
    if n > HELD_KARP_CAP:
        raise CapError(f"gurevich_shelah caps at n <= {HELD_KARP_CAP}")
    d = inst.dist
    memo: dict = {}
    # largest leaf solved by _path_brute: a group of 7 seven-city leaves is
    # faster as one sweep, 6 six-city ones by brute force (CHANGES.md)
    brute_leaf = 6

    def solve_leaves(cities: frozenset, starts, ends):
        # one sweep over top = cities answers every leaf (cities, a, b), a in
        # starts and b in ends; brute-sized leaves are left to solve_path
        if len(cities) <= brute_leaf:
            return
        top = mask_of(cities)
        pairs = list(product(starts, ends))
        problems = [(_submasks(top, a), a, b) for a, b in pairs]
        for (a, b), (value, order, _) in zip(pairs, _chain_dp(d, top, problems)):
            memo[cities, a, b] = value, order

    def solve_path(cities: frozenset, a: int, b: int, depth: int):
        if len(cities) == 1:
            return d[a][b], (a,)
        # value and lex-min witness are method-independent, so the memo key
        # can ignore the depth at which a subproblem is first solved
        key = (cities, a, b)
        best = memo.get(key)
        if best is not None:
            return best
        if depth >= switch_depth:
            leaf = _path_brute if len(cities) <= brute_leaf else _fixed_path
            best = leaf(d, cities, a, b)
        else:
            half = len(cities) // 2
            # the halves are leaves, and the larger one is too big for brute
            # force: sweep each half's group of leaves before reading them
            batch = depth + 1 >= switch_depth and len(cities) - half > brute_leaf
            for extra in combinations(sorted(cities - {a}), half - 1):
                first = frozenset((a, *extra))
                rest = cities - first
                if batch:
                    solve_leaves(first, (a,), rest)
                    solve_leaves(rest, rest, (b,))
                for y in rest:
                    va, ta = solve_path(first, a, y, depth + 1)
                    vb, tb = solve_path(rest, y, b, depth + 1)
                    if best is None or (va + vb, ta + tb) < best:
                        best = va + vb, ta + tb
        memo[key] = best
        return best

    return Solution(*solve_path(frozenset(range(1, n + 1)), 1, 1, 0))


def split_prefix_system(n: int, chosen, alpha: float) -> SetSystem:
    """Prefix-set collection for one sampled half-split: subsets of the
    chosen half, supersets of it, and the middle band where at least
    floor(alpha*n) chosen cities are visited and at least floor(alpha*n)
    unchosen ones remain."""
    return split_system(n, chosen, int(alpha * n + 1e-9))


def random_split_solver(inst: TspInstance, alpha: float, trials: int, seed: int) -> Solution:
    """Best restricted-DP tour over sampled half-splits.

    Each trial draws a uniform floor(n/2)-subset, builds its prefix-set
    collection, and solves the restricted DP; every trial is feasible, and
    with enough trials some split brackets the optimal tour.  When trials
    covers all C(n, floor(n/2)) splits the enumeration is exhaustive (and
    deterministic), which makes the solver an exact oracle.  Repeated draws
    of the same split reuse the cached result.  Every answer is rotated to
    start at city 1, as every other solver's is: a sampled split may support
    the optimal cycle only from another city.
    """
    n = inst.n
    if not 0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be in [0, 1/2], got {alpha}")
    if trials < 1:
        raise ValueError("need at least one trial")
    half = n // 2
    if trials >= comb(n, half):
        splits = combinations(range(1, n + 1), half)
    else:
        gen = SplitMix64(seed)
        splits = (gen.sample(n, half) for _ in range(trials))
    # a repeated draw ties its first draw, so only the first one is solved
    seen = set()
    fresh = (chosen for chosen in splits if not (chosen in seen or seen.add(chosen)))
    systems = (split_prefix_system(n, chosen, alpha) for chosen in fresh)
    return _restricted_sweeps(inst, systems, from_city_1=True)


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

    def assemble(index_tuple) -> SetSystem:
        combined = member_systems[0][index_tuple[0]]
        for i in range(1, len(index_tuple)):
            combined = union_product(combined, member_systems[i][index_tuple[i]])
        return combined

    tuples = product(*(range(len(ms)) for ms in member_systems))
    best = _restricted_sweeps(inst, map(assemble, tuples))
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
    (n,), body = read_int_headers(path, "n")
    if n < 0:
        raise FormatError(f"{path}: negative ground-set size")
    if len(body) != n:
        raise FormatError(f"{path}: expected {n} rows, found {len(body)}")
    rows = []
    for ln in body:
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
