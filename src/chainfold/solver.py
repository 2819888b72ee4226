"""Exact TSP solvers, from brute force to set-system-restricted DP.

All solvers return the optimal cyclic tour value plus a witness permutation,
with ties broken by the lexicographically smallest witness so outputs are
deterministic and diffable.  Every subset DP here is one engine, _chain_dp.
It solves many chain problems over one lattice and one distance matrix in a
single numpy sweep.

A lattice (systems._Lattice) holds the sets a sweep may visit, subsets of
a city set top kept as one ascending int64 array per popcount, and says how
to find, for each set s and each city e of top, where s | e lies in the
level above.  systems decides that by its one density rule.  A lattice is
dense when it is a dense SetSystem's, or when it holds every subset of top
or every subset that holds one city (the Gurevich-Shelah leaf groups,
held_karp and _fixed_path).  A dense lattice is swept by rank: the sweep
writes each level's places into an int32 rank table over all 2^|top| masks
(64 MiB at held_karp's cap of 24 cities) and looks s | e up there.  A
sparse SetSystem's lattice carries its successor index
(SetSystem.successor_index), built on its first use and cached: where
s | e lies, or -1.  Problems over either kind may carry a perm.

A problem (first, last, perm) asks for the cheapest chain from {first} up
to top through the lattice's sets, relabeled by perm, closing at last.
B(s, c) = cheapest completion of a chain whose prefix-set is s and whose
last city is c, held in integer rows, one per (problem, set), filled one
popcount level at a time from the top set down.  A level's table is laid
out cities x rows: its row r is column r + 1 of a (|top| x rows + 1) array,
so every numpy call of the fill runs along the rows, not along the few
cities.  A problem's rows are the sets that hold its first city, picked
from the shared levels; a map from (problem, set) to row turns the shared
successors into each row's, so nothing is sorted or searched per problem.
The gathered B(s | e, e) form a (cities x rows) table, and the level is the
(min,+) product of d with that table, taken one next city e at a time in
the problem's own labels.
Values are packed: the tables hold B << SHIFT, and a candidate is
(d[c][e] + B(s | e, e)) << SHIFT | e, with SHIFT = 6 bits for the city
e < 64 (ground sets hold at most 63 cities).  Packed values order by value
first and then by e, so a running minimum alone keeps both the cheapest
value and, as e sits in the low bits, the smallest optimal next city on a
tie.  Those bits are then split off into the int8 choices, and following
the choices from {first} yields the lexicographically smallest optimal
witness.

A missing successor reads SENTINEL, from column 0 of every table.  A
sweep picks its tables' dtype once, from its weights: int32 when its cities
times the largest |weight| out of them stay below WEIGHT_BOUND32 = 2^24,
and int64 otherwise, with SENTINEL = 3 * 2^61 and ALIVE = 2^62.  Instances
keep n * max|w| < WEIGHT_BOUND = 2^56.  A chain value sums at most one
weight per city, so every packed chain value lies strictly between -2^62
and 2^62.  A packed weight is below 2^61 in size, so SENTINEL plus one
packed weight lies strictly between 2^62 and 2^63.  The int64 fill
therefore never overflows, a live candidate always beats a missing one,
and a row that read only SENTINEL ends above ALIVE = 2^62, whatever the
signs of the weights, and is dropped.  The int32 tables divide every bound
by 2^32: SENTINEL32 = 3 * 2^29, ALIVE32 = 2^30, packed chain values within
2^30 and SENTINEL32 plus a packed weight strictly between 2^30 and 2^31
(a sweep over one city adds nothing).  So both dtypes give the same
values, witnesses and table entries, and an instance and its weights
scaled past 2^24 differ only by the scale.  Only two levels of values are
alive at a time, the (cities x rows) temporaries are cut into CHUNK-cell
pieces, and _chain_dp cuts any stream of problems into sweeps of about
BATCH_ROWS = 2^16 rows: every split of the exhaustive split solver at
n = 9, or every first city of restricted_dp over powerset(12), in one sweep.

The callers differ only in the lattices and problems they hand the engine:

    restricted_dp(inst, f) minimizes over tours whose prefix-sets (read from
    the tour's first city) all lie in f.  It solves one problem per first
    city {c} in f over f's lattice, each table holding <= n*|f| entries;
    over a sparse f, its first cities and repeat calls share one index.

    _fixed_path(cities, a, b) is the engine over every subset of cities
    that holds a: the cheapest order of cities from a, plus the step from
    its last city to b.  held_karp is _fixed_path(1..n, 1, 1), the sweep
    gurevich_shelah runs at depth 0.  Deeper, gurevich_shelah hands the
    engine every leaf over one city set at once: the leaves of a split
    share top, so one sweep over every subset of top answers the whole
    group.

    random_split_solver and framework_solver solve orbits: systems that are
    all relabelings of one base F.  restricted_dp(relabel(F, sigma), d) is
    restricted_dp(F, d_sigma) with d_sigma[i][j] = d[sigma(i)][sigma(j)] and
    the tour mapped back through sigma, so each member is a problem with a
    perm over the base's lattice, built once per call.  The
    split solver's base is split_system(n, {1..floor(n/2)}, t), and a split
    is the relabeling that sends 1..floor(n/2) onto its chosen cities.  The
    framework's base is the union product of its families' bases, and an
    index tuple the blockwise relabeling.  Table columns are cities in the
    member's labels, so ties break as on the built system: values, tours and
    table entries equal one restricted_dp per built system.  A unique-mode
    family is solved over its plain relabelings, supersets of its members
    (see framework_solver).  The answers are folded into the best tour as
    they arrive; table_entries is the largest table the run filled.  The
    split solver rotates each tour to start at city 1 first; restricted_dp
    keeps the rotation it solved, so every prefix of its tour lies in f.

brute_force enumerates all (n-1)! tours with numpy as the ground-truth
oracle.  gurevich_shelah solves the tour as the path from city 1 back to
itself, recursively guessing the city set of a path's first half and the
city that follows it; its smallest leaves are enumerated by _path_brute.
"""

from dataclasses import dataclass
from functools import cache, reduce
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
    _Lattice,
    read_int_headers,
    union_product,
)

HELD_KARP_CAP = 24
BRUTE_CAP = 11
WEIGHT_BOUND = 1 << 56  # n * max |weight| must stay below this: see the module docstring
SHIFT = 6  # a packed value is B << SHIFT | e, e < 64 the next city's column
LOW = (1 << SHIFT) - 1
SENTINEL = 3 << 61  # a missing successor
ALIVE = 1 << 62  # every packed chain value lies below, every dead candidate above
WEIGHT_BOUND32 = 1 << 24  # a sweep's cities * max |weight| below this: int32 tables
SENTINEL32 = 3 << 29  # SENTINEL and ALIVE of the int32 tables
ALIVE32 = 1 << 30
BATCH_ROWS = 1 << 16  # candidate rows per sweep of the batched solvers
CHUNK = 1 << 14  # cells of one (cities x rows) fill temporary
FILL_BUFSIZE = 1 << 10  # numpy's ufunc buffer size, in elements, during a sweep: see _sweep


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
            raise ValueError(f"n * max|weight| must stay below 2^{WEIGHT_BOUND.bit_length() - 1}")
        return TspInstance(n, tuple(padded))


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
    swept together over f's lattice, so repeat calls on a sparse f search
    nothing; table_entries is the largest of their tables."""
    if f.n != inst.n:
        raise ValueError(f"system over [{f.n}] vs instance with {inst.n} cities")
    return _fold(_orbit_answers(inst, f, [None]))


def _fold(answers, from_city_1=False):
    """Lowest (value, tour) among the (value, tour, entries) answers, the
    first on a tie, with the largest table the run filled; None when no
    answer has a tour.  Answers are folded in as they arrive, so no list of
    tours is held.  With from_city_1, each tour is rotated to start at city
    1 before it is folded in, so the fold compares cycles rather than their
    rotations."""
    best, peak = None, 0
    for value, tour, entries in answers:
        peak = max(peak, entries)
        if value is None:
            continue
        if from_city_1:
            at = tour.index(1)
            tour = tour[at:] + tour[:at]
        if best is None or (value, tour) < best:
            best = value, tour
    return None if best is None else Solution(*best, peak)


def _orbit_answers(inst: TspInstance, base: SetSystem, perms):
    """Answers of the restricted DP over every member of an orbit of base,
    one per first city, as one problem stream over base's lattice.  A member
    perm is the system relabel(base, sigma), sigma(j + 1) = perm[j] + 1
    (None: the identity); the perms are drawn lazily.  A base that lacks
    the empty or the full set has no tour and no problem."""
    arrays = base.level_arrays()
    if not (len(arrays[0]) and len(arrays[-1])):
        return
    lat = _Lattice.of_system(base)
    cols = [int(s).bit_length() - 1 for s in lat.levels[1]]  # each {first}'s column

    def problems():
        for perm in perms:
            for j in cols:
                c = int(lat.cities[j if perm is None else perm[j]])
                yield c, c, perm

    yield from _chain_dp(inst.dist, lat, problems())


def _chain_dp(d, lat, problems):
    """Answer chain problems (first, last, perm) over one lattice and one d,
    one (value, order, entries) per problem, in order.  The problems, any
    iterable, are cut into _sweep calls of about BATCH_ROWS rows, each
    problem counting the lattice's size."""
    batch = []
    for problem in problems:
        batch.append(problem)
        if len(batch) * lat.size >= BATCH_ROWS:
            yield from _sweep(d, lat, batch)
            batch = []
    if batch:
        yield from _sweep(d, lat, batch)


def _sweep(d, lat, problems):
    """Solve a list of chain problems (first, last, perm) over one lattice
    in one level sweep.  A problem asks for the cheapest chain from {first}
    up to top through the sets sigma(s), s a set of the lattice, where sigma
    maps column j to column perm[j] (None: the identity).  It pays d[c][e]
    for each step that adds city e after city c and d[c][last] after the
    last city c of top, the set of the lattice's cities.

    The problem's rows are the sets that hold sigma^-1(first), picked from
    the shared levels, never sorted or searched.  A level's table is laid
    out cities x rows, as a (|top| x rows + 1) array: [c, r + 1] holds row
    r's cheapest completion from its prefix-set sigma(s) ending at city c
    of top after sigma, and column 0 is the SENTINEL column, "no row".
    Levels are filled from |top| down to 1.  pos maps each (problem, set)
    of a level to its row's column, 0 when it has none.  The successors
    s | e of a row in the level above are found, CHUNK // |top| rows at a
    time, at the lattice column sigma^-1(e): looked up in a rank table for a
    dense lattice, perm or not, or gathered from a sparse lattice's index.
    rank[mask] is the mask's place in its level, written when that level
    becomes the level above and -1 before, so s | e with e in s, a set of
    the level being filled, reads as missing, as does a set the lattice
    lacks; it is the lattice's rank_table(), one per sweep, int32 over all
    2^|top| masks.  Read through pos, and plus e times the width of the
    level above, each gives the flat place of nxt[e, r] = B(s | e, e).  The
    values are the (min,+) product min_e d[c][e] + nxt[e, r] on packed
    values (see the module docstring), folded in one next city e at a time
    by one add and one minimum over the chunk's (c, r); a tie keeps the
    smaller city, which sits in the low bits.  Those bits become the int8 choices, so the
    stored choice is the smallest optimal next city in the problem's own
    labels, and following the choices from {first} gives the
    lexicographically smallest optimal order.  A row with no successor read
    only SENTINEL, so its values stay above ALIVE, and it is dropped, as no
    chain through it reaches top.

    Each add of the fill broadcasts a (|top| x 1) column of steps against
    a chunk's row of nxt.  Such a call costs about three times as much per
    cell while the row is shorter than about a third of numpy's ufunc
    buffer (8192 elements by default) as above it (numpy 2.4).  The sweep
    sets the buffer to FILL_BUFSIZE elements, which moves that threshold
    down to about 340 rows, and restores the caller's size on the way out,
    whether it returns or raises (numpy holds the size in a context
    variable).  The fill folds into one contiguous buffer allocated once per
    sweep, and each chunk's values are copied into the level's table once:
    filling a strided slice of the table directly lost the layout's gain.
    Each next city's candidates go to a second such buffer, of the tables'
    dtype and C-ordered like the first; a Fortran-ordered one made the fill
    slower.  The values, steps and both buffers take the dtype _packing
    picks from the weights; the gather indices and pos stay intp.

    Returns one (value, order, entries) per problem: order lists the cities
    of top from first, value and order are None when no chain reaches top,
    and entries counts the table's cells.
    """
    old_bufsize = np.setbufsize(FILL_BUFSIZE)
    try:
        return _sweep_levels(d, lat, problems)
    finally:
        np.setbufsize(old_bufsize)


def _packing(weights, m):
    """The dtype, SENTINEL and ALIVE of a sweep over m cities whose steps,
    closing steps included, are among weights: int32 when m * max|weight|
    stays below WEIGHT_BOUND32, int64 otherwise (see the module docstring)."""
    if m * int(np.abs(weights).max()) >= WEIGHT_BOUND32:
        return np.int64, SENTINEL, ALIVE
    return np.int32, SENTINEL32, ALIVE32


def _sweep_levels(d, lat, problems):
    """_sweep's work, under its buffer size."""
    m, count = len(lat.bits), len(problems)
    bits, cities, levels, index = lat.bits, lat.cities, lat.levels, lat.index
    out_of = np.array(d, dtype=np.int64)[cities]  # out_of[c][x] = d[cities[c]][x]
    dtype, sentinel, alive_below = _packing(out_of, m)
    every = np.arange(m)
    firsts = np.searchsorted(cities, [p[0] for p in problems])  # columns
    inv = None  # inv[e][p]: the lattice column that problem p labels e
    if any(p[2] is not None for p in problems):
        perms = np.array([every if p[2] is None else p[2] for p in problems])
        inv = np.ascontiguousarray(np.argsort(perms, axis=1).T)
    at_first = firsts if inv is None else inv[firsts, np.arange(count)]
    fbits = bits[at_first]
    # steps[e][c] = d[c][e] << SHIFT | e, so a candidate carries its next city
    steps = np.ascontiguousarray(out_of[:, cities].T << SHIFT | every[:, None], dtype=dtype)
    # level m is top alone, one column per problem; pos column 0 is "no row"
    pos = np.stack((np.zeros(count, dtype=np.int64), np.arange(1, count + 1)), axis=1)
    up_vals = np.full((m, count + 1), sentinel, dtype=dtype)
    up_vals[:, 1:] = out_of[:, [p[1] for p in problems]] << SHIFT
    entries = np.full(count, m, dtype=np.int64)
    pos_at, choices_at = [None] * (m + 1), [None] * m
    span = max(1, CHUNK // m)
    cells = m * min(span, count * max(map(len, levels)))
    v_buf, cand_buf = np.empty(cells, dtype=dtype), np.empty(cells, dtype=dtype)
    rank = lat.rank_table()
    for k in range(m - 1, 0, -1):
        level = levels[k]
        if rank is not None:
            rank[levels[k + 1]] = np.arange(len(levels[k + 1]), dtype=np.int32)
        if up_vals.shape[1] > 1:  # some row above reaches top
            rp, ri = np.nonzero((level & fbits[:, None]) != 0)  # twice as fast on bools as on int64
        else:
            rp = ri = np.zeros(0, dtype=np.int64)
        rows = len(rp)
        vals = np.empty((m, rows + 1), dtype=dtype)
        choices = np.empty((m, rows), dtype=np.int8)
        stride, pos_flat = pos.shape[1], pos.ravel()
        up_flat, e_places = up_vals.ravel(), every[:, None] * up_vals.shape[1]
        for lo in range(0, rows, span):
            rp_c, ri_c = rp[lo:lo + span], ri[lo:lo + span]
            width = len(rp_c)
            # cols[e, r]: the lattice column that row r's problem labels e.
            # Takes throughout: fancy indexing costs up to twice as much
            cols = every[:, None] if inv is None else inv.take(rp_c, axis=1)
            if rank is not None:  # succ[e, r]: where s | e lies in the level above, or -1
                succ = rank.take(level.take(ri_c) | bits.take(cols))
            else:
                succ = index[k].ravel().take(ri_c * m + cols)
            up = pos_flat.take(succ + (rp_c * stride + 1))  # column of s | e, or 0
            del succ
            up += e_places
            nxt = up_flat.take(up)  # nxt[e, r] = B(s | e, e), or SENTINEL
            v = v_buf[:m * width].reshape(m, width)
            cand = cand_buf[:m * width].reshape(m, width)
            np.add(steps[0][:, None], nxt[0], out=v)
            for e in range(1, m):
                np.add(steps[e][:, None], nxt[e], out=cand)
                np.minimum(v, cand, out=v)  # a tie keeps the smaller city
            np.bitwise_and(v, LOW, out=cand)
            choices[:, lo:lo + width] = cand
            v -= cand
            vals[:, 1 + lo:1 + lo + width] = v
            del up, nxt  # freed before the next chunk allocates
        up_vals = up_flat = None  # read in full: free it before this level is compacted
        alive = vals[0, 1:] < alive_below  # a row with no successor read only SENTINEL
        if not alive.all():
            kept = np.flatnonzero(alive)
            rp, ri, choices = rp[kept], ri[kept], choices[:, kept]
            vals = vals[:, np.append(0, kept + 1)]
        vals[:, 0] = sentinel
        pos = np.zeros((count, len(level) + 1), dtype=np.int64)
        pos[rp, ri + 1] = np.arange(1, len(rp) + 1)
        up_vals = vals
        pos_at[k], choices_at[k] = pos, choices
        entries += np.bincount(rp, minlength=count) * k
    # up_vals holds level 1 now; walk from each {first} found there, reading
    # the choice of the row in column at, ending at city col, at
    # choices[col, at - 1]
    key = fbits  # every {first} is a set of level 1
    at = pos[np.arange(count), np.searchsorted(levels[1], key) + 1]
    solved = np.flatnonzero(at)
    at, key, col = at[solved], key[solved], firsts[solved]
    values = up_vals[col, at] >> SHIFT
    order = np.empty((len(solved), m), dtype=np.int64)
    order[:, 0] = cities[col]
    for k in range(1, m):
        col = choices_at[k][col, at - 1]
        order[:, k] = cities[col]
        if k + 1 < m:
            key = key | bits[col if inv is None else inv[col, solved]]
            at = pos_at[k + 1][solved, np.searchsorted(levels[k + 1], key) + 1]
    out = [(None, None, e) for e in entries.tolist()]
    for p, value, tour in zip(solved.tolist(), values.tolist(), order.tolist()):
        out[p] = value, tuple(tour), out[p][2]
    return out


def _fixed_path(d, cities, a, b):
    """Cheapest order of cities from a, plus the step from its last city to b
    (b outside cities, or b == a to close a cycle): the chain DP over every
    subset of cities that holds a.  Returns (value, order)."""
    lat = _Lattice.of_cities(sorted(cities), a)
    [(value, order, _)] = _chain_dp(d, lat, [(a, b, None)])
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
    if switch_depth < 0:
        raise ValueError(f"switch depth must be nonnegative, got {switch_depth}")
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
        lat = _Lattice.of_cities(sorted(cities))
        problems = [(a, b, None) for a, b in product(starts, ends)]
        for (a, b, _), (value, order, _) in zip(problems, _chain_dp(d, lat, problems)):
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
    deterministic), which makes the solver an exact oracle.  A repeated draw
    of a split is skipped, as it can only tie its first draw.  Every split
    is a relabeling of one base split system, so all of them are swept over
    the base's lattice.  Every answer is rotated to start at city 1, as
    every other solver's is: a sampled split may support the optimal cycle
    only from another city.
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
    # split_system(n, chosen, t) is the base's image under the relabeling
    # that sends 1..half onto chosen and the rest onto the rest, both in order
    base = split_prefix_system(n, range(1, half + 1), alpha)
    everyone = set(range(1, n + 1))
    perms = (np.array([*chosen, *sorted(everyone.difference(chosen))]) - 1 for chosen in fresh)
    return _fold(_orbit_answers(inst, base, perms), from_city_1=True)


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
    covers its block's permutations.  Every tuple's product is a relabeling
    of the bases' product, so all of them are swept over that product's
    lattice.  A family is read only through its base, relabelings and
    covers_all.  A unique-mode family's removed sets are ignored: its plain
    relabelings are supersets of its members, so they still cover every
    permutation.  Each member's answer is the lowest (cyclic cost, order)
    among the orders it supports, and a complete cover supports every
    order, so value and tour are those of any complete cover; table_entries
    can only grow.
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
    # the tuple's union product is the image of the bases' union product
    # under the blockwise relabeling: one orbit
    base = reduce(union_product, [fam.base for fam in families])
    blocks, off = [], 0
    for fam, size in zip(families, sizes):
        blocks.append([np.array(sigma) - 1 + off for sigma in fam.relabelings])
        off += size
    best = _fold(_orbit_answers(inst, base, map(np.concatenate, product(*blocks))))
    if best is None:
        raise ValueError("no index tuple admits a tour")
    return best


# ---------------------------------------------------------------------------
# instance file format: line 1 "n <n>", then n rows of n integers.


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
