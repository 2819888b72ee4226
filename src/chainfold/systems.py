"""Set systems over a ground set [n] and their chain/permutation structure.

A set s ⊆ [n] is an n-bit mask (bit i-1 = element i).  A SetSystem is a
duplicate-free collection of such masks, stored per cardinality so that the
maximal-chain count is a single upward sweep:

    paths(empty) = 1,  paths(s) = sum of paths(s minus e) over e with s minus e in F

and C(F) = paths([n]).  A permutation pi of [n] is *supported* by F when all
of its prefix-sets {pi(1)..pi(i)} are in F; supported permutations are in
bijection with maximal chains.  The normalized quantities

    S(F) = |F|^(1/n)        (space base of the restricted DP)
    P(F) = (n!/C(F))^(1/n)  (inverse chain density; guessing overhead)

drive everything downstream: a system with small S and P yields a TSP
algorithm with space S^(n+o(n)) and time (S*P)^(n+o(n)).

Chain counts are exact: a level-k count is at most k!, so the sweep keeps
them in int64 through level 20 (20! < 2^63) and in Python ints above it,
and returns Python ints; floats enter only in the final metric
normalization.

Every sweep over a system finds a set's neighbours one level up or down in
one of two ways, chosen by one rule on n and |F| alone (_dense): the chain
sweep, the build of the successor index, and the TSP sweep over a _Lattice.
A dense system, 2^n <= |F|*n, looks them up in a rank table: one int32 per
mask of [n], holding the place of each set of one level and -1 everywhere
else, so the table holds no more cells than the successor index and is
freed on return.  So a dense system hands the TSP sweep no index, and keeps
none.  A sparse system searches the ascending level arrays instead, and
its lattice carries the successor index, built once and cached.

Permutations are tuples of the values 1..n.  All operations are pure;
values are immutable after construction and safe to share across threads.
"""

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations

import numpy as np

GROUND_CAP = 63  # sparse systems stay within one machine word
ORACLE_CAP = 10  # n! enumeration oracles
CHAIN_CELLS = 1 << 16  # (element, set) cells of one chunk of the chain sweep
INT64_LEVELS = 20  # chain counts stay int64 through this level: 20! < 2^63
# live states a DP may hold at once: the semiring DP's (mask, tail) states and
# the coverage DP's (prefix set, live members) states; semiring and cover give
# their bytes per state
STATE_BUDGET = 1 << 20
_BITS = np.int64(1) << np.arange(GROUND_CAP, dtype=np.int64)  # element i+1 -> bit i
_BYTE_BITS = np.arange(256)[:, None] >> np.arange(8) & 1  # [v, j]: bit j of the byte v


class CapError(ValueError):
    """A resource cap (ground-set size, enumeration limit) was exceeded."""


class EmptyGroundSetError(ValueError):
    """Operation requires a nonempty ground set (the normalizations use 1/n)."""


class FormatError(ValueError):
    """A serialized artifact violates its file format or invariants."""


def read_headers(path, *keys) -> tuple[list[str], list[str]]:
    """Read the non-blank stripped lines of a text file.  The first lines
    must be `key value` headers, one per key in order; returns their values
    and the lines after them."""
    with open(path) as fh:  # text mode reads every line end as "\n"
        lines = [ln for ln in map(str.strip, fh.read().split("\n")) if ln]
    head = lines[: len(keys)]
    if len(head) < len(keys) or not all(ln.startswith(k + " ") for ln, k in zip(head, keys)):
        raise FormatError(f"{path}: missing {'/'.join(map(repr, keys))} header")
    return [ln[len(k) + 1 :] for ln, k in zip(head, keys)], lines[len(keys) :]


def read_int_headers(path, *keys) -> tuple[list[int], list[str]]:
    """read_headers for headers whose values are integers."""
    values, body = read_headers(path, *keys)
    try:
        return [int(v) for v in values], body
    except ValueError as exc:
        raise FormatError(f"{path}: bad header: {exc}") from None


def mask_of(elems) -> int:
    """Bitmask of an iterable of 1-based elements."""
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def elems_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based elements of a bitmask."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def submasks(mask: int) -> np.ndarray:
    """Every submask of mask, ascending, as an int64 array: each set bit,
    lowest first, doubles the array with that bit added."""
    subs = np.zeros(1, dtype=np.int64)
    rest = mask
    while rest:
        low = rest & -rest
        subs = np.concatenate((subs, subs | low))
        rest ^= low
    return subs


def split_levels(masks, n: int) -> list:
    """The ascending int64 masks within [n] as n + 1 read-only arrays, one
    per popcount: a stable sort by popcount keeps each level ascending."""
    level = np.bitwise_count(masks)
    return _cut_levels(masks[np.argsort(level, kind="stable")], level, n)


def _cut_levels(masks, level, n: int) -> list:
    """The int64 masks within [n], ascending by (popcount, value), as n + 1
    read-only arrays, one per popcount; level holds their popcounts, in any
    order.  masks itself is made read-only."""
    masks.flags.writeable = False  # and so are its slices
    ends = np.cumsum(np.bincount(level, minlength=n + 1)).tolist()
    return [masks[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _dense(n: int, size: int) -> bool:
    """The density rule: a system of size sets over [n] is dense when
    2^n <= size*n, so that a rank table over its 2^n masks holds no more
    cells than its successor index."""
    return 1 << n <= size * n


def _rank_table(n: int, size: int):
    """An all -1 int32 table over the 2^n masks of [n] for a system of size
    sets when it is dense (_dense); None when it is sparse."""
    return np.full(1 << n, -1, dtype=np.int32) if _dense(n, size) else None


def successor_index(lower, upper, bits, rank=None) -> np.ndarray:
    """idx[i, j] = position of lower[i] | bits[j] in the ascending int64
    array upper, or -1 where upper lacks it, as int32.  With upper one
    level above lower, a bit already in lower[i] reads -1.  Filled
    CHAIN_CELLS cells at a time.  Given a _rank_table, upper's ranks are
    written into it, read with one take, and cleared again: a bit already
    in lower[i] gives a set of lower's level, which holds no rank.  Without
    one, each bit's sets are searched in upper: lower ascends, so the sets
    plus one bit nearly do, which keeps each search close to the last."""
    shape, rows = (len(lower), len(bits)), max(1, CHAIN_CELLS // max(len(bits), 1))
    if rank is not None:
        idx = np.empty(shape, dtype=np.int32)
        rank[upper] = np.arange(len(upper), dtype=np.int32)
        for lo in range(0, len(lower), rows):  # every mask lies in the table: clip checks nothing
            rank.take(lower[lo : lo + rows, None] | bits, out=idx[lo : lo + rows], mode="clip")
        rank[upper] = -1
        return idx
    idx = np.full(shape, -1, dtype=np.int32)
    if not len(upper):
        return idx
    for lo in range(0, len(lower), rows):
        succ = bits[:, None] | lower[lo : lo + rows]
        at = np.searchsorted(upper, succ)
        np.minimum(at, len(upper) - 1, out=at)  # past the end: clipped, misses
        idx[lo : lo + rows] = np.where(upper[at] == succ, at, -1).T
    return idx


class _Lattice:
    """The sets a sweep runs over, in column space: bit j of a mask, and
    row j of the sweep's tables, stand for the city cities[j], and top is
    the set of all of them.  levels[k] holds the sets of k cities as an
    ascending int64 array, and size counts the sets of every level.

    A sweep finds s plus bit j, for s in levels[k], in one of two ways, and
    the lattice says which.  A sparse lattice carries index: index[k] gives
    where in levels[k + 1] each set of levels[k] plus bit j lies, -1 where
    it is missing.  A dense lattice carries none (index None); rank_table()
    hands each of its sweeps a _rank_table, into which the sweep writes the
    ranks of each level as it reaches it.  A system's lattice is dense or
    sparse by the density rule (_dense), and every lattice of_cities builds
    over two or more cities is dense.  Problems over either kind may carry
    a perm."""

    __slots__ = ("cities", "bits", "levels", "size", "index")

    def __init__(self, cities, levels, index=None):
        self.cities = np.array(cities, dtype=np.int64)
        self.bits = _BITS[: len(self.cities)]
        self.levels = levels
        self.size = sum(map(len, levels))
        self.index = index

    @staticmethod
    def of_system(f: "SetSystem") -> "_Lattice":
        """f's sets over the cities 1..n, with f's cached successor index
        when f is sparse and no index when it is dense."""
        index = None if _dense(f.n, len(f)) else f.successor_index()
        return _Lattice(range(1, f.n + 1), f.level_arrays(), index)

    @staticmethod
    def of_cities(cities, first=None) -> "_Lattice":
        """Every subset of the ascending cities that holds first (None:
        every subset), without an index.  A problem's rows are the sets that
        hold its first city, so any lattice with more sets serves it too."""
        m = len(cities)
        if first is None:
            masks = np.arange(1 << m, dtype=np.int64)
        else:  # the subsets of the other m - 1 columns, with a 1 slid in at first's column
            low, fbit = np.arange(1 << (m - 1), dtype=np.int64), 1 << cities.index(first)
            masks = low & -fbit  # the bits at and above first's column...
            masks += low  # ...move one place up
            masks |= fbit
        return _Lattice(cities, split_levels(masks, m))

    def rank_table(self):
        """A fresh _rank_table over the 2^|top| masks for one sweep of a
        dense lattice; None for a sparse one, whose index the sweep reads."""
        return None if self.index is not None else _rank_table(len(self.bits), self.size)


def image_masks(masks, sigma) -> np.ndarray:
    """The int64 masks mapped elementwise through the permutation sigma
    (element i -> sigma(i)): each byte of a mask is looked up in a table of
    the images of its 256 values, and the lookups are or-ed together."""
    masks = np.asarray(masks, dtype=np.int64)
    image = _BITS[np.asarray(sigma, dtype=np.int64) - 1]  # element i + 1 -> bit of sigma(i + 1)
    out = np.zeros(masks.shape, dtype=np.int64)
    for lo in range(0, len(image), 8):
        part = image[lo : lo + 8]
        # the images are distinct bits, so summing a value's images ors them
        table = _BYTE_BITS[: 1 << len(part), : len(part)] @ part
        out |= table[masks >> lo & len(table) - 1]
    return out


def check_permutation(perm, n: int) -> None:
    if len(perm) != n or sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of [{n}]: {perm!r}")


class SetSystem:
    """Immutable collection of subsets of [n], grouped by cardinality.

    SetSystem(n, masks) takes the masks as an int64 array or any iterable of
    ints, in any order and with duplicates.  It raises ValueError for n < 0,
    CapError for n > GROUND_CAP, and ValueError naming the first mask, in
    input order, outside [0, 2^n).  It then keeps each distinct mask once,
    in level_arrays(): per popcount k, the ascending masks of k elements as
    a read-only int64 array.  Those arrays are the only stored masks, 8 B a
    set; len, == and hash read them and n.  The Python views are built from
    them on demand: levels (per popcount, the ascending tuple of masks) and
    masks on every read, and mask_set(), successors() and elements() on
    their first call and then cached.  successor_index() is cached too, and
    only a TSP sweep over a sparse system (_Lattice.of_system) calls it.
    """

    __slots__ = ("n", "_arrays", "_size", "_mask_set", "_succ", "_elems", "_index")

    def __init__(self, n: int, masks):
        if n < 0:
            raise ValueError("ground-set size must be nonnegative")
        if n > GROUND_CAP:
            raise CapError(f"ground set {n} exceeds cap {GROUND_CAP}")
        if not isinstance(masks, np.ndarray):
            masks = list(masks)  # a generator is read once; an error rereads the list
        try:
            arr = np.asarray(masks, dtype=np.int64)
            outside = (arr >> n).any()  # a mask negative, or 2^n and above
        except OverflowError:  # an int beyond int64, outside every [n]
            outside = True
        if outside:
            first = next(m for m in masks if not 0 <= m < 1 << n)
            raise ValueError(f"mask {int(first):#x} outside ground set [{n}]")
        # strictly ascending input (tower, core, powerset) skips the dedup,
        # and input strictly ascending by (popcount, value) (load_system)
        # skips both sorts as well: it falls in value only where its
        # popcount rises, at most n times
        rise = arr[1:] > arr[:-1]
        falls = len(rise) - np.count_nonzero(rise)
        level = np.bitwise_count(arr) if 0 < falls <= n else None
        if not falls:
            levels = split_levels(arr, n)
        elif level is not None and (
            (level[1:] > level[:-1]) | (level[1:] == level[:-1]) & rise
        ).all():
            levels = _cut_levels(arr.copy(), level, n)  # the copy: arr may be the caller's
        else:
            # sort-based dedup: np.unique took 966 ms on 2^20 int64 masks, np.sort 14 ms
            arr = np.sort(arr)
            keep = np.ones(len(arr), dtype=bool)
            keep[1:] = arr[1:] != arr[:-1]
            arr = arr[keep]
            levels = split_levels(arr, n)
        self.n = n
        self._arrays = tuple(levels)
        self._size = len(arr)
        self._mask_set = self._succ = self._elems = self._index = None

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """Per popcount k, the ascending tuple of the masks of k elements."""
        return tuple(tuple(a.tolist()) for a in self._arrays)

    @property
    def masks(self) -> tuple[int, ...]:
        """All masks, ascending by (popcount, value)."""
        return tuple(np.concatenate(self._arrays).tolist())

    def __len__(self) -> int:
        return self._size

    def __contains__(self, mask: int) -> bool:
        return mask in self.mask_set()

    def mask_set(self) -> frozenset:
        """The masks as a frozenset; built on the first call and cached."""
        if self._mask_set is None:
            self._mask_set = frozenset(self._mask_ints())
        return self._mask_set

    def _mask_ints(self):
        """The masks as Python ints, in no fixed order.  When successors()
        is cached, its keys are the masks, so a view built later shares
        their int objects instead of making one more per set."""
        return self._succ if self._succ is not None else np.concatenate(self._arrays).tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetSystem)
            and self.n == other.n
            and all(map(np.array_equal, self._arrays, other._arrays))
        )

    def __hash__(self) -> int:
        # equal systems hold equal level arrays, so equal bytes
        return hash((self.n, *(a.tobytes() for a in self._arrays)))

    def __repr__(self) -> str:
        return f"SetSystem(n={self.n}, size={len(self)})"

    def successors(self) -> dict:
        """mask -> tuple of (added element, next mask in F), ascending by
        added element; cached.  Read off the successor index level by level
        (_level_indexes), row by row in its column order (column j is
        element j + 1), so no index is kept for the map.  Each level's
        tolist() gives both its masks' keys and the next masks of the level
        below, so the map holds one int object per set."""
        if self._succ is None:
            levels = [a.tolist() for a in self._arrays]
            succ = dict.fromkeys(levels[-1], ())
            for lower, upper, idx in zip(levels, levels[1:], self._level_indexes()):
                hit = idx >= 0
                rows, cols = np.nonzero(hit)  # row-major: by set, then by element
                pairs = [(j + 1, upper[i]) for j, i in zip(cols.tolist(), idx[hit].tolist())]
                ends = np.cumsum(np.bincount(rows, minlength=len(lower))).tolist()
                for m, lo, hi in zip(lower, [0, *ends], ends):
                    succ[m] = tuple(pairs[lo:hi])
            self._succ = succ
        return self._succ

    def elements(self) -> dict:
        """mask -> tuple of its 1-based elements; cached."""
        if self._elems is None:
            self._elems = {m: elems_of(m) for m in self._mask_ints()}
        return self._elems

    def level_arrays(self) -> tuple:
        """levels as read-only ascending int64 arrays, one per cardinality."""
        return self._arrays

    def _level_indexes(self):
        """The arrays of successor_index(), one level at a time: the cached
        ones when a sweep has built them, else each built as it is reached,
        through one _rank_table when the system is dense."""
        if self._index is not None:
            return iter(self._index)
        arrays, bits, rank = self._arrays, _BITS[: self.n], _rank_table(self.n, self._size)
        return (successor_index(a, b, bits, rank) for a, b in zip(arrays, arrays[1:]))

    def successor_index(self) -> tuple:
        """Per level k < n, the read-only int32 array successor_index(
        level_arrays()[k], level_arrays()[k + 1], bits of 1..n): where in
        level k + 1 each set plus each element lies, -1 where F lacks it.
        Built on first use and cached, |F|*n cells for the system's life:
        the TSP sweep over a sparse system reads it instead of searching."""
        if self._index is None:
            index = tuple(self._level_indexes())
            for a in index:
                a.flags.writeable = False
            self._index = index
        return self._index


@dataclass(frozen=True)
class Metrics:
    """Exact counts plus the normalized size/density pair."""

    sets: int
    chains: int
    size_s: float
    density_p: float
    product_st: float  # S^2 * P, the space-time product of the induced solver


def prefix_chain(perm) -> tuple[int, ...]:
    """The n+1 prefix-sets of a permutation, from empty set to full set."""
    n = len(perm)
    check_permutation(perm, n)
    out = [0]
    m = 0
    for v in perm:
        m |= 1 << (v - 1)
        out.append(m)
    return tuple(out)


def supports(f: SetSystem, perm) -> bool:
    """True iff every prefix-set of perm is in f."""
    if len(perm) != f.n:
        raise ValueError(f"permutation of [{len(perm)}] vs ground set [{f.n}]")
    ms = f.mask_set()
    if 0 not in ms:
        return False
    m = 0
    for v in perm:
        m |= 1 << (v - 1)
        if m not in ms:
            return False
    return True


def _chain_levels(n: int, levels):
    """Path-count DP over the ascending int64 level arrays of a system on
    [n], one level at a time: yields (masks, counts) for the level's sets
    that some chain from ∅ reaches, as an ascending int64 array of masks and
    an array of their chain counts, from ∅ up, and stops at the first level
    no chain reaches.  Each set's count is the sum over its
    single-element-removed predecessors.

    A level is swept in chunks of about CHAIN_CELLS (element, set) cells.
    When the system is dense (_rank_table), the reached sets of the level
    below hold their ranks in the table and ext is their counts with one
    trailing 0, so a chunk's counts are ext.take(rank.take(chunk ^ column))
    summed over the elements: a bit in s gives s minus that element, and a
    bit outside s gives a set two levels up, which holds no rank and reads
    the 0.  When it is sparse, a chunk's set bits are taken bit-major, so
    within one element the predecessors ascend, and one searchsorted finds
    all of them among the reached sets of the level below.  A level-k count
    is at most k!, so counts are int64 through level INT64_LEVELS and Python
    ints (object arrays) above it.
    """
    if not len(levels[0]):
        return
    bits = _BITS[:n]
    column = bits[:, None]
    rows = max(1, CHAIN_CELLS // max(n, 1))
    rank = _rank_table(n, sum(map(len, levels)))
    masks, counts = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for k, level in enumerate(levels[1:], 1):
        if not len(masks):
            return
        yield masks, counts
        if k > INT64_LEVELS:
            counts = counts.astype(object)
        if rank is not None:
            rank[masks] = np.arange(len(masks), dtype=np.int32)
            ext = np.append(counts, 0)  # rank -1 reads the trailing 0
        kept_masks, kept_counts = [level[:0]], [counts[:0]]
        for lo in range(0, len(level), rows):
            chunk = level[lo : lo + rows]
            if rank is not None:
                total = ext.take(rank.take(chunk ^ column, mode="clip")).sum(axis=0)
            else:
                bit, row = np.nonzero((chunk & column).astype(bool))
                preds = chunk[row] ^ bits[bit]
                at = np.searchsorted(masks, preds)  # past the end: clipped, misses
                hit = (masks.take(at, mode="clip") == preds).nonzero()[0]
                total = np.zeros(len(chunk), dtype=counts.dtype)
                np.add.at(total, row[hit], counts[at[hit]])
            reached = total.nonzero()[0]
            kept_masks.append(chunk[reached])
            kept_counts.append(total[reached])
        if rank is not None:
            rank[masks] = -1
        masks, counts = np.concatenate(kept_masks), np.concatenate(kept_counts)
    yield masks, counts


def count_level_chains(n: int, levels) -> int:
    """Exact number of maximal chains ∅ = S_0 ⊊ ... ⊊ S_n = [n] through the
    ascending int64 level arrays of a system on [n], as a Python int.

    Keeps only the last level of the path-count DP, so at most two levels,
    one chunk's temporaries and, for a dense system, the rank table are
    held at a time.
    """
    masks = counts = ()
    for masks, counts in _chain_levels(n, levels):
        pass
    if len(masks) and masks[-1] == (1 << n) - 1:
        return int(counts[-1])
    return 0


def count_chains(f: SetSystem) -> int:
    """Exact number of maximal chains of f, as a Python int
    (count_level_chains over its level arrays)."""
    return count_level_chains(f.n, f.level_arrays())


def chain_counts(f: SetSystem) -> dict:
    """{set: number of chains from ∅ to it within f} over the sets of f that
    some chain from ∅ reaches (sets it misses are absent); Python ints."""
    return {
        m: c
        for masks, counts in _chain_levels(f.n, f.level_arrays())
        for m, c in zip(masks.tolist(), counts.tolist())
    }


def metrics(f: SetSystem) -> Metrics:
    """Exact |F| and C(F); normalized S(F), P(F) and the product S^2*P."""
    if f.n == 0:
        raise EmptyGroundSetError("metrics need a ground set of size >= 1")
    size = len(f)
    chains = count_chains(f)
    s = math.exp(math.log(size) / f.n)
    if chains == 0:
        p = math.inf
    else:
        p = math.exp((math.log(math.factorial(f.n)) - math.log(chains)) / f.n)
    return Metrics(size, chains, s, p, s * s * p)


def supported_permutation_count(f: SetSystem) -> int:
    """Count supported permutations by brute enumeration of all n!.

    Independent oracle for count_chains; refuses n beyond the enumeration cap.
    """
    if f.n > ORACLE_CAP:
        raise CapError(f"n={f.n} too large for the n! enumeration oracle")
    return sum(supports(f, p) for p in iter_permutations(range(1, f.n + 1)))


def union_product(f1: SetSystem, f2: SetSystem) -> SetSystem:
    """All unions s1 ∪ (s2 shifted past [n1]) over pairs from f1 x f2.

    Sizes multiply; chain counts multiply times the interleaving binomial
    C(n1+n2, n1).
    """
    n = f1.n + f2.n
    if n > GROUND_CAP:
        raise CapError(f"combined ground set {n} exceeds cap {GROUND_CAP}")
    m1 = np.concatenate(f1.level_arrays())
    m2 = np.concatenate(f2.level_arrays())
    return SetSystem(n, (m2[:, None] << f1.n | m1).ravel())


def induced_split(perm, sizes) -> tuple[tuple[int, ...], ...]:
    """Split perm into the orders it induces on consecutive ground-set blocks.

    Block i covers sizes[i] consecutive elements; each part keeps the relative
    order of its block's elements, renumbered from 1.
    """
    n = len(perm)
    check_permutation(perm, n)
    sizes = tuple(sizes)
    if any(s <= 0 for s in sizes) or sum(sizes) != n:
        raise ValueError(f"block sizes {sizes} do not partition [{n}]")
    parts = []
    lo = 0
    for s in sizes:
        hi = lo + s
        parts.append(tuple(v - lo for v in perm if lo < v <= hi))
        lo = hi
    return tuple(parts)


def relabel(f: SetSystem, sigma) -> SetSystem:
    """Map every set elementwise through the permutation sigma."""
    check_permutation(sigma, f.n)
    return SetSystem(f.n, image_masks(np.concatenate(f.level_arrays()), sigma))


def relabeling_orbit(f: SetSystem) -> set[frozenset]:
    """Distinct images of f under all n! relabelings, each as a frozenset of
    masks.  Exhaustive; capped by the n! oracle limit."""
    if f.n > ORACLE_CAP:
        raise CapError(f"n={f.n} too large for relabeling enumeration")
    return {relabel(f, sigma).mask_set() for sigma in iter_permutations(range(1, f.n + 1))}


# ---------------------------------------------------------------------------
# file format: line 1 "n <n>", line 2 "count <|F|>", then one lowercase hex
# mask per line, ascending by (popcount, value).


def dump_system(f: SetSystem, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"n {f.n}\ncount {len(f)}\n")
        for level in f.level_arrays():  # one write a level
            fh.write("".join(["%x\n" % m for m in level.tolist()]))


def load_system(path) -> SetSystem:
    """Read a system file.  A fault is reported for the first line, in file
    order, that has one: a bad hex mask, then a mask outside [n], then a
    mask not above the line before it by (popcount, value).  The lines are
    parsed with int(_, 16) and checked in numpy."""
    (n, count), body = read_int_headers(path, "n", "count")
    if n < 0:
        raise FormatError(f"{path}: negative ground-set size")
    if n > GROUND_CAP:
        raise CapError(f"{path}: ground set {n} exceeds cap {GROUND_CAP}")
    if len(body) != count:
        raise FormatError(f"{path}: count says {count}, found {len(body)} masks")
    try:
        values, bad = [int(ln, 16) for ln in body], None
    except ValueError:  # parse up to the first bad line: faults before it come first
        values = []
        for bad in body:
            try:
                values.append(int(bad, 16))
            except ValueError:
                break
    try:
        masks = np.array(values, dtype=np.int64)
    except OverflowError:  # from the first value beyond int64 on, every mask is outside [n]
        first = next(i for i, m in enumerate(values) if not -1 << 63 <= m < 1 << 63)
        masks = np.array(values[:first], dtype=np.int64)
    outside = np.flatnonzero(masks >> n)  # a mask negative, or 2^n and above
    inside = masks[: outside[0] if len(outside) else len(masks)]
    level = np.bitwise_count(inside)
    up = (level[1:] > level[:-1]) | ((level[1:] == level[:-1]) & (inside[1:] > inside[:-1]))
    if not up.all():
        raise FormatError(f"{path}: masks not ascending by (popcount, value)")
    if len(inside) < len(values):
        raise FormatError(f"{path}: mask {body[len(inside)]} outside ground set [{n}]")
    if bad is not None:
        raise FormatError(f"{path}: bad hex mask {bad!r}")
    return SetSystem(n, inside)
