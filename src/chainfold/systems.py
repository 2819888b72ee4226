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
normalization.  Permutations are tuples of the values 1..n.  All operations
are pure; values are immutable after construction and safe to share across
threads.
"""

import math
from dataclasses import dataclass
from itertools import chain
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
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
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


def successor_index(lower, upper, bits) -> np.ndarray:
    """idx[i, j] = position of lower[i] | bits[j] in the ascending int64
    array upper, or -1 where upper lacks it, as int32.  With upper one
    level above lower, a bit already in lower[i] reads -1.  Searched
    CHAIN_CELLS cells at a time, one bit at a time: lower ascends, so the
    sets plus one bit nearly do, which keeps each search close to the last."""
    idx = np.full((len(lower), len(bits)), -1, dtype=np.int32)
    if not len(upper):
        return idx
    rows = max(1, CHAIN_CELLS // max(len(bits), 1))
    for lo in range(0, len(lower), rows):
        succ = bits[:, None] | lower[lo : lo + rows]
        at = np.searchsorted(upper, succ)
        np.minimum(at, len(upper) - 1, out=at)  # past the end: clipped, misses
        idx[lo : lo + rows] = np.where(upper[at] == succ, at, -1).T
    return idx


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
    """Immutable collection of subsets of [n], grouped by cardinality."""

    __slots__ = ("n", "levels", "_mask_set", "_succ", "_elems", "_arrays", "_index")

    def __init__(self, n: int, masks):
        if n < 0:
            raise ValueError("ground-set size must be nonnegative")
        if n > GROUND_CAP:
            raise CapError(f"ground set {n} exceeds cap {GROUND_CAP}")
        top = 1 << n
        levels: list[list[int]] = [[] for _ in range(n + 1)]
        seen = set()
        for m in masks:
            if not 0 <= m < top:
                raise ValueError(f"mask {m:#x} outside ground set [{n}]")
            if m not in seen:
                seen.add(m)
                levels[m.bit_count()].append(m)
        self.n = n
        self.levels = tuple(tuple(sorted(lv)) for lv in levels)
        self._mask_set = frozenset(seen)
        self._succ = None
        self._elems = None
        self._arrays = None
        self._index = None

    @classmethod
    def _of_levels(cls, n: int, arrays) -> "SetSystem":
        """The system whose level k is arrays[k]: ascending, duplicate-free
        int64 masks of popcount k within [n], taken on trust."""
        f = cls.__new__(cls)
        f.n = n
        f.levels = tuple(tuple(a.tolist()) for a in arrays)
        f._mask_set = frozenset(chain.from_iterable(f.levels))
        f._succ = f._elems = f._index = None
        for a in arrays:
            a.flags.writeable = False
        f._arrays = tuple(arrays)
        return f

    @property
    def masks(self) -> tuple[int, ...]:
        """All masks, ascending by (popcount, value)."""
        return tuple(m for lv in self.levels for m in lv)

    def __len__(self) -> int:
        return len(self._mask_set)

    def __contains__(self, mask: int) -> bool:
        return mask in self._mask_set

    def mask_set(self) -> frozenset:
        return self._mask_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetSystem)
            and self.n == other.n
            and self._mask_set == other._mask_set
        )

    def __hash__(self) -> int:
        return hash((self.n, self._mask_set))

    def __repr__(self) -> str:
        return f"SetSystem(n={self.n}, size={len(self)})"

    def successors(self) -> dict:
        """mask -> tuple of (added element, next mask in F), ascending by
        added element; cached."""
        if self._succ is None:
            succ = {m: [] for m in self._mask_set}
            for lv in self.levels[1:]:
                for m in lv:
                    rest = m
                    while rest:
                        b = rest & -rest
                        prev = m ^ b
                        if prev in self._mask_set:
                            succ[prev].append((b.bit_length(), m))
                        rest ^= b
            self._succ = {m: tuple(v) for m, v in succ.items()}
        return self._succ

    def elements(self) -> dict:
        """mask -> tuple of its 1-based elements; cached."""
        if self._elems is None:
            self._elems = {m: elems_of(m) for m in self._mask_set}
        return self._elems

    def level_arrays(self) -> tuple:
        """levels as read-only ascending int64 arrays, one per cardinality;
        cached."""
        if self._arrays is None:
            arrays = tuple(np.array(lv, dtype=np.int64) for lv in self.levels)
            for a in arrays:
                a.flags.writeable = False
            self._arrays = arrays
        return self._arrays

    def successor_index(self) -> tuple:
        """Per level k < n, the read-only int32 array successor_index(
        level_arrays()[k], level_arrays()[k + 1], bits of 1..n): where in
        level k + 1 each set plus each element lies, -1 where F lacks it.
        Built on first use and cached; chain DPs read it instead of
        searching."""
        if self._index is None:
            arrays = self.level_arrays()
            bits = _BITS[: self.n]
            index = tuple(successor_index(a, b, bits) for a, b in zip(arrays, arrays[1:]))
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


def _chain_levels(f: SetSystem):
    """Path-count DP, one level at a time: yields (masks, counts) for the
    level's sets that some chain from ∅ reaches, as an ascending int64 array
    of masks and an array of their chain counts, from ∅ up, and stops at the
    first level no chain reaches.  Each set's count is the sum over its
    single-element-removed predecessors.

    A level is swept in chunks of about CHAIN_CELLS (element, set) cells.
    A chunk's set bits are taken bit-major, so within one element the
    predecessors ascend, and one searchsorted finds all of them among the
    reached sets of the level below.  A level-k count is at most k!, so
    counts are int64 through level INT64_LEVELS and Python ints (object
    arrays) above it.
    """
    if not f.levels[0]:
        return
    bits = _BITS[: f.n]
    column = bits[:, None]
    rows = max(1, CHAIN_CELLS // max(f.n, 1))
    masks, counts = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for k, level in enumerate(f.level_arrays()[1:], 1):
        if not len(masks):
            return
        yield masks, counts
        if k > INT64_LEVELS:
            counts = counts.astype(object)
        kept_masks, kept_counts = [level[:0]], [counts[:0]]
        for lo in range(0, len(level), rows):
            chunk = level[lo : lo + rows]
            bit, row = np.nonzero((chunk & column).astype(bool))
            preds = chunk[row] ^ bits[bit]
            at = np.searchsorted(masks, preds)  # past the end: clipped, misses
            hit = (masks.take(at, mode="clip") == preds).nonzero()[0]
            total = np.zeros(len(chunk), dtype=counts.dtype)
            np.add.at(total, row[hit], counts[at[hit]])
            reached = total.nonzero()[0]
            kept_masks.append(chunk[reached])
            kept_counts.append(total[reached])
        masks, counts = np.concatenate(kept_masks), np.concatenate(kept_counts)
    yield masks, counts


def count_chains(f: SetSystem) -> int:
    """Exact number of maximal chains ∅ = S_0 ⊊ ... ⊊ S_n = [n] within f,
    as a Python int.

    Keeps only the last level of the path-count DP, so at most two levels
    and one chunk's temporaries are held at a time.
    """
    masks = counts = ()
    for masks, counts in _chain_levels(f):
        pass
    if len(masks) and masks[-1] == (1 << f.n) - 1:
        return int(counts[-1])
    return 0


def chain_counts(f: SetSystem) -> dict:
    """{set: number of chains from ∅ to it within f} over the sets of f that
    some chain from ∅ reaches (sets it misses are absent); Python ints."""
    return {
        m: c
        for masks, counts in _chain_levels(f)
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
    shift = f1.n
    m1 = f1.masks
    return SetSystem(n, (a | (b << shift) for b in f2.masks for a in m1))


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
    arrays = f.level_arrays()
    images = image_masks(np.concatenate(arrays), sigma)
    # an image keeps its popcount, so each level maps onto itself
    levels, lo = [], 0
    for a in arrays:
        levels.append(np.sort(images[lo : lo + len(a)]))
        lo += len(a)
    return SetSystem._of_levels(f.n, levels)


def closure_from_permutations(n: int, perms) -> SetSystem:
    """Minimal system supporting every given permutation: the union of all
    their prefix-sets.  Duplicate permutations are deduplicated silently."""
    masks = set()
    for p in perms:
        check_permutation(p, n)
        masks.update(prefix_chain(p))
    return SetSystem(n, masks)


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
        fh.write(f"n {f.n}\n")
        fh.write(f"count {len(f)}\n")
        for m in f.masks:
            fh.write(format(m, "x") + "\n")


def load_system(path) -> SetSystem:
    (n, count), body = read_int_headers(path, "n", "count")
    if n < 0:
        raise FormatError(f"{path}: negative ground-set size")
    if n > GROUND_CAP:
        raise CapError(f"{path}: ground set {n} exceeds cap {GROUND_CAP}")
    if len(body) != count:
        raise FormatError(f"{path}: count says {count}, found {len(body)} masks")
    masks = []
    prev_key = None
    for ln in body:
        try:
            m = int(ln, 16)
        except ValueError:
            raise FormatError(f"{path}: bad hex mask {ln!r}") from None
        if m < 0 or m >= 1 << n:
            raise FormatError(f"{path}: mask {ln} outside ground set [{n}]")
        key = (m.bit_count(), m)
        if prev_key is not None and key <= prev_key:
            raise FormatError(f"{path}: masks not ascending by (popcount, value)")
        prev_key = key
        masks.append(m)
    return SetSystem(n, masks)
