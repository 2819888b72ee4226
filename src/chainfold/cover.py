"""Families of isomorphic set systems that jointly cover all permutations.

A CoverFamily holds a base system plus relabelings sigma_j; member j is
relabel(base, sigma_j), minus an optional per-member removal list in unique
mode.  Plain mode guarantees every permutation of [n] is supported by at
least one member; unique mode by exactly one.

Coverage is counted, never listed.  The *signature* of a permutation is the
set A of members that support it.  One DP over states (prefix set s, live
members A) builds the histogram N(A) of signatures over all n!
permutations: it starts at (∅, members holding ∅), and a step s -> s|e keeps
A & where[s|e], where where[m] is the bitmask of the members that contain
m.  A path whose bitmask empties is an order that no member supports, so the
DP stops there.  Every coverage question reads the histogram:

    covers_all    no path dies
    exactly_once  no path dies and every signature is a single member
    greedy_prune  the gain of member j is the sum of N(A) over the A that
                  hold j and no kept member
    random_cover  covers_all on the family so far, after each draw

The DP is capped by the (s, A) states it holds at once (systems.STATE_BUDGET),
not by n: 79-107 B a state under tracemalloc (random covers at n = 10..13),
so about 110 MiB at the budget.

Unique mode rests on the *regular intersection* property: two systems F1, F2
are regularly intersecting when some witness G ⊆ F1 ∩ F2 catches every
permutation supported by both (at least one prefix in G) while touching no
permutation supported by F1 only.  The checker computes the maximal
candidate

    G* = {s in F1 ∩ F2 : s is not a prefix-set of any permutation
                          supported by F1 but not F2}

which is decision-complete: any valid witness is contained in G*, and G*
inherits both clauses, so a witness exists iff G* is one.  Uniqueness is then
manufactured by subtracting, from each member i, the union of its witnesses
against all earlier members -- exactly once per ordered pair, in index order,
making the result deterministic.  The permutations supported by F whose
chain passes through s number up_F(s) * down_F(s), the chain counts
(systems.chain_counts) from ∅ to s and from s to [n]; s lies on no chain
supported by F1 but not F2 iff that product is the same for F1 and for
F1 ∩ F2.

exact_min_cover and regularly_self_intersecting still enumerate the n!
relabelings, so they are capped at small n.
"""

from dataclasses import dataclass, field
from itertools import permutations as iter_permutations
from math import ceil, factorial
from os import path as os_path

import numpy as np

from . import systems
from .rng import SplitMix64
from .systems import (
    CapError,
    FormatError,
    SetSystem,
    chain_counts,
    check_permutation,
    count_chains,
    dump_system,
    load_system,
    read_headers,
    relabel,
    relabeling_orbit,
    supports,
)

SELF_INTERSECT_CAP = 6  # all n! relabelings checked


@dataclass
class CoverFamily:
    """Base system, relabelings, and optional unique-mode removals."""

    base: SetSystem
    relabelings: tuple
    unique_mode: bool = False
    removed: tuple = ()  # per member: tuple of masks dropped (unique mode)
    _systems: list = field(default=None, repr=False, compare=False)
    _covers_all: bool = field(default=None, repr=False, compare=False)
    _exactly_once: bool = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.relabelings)

    def systems(self) -> list[SetSystem]:
        """Member systems, in member order; cached."""
        if self._systems is None:
            members = [relabel(self.base, s) for s in self.relabelings]
            if self.unique_mode and self.removed:
                members = [_without(g, rm) for g, rm in zip(members, self.removed)]
            self._systems = members
        return self._systems


def _without(g: SetSystem, masks) -> SetSystem:
    """g less the given masks."""
    flat = np.concatenate(g.level_arrays())
    return SetSystem(g.n, flat[~np.isin(flat, np.asarray(masks, dtype=np.int64))])


def _add_member(where: dict, j: int, g: SetSystem) -> None:
    """Record member j in where = {set: bitmask of the members holding it}."""
    bit = 1 << j
    for m in np.concatenate(g.level_arrays()).tolist():
        where[m] = where.get(m, 0) | bit


def _histogram(family: CoverFamily):
    """_signatures over the family's members."""
    where: dict = {}
    for j, g in enumerate(family.systems()):
        _add_member(where, j, g)
    return _signatures(family.base.n, where)


def _signatures(n: int, where: dict):
    """The signature histogram {A: N(A)} of the members described by where:
    N(A) permutations of [n] are supported by exactly the members in the
    bitmask A.  None as soon as some permutation is supported by no member;
    otherwise the N(A) sum to n!.

    Swept level by level; a level is {s: {A: number of orders of s whose
    every prefix is held by exactly the members in A}}.  Raises CapError
    once more than systems.STATE_BUDGET (s, A) states are live at once: the
    level being swept plus the states created so far in the next.
    """
    budget = systems.STATE_BUDGET
    full = (1 << n) - 1
    start = where.get(0, 0)
    if not start:
        return None
    level, width = {0: {start: 1}}, 1
    for _ in range(n):
        live = width
        nxt: dict = {}
        for s, row in level.items():
            free = full & ~s
            while free:
                bit = free & -free
                free ^= bit
                s2 = s | bit
                held = where.get(s2, 0)
                if not held:
                    return None
                out = nxt.get(s2)
                if out is None:
                    out = nxt[s2] = {}
                for a, c in row.items():
                    a2 = a & held
                    if a2 in out:
                        out[a2] += c
                    elif not a2:
                        return None
                    else:
                        out[a2] = c
                        live += 1
                        if live > budget:
                            raise CapError(f"coverage DP holds over {budget} live states")
        level, width = nxt, live - width
    return level[full]


def covers_all(family: CoverFamily) -> bool:
    """True iff every permutation of [n] is supported by some member: no
    path of the signature DP dies.  Cached on the family; CapError when the
    DP would hold more than systems.STATE_BUDGET live states."""
    if family._covers_all is None:
        family._covers_all = _histogram(family) is not None
    return family._covers_all


def exactly_once(family: CoverFamily) -> bool:
    """Unique-mode check: every permutation is supported by exactly one
    member, i.e. the signature DP loses no path and every signature is a
    single member.  Cached on the family, with covers_all; CapError when the
    DP would hold more than systems.STATE_BUDGET live states."""
    if family._exactly_once is None:
        hist = _histogram(family)
        family._covers_all = hist is not None
        family._exactly_once = hist is not None and all(not a & (a - 1) for a in hist)
    return family._exactly_once


def prescribed_family_size(f: SetSystem) -> int:
    """The probabilistic-argument family size P(F)^n * n^2 (rounded up).

    Far above the minimum at small n; exposed for comparison only.
    """
    n = f.n
    c = count_chains(f)
    if c == 0:
        raise ValueError("base supports no permutation")
    # P^n * n^2 = (n!/C) * n^2, exact before rounding
    return ceil(factorial(n) * n * n / c)


def random_cover(base: SetSystem, seed: int, max_tries: int) -> CoverFamily:
    """Grow a family from seeded random relabelings until it covers all
    permutations.

    The first member is the identity relabeling (a deterministic anchor:
    bases that already cover everything yield a family of size 1); further
    members are uniform random permutations from the seeded generator.  The
    family so far is checked with the signature DP after each draw (see
    covers_all).  Raises ValueError if coverage is not reached within
    max_tries draws, CapError when a check would hold more than
    systems.STATE_BUDGET live states.
    """
    n = base.n
    if not count_chains(base):
        raise ValueError("base supports no permutation; cover impossible")
    gen = SplitMix64(seed)
    relabelings = [tuple(range(1, n + 1))]
    where: dict = {}
    _add_member(where, 0, base)
    tries = 0
    while _signatures(n, where) is None:
        if tries >= max_tries:
            raise ValueError(f"no complete cover within {max_tries} draws")
        sigma = gen.permutation(n)
        tries += 1
        _add_member(where, len(relabelings), relabel(base, sigma))
        relabelings.append(sigma)
    return CoverFamily(base, tuple(relabelings))


def greedy_prune(family: CoverFamily) -> CoverFamily:
    """Greedy set cover over the signature histogram: repeatedly keep the
    member that supports the most still-uncovered permutations, ties broken
    by lowest member index.  The gain of member j is the sum of N(A) over
    the signatures A that hold j and no kept member."""
    hist = _histogram(family)
    if hist is None:
        raise ValueError("family does not cover all permutations")
    keep = []
    while hist:
        gains = [0] * len(family)
        for a, c in hist.items():
            while a:
                low = a & -a
                gains[low.bit_length() - 1] += c
                a ^= low
        best = max(range(len(gains)), key=gains.__getitem__)
        keep.append(best)
        bit = 1 << best
        hist = {a: c for a, c in hist.items() if not a & bit}
    keep.sort()
    return CoverFamily(family.base, tuple(family.relabelings[j] for j in keep))


def exact_min_cover(base: SetSystem) -> CoverFamily:
    """Minimum-cardinality covering family, by branch and bound over the
    (deduplicated) relabelings of the base."""
    n = base.n
    if n > 5:
        raise CapError(f"exact_min_cover branches over {n}! relabelings; cap 5")
    perms = list(iter_permutations(range(1, n + 1)))  # lexicographic
    base_support = [p for p in perms if supports(base, p)]
    if not base_support:
        raise ValueError("base supports no permutation; cover impossible")
    index = {p: i for i, p in enumerate(perms)}
    universe = (1 << len(perms)) - 1
    # candidate supports as bitmasks over permutations, deduplicated
    seen = {}
    for sigma in perms:
        bits = 0
        for tau in base_support:
            bits |= 1 << index[tuple(sigma[v - 1] for v in tau)]
        if bits not in seen:
            seen[bits] = sigma
    cands = sorted(seen.items(), key=lambda kv: (-kv[0].bit_count(), kv[1]))
    cand_bits = [b for b, _ in cands]
    max_gain = max(b.bit_count() for b in cand_bits)

    best: list[int] = []
    best_size = len(cand_bits) + 1

    def descend(uncov: int, chosen: list[int]) -> None:
        nonlocal best, best_size
        if not uncov:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = list(chosen)
            return
        need = -(-uncov.bit_count() // max_gain)
        if len(chosen) + need >= best_size:
            return
        # branch on the uncovered permutation with fewest candidates
        low = uncov & -uncov
        options = [j for j, b in enumerate(cand_bits) if b & low]
        for j in options:
            chosen.append(j)
            descend(uncov & ~cand_bits[j], chosen)
            chosen.pop()

    descend(universe, [])
    relabelings = sorted(cands[j][1] for j in best)
    return CoverFamily(base, tuple(relabelings))


def regularly_intersecting(f1: SetSystem, f2: SetSystem):
    """Maximal-candidate witness for the regular-intersection property, or
    None when no witness exists.

    Returns the witness as a sorted tuple of masks; the empty tuple is a
    valid witness when no permutation is supported by both systems.  G*
    keeps the sets of F1 ∩ F2 through which F1 and F1 ∩ F2 route equally
    many supported chains; it is a witness iff no chain avoids it.
    """
    if f1.n != f2.n:
        raise ValueError("ground-set mismatch")
    return _witness(f1, _chains_through(f1), f2)


def _witness(f1: SetSystem, through1: dict, f2: SetSystem):
    """regularly_intersecting(f1, f2), given through1 = _chains_through(f1)."""
    flat1, flat2 = (np.concatenate(f.level_arrays()) for f in (f1, f2))
    f12 = SetSystem(f1.n, np.intersect1d(flat1, flat2, assume_unique=True))
    through12 = _chains_through(f12)
    candidate = tuple(m for m in f12.masks if through1.get(m, 0) == through12.get(m, 0))
    if count_chains(_without(f12, candidate)):
        return None
    return candidate


def _chains_through(f: SetSystem) -> dict:
    """{s: number of chains of f passing through s}: the chains from ∅ to s
    times those from s to [n], the latter counted from ∅ in the complements."""
    full = (1 << f.n) - 1
    down = chain_counts(SetSystem(f.n, full ^ np.concatenate(f.level_arrays())))
    return {s: c * down.get(full ^ s, 0) for s, c in chain_counts(f).items()}


def regularly_self_intersecting(f: SetSystem) -> bool:
    """True iff f is regularly intersecting with every relabeling of itself
    (exhaustive over distinct images; n capped)."""
    if f.n > SELF_INTERSECT_CAP:
        raise CapError(f"self-intersection checks {f.n}! relabelings; cap {SELF_INTERSECT_CAP}")
    return all(
        regularly_intersecting(f, SetSystem(f.n, g)) is not None for g in relabeling_orbit(f)
    )


def make_unique(family: CoverFamily) -> CoverFamily:
    """Turn a covering family whose members are pairwise regularly
    intersecting (as over a regularly self-intersecting base) into a
    unique-support family.

    Member i drops the union of its maximal witnesses against members k < i;
    the witness clauses guarantee each permutation survives in exactly the
    first member that supported it.  The result is then certified with
    exactly_once, which fails only when the input missed some permutation.
    """
    members = family.systems()
    removed = [()]
    for i in range(1, len(members)):
        through = _chains_through(members[i])
        drop: set[int] = set()
        for k in range(i):
            witness = _witness(members[i], through, members[k])
            if witness is None:
                raise ValueError(f"members {i} and {k} are not regularly intersecting")
            drop.update(witness)
        removed.append(tuple(sorted(drop, key=lambda m: (m.bit_count(), m))))
    unique = CoverFamily(family.base, family.relabelings, unique_mode=True, removed=tuple(removed))
    if not exactly_once(unique):
        raise ValueError("family does not cover all permutations")
    return unique


# ---------------------------------------------------------------------------
# file format: "base <file>", "mode plain|unique", one relabeling per line
# (space-separated images), then optional "removed <j>: <hex masks>" lines.


def dump_family(family: CoverFamily, path, base_path) -> None:
    dump_system(family.base, base_path)
    rel = os_path.relpath(base_path, os_path.dirname(os_path.abspath(path)))
    with open(path, "w", newline="\n") as fh:
        fh.write(f"base {rel}\n")
        fh.write(f"mode {'unique' if family.unique_mode else 'plain'}\n")
        for sigma in family.relabelings:
            fh.write(" ".join(map(str, sigma)) + "\n")
        if family.unique_mode:
            for j, masks in enumerate(family.removed, start=1):
                if masks:
                    fh.write(f"removed {j}: " + " ".join(format(m, "x") for m in masks) + "\n")


def load_family(path) -> CoverFamily:
    """Read a family file.  A plain-mode claim is verified with covers_all
    and a unique-mode claim with exactly_once: FormatError when some
    permutation is not supported at least (plain) or exactly (unique) once,
    CapError when the check would hold more than systems.STATE_BUDGET live
    states."""
    (base_path, mode), body = read_headers(path, "base", "mode")
    if not os_path.isabs(base_path):
        base_path = os_path.join(os_path.dirname(os_path.abspath(path)), base_path)
    base = load_system(base_path)
    if mode not in ("plain", "unique"):
        raise FormatError(f"{path}: unknown mode {mode!r}")
    relabelings = []
    removed: dict[int, tuple] = {}
    for ln in body:
        if ln.startswith("removed "):
            head, _, rest = ln.partition(":")
            try:
                j = int(head[8:])
                masks = tuple(int(t, 16) for t in rest.split())
            except ValueError:
                raise FormatError(f"{path}: bad removed line {ln!r}") from None
            if not 1 <= j <= len(relabelings):
                raise FormatError(f"{path}: removed index {j} out of range")
            removed[j] = masks
        else:
            try:
                sigma = tuple(int(t) for t in ln.split())
            except ValueError:
                raise FormatError(f"{path}: bad relabeling line {ln!r}") from None
            check_permutation(sigma, base.n)
            relabelings.append(sigma)
    if mode == "plain":
        if removed:
            raise FormatError(f"{path}: removed lines in plain mode")
        family = CoverFamily(base, tuple(relabelings))
        if not covers_all(family):
            raise FormatError(f"{path}: plain mode, but some permutation is not supported")
        return family
    rem = tuple(removed.get(j, ()) for j in range(1, len(relabelings) + 1))
    family = CoverFamily(base, tuple(relabelings), unique_mode=True, removed=rem)
    if not exactly_once(family):
        raise FormatError(f"{path}: unique mode, but some permutation is not supported once")
    return family
