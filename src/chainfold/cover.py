"""Families of isomorphic set systems that jointly cover all permutations.

A CoverFamily holds a base system plus relabelings sigma_j; member j is
relabel(base, sigma_j), minus an optional per-member removal list in unique
mode.  Plain mode guarantees every permutation of [n] is supported by at
least one member; unique mode by exactly one.

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
making the result deterministic.

Both unique-mode properties are certified by counting maximal chains, never
by listing permutations.  With C the chain count (systems.count_chains),
a family supports every permutation exactly once iff the C(F_i) sum to n!
and every C(F_i ∩ F_j) is 0.  The permutations supported by F whose chain
passes through s number up_F(s) * down_F(s), the chain counts from ∅ to s
and from s to [n]; s lies on no chain supported by F1 but not F2 iff that
product is the same for F1 and for F1 ∩ F2.  Coverage itself has no such
counting form: covers_all, random_cover, greedy_prune and exact_min_cover
still enumerate the n! permutations, and regularly_self_intersecting the n!
relabelings, so those are capped at small n.
"""

from dataclasses import dataclass, field
from itertools import combinations, permutations as iter_permutations
from math import ceil, factorial
from os import path as os_path

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

COVER_CAP = 10  # coverage verified by enumerating all n! permutations
SELF_INTERSECT_CAP = 6  # all n! relabelings checked
# k(k-1)/2 * |F|.  Each pairwise chain count pays numpy's fixed cost per
# level, so small bases cost the most per set: at the edge, about 5.8 us per
# set for |F| = 12 at n = 4 (58 s) and 1.7 us for |F| = 80 at n = 7 (17 s),
# so under a minute
EXACT_ONCE_BUDGET = 10**7


@dataclass
class CoverFamily:
    """Base system, relabelings, and optional unique-mode removals."""

    base: SetSystem
    relabelings: tuple
    unique_mode: bool = False
    removed: tuple = ()  # per member: tuple of masks dropped (unique mode)
    _systems: list = field(default=None, repr=False, compare=False)
    _exactly_once: bool = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.relabelings)

    def systems(self) -> list[SetSystem]:
        """Member systems, in member order; cached."""
        if self._systems is None:
            members = [relabel(self.base, s) for s in self.relabelings]
            if self.unique_mode and self.removed:
                members = [
                    SetSystem(g.n, g.mask_set() - set(rm))
                    for g, rm in zip(members, self.removed)
                ]
            self._systems = members
        return self._systems


def _all_perms(n: int):
    return iter_permutations(range(1, n + 1))

def supported_set(f: SetSystem) -> set:
    """All permutations supported by f, by full enumeration."""
    return {p for p in _all_perms(f.n) if supports(f, p)}


def covers_all(family: CoverFamily) -> bool:
    """Exhaustive plain-mode coverage check (n capped)."""
    n = family.base.n
    if n > COVER_CAP:
        raise CapError(f"coverage check enumerates {n}! permutations; cap {COVER_CAP}")
    members = family.systems()
    return all(any(supports(g, p) for g in members) for p in _all_perms(n))


def exactly_once(family: CoverFamily) -> bool:
    """Unique-mode check: every permutation is supported by exactly one
    member, i.e. the members' chain counts sum to n! and no two members
    share a chain.  Cached on the family, like its member systems; refused
    with CapError when the k(k-1)/2 pairwise counts over |F| sets exceed
    EXACT_ONCE_BUDGET."""
    if family._exactly_once is None:
        n = family.base.n
        members = family.systems()
        work = len(members) * (len(members) - 1) // 2 * len(family.base)
        if work > EXACT_ONCE_BUDGET:
            raise CapError(f"uniqueness check costs {work}; budget {EXACT_ONCE_BUDGET}")
        family._exactly_once = sum(count_chains(g) for g in members) == factorial(n) and all(
            count_chains(SetSystem(n, a.mask_set() & b.mask_set())) == 0
            for a, b in combinations(members, 2)
        )
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
    members are uniform random permutations from the seeded generator.
    Raises if coverage is not reached within max_tries draws.
    """
    n = base.n
    if n > COVER_CAP:
        raise CapError(f"random_cover verifies coverage by enumeration; cap {COVER_CAP}")
    base_support = supported_set(base)
    if not base_support:
        raise ValueError("base supports no permutation; cover impossible")
    gen = SplitMix64(seed)
    identity = tuple(range(1, n + 1))
    relabelings = [identity]
    # support of relabel(base, sigma) = {sigma o tau : tau in base_support}
    covered = set(base_support)
    universe = factorial(n)
    tries = 0
    while len(covered) < universe:
        if tries >= max_tries:
            raise ValueError(f"no complete cover within {max_tries} draws")
        sigma = gen.permutation(n)
        tries += 1
        relabelings.append(sigma)
        for tau in base_support:
            covered.add(tuple(sigma[v - 1] for v in tau))
    return CoverFamily(base, tuple(relabelings))


def greedy_prune(family: CoverFamily) -> CoverFamily:
    """Greedy set cover over the support incidence: repeatedly keep the
    member covering the most still-uncovered permutations, ties broken by
    lowest member index."""
    n = family.base.n
    if n > COVER_CAP:
        raise CapError(f"greedy_prune enumerates permutations; cap {COVER_CAP}")
    supports_by_member = [supported_set(g) for g in family.systems()]
    uncovered = set()
    for s in supports_by_member:
        uncovered |= s
    if len(uncovered) < factorial(n):
        raise ValueError("family does not cover all permutations")
    keep = []
    while uncovered:
        best, best_gain = None, -1
        for j, s in enumerate(supports_by_member):
            gain = len(uncovered & s)
            if gain > best_gain:
                best, best_gain = j, gain
        keep.append(best)
        uncovered -= supports_by_member[best]
    keep.sort()
    return CoverFamily(family.base, tuple(family.relabelings[j] for j in keep))


def exact_min_cover(base: SetSystem) -> CoverFamily:
    """Minimum-cardinality covering family, by branch and bound over the
    (deduplicated) relabelings of the base."""
    n = base.n
    if n > 5:
        raise CapError(f"exact_min_cover branches over {n}! relabelings; cap 5")
    base_support = supported_set(base)
    if not base_support:
        raise ValueError("base supports no permutation; cover impossible")
    perms = sorted(_all_perms(n))
    index = {p: i for i, p in enumerate(perms)}
    universe = (1 << len(perms)) - 1
    # candidate supports as bitmasks over permutations, deduplicated
    seen = {}
    for sigma in sorted(_all_perms(n)):
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
    f12 = SetSystem(f1.n, f1.mask_set() & f2.mask_set())
    through12 = _chains_through(f12)
    candidate = tuple(m for m in f12.masks if through1.get(m, 0) == through12.get(m, 0))
    if count_chains(SetSystem(f1.n, f12.mask_set().difference(candidate))):
        return None
    return candidate


def _chains_through(f: SetSystem) -> dict:
    """{s: number of chains of f passing through s}: the chains from ∅ to s
    times those from s to [n], the latter counted from ∅ in the complements."""
    full = (1 << f.n) - 1
    down = chain_counts(SetSystem(f.n, (full ^ m for m in f.masks)))
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
    """Read a family file.  A unique-mode claim is verified with
    exactly_once: FormatError when some permutation is not supported exactly
    once, CapError when the check exceeds EXACT_ONCE_BUDGET."""
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
        return CoverFamily(base, tuple(relabelings))
    rem = tuple(removed.get(j, ()) for j in range(1, len(relabelings) + 1))
    family = CoverFamily(base, tuple(relabelings), unique_mode=True, removed=rem)
    if not exactly_once(family):
        raise FormatError(f"{path}: unique mode, but some permutation is not supported once")
    return family
