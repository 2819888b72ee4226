"""Permutation problems of bounded degree over arbitrary semirings.

A degree-d problem assigns each permutation pi of [n] the product

    f(pi) = (x) over j of  local_cost({pi(1)..pi(j)}, last min(d, j) entries)

and asks for the sum (+) of f(pi) over all permutations.  TSP-as-a-problem is
(min, +) with edge weights as local costs (yielding the minimum Hamiltonian
*path* weight); counting linear extensions is (+, *) with a 0/1 downset
check.

Three evaluators, strongest preconditions last:

* evaluate_brute -- fold over all n! permutations; the oracle.
* evaluate_dp    -- subset DP with the last d-1 entries in the state, swept
  level by level and grouped by prefix mask; below degree 3 each (mask,
  added element) step folds all its tails into one accumulator.  Zero states
  are never kept (sound by the annihilation law, see SemiringDescriptor), so
  the linear-extension problem visits downsets only, and the DP is capped by
  the states it holds at once (systems.STATE_BUDGET), not by n.
* evaluate_restricted / evaluate_unique -- per-member restricted DPs over a
  covering family, each stepping along its member's cached successor map,
  combined with (+).  Restricted needs an additively idempotent semiring
  (overlapping members would otherwise double-count) and a family that
  covers every permutation; unique accepts any semiring because each
  permutation is supported exactly once.  Both certify their family's claim
  (once per family, see cover.covers_all and cover.exactly_once) before
  summing.

Degree is capped at 3: the DP state carries the last d-1 entries, and beyond
that the state blowup defeats the desk-scale purpose.

count_linear_extensions needs no semiring DP: the linear extensions of a
poset are the maximal chains of its downset lattice, so it builds the
downsets level by level in numpy (downset_levels) and counts them with the
chain sweep of systems.count_level_chains.  It refuses exactly the posets
that evaluate_dp refuses on linear_extension_problem: at degree 1 each live
state is one downset, so that DP holds more than STATE_BUDGET states iff two
adjacent downset levels do.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as iter_permutations
from math import comb, inf

import numpy as np

from . import systems
from .cover import CoverFamily, covers_all, exactly_once
from .systems import GROUND_CAP, CapError, FormatError, read_int_headers

DEGREE_CAP = 3
BRUTE_CAP = 8
# The DP holds at most systems.STATE_BUDGET live (mask, tail) states: about
# 60 MiB of Python objects at degree 2 (58 B a state under tracemalloc,
# n = 14, int values; the (v,) keys are shared) and about 330 MiB at degree
# <= 1, where each mask holds its one state in its own dict.
_ABSENT = object()  # a state not yet created; a created state may equal zero


@dataclass(frozen=True)
class SemiringDescriptor:
    """Opaque value domain with caller-supplied operations.

    (add, zero) must be a commutative monoid, (mul, one) a monoid, mul must
    distribute over add, and zero must annihilate:
    mul(zero, x) == zero == mul(x, zero) for all x.  The DP relies on the
    last law to drop zero states.  idempotent asserts add(x, x) == x for all x.
    """

    name: str
    add: callable
    mul: callable
    zero: object
    one: object
    idempotent: bool


MIN_PLUS = SemiringDescriptor("min-plus", min, lambda a, b: a + b, inf, 0, True)
COUNTING = SemiringDescriptor(
    "count", lambda a, b: a + b, lambda a, b: a * b, 0, 1, False
)
MAX_TIMES = SemiringDescriptor(
    "max-times", max, lambda a, b: a * b, Fraction(0), Fraction(1), True
)


@dataclass(frozen=True)
class PermutationProblem:
    """n, degree d, local-cost oracle, and the semiring to fold in.

    local_cost(prefix_mask, tail) receives the prefix-set *including* the
    newest entry and the last min(d, j) entries in order; short prefixes pass
    fewer entries.
    """

    n: int
    degree: int
    local_cost: callable
    semiring: SemiringDescriptor

    def __post_init__(self):
        if not 0 <= self.degree <= DEGREE_CAP:
            raise ValueError(f"degree must be in [0, {DEGREE_CAP}]")

    def value(self, perm) -> object:
        """f(pi): the local-cost product along one permutation."""
        mul = self.semiring.mul
        d = self.degree
        total = self.semiring.one
        mask = 0
        for j, v in enumerate(perm, start=1):
            mask |= 1 << (v - 1)
            tail = perm[max(0, j - d):j]
            total = mul(total, self.local_cost(mask, tail))
        return total


def evaluate_brute(p: PermutationProblem):
    """Sum of f(pi) over all n! permutations, in lexicographic order."""
    if p.n > BRUTE_CAP:
        raise CapError(f"brute evaluation caps at n <= {BRUTE_CAP}")
    add = p.semiring.add
    total = p.semiring.zero
    for perm in iter_permutations(range(1, p.n + 1)):
        total = add(total, p.value(perm))
    return total


def _dp_over_masks(p: PermutationProblem, member=None):
    """Subset DP with states (prefix mask, last d-1 entries), swept level by
    level; a level is {mask: {tail: value}} and holds only nonzero states.

    Each mask steps to its successors by ascending added element v: every
    free element, or the cached member.successors() of a member SetSystem,
    which restricts prefix masks to that system's masks, so the sums range
    over exactly the supported permutations.  Below degree 3 every tail of a
    mask steps to the same next state, (v,) at degree 2 and () below, so its
    contributions fold into one accumulator, add(add(existing, c1), c2)...;
    at degree 3 each tail updates its own.  A cost that is the semiring's
    zero object skips its multiply, and a contribution equal to zero never
    creates a state: by annihilation, mul(zero, x) = zero, so a zero state
    would only pass zero on.  Counting linear extensions thus visits downsets
    only.  The visiting order is deterministic, so the cost calls repeat
    exactly from run to run.

    Raises CapError once more than systems.STATE_BUDGET states are live at
    once: the level being swept plus the states created so far in the next.
    """
    add, mul, zero = p.semiring.add, p.semiring.mul, p.semiring.zero
    cost = p.local_cost
    n, d = p.n, p.degree
    succ = None if member is None else member.successors()
    if succ is not None and 0 not in succ:
        return zero
    bits = [(v, 1 << (v - 1)) for v in range(1, n + 1)]
    news = [(v,) if d else () for v in range(n + 1)]
    budget = systems.STATE_BUDGET
    level, width = {0: {(): p.semiring.one}}, 1
    for _ in range(n):
        live = width
        nxt = {}
        for mask, tails in level.items():
            items = tuple(tails.items())
            if succ is None:
                steps = [(v, mask | b) for v, b in bits if not mask & b]
            else:
                steps = succ[mask]
            for v, m2 in steps:
                newest = news[v]
                row = nxt.get(m2)
                if d == 3:
                    if row is None:
                        row = {}
                    for tail, val in items:
                        args = tail + newest
                        w = cost(m2, args)
                        if w is zero:
                            continue
                        t2 = args[-2:]  # the next state's last two entries
                        contrib = mul(val, w)
                        if t2 in row:
                            row[t2] = add(row[t2], contrib)
                        elif contrib != zero:
                            row[t2] = contrib
                            live += 1
                            if live > budget:
                                raise _over_budget()
                    if row:
                        nxt[m2] = row
                    continue
                key = newest if d == 2 else ()
                acc = _ABSENT if row is None else row.get(key, _ABSENT)
                for tail, val in items:
                    w = cost(m2, tail + newest)
                    if w is zero:
                        continue
                    contrib = mul(val, w)
                    if acc is not _ABSENT:
                        acc = add(acc, contrib)
                    elif contrib != zero:
                        acc = contrib
                        live += 1
                        if live > budget:
                            raise _over_budget()
                if acc is not _ABSENT:
                    if row is None:
                        nxt[m2] = {key: acc}
                    else:
                        row[key] = acc
        level, width = nxt, live - width
    total = zero
    for tails in level.values():
        for val in tails.values():
            total = add(total, val)
    return total


def _over_budget() -> CapError:
    return CapError(f"semiring DP holds over {systems.STATE_BUDGET} live states")


def evaluate_dp(p: PermutationProblem):
    """DP evaluation over all permutations; equals evaluate_brute."""
    return _dp_over_masks(p)


def evaluate_restricted(p: PermutationProblem, family: CoverFamily):
    """Sum the per-member restricted DPs of a covering family.

    Safe only for additively idempotent semirings: a permutation supported by
    several members contributes once per member, and idempotence is what
    collapses the duplicates.  The coverage claim is verified with covers_all
    (cached on the family) before any member is summed: a permutation that no
    member supports would silently drop out of the sum.
    """
    if not p.semiring.idempotent:
        raise ValueError(
            "restricted evaluation over a plain cover needs an additively "
            "idempotent semiring; use a unique-mode family instead"
        )
    if not covers_all(family):
        raise ValueError("family does not cover all permutations")
    return _sum_over_members(p, family)


def evaluate_unique(p: PermutationProblem, family: CoverFamily):
    """Sum the per-member restricted DPs of an exact-once family; correct
    over arbitrary semirings.  The unique-mode claim is verified with
    exactly_once (cached on the family) before any member is summed."""
    if not family.unique_mode:
        raise ValueError("evaluate_unique needs a unique-mode family")
    if not exactly_once(family):
        raise ValueError("unique-mode family supports some permutation more or less than once")
    return _sum_over_members(p, family)


def _sum_over_members(p: PermutationProblem, family: CoverFamily):
    """(+) over the family's members of the DP restricted to each member."""
    add = p.semiring.add
    total = p.semiring.zero
    for member in family.systems():
        if member.n != p.n:
            raise ValueError("family ground set does not match problem size")
        total = add(total, _dp_over_masks(p, member))
    return total


def tsp_path_problem(inst) -> PermutationProblem:
    """TSP reduced to minimum-weight Hamiltonian path: degree 2 over
    (min, +), the first step free and every later step an edge weight."""
    d = inst.dist

    def cost(mask, tail):
        if len(tail) < 2:
            return 0
        return d[tail[0]][tail[1]]

    return PermutationProblem(inst.n, 2, cost, MIN_PLUS)


def tsp_live_peak(n: int) -> int:
    """The most states evaluate_dp holds at once on a tsp_path_problem of n
    cities.  Every cost is finite, so every (mask, last city) state is live:
    the step from level k holds C(n, k) masks of k tails each (one empty
    tail at k = 0) beside C(n, k+1) masks of k+1."""
    return max(
        (comb(n, k) * max(k, 1) + comb(n, k + 1) * (k + 1) for k in range(n)), default=1
    )


def check_tsp_budget(n: int) -> None:
    """Refuse, before any sweep, a TSP evaluation that the DP would refuse
    once its live states pass systems.STATE_BUDGET."""
    if tsp_live_peak(n) > systems.STATE_BUDGET:
        raise _over_budget()


# ---------------------------------------------------------------------------
# posets and counting linear extensions


@dataclass(frozen=True)
class Poset:
    """Strict partial order on [n]; pred_masks[i] = bitmask of elements
    required to precede i+1.  Transitively closed and irreflexive."""

    n: int
    pred_masks: tuple

    @staticmethod
    def from_relations(n: int, relations) -> "Poset":
        """Build from covering relations (a, b) meaning a precedes b;
        transitive closure computed here, cycles rejected."""
        if n < 0:
            raise ValueError("ground-set size must be nonnegative")
        preds = [0] * (n + 1)
        for a, b in relations:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"relation ({a}, {b}) outside [1, {n}]")
            preds[b] |= 1 << (a - 1)
        changed = True
        while changed:
            changed = False
            for b in range(1, n + 1):
                rest = preds[b]
                merged = rest
                while rest:
                    bit = rest & -rest
                    merged |= preds[bit.bit_length()]
                    rest ^= bit
                if merged != preds[b]:
                    preds[b] = merged
                    changed = True
        for b in range(1, n + 1):
            if preds[b] >> (b - 1) & 1:
                raise ValueError(f"relation is cyclic at element {b}")
        return Poset(n, tuple(preds[1:]))

    def extends(self, perm) -> bool:
        """True iff perm lists every element after all its predecessors."""
        seen = 0
        for v in perm:
            if self.pred_masks[v - 1] & ~seen:
                return False
            seen |= 1 << (v - 1)
        return True


def linear_extension_problem(poset: Poset) -> PermutationProblem:
    """Counting linear extensions as a permutation problem over (+, *).

    The local cost admits an element only once all its predecessors are
    placed (a downset check); it needs just the prefix and the newest entry,
    so the problem has degree 1.
    """
    preds = poset.pred_masks

    def cost(mask, tail):
        return 1 if not preds[tail[-1] - 1] & ~mask else 0

    return PermutationProblem(poset.n, 1, cost, COUNTING)


def downset_levels(poset: Poset) -> list:
    """The downsets of the poset, per size, as ascending int64 arrays.

    Each downset is built once, from its canonical parent: the downset
    less its largest maximal element.  So D plus v is built from D exactly
    when v is not in D, every predecessor of v is, and v is larger than
    every maximal element of D that does not precede it.  The maximal
    elements of D are D less the predecessors of its elements, carried
    along as below.  A level is built CHAIN_CELLS (downset, element) cells
    at a time, then sorted.

    Raises CapError, as the degree-1 semiring DP does, once two adjacent
    levels hold more than systems.STATE_BUDGET downsets, so a refused
    poset holds at most the budget plus one chunk's downsets.
    """
    n = poset.n
    preds = np.array(poset.pred_masks, dtype=np.int64)
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    rows = max(1, systems.CHAIN_CELLS // max(n, 1))
    level, below = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    levels = [level]
    for _ in range(n):
        live, kids, kids_below = len(level), [], []
        for lo in range(0, len(level), rows):
            d, b = level[lo : lo + rows, None], below[lo : lo + rows, None]
            grow = ((d & bits) == 0) & ((d & preds) == preds) & ((d & ~b & ~preds) < bits)
            row, v = np.nonzero(grow)
            live += len(row)
            if live > systems.STATE_BUDGET:
                raise CapError(f"two downset levels hold over {systems.STATE_BUDGET} downsets")
            kids.append(d[row, 0] | bits[v])
            kids_below.append(b[row, 0] | preds[v])
        level = np.concatenate(kids)
        order = np.argsort(level)
        level, below = level[order], np.concatenate(kids_below)[order]
        levels.append(level)
    return levels


def count_linear_extensions(poset: Poset) -> int:
    """Number of total orders extending the poset: the maximal chains of
    its downset lattice, counted by the chain sweep over downset_levels.
    It refuses what the semiring DP over linear_extension_problem refuses,
    and a poset above GROUND_CAP elements, whose downsets need more than
    an int64 mask, goes to that DP."""
    if poset.n > GROUND_CAP:
        return evaluate_dp(linear_extension_problem(poset))
    return systems.count_level_chains(poset.n, downset_levels(poset))


def count_linear_extensions_brute(poset: Poset) -> int:
    """Oracle: test all n! orders."""
    if poset.n > BRUTE_CAP:
        raise CapError(f"brute extension counting caps at n <= {BRUTE_CAP}")
    return sum(1 for p in iter_permutations(range(1, poset.n + 1)) if poset.extends(p))


# ---------------------------------------------------------------------------
# poset file format: line 1 "n <n>", then one "a < b" line per covering
# relation; transitive closure is computed on load.


def load_poset(path) -> Poset:
    (n,), body = read_int_headers(path, "n")
    if n > GROUND_CAP:
        raise CapError(f"{path}: ground set {n} exceeds cap {GROUND_CAP}")
    relations = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 3 or parts[1] != "<":
            raise FormatError(f"{path}: bad relation line {ln!r}")
        try:
            relations.append((int(parts[0]), int(parts[2])))
        except ValueError:
            raise FormatError(f"{path}: bad relation line {ln!r}") from None
    try:
        return Poset.from_relations(n, relations)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
