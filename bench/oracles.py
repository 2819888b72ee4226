"""Reference answers the benchmark checks operations against.

Every function here is written independently of `chainfold`: it takes plain
Python data (distance rows, relation lists, mask collections) and never calls
into the package, so a defect in a chainfold module cannot also hide in its
oracle.  They run after the timed region, never inside it.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np


def _min_path_levels(w, start, end):
    """Cheapest Hamiltonian path over the m cities of w (m x m), entering
    city j at cost start[j] and leaving the last city j at cost end[j].

    Level-synchronous subset DP over numpy arrays: best[mask, j] is the
    cheapest path through exactly the cities of mask that ends at j.
    """
    w = np.asarray(w, dtype=np.int64)
    m = len(w)
    inf = np.iinfo(np.int64).max // 4
    best = np.full((1 << m, m), inf, dtype=np.int64)
    for j in range(m):
        best[1 << j, j] = start[j]
    masks = np.arange(1 << m)
    popcounts = np.array([bin(x).count("1") for x in range(1 << m)])
    for k in range(2, m + 1):
        level = masks[popcounts == k]
        for j in range(m):
            dst = level[(level >> j) & 1 == 1]
            best[dst, j] = (best[dst ^ (1 << j)] + w[:, j]).min(axis=1)
    return int((best[(1 << m) - 1] + np.asarray(end, dtype=np.int64)).min())


def tsp_optimum(rows) -> int:
    """Optimal cyclic tour value of a full distance matrix (0-based rows)."""
    d = np.asarray(rows, dtype=np.int64)
    return _min_path_levels(d[1:, 1:], d[0, 1:], d[1:, 0])


def min_hamiltonian_path(rows) -> int:
    """Cheapest Hamiltonian path, free to start and end anywhere."""
    n = len(rows)
    return _min_path_levels(rows, [0] * n, [0] * n)


def max_product_path(first, weights) -> Fraction:
    """max over orders p of first[p1] * prod weights[p_i][p_i+1], exactly.

    Cities are 0-based; all weights are positive Fractions.
    """
    n = len(first)
    best = [dict() for _ in range(1 << n)]
    for j in range(n):
        best[1 << j][j] = first[j]
    for mask in range(1, 1 << n):
        for j, v in best[mask].items():
            row = weights[j]
            for k in range(n):
                if mask >> k & 1:
                    continue
                cand = v * row[k]
                nxt = best[mask | 1 << k]
                if k not in nxt or cand > nxt[k]:
                    nxt[k] = cand
    return max(best[(1 << n) - 1].values())


def linear_extensions(n: int, relations) -> int:
    """Orders of 1..n in which a precedes b for every (a, b) in relations.

    Counts paths through the lattice of downsets; only the given relations
    are checked, so no transitive closure is needed.
    """
    need = [0] * n
    for a, b in relations:
        need[b - 1] |= 1 << (a - 1)
    ways = [0] * (1 << n)
    ways[0] = 1
    for mask in range(1 << n):
        w = ways[mask]
        if not w:
            continue
        for e in range(n):
            bit = 1 << e
            if not mask & bit and need[e] & mask == need[e]:
                ways[mask | bit] += w
    return ways[-1]


def chains_multinomial(lengths) -> int:
    """Linear extensions of a disjoint union of chains: the multinomial."""
    out = factorial(sum(lengths))
    for k in lengths:
        out //= factorial(k)
    return out


def chain_count(n: int, masks) -> int:
    """Maximal chains from the empty set to [n] inside a collection of masks."""
    present = set(masks)
    paths = {0: 1} if 0 in present else {}
    for m in sorted(present, key=lambda x: bin(x).count("1")):
        if m == 0:
            continue
        total = 0
        for e in range(n):
            if m >> e & 1:
                total += paths.get(m ^ (1 << e), 0)
        if total:
            paths[m] = total
    return paths.get((1 << n) - 1, 0)


def successor_edges(n: int, masks) -> int:
    """Pairs (s, s + e) with both sets in the collection."""
    present = set(masks)
    return sum(
        1 for m in present for e in range(n) if m >> e & 1 and m ^ (1 << e) in present
    )


def relabeled(masks, sigma) -> set:
    """Image of every mask under element i -> sigma[i-1] (1-based)."""
    out = set()
    for m in masks:
        img = 0
        for i, v in enumerate(sigma):
            if m >> i & 1:
                img |= 1 << (v - 1)
        out.add(img)
    return out


def prefix_sets(order) -> list:
    """Masks of the prefixes of an order of 1-based elements, empty set first."""
    out = [0]
    for v in order:
        out.append(out[-1] | 1 << (v - 1))
    return out


def support_counts(n: int, member_masks) -> list:
    """For every permutation of 1..n, how many collections hold all of its
    prefix-sets."""
    members = [set(ms) for ms in member_masks]
    return [
        sum(1 for ms in members if all(p in ms for p in prefix_sets(perm)))
        for perm in permutations(range(1, n + 1))
    ]
