"""Reference oracles shared by the tests: systems built by listing
permutations, against which the constructions are checked at small n."""

from chainfold.systems import SetSystem, check_permutation, prefix_chain


def closure_from_permutations(n: int, perms) -> SetSystem:
    """Minimal system supporting every given permutation: the union of all
    their prefix-sets.  Duplicate permutations are deduplicated silently."""
    masks = set()
    for p in perms:
        check_permutation(p, n)
        masks.update(prefix_chain(p))
    return SetSystem(n, masks)
