"""Acceptance criteria, one test per criterion.

Each test runs the corresponding verification suite at its pinned tolerance
and prints one PASS/FAIL line (visible with pytest -s or in failure output).
Criterion numbering:

   1 kp                 n=26 two-block metrics windows, < 1 s
   2 cor42              P <= 1.785975 + 1e-4, S T < 3.5720
   3 cor43              P <= 2.121604 + 1e-4
   4 cor47              S = 1.7916 +- 5e-4, P <= 1.20375 + 1e-4, S^2 P < 3.864
   5 warmup-constants   2^0.889972 in [1.8531, 1.8533], S T < 3.7066
   6 solvers            five-way equivalence, 50 instances x n in 4..10, < 2 min
   7 lemma37            union-product identities, 200 pairs, exact
   8 split              induced-split support equivalence, exhaustive over 6!
   9 fraction           supported count = (M/N) n!, exhaustive relabelings
  10 lower-bound        C(F) <= (ceil(n/(k+1))!)^(k+1) |F|^k, corpus x k in 0..6
  11 cover              coverage complete, exact-once, unique counting = n!
  12 count-le           100 random posets vs brute, antichain/chain anchors,
                        chain(40) and chains 8+8+7+7 by the multinomial
  13 regular            exhaustive self-intersection checks
  14 jlr                tower density vs banded family, side-by-side emission
"""

import pytest

from chainfold.verify import SUITES, run_suite

CRITERIA = [
    (1, "kp"),
    (2, "cor42"),
    (3, "cor43"),
    (4, "cor47"),
    (5, "warmup-constants"),
    (6, "solvers"),
    (7, "lemma37"),
    (8, "split"),
    (9, "fraction"),
    (10, "lower-bound"),
    (11, "cover"),
    (12, "count-le"),
    (13, "regular"),
    (14, "jlr"),
]


def test_registry_matches_criteria():
    assert [name for _, name in CRITERIA] == list(SUITES)


@pytest.mark.parametrize("number,name", CRITERIA, ids=[f"{i:02d}-{n}" for i, n in CRITERIA])
def test_criterion(number, name):
    result = run_suite(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {number:2d} [{name}] ({result.elapsed:.1f}s)")
    for line in result.lines:
        print(f"    {line}")
    assert result.passed, f"criterion {number} [{name}] failed:\n" + "\n".join(result.lines)
