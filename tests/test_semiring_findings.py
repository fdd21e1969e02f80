"""Two semiring findings on L_5, read from the hits of ``distributive_pairs``.

When u1 distributes over u2, (L_n, u2, u1) is a commutative ordered
semiring with u2 as its sum, so e2 is its zero in Golan's sense when it also
annihilates the product: u1(e2, x) = e2 for every x.  The findings:

- e2 annihilates u1 on 745 of the 1,288 greater-case hits, and on 745 of
  the 1,288 less-case hits (the mirror image), but on none of the 402
  equal-case hits.
- On each of the 261 proper greater-case hits (0 < e2 < e1 < 5), u1's corner
  [0, e2]^2 is closed and a t-norm with neutral e2, and it is ``min`` on 212
  of them.  In the less case, the corner [e2, 5]^2 is a t-conorm with neutral
  e2, ``max`` on 212 of the 261.
"""

from collections import Counter
from itertools import product

import pytest

from helpers import uninorms_by_e
from unichain import ChainScale, OpTable, validate_uninorm
from unichain.distributivity import distributive_pairs

N = 5


def case(e1, e2):
    return "equal" if e1 == e2 else "greater" if e1 > e2 else "less"


@pytest.fixture(scope="module")
def hits():
    """(e1, e2, u1) for every distributive pair (u1, u2) on L_5."""
    by_e = uninorms_by_e(N)
    return [(e1, e2, by_e[e1][i1]) for e1, e2 in product(range(N + 1), repeat=2)
            for i1, _ in distributive_pairs([u.table for u in by_e[e1]], [u.table for u in by_e[e2]])]


def test_e2_annihilates_u1_on_745_unequal_hits_of_each_case_and_on_no_equal_hit(hits):
    cases, annihilated = Counter(), Counter()
    for e1, e2, u1 in hits:
        cases[case(e1, e2)] += 1
        annihilated[case(e1, e2)] += all(u1(e2, x) == e2 for x in range(N + 1))
    assert cases == {"equal": 402, "greater": 1288, "less": 1288}
    assert annihilated == {"equal": 0, "greater": 745, "less": 745}


def test_u1s_corner_is_a_tnorm_or_tconorm_with_neutral_e2_on_every_proper_unequal_hit(hits):
    proper, on_op = Counter(), Counter()
    for e1, e2, u1 in hits:
        if e1 == e2 or not 0 < min(e1, e2) <= max(e1, e2) < N:
            continue
        # shifted onto L_m, the corner's neutral e2 is its top (a t-norm) in
        # the greater case and its bottom (a t-conorm) in the less case
        corner, op = (range(e2 + 1), min) if e1 > e2 else (range(e2, N + 1), max)
        lo = corner[0]
        assert all(u1(x, y) in corner for x in corner for y in corner), (u1.rows, e2)
        rows = [[u1(x, y) - lo for y in corner] for x in corner]
        assert validate_uninorm(OpTable(ChainScale(len(corner) - 1), rows), e2 - lo).verdict
        proper[case(e1, e2)] += 1
        on_op[case(e1, e2)] += all(u1(x, y) == op(x, y) for x in corner for y in corner)
    assert proper == {"greater": 261, "less": 261}
    assert on_op == {"greater": 212, "less": 212}
