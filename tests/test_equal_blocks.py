"""The equal case: the blocks (e, e) have a closed form in T(k), the number
of t-conorms on L_k (``helpers.equal_blocks``).

The u2 with hits are the C(n, e) idempotent uninorms of neutral e, one per
non-increasing threshold t(x) = max{y >= e : u2(x, y) = x} on [0, e), and
the fibre of each has the product of T over the pieces its threshold cuts
(``helpers.equal_fibre_size``).  Tier-1 holds the form fibre by fibre on
L_2-L_6, and CI on L_7.  Summed over the thresholds, from T(k) alone, it
gives the hit pins' diagonals of L_5-L_7, the equal-case totals and
diagonals of L_8 and L_9 carried in ROADMAP, and predicts L_10's.
"""

from itertools import combinations_with_replacement

import pytest

import pins
from helpers import equal_blocks, equal_fibre_size

# the equal-case hit totals of L_2-L_9, and the L_10 total the form predicts
EQUAL_TOTALS = {2: 6, 3: 22, 4: 90, 5: 402, 6: 1936, 7: 10002, 8: 55362, 9: 328908,
                10: 2109568}


def predicted(n):
    """The form summed over each e's C(n, e) non-increasing thresholds: the
    hit count of each block (e, e), with no enumeration beyond T(k)."""
    return [sum(equal_fibre_size(n, (*t, e))
                for t in combinations_with_replacement(range(n, e - 1, -1), e))
            for e in range(n + 1)]


@pytest.mark.parametrize("n", range(2, 7))
def test_the_equal_blocks_have_their_closed_form(n):
    assert equal_blocks(n) == predicted(n)  # equal_blocks asserts every fibre against the form


@pytest.mark.parametrize("n", range(5, 8))
def test_the_summed_form_gives_the_hit_pins(n):
    counts = pins.hit_counts(f"hits_l{n}")
    assert [counts[e, e] for e in range(n + 1)] == predicted(n)


def test_the_summed_form_gives_the_equal_case_totals():
    assert {n: sum(predicted(n)) for n in EQUAL_TOTALS} == EQUAL_TOTALS


def test_the_summed_form_gives_the_carried_diagonals():
    # README's Findings: the L_8 and L_9 diagonals (e, e) up to the middle, and
    # L_10's (5, 5) and (10, 10)
    assert predicted(8)[:5] == [13775, 6314, 3649, 2712, 2462]
    assert predicted(9)[:5] == [86417, 35738, 18824, 12820, 10655]
    assert predicted(10)[5::5] == [46210, 590489]
