"""The boundary blocks: the blocks (e1, e2) whose u1 is a t-conorm (e1 = 0)
or a t-norm (e1 = n) have a closed form in T(k), the number of t-conorms on
L_k (``helpers.boundary_blocks``).

For 0 < e2 < n, block (0, e2) holds T(e2)·T(n - e2) hits, all on the u2
``idemmax``, and block (n, e2) as many, all on ``idemmin``; blocks (0, 0),
(0, n), (n, 0) and (n, n) hold T(n) hits each.  Tier-1 holds the form as
sets on L_2-L_6, and CI on L_7.  Its rows e1 = 0 are the hit pins' of L_5-L_7
and the L_8 and L_9 grid rows carried in ROADMAP.
"""

import pytest

import pins
from helpers import boundary_blocks, t_count


def row(n):
    """The closed form's hit counts of blocks (0, 0) to (0, n)."""
    return [t_count(n) if e2 in (0, n) else t_count(e2) * t_count(n - e2) for e2 in range(n + 1)]


@pytest.mark.parametrize("n", range(2, 7))
def test_the_boundary_blocks_have_their_closed_form(n):
    boundary_blocks(n)  # asserts every block's hits, as a set, against the form


@pytest.mark.parametrize("n", range(5, 8))
def test_the_form_gives_the_hit_pins(n):
    counts = pins.hit_counts(f"hits_l{n}")
    assert [counts[0, e2] for e2 in range(n + 1)] == row(n)


def test_the_form_gives_the_carried_l8_and_l9_rows():
    # README's Findings: the form reproduces the carried L_8 and L_9 rows e1 = 0
    assert (row(8), row(9)) == ([13775, 2386, 902, 564, 484, 564, 902, 2386, 13775],
                                [86417, 13775, 4772, 2706, 2068, 2068, 2706, 4772, 13775, 86417])
