"""Golden witness reports for every pair of uninorms, by neutral-element case.

The verdict tests elsewhere only check pass/fail; these pin the exact first
witnesses (law, indices, values, detail text and order) of the case
conditions and, for unequal neutral elements, the necessity battery, on
L_3, for passing and failing pairs alike.  ``tests/pins.py reports_l3`` and
``reports_l4`` pin the verbose reports of every pair; the passing-pair
counts are read from those fixtures, and a passing pair's necessity report
is checked to be empty here.
"""

import json

import pytest

import pins
from conftest import FIXTURES_DIR
from helpers import case_conditions, uninorms_by_e
from unichain import necessity_conditions

# unequal pairs whose conditions report is empty
PASSING_PAIRS = {3: 68, 4: 406}


def test_first_witness_reports_on_l3_match_the_fixture():
    golden = json.loads((FIXTURES_DIR / "unequal_reports_l3.json").read_text(encoding="utf-8"))
    assert len(golden) == 362
    for entry, (key, u1, u2) in zip(golden, pins.unequal_pairs(uninorms_by_e(3)), strict=True):
        assert tuple(entry["pair"]) == key
        assert pins.described(case_conditions(u1, u2)) == entry["conditions"], key
        assert pins.described(necessity_conditions(u1, u2)) == entry["necessity"], key


def test_first_witness_equal_reports_on_l3_match_the_fixture():
    golden = json.loads((FIXTURES_DIR / "equal_reports_l3.json").read_text(encoding="utf-8"))
    assert len(golden) == 122
    for entry, (key, u1, u2) in zip(golden, pins.equal_pairs(uninorms_by_e(3)), strict=True):
        assert tuple(entry["pair"]) == key
        assert pins.described(case_conditions(u1, u2)) == entry["conditions"], key


@pytest.mark.parametrize("n", sorted(PASSING_PAIRS))
def test_a_pair_passing_the_conditions_has_an_empty_necessity_report(n):
    # the conditions imply the necessity battery
    passing = [(key, u1, u2) for key, u1, u2 in pins.unequal_pairs(uninorms_by_e(n))
               if not case_conditions(u1, u2).violations]
    for key, u1, u2 in passing:
        assert pins.described(necessity_conditions(u1, u2, verbose=True)) == [], key
    assert len(passing) == pins.counts(f"reports_l{n}", "passing")["unequal"] == PASSING_PAIRS[n]
