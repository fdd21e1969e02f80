"""Golden witness reports for every pair of uninorms, by neutral-element case.

The verdict tests elsewhere only check pass/fail; these pin the exact
witnesses (law, indices, values, detail text and order) of the case
conditions and, for unequal neutral elements, the necessity battery, for
passing and failing pairs alike.
"""

import hashlib
import json

import pytest

from conftest import FIXTURES_DIR
from helpers import case_conditions, uninorms_by_e
from unichain import necessity_conditions

# SHA-256 of the verbose reports over all unequal pairs, in canonical pair order
VERBOSE_DIGESTS = {
    3: "292e75134240bdcb3aabde760647f6a83113d0114f95b3cfe54da6fc9650d834",
    4: "e9640a34c85fca6d9fcc328b1b57175599b0d2270f86c7fcee7e67d5c9736f3b",
}
# the same over all equal pairs
EQUAL_VERBOSE_DIGESTS = {
    3: "0b506ab61b2cebd36a4f451aea517d96ac098c681bcb849a9c8e20cc9fb30aa7",
    4: "03c15aeb12003133630ccae668348c56a6fbc548e699e794dedb2fa5e299ba96",
}
# unequal pairs whose conditions report is empty
PASSING_PAIRS = {3: 68, 4: 406}


def unequal_pairs(by_e):
    for e1 in sorted(by_e):
        for i1, u1 in enumerate(by_e[e1]):
            for e2 in sorted(by_e):
                if e1 != e2:
                    for i2, u2 in enumerate(by_e[e2]):
                        yield (e1, i1, e2, i2), u1, u2


def equal_pairs(by_e):
    for e in sorted(by_e):
        for i1, u1 in enumerate(by_e[e]):
            for i2, u2 in enumerate(by_e[e]):
                yield (e, i1, e, i2), u1, u2


def report_lines(u1, u2, verbose):
    return (
        [v.describe() for v in case_conditions(u1, u2, verbose=verbose).violations],
        [v.describe() for v in necessity_conditions(u1, u2, verbose=verbose).violations],
    )


def equal_lines(u1, u2, verbose):
    return [v.describe() for v in case_conditions(u1, u2, verbose=verbose).violations]


def test_first_witness_reports_on_l3_match_the_fixture():
    golden = json.loads((FIXTURES_DIR / "unequal_reports_l3.json").read_text(encoding="utf-8"))
    assert len(golden) == 362
    for entry, (key, u1, u2) in zip(golden, unequal_pairs(uninorms_by_e(3)), strict=True):
        assert tuple(entry["pair"]) == key
        conditions, necessity = report_lines(u1, u2, verbose=False)
        assert conditions == entry["conditions"], key
        assert necessity == entry["necessity"], key


@pytest.mark.parametrize("n", sorted(VERBOSE_DIGESTS))
def test_verbose_reports_match_the_digest(n):
    digest = hashlib.sha256()
    passing = 0
    for key, u1, u2 in unequal_pairs(uninorms_by_e(n)):
        conditions, necessity = report_lines(u1, u2, verbose=True)
        digest.update(("pair %d,%d,%d,%d\n" % key).encode())
        for line in ["conditions", *conditions, "necessity", *necessity]:
            digest.update((line + "\n").encode())
        if not conditions:  # the conditions imply the necessity battery
            passing += 1
            assert necessity == [], key
    assert digest.hexdigest() == VERBOSE_DIGESTS[n]
    assert passing == PASSING_PAIRS[n]


def test_first_witness_equal_reports_on_l3_match_the_fixture():
    golden = json.loads((FIXTURES_DIR / "equal_reports_l3.json").read_text(encoding="utf-8"))
    assert len(golden) == 122
    for entry, (key, u1, u2) in zip(golden, equal_pairs(uninorms_by_e(3)), strict=True):
        assert tuple(entry["pair"]) == key
        assert equal_lines(u1, u2, verbose=False) == entry["conditions"], key


@pytest.mark.parametrize("n", sorted(EQUAL_VERBOSE_DIGESTS))
def test_verbose_equal_reports_match_the_digest(n):
    digest = hashlib.sha256()
    for key, u1, u2 in equal_pairs(uninorms_by_e(n)):
        digest.update(("pair %d,%d,%d,%d\n" % key).encode())
        for line in ["conditions", *equal_lines(u1, u2, verbose=True)]:
            digest.update((line + "\n").encode())
    assert digest.hexdigest() == EQUAL_VERBOSE_DIGESTS[n]
