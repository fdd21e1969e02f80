"""Which clauses ever decide a verdict, on every pair of L_1-L_4.

Each report is reduced to the set of its failing laws, and each law is
merged with its mirror under the order reversal x -> n - x (``-tconorm-max``
with ``-tnorm-min``, ``-max`` with ``-min``).  For each battery (the
unequal-case conditions, the equal-case conditions and the necessity
battery) these tests pin how many pairs fail each law and on how many it is
the only failing law.  A law that fails somewhere but never alone is
redundant here: no pair fails only such laws, so dropping all of them at
once would change no verdict on L_1-L_4.  Per chain, they also pin the
minimal sets of laws that meet every failing report: the laws that alone
decide every verdict of the conditions.  CI pins those of L_5 through the
same ``minimal_deciding_sets(failing_laws(...))``.  The reports keep every
clause.
"""

from itertools import combinations

import pytest

from helpers import case_conditions, uninorms_by_e
from unichain import necessity_conditions

SCALES = range(1, 5)

# battery -> (pairs judged, {law: (pairs it fails on, pairs where it is the only failing law)})
BATTERIES = {
    "unequal-conditions": (7110, {
        "clause-i-agreement": (3016, 90),
        "clause-i-side-condition": (478, 0),
        "clause-ii-min": (2634, 0),
        "clause-iii-closure": (2166, 366),
        "clause-iii-distributivity": (3582, 3088),
        "hypothesis-local-internality": (150, 0),
        "hypothesis-tnorm-min": (986, 88),
    }),
    "equal-conditions": (1878, {
        "agreement": (604, 196),
        "idempotency": (1562, 1152),
        "local-internality": (2, 0),
    }),
    "necessity": (7110, {
        "necessity-i-tnorm-min": (986, 100),
        "necessity-ii-u1-min": (2486, 474),
        "necessity-iii-u2-min": (2244, 0),
        "necessity-iv-agreement": (2688, 176),
        "necessity-iv-side-condition": (478, 4),
        "necessity-local-internality": (150, 0),
    }),
}


def merged(law: str) -> str:
    for mirror, kept in (("-tconorm-max", "-tnorm-min"), ("-max", "-min")):
        if law.endswith(mirror):
            return law.removesuffix(mirror) + kept
    return law


UNEQUAL_DECIDING = {"clause-i-agreement", "clause-iii-closure", "clause-iii-distributivity",
                    "hypothesis-tnorm-min"}

# (battery, n) -> the minimal sets of laws that meet every failing report on L_n; tier-1
# checks L_2-L_4 and CI L_5
DECIDING = {
    ("unequal-conditions", 2): [{"clause-i-agreement", "clause-iii-closure", "clause-iii-distributivity"},
                                {"clause-ii-min", "clause-iii-closure", "clause-iii-distributivity"}],
    ("unequal-conditions", 3): [UNEQUAL_DECIDING],
    ("unequal-conditions", 4): [UNEQUAL_DECIDING],
    ("equal-conditions", 2): [{"agreement", "idempotency"}],
    ("equal-conditions", 3): [{"agreement", "idempotency"}],
    ("equal-conditions", 4): [{"agreement", "idempotency"}],
    ("unequal-conditions", 5): [UNEQUAL_DECIDING],
    ("equal-conditions", 5): [{"agreement", "idempotency"}],
}


def failing_laws(battery, scales=SCALES):
    """The merged failing laws of each pair the battery judges, on ``scales``."""
    report = necessity_conditions if battery == "necessity" else case_conditions
    equal = battery == "equal-conditions"
    for n in scales:
        by_e = uninorms_by_e(n)
        for e1, firsts in by_e.items():
            for e2, seconds in by_e.items():
                if (e1 == e2) == equal:
                    for u1 in firsts:
                        for u2 in seconds:
                            yield frozenset(merged(v.law) for v in report(u1, u2).violations)


@pytest.mark.parametrize("battery", sorted(BATTERIES))
def test_each_law_fails_and_decides_as_pinned(battery):
    pairs, laws = BATTERIES[battery]
    reports = list(failing_laws(battery))
    fails = {law: sum(law in r for r in reports) for law in set().union(*reports)}
    alone = {law: sum(r == {law} for r in reports) for law in fails}
    assert len(reports) == pairs
    assert {law: (fails[law], alone[law]) for law in fails} == laws
    # no pair fails only laws that never fail alone
    redundant = {law for law, (_, only) in laws.items() if not only}
    assert not [r for r in reports if r and r <= redundant]


def minimal_deciding_sets(reports):
    """The minimal sets of laws that meet every failing report, smallest first."""
    failing = {r for r in reports if r}
    laws, found = sorted(set().union(*failing)), []
    for size in range(len(laws) + 1):
        for chosen in map(set, combinations(laws, size)):
            if all(r & chosen for r in failing) and not any(kept <= chosen for kept in found):
                found.append(chosen)
    return found


@pytest.mark.parametrize("battery, n", sorted(key for key in DECIDING if key[1] in SCALES))
def test_the_deciding_laws_are_pinned(battery, n):
    # both clause-iii laws are in every minimal set: neither follows from the others
    deciding = minimal_deciding_sets(failing_laws(battery, [n]))
    assert deciding == DECIDING[battery, n]


def test_a_mirror_merges_with_its_law():
    assert [merged(law) for law in ("hypothesis-tconorm-max", "clause-ii-max", "clause-ii-min",
                                    "necessity-iv-agreement")] == [
        "hypothesis-tnorm-min", "clause-ii-min", "clause-ii-min", "necessity-iv-agreement"]
