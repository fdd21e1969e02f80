"""Which witnesses a report keeps, against the verbose report and an oracle.

Without ``verbose`` the exhaustive scan stops at its first witness, and the
clause loops build a violation only where the report keeps it.  Either way
a report must hold exactly the verbose report's first violation for each
(subject, law), and the verbose report must be complete.
"""

import random
from itertools import product

import pytest

import oracles
from helpers import random_symmetric, table_of
from unichain import (
    Uninorm,
    Violation,
    check_distributivity,
    classify_and_check,
    equal_neutral_conditions,
    necessity_conditions,
)


def first_per_law(report):
    """The first violation of each (subject, law), in order of appearance."""
    kept = {}
    for v in report.violations:
        kept.setdefault((v.subject, v.law), v)
    return tuple(kept.values())


def assert_scan_matches_the_oracle(u1, u2):
    want = tuple(Violation("distributivity", (x, y, z), lhs=lhs, rhs=rhs)
                 for x, y, z, lhs, rhs in oracles.distributivity_defects(u1.rows, u2.rows))
    assert check_distributivity(u1, u2).violations == want[:1], (u1.rows, u2.rows)
    assert check_distributivity(u1, u2, verbose=True).violations == want, (u1.rows, u2.rows)


class TestExhaustiveScan:
    def test_every_l4_pair(self, all_pairs):
        for u1, u2 in all_pairs(4):
            assert_scan_matches_the_oracle(u1, u2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_random_symmetric_tables(self, n):
        rng = random.Random(20261018 + n)
        tables = [Uninorm(table_of(random_symmetric(rng, n)), 0) for _ in range(10)]
        for u1 in tables:
            for u2 in tables:
                assert_scan_matches_the_oracle(u1, u2)


def test_every_l4_report_keeps_the_first_violation_of_each_law(all_pairs):
    # classify_and_check's conditions report is the report of the pair's case predicate
    for u1, u2 in all_pairs(4):
        full, kept = classify_and_check(u1, u2, verbose=True), classify_and_check(u1, u2)
        assert kept.conditions.violations == first_per_law(full.conditions), (u1.rows, u2.rows)
        assert kept.exhaustive.violations == first_per_law(full.exhaustive), (u1.rows, u2.rows)
        if u1.e != u2.e:
            full = necessity_conditions(u1, u2, verbose=True)
            assert necessity_conditions(u1, u2).violations == first_per_law(full), (u1.rows, u2.rows)


@pytest.mark.parametrize("n", range(1, 6))
def test_random_symmetric_reports_keep_the_first_violation_of_each_law(n):
    # the equal-case and necessity predicates are total, so tables that are
    # not uninorms reach laws no uninorm pair on L_4 fails, such as the choices
    rng = random.Random(20261019 + n)
    tables = [table_of(random_symmetric(rng, n)) for _ in range(6)]
    for t1 in tables:
        for t2 in tables:
            for e1 in range(n + 1):
                for e2 in range(n + 1):
                    check = equal_neutral_conditions if e1 == e2 else necessity_conditions
                    u1, u2 = Uninorm(t1, e1), Uninorm(t2, e2)
                    full = check(u1, u2, verbose=True)
                    assert check(u1, u2).violations == first_per_law(full), (u1, u2)


def assert_necessity_matches_the_oracle(u1, u2, verbose):
    want = tuple(Violation(*v) for v in
                 oracles.necessity_violations(u1.rows, u1.e, u2.rows, u2.e, verbose))
    assert necessity_conditions(u1, u2, verbose=verbose).violations == want, (u1, u2, verbose)


def test_every_unequal_l4_necessity_report_equals_the_oracle(all_pairs):
    for verbose in (False, True):
        for u1, u2 in all_pairs(4):
            if u1.e != u2.e:
                assert_necessity_matches_the_oracle(u1, u2, verbose)


@pytest.mark.parametrize("n", range(1, 5))
def test_random_symmetric_necessity_reports_equal_the_oracle(n):
    # tables that are not uninorms fail the choice, which no uninorm pair on L_4 does
    rng = random.Random(20261020 + n)
    tables = [table_of(random_symmetric(rng, n)) for _ in range(4)]
    for t1, t2 in product(tables, repeat=2):
        for e1, e2 in product(range(n + 1), repeat=2):
            if e1 != e2:
                for verbose in (False, True):
                    assert_necessity_matches_the_oracle(Uninorm(t1, e1), Uninorm(t2, e2), verbose)


def test_the_l5_pairs_failing_clause_i_choice_equal_the_oracle(uninorms_by_e):
    # no unequal pair on L_4 fails the choice of clause i: the 48 of L_5
    # are the pairs on whose strip x block u1 and u2 return one value that
    # is neither argument, which takes a u2 that is not locally internal
    n, by_e, pairs = 5, uninorms_by_e(5), []
    for e2, u2s in by_e.items():
        for u2 in u2s:
            if all(u2(x, y) in (x, y) for x in range(e2) for y in range(e2 + 1, n + 1)):
                continue
            for e1 in set(by_e) - {e2}:
                if e1 > e2:
                    strip, block = range(e2), range(e2, n + 1)
                else:
                    strip, block = range(e2 + 1, n + 1), range(e2 + 1)
                pairs.extend((u1, u2) for u1 in by_e[e1]
                             if any(u1(x, y) == u2(x, y) not in (x, y) for x in strip for y in block))
    assert len(pairs) == 48
    for u1, u2 in pairs:
        for verbose in (False, True):
            want = tuple(Violation(*v) for v in
                         oracles.condition_violations(u1.rows, u1.e, u2.rows, u2.e, verbose))
            got = classify_and_check(u1, u2, verbose=verbose).conditions.violations
            assert "clause-i-choice" in {v.law for v in got}
            assert got == want, (u1.rows, u1.e, u2.rows, u2.e, verbose)


def clause_ii_ties(violations):
    """The points where u1 and u2 both fail clause ii."""
    points = {}
    for v in violations:
        if v.law.startswith("clause-ii-"):
            points.setdefault(v.witness, set()).add(v.subject)
    return [p for p, subjects in points.items() if subjects == {"u1", "u2"}]


def test_every_l4_conditions_report_equals_the_per_pair_loops(all_pairs):
    # the shares split clause ii into a u1 half and a u2 half and merge them
    # per pair; a pair failing both at one point pins the order of the merge
    # (on L_4 only verbose reports keep such a point)
    tied = 0
    for verbose in (False, True):
        for u1, u2 in all_pairs(4):
            want = tuple(Violation(*v) for v in
                         oracles.condition_violations(u1.rows, u1.e, u2.rows, u2.e, verbose))
            got = classify_and_check(u1, u2, verbose=verbose).conditions.violations
            assert got == want, (u1.rows, u1.e, u2.rows, u2.e, verbose)
            tied += verbose and bool(clause_ii_ties(want))
    assert tied == 140
