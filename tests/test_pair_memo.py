"""The pair conditions remember each table's own share on the table itself.

Every check here compares a shared, memoized uninorm with a fresh copy that
has never been classified: results must be equal on both reports, witness
order included, and the memo must be invisible and last no longer than a run.
"""

import pickle
import random

import pytest

from helpers import all_pairs, uninorms_by_e
from unichain import (
    ChainScale,
    OpTable,
    Uninorm,
    certify,
    classify_and_check,
    compose,
    decompose,
    scan_pairs,
)
from unichain import core, distributivity


def fresh(u):
    """An equal uninorm that no classification has touched."""
    return Uninorm(OpTable(u.scale, u.rows), u.e)


def fails(law, subject, u1, u2):
    """The violations of ``subject`` whose law starts with ``law``, in the
    verbose conditions report of fresh copies of u1 and u2."""
    report = classify_and_check(fresh(u1), fresh(u2), verbose=True).conditions
    return [v for v in report.violations if v.law.startswith(law) and v.subject == subject]


def assert_calls_match_fresh_copies(calls):
    for first, second, verbose in calls:
        shared = classify_and_check(first, second, verbose=verbose)
        expected = classify_and_check(fresh(first), fresh(second), verbose=verbose)
        assert shared == expected, (first.rows, first.e, second.rows, second.e, verbose)


def firsts(by_e):
    """One table for each neutral element."""
    return {e: us[0] for e, us in by_e.items()}


def test_shuffled_l4_pairs_match_fresh_copies():
    rng = random.Random(20261018)
    pairs = list(all_pairs(4))
    rng.shuffle(pairs)
    for u1, u2 in pairs:
        verbose = rng.random() < 0.5
        shared = classify_and_check(u1, u2, verbose=verbose)
        assert shared == classify_and_check(fresh(u1), fresh(u2), verbose=verbose), (
            u1.rows, u1.e, u2.rows, u2.e, verbose)


def test_one_table_alternating_partners_and_verbosity():
    # this u1 (e = 1) has a clause-iii share that changes with e2 and with
    # verbose, and as u2 a hypothesis and side-condition share that changes
    # with e1 (within one case too) and with verbose.  The first sweep meets
    # each partner quiet, then verbose; the second changes the partner's
    # neutral element from call to call at one verbosity.
    by_e = uninorms_by_e(4)
    u = fresh(by_e[1][16])
    partners = [fresh(us[i]) for i in range(max(map(len, by_e.values())))
                for us in by_e.values() if i < len(us)]
    calls = [(p, v) for p in partners for v in (False, True)]
    calls += [(p, v) for v in (False, True) for p in partners]
    assert_calls_match_fresh_copies([pair + (verbose,) for partner, verbose in calls
                                     for pair in ((u, partner), (partner, u))])


def test_u1_clause_ii_share_follows_e2():
    # u1's half of clause ii fails against one e2 and holds against another
    # in the same case; a share that ignored e2 would carry one verdict over
    # to the other
    by_e = uninorms_by_e(4)
    partner = firsts(by_e)
    u, a, b = next((u, a, b) for e1 in by_e for u in by_e[e1] for a in by_e for b in by_e
                   if e1 not in (a, b) and (a < e1) == (b < e1)
                   and fails("clause-ii-", "u1", u, partner[a])
                   and not fails("clause-ii-", "u1", u, partner[b]))
    u = fresh(u)
    pa, pb = fresh(partner[a]), fresh(partner[b])
    assert_calls_match_fresh_copies([(u, p, v) for v in (False, True) for _ in range(2)
                                     for p in (pa, pb)])


def test_u2_clause_ii_share_follows_e1():
    # the same for u2's half across the partner's e1, within one case
    by_e = uninorms_by_e(4)
    partner = firsts(by_e)
    u, a, b = next((u, a, b) for e2 in by_e for u in by_e[e2] for a in by_e for b in by_e
                   if e2 < a and e2 < b and fails("clause-ii-", "u2", partner[a], u)
                   and not fails("clause-ii-", "u2", partner[b], u))
    u = fresh(u)
    pa, pb = fresh(partner[a]), fresh(partner[b])
    assert_calls_match_fresh_copies([(p, u, v) for v in (False, True) for _ in range(2)
                                     for p in (pa, pb)])


def test_equal_case_idempotency_share_follows_verbose():
    # a u2 with several non-idempotent points: the verbose report keeps them
    # all, the quiet one only the first
    by_e = uninorms_by_e(4)
    u1, u2 = next((u1, u2) for e in by_e for u2 in by_e[e] for u1 in by_e[e][:1]
                  if len(fails("idempotency", "u2", u1, u2)) > 1)
    u1, u2 = fresh(u1), fresh(u2)
    assert_calls_match_fresh_copies([(u1, u2, v) for _ in range(2) for v in (False, True)])


def test_the_memo_is_invisible():
    by_e = uninorms_by_e(4)
    u1, u2 = by_e[3][0], by_e[1][16]
    classify_and_check(u1, u2, verbose=True)
    classify_and_check(u2, u1)
    for u in (u1, u2):
        assert {"_u1_share", "_u2_share"} <= vars(u).keys(), "classification left no memo to hide"
        copy = fresh(u)
        assert u == copy and hash(u) == hash(copy) and repr(u) == repr(copy)
        restored = pickle.loads(pickle.dumps(u))
        assert restored == u and hash(restored) == hash(u)


def count_restrictions(monkeypatch):
    """The (table, lo, hi, neutral) of every ``_restriction`` built from now on."""
    built = []
    original = core._restriction

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(core, "_restriction", counted)
    monkeypatch.setattr(distributivity, "_restriction", counted)
    return built


def test_nothing_carries_over_between_runs(monkeypatch):
    # a share kept from the first run would spare the second some clauses;
    # and no verdict of certify restricts a table
    clauses = []
    original = distributivity._clause

    def counted(*args, **kwargs):
        clauses.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(distributivity, "_clause", counted)
    built = count_restrictions(monkeypatch)
    counts = []
    for _ in range(2):
        clauses.clear()
        certify(ChainScale(3))
        counts.append(len(clauses))
    assert counts[0] > 0
    assert counts[0] == counts[1]
    assert built == []


@pytest.mark.parametrize("e1, e2", [(3, 1), (1, 3)], ids=["greater", "less"])
def test_only_a_decomposition_restricts_a_table(monkeypatch, e1, e2):
    # clause iii reads the full tables, so a classification builds no
    # restriction; a decomposition builds two on the block, u1's inner
    # uninorm and u2's boundary, and compose's candidate check none
    by_e = uninorms_by_e(4)
    u1, u2 = next((fresh(u1), fresh(u2)) for u1 in by_e[e1] for u2 in by_e[e2]
                  if classify_and_check(fresh(u1), fresh(u2)).verdict)
    block = distributivity._geometry(4, e1, e2).block
    lo, hi = block[0], block[-1]
    built = count_restrictions(monkeypatch)
    for verbose in (False, True):
        assert classify_and_check(u1, u2, verbose=verbose).verdict
    assert built == []
    d = decompose(u1, u2)
    assert built == [(u1, lo, hi, e1 - lo), (u2, lo, hi, e2 - lo)]
    assert d == decompose(fresh(u1), fresh(u2))
    built.clear()
    assert compose(d, ChainScale(4), e1, e2)[1] == u2
    assert built == []
    hits = list(scan_pairs(ChainScale(4), e1, e2))
    assert hits and len(built) == 2 * len(hits)
