"""The pair conditions remember each table's own share on the table itself.

Every check here compares a shared, memoized uninorm with a fresh copy that
has never been classified: results must be equal on both reports, witness
order included, and the memo must be invisible and last no longer than a run.
"""

import pickle
import random

import pytest

from unichain import ChainScale, OpTable, Uninorm, certify, classify_and_check
from unichain import core, distributivity


def fresh(u):
    """An equal uninorm that no classification has touched."""
    return Uninorm(OpTable(u.scale, u.rows), u.e)


def test_shuffled_l4_pairs_match_fresh_copies(all_pairs):
    rng = random.Random(20261018)
    pairs = list(all_pairs(4))
    rng.shuffle(pairs)
    for u1, u2 in pairs:
        verbose = rng.random() < 0.5
        shared = classify_and_check(u1, u2, verbose=verbose)
        assert shared == classify_and_check(fresh(u1), fresh(u2), verbose=verbose), (
            u1.rows, u1.e, u2.rows, u2.e, verbose)


def test_one_table_alternating_partners_and_verbosity(uninorms_by_e):
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
    for partner, verbose in calls:
        for first, second in ((u, partner), (partner, u)):
            shared = classify_and_check(first, second, verbose=verbose)
            expected = classify_and_check(fresh(first), fresh(second), verbose=verbose)
            assert shared == expected, (partner.rows, partner.e, verbose, first is u)


def test_the_memo_is_invisible(uninorms_by_e):
    by_e = uninorms_by_e(4)
    u1, u2 = by_e[3][0], by_e[1][16]
    classify_and_check(u1, u2, verbose=True)
    classify_and_check(u2, u1)
    for u in (u1, u2):
        assert vars(u).get("_latest"), "classification left no memo to hide"
        copy = fresh(u)
        assert u == copy and hash(u) == hash(copy) and repr(u) == repr(copy)
        restored = pickle.loads(pickle.dumps(u))
        assert restored == u and hash(restored) == hash(u)


def test_nothing_carries_over_between_runs(monkeypatch):
    calls = []
    original = core._restriction

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(core, "_restriction", counted)
    monkeypatch.setattr(distributivity, "_restriction", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        certify(ChainScale(3))
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]
