"""Shorthand constructors for the test suite.

The catalog families are built through ``catalog.from_string``, the same
path the command line takes; ``dual`` lifts the raw-row oracle in
``oracles`` to a uninorm; ``random_symmetric`` draws a table that need not
be a uninorm; ``case_conditions`` runs a pair's case conditions alone;
``flip_conditions`` plants one divergence;
``assert_well_formed`` holds a table built through ``OpTable._built`` to
the check that path skips; ``uninorms_by_e`` enumerates a chain once per
process, and ``all_pairs`` lists its ordered pairs.  The scale checks below
them run on small chains in tier-1 and on the next one in CI:
``oracle_checked_search`` holds every node of the pruned search to the
brute-force oracle while its block runs, and each of the others takes its
chain and returns its counts.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from functools import cache
from itertools import permutations
from math import comb, prod

import oracles
from unichain import ChainScale, CheckReport, EnumerationTask, OpTable, Uninorm, Violation
from unichain import distributivity, enumerate_uninorms, from_string, search
from unichain.core import _structural_violations
from unichain.distributivity import _distributivity_violations, _geometry, distributive_pairs


def idem_min(n, e):
    """max where both arguments are >= e, min everywhere else."""
    return from_string(f"idemmin(e={e},n={n})")


def idem_max(n, e):
    """min where both arguments are <= e, max everywhere else."""
    return from_string(f"idemmax(e={e},n={n})")


def luk_upper(n, e):
    """Bounded sum min(n, x+y-e) on [e,n]^2, min everywhere else."""
    return from_string(f"luk-upper(e={e},n={n})")


def min_tnorm(n):
    return from_string(f"min(n={n})")


def max_tconorm(n):
    return from_string(f"max(n={n})")


def table_of(rows):
    """An operation table on L_{len(rows) - 1}, checked for shape, range and symmetry."""
    return OpTable(ChainScale(len(rows) - 1), rows)


def dual(u):
    """u conjugated by the order reversal x -> n - x, neutral n - e."""
    return Uninorm(OpTable(u.scale, oracles.dual(u.rows)), u.n - u.e)


def random_symmetric(rng, n):
    """Rows of a symmetric table on L_n with every upper cell drawn from ``rng``."""
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for x in range(n + 1):
        for y in range(x, n + 1):
            rows[x][y] = rows[y][x] = rng.randrange(n + 1)
    return tuple(map(tuple, rows))


def assert_well_formed(table):
    """``OpTable``'s own check, and tuple rows, on a table built through
    ``_built``, which skips that check: the kernel relies on both unchecked."""
    assert not list(_structural_violations(table.values, table.scale.n)), table
    assert type(table.values) is tuple and all(type(row) is tuple for row in table.values)


def laws_violated(report):
    """The laws of a report's violations, each once, in order of appearance."""
    return tuple(dict.fromkeys(v.law for v in report.violations))


def case_conditions(u1, u2, verbose=False):
    """The case conditions' report on (u1, u2), through the dispatch that
    ``classify_and_check`` reads, without the exhaustive scan."""
    return distributivity._CONDITIONS[distributivity.case_of(u1, u2)](u1, u2, verbose)


def flip_conditions(monkeypatch, module, u1, u2):
    """Make ``module.classify_and_check`` reverse the case conditions' verdict
    on the pair (u1, u2): one planted theorem divergence."""
    original = module.classify_and_check
    planted = CheckReport.from_violations([Violation("planted-divergence", ())])

    def classify(a, b, **kwargs):
        result = original(a, b, **kwargs)
        if (a.rows, b.rows) == (u1.rows, u2.rows):
            flipped = planted if result.conditions.verdict else CheckReport.from_violations(())
            result = replace(result, conditions=flipped)
        return result

    monkeypatch.setattr(module, "classify_and_check", classify)


@cache
def uninorms_by_e(n):
    """Every uninorm on L_n, one tuple per neutral element, enumerated once per process."""
    return {e: tuple(enumerate_uninorms(EnumerationTask(ChainScale(n), e), max_n=n))
            for e in range(n + 1)}


@cache
def all_pairs(n):
    """All ordered uninorm pairs on L_n, flattened in canonical order."""
    by_e = uninorms_by_e(n)
    return tuple((u1, u2) for e1 in by_e for u1 in by_e[e1] for e2 in by_e for u2 in by_e[e2])


def closed_on_block(u1, g):
    """Whether u1 maps its block under ``g`` into itself: clause iii's closure."""
    return all(u1(x, y) in g.block for x in g.block for y in g.block)


@contextmanager
def oracle_checked_search():
    """Within the block, hold every node of the search to the brute-force
    oracle, and yield the oracle's verdicts, one per value tried.  A stand-in
    replaces ``search._search``, so that the recursion runs through it as
    well: every value a node tries, within its bounds and filters, gets
    ``oracles.assoc_ok_after``'s verdict, and the node's child calls must be
    exactly the values it passes, in order."""
    original, verdicts, passed = search._search, [], []

    def checked(t, pos, cells, i, stats, out, done, interned):
        if i:  # a child call: the parent's value passed its pruning
            x, y = cells[i - 1][:2]
            passed[-1].append(t[x][y])
        if i == len(cells):
            original(t, pos, cells, i, stats, out, done, interned)
            return
        x, y, hi, admitted = cells[i][:4]
        lo = max(t[x - 1][y] if x else 0, t[x][y - 1] if y else 0)
        expected = []
        for v in range(lo, hi + 1):
            if admitted is None or v in admitted:
                t[x][y] = t[y][x] = v
                verdicts.append(oracles.assoc_ok_after(t, x, y))
                if verdicts[-1]:
                    expected.append(v)
        t[x][y] = t[y][x] = -1
        passed.append([])
        original(t, pos, cells, i, stats, out, done, interned)
        assert passed.pop() == expected, (t, x, y)

    search._search = checked
    try:
        yield verdicts
    finally:
        search._search = original


def oracle_checked_enumeration(n):
    """Enumerate every task of L_n, unfiltered and conjunctive-only, within
    ``oracle_checked_search``; assert that the oracle judged every node and
    passed and refused a value somewhere, and return the nodes expanded."""
    stats = search.SearchStats()
    with oracle_checked_search() as verdicts:
        for conjunctive in (False, True):
            for e in range(n + 1):
                task = EnumerationTask(ChainScale(n), e, conjunctive_only=conjunctive)
                list(enumerate_uninorms(task, max_n=n, stats=stats))
    assert len(verdicts) == stats.nodes_expanded and True in verdicts and False in verdicts, n
    return stats.nodes_expanded


def held_tables(n):
    """Hold every table of L_n at once, through ``uninorms_by_e``, and
    assert that each neutral element's tables share one tuple per distinct
    row; return the table count of each e."""
    for e, us in uninorms_by_e(n).items():
        rows = [row for u in us for row in u.rows]
        assert len(set(map(id, rows))) == len(set(rows)), f"e={e}: equal rows held apart"
    return [len(us) for us in uninorms_by_e(n).values()]


def block_restrictions(n):
    """Hold every block restriction of L_n to ``assert_well_formed``: each
    uninorm's boundary as u2 against every other neutral element, and its
    inner uninorm as u1 where it is closed on the block.  Return how many
    were built."""
    built = 0
    for e, us in uninorms_by_e(n).items():
        for partner in range(n + 1):
            if partner == e:
                continue
            as_u2, as_u1 = _geometry(n, partner, e), _geometry(n, e, partner)
            for u in us:
                blocks = [as_u2.boundary(u)]
                if closed_on_block(u, as_u1):
                    blocks.append(as_u1.inner(u))
                for block in blocks:
                    assert_well_formed(block.table)
                    built += 1
    return built


def clause_iii_against_restrictions(n):
    """Clause iii scans the law on the block of the full tables; the
    reference scans the inner uninorm over the boundary on their whole
    chain.  Compare their verbose witnesses on every pair of L_n whose u1 is
    closed on its block; return the pairs compared, their witnesses, and the
    rows (u1, u2) of each pair where the two differ."""
    law, compared, witnesses, differ = "clause-iii-distributivity", 0, 0, []
    by_e = uninorms_by_e(n)
    for e1, e2 in permutations(by_e, 2):
        g = _geometry(n, e1, e2)
        boundaries = [(u2, g.boundary(u2).rows) for u2 in by_e[e2]]
        for u1 in by_e[e1]:
            if not closed_on_block(u1, g):
                continue
            inner = g.inner(u1).rows
            for u2, boundary in boundaries:
                got = _distributivity_violations(u1.rows, u2.rows, g.block, True, law, g.subchain)
                if got != _distributivity_violations(inner, boundary, range(len(inner)), True, law,
                                                     g.subchain):
                    differ.append((u1.rows, u2.rows))
                compared += 1
                witnesses += len(got)
    return compared, witnesses, differ


# T(8)-T(10), the e = 0 enumeration counts of L_8-L_10, carried so that no test enumerates those chains
CARRIED_T = {8: 13775, 9: 86417, 10: 590489}


def t_count(k):
    """T(k), the t-conorms on L_k: the e = 0 enumeration count, with T(0) = 1,
    and the carried count beyond L_7."""
    return CARRIED_T.get(k) or (len(uninorms_by_e(k)[0]) if k else 1)


def boundary_blocks(n):
    """Hold the blocks (e1, e2) of L_n whose u1 is a t-conorm (e1 = 0) or a
    t-norm (e1 = n) to their closed form, as sets of the hits that
    ``distributive_pairs`` finds; return each block's hit count.

    For 0 < e2 < n, a t-conorm S distributes over a u2 of neutral e2 exactly
    when u2 is ``idemmax`` and S(x, y) = max(x, y) whenever x <= e2 <= y:
    T(e2)·T(n - e2) hits.  Block (n, e2) is its dual, with ``idemmin`` and
    min.  In blocks (0, 0), (0, n), (n, 0) and (n, n) every u1 distributes
    over one u2, max or min: T(n) hits."""
    by_e, counts = uninorms_by_e(n), {}
    for e1, fixed, idem in ((0, max, idem_max), (n, min, idem_min)):
        firsts = by_e[e1]
        for e2, seconds in by_e.items():
            if 0 < e2 < n:
                u2, expected = idem(n, e2), t_count(e2) * t_count(n - e2)
                kept = [i for i, u1 in enumerate(firsts)
                        if all(u1(x, y) == fixed(x, y) for x in range(e2 + 1) for y in range(e2, n + 1))]
            else:
                u2, expected = max_tconorm(n) if e2 == 0 else min_tnorm(n), t_count(n)
                kept = range(len(firsts))
            at = [u.rows for u in seconds].index(u2.rows)
            hits = distributive_pairs([u.table for u in firsts], [u.table for u in seconds])
            assert set(hits) == {(i, at) for i in kept}, (n, e1, e2)
            assert len(hits) == expected, (n, e1, e2, len(hits), expected)
            counts[e1, e2] = len(hits)
    return counts


def threshold(u):
    """t(x) = max{y >= e : u(x, y) = x} for each x in [0, e], u of neutral e."""
    return tuple(max(y for y in range(u.e, u.n + 1) if u(x, y) == x) for x in range(u.e + 1))


def equal_fibre_size(n, t):
    """The equal case's closed form: the number of u1 that distribute over
    the idempotent uninorm of threshold t on L_n, with neutral e = len(t) - 1.
    [0, e] is cut at 0, e and every x in 1..e-1 where t steps down, [e, n] at
    e, n and every value of t strictly inside (e, n); the form is the product
    of T(b - a) over consecutive cuts a < b of each side."""
    e = len(t) - 1
    lower = sorted({0, e, *(x for x in range(1, e) if t[x] < t[x - 1])})
    upper = sorted({e, n, *(y for y in t if e < y < n)})
    return prod(t_count(b - a) for cuts in (lower, upper) for a, b in zip(cuts, cuts[1:]))


def equal_blocks(n):
    """Hold each block (e, e) of L_n to the equal case's closed form: the u2
    with a hit in ``distributive_pairs`` are exactly the C(n, e) idempotent
    uninorms of neutral e, and the fibre of each (the u1 that distribute over
    it) has ``equal_fibre_size`` members.  Return each block's hit count."""
    counts = []
    for e, us in uninorms_by_e(n).items():
        tables = [u.table for u in us]
        fibres = Counter(i2 for _, i2 in distributive_pairs(tables, tables))
        idempotent = {i for i, u in enumerate(us) if all(u(x, x) == x for x in range(n + 1))}
        assert fibres.keys() == idempotent and len(idempotent) == comb(n, e), (n, e)
        for i2, size in fibres.items():
            assert size == equal_fibre_size(n, threshold(us[i2])), (n, e, us[i2].rows, size)
        counts.append(fibres.total())
    return counts
