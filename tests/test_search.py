"""Enumeration correctness, pruning safety, partitioning, certification."""

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import oracles
from conftest import FIXTURES_DIR
from helpers import flip_conditions
from unichain import (
    ChainScale,
    EnumerationTask,
    certify,
    enumerate_uninorms,
    is_idempotent,
    is_locally_internal,
    scan_pairs,
    underlying_tconorm,
    underlying_tnorm,
    validate_uninorm,
)
from unichain import search
from unichain.errors import DomainError, InternalConsistencyError, SearchLimitError
from unichain.formats import certification_doc, render_certification, to_json
from unichain.search import PairDivergence, SearchStats, _check_pair_block


def rows_set(uninorms):
    return set(u.rows for u in uninorms)


FILTERS = ("idempotent", "locally-internal", "conjunctive")


def enumeration_pins(max_n):
    """For every scale up to ``max_n``, neutral element and filter combination:
    the SHA-256 of the enumerated rows, the nodes expanded and the tables
    emitted.  ``tests/fixtures/enumeration_l5.json`` holds ``enumeration_pins(5)``."""
    pins = {}
    for n in range(1, max_n + 1):
        for e in range(n + 1):
            for flags in product((False, True), repeat=3):
                stats = SearchStats()
                task = EnumerationTask(ChainScale(n), e, *flags)
                rows = [u.rows for u in enumerate_uninorms(task, stats=stats)]
                chosen = "+".join(f for f, on in zip(FILTERS, flags) if on) or "none"
                pins[f"n={n} e={e} filters={chosen}"] = {
                    "rows-sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
                    "nodes-expanded": stats.nodes_expanded,
                    "emitted": stats.emitted,
                }
    return pins


class TestEnumeration:
    def test_two_chain_has_one_uninorm_per_neutral(self):
        assert len(list(enumerate_uninorms(EnumerationTask(ChainScale(1), 0)))) == 1
        assert len(list(enumerate_uninorms(EnumerationTask(ChainScale(1), 1)))) == 1

    def test_three_chain_interior_neutral_has_two(self):
        us = list(enumerate_uninorms(EnumerationTask(ChainScale(2), 1)))
        assert len(us) == 2
        # the two completions differ only at u(0, 2)
        assert sorted(u(0, 2) for u in us) == [0, 2]

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_matches_the_naive_filter_exactly(self, n):
        for e in range(n + 1):
            ours = rows_set(enumerate_uninorms(EnumerationTask(ChainScale(n), e)))
            naive = set(oracles.naive_uninorms(n, e))
            assert ours == naive, f"n={n} e={e}"

    def test_soundness_on_l4(self, uninorms_by_e):
        for e, us in uninorms_by_e(4).items():
            for u in us:
                assert validate_uninorm(u.table, u.e).verdict

    def test_deterministic_order(self):
        task = EnumerationTask(ChainScale(3), 1)
        first = [u.rows for u in enumerate_uninorms(task)]
        second = [u.rows for u in enumerate_uninorms(task)]
        assert first == second
        assert first == sorted(first)  # lexicographic stream

    def test_no_duplicates(self, uninorms_by_e):
        for e, us in uninorms_by_e(4).items():
            assert len(us) == len(rows_set(us))

    def test_refusal_above_limit(self):
        with pytest.raises(SearchLimitError, match="max_n"):
            list(enumerate_uninorms(EnumerationTask(ChainScale(7), 3)))

    @pytest.mark.parametrize("workers", (0, -2))
    def test_worker_count_below_one_refused(self, workers):
        stats = SearchStats()
        with pytest.raises(DomainError, match=f"worker count must be at least 1, got {workers}"):
            next(enumerate_uninorms(EnumerationTask(ChainScale(3), 1), workers=workers,
                                    stats=stats))
        assert stats.nodes_expanded == 0

    def test_stats_count_nodes(self):
        stats = SearchStats()
        list(enumerate_uninorms(EnumerationTask(ChainScale(3), 1), stats=stats))
        assert stats.nodes_expanded > 0
        assert stats.emitted == 5


class TestPruningSafety:
    @pytest.mark.parametrize("e", range(4))
    def test_every_filter_combination_matches_the_oracle(self, e):
        n = 3
        everything = sorted(oracles.naive_uninorms(n, e))
        for idempotent, internal, conjunctive in product((False, True), repeat=3):
            expected = []
            for rows in everything:
                if idempotent and any(rows[x][x] != x for x in range(n + 1)):
                    continue
                if internal and any(rows[x][y] not in (x, y)
                                    for x in range(e) for y in range(e + 1, n + 1)):
                    continue
                if conjunctive and rows[0][n] != 0:
                    continue
                expected.append(rows)
            task = EnumerationTask(ChainScale(n), e, idempotent_only=idempotent,
                                   locally_internal_only=internal, conjunctive_only=conjunctive)
            got = [u.rows for u in enumerate_uninorms(task)]
            assert got == expected, f"e={e} filters={(idempotent, internal, conjunctive)}"

    def test_filters_select_the_right_tables(self, uninorms_by_e):
        everything = uninorms_by_e(3)[1]
        idem = list(enumerate_uninorms(EnumerationTask(ChainScale(3), 1, idempotent_only=True)))
        assert rows_set(idem) == set(u.rows for u in everything if is_idempotent(u))
        internal = list(enumerate_uninorms(
            EnumerationTask(ChainScale(3), 1, locally_internal_only=True)))
        assert rows_set(internal) == set(u.rows for u in everything if is_locally_internal(u))
        conj = list(enumerate_uninorms(EnumerationTask(ChainScale(3), 1, conjunctive_only=True)))
        assert rows_set(conj) == set(u.rows for u in everything if u(0, 3) == 0)

    def test_conjunctive_filter_with_bottom_neutral_is_empty(self):
        task = EnumerationTask(ChainScale(3), 0, conjunctive_only=True)
        assert list(enumerate_uninorms(task)) == []

    def test_every_task_through_l5_matches_its_pin(self):
        pins = json.loads((FIXTURES_DIR / "enumeration_l5.json").read_text(encoding="utf-8"))
        assert enumeration_pins(5) == pins

    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_symmetric_table_checks_each_triple_and_its_mirror_alike(self, n):
        # the lemma that lets the pruning check one triple of each mirror pair
        rng = random.Random(20261018 + n)
        pts = range(n + 1)
        for _ in range(40):
            t = [[-1] * (n + 1) for _ in pts]
            for x in pts:
                for y in range(x, n + 1):
                    t[x][y] = t[y][x] = rng.randrange(-1, n + 1)
            for a, b, c in product(pts, repeat=3):
                assert (search._triple_consistent(t, a, b, c)
                        == search._triple_consistent(t, c, b, a)), (t, a, b, c)


class TestPartitioning:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("depth", (0, 1, 2, 99))
    def test_equivalent_to_single_stream(self, monkeypatch, workers, depth):
        task = EnumerationTask(ChainScale(3), 1)
        reference_stats = SearchStats()
        reference = [u.rows for u in enumerate_uninorms(task, stats=reference_stats)]
        monkeypatch.setattr(search, "PARTITION_DEPTH", depth)
        stats = SearchStats()
        got = [u.rows for u in enumerate_uninorms(task, workers=workers, stats=stats)]
        assert got == reference
        assert stats == reference_stats

    def test_partitioned_filters(self):
        task = EnumerationTask(ChainScale(3), 2, idempotent_only=True)
        reference = [u.rows for u in enumerate_uninorms(task)]
        got = [u.rows for u in enumerate_uninorms(task, workers=2)]
        assert got == reference

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_two_workers_give_the_same_stream_and_stats(self, n):
        for e in range(n + 1):
            task = EnumerationTask(ChainScale(n), e)
            runs = []
            for workers in (1, 2):
                stats = SearchStats()
                runs.append(([u.rows for u in enumerate_uninorms(task, workers=workers, stats=stats)],
                             stats))
            assert runs[0] == runs[1], f"n={n} e={e}"

    @pytest.mark.parametrize("tamper", ("repeat", "reverse", "duplicate"))
    def test_a_repeated_or_misordered_part_raises(self, monkeypatch, tamper):
        original = search._map

        def tampered(fn, jobs, workers):
            parts = [part for part in original(fn, jobs, workers) if part[0]]
            assert len(parts) > 1
            if tamper == "repeat":
                return parts + parts[-1:]
            if tamper == "reverse":
                return parts[::-1]
            tables, nodes = parts[0]
            return [(tables + tables[-1:], nodes)] + parts[1:]

        monkeypatch.setattr(search, "_map", tampered)
        with pytest.raises(InternalConsistencyError, match="lexicographic order"):
            list(enumerate_uninorms(EnumerationTask(ChainScale(3), 1)))


class TestCertify:
    def test_l1_trivially_consistent(self):
        report = certify(ChainScale(1))
        assert report.pairs_checked == 4
        assert not report.divergences
        assert report.agreements == 4

    def test_l2_no_divergences(self):
        report = certify(ChainScale(2))
        assert report.pairs_checked == 36
        assert not report.divergences

    def test_l3_counts_and_consistency(self):
        report = certify(ChainScale(3))
        assert report.uninorm_counts == ((0, 6), (1, 5), (2, 5), (3, 6))
        assert report.pairs_checked == 484
        assert report.agreements == 484
        assert not report.divergences
        assert not report.partial
        # golden distributive-pair counts, frozen from the first verified run
        assert report.distributive_case_counts == (
            ("equal-neutral", 22),
            ("greater-neutral", 34),
            ("less-neutral", 34),
        )

    def test_deterministic_across_runs_and_workers(self):
        docs = []
        for workers in (1, 1, 2, 3):
            report = certify(ChainScale(3), workers=workers)
            docs.append(to_json(certification_doc(report, include_timing=False)))
        assert len(set(docs)) == 1

    def test_partial_budget(self):
        report = certify(ChainScale(3), pair_budget=100)
        assert report.partial
        assert report.pairs_checked == 100
        assert report.agreements == 100

    def test_refusal_above_limit(self):
        with pytest.raises(SearchLimitError):
            certify(ChainScale(5))

    @pytest.mark.parametrize("field", ("uninorm_counts", "pair_case_counts",
                                       "distributive_case_counts"))
    def test_a_broken_duality_count_raises(self, field):
        report = certify(ChainScale(3))
        counts = [list(item) for item in getattr(report, field)]
        counts[0][1] += 1  # the second entry loses what the first gains: totals stay put
        counts[1][1] -= 1
        with pytest.raises(InternalConsistencyError, match="palindromic|differ"):
            replace(report, **{field: tuple(map(tuple, counts))})
        replace(report, **{field: tuple(map(tuple, counts))}, partial=True)

    def test_quick_limit_override(self):
        report = certify(ChainScale(2), max_n=2)
        assert report.pairs_checked == 36

    def test_negative_pair_budget_refused_before_enumerating(self, monkeypatch):
        enumerated = []
        monkeypatch.setattr(search, "enumerate_uninorms",
                            lambda task, **kwargs: enumerated.append(task) or iter(()))
        with pytest.raises(DomainError, match="pair budget must be at least 0, got -5"):
            certify(ChainScale(2), pair_budget=-5)
        assert enumerated == []

    @pytest.mark.parametrize("workers", (0, -3))
    def test_worker_count_below_one_refused_before_enumerating(self, monkeypatch, workers):
        enumerated = []
        monkeypatch.setattr(search, "enumerate_uninorms",
                            lambda task, **kwargs: enumerated.append(task) or iter(()))
        with pytest.raises(DomainError, match=f"worker count must be at least 1, got {workers}"):
            certify(ChainScale(2), workers=workers)
        assert enumerated == []

    def test_zero_pair_budget_is_an_empty_partial_report(self):
        report = certify(ChainScale(2), pair_budget=0)
        assert report.partial and report.pairs_checked == 0 and report.agreements == 0


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with one that runs in this process and
    records the ``max_workers`` it was asked for."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InProcessPool)
    return sizes


def set_cpus(monkeypatch, affinity, count):
    """Pretend this process may run on ``affinity`` CPUs (None: the platform
    has no affinity call) of a machine with ``count``."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


class TestWorkerCount:
    def certify_doc(self, **kwargs):
        return to_json(certification_doc(certify(ChainScale(2), **kwargs), include_timing=False))

    @pytest.mark.parametrize("affinity, count, expected", [
        (2, 8, [2]),     # the CPUs this process may use, not the machine's
        (None, 3, [3]),  # no affinity call: the machine's CPU count
        (1, 8, []),      # one CPU: no pool at all
        (None, None, []),
    ], ids=["affinity", "cpu-count", "one-cpu", "unknown"])
    def test_no_more_processes_than_cpus(self, monkeypatch, pool_sizes, affinity, count, expected):
        serial = self.certify_doc(workers=1)
        set_cpus(monkeypatch, affinity, count)
        assert self.certify_doc(workers=6) == serial
        assert pool_sizes == expected

    def test_no_more_processes_than_jobs(self, monkeypatch, pool_sizes):
        set_cpus(monkeypatch, 16, 16)
        assert list(search._map(abs, [-1, -2, -3], 8)) == [1, 2, 3]
        assert list(search._map(abs, [-1], 8)) == [1]
        assert pool_sizes == [3]

    def test_enumeration_is_capped_too(self, monkeypatch, pool_sizes):
        task = EnumerationTask(ChainScale(3), 1)
        serial = [u.rows for u in enumerate_uninorms(task)]
        set_cpus(monkeypatch, 2, 2)
        assert [u.rows for u in enumerate_uninorms(task, workers=5)] == serial
        assert pool_sizes == [2]


class TestDivergenceReporting:
    """A conditions verdict flipped on one chosen L_3 pair surfaces as exactly
    one divergence, with the pair's indices and rows, however the pair space
    is sliced."""

    E1, I1, E2, I2 = 2, 3, 1, 4
    INDEX = (11 + 3) * 22 + (6 + 4)  # canonical position: counts are 6, 5, 5, 6

    @pytest.fixture
    def flipped(self, monkeypatch, uninorms_by_e):
        by_e = uninorms_by_e(3)
        u1, u2 = by_e[self.E1][self.I1], by_e[self.E2][self.I2]
        assert not oracles.distributes(u1.rows, u2.rows)
        flip_conditions(monkeypatch, search, u1, u2)
        uninorms = [(e, i, u) for e, us in sorted(by_e.items()) for i, u in enumerate(us)]
        expected = PairDivergence(self.E1, self.I1, self.E2, self.I2, "greater-neutral",
                                  True, False, u1.rows, u2.rows)
        return uninorms, expected

    @pytest.mark.parametrize("start, stop", [(0, 484), (0, 319), (318, 319), (300, 400),
                                             (319, 484), (0, 318)])
    def test_a_block_reports_the_flipped_pair(self, flipped, start, stop):
        uninorms, expected = flipped
        tally, agreements, divergences = _check_pair_block((uninorms, start, stop))
        inside = start <= self.INDEX < stop
        assert divergences == ([expected] if inside else [])
        assert sum(tally.values()) == stop - start
        assert agreements == stop - start - inside

    def test_blocks_concatenate_to_the_full_run(self, flipped):
        uninorms, _ = flipped
        full = _check_pair_block((uninorms, 0, 484))
        cuts = (0, 100, 318, 319, 483, 484)
        tally, agreements, divergences = Counter(), 0, []
        for start, stop in zip(cuts, cuts[1:]):
            part, agree, div = _check_pair_block((uninorms, start, stop))
            tally += part
            agreements += agree
            divergences += div
        assert (tally, agreements, divergences) == full

    def test_certify_reports_the_divergence(self, flipped):
        _, expected = flipped
        report = certify(ChainScale(3), workers=1)
        assert report.divergences == (expected,)
        assert report.agreements == 483
        text = render_certification(report)
        assert "divergences: 1\n" in text
        assert (f"  DIVERGENCE case greater-neutral at (e1=2 #3, e2=1 #4): "
                f"conditions=True exhaustive=False\n    u1 rows: {expected.u1_rows}\n"
                f"    u2 rows: {expected.u2_rows}\n") in text


class TestScanPairs:
    def test_greater_scan_on_l3(self):
        hits = scan_pairs(ChainScale(3), 2, 1)
        assert len(hits) == 4
        for hit in hits:
            assert hit.classification.agreement
            assert hit.necessity is not None and hit.necessity.verdict
            assert hit.decomposition is not None
            t2 = underlying_tnorm(hit.u2)
            assert t2.rows == tuple(tuple(min(x, y) for y in range(2)) for x in range(2))
            assert is_locally_internal(hit.u2)

    def test_less_scan_mirrors_greater(self):
        greater = scan_pairs(ChainScale(3), 2, 1)
        less = scan_pairs(ChainScale(3), 1, 2)
        assert len(greater) == len(less)
        for hit in less:
            s2 = underlying_tconorm(hit.u2)
            assert s2.rows == tuple(tuple(max(x, y) for y in range(2)) for x in range(2))

    def test_duality_bijection(self):
        from helpers import dual

        greater = scan_pairs(ChainScale(3), 2, 1)
        less = scan_pairs(ChainScale(3), 1, 2)
        mirrored = set((dual(h.u1).rows, dual(h.u2).rows) for h in greater)
        assert mirrored == set((h.u1.rows, h.u2.rows) for h in less)

    def test_equal_scan_has_no_batteries(self):
        hits = scan_pairs(ChainScale(3), 1, 1)
        assert hits
        for hit in hits:
            assert hit.necessity is None and hit.decomposition is None

    def test_boundary_scan_has_no_decomposition(self):
        hits = scan_pairs(ChainScale(3), 3, 0)
        assert hits  # every t-norm distributes over max
        for hit in hits:
            assert hit.necessity is not None and hit.necessity.verdict
            assert hit.decomposition is None
