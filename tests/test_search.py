"""Enumeration correctness, pruning safety, partitioning, certification."""

from dataclasses import replace

import pytest

import oracles
from unichain import (
    ChainScale,
    EnumerationTask,
    certify,
    enumerate_partitioned,
    enumerate_uninorms,
    is_idempotent,
    is_locally_internal,
    scan_pairs,
    underlying_tconorm,
    underlying_tnorm,
    validate_uninorm,
)
from unichain.errors import InternalConsistencyError, SearchLimitError
from unichain.formats import certification_doc, to_json
from unichain.search import SearchStats


def rows_set(uninorms):
    return set(u.rows for u in uninorms)


class TestEnumeration:
    def test_two_chain_has_one_uninorm_per_neutral(self):
        assert len(list(enumerate_uninorms(EnumerationTask(ChainScale(1), 0)))) == 1
        assert len(list(enumerate_uninorms(EnumerationTask(ChainScale(1), 1)))) == 1

    def test_three_chain_interior_neutral_has_two(self):
        us = list(enumerate_uninorms(EnumerationTask(ChainScale(2), 1)))
        assert len(us) == 2
        # the two completions differ only at u(0, 2)
        assert sorted(u(0, 2) for u in us) == [0, 2]

    @pytest.mark.parametrize("n", (2, 3))
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

    def test_stats_count_nodes(self):
        stats = SearchStats()
        list(enumerate_uninorms(EnumerationTask(ChainScale(3), 1), stats=stats))
        assert stats.nodes_expanded > 0
        assert stats.emitted == 5


class TestPruningSafety:
    @pytest.mark.parametrize("n", (2, 3))
    def test_each_rule_preserves_the_output_set(self, n):
        for e in range(n + 1):
            task = EnumerationTask(ChainScale(n), e)
            reference = [u.rows for u in enumerate_uninorms(task)]
            for flags in (
                dict(prune_monotone=False),
                dict(prune_associative=False),
                dict(prune_monotone=False, prune_associative=False),
            ):
                got = [u.rows for u in enumerate_uninorms(task, **flags)]
                assert got == reference, f"n={n} e={e} flags={flags}"

    def test_filter_pruning_matches_post_hoc(self):
        for e in range(4):
            for kwargs in (
                dict(idempotent_only=True),
                dict(locally_internal_only=True),
                dict(conjunctive_only=True),
                dict(idempotent_only=True, locally_internal_only=True),
            ):
                task = EnumerationTask(ChainScale(3), e, **kwargs)
                pruned = [u.rows for u in enumerate_uninorms(task)]
                posthoc = [u.rows for u in enumerate_uninorms(task, prune_filters=False)]
                assert pruned == posthoc

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


class TestPartitioning:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("depth", (0, 1, 2, 99))
    def test_equivalent_to_single_stream(self, workers, depth):
        task = EnumerationTask(ChainScale(3), 1)
        reference = [u.rows for u in enumerate_uninorms(task)]
        got = [u.rows for u in enumerate_partitioned(task, workers=workers, depth=depth)]
        assert got == reference

    def test_partitioned_filters(self):
        task = EnumerationTask(ChainScale(3), 2, idempotent_only=True)
        reference = [u.rows for u in enumerate_uninorms(task)]
        got = [u.rows for u in enumerate_partitioned(task, workers=2, depth=2)]
        assert got == reference


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
        from unichain import dual

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
