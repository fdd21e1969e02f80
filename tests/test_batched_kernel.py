"""The batched distributivity kernel against independent oracles, and the
scan that takes its hits from it."""

import random

import numpy as np
import pytest

import oracles
from helpers import random_symmetric
from unichain import ChainScale, check_distributivity, decompose, scan_pairs
from unichain import distributivity, search
from unichain.distributivity import distributivity_matrix
from unichain.errors import InternalConsistencyError, ScaleMismatchError


def matrix_of(firsts, seconds):
    return distributivity_matrix([u.rows for u in firsts], [u.rows for u in seconds])


def oracle_matrix(firsts, seconds):
    return np.array([[oracles.distributes(a, b) for b in seconds] for a in firsts], dtype=bool)


def symmetric_stack(rng, n, k):
    """``k`` random symmetric tables, plus min, max and the two constants so
    that some cells hold; none need be a uninorm."""
    pts = range(n + 1)
    fixed = [tuple(tuple(op(x, y) for y in pts) for x in pts)
             for op in (min, max, lambda x, y: 0, lambda x, y: n)]
    return [random_symmetric(rng, n) for _ in range(k)] + fixed


class TestKernel:
    def test_matches_the_oracle_on_every_l3_uninorm_pair(self, uninorms_by_e):
        by_e = uninorms_by_e(3)
        for e1 in by_e:
            for e2 in by_e:
                got = matrix_of(by_e[e1], by_e[e2])
                want = oracle_matrix([u.rows for u in by_e[e1]], [u.rows for u in by_e[e2]])
                assert np.array_equal(got, want), (e1, e2)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_the_oracle_on_random_symmetric_tables(self, n):
        rng = random.Random(20261018 + n)
        firsts, seconds = symmetric_stack(rng, n, 12), symmetric_stack(rng, n, 9)
        got = distributivity_matrix(firsts, seconds)
        want = oracle_matrix(firsts, seconds)
        assert got.shape == (16, 13)
        assert want.any() and not want.all()
        assert np.array_equal(got, want)

    def test_matches_the_per_pair_checker_on_all_l4_pairs(self, uninorms_by_e):
        everything = [u for us in uninorms_by_e(4).values() for u in us]
        got = matrix_of(everything, everything)
        assert got.shape == (92, 92)
        for i, u1 in enumerate(everything):
            for j, u2 in enumerate(everything):
                assert got[i, j] == check_distributivity(u1, u2).verdict, (i, j)

    def test_empty_and_mismatched_stacks(self, uninorms_by_e):
        us = uninorms_by_e(3)[1]
        assert matrix_of([], us).shape == (0, len(us))
        assert matrix_of(us, []).shape == (len(us), 0)
        with pytest.raises(ScaleMismatchError):
            matrix_of(us, uninorms_by_e(2)[1])


class TestScanOnTheKernel:
    def test_a_flipped_kernel_cell_raises(self, monkeypatch):
        def flipped(firsts, seconds):
            out = distributivity_matrix(firsts, seconds)
            out[np.unravel_index(np.argmin(out), out.shape)] = True  # first non-distributive cell
            return out

        monkeypatch.setattr(search, "distributivity_matrix", flipped)
        with pytest.raises(InternalConsistencyError, match="disagree"):
            scan_pairs(ChainScale(3), 2, 1)

    def test_equal_neutrals_enumerate_once(self, monkeypatch):
        calls = []
        original = search.enumerate_uninorms

        def counted(task, **kwargs):
            calls.append(task.e)
            return original(task, **kwargs)

        monkeypatch.setattr(search, "enumerate_uninorms", counted)
        hits = scan_pairs(ChainScale(3), 1, 1)
        assert calls == [1]
        assert hits


PROPER_UNEQUAL_L4 = [(e1, e2) for e1 in range(1, 4) for e2 in range(1, 4) if e1 != e2]


class TestOneClassificationPerHit:
    @pytest.mark.parametrize("e1, e2", PROPER_UNEQUAL_L4)
    def test_each_hit_decomposes_as_the_public_decompose(self, e1, e2):
        hits = scan_pairs(ChainScale(4), e1, e2)
        assert hits
        for hit in hits:
            assert hit.decomposition is not None
            assert hit.decomposition == decompose(hit.u1, hit.u2)

    @pytest.mark.parametrize("e1, e2", PROPER_UNEQUAL_L4)
    def test_each_hit_is_classified_once(self, monkeypatch, e1, e2):
        calls = []
        original = distributivity.classify_and_check

        def counted(u1, u2, **kwargs):
            calls.append((u1.rows, u2.rows))
            return original(u1, u2, **kwargs)

        monkeypatch.setattr(search, "classify_and_check", counted)
        monkeypatch.setattr(distributivity, "classify_and_check", counted)
        hits = scan_pairs(ChainScale(4), e1, e2)
        assert hits
        assert calls == [(hit.u1.rows, hit.u2.rows) for hit in hits]
