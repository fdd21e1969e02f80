"""The column-wise distributivity kernel on ``OpTable`` stacks against
independent oracles and against the row-by-row form it replaced, its hits
against pins (L_5-L_7) and against duality, and the scan that takes its hits
from it."""

import json
import random

import pytest

import hit_pins
import oracles
from helpers import random_symmetric, table_of
from unichain import ChainScale, OpTable, check_distributivity, decompose, scan_pairs
from unichain import distributivity, search
from unichain.distributivity import distributive_pairs
from unichain.errors import InternalConsistencyError, ScaleMismatchError, StructureError


def tables(stack):
    """The ``OpTable`` of each table of a stack of rows."""
    return [table_of(rows) for rows in stack]


def pairs_of(firsts, seconds):
    return distributive_pairs([u.table for u in firsts], [u.table for u in seconds])


def oracle_pairs(firsts, seconds):
    return [(i, j) for i, a in enumerate(firsts) for j, b in enumerate(seconds)
            if oracles.distributes(a, b)]


def symmetric_stack(rng, n, k):
    """``k`` random symmetric tables, plus min, max and the two constants so
    that some cells hold; none need be a uninorm."""
    pts = range(n + 1)
    fixed = [tuple(tuple(op(x, y) for y in pts) for x in pts)
             for op in (min, max, lambda x, y: 0, lambda x, y: n)]
    return [random_symmetric(rng, n) for _ in range(k)] + fixed


def monotone_stack(rng, n, k):
    """``k`` tables f(min(x, y)) or f(max(x, y)), f a monotone map on L_n drawn
    from ``rng``: symmetric, and each distributes over min and max."""
    stack = []
    for _ in range(k):
        f = sorted(rng.randrange(n + 1) for _ in range(n + 1))
        op = rng.choice((min, max))
        stack.append(tuple(tuple(f[op(x, y)] for y in range(n + 1)) for x in range(n + 1)))
    return stack


def random_rows(rng, n):
    """Rows of a table on L_n, each the identity, a constant end or drawn from
    ``rng``: rarely symmetric, and often endomorphisms of min and max."""
    pts = range(n + 1)
    kept = [tuple(pts), (0,) * (n + 1), (n,) * (n + 1)]
    return tuple(rng.choice(kept) if rng.random() < 0.8 else
                 tuple(rng.randrange(n + 1) for _ in pts) for _ in pts)


# u1(0, u2(1, 0)) = 2 but u2(u1(0, 1), u1(0, 0)) = 0: A does not distribute
# over the asymmetric B, yet every row of A keeps B on the cells y <= z
A = ((0, 2, 2), (0, 1, 2), (2, 2, 2))
B = ((2, 0, 0), (1, 1, 2), (0, 0, 2))


class TestKernel:
    def test_matches_the_oracle_on_every_l3_uninorm_pair(self, uninorms_by_e):
        by_e = uninorms_by_e(3)
        for e1 in by_e:
            for e2 in by_e:
                got = pairs_of(by_e[e1], by_e[e2])
                want = oracle_pairs([u.rows for u in by_e[e1]], [u.rows for u in by_e[e2]])
                assert got == want, (e1, e2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_oracle_on_random_symmetric_tables(self, n):
        # none need be a uninorm; the row-by-row form the kernel replaced must
        # find the same pairs, and tables built from lists the same again
        rng = random.Random(20261018 + n)
        firsts = symmetric_stack(rng, n, 12) + monotone_stack(rng, n, 6)
        seconds = symmetric_stack(rng, n, 9)
        got = distributive_pairs(tables(firsts), tables(seconds))
        want = oracle_pairs(firsts, seconds)
        assert 0 < len(want) < 22 * 13
        assert any(i >= 16 for i, _ in want), "no monotone first table distributes"
        assert got == want == oracles.row_distributive_pairs(firsts, seconds)
        as_lists = [OpTable(ChainScale(n), [list(row) for row in t]) for t in firsts]
        assert distributive_pairs(as_lists, tables(seconds)) == want

    def test_matches_the_per_pair_checker_on_all_l4_pairs(self, uninorms_by_e):
        everything = [u for us in uninorms_by_e(4).values() for u in us]
        want = [(i, j) for i, u1 in enumerate(everything) for j, u2 in enumerate(everything)
                if check_distributivity(u1, u2).verdict]
        assert len(everything) == 92
        assert pairs_of(everything, everything) == want

    @pytest.mark.parametrize("n, rows", [
        pytest.param(0, (), id="no-point"),                       # ChainScale refuses L_0
        pytest.param(1, ((0, 1.5), (7,)), id="ragged-float-off-chain"),
        pytest.param(1, ((0, 1.5),), id="a-row-too-few"),
        pytest.param(1, ((0, 1), (7,)), id="a-short-row"),
        pytest.param(1, ((0, 1), (1, 1), (1, 1)), id="a-row-too-many"),
        pytest.param(1, ((0, 2), (2, 1)), id="above-the-chain"),
        pytest.param(1, ((0, -1), (-1, 1)), id="below-the-chain"),
        pytest.param(1, ((0, 0), (0, 1.0)), id="float"),          # 1.0 hashes as 1
        pytest.param(1, ((0, 0), (0, True)), id="bool"),
        pytest.param(1, ((0, 1), (0, 1)), id="asymmetric"),
        pytest.param(2, B, id="asymmetric-B"),
    ])
    def test_each_table_the_kernel_once_refused_is_refused_by_optable(self, n, rows):
        # the kernel checks no structure: a table that reaches it is well formed
        with pytest.raises(StructureError):
            OpTable(ChainScale(n), rows)

    def test_an_asymmetric_second_table_would_be_misjudged(self):
        # why OpTable's symmetry check is load-bearing for the kernel
        assert not oracles.distributes(A, B)
        rows = sorted(set(A))
        assert distributivity._endomorphisms(rows, [B]) == [1] * len(rows)

    def test_empty_and_mismatched_stacks(self, uninorms_by_e):
        us, others = uninorms_by_e(3)[1], uninorms_by_e(2)[1]
        assert pairs_of([], us) == []
        assert pairs_of(us, []) == []
        assert pairs_of([], []) == []
        for firsts, seconds in ((us, others), (others, us), ([], us + others),
                                (others + us, [])):
            with pytest.raises(ScaleMismatchError, match="more than one chain: L_2, L_3"):
                pairs_of(firsts, seconds)


class TestColumnsAgainstTheRowForm:
    """The column-wise kernel against ``oracles.row_distributive_pairs``, the
    row-by-row form it replaced, where the bitsets have edge cases, and its
    endomorphism bitsets against the oracle."""

    def test_duplicated_second_tables(self):
        rng = random.Random(7)
        stack = symmetric_stack(rng, 3, 8)
        seconds = stack + stack[::-1] + [stack[0]] * 3
        firsts = stack + monotone_stack(rng, 3, 12)
        got = distributive_pairs(tables(firsts), tables(seconds))
        assert got == oracles.row_distributive_pairs(firsts, seconds)
        hit = set(got)
        for j, b in enumerate(seconds):  # each copy is hit by the same first tables
            k = stack.index(b)
            assert {i for i, _ in enumerate(firsts) if (i, j) in hit} == \
                   {i for i, _ in enumerate(firsts) if (i, k) in hit}

    def test_a_one_point_chain(self):
        # no OpTable lives on L_0, but the endomorphism bitsets of its raw rows are exact
        point = ((0,),)
        assert distributivity._endomorphisms([(0,)], [point] * 3) == [0b111]
        assert oracles.row_distributive_pairs([point] * 2, [point] * 3) == \
               [(i, j) for i in range(2) for j in range(3)]

    @pytest.mark.parametrize("k", [65, 1200])
    def test_bits_above_one_machine_word(self, k):
        # the hits of seconds[64] and beyond are read from bits past the first word
        rng = random.Random(k)
        seconds = symmetric_stack(rng, 2, k)
        firsts = symmetric_stack(rng, 2, 6) + monotone_stack(rng, 2, 8)
        got = distributive_pairs(tables(firsts), tables(seconds))
        assert got == oracles.row_distributive_pairs(firsts, seconds)
        assert max(j for _, j in got) == k + 3  # the last of the fixed tables, the constant n
        assert sum(j >= 64 for _, j in got) > k // 4

    @pytest.mark.parametrize("n", range(1, 5))
    def test_each_endomorphism_bit_is_the_oracle_verdict(self, n):
        # bit j for row r: the table whose every row is r distributes over seconds[j]
        rng = random.Random(100 + n)
        seconds = symmetric_stack(rng, n, 40)
        rows = sorted({row for t in [random_rows(rng, n) for _ in range(20)] for row in t})
        kept = distributivity._endomorphisms(rows, seconds)
        assert len(kept) == len(rows)
        for r, bits in zip(rows, kept):
            assert bits < 1 << len(seconds)
            assert [bits >> j & 1 for j in range(len(seconds))] == \
                   [oracles.distributes((r,) * (n + 1), b) for b in seconds], r
        assert any(kept) and not all(kept)


class TestScanOnTheKernel:
    def test_a_flipped_kernel_cell_raises(self, monkeypatch):
        def flipped(firsts, seconds):
            out = distributive_pairs(firsts, seconds)
            cells = [(i, j) for i in range(len(firsts)) for j in range(len(seconds))]
            missing = next(c for c in cells if c not in out)  # the first non-distributive pair
            return sorted(out + [missing])

        monkeypatch.setattr(search, "distributive_pairs", flipped)
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


# distributive pairs per block of L_7, e1 rows against e2 columns, as both the
# numpy kernel (378 s of CPU) and the row kernel found them before the pins
L7_BLOCK_COUNTS = [
    [2386, 451, 188, 132, 132, 188, 451, 2386],
    [12249, 1214, 444, 296, 312, 464, 1136, 5926],
    [8174, 2157, 772, 432, 402, 588, 1407, 7007],
    [6996, 1617, 845, 629, 526, 660, 1475, 6937],
    [6937, 1475, 660, 526, 629, 845, 1617, 6996],
    [7007, 1407, 588, 402, 432, 772, 2157, 8174],
    [5926, 1136, 464, 312, 296, 444, 1214, 12249],
    [2386, 451, 188, 132, 132, 188, 451, 2386],
]


class TestHitPins:
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_the_hits_match_their_pins(self, n):
        pinned = hit_pins.fixture_path(n).read_text(encoding="utf-8")
        assert hit_pins.render(hit_pins.pins(n)) == pinned

    def test_a_hit_moved_inside_its_block_is_caught(self, monkeypatch):
        calls = []
        by_e = hit_pins.tables_by_e(5)
        start = len(by_e[0]) + len(by_e[1])  # where the e1 = 2 firsts begin in each call

        def moved(firsts, seconds):
            out = distributive_pairs(firsts, seconds)
            calls.append(len(seconds))
            if len(calls) == 2:  # the e2 = 1 call, which holds block (2, 1)
                hits = set(out)
                cells = [(i, j) for i in range(start, start + len(by_e[2]))
                         for j in range(len(seconds))]
                hit = next(c for c in cells if c in hits)
                miss = next(c for c in cells if c not in hits)
                out = sorted(hits - {hit} | {miss})  # the block's first hit swapped for its first miss
            return out

        monkeypatch.setattr(hit_pins, "distributive_pairs", moved)
        pinned = json.loads(hit_pins.fixture_path(5).read_text(encoding="utf-8"))
        differ = hit_pins.differing_blocks(pinned, hit_pins.pins(5))
        assert differ == ["block e1=2 e2=1: pinned 67 hits, computed 67"]
        assert calls == [len(seconds) for seconds in by_e]  # one kernel call per second stack

    @pytest.mark.parametrize("argv", [[], ["5", "--wrte"], ["five"], ["5", "--wr"]])
    def test_a_bad_call_prints_the_usage_and_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            hit_pins.main(argv)
        assert caught.value.code == 2
        assert capsys.readouterr().err.startswith("usage: hit_pins.py")

    def test_the_l7_pins_hold_the_cross_checked_counts(self):
        pinned = json.loads(hit_pins.fixture_path(7).read_text(encoding="utf-8"))
        counts = {(b["e1"], b["e2"]): b["hits"] for b in pinned["blocks"]}
        assert counts == {(e1, e2): c for e1, row in enumerate(L7_BLOCK_COUNTS)
                          for e2, c in enumerate(row)}
        by_case = [sum(c for (e1, e2), c in counts.items() if test(e1, e2)) for test in
                   (int.__eq__, int.__gt__, int.__lt__)]
        assert by_case == [10002, 63978, 63978]


class TestDuality:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_each_block_reflects_onto_its_dual_block(self, uninorms_by_e, n):
        # x -> n - x maps a pair (u1, u2) that distributes onto (u1', u2'),
        # u' reflected, with neutrals n - e1 and n - e2: hit by hit, not only in total
        by_e = [uninorms_by_e(n)[e] for e in range(n + 1)]
        hits = {(e1, e2): {(firsts[i1].rows, seconds[i2].rows)
                           for i1, i2 in pairs_of(firsts, seconds)}
                for e1, firsts in enumerate(by_e) for e2, seconds in enumerate(by_e)}
        for (e1, e2), pairs in hits.items():
            reflected = {(oracles.dual(a), oracles.dual(b)) for a, b in pairs}
            assert reflected == hits[n - e1, n - e2], (e1, e2)
        assert sum(map(len, hits.values())) == {2: 18, 3: 90, 4: 496, 5: 2978}[n]
