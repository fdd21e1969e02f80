"""Enumeration correctness, pruning safety, certification."""

import ast
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import oracles
import structure_oracle_check
import unichain
from conftest import FIXTURES_DIR
from helpers import (flip_conditions, held_tables, oracle_checked_enumeration, oracle_checked_search,
                     uninorms_by_e)
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
from unichain.core import _structural_violations
from unichain.errors import InternalConsistencyError, SearchLimitError, StructureError
from unichain.formats import certification_doc, render_certification, to_json
from unichain.search import PairDivergence, SearchStats, _check_pairs


def rows_set(uninorms):
    return set(u.rows for u in uninorms)


def value_index(t):
    """The set cells (a, b) of ``t`` by value, mirrors included, sorted."""
    pos = [[] for _ in t]
    for a, row in enumerate(t):
        for b, w in enumerate(row):
            if w >= 0:
                pos[w].append((a, b))
    return pos


FILTERS = ("idempotent", "locally-internal", "conjunctive")


def enumeration_pins(scales, *, filtered_only=False):
    """For every scale in ``scales``, neutral element and filter combination:
    the SHA-256 of the enumerated rows, the nodes expanded and the tables
    emitted.  ``tests/fixtures/enumeration_l5.json`` holds
    ``enumeration_pins(range(1, 6))`` and ``enumeration_l6.json``
    ``enumeration_pins([6])``.  With ``filtered_only``, only the tasks with a
    filter, and no node counts: ``enumeration_l7_filtered.json`` holds
    ``enumeration_pins([7], filtered_only=True)``."""
    pins = {}
    for n in scales:
        for e in range(n + 1):
            for flags in product((False, True), repeat=3):
                if filtered_only and not any(flags):
                    continue
                stats = SearchStats()
                task = EnumerationTask(ChainScale(n), e, *flags)
                rows = [u.rows for u in enumerate_uninorms(task, max_n=n, stats=stats)]
                chosen = "+".join(f for f, on in zip(FILTERS, flags) if on) or "none"
                pin = pins[f"n={n} e={e} filters={chosen}"] = {
                    "rows-sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
                    "nodes-expanded": stats.nodes_expanded,
                    "emitted": stats.emitted,
                }
                if filtered_only:
                    del pin["nodes-expanded"]
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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_structure_theorem_oracle(self, n):
        assert structure_oracle_check.main(n) == 0  # on L_7 it runs in CI

    def test_a_call_without_a_scale_prints_the_usage_and_exits_2(self):
        src = Path(unichain.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-B", structure_oracle_check.__file__],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: structure_oracle_check.py")

    def test_the_oracles_import_nothing_from_the_package(self):
        tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert modules and not any(m.split(".")[0] == "unichain" for m in modules), modules

    @pytest.mark.parametrize("n", range(1, 7))
    def test_soundness(self, n):
        # the search's tables skip OpTable's structural check: this is that
        # check, the exact-int entries the parser also guarantees, and the axioms
        for e, us in uninorms_by_e(n).items():
            for u in us:
                assert not list(_structural_violations(u.rows, n)), u
                assert all(type(v) is int for row in u.rows for v in row), u
                assert validate_uninorm(u.table, u.e).verdict, u

    def test_deterministic_order(self):
        task = EnumerationTask(ChainScale(3), 1)
        first = [u.rows for u in enumerate_uninorms(task)]
        second = [u.rows for u in enumerate_uninorms(task)]
        assert first == second
        assert first == sorted(first)  # lexicographic stream

    def test_no_duplicates(self):
        for e, us in uninorms_by_e(4).items():
            assert len(us) == len(rows_set(us))

    def test_refusal_above_limit(self):
        with pytest.raises(SearchLimitError, match="max_n"):
            list(enumerate_uninorms(EnumerationTask(ChainScale(7), 3)))

    @pytest.mark.parametrize("flag", (True, False, 1.0))
    def test_a_bool_or_float_is_no_neutral_element(self, flag):
        with pytest.raises(StructureError, match=f"^neutral index {flag} is not an integer$"):
            EnumerationTask(ChainScale(3), flag)

    @pytest.mark.parametrize("n", (20, 19, 18, 16))
    def test_the_recursion_guard_refuses_exactly_what_would_not_fit(self, n):
        # min, the only idempotent t-norm on L_n, has n(n-1)/2 free cells
        # (190 on L_20): at the smallest recursion limit the guard accepts
        # the search finishes, and one below it is refused, never a
        # RecursionError.  pytest's own stack, C calls included, sits below
        # the search.
        task = EnumerationTask(ChainScale(n), n, idempotent_only=True)
        default, limit = sys.getrecursionlimit(), 100
        try:
            while True:
                sys.setrecursionlimit(limit)
                try:
                    tables = [u.rows for u in enumerate_uninorms(task, max_n=n)]
                    break
                except SearchLimitError:
                    limit += 1
        finally:
            sys.setrecursionlimit(default)
        assert limit > 100
        assert tables == [tuple(tuple(min(x, y) for y in range(n + 1)) for x in range(n + 1))]

    def test_an_override_below_the_recursion_limit_still_enumerates(self):
        # the only idempotent t-norm is min
        task = EnumerationTask(ChainScale(8), 8, idempotent_only=True)
        tables = [u.rows for u in enumerate_uninorms(task, max_n=8)]
        assert tables == [tuple(tuple(min(x, y) for y in range(9)) for x in range(9))]

    def test_stats_count_nodes(self):
        stats = SearchStats()
        list(enumerate_uninorms(EnumerationTask(ChainScale(3), 1), stats=stats))
        assert stats.nodes_expanded > 0
        assert stats.emitted == 5

    # L_3 with e=2 is searched as it is; e=1 is searched with neutral 2 and
    # reflected, and the guard checks that search's stream before reflecting
    @pytest.mark.parametrize("e", (2, 1), ids=["native", "reflected"])
    @pytest.mark.parametrize("tamper", ("repeat", "reverse", "duplicate", "swap-last-two",
                                        "repeat-first"))
    def test_a_repeated_or_misordered_table_raises(self, monkeypatch, tamper, e):
        original = search._search

        def tampered(t, pos, cells, i, stats, out, done, interned):
            original(t, pos, cells, i, stats, out, done, interned)
            if i > 0:  # the recursion calls the tampered search too
                return
            assert len(out) > 2
            if tamper == "repeat":
                out.append(out[-1])
            elif tamper == "reverse":
                out.reverse()
            elif tamper == "duplicate":
                out.insert(2, out[1])
            elif tamper == "swap-last-two":
                out[-2], out[-1] = out[-1], out[-2]
            else:
                out.insert(0, out[0])

        monkeypatch.setattr(search, "_search", tampered)
        with pytest.raises(InternalConsistencyError, match="lexicographic order"):
            list(enumerate_uninorms(EnumerationTask(ChainScale(3), e)))

    @staticmethod
    def insert_a_copy(monkeypatch, at):
        """Make the search put a copy of its table at-1 at index at."""
        original = search._search

        def tampered(t, pos, cells, i, stats, out, done, interned):
            original(t, pos, cells, i, stats, out, done, interned)
            if i == 0:
                out.insert(at, out[at - 1])

        monkeypatch.setattr(search, "_search", tampered)

    @pytest.mark.parametrize("at", range(1, 6))
    def test_a_native_task_yields_nothing_before_the_fault(self, monkeypatch, at):
        # L_3 with e=2 is searched as it is, and its whole stream of 5 tables
        # is checked before the first is yielded
        self.insert_a_copy(monkeypatch, at)
        stats, got = SearchStats(), []
        with pytest.raises(InternalConsistencyError, match="L_3 with e=2 left lexicographic"):
            for u in enumerate_uninorms(EnumerationTask(ChainScale(3), 2), stats=stats):
                got.append(u.rows)
        assert got == [] and stats.emitted == 0

    @pytest.mark.parametrize("at", range(1, 6))
    def test_a_reflected_task_yields_nothing_before_the_fault(self, monkeypatch, at):
        # L_3 with e=1 is searched with neutral 2: the whole stream is checked
        # before the reflected tables are sorted and yielded
        self.insert_a_copy(monkeypatch, at)
        stats, got = SearchStats(), []
        with pytest.raises(InternalConsistencyError, match="L_3 with e=2 left lexicographic"):
            for u in enumerate_uninorms(EnumerationTask(ChainScale(3), 1), stats=stats):
                got.append(u.rows)
        assert got == [] and stats.emitted == 0

    @pytest.mark.parametrize("task, max_n", [
        (EnumerationTask(ChainScale(7), 3), None),
        (EnumerationTask(ChainScale(4), 1), 3),
        (EnumerationTask(ChainScale(46), 1), 46),
    ], ids=["default-limit", "max-n", "recursion-limit"])
    def test_a_refusal_comes_at_the_first_step_and_expands_nothing(self, monkeypatch, task,
                                                                  max_n):
        def no_cells(n, e):
            raise AssertionError(f"free cells of L_{n} listed before the refusal")

        monkeypatch.setattr(search, "_free_cells", no_cells)
        stats = SearchStats()
        kwargs = {} if max_n is None else {"max_n": max_n}
        stream = enumerate_uninorms(task, stats=stats, **kwargs)  # a generator: lazy
        with pytest.raises(SearchLimitError, match="refused"):
            next(stream)
        assert stats == SearchStats()

    def test_there_is_no_worker_count(self):
        with pytest.raises(TypeError, match="workers"):
            enumerate_uninorms(EnumerationTask(ChainScale(3), 1), workers=2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_search_from_the_root_runs_cells_plus_one_deep(self, monkeypatch, n):
        # the depth _refuse_above tries: one root call over every free cell,
        # n(n-1)/2 of them for every e, and a leaf call per table one level
        # below the last; the search runs with the greater of e and n - e
        original = search._search
        roots, depths = [], []

        def spied(t, pos, cells, i, stats, out, done, interned):
            if i == 0:
                roots.append([(x, y) for x, y, *_ in cells])
            depths.append(i)
            original(t, pos, cells, i, stats, out, done, interned)

        monkeypatch.setattr(search, "_search", spied)
        for e in range(n + 1):
            roots.clear()
            depths.clear()
            emitted = len(list(enumerate_uninorms(EnumerationTask(ChainScale(n), e))))
            assert roots == [search._free_cells(n, max(e, n - e))]
            assert len(roots[0]) == len(search._free_cells(n, e)) == n * (n - 1) // 2
            assert emitted and max(depths) == len(roots[0])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_a_reflected_task_equals_its_native_search(self, n):
        # every task with e < n - e, against the search run with neutral e,
        # where the conjunctive cell admits 0, not the dual's n
        for e in range((n + 1) // 2):
            for flags in product((False, True), repeat=3):
                task = EnumerationTask(ChainScale(n), e, *flags)
                if task.conjunctive_only and e == 0:
                    continue  # never searched: nothing qualifies
                cells = search._cells(task, e)
                if task.conjunctive_only:
                    dual = search._cells(task, n - e)
                    assert [c[3] for c in cells if c[:2] == (0, n)] == [(0,)]
                    assert [c[3] for c in dual if c[:2] == (0, n)] == [(n,)]
                t, native = search._neutral_table(n, e), []
                done = [tuple(row) if -1 not in row else None for row in t]
                search._search(t, search._index(t), cells, 0, SearchStats(), native, done, {})
                got = [u.rows for u in enumerate_uninorms(task)]
                assert got == native, f"e={e} filters={flags}"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_tables_of_a_task_hold_one_tuple_per_distinct_row(self, n):
        # native (e >= n - e) and reflected tasks alike, with every filter
        # combination: equal rows are one object
        for e in range(n + 1):
            for flags in product((False, True), repeat=3):
                rows = [row for u in enumerate_uninorms(EnumerationTask(ChainScale(n), e, *flags))
                        for row in u.rows]
                assert len(set(map(id, rows))) == len(set(rows)), f"e={e} filters={flags}"

    def test_every_l7_table_held_at_once_holds_one_tuple_per_distinct_row(self):
        # CI holds L_9 the same way, under a memory bound
        assert held_tables(7) == [2386, 1538, 1034, 859, 859, 1034, 1538, 2386]


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

    def test_filters_select_the_right_tables(self):
        everything = uninorms_by_e(3)[1]
        idem = list(enumerate_uninorms(EnumerationTask(ChainScale(3), 1, idempotent_only=True)))
        assert rows_set(idem) == set(u.rows for u in everything if is_idempotent(u))
        internal = list(enumerate_uninorms(
            EnumerationTask(ChainScale(3), 1, locally_internal_only=True)))
        assert rows_set(internal) == set(u.rows for u in everything if is_locally_internal(u))
        conj = list(enumerate_uninorms(EnumerationTask(ChainScale(3), 1, conjunctive_only=True)))
        assert rows_set(conj) == set(u.rows for u in everything if u(0, 3) == 0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_filter_keeps_the_unfiltered_order(self, n):
        # a filter prunes the one search, so its stream is the unfiltered
        # stream less the tables that fail it
        for e in range(n + 1):
            everything = [u.rows for u in enumerate_uninorms(EnumerationTask(ChainScale(n), e))]
            for idempotent, internal, conjunctive in product((False, True), repeat=3):
                expected = [rows for rows in everything
                            if not (idempotent and any(rows[x][x] != x for x in range(n + 1)))
                            and not (internal and any(rows[x][y] not in (x, y)
                                                      for x in range(e)
                                                      for y in range(e + 1, n + 1)))
                            and not (conjunctive and rows[0][n] != 0)]
                task = EnumerationTask(ChainScale(n), e, idempotent_only=idempotent,
                                       locally_internal_only=internal,
                                       conjunctive_only=conjunctive)
                got = [u.rows for u in enumerate_uninorms(task)]
                assert got == expected, f"e={e} filters={(idempotent, internal, conjunctive)}"

    def test_conjunctive_filter_with_bottom_neutral_is_empty(self):
        task = EnumerationTask(ChainScale(3), 0, conjunctive_only=True)
        assert list(enumerate_uninorms(task)) == []

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_uninorm_holds_the_cells_the_search_presets(self, n):
        # the annihilator of the t-norm, u(0, y) = 0 for y <= e, and of the
        # t-conorm, u(x, n) = n for x >= e (Fodor, Yager and Rybalov, 1997),
        # and u(x, n) in [x, e) or n for x < e, on tables built from the
        # axioms alone; on L_4, naive_uninorms would take minutes
        for e in range(n + 1):
            tables = oracles.backtracked_uninorms(n, e)
            assert tables and (n == 4 or tables == oracles.naive_uninorms(n, e))
            root = search._neutral_table(n, e)
            admitted = {(x, y): values for x, y, _, values, *_ in
                        search._cells(EnumerationTask(ChainScale(n), e), e)}
            for rows in tables:
                assert all(rows[0][y] == 0 for y in range(e + 1))
                assert all(rows[x][n] == n for x in range(e, n + 1))
                assert all(x <= rows[x][n] < e or rows[x][n] == n for x in range(e))
                assert all(v in (-1, rows[x][y]) for x, row in enumerate(root)
                           for y, v in enumerate(row)), (rows, e)
                assert all(rows[x][n] in admitted[x, n] for x in range(e) if e < n), (rows, e)

    def test_every_task_through_l5_matches_its_pin(self):
        pins = json.loads((FIXTURES_DIR / "enumeration_l5.json").read_text(encoding="utf-8"))
        assert enumeration_pins(range(1, 6)) == pins

    def test_every_task_on_l6_matches_its_pin(self):
        pins = json.loads((FIXTURES_DIR / "enumeration_l6.json").read_text(encoding="utf-8"))
        assert enumeration_pins([6]) == pins

    def test_every_filtered_task_on_l7_matches_its_pin(self):
        # about 0.7 s of CPU: the 56 tasks with a filter, tables and counts only
        fixture = FIXTURES_DIR / "enumeration_l7_filtered.json"
        pins = json.loads(fixture.read_text(encoding="utf-8"))
        assert len(pins) == 56
        assert enumeration_pins([7], filtered_only=True) == pins

    def test_the_self_dual_pins_are_palindromic_in_e(self):
        # a task with e < n - e runs the search of neutral n - e, and the
        # idempotent and locally-internal filters are self-dual: its node and
        # table counts are those of n - e
        pins = {}
        for name in ("enumeration_l5.json", "enumeration_l6.json"):
            pins.update(json.loads((FIXTURES_DIR / name).read_text(encoding="utf-8")))
        checked = 0
        for key, pin in pins.items():
            n, e, chosen = re.fullmatch(r"n=(\d+) e=(\d+) filters=(.*)", key).groups()
            if "conjunctive" not in chosen:
                mirror = pins[f"n={n} e={int(n) - int(e)} filters={chosen}"]
                assert (pin["nodes-expanded"], pin["emitted"]) == (
                    mirror["nodes-expanded"], mirror["emitted"]), key
                checked += 1
        assert checked == len(pins) // 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_pruning_rejects_only_what_the_oracle_rejects(self, n):
        # on any partial table the pruning checks a subset of the triples
        # that read the new cell; that it checks enough is a property of the
        # search's nodes, tested below.  Each draw is a one-cell search that
        # reads every column and admits one value at or above the cell's
        # monotone lower bound.
        rng = random.Random(20261019 + n)
        pts = range(n + 1)
        verdicts = Counter()
        for _ in range(6):
            unset = rng.random()
            t = [[-1] * (n + 1) for _ in pts]
            for x in pts:
                for y in range(x, n + 1):
                    if rng.random() >= unset:
                        t[x][y] = t[y][x] = rng.randrange(n + 1)
            for x in pts:
                for y in range(x, n + 1):
                    saved = t[x][y]
                    t[x][y] = t[y][x] = -1
                    lo = max(0, t[x - 1][y] if x else 0, t[x][y - 1] if y else 0)
                    v, stats, out = rng.randrange(lo, n + 1), SearchStats(), []
                    cell = (x, y, n, (v,), tuple(pts), ())
                    search._search(t, value_index(t), [cell], 0, stats, out, [None] * (n + 1), {})
                    assert stats.nodes_expanded == 1 and t[x][y] == t[y][x] == -1
                    t[x][y] = t[y][x] = v
                    verdict = bool(out)
                    assert verdict or not oracles.assoc_ok_after(t, x, y), (t, x, y)
                    verdicts[verdict] += 1
                    t[x][y] = t[y][x] = saved
        assert verdicts[True] and verdicts[False], verdicts

    def test_at_every_search_node_the_pruning_equals_the_oracle(self):
        # every value tried at every node of every task on L_1-L_5, every e
        # and filter combination: the node's child calls are exactly the
        # values the oracle passes.  CI runs it on L_6
        with oracle_checked_search() as verdicts:
            pins = enumeration_pins(range(1, 6))
        fixture = FIXTURES_DIR / "enumeration_l5.json"
        assert pins == json.loads(fixture.read_text(encoding="utf-8"))
        assert len(verdicts) == sum(pin["nodes-expanded"] for pin in pins.values()) == 7793
        assert True in verdicts and False in verdicts

    def test_at_every_node_of_every_l5_task_the_pruning_equals_the_oracle(self):
        # the unfiltered and conjunctive-only tasks, as CI runs them on L_6
        assert oracle_checked_enumeration(5) == 3120

    def test_at_every_search_node_the_index_holds_the_set_cells(self, monkeypatch):
        # every call of every task on L_1-L_5, every e and filter combination:
        # the index on entry and on return, and at a leaf the completed rows
        original = search._search
        calls = []

        def checked(t, pos, cells, i, stats, out, done, interned):
            assert [sorted(at) for at in pos] == value_index(t), (t, pos)
            if i == len(cells):
                assert done == [tuple(row) for row in t], (t, done)
                assert all(interned[row] is row for row in done)
            original(t, pos, cells, i, stats, out, done, interned)
            assert [sorted(at) for at in pos] == value_index(t), (t, pos)
            calls.append(i)

        monkeypatch.setattr(search, "_search", checked)
        pins = enumeration_pins(range(1, 6))
        fixture = FIXTURES_DIR / "enumeration_l5.json"
        assert pins == json.loads(fixture.read_text(encoding="utf-8"))
        assert len(calls) == 6083

    @pytest.mark.parametrize("n", range(1, 8))
    def test_each_cell_carries_the_columns_it_reads_and_the_rows_it_completes(self, n):
        # an independent walk of the root table, for every searched neutral
        # element and filter combination: cell i reads row x's set columns
        # once cells[:i + 1] are set, and every row is completed exactly once,
        # at the root or by the cell that sets its last unset entry
        for e, flags in product(range(n + 1), product((False, True), repeat=3)):
            task = EnumerationTask(ChainScale(n), e, *flags)
            for searched in sorted({e, n - e}):
                cells = search._cells(task, searched)
                root = search._neutral_table(n, searched)
                completed = [r for r, row in enumerate(root) if -1 not in row]
                for i, (x, y, _, _, columns, finishes) in enumerate(cells):
                    t = [row[:] for row in root]
                    for a, b, *_ in cells[:i + 1]:
                        t[a][b] = t[b][a] = 0
                    assert columns == tuple(c for c in range(n + 1) if t[x][c] != -1), (e, x, y)
                    completed += finishes
                    assert sorted(completed) == [r for r, row in enumerate(t) if -1 not in row]
                assert sorted(completed) == list(range(n + 1)), (e, flags)

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
                assert (oracles.triple_consistent(t, a, b, c)
                        == oracles.triple_consistent(t, c, b, a)), (t, a, b, c)


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
        # golden distributive-pair counts, frozen from the first verified run
        assert report.distributive_case_counts == (
            ("equal-neutral", 22),
            ("greater-neutral", 34),
            ("less-neutral", 34),
        )

    def test_deterministic_across_runs(self):
        docs = {to_json(certification_doc(certify(ChainScale(3)), include_timing=False))
                for _ in range(3)}
        assert len(docs) == 1

    def test_refusal_above_limit(self):
        with pytest.raises(SearchLimitError):
            certify(ChainScale(6))

    @pytest.mark.parametrize("field, loss, match", [
        # the second entry loses what the first gains: totals stay put
        ("uninorm_counts", 1, "palindromic"),
        ("pair_case_counts", 1, "differ"),
        ("distributive_case_counts", 1, "differ"),
        # a gain nothing offsets: the pair space or its tally moves alone
        ("uninorm_counts", 0, "pair case counts add up to 484, not 529"),
        ("pair_case_counts", 0, "pair case counts add up to 485, not 484"),
    ])
    def test_a_broken_duality_count_raises(self, field, loss, match):
        report = certify(ChainScale(3))
        counts = [list(item) for item in getattr(report, field)]
        counts[0][1] += 1
        counts[1][1] -= loss
        with pytest.raises(InternalConsistencyError, match=match):
            replace(report, **{field: tuple(map(tuple, counts))})

    def test_a_dropped_pair_raises(self, monkeypatch):
        check = search._check_pairs

        def drop_one_equal_pair(uninorms):
            tally, divergences = check(uninorms)
            key = next(k for k in sorted(tally) if k[0] == "equal-neutral")
            tally[key] -= 1  # duality still holds: only the pair total is off
            return tally, divergences

        monkeypatch.setattr(search, "_check_pairs", drop_one_equal_pair)
        with pytest.raises(InternalConsistencyError, match="add up to 35, not 36"):
            certify(ChainScale(2))

    def test_quick_limit_override(self):
        report = certify(ChainScale(2), max_n=2)
        assert report.pairs_checked == 36

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_the_pairs_are_checked_in_the_canonical_order(self, monkeypatch, n):
        # one process walks (e1, i1, e2, i2) lexicographically, each pair once
        by_e = uninorms_by_e(n)
        position = {u.rows: (e, i) for e, us in by_e.items() for i, u in enumerate(us)}
        classify = search.classify_and_check
        seen = []

        def recorded(u1, u2, **kwargs):
            seen.append(position[u1.rows] + position[u2.rows])
            return classify(u1, u2, **kwargs)

        monkeypatch.setattr(search, "classify_and_check", recorded)
        report = certify(ChainScale(n))
        keys = sorted(position.values())
        assert seen == [a + b for a, b in product(keys, repeat=2)]
        assert report.pairs_checked == len(seen)

    def test_there_is_no_worker_count(self):
        with pytest.raises(TypeError, match="workers"):
            certify(ChainScale(2), workers=2)


class TestDivergenceReporting:
    """A conditions verdict flipped on chosen L_3 pairs surfaces as exactly
    those divergences, with each pair's indices and rows, in the canonical
    order (e1, i1, e2, i2)."""

    E1, I1, E2, I2 = 2, 3, 1, 4

    # (e1, i1, e2, i2, case) on L_3, whose counts per e are 6, 5, 5, 6: the
    # first and the last pair of the canonical order, the pairs on each side
    # of the step from e1 = 0 to e1 = 1, and every case, distributive or not
    PAIRS = {
        "first": (0, 0, 0, 0, "equal-neutral"),
        "last": (3, 5, 3, 5, "equal-neutral"),
        "greater": (2, 3, 1, 4, "greater-neutral"),
        "less": (1, 4, 2, 3, "less-neutral"),
        "last-of-e1-0": (0, 5, 1, 0, "less-neutral"),
        "first-of-e1-1": (1, 0, 0, 5, "greater-neutral"),
        "equal-inner": (1, 2, 1, 3, "equal-neutral"),
        "less-distributive": (2, 0, 3, 5, "less-neutral"),
    }

    @staticmethod
    def plant(monkeypatch, by_e, e1, i1, e2, i2, case):
        """Flip the conditions verdict on one pair; return its divergence."""
        u1, u2 = by_e[e1][i1], by_e[e2][i2]
        flip_conditions(monkeypatch, search, u1, u2)
        return PairDivergence(e1, i1, e2, i2, case, oracles.distributes(u1.rows, u2.rows),
                              u1.rows, u2.rows)

    @staticmethod
    def listed(by_e):
        return [(e, i, u) for e, us in sorted(by_e.items()) for i, u in enumerate(us)]

    @pytest.fixture
    def flipped(self, monkeypatch):
        by_e = uninorms_by_e(3)
        expected = self.plant(monkeypatch, by_e, self.E1, self.I1, self.E2, self.I2,
                              "greater-neutral")
        assert expected.conditions_verdict is True
        return self.listed(by_e), expected

    @pytest.mark.parametrize("name", PAIRS)
    def test_the_pair_loop_reports_the_flipped_pair(self, monkeypatch, name):
        uninorms = self.listed(uninorms_by_e(3))
        unflipped, clean = _check_pairs(uninorms)
        assert clean == []
        expected = self.plant(monkeypatch, uninorms_by_e(3), *self.PAIRS[name])
        tally, divergences = _check_pairs(uninorms)
        assert divergences == [expected]
        assert tally == unflipped  # the tally counts the exhaustive verdicts
        assert sum(tally.values()) == 484

    def test_flipped_pairs_are_reported_in_the_canonical_order(self, monkeypatch):
        by_e = uninorms_by_e(3)
        planted = [self.plant(monkeypatch, by_e, *pair)
                   for pair in reversed(list(self.PAIRS.values()))]
        expected = sorted(planted, key=lambda d: (d.e1, d.index1, d.e2, d.index2))
        tally, divergences = _check_pairs(self.listed(by_e))
        assert divergences == expected
        assert sum(tally.values()) == 484
        report = certify(ChainScale(3))
        assert report.divergences == tuple(expected)
        assert report.agreements == 484 - len(self.PAIRS)

    def test_certify_reports_the_divergence(self, flipped):
        _, expected = flipped
        report = certify(ChainScale(3))
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
