"""Table and decomposition documents, structured reports, golden regression."""

import json
from collections import OrderedDict, namedtuple
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR
from helpers import idem_min, luk_upper
from unichain import (
    ChainScale,
    EnumerationTask,
    OpTable,
    certify,
    decompose,
    enumerate_uninorms,
    validate_uninorm,
)
from unichain.core import MAX_SCALE
from unichain.errors import SearchLimitError, StructureError, TableFormatError
from unichain.formats import (
    certification_doc,
    dump_decomposition,
    dump_table,
    parse_decomposition,
    parse_table,
    report_doc,
    table_doc,
    to_json,
)

L3_UNINORMS = [
    u
    for e in range(4)
    for u in enumerate_uninorms(EnumerationTask(ChainScale(3), e))
]


class TestTableFormat:
    def test_canonical_document(self):
        text = dump_table(idem_min(4, 2))
        assert text.splitlines()[0] == "scale 4"
        assert text.splitlines()[1] == "neutral 2"
        assert len(text.splitlines()) == 7

    @settings(max_examples=60)
    @given(st.sampled_from(L3_UNINORMS))
    def test_round_trip(self, u):
        table, e = parse_table(dump_table(u))
        assert table.values == u.rows and e == u.e
        # a second trip is byte-identical
        assert dump_table(u) == dump_table(type(u)(table, e))

    def test_a_parsed_table_equals_the_checked_construction(self):
        # the parser builds its table without OpTable's check, after its own
        for u in L3_UNINORMS:
            table, e = parse_table(dump_table(u))
            assert table == OpTable(ChainScale(3), table.values) and e == u.e
            assert all(type(v) is int for row in table.values for v in row)

    def test_comments_and_blank_lines_ignored(self):
        text = """
# a comment
scale 2   # trailing comment
neutral 1

0 0 0
0 1 2  # row two
0 2 2
"""
        table, e = parse_table(text)
        assert e == 1 and table.values[0] == (0, 0, 0)

    def test_positions_in_errors(self):
        with pytest.raises(TableFormatError) as err:
            parse_table("scale 2\nneutral 1\n0 0 0\n0 1 2\n0 2 9\n", source="t.tbl")
        assert err.value.line == 5
        assert "t.tbl:5" in str(err.value)
        with pytest.raises(TableFormatError) as err:
            parse_table("scale 2\nneutral 1\n0 0 1\n0 1 2\n0 2 2\n")
        assert "asymmetry" in str(err.value)
        with pytest.raises(TableFormatError) as err:
            parse_table("scale 2\nneutral 9\n")
        assert err.value.line == 2
        with pytest.raises(TableFormatError) as err:
            parse_table("scale 2\nneutral 1\n0 0 0\n0 1 2\n")
        assert "end of input" in str(err.value)
        with pytest.raises(TableFormatError) as err:
            parse_table("scale 2\nneutral 1\n0 0 0\n0 1 2 2\n0 2 2\n")
        assert err.value.line == 4

    @pytest.mark.parametrize("text, message, line", [
        ("scale\n", "expected 'scale <integer>', got 'scale'", 1),
        ("scale two\n", "scale value 'two' is not an integer", 1),
        ("scale 0\nneutral 0\n", "scale must be at least 1, got 0", 1),
        ("scale 1\nneutral 0\n0 x\n1 1\n", "row 0, entry 1: 'x' is not an integer", 3),
        # integers are ASCII digits after an optional '-', not all that int() takes
        ("scale 1\nneutral +0\n", "neutral value '+0' is not an integer", 2),
        ("scale 1\nneutral 0\n0 0_1\n1 1\n", "row 0, entry 1: '0_1' is not an integer", 3),
        ("scale 1\nneutral 0\n0 \u0661\n1 1\n", "row 0, entry 1: '\u0661' is not an integer", 3),
        ("scale \u0662\n", "scale value '\u0662' is not an integer", 1),
        ("scale 1\nneutral 0\n0 -1\n1 1\n", "row 0, entry 1: value -1 outside 0..1", 3),
    ])
    def test_every_table_error(self, text, message, line):
        with pytest.raises(TableFormatError) as err:
            parse_table(text)
        assert (err.value.message, err.value.line) == (message, line)

    # str.splitlines() also breaks at these; a file read with universal newlines holds
    # them as text, so a comment keeps them and the rows keep the line numbers cat -n shows
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                             ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"])
    def test_only_newlines_break_lines(self, char):
        text = f"# note{char} more\nscale 2\nneutral 1\n0 0 0\n0 1 2\n0 2 2\n"
        table, e = parse_table(text)
        assert e == 1 and table.values == ((0, 0, 0), (0, 1, 2), (0, 2, 2))
        with pytest.raises(TableFormatError) as err:
            parse_table(text.replace("0 2 2", "0 2 9"))
        assert (err.value.message, err.value.line) == ("row 2, entry 2: value 9 outside 0..2", 6)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_carriage_returns_break_lines(self, newline):
        text = "# note\nscale 2\nneutral 1\n0 0 0\n0 1 2\n0 2 9\n".replace("\n", newline)
        with pytest.raises(TableFormatError) as err:
            parse_table(text)
        assert (err.value.message, err.value.line) == ("row 2, entry 2: value 9 outside 0..2", 6)

    def test_scale_above_the_input_limit_is_refused(self):
        with pytest.raises(SearchLimitError, match=f"^t.tbl:2: scale n={MAX_SCALE + 1} refused"):
            parse_table(f"# too large\nscale {MAX_SCALE + 1}\nneutral 0\n", source="t.tbl")

    def test_trailing_content_rejected(self):
        good = dump_table(idem_min(3, 1))
        with pytest.raises(TableFormatError, match="trailing"):
            parse_table(good + "0 0 0 0\n")


class TestDecompositionFormat:
    def test_round_trip(self):
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        d = decompose(u1, u2)
        text = dump_decomposition(d, u1.scale, u1.e, u2.e)
        d2, scale, e1, e2 = parse_decomposition(text)
        assert (scale, e1, e2) == (u1.scale, 2, 1)
        assert d2 == d
        assert dump_decomposition(d2, scale, e1, e2) == text

    def test_bad_selection_line(self):
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        text = dump_decomposition(decompose(u1, u2), u1.scale, 2, 1)
        with pytest.raises(TableFormatError, match="first"):
            parse_decomposition(text.replace("0 1 first", "0 1 maybe"))

    @pytest.mark.parametrize("old, new, message, line", [
        ("case greater-neutral", "kase greater-neutral",
         "expected 'case <name>', got 'kase greater-neutral'", 1),
        ("inner", "outer", "expected 'inner', got 'outer'", 5),
        ("boundary", "border", "expected 'boundary', got 'border'", 12),
        ("selection", "choice", "expected 'selection', got 'choice'", 19),
        ("0 1 first", "0 1", "selection line needs 'x y first|second', got '0 1'", 20),
        ("0 1 first", "0 one first",
         "selection coordinates must be integers, got '0 one first'", 20),
        ("e1 2", "e1 9", "e1 9 outside chain 0..4", 3),
        ("e2 1", "e2 -1", "e2 -1 outside chain 0..4", 4),
        ("e2 1", "e2 +1", "e2 value '+1' is not an integer", 4),
        ("0 1 first", "0 \u0661 first",
         "selection coordinates must be integers, got '0 \u0661 first'", 20),
        ("scale 4", "scale 0", "scale must be at least 1, got 0", 2),
    ])
    def test_every_decomposition_error(self, old, new, message, line):
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        text = dump_decomposition(decompose(u1, u2), u1.scale, 2, 1)
        with pytest.raises(TableFormatError) as err:
            parse_decomposition(text.replace(old, new, 1))
        assert (err.value.message, err.value.line) == (message, line)

    def test_header_scale_above_the_input_limit_is_refused(self):
        with pytest.raises(SearchLimitError, match=f"n={MAX_SCALE + 1} refused"):
            parse_decomposition(f"case greater-neutral\nscale {MAX_SCALE + 1}\n")

    def test_bad_case_line(self):
        with pytest.raises(TableFormatError, match="case"):
            parse_decomposition("case sideways\nscale 4\n")



INNER_L3 = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3))


@pytest.mark.parametrize("cells, row", [
    ([(1, 2, 4), (2, 1, 4)], 1),  # a value above the chain
    ([(2, 3, -1), (3, 2, -1)], 2),  # -1
    ([(2, 1, 3)], 2),  # an asymmetric pair, edited in the lower triangle
    ([(0, 3, 1)], 3),  # edited in the upper triangle: reported at the later row
    ([(2, 1, 3), (3, 0, 1)], 2),  # two asymmetries: the earlier row comes first
    # several faults: the first in reading order is reported, whatever its kind
    ([(0, 1, 5), (2, 3, None)], 0),  # a range error above a short row
    ([(1, 1, "x"), (3, 2, 1)], 1),  # a non-integer above an asymmetry
    ([(1, 3, None), (2, 2, "x")], 1),  # a short row above a non-integer
    ([(2, 1, 3), (3, 3, "x")], 2),  # an asymmetry above a non-integer
    ([(1, 1, "x"), (3, 3, None)], 1),  # a non-integer above a short row
])
def test_the_parser_and_optable_refuse_a_table_in_the_same_words(cells, row):
    rows = [list(r) for r in INNER_L3]
    for x, y, v in cells:
        rows[x][y:y + 1] = [] if v is None else [v]  # None drops the entry
    with pytest.raises(StructureError) as built:
        OpTable(ChainScale(3), rows)

    def block(table):
        return "\n".join(" ".join(map(str, r)) for r in table)

    with pytest.raises(TableFormatError) as alone:
        parse_table(f"scale 3\nneutral 1\n{block(rows)}\n")
    assert (alone.value.message, alone.value.line) == (str(built.value), 3 + row)
    u1, u2 = idem_min(4, 2), idem_min(4, 1)
    document = dump_decomposition(decompose(u1, u2), u1.scale, 2, 1)
    assert document.splitlines()[4:11] == ["inner", "scale 3", "neutral 1", *block(INNER_L3).splitlines()]
    with pytest.raises(TableFormatError) as inner:
        parse_decomposition(document.replace(block(INNER_L3), block(rows), 1))
    assert (inner.value.message, inner.value.line) == (str(built.value), 8 + row)


TRICKY_TEXT = st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r", "\u00e9\u2028",
                                "\U0001f600", ""])
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-2**80, max_value=2**80)
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | st.text()
    | TRICKY_TEXT
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.lists(st.integers(min_value=-2**70, max_value=2**70) | st.booleans(),
                              max_size=6)
                   | st.dictionaries(st.text() | TRICKY_TEXT, inner, max_size=5)),
    max_leaves=25,
)


class Grade(IntEnum):
    ONE = 1
    TWO = 2


Span = namedtuple("Span", "lo hi")


class Rows(list):
    pass


class Word(str):
    pass


def shared_rows():
    """Four tables on L_2 over three row lists, each list shared by several tables."""
    r0, r1, r2 = [0, 0, 0], [0, 1, 1], [0, 1, 2]
    return {"tables": [[r0, r0, r0], [r0, r1, r1], [r0, r1, r2], [r0, r2, r2]]}


def tables_sharing_row_tuples():
    """Two table documents of one search, which holds one tuple per distinct row,
    the second a level deeper than the first."""
    u, v = list(enumerate_uninorms(EnumerationTask(ChainScale(3), 1)))[:2]
    assert u.rows[1] is v.rows[1] and u.rows[2] is not v.rows[2]
    return {"u": table_doc(u), "pair": {"v": table_doc(v)}}


class TestStructuredDocs:
    def test_report_doc_shape(self):
        report = validate_uninorm(luk_upper(4, 2).table, 2)
        doc = report_doc(report)
        assert doc["kind"] == "check-report" and doc["format-version"] == 1
        assert doc["verdict"] is True

    def test_table_doc_matches_rows(self):
        u = idem_min(3, 1)
        doc = table_doc(u)
        assert doc["rows"] is u.rows
        assert doc["neutral"] == 1

    def test_json_is_stable(self):
        u = idem_min(3, 1)
        assert to_json(table_doc(u)) == to_json(table_doc(u))

    @given(JSON_DOCS)
    @settings(max_examples=200, deadline=None)
    def test_json_writer_matches_the_json_module(self, doc):
        assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        {"a": [1, 2], "b": {"c": [1, 2], "d": [[1, 2], [1, 2]]}, "e": [1, 2]},
        [[1, 0], [True, 0], [0, True], [1, 0], [False, 1], [0, 1]],
        [[Grade.ONE, Grade.TWO], [1, 2], [1, Grade.TWO], Grade.ONE, {"k": Grade.TWO}],
        [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, [0.0, 0], [1.0, 1]],
        {"\u00e9": "\u00e9\u2028", "\ud800": ["\udfff", "\ud83d"], "\U0001f600": "\ud800x"},
        {"a": Span(1, 2), "b": Rows([1, [2, 3], Rows()]), "c": OrderedDict(y=[{}], x=Word("w"))},
    ], ids=["row-at-two-depths", "bools-beside-ints", "int-enum", "special-floats",
            "non-ascii-and-surrogates", "container-subclasses"])
    def test_json_writer_on_cases_hypothesis_rarely_draws(self, doc):
        assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        [[1, 1], [True, True]],
        [[(1, 1), (True, True)]],
        {"a": [[1, 1]], "b": [[True, True], [1, 1]]},
    ], ids=["rows", "tuple-rows", "rows-across-keys"])
    def test_a_bool_row_after_its_int_twin_is_written_as_bools(self, doc):
        # (True, True) == (1, 1), but the row cache holds no value key: the
        # {int} type test keeps the bool row out of the cache's join
        text = to_json(doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert text.count("true") == 2

    @pytest.mark.parametrize("doc", [
        (lambda r: {"a": r, "b": [r, [r]]})([1, 2]),
        shared_rows(),
        (lambda b, i: [b, i, b, [i, b], {"b": b, "i": i}])([True, True], [1, 1]),
        tables_sharing_row_tuples(),
    ], ids=["one-list-at-two-depths", "one-list-in-many-tables",
            "a-shared-bool-row-beside-its-int-twin", "one-row-tuple-in-two-table-docs"])
    def test_json_writer_on_shared_lists(self, doc):
        # the writer looks a shared row up by identity: the text must still
        # follow the row's depth and its own entries
        assert to_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_a_shared_list_changed_between_two_calls_is_written_as_it_is_now(self):
        doc = shared_rows()
        first = to_json(doc)
        doc["tables"][1][1][2] = 2  # row 1 of two tables, now equal to row 2 in value
        second = to_json(doc)
        assert second == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert second != first

    @pytest.mark.parametrize("doc", [{1: "a"}, {"a": {2: [0]}}, {None: 0}, {True: 0},
                                     {("a",): 0}, {1: 0, "b": 0}])
    def test_a_key_that_is_not_a_string_is_refused(self, doc):
        with pytest.raises(TypeError):
            to_json(doc)


class TestGoldenRegression:
    @pytest.mark.parametrize("n", (2, 3))
    def test_certification_matches_the_frozen_report(self, n):
        golden = (FIXTURES_DIR / f"certify_l{n}.json").read_text(encoding="utf-8")
        report = certify(ChainScale(n))
        ours = to_json(certification_doc(report, include_timing=False))
        assert ours == golden
