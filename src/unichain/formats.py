"""Every document unichain writes: the table and decomposition text formats,
each command's structured (JSON) document and text report, and the JSON
writer.  One helper sets the ``format-version`` and ``kind`` of each document.

Table document, bit-exact:

    scale 4
    neutral 2
    0 0 0 0 0
    0 1 1 1 1
    0 1 2 3 4
    0 1 3 3 4
    0 1 4 4 4

Lines end at '\\n', '\\r\\n' or '\\r' only; ``#`` starts a comment anywhere.
The parser only splits the n+1 row lines into numbers (a row of ASCII digits
in one ``map(int, ...)``); ``core`` judges each row in reading order (its
length, then each entry, then its symmetry with the rows above), so an error
is raised at the earliest wrong row's line.  A number too long for ``int()``
is refused as its line is split, ahead of any fault in the rows above.
A decomposition document carries a small header (case, scale, e1, e2),
two embedded table blocks introduced by ``inner`` and ``boundary``, and a
``selection`` block of ``x y first|second`` lines.  A scale must lie in
1..``core.MAX_SCALE`` (a larger one is refused) and neutral, e1, e2 in 0..scale.
Every integer is ASCII digits after an optional '-'.  The case is
``greater-neutral`` or ``less-neutral``: equal neutrals have no blocks.

Structured documents are written by ``to_json``, a small recursive writer
whose output is exactly ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
newline: with ``indent`` set, ``json.dumps`` runs the pure-Python encoder.
The writer dispatches once on exact type, lists first: keys and str values
go through ``encode_basestring_ascii`` as in ``json.dumps``, ints through
``str``, None and bools are literals, a list, tuple or dict subclass is
written as its base type, and any other value (floats, int subclasses) goes
to ``json.dumps``.  The builders put the program's own row tuples in their
documents (a table's rows, a report's counts, a witness), and a list or
tuple of plain ints (bools fail that type test) is joined once per object
and indentation, in a cache keyed by identity and local to one ``to_json``
call; so a row the search or a restriction holds once is rendered once.  A
dictionary key that is not a string raises TypeError, from
``encode_basestring_ascii`` or ``sorted``.  The tests hold ``json.dumps``
as its oracle.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii

from .core import (CheckReport, ChainScale, OpTable, Uninorm, Violation, _structural_violations,
                   refuse_large_scale)
from .distributivity import ClassifyResult, Decomposition, Pick, TheoremCase
from .errors import TableFormatError
from .search import CertificationReport

FORMAT_VERSION = 1
_CASES = {case.value: case for case in TheoremCase}
_PICKS = {pick.value: pick for pick in Pick}


# --- table text format ------------------------------------------------------

def dump_table(u: Uninorm) -> str:
    lines = [f"scale {u.n}", f"neutral {u.e}"]
    lines.extend(" ".join(map(str, row)) for row in u.rows)
    return "\n".join(lines) + "\n"


class _Lines:
    """Comment-stripping line reader that remembers source positions."""

    def __init__(self, text: str, source: str):
        self.source = source
        self.items = []
        # the breaks a file read with universal newlines holds; not splitlines()'s '\f' etc.
        for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
            content = raw.split("#", 1)[0].strip()
            if content:
                self.items.append((lineno, content))
        self.pos = 0

    def next(self, expectation: str):
        if self.pos >= len(self.items):
            raise TableFormatError(f"unexpected end of input, expected {expectation}",
                                   None, self.source)
        item = self.items[self.pos]
        self.pos += 1
        return item

    def done(self) -> bool:
        return self.pos >= len(self.items)

    def error(self, message: str, lineno: int | None):
        raise TableFormatError(message, lineno, self.source)


def _token(text: str):
    """``text`` as an int if it is ASCII digits after an optional '-', else
    ``text`` itself: whatever else ``int()`` would take (a sign '+', '_'
    separators, other scripts' digits) stays text, so one document reads one way."""
    return int(text) if text.isascii() and text.removeprefix("-").isdigit() else text


def _refuse_long_number(lines: _Lines, lineno: int, words) -> None:
    """Refuse at ``lineno`` the word of ``words`` whose ``int()`` raised ValueError:
    one of more digits than ``int()`` reads (``sys.get_int_max_str_digits()``)."""
    limit = sys.get_int_max_str_digits()
    digits = next(d for d in (w.removeprefix("-") for w in words)
                  if d.isascii() and d.isdigit() and len(d) > limit)
    lines.error(f"number {digits[:8]}... has {len(digits)} digits; at most {limit} are read", lineno)


def _read_keyword_int(lines: _Lines, keyword: str, n: int | None = None) -> int:
    """A '<keyword> <integer>' line: a scale in 1..MAX_SCALE, or an index in 0..n."""
    lineno, content = lines.next(f"'{keyword} <integer>'")
    parts = content.split()
    if len(parts) != 2 or parts[0] != keyword:
        lines.error(f"expected '{keyword} <integer>', got {content!r}", lineno)
    try:
        value = _token(parts[1])
    except ValueError:
        _refuse_long_number(lines, lineno, parts[1:])
    if type(value) is not int:
        lines.error(f"{keyword} value {parts[1]!r} is not an integer", lineno)
    if n is None:
        refuse_large_scale(value, f"{lines.source}:{lineno}")
        if value < 1:
            lines.error(f"{keyword} must be at least 1, got {value}", lineno)
    elif not 0 <= value <= n:
        lines.error(f"{keyword} {value} outside chain 0..{n}", lineno)
    return value


def _read_keyword(lines: _Lines, keyword: str) -> None:
    lineno, content = lines.next(f"'{keyword}'")
    if content != keyword:
        lines.error(f"expected '{keyword}', got {content!r}", lineno)


def _read_table_block(lines: _Lines):
    n = _read_keyword_int(lines, "scale")
    e = _read_keyword_int(lines, "neutral", n)
    rows, row_lines = [], []
    for x in range(n + 1):
        lineno, content = lines.next(f"row {x} of the table")
        words = content.split()
        digits = "".join(words)  # all ASCII digits: int() reads each word as _token does
        try:
            rows.append(tuple(map(int if digits.isascii() and digits.isdigit() else _token, words)))
        except ValueError:
            _refuse_long_number(lines, lineno, words)
        row_lines.append(lineno)
    for violation in _structural_violations(rows, n):
        lines.error(violation.detail, row_lines[violation.witness[0]])
    return OpTable._built(ChainScale(n), tuple(rows)), e  # passed the constructor's checker


def parse_table(text: str, source: str = "<input>"):
    """Parse a table document into (OpTable, neutral index).

    The parser splits each row into numbers (a word that is none stays
    text); ``core``'s structural check judges the rows in reading order, and
    its first violation is raised at that row's line.  The uninorm axioms
    are not checked, so feed the result to ``validate_uninorm`` or
    ``Uninorm.checked``.
    """
    lines = _Lines(text, source)
    table, e = _read_table_block(lines)
    if not lines.done():
        lines.error(f"unexpected trailing content {lines.items[lines.pos][1]!r}",
                    lines.items[lines.pos][0])
    return table, e


# --- decomposition text format ----------------------------------------------

def dump_decomposition(d: Decomposition, scale: ChainScale, e1: int, e2: int) -> str:
    lines = [
        f"case {d.case.value}",
        f"scale {scale.n}",
        f"e1 {e1}",
        f"e2 {e2}",
        "inner",
        dump_table(d.inner).rstrip("\n"),
        "boundary",
        dump_table(d.boundary_op).rstrip("\n"),
        "selection",
    ]
    lines.extend(f"{x} {y} {pick.value}" for x, y, pick in d.selection)
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str, source: str = "<input>"):
    """Parse a decomposition document into (Decomposition, scale, e1, e2)."""
    lines = _Lines(text, source)
    lineno, content = lines.next("'case greater-neutral|less-neutral'")
    parts = content.split()
    if len(parts) != 2 or parts[0] != "case":
        lines.error(f"expected 'case <name>', got {content!r}", lineno)
    case = _CASES.get(parts[1])
    if case is None:
        lines.error(f"unknown case {parts[1]!r}", lineno)
    if case is TheoremCase.EQUAL_NEUTRAL:
        lines.error(f"case {parts[1]}: equal neutral elements admit no block decomposition", lineno)
    n = _read_keyword_int(lines, "scale")
    e1 = _read_keyword_int(lines, "e1", n)
    e2 = _read_keyword_int(lines, "e2", n)
    _read_keyword(lines, "inner")
    inner_table, inner_e = _read_table_block(lines)
    _read_keyword(lines, "boundary")
    boundary_table, boundary_e = _read_table_block(lines)
    _read_keyword(lines, "selection")
    selection = []
    while not lines.done():
        lineno, content = lines.next("selection line")
        parts = content.split()
        if len(parts) != 3:
            lines.error(f"selection line needs 'x y first|second', got {content!r}", lineno)
        try:
            x, y = _token(parts[0]), _token(parts[1])
        except ValueError:
            _refuse_long_number(lines, lineno, parts[:2])
        if type(x) is not int or type(y) is not int:
            lines.error(f"selection coordinates must be integers, got {content!r}", lineno)
        pick = _PICKS.get(parts[2])
        if pick is None:
            lines.error(f"selection choice must be 'first' or 'second', got {parts[2]!r}", lineno)
        selection.append((x, y, pick))
    d = Decomposition(case, Uninorm(inner_table, inner_e),
                      Uninorm(boundary_table, boundary_e), tuple(selection))
    return d, ChainScale(n), e1, e2


# --- structured documents -----------------------------------------------------

def to_json(doc: dict) -> str:
    out = []
    _write_json(doc, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list, rows: dict) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2,
    sort_keys=True)`` writes it where ``newline`` starts each of its lines;
    ``rows`` maps the id of each list or tuple of plain ints written so far to
    ``(row, newline, text)``, for the indentation it was last written at.  The
    entry holds the row, so no other object takes its id during the call.  A
    list's item whose text the cache holds at the item's indentation is
    appended from it, without a call."""
    kind = type(value)
    if kind is list or kind is tuple:
        written = rows.get(id(value))
        if written is not None and written[1] == newline:
            out.append(written[2])
        elif set(map(type, value)) == {int}:  # not bools: they are written as true/false
            inner = newline + "  "
            text = "[" + inner + ("," + inner).join(map(str, value)) + newline + "]"
            rows[id(value)] = value, newline, text
            out.append(text)
        elif not value:
            out.append("[]")
        else:
            inner = newline + "  "
            separator = "[" + inner
            for v in value:
                out.append(separator)
                separator = "," + inner
                written = rows.get(id(v))
                if written is not None and written[1] == inner:
                    out.append(written[2])
                else:
                    _write_json(v, inner, out, rows)
            out.append(newline + "]")
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(str(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out, rows)
            separator = "," + inner
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif isinstance(value, dict):  # a subclass is written as its base type
        _write_json(dict(value), newline, out, rows)
    elif isinstance(value, (list, tuple)):
        _write_json(list(value), newline, out, rows)
    else:
        out.append(json.dumps(value))


def _header(doc: dict, kind: str) -> dict:
    """``doc``, with the ``format-version`` and ``kind`` keys set on it."""
    doc["format-version"] = FORMAT_VERSION
    doc["kind"] = kind
    return doc


def violation_doc(v: Violation) -> dict:
    return {
        "law": v.law,
        "witness": v.witness,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "subject": v.subject,
        "detail": v.detail,
    }


def report_doc(report: CheckReport) -> dict:
    violations = [violation_doc(v) for v in report.violations]
    return _header({"verdict": report.verdict, "violations": violations}, "check-report")


def table_doc(u: Uninorm) -> dict:
    return _header({"scale": u.n, "neutral": u.e, "rows": u.rows}, "table")


def classification_doc(fields: dict) -> dict:
    return _header(dict(fields), "classification")


def pair_doc(u1: Uninorm, u2: Uninorm) -> dict:
    return _header({"u1": table_doc(u1), "u2": table_doc(u2)}, "pair")


def pair_check_doc(result: ClassifyResult) -> dict:
    divergence = result.divergence()
    return _header({
        "case": result.case.value,
        "distributive": result.exhaustive.verdict,
        "conditions": report_doc(result.conditions),
        "exhaustive": report_doc(result.exhaustive),
        "agreement": result.agreement,
        "divergence": None if divergence is None else violation_doc(divergence),
    }, "pair-check")


def decomposition_doc(d: Decomposition, scale: ChainScale, e1: int, e2: int) -> dict:
    return _header({
        "case": d.case.value, "scale": scale.n, "e1": e1, "e2": e2,
        "inner": table_doc(d.inner),
        "boundary": table_doc(d.boundary_op),
        "selection": [[x, y, pick.value] for x, y, pick in d.selection],
    }, "decomposition")


def enumeration_doc(n: int, e: int, tables: list) -> dict:
    # one list per distinct row, shared by the tables that hold it; lists, not
    # the search's row tuples, because perfbench/selfcheck.py edits a cell of
    # this document in place to test its output gate
    lists = {row: list(row) for row in {row for u in tables for row in u.rows}}
    return _header({
        "scale": n, "neutral": e, "count": len(tables),
        "tables": [list(map(lists.__getitem__, u.rows)) for u in tables],
    }, "enumeration")


def scan_doc(n: int, e1: int, e2: int, hits: list) -> dict:
    return _header({
        "scale": n, "e1": e1, "e2": e2, "count": len(hits),
        "pairs": [
            {
                "u1": table_doc(hit.u1),
                "u2": table_doc(hit.u2),
                "necessity": None if hit.necessity is None else report_doc(hit.necessity),
                "decomposition": None if hit.decomposition is None else
                decomposition_doc(hit.decomposition, hit.u1.scale, hit.u1.e, hit.u2.e),
            }
            for hit in hits
        ],
    }, "scan")


def certification_doc(report: CertificationReport, *, include_timing: bool = True) -> dict:
    doc = _header({
        "scale": report.scale_n,
        "uninorm-counts": report.uninorm_counts,
        "pairs-checked": report.pairs_checked,
        "pair-case-counts": report.pair_case_counts,
        "distributive-case-counts": report.distributive_case_counts,
        "agreements": report.agreements,
        "divergences": [
            {
                "e1": d.e1, "index1": d.index1, "e2": d.e2, "index2": d.index2,
                "case": d.case,
                "conditions-verdict": d.conditions_verdict,
                "exhaustive-verdict": d.exhaustive_verdict,
                "u1-rows": d.u1_rows,
                "u2-rows": d.u2_rows,
            }
            for d in report.divergences
        ],
        "nodes-expanded": report.nodes_expanded,
        "partial": False,  # format version 1 keeps the key; the goldens pin it
    }, "certification")
    if include_timing:
        doc["wall-time-s"] = report.wall_time_s
    return doc


# --- human-readable rendering --------------------------------------------------

def render_report(report: CheckReport) -> str:
    lines = [f"verdict: {'true' if report.verdict else 'false'}"]
    lines.extend(f"  {v.describe()}" for v in report.violations)
    return "\n".join(lines) + "\n"


def render_classification(fields: dict) -> str:
    return "".join(f"{key}: {value}\n" for key, value in fields.items())


def render_pair(u1: Uninorm, u2: Uninorm) -> str:
    return f"# u1\n{dump_table(u1)}\n# u2\n{dump_table(u2)}"


def render_pair_check(result: ClassifyResult) -> str:
    agrees = "theorem agrees" if result.agreement else "THEOREM DIVERGENCE"
    lines = [
        f"distributive: {'true' if result.exhaustive.verdict else 'false'}; "
        f"case: {result.case.value}; {agrees}"
    ]
    for v in result.exhaustive.violations:
        lines.append(f"  exhaustive: {v.describe()}")
    for v in result.conditions.violations:
        lines.append(f"  conditions: {v.describe()}")
    divergence = result.divergence()
    if divergence is not None:
        lines.append(f"  {divergence.describe()}")
    return "\n".join(lines) + "\n"


def render_enumeration(tables: list) -> str:
    return "".join(f"# {i + 1} of {len(tables)}\n{dump_table(u)}\n" for i, u in enumerate(tables))


def render_scan(hits: list) -> str:
    blocks = []
    for i, hit in enumerate(hits):
        blocks.append(f"# pair {i + 1} of {len(hits)}\n{render_pair(hit.u1, hit.u2)}")
        if hit.decomposition is not None:
            blocks.append("# decomposition\n" + dump_decomposition(hit.decomposition, hit.u1.scale,
                                                                   hit.u1.e, hit.u2.e))
    return "\n".join(blocks) + ("\n" if blocks else "")


def render_certification(report: CertificationReport) -> str:
    lines = [
        f"certification of L_{report.scale_n}",
        "uninorms per neutral element: "
        + ", ".join(f"e={e}: {c}" for e, c in report.uninorm_counts),
        f"pairs checked: {report.pairs_checked}",
        "pairs per case: "
        + ", ".join(f"{case}: {c}" for case, c in report.pair_case_counts),
        "distributive pairs per case: "
        + ", ".join(f"{case}: {c}" for case, c in report.distributive_case_counts),
        f"agreements: {report.agreements}",
        f"divergences: {len(report.divergences)}",
        f"nodes expanded: {report.nodes_expanded}",
        f"wall time: {report.wall_time_s:.3f}s",
    ]
    for d in report.divergences:
        lines.append(f"  DIVERGENCE case {d.case} at (e1={d.e1} #{d.index1}, e2={d.e2} #{d.index2}): "
                     f"conditions={d.conditions_verdict} exhaustive={d.exhaustive_verdict}")
        lines.append(f"    u1 rows: {d.u1_rows}")
        lines.append(f"    u2 rows: {d.u2_rows}")
    return "\n".join(lines) + "\n"
