"""Stable file formats: table documents, decomposition documents, and the
structured (JSON) report form shared by the CLI.

Table document, bit-exact:

    scale 4
    neutral 2
    0 0 0 0 0
    0 1 1 1 1
    0 1 2 3 4
    0 1 3 3 4
    0 1 4 4 4

``#`` starts a comment anywhere; the full square is required, and range
and symmetry are judged by ``core``, raised at the offending row's line.
A decomposition document carries a small header (case, scale, e1, e2),
two embedded table blocks introduced by ``inner`` and ``boundary``, and a
``selection`` block of ``x y first|second`` lines.  A scale must lie in
1..``core.MAX_SCALE`` (a larger one is refused) and neutral, e1, e2 in 0..scale.
Every integer is ASCII digits after an optional '-'.

Structured documents are written by ``to_json``, a small recursive writer
whose output is exactly ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
newline: with ``indent`` set, ``json.dumps`` runs the pure-Python encoder.
The writer dispatches on exact type: keys and str values go through
``encode_basestring_ascii`` as in ``json.dumps``, ints through ``str``, None
and bools are literals, and anything else (floats, subclasses) goes to
``json.dumps``.  A list of plain ints (bools fail that type test) is joined
once per distinct row and indentation, in a cache local to one ``to_json``
call.  A dictionary key that is not a string raises TypeError.  The tests
hold ``json.dumps`` as its oracle.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .core import (CheckReport, ChainScale, OpTable, Uninorm, Violation, _structural_violations,
                   refuse_large_scale)
from .distributivity import ClassifyResult, Decomposition, Pick, TheoremCase
from .errors import TableFormatError
from .search import CertificationReport

FORMAT_VERSION = 1


# --- table text format ------------------------------------------------------

def dump_table(u: Uninorm) -> str:
    lines = [f"scale {u.n}", f"neutral {u.e}"]
    lines.extend(" ".join(str(v) for v in row) for row in u.rows)
    return "\n".join(lines) + "\n"


class _Lines:
    """Comment-stripping line reader that remembers source positions."""

    def __init__(self, text: str, source: str):
        self.source = source
        self.items = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _int(text: str) -> int:
    """``text`` as an integer: ASCII digits after an optional '-'.  Anything
    else ``int()`` would take (a sign '+', '_' separators, other scripts'
    digits) raises ValueError, so one document reads one way."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


def _read_keyword_int(lines: _Lines, keyword: str, n: int | None = None) -> int:
    """A '<keyword> <integer>' line: a scale in 1..MAX_SCALE, or an index in 0..n."""
    lineno, content = lines.next(f"'{keyword} <integer>'")
    parts = content.split()
    if len(parts) != 2 or parts[0] != keyword:
        lines.error(f"expected '{keyword} <integer>', got {content!r}", lineno)
    try:
        value = _int(parts[1])
    except ValueError:
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
    rows = []
    row_lines = []
    for x in range(n + 1):
        lineno, content = lines.next(f"row {x} of the table")
        parts = content.split()
        if len(parts) != n + 1:
            lines.error(f"row {x} has {len(parts)} entries, expected {n + 1}", lineno)
        row = []
        for y, p in enumerate(parts):
            try:
                row.append(_int(p))
            except ValueError:
                lines.error(f"row {x}, entry {y}: {p!r} is not an integer", lineno)
        rows.append(tuple(row))
        row_lines.append(lineno)
    for violation in _structural_violations(rows, n):
        lines.error(violation.detail, row_lines[violation.witness[0]])
    return OpTable._built(ChainScale(n), tuple(rows)), e  # passed the constructor's checker


def parse_table(text: str, source: str = "<input>"):
    """Parse a table document into (OpTable, neutral index).

    The parser reads each row's entry count and integers; range and symmetry
    are judged by ``core``'s structural check, raised with the offending row's
    line.  The uninorm axioms are not checked, so feed the result to
    ``validate_uninorm`` or ``Uninorm.checked``.
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
    try:
        case = TheoremCase(parts[1])
    except ValueError:
        lines.error(f"unknown case {parts[1]!r}", lineno)
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
            x, y = _int(parts[0]), _int(parts[1])
        except ValueError:
            lines.error(f"selection coordinates must be integers, got {content!r}", lineno)
        try:
            pick = Pick(parts[2])
        except ValueError:
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
    ``rows`` holds the text of each list of plain ints written so far."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out, rows)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if set(map(type, value)) == {int}:
            key = (tuple(value), newline)
            text = rows.get(key)
            if text is None:
                inner = newline + "  "
                text = rows[key] = "[" + inner + ("," + inner).join(map(str, value)) + newline + "]"
            out.append(text)
            return
        inner = newline + "  "
        separator = "[" + inner
        for v in value:
            out.append(separator)
            separator = "," + inner
            if isinstance(v, (list, tuple)) and set(map(type, v)) == {int}:  # (True,) == (1,)
                text = rows.get((tuple(v), inner))
                if text is not None:
                    out.append(text)
                    continue
            _write_json(v, inner, out, rows)
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        out.append(json.dumps(value))


def violation_doc(v: Violation) -> dict:
    return {
        "law": v.law,
        "witness": list(v.witness),
        "lhs": v.lhs,
        "rhs": v.rhs,
        "subject": v.subject,
        "detail": v.detail,
    }


def report_doc(report: CheckReport) -> dict:
    return {
        "format-version": FORMAT_VERSION,
        "kind": "check-report",
        "verdict": report.verdict,
        "violations": [violation_doc(v) for v in report.violations],
    }


def table_doc(u: Uninorm) -> dict:
    return {
        "format-version": FORMAT_VERSION,
        "kind": "table",
        "scale": u.n,
        "neutral": u.e,
        "rows": [list(row) for row in u.rows],
    }


def pair_check_doc(result: ClassifyResult) -> dict:
    divergence = result.divergence()
    return {
        "format-version": FORMAT_VERSION,
        "kind": "pair-check",
        "case": result.case.value,
        "distributive": result.exhaustive.verdict,
        "conditions": report_doc(result.conditions),
        "exhaustive": report_doc(result.exhaustive),
        "agreement": result.agreement,
        "divergence": None if divergence is None else violation_doc(divergence),
    }


def decomposition_doc(d: Decomposition, scale: ChainScale, e1: int, e2: int) -> dict:
    return {
        "format-version": FORMAT_VERSION,
        "kind": "decomposition",
        "case": d.case.value,
        "scale": scale.n,
        "e1": e1,
        "e2": e2,
        "inner": table_doc(d.inner),
        "boundary": table_doc(d.boundary_op),
        "selection": [[x, y, pick.value] for x, y, pick in d.selection],
    }


def certification_doc(report: CertificationReport, *, include_timing: bool = True) -> dict:
    doc = {
        "format-version": FORMAT_VERSION,
        "kind": "certification",
        "scale": report.scale_n,
        "uninorm-counts": [[e, c] for e, c in report.uninorm_counts],
        "pairs-checked": report.pairs_checked,
        "pair-case-counts": [[case, c] for case, c in report.pair_case_counts],
        "distributive-case-counts": [[case, c] for case, c in report.distributive_case_counts],
        "agreements": report.agreements,
        "divergences": [
            {
                "e1": d.e1, "index1": d.index1, "e2": d.e2, "index2": d.index2,
                "case": d.case,
                "conditions-verdict": d.conditions_verdict,
                "exhaustive-verdict": d.exhaustive_verdict,
                "u1-rows": [list(r) for r in d.u1_rows],
                "u2-rows": [list(r) for r in d.u2_rows],
            }
            for d in report.divergences
        ],
        "nodes-expanded": report.nodes_expanded,
        "partial": False,  # format version 1 keeps the key; the goldens pin it
    }
    if include_timing:
        doc["wall-time-s"] = report.wall_time_s
    return doc


# --- human-readable rendering --------------------------------------------------

def render_report(report: CheckReport) -> str:
    lines = [f"verdict: {'true' if report.verdict else 'false'}"]
    lines.extend(f"  {v.describe()}" for v in report.violations)
    return "\n".join(lines) + "\n"


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
