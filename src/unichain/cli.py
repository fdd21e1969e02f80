"""Command-line front end.

Exit status contract: 0 when the computed verdict is true (or the command
succeeded), 1 when a law or condition fails (still a successful
computation), 2 on usage or parse errors, 3 when a resource limit refuses
the request.  Reports go to the output path or stdout; a one-line human
summary always goes to stderr, so pipelines stay clean.

Operands for --u1/--u2/--table are either a path to a table document or a
compact family spec such as ``idemmin(e=2,n=4)``; see the README for the
grammar and the file formats.  Every command takes --format and --out;
--verbose exists only where witnesses are collected (validate, check) and
--max-n only where a search runs (enumerate, scan, certify).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import catalog, formats
from .core import ChainScale, Uninorm, is_conjunctive, is_idempotent, is_locally_internal, validate_uninorm
from .distributivity import classify_and_check, compose, decompose
from .errors import (
    CompositionInvalid,
    ConstructionError,
    DomainError,
    InvalidUninormError,
    NotDistributiveError,
    SearchLimitError,
    SpecSyntaxError,
    StructureError,
    TableFormatError,
)
from .search import (
    DEFAULT_CERTIFY_LIMIT,
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationTask,
    SearchStats,
    certify,
    enumerate_uninorms,
    scan_pairs,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(args, text_body, doc) -> None:
    """Write the report in the chosen format.  ``text_body`` and ``doc`` are
    zero-argument callables, and only the chosen one is called."""
    body = formats.to_json(doc()) if args.format == "structured" else text_body()
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


def _read_document(path: str) -> str:
    """The text of a document file; bytes that are not UTF-8 are a parse
    error naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                               f"at offset {exc.start}", source=path) from None


def _is_document(arg: str) -> bool:
    """Anything that exists on disk (or looks like a path) is a table
    document; everything else goes through the family-spec grammar."""
    return os.path.exists(arg) or "/" in arg or arg.endswith(".tbl")


def _load_operand(arg: str):
    """Resolve a CLI operand to (OpTable, neutral index)."""
    if _is_document(arg):
        return formats.parse_table(_read_document(arg), source=arg)
    u = catalog.from_string(arg)
    return u.table, u.e


def _load_valid_uninorm(arg: str, role: str) -> Uninorm:
    """An operand that must satisfy the uninorm axioms: a spec operand is
    valid once built, a failing table document is reported under ``role``."""
    if not _is_document(arg):
        return catalog.from_string(arg)
    return Uninorm.checked(*_load_operand(arg), subject=role)


def _cmd_validate(args) -> int:
    table, e = _load_operand(args.table)
    report = validate_uninorm(table, e, verbose=args.verbose)
    _emit(args, lambda: formats.render_report(report), lambda: formats.report_doc(report))
    _say(f"validate: {'valid uninorm' if report.verdict else 'INVALID'} "
         f"(n={table.scale.n}, e={e})")
    return EXIT_OK if report.verdict else EXIT_FALSE


def _cmd_classify(args) -> int:
    u = _load_valid_uninorm(args.table, "table")
    kind = "t-norm" if u.is_tnorm else "t-conorm" if u.is_tconorm else "proper uninorm"
    fields = {
        "scale": u.n,
        "neutral": u.e,
        "operator": kind,
        "conjunctive": is_conjunctive(u) if u.is_proper else None,
        "idempotent": is_idempotent(u),
        "locally-internal": is_locally_internal(u),
    }
    _emit(args, lambda: "".join(f"{key}: {value}\n" for key, value in fields.items()),
          lambda: {"format-version": formats.FORMAT_VERSION, "kind": "classification", **fields})
    _say(f"classify: {kind} on L_{u.n} with e={u.e}")
    return EXIT_OK


def _cmd_check(args) -> int:
    u1 = _load_valid_uninorm(args.u1, "u1")
    u2 = _load_valid_uninorm(args.u2, "u2")
    result = classify_and_check(u1, u2, verbose=args.verbose)
    _emit(args, lambda: formats.render_pair_check(result), lambda: formats.pair_check_doc(result))
    if not result.agreement:
        _say("check: THEOREM DIVERGENCE - the structural conditions and the "
             "exhaustive scan disagree on this pair; this is the most important "
             "possible finding, please report it")
    _say(f"check: distributive={result.exhaustive.verdict} case={result.case.value} "
         f"agreement={result.agreement}")
    return EXIT_OK if result.exhaustive.verdict else EXIT_FALSE


def _cmd_decompose(args) -> int:
    u1 = _load_valid_uninorm(args.u1, "u1")
    u2 = _load_valid_uninorm(args.u2, "u2")
    d = decompose(u1, u2)
    _emit(args, lambda: formats.dump_decomposition(d, u1.scale, u1.e, u2.e),
          lambda: formats.decomposition_doc(d, u1.scale, u1.e, u2.e))
    _say(f"decompose: case={d.case.value} inner on L_{d.inner.n} "
         f"boundary on L_{d.boundary_op.n} selection of {len(d.selection)} points")
    return EXIT_OK


def _cmd_compose(args) -> int:
    d, scale, e1, e2 = formats.parse_decomposition(_read_document(args.decomposition),
                                                   source=args.decomposition)
    u1, u2 = compose(d, scale, e1, e2)
    _emit(args, lambda: f"# u1\n{formats.dump_table(u1)}\n# u2\n{formats.dump_table(u2)}",
          lambda: {
              "format-version": formats.FORMAT_VERSION,
              "kind": "pair",
              "u1": formats.table_doc(u1),
              "u2": formats.table_doc(u2),
          })
    _say(f"compose: assembled a distributive pair on L_{scale.n} with e1={e1}, e2={e2}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    task = EnumerationTask(
        ChainScale(args.n), args.e,
        idempotent_only=args.idempotent_only,
        locally_internal_only=args.locally_internal_only,
        conjunctive_only=args.conjunctive_only,
    )
    max_n = args.max_n if args.max_n is not None else DEFAULT_ENUMERATION_LIMIT
    stats = SearchStats()
    tables = list(enumerate_uninorms(task, max_n=max_n, stats=stats))

    def doc():
        # one list per distinct row, shared by the tables that hold it; lists, not
        # the search's row tuples, because perfbench/selfcheck.py edits a cell of
        # this document in place to test its output gate
        lists = {row: list(row) for row in {row for u in tables for row in u.rows}}
        return {
            "format-version": formats.FORMAT_VERSION,
            "kind": "enumeration",
            "scale": args.n,
            "neutral": args.e,
            "count": len(tables),
            "tables": [list(map(lists.__getitem__, u.rows)) for u in tables],
        }

    _emit(args, lambda: "".join(f"# {i + 1} of {len(tables)}\n{formats.dump_table(u)}\n"
                                for i, u in enumerate(tables)), doc)
    _say(f"enumerate: {len(tables)} uninorms on L_{args.n} with e={args.e}, "
         f"{stats.nodes_expanded} nodes expanded")
    return EXIT_OK


def _cmd_scan(args) -> int:
    max_n = args.max_n if args.max_n is not None else DEFAULT_CERTIFY_LIMIT
    hits = scan_pairs(ChainScale(args.n), args.e1, args.e2, max_n=max_n)

    def text_body():
        blocks = []
        for i, hit in enumerate(hits):
            blocks.append(f"# pair {i + 1} of {len(hits)}\n# u1\n{formats.dump_table(hit.u1)}"
                          f"\n# u2\n{formats.dump_table(hit.u2)}")
            if hit.decomposition is not None:
                blocks.append("# decomposition\n"
                              + formats.dump_decomposition(hit.decomposition, hit.u1.scale,
                                                           hit.u1.e, hit.u2.e))
        return "\n".join(blocks) + ("\n" if blocks else "")

    def doc():
        return {
            "format-version": formats.FORMAT_VERSION,
            "kind": "scan",
            "scale": args.n,
            "e1": args.e1,
            "e2": args.e2,
            "count": len(hits),
            "pairs": [
                {
                    "u1": formats.table_doc(hit.u1),
                    "u2": formats.table_doc(hit.u2),
                    "necessity": None if hit.necessity is None else formats.report_doc(hit.necessity),
                    "decomposition": None if hit.decomposition is None else
                    formats.decomposition_doc(hit.decomposition, hit.u1.scale, hit.u1.e, hit.u2.e),
                }
                for hit in hits
            ],
        }

    _emit(args, text_body, doc)
    rejected = sum(not hit.classification.agreement for hit in hits)
    if rejected:
        _say(f"scan: THEOREM DIVERGENCE - the structural conditions reject {rejected} of the "
             f"{len(hits)} distributive pairs; this is the most important possible finding, "
             "please report it")
    _say(f"scan: {len(hits)} distributive pairs on L_{args.n} with e1={args.e1}, e2={args.e2}")
    return EXIT_FALSE if rejected else EXIT_OK


def _cmd_certify(args) -> int:
    max_n = args.max_n if args.max_n is not None else DEFAULT_CERTIFY_LIMIT
    report = certify(ChainScale(args.n), max_n=max_n)
    _emit(args, lambda: formats.render_certification(report),
          lambda: formats.certification_doc(report, include_timing=not args.no_timing))
    _say(f"certify: L_{args.n} pairs={report.pairs_checked} "
         f"divergences={len(report.divergences)}")
    return EXIT_OK if not report.divergences else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unichain",
        description="Exact uninorm toolkit on finite chains: validate, classify, "
                    "check distributivity, decompose, compose, enumerate, certify.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text",
                        help="output format (structured = versioned JSON)")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    verbose = argparse.ArgumentParser(add_help=False)
    verbose.add_argument("--verbose", action="store_true",
                         help="collect every witness instead of the first per law")
    limited = argparse.ArgumentParser(add_help=False)
    limited.add_argument("--max-n", type=int, default=None,
                         help="override the hard scale limit")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common, verbose], help="check the uninorm axioms")
    p.add_argument("--table", required=True, help="table file or family spec")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", parents=[common], help="classify a single uninorm")
    p.add_argument("--table", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check", parents=[common, verbose],
                       help="distributivity of u1 over u2, both routes")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", parents=[common],
                       help="block decomposition of a distributive pair")
    p.add_argument("--u1", required=True)
    p.add_argument("--u2", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compose", parents=[common],
                       help="assemble a pair from a decomposition document")
    p.add_argument("--decomposition", required=True, help="decomposition file")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("enumerate", parents=[common, limited], help="enumerate uninorms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--idempotent-only", action="store_true", help="keep u(x, x) = x for all x")
    p.add_argument("--locally-internal-only", action="store_true",
                   help="keep u(x, y) in {x, y} wherever x < e < y (locally internal on A(e))")
    p.add_argument("--conjunctive-only", action="store_true", help="keep u(0, n) = 0: all "
                   "t-norms with --e n, none with --e 0 (classify: conjunctive needs 0 < e < n)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("scan", parents=[common, limited],
                       help="all distributive pairs for a neutral-element pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e1", type=int, required=True)
    p.add_argument("--e2", type=int, required=True)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("certify", parents=[common, limited],
                       help="compare both distributivity routes over the full pair space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-timing", action="store_true",
                   help="omit the wall-time field from structured output")
    p.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidUninormError as exc:
        sys.stderr.write(f"{exc.subject} fails the uninorm axioms:\n")
        sys.stderr.write(formats.render_report(exc.report))
        return EXIT_FALSE
    except NotDistributiveError as exc:
        sys.stderr.write("decompose refused: pair is not distributive\n")
        sys.stderr.write(formats.render_report(exc.report))
        return EXIT_FALSE
    except CompositionInvalid as exc:
        sys.stderr.write(f"compose rejected: {exc}\n")
        sys.stderr.write(formats.render_report(exc.report))
        return EXIT_FALSE
    except SpecSyntaxError as exc:
        sys.stderr.write(f"error: {exc.caret_message()}\n")
        return EXIT_USAGE
    except (ConstructionError, StructureError, DomainError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SearchLimitError as exc:
        sys.stderr.write(f"{exc}\n")  # each message names what it refused
        return EXIT_LIMIT


if __name__ == "__main__":
    raise SystemExit(main())
