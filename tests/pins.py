"""Compute the SHA-256 pins of ``tests/fixtures/<name>.sha256`` and compare
them with it, or rewrite it:

    PYTHONPATH=src python tests/pins.py hits_l6 [--write]

A fixture holds one ``<sha256>  <key>`` line per pin, as ``sha256sum``
writes them; count fields such as ``hits=<count>`` follow the key.  The
names, on the chain L_n:

- ``hits_l<n>``: the hits of ``distributive_pairs`` per block (e1, e2), one
  ``"i1 i2\\n"`` line per index pair in ``scan_pairs``' order, with
  ``hits=``: a hit moved inside a block changes a pin even where the
  ``certify`` totals do not;
- ``scan_l<n>``: the structured ``scan`` document of every (e1, e2);
  ``enumeration_l<n>``: that of ``enumerate`` for every e; and
  ``enumeration_l<n>_conjunctive``: the latter with ``--conjunctive-only``,
  each the stdout of one in-process ``unichain`` call with ``--max-n n``;
- ``text``: the text stdout of each command in ``COMMANDS``, keyed by its
  name, with ``status=<exit>``; ``certify`` less its ``wall time:`` line;
- ``catalog``: the outcomes of ``make`` and ``from_string`` over a fixed
  grid of inputs, one pin per family (``make <family>``), top-level name
  (``spec <name>``) and compositor's slot names (``slot <compositor>``).
  An outcome is the table's rows and neutral element, or the exception's
  type, message and caret position, so a rewrite of the catalog must keep
  every table, every error and every caret where it was;
- ``roundtrip_l<n>``: every decomposition ``scan`` emits on a proper
  unequal block (e1, e2), through the text format and back into
  ``compose``: the composed rows in hit order, with ``composed=`` and
  ``identical=``, the composed pairs equal to the scanned one (``compose``
  fills u1's free corner canonically, so a composed pair can differ from
  the scanned one and still be distributive);
- ``reports_l<n>``: the verbose case-conditions and necessity reports of
  every unequal pair (``unequal``, with ``passing=``, the pairs whose
  conditions report is empty), and the case-conditions reports of every
  equal pair (``equal``), in canonical pair order;
- ``tasks_l<n>``: the ``repr`` of the rows ``enumerate_uninorms`` yields for
  every e and filter combination, with ``nodes=``, the nodes expanded, and
  ``emitted=``.

Both modes print the pin count, the CPU time and the peak RSS.  Comparing
prints each key whose lines differ, or that one side lacks, and exits 1 if
any does; a bad name or option, no fixture to compare with, or a name that
holds no pins exits 2.
"""

import argparse
import contextlib
import hashlib
import io
import re
import resource
import sys
import tempfile
import time
from bisect import bisect_right
from itertools import accumulate, product
from pathlib import Path

from helpers import case_conditions, uninorms_by_e
from unichain import (ChainScale, EnumerationTask, FamilySpec, cli, compose, enumerate_uninorms,
                      from_string, make, necessity_conditions)
from unichain.distributivity import distributive_pairs
from unichain.errors import CompositionInvalid, SpecSyntaxError
from unichain.formats import dump_decomposition, parse_decomposition
from unichain.search import SearchStats, scan_pairs

FIXTURES_DIR = Path(__file__).parent / "fixtures"
NAME = re.compile(r"text|catalog|(hits|scan|enumeration|roundtrip|reports|tasks)_l[1-9][0-9]*"
                  r"|enumeration_l[1-9][0-9]*_conjunctive")
COUNTS = re.compile(r"( (hits|status|composed|identical|passing|nodes|emitted)=[0-9]+)+$")

# a symmetric table with neutral 1 that fails more than one law at more than one point
BROKEN = "scale 3\nneutral 1\n0 0 0 0\n0 1 2 3\n0 2 1 3\n0 3 3 2\n"

COMMANDS = {
    "validate-valid": ["validate", "--table", "idemmin(e=2,n=4)"],
    "validate-broken": ["validate", "--table", "{broken}"],
    "validate-broken-verbose": ["validate", "--table", "{broken}", "--verbose"],
    "classify-tnorm": ["classify", "--table", "luk-tnorm(n=4)"],
    "classify-proper": ["classify", "--table", "idemmin(e=2,n=4)"],
    "check-agreeing": ["check", "--u1", "idemmin(e=2,n=4)", "--u2", "idemmin(e=1,n=4)"],
    "check-failing-verbose": ["check", "--u1", "luk-upper(e=2,n=4)", "--u2", "luk-upper(e=2,n=4)",
                              "--verbose"],
    "decompose": ["decompose", "--u1", "idemmin(e=2,n=4)", "--u2", "idemmin(e=1,n=4)"],
    "compose": ["compose", "--decomposition", "{decomposition}"],
    **{f"enumerate-e{e}": ["enumerate", "--n", "4", "--e", str(e)] for e in range(5)},
    **{f"scan-e{e1}-e{e2}": ["scan", "--n", "4", "--e1", str(e1), "--e2", str(e2)]
       for e1 in range(5) for e2 in range(5)},
    "certify": ["certify", "--n", "3"],
}

TNORMS = ("min", "lukasiewicz-tnorm", "drastic-tnorm")
TCONORMS = ("max", "lukasiewicz-tconorm", "drastic-tconorm")
MAKE_FAMILIES = (*TNORMS, *TCONORMS, "umin-idempotent", "umax-idempotent", "umin-of", "umax-of",
                 "product")
TOP_LEVEL_NAMES = (
    "min", "max", "luk-tnorm", "lukasiewicz-tnorm", "luk-tconorm", "lukasiewicz-tconorm",
    "drastic-tnorm", "drastic-tconorm", "idemmin", "umin-idempotent", "idemmax",
    "umax-idempotent", "umin", "umin-of", "umax", "umax-of", "luk-upper",
    "luk", "lukasiewicz", "drastic", "product", "LUK_TNORM", "IdemMin",
)
ARGUMENT_SHAPES = (
    "", "()", "(n=3)", "(n=1)", "(n=0)", "(e=2)", "(n=4,e=2)", "(e=1, n=3)", "(e=1,n=5)",
    "(n=4,e=0)",
    "(n=4,e=4)", "(n=4,e=5)", "(n=4,q=1)", "(n=4,e=x)", "(n=4,e=2", "(n=3) x",
    "(T=min,S=max,e=2,n=4)", "(T=luk,S=drastic,e=1,n=3)", "(n=4,e=2,T=drastic)",
    "(T=luk(n=2),S=max(n=2),e=2,n=4)", "(T=min(e=1),S=max,e=1,n=3)",
    "(T=umin(T=min,S=max,e=1,n=2),S=max,e=2,n=4)", "(T=min(n=3),S=max,e=2,n=4)",
)
SLOT_NAMES = (
    "min", "max", "luk", "lukasiewicz", "drastic", "luk-tnorm", "lukasiewicz-tnorm",
    "luk-tconorm", "lukasiewicz-tconorm", "drastic-tnorm", "drastic-tconorm", "idemmin",
    "umin-idempotent", "idemmax", "umax-idempotent", "umin", "umin-of", "umax", "umax-of",
    "luk-upper", "product", "LUK", "Drastic_TNorm",
)

FILTERS = ("idempotent", "locally-internal", "conjunctive")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def hit_lines(n: int) -> list:
    """One kernel call per second stack, with every first stack end to end
    (n+1 calls, not (n+1)^2); its hits split into blocks at the offsets."""
    by_e = [[u.table for u in us] for us in uninorms_by_e(n).values()]
    starts = list(accumulate(map(len, by_e), initial=0))  # each first stack's offset
    firsts = [t for tables in by_e for t in tables]
    blocks = {(e1, e2): [] for e1 in range(n + 1) for e2 in range(n + 1)}  # one "i1 i2\n" per hit
    for e2, seconds in enumerate(by_e):
        for i, i2 in distributive_pairs(firsts, seconds):
            e1 = bisect_right(starts, i) - 1
            blocks[e1, e2].append(f"{i - starts[e1]} {i2}\n")
    return [f"{sha256(''.join(hits))}  e1={e1} e2={e2} hits={len(hits)}\n"
            for (e1, e2), hits in blocks.items()]


def run(argv: list) -> tuple:
    """The exit status, stdout and stderr of one in-process ``unichain`` call."""
    argv, out, err = [str(arg) for arg in argv], io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def document_line(key: str, argv: list) -> str:
    """The pin line of the document one ``unichain`` call writes to stdout."""
    status, out, err = run(argv)
    if status:
        raise RuntimeError(f"unichain {' '.join(map(str, argv))} exited {status}: {err}")
    return f"{sha256(out)}  {key}\n"


def text_lines() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        broken, decomposition = Path(tmp, "broken.tbl"), Path(tmp, "d.txt")
        broken.write_text(BROKEN, encoding="utf-8")
        run([*COMMANDS["decompose"], "--out", decomposition])
        lines = []
        for name, argv in COMMANDS.items():
            status, out, _ = run([arg.format(broken=broken, decomposition=decomposition)
                                  for arg in argv])
            if name == "certify":
                out = "".join(line for line in out.splitlines(keepends=True)
                              if not line.startswith("wall time:"))
            lines.append(f"{sha256(out)}  {name} status={status}\n")
    return lines


def outcome(build) -> str:
    try:
        u = build()
    except Exception as exc:  # every exception is part of the pinned outcome
        pos = exc.pos if isinstance(exc, SpecSyntaxError) else None
        return f"{type(exc).__name__}|{exc}|{pos}"
    return f"{u.rows}|{u.e}"


def sub_variants(n: int, e: int) -> list:
    """(t, s) arguments for ``make`` on L_n with neutral e: none, every
    t-norm/t-conorm pair on the two sub-chains, and some that do not fit."""
    variants = [(None, None)]
    if 0 < e < n:
        ts = [make(FamilySpec(f, ChainScale(e), e)) for f in TNORMS]
        ss = [make(FamilySpec(f, ChainScale(n - e), 0)) for f in TCONORMS]
        variants += [(t, s) for t in ts for s in ss]
        variants += [(ts[0], None), (None, ss[0]), (ss[0], ts[0]), (ts[0], ts[0]),
                     (make(FamilySpec("min", ChainScale(e + 1), e + 1)), ss[0])]
    return variants


def catalog_lines() -> list:
    groups = {
        **{f"make {family}": [outcome(lambda: make(FamilySpec(family, ChainScale(n), e, t=t, s=s)))
                              for n in range(1, 8) for e in range(-1, n + 2)
                              for t, s in sub_variants(n, e)]
           for family in MAKE_FAMILIES},
        **{f"spec {name}": [outcome(lambda: from_string(name + shape)) for shape in ARGUMENT_SHAPES]
           for name in TOP_LEVEL_NAMES},
        **{f"slot {c}": [outcome(lambda: from_string(f"{c}(T={t},S={s},e=3,n=6)"))
                         for t in SLOT_NAMES for s in SLOT_NAMES]
           for c in ("umin", "umax")},
    }
    return [sha256("\n".join(outcomes)) + f"  {key}\n" for key, outcomes in groups.items()]


def roundtrip_lines(n: int) -> list:
    scale, lines = ChainScale(n), []
    for e1, e2 in product(range(1, n), repeat=2):
        if e1 == e2:
            continue
        composed, identical = [], 0  # one line per composed pair: rows "|"-joined, ";" between rows
        for hit in scan_pairs(scale, e1, e2):
            if hit.decomposition is None:
                continue
            text = dump_decomposition(hit.decomposition, scale, e1, e2)
            try:
                c1, c2 = compose(*parse_decomposition(text))
            except CompositionInvalid:
                continue
            identical += (c1.rows, c2.rows) == (hit.u1.rows, hit.u2.rows)
            composed.append("|".join(";".join(" ".join(map(str, row)) for row in u.rows)
                                     for u in (c1, c2)) + "\n")
        lines.append(f"{sha256(''.join(composed))}  e1={e1} e2={e2} "
                     f"composed={len(composed)} identical={identical}\n")
    return lines


def unequal_pairs(by_e: dict):
    for e1 in sorted(by_e):
        for i1, u1 in enumerate(by_e[e1]):
            for e2 in sorted(by_e):
                if e1 != e2:
                    for i2, u2 in enumerate(by_e[e2]):
                        yield (e1, i1, e2, i2), u1, u2


def equal_pairs(by_e: dict):
    for e in sorted(by_e):
        for i1, u1 in enumerate(by_e[e]):
            for i2, u2 in enumerate(by_e[e]):
                yield (e, i1, e, i2), u1, u2


def described(report) -> list:
    return [v.describe() for v in report.violations]


def report_lines(n: int) -> list:
    by_e, unequal, equal, passing = uninorms_by_e(n), hashlib.sha256(), hashlib.sha256(), 0
    for key, u1, u2 in unequal_pairs(by_e):
        conditions = described(case_conditions(u1, u2, verbose=True))
        necessity = described(necessity_conditions(u1, u2, verbose=True))
        passing += not conditions
        for line in ["pair %d,%d,%d,%d" % key, "conditions", *conditions, "necessity", *necessity]:
            unequal.update(f"{line}\n".encode())
    for key, u1, u2 in equal_pairs(by_e):
        for line in ["pair %d,%d,%d,%d" % key, "conditions",
                     *described(case_conditions(u1, u2, verbose=True))]:
            equal.update(f"{line}\n".encode())
    return [f"{unequal.hexdigest()}  unequal passing={passing}\n", f"{equal.hexdigest()}  equal\n"]


def task_lines(n: int) -> list:
    lines = []
    for e, flags in product(range(n + 1), product((False, True), repeat=3)):
        stats = SearchStats()
        task = EnumerationTask(ChainScale(n), e, *flags)
        rows = [u.rows for u in enumerate_uninorms(task, max_n=n, stats=stats)]
        chosen = "+".join(f for f, on in zip(FILTERS, flags) if on) or "none"
        lines.append(f"{sha256(repr(rows))}  e={e} filters={chosen} "
                     f"nodes={stats.nodes_expanded} emitted={stats.emitted}\n")
    return lines


def compute(name: str) -> list:
    """The fixture's lines, as computed now."""
    if name == "text":
        return text_lines()
    if name == "catalog":
        return catalog_lines()
    kind, scale, *conjunctive = name.split("_")
    n = int(scale[1:])
    if kind in ("hits", "roundtrip", "reports", "tasks"):
        return {"hits": hit_lines, "roundtrip": roundtrip_lines, "reports": report_lines,
                "tasks": task_lines}[kind](n)
    common = ["--n", n, "--max-n", n, "--format", "structured"]
    if kind == "scan":
        return [document_line(f"e1={e1} e2={e2}", ["scan", *common, "--e1", e1, "--e2", e2])
                for e1 in range(n + 1) for e2 in range(n + 1)]
    flags = ["--conjunctive-only"] if conjunctive else []
    return [document_line(f"e={e}", ["enumerate", *common, *flags, "--e", e]) for e in range(n + 1)]


def pinned(name: str) -> str:
    return (FIXTURES_DIR / f"{name}.sha256").read_text(encoding="utf-8")


def keyed(text: str) -> dict:
    """Each line of a fixture's text by its key: what follows the digest, less its count fields."""
    return {COUNTS.sub("", line.partition("  ")[2]): line for line in text.splitlines()}


def counts(name: str, field: str) -> dict:
    """The pinned ``<field>=<count>`` of each key of a fixture whose line has one."""
    return {key: int(found[1]) for key, line in keyed(pinned(name)).items()
            if (found := re.search(f" {field}=([0-9]+)", line))}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="pins.py", allow_abbrev=False,
                                     description="Compare or rewrite the SHA-256 pins of one fixture.")
    parser.add_argument("name", help="text, catalog, hits_l<n>, scan_l<n>, enumeration_l<n>, "
                        "enumeration_l<n>_conjunctive, roundtrip_l<n>, reports_l<n> or tasks_l<n>")
    parser.add_argument("--write", action="store_true", help="rewrite the fixture")
    args = parser.parse_args(argv)
    path = FIXTURES_DIR / f"{args.name}.sha256"
    if not NAME.fullmatch(args.name):
        parser.error(f"not a fixture name: {args.name!r}")
    if not (args.write or path.is_file()):
        parser.error(f"there is no fixture {path.name} to compare with")
    started = time.process_time()
    lines = compute(args.name)
    if not lines:  # such as roundtrip_l2, whose chain has no proper unequal block
        parser.error(f"{args.name} holds no pins")
    computed = "".join(lines)
    print(f"{args.name}: {len(lines)} pins, {time.process_time() - started:.2f} s of CPU, "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB peak")
    if args.write:
        path.write_text(computed, encoding="utf-8")
        return 0
    theirs, ours = keyed(pinned(args.name)), keyed(computed)
    differ = [key for key in {**theirs, **ours} if theirs.get(key) != ours.get(key)]
    for key in differ:
        print(f"{key}: pinned {theirs.get(key)}, computed {ours.get(key)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
