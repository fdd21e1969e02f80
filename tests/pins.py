"""Compute the SHA-256 pins of ``tests/fixtures/<name>.sha256`` and compare
them with it, or rewrite it:

    PYTHONPATH=src python tests/pins.py hits_l6 [--write]

A fixture holds one ``<sha256>  <key>`` line per pin, as ``sha256sum``
writes them.  On the chain L_n, ``hits_l<n>`` pins the hits of
``distributive_pairs`` per block (e1, e2), one ``"i1 i2\n"`` line per
index pair in ``scan_pairs``' order, with ``hits=<count>`` on the line: a
hit moved inside a block changes a pin even where the ``certify`` totals
do not.  ``scan_l<n>`` pins the structured ``scan`` document of every
(e1, e2), ``enumeration_l<n>`` that of ``enumerate`` for every e, and
``enumeration_l<n>_conjunctive`` the latter with ``--conjunctive-only``,
each the stdout of one in-process ``unichain`` call with ``--max-n n``.

Both modes print the pin count, the CPU time and the peak RSS.  Comparing
prints each key whose lines differ, or that one side lacks, and exits 1 if
any does; a bad name or option, or no fixture to compare with, exits 2.
"""

import argparse
import contextlib
import hashlib
import io
import re
import resource
import sys
import time
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

from helpers import uninorms_by_e
from unichain import cli
from unichain.distributivity import distributive_pairs

FIXTURES_DIR = Path(__file__).parent / "fixtures"
NAME = re.compile(r"(hits|scan|enumeration)_l[1-9][0-9]*|enumeration_l[1-9][0-9]*_conjunctive")


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


def document_line(key: str, argv: list) -> str:
    """The pin line of the document one ``unichain`` call writes to stdout."""
    argv, out, err = [str(arg) for arg in argv], io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status:
        raise RuntimeError(f"unichain {' '.join(argv)} exited {status}: {err.getvalue()}")
    return f"{sha256(out.getvalue())}  {key}\n"


def compute(name: str) -> list:
    """The fixture's lines, as computed now."""
    kind, scale, *conjunctive = name.split("_")
    n = int(scale[1:])
    if kind == "hits":
        return hit_lines(n)
    common = ["--n", n, "--max-n", n, "--format", "structured"]
    if kind == "scan":
        return [document_line(f"e1={e1} e2={e2}", ["scan", *common, "--e1", e1, "--e2", e2])
                for e1 in range(n + 1) for e2 in range(n + 1)]
    flags = ["--conjunctive-only"] if conjunctive else []
    return [document_line(f"e={e}", ["enumerate", *common, *flags, "--e", e]) for e in range(n + 1)]


def pinned(name: str) -> str:
    return (FIXTURES_DIR / f"{name}.sha256").read_text(encoding="utf-8")


def keyed(text: str) -> dict:
    """Each line of a fixture's text by its key: what follows the digest, less any hit count."""
    return {line.partition("  ")[2].partition(" hits=")[0]: line for line in text.splitlines()}


def hit_counts(name: str) -> dict:
    """The pinned hit count of each block (e1, e2) of a ``hits_l<n>`` fixture."""
    return {(int(e1), int(e2)): int(hits)
            for e1, e2, hits in re.findall(r"e1=(\d+) e2=(\d+) hits=(\d+)", pinned(name))}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="pins.py", allow_abbrev=False,
                                     description="Compare or rewrite the SHA-256 pins of one fixture.")
    parser.add_argument("name", help="hits_l<n>, scan_l<n>, enumeration_l<n> "
                        "or enumeration_l<n>_conjunctive")
    parser.add_argument("--write", action="store_true", help="rewrite the fixture")
    args = parser.parse_args(argv)
    path = FIXTURES_DIR / f"{args.name}.sha256"
    if not NAME.fullmatch(args.name):
        parser.error(f"not a fixture name: {args.name!r}")
    if not (args.write or path.is_file()):
        parser.error(f"there is no fixture {path.name} to compare with")
    started = time.process_time()
    lines = compute(args.name)
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
