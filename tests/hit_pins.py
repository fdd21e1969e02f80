"""Pin the distributive pairs that ``distributive_pairs`` finds on one chain,
block by block, and compare them with ``tests/fixtures/hits_l<n>.json``.

    PYTHONPATH=src python tests/hit_pins.py 6            # compare
    PYTHONPATH=src python tests/hit_pins.py 6 --write    # rewrite the fixture

A block is every pair (u1, u2) with u1 of neutral e1 and u2 of neutral e2;
its hits are the index pairs (i1, i2) into the two enumerations, u1 outer
and u2 inner, the order ``scan_pairs`` reads them in.  The kernel runs once
per second stack, with the first stacks of every e1 end to end as its
first stack (n+1 calls, not (n+1)^2); its lexicographic hits are split into
blocks at the first stacks' offsets.  The fixture holds, per block, the hit
count and the SHA-256 of the hits written as one ``"i1 i2\\n"`` line each.
So a hit that moves inside a block, or between blocks of one case, changes
a pin even where the case totals of the ``certify`` goldens do not.

Both modes print the totals with the CPU time and the peak resident memory
of the run.  Comparing then prints one line per block that differs, with its
pinned and its computed count, and exits 1 if any does.  A call without a
scale, or with an unknown option, prints the usage and exits 2.  Tier-1
compares L_5-L_7.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

from unichain import ChainScale, EnumerationTask, enumerate_uninorms
from unichain.distributivity import distributive_pairs

FIXTURES_DIR = Path(__file__).parent / "fixtures"


def fixture_path(n: int) -> Path:
    return FIXTURES_DIR / f"hits_l{n}.json"


def tables_by_e(n: int) -> list:
    """The table of every uninorm on L_n, one list per neutral element."""
    return [[u.table for u in enumerate_uninorms(EnumerationTask(ChainScale(n), e), max_n=n)]
            for e in range(n + 1)]


def pins(n: int) -> dict:
    by_e = tables_by_e(n)
    starts = list(accumulate(map(len, by_e), initial=0))  # each first stack's offset
    firsts = [t for tables in by_e for t in tables]
    blocks = []
    for e2, seconds in enumerate(by_e):
        lines = [[] for _ in by_e]  # per e1, the block's hits, one "i1 i2\n" each
        for i, i2 in distributive_pairs(firsts, seconds):
            e1 = bisect_right(starts, i) - 1
            lines[e1].append(f"{i - starts[e1]} {i2}\n")
        blocks.extend({"e1": e1, "e2": e2, "hits": len(hits),
                       "sha256": hashlib.sha256("".join(hits).encode()).hexdigest()}
                      for e1, hits in enumerate(lines))
    blocks.sort(key=lambda block: (block["e1"], block["e2"]))
    return {"n": n, "blocks": blocks}


def render(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def differing_blocks(pinned: dict, computed: dict) -> list:
    """One line per block whose count or digest differs, or that only one side has."""
    def keyed(doc):
        return {(b["e1"], b["e2"]): b for b in doc["blocks"]}

    theirs, ours = keyed(pinned), keyed(computed)
    return [f"block e1={e1} e2={e2}: pinned {theirs.get((e1, e2), {}).get('hits')} hits, "
            f"computed {ours.get((e1, e2), {}).get('hits')}"
            for e1, e2 in sorted(theirs.keys() | ours.keys())
            if theirs.get((e1, e2)) != ours.get((e1, e2))]


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="hit_pins.py", allow_abbrev=False,
                                     description="Compare or rewrite the hit pins of L_n.")
    parser.add_argument("n", type=int, help="the chain L_n")
    parser.add_argument("--write", action="store_true", help="rewrite the fixture")
    args = parser.parse_args(argv)
    n = args.n
    started = time.process_time()
    computed = pins(n)
    print(f"L_{n}: {len(computed['blocks'])} blocks, "
          f"{sum(b['hits'] for b in computed['blocks'])} hits, "
          f"{time.process_time() - started:.2f} s of CPU, "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB peak")
    if args.write:
        fixture_path(n).write_text(render(computed), encoding="utf-8")
        return 0
    differ = differing_blocks(json.loads(fixture_path(n).read_text(encoding="utf-8")), computed)
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
