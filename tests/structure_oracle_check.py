"""Compare ``enumerate_uninorms`` with the structure-theorem oracle
``oracles.structure_uninorms`` on one chain, for every neutral element.

    PYTHONPATH=src python tests/structure_oracle_check.py 7

Prints one line per neutral element with both table counts and the CPU
seconds of each side, and exits 1 if any list of tables differs.  Tier-1
calls ``main`` for L_1 through L_6.
"""

import sys
import time

import oracles
from unichain import ChainScale, EnumerationTask, enumerate_uninorms


def main(n: int) -> int:
    differ = 0
    for e in range(n + 1):
        started = time.process_time()
        theirs = sorted(oracles.structure_uninorms(n, e))
        oracle_done = time.process_time()
        task = EnumerationTask(ChainScale(n), e)
        ours = [u.rows for u in enumerate_uninorms(task, max_n=n)]
        search_done = time.process_time()
        same = theirs == ours
        differ += not same
        print(f"L_{n} e={e}: oracle {len(theirs)} tables in {oracle_done - started:.1f} s, "
              f"search {len(ours)} in {search_done - oracle_done:.1f} s: "
              f"{'equal' if same else 'DIFFERENT'}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1])))
