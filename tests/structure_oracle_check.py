"""Compare ``enumerate_uninorms`` with the structure-theorem oracle
``oracles.structure_uninorms`` on one chain, for every neutral element, and
run the full structural check and ``validate_uninorm`` on every table the
search yields (the search builds its tables without ``OpTable``'s check).

    PYTHONPATH=src python tests/structure_oracle_check.py 7

Prints one line per neutral element with both table counts, the CPU seconds
of each side and of the checks, then each table that fails a check, and
exits 1 if any list of tables differs or any table fails.  A call without
a scale, or with a scale below 1, prints the usage and exits 2.  Tier-1
calls ``main`` for L_1 through L_6.
"""

import argparse
import time

import oracles
from unichain import ChainScale, EnumerationTask, enumerate_uninorms, validate_uninorm
from unichain.core import _structural_violations


def table_faults(u) -> list:
    """What the structural check and ``validate_uninorm`` find in ``u``."""
    found = [v.describe() for v in _structural_violations(u.rows, u.n)]
    if not found:
        found = [v.describe() for v in validate_uninorm(u.table, u.e).violations]
    return found


def main(n: int) -> int:
    differ = 0
    for e in range(n + 1):
        started = time.process_time()
        theirs = sorted(oracles.structure_uninorms(n, e))
        oracle_done = time.process_time()
        task = EnumerationTask(ChainScale(n), e)
        uninorms = list(enumerate_uninorms(task, max_n=n))
        search_done = time.process_time()
        faults = [(u.rows, found) for u in uninorms if (found := table_faults(u))]
        checks_done = time.process_time()
        same = theirs == [u.rows for u in uninorms]
        differ += not same or bool(faults)
        print(f"L_{n} e={e}: oracle {len(theirs)} tables in {oracle_done - started:.1f} s, "
              f"search {len(uninorms)} in {search_done - oracle_done:.1f} s: "
              f"{'equal' if same else 'DIFFERENT'}; checks in {checks_done - search_done:.1f} s: "
              f"{len(faults)} failed", flush=True)
        for rows, found in faults:
            print(f"  {rows}: {'; '.join(found)}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(prog="structure_oracle_check.py", description=(
        "Compare the search with the structure-theorem oracle on L_n."))
    parser.add_argument("n", type=int, help="the chain L_n")
    n = parser.parse_args().n
    if n < 1:
        parser.error(f"not a chain: L_{n}")
    raise SystemExit(main(n))
