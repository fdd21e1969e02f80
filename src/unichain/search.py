"""Exhaustive enumeration of uninorms on small chains, and the certification
experiment comparing the structural case conditions against brute-force
distributivity over the full pair space.

The search fills the upper triangle of the table in a fixed traversal
(increasing x, then y >= x), with the neutral row propagated first.
Monotonicity prunes a candidate cell immediately via its neighbour bounds;
associativity is pruned incrementally by checking the triples whose four
lookups became determined with the new cell, one of each mirror pair (the
table is symmetric, so (a, b, c) and (c, b, a) share a verdict).  The task's
filters restrict the candidates of the cells they read, all of them free cells.
Determinism: candidates are tried in ascending order, so tables stream out
in lexicographic order of their row-major values.

The tree is cut after ``PARTITION_DEPTH`` free cells and each prefix is
expanded on its own, in this process or in worker processes; the parts are
merged in prefix order.  Neither the cut nor the worker count changes the
tables, their order, or the ``SearchStats`` counts.

``certify`` enumerates once, then classifies every pair through
``classify_and_check`` in contiguous slices of the canonical pair list over
the same worker map; each slice returns its own tally, which ``certify``
adds up.
``scan_pairs`` first finds its hits with the batched exhaustive kernel
(``distributivity_matrix``: one numpy evaluation per u2 against the whole
u1 stack) and runs the per-pair evidence path on the hits only: one
classification each, the necessity battery, and the decomposition built from
that classification; a hit the per-pair scan rejects is an internal
inconsistency, never dropped.  Worker processes never outnumber the jobs or
the CPUs available to this process, and a worker count below 1 is refused.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from .core import ChainScale, OpTable, Uninorm
from .distributivity import (
    ClassifyResult,
    Decomposition,
    TheoremCase,
    classify_and_check,
    distributivity_matrix,
    necessity_conditions,
    _decompose_checked,
    _proper_unequal,
)
from .errors import DomainError, InternalConsistencyError, SearchLimitError, StructureError

DEFAULT_ENUMERATION_LIMIT = 6
DEFAULT_CERTIFY_LIMIT = 4
PARTITION_DEPTH = 2


@dataclass
class SearchStats:
    """Mutable counters shared across one enumeration run."""

    nodes_expanded: int = 0
    emitted: int = 0


@dataclass(frozen=True)
class EnumerationTask:
    """What to enumerate: a chain, a neutral element, optional filters."""

    scale: ChainScale
    e: int
    idempotent_only: bool = False
    locally_internal_only: bool = False
    conjunctive_only: bool = False

    def __post_init__(self):
        if not 0 <= self.e <= self.scale.n:
            raise StructureError(f"neutral index {self.e} outside chain 0..{self.scale.n}")


def _free_cells(n: int, e: int):
    return [(x, y) for x in range(n + 1) for y in range(x, n + 1) if x != e and y != e]


def _neutral_table(n: int, e: int):
    t = [[-1] * (n + 1) for _ in range(n + 1)]
    for y in range(n + 1):
        t[e][y] = y
        t[y][e] = y
    return t


def _candidates(t, x, y, n, e, task):
    lo = 0
    if x > 0:
        lo = max(lo, t[x - 1][y])
    if y > 0:
        lo = max(lo, t[x][y - 1])
    hi = n
    if x < e:
        hi = min(hi, t[e][y])
    if y < e:
        hi = min(hi, t[x][e])
    values = range(lo, hi + 1)
    if task.idempotent_only and x == y:
        values = [x] if lo <= x <= hi else []
    elif task.locally_internal_only and x < e < y:
        values = [v for v in (x, y) if lo <= v <= hi]
    if task.conjunctive_only and (x, y) == (0, n):
        values = [0] if 0 in values else []
    return values


def _triple_consistent(t, a, b, c):
    ab = t[a][b]
    if ab < 0:
        return True
    bc = t[b][c]
    if bc < 0:
        return True
    left = t[ab][c]
    right = t[a][bc]
    return left < 0 or right < 0 or left == right


def _assoc_ok_after(t, x, y, n):
    # every triple whose four lookups became determined with cell (x, y)
    # references the new cell in one of them.  Cells are set in pairs (-1
    # included), so t is symmetric and the mirror (c, b, a) of a triple reads
    # t[c][b] = t[b][c] and t[b][a] = t[a][b] with the law's sides swapped: one
    # verdict for both.  The new cell as first or outer lookup (ab, c) is
    # checked; as bc or outer lookup (a, bc) it is the mirror of those.
    rng = range(n + 1)
    for c in rng:
        if not (_triple_consistent(t, x, y, c) and _triple_consistent(t, y, x, c)):
            return False
    for a in rng:
        row = t[a]
        for b in rng:
            ab = row[b]
            if ab == x:
                if not _triple_consistent(t, a, b, y):
                    return False
            if ab == y:
                if not _triple_consistent(t, a, b, x):
                    return False
    return True


def _search(t, cells, i, n, e, task, stats):
    """Yield every table that fills ``cells[i:]`` within the pruning rules."""
    if i == len(cells):
        yield tuple(tuple(row) for row in t)
        return
    x, y = cells[i]
    for v in _candidates(t, x, y, n, e, task):
        t[x][y] = t[y][x] = v
        stats.nodes_expanded += 1
        if _assoc_ok_after(t, x, y, n):
            yield from _search(t, cells, i + 1, n, e, task, stats)
        t[x][y] = t[y][x] = -1


def _completions(job):
    """For ``job = (task, prefix)``: the tables whose first free cells hold
    ``prefix``, and the number of nodes expanded below it."""
    task, prefix = job
    n, e = task.scale.n, task.e
    t = _neutral_table(n, e)
    cells = _free_cells(n, e)
    for (x, y), v in zip(cells, prefix):
        t[x][y] = t[y][x] = v
    stats = SearchStats()
    tables = list(_search(t, cells, len(prefix), n, e, task, stats))
    return tables, stats.nodes_expanded


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map(fn, jobs, workers):
    """``fn`` over ``jobs``, results in job order: lazily in this process, or
    across at most ``workers`` processes, one per job and per available CPU."""
    workers = min(workers, len(jobs), _cpus())
    if workers <= 1:
        return map(fn, jobs)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _refuse_above(what: str, n: int, max_n: int) -> None:
    """Scales above ``max_n`` need a deliberate override, not a default:
    the search space grows too fast."""
    if n > max_n:
        raise SearchLimitError(f"{what} on L_{n} refused: limit is n <= {max_n}; "
                               f"pass max_n={n} to override")


def enumerate_uninorms(task: EnumerationTask, *,
                       workers: int = 1,
                       max_n: int = DEFAULT_ENUMERATION_LIMIT,
                       stats: SearchStats | None = None):
    """Yield every uninorm on the task's chain with the task's neutral element.

    Each table appears exactly once, in lexicographic order of its rows.
    The tree is cut after ``PARTITION_DEPTH`` free cells; the parts below
    the cut are expanded in prefix order, here or across ``workers``
    processes, and ``stats`` ends the same for any worker count.  A table
    not strictly greater than the one before it is a search bug and raises
    :class:`InternalConsistencyError`.  Scales above ``max_n`` are refused,
    and so is a worker count below 1 (:class:`DomainError`).
    """
    n, e = task.scale.n, task.e
    if workers < 1:
        raise DomainError(f"worker count must be at least 1, got {workers}")
    _refuse_above("enumeration", n, max_n)
    if stats is None:
        stats = SearchStats()
    if task.conjunctive_only and e == 0:
        return  # row 0 is the identity, so u(0, n) = n: nothing qualifies
    heads = _free_cells(n, e)[:PARTITION_DEPTH]
    prefixes = [tuple(rows[x][y] for x, y in heads)
                for rows in _search(_neutral_table(n, e), heads, 0, n, e, task, stats)]
    previous = ()
    for tables, nodes in _map(_completions, [(task, p) for p in prefixes], workers):
        stats.nodes_expanded += nodes
        for rows in tables:
            if rows <= previous:
                raise InternalConsistencyError(
                    f"enumeration on L_{n} with e={e} left lexicographic order at {rows}")
            previous = rows
            stats.emitted += 1
            yield Uninorm(OpTable(task.scale, rows), e)


@dataclass(frozen=True)
class PairDivergence:
    """A pair where the case conditions and the exhaustive scan disagree."""

    e1: int
    index1: int
    e2: int
    index2: int
    case: str
    conditions_verdict: bool
    exhaustive_verdict: bool
    u1_rows: tuple
    u2_rows: tuple


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of comparing both distributivity routes over a full pair space.

    A complete report asserts what duality implies: palindromic uninorm
    counts, and equal greater- and less-case counts for all pairs and for
    distributive pairs.
    """

    scale_n: int
    uninorm_counts: tuple          # ((e, count), ...) for e = 0..n
    pairs_checked: int
    pair_case_counts: tuple        # ((case value, pairs), ...)
    distributive_case_counts: tuple
    agreements: int
    divergences: tuple
    nodes_expanded: int
    wall_time_s: float
    partial: bool = False

    def __post_init__(self):
        if not self.partial:
            by_e = dict(self.uninorm_counts)
            expected = sum(by_e[e1] * by_e[e2] for e1 in by_e for e2 in by_e)
            if self.pairs_checked != expected:
                raise InternalConsistencyError("pair count does not match the enumeration counts")
            # duality x -> n - x maps neutral e to n - e and the greater case
            # onto the less case, distributivity included
            counts = [c for _, c in self.uninorm_counts]
            if counts != counts[::-1]:
                raise InternalConsistencyError(f"uninorm counts {counts} are not palindromic")
            for label, by_case in (("pair", self.pair_case_counts),
                                   ("distributive", self.distributive_case_counts)):
                by_case = dict(by_case)
                greater = by_case.get(TheoremCase.GREATER_NEUTRAL.value, 0)
                less = by_case.get(TheoremCase.LESS_NEUTRAL.value, 0)
                if greater != less:
                    raise InternalConsistencyError(
                        f"{label} counts differ between the greater ({greater}) "
                        f"and less ({less}) cases")
        if (len(self.divergences) == 0) != (self.agreements == self.pairs_checked):
            raise InternalConsistencyError("divergence list disagrees with the agreement count")


def _check_pair_block(args):
    """Classify a contiguous slice of the canonical pair list over
    ``uninorms``, a list of ``(e, index, uninorm)``.  Returns the pairs per
    ``(case, distributive)``, the agreements and the divergences."""
    uninorms, start, stop = args
    tally = Counter()
    agreements = 0
    divergences = []
    for (e1, i1, u1), (e2, i2, u2) in islice(product(uninorms, repeat=2), start, stop):
        result = classify_and_check(u1, u2)
        case = result.case.value
        tally[case, result.exhaustive.verdict] += 1
        if result.agreement:
            agreements += 1
        else:
            divergences.append(PairDivergence(
                e1, i1, e2, i2, case,
                result.conditions.verdict, result.exhaustive.verdict,
                u1.rows, u2.rows,
            ))
    return tally, agreements, divergences


def certify(scale: ChainScale, *,
            workers: int = 1,
            max_n: int = DEFAULT_CERTIFY_LIMIT,
            pair_budget: int | None = None) -> CertificationReport:
    """Enumerate every uninorm for every neutral element and classify every
    ordered pair, comparing the case conditions against the exhaustive scan.

    Deterministic for a given scale: counts, ordering and divergence lists
    do not depend on the worker count (only the wall time does).  If a
    ``pair_budget`` is given and the pair space is larger, the canonical
    prefix is checked and the report is marked partial.  A negative budget
    or a worker count below 1 raises :class:`DomainError`.
    """
    n = scale.n
    if pair_budget is not None and pair_budget < 0:
        raise DomainError(f"pair budget must be at least 0, got {pair_budget}")
    if workers < 1:
        raise DomainError(f"worker count must be at least 1, got {workers}")
    _refuse_above("certification", n, max_n)
    started = time.perf_counter()
    stats = SearchStats()
    by_e = [list(enumerate_uninorms(EnumerationTask(scale, e), max_n=max(max_n, n), stats=stats))
            for e in range(n + 1)]
    uninorms = [(e, i, u) for e, us in enumerate(by_e) for i, u in enumerate(us)]
    total_pairs = len(uninorms) ** 2
    limit = total_pairs if pair_budget is None else min(pair_budget, total_pairs)

    step = -(-limit // workers) or 1
    jobs = [(uninorms, lo, min(lo + step, limit)) for lo in range(0, limit, step)]
    tally = Counter()
    agreements = 0
    divergences: list[PairDivergence] = []
    for part, agree, div in _map(_check_pair_block, jobs, workers):
        tally += part
        agreements += agree
        divergences += div

    case_order = [c.value for c in TheoremCase]
    return CertificationReport(
        scale_n=n,
        uninorm_counts=tuple((e, len(us)) for e, us in enumerate(by_e)),
        pairs_checked=limit,
        pair_case_counts=tuple((c, tally[c, True] + tally[c, False]) for c in case_order),
        distributive_case_counts=tuple((c, tally[c, True]) for c in case_order),
        agreements=agreements,
        divergences=tuple(divergences),
        nodes_expanded=stats.nodes_expanded,
        wall_time_s=time.perf_counter() - started,
        partial=limit < total_pairs,
    )


@dataclass(frozen=True)
class PairHit:
    """One distributive pair found by a scan, with its attached evidence."""

    u1: Uninorm
    u2: Uninorm
    classification: ClassifyResult
    necessity: object = None       # CheckReport, for pairs with e1 != e2
    decomposition: Decomposition | None = None


def scan_pairs(scale: ChainScale, e1: int, e2: int, *,
               max_n: int = DEFAULT_CERTIFY_LIMIT) -> list:
    """All distributive pairs (u1 with neutral e1, u2 with neutral e2).

    The hits are the True cells of ``distributivity_matrix`` over the two
    enumerations, u1 outer and u2 inner.  Only the hits take the per-pair
    evidence path: each carries the classification of both routes; for
    e1 != e2 also the necessity battery, and for proper unequal neutrals the
    block decomposition, built from that one classification.  A hit the
    per-pair exhaustive scan rejects raises :class:`InternalConsistencyError`.
    """
    n = scale.n
    _refuse_above("pair scan", n, max_n)
    firsts = list(enumerate_uninorms(EnumerationTask(scale, e1), max_n=max(max_n, n)))
    seconds = firsts if e1 == e2 else list(
        enumerate_uninorms(EnumerationTask(scale, e2), max_n=max(max_n, n)))
    distributes = distributivity_matrix([u.rows for u in firsts], [u.rows for u in seconds])
    hits = []
    decomposable = _proper_unequal(n, e1, e2)
    for i1, i2 in zip(*np.nonzero(distributes)):
        u1, u2 = firsts[i1], seconds[i2]
        result = classify_and_check(u1, u2)
        if not result.exhaustive.verdict:
            raise InternalConsistencyError(
                f"batched kernel and per-pair scan disagree on pair ({i1}, {i2}) "
                f"with e1={e1}, e2={e2} on L_{n}")
        necessity = necessity_conditions(u1, u2) if e1 != e2 else None
        decomposition = None
        if decomposable and result.conditions.verdict:
            decomposition = _decompose_checked(u1, u2, result.case)
        hits.append(PairHit(u1, u2, result, necessity, decomposition))
    return hits
