"""Exhaustive enumeration of uninorms on small chains, and the certification
experiment comparing the structural case conditions against brute-force
distributivity over the full pair space.

The search fills the upper triangle of the table in a fixed traversal
(increasing x, then y >= x).  It starts from the neutral row and the cells
the bounds force in every uninorm (Fodor, Yager and Rybalov, 1997):
u(0, y) = 0 for y < e, the t-norm's annihilator, and u(x, n) = n for x > e,
the t-conorm's.  That leaves n(n - 1)/2 free cells for every e, and below e
column n admits only u(x, n) in [x, e) or n.  Monotonicity prunes a
candidate cell immediately via its neighbour bounds; associativity is
pruned incrementally, at each new cell (x, y), by three triple checks that
cover every triple whose four lookups it determined: (y, x, c) with the
new cell as first lookup, and (a, b, y) with ab = x and (a, b, x) with
ab = y with it as outer lookup.  The table is symmetric, so (a, b, c) and
(c, b, a) share a verdict, and (x, y, c) follows from triples checked here
or at earlier nodes (the proof is in ``_search``, whose loop over a cell's
values runs the checks).  With the new cell as first lookup, the check reads
only the columns c where t[x][c] is set.  Where the new cell is the outer
lookup t[ab][c], ab must equal one of its coordinates, so the check reads
only the cells that hold x or y: the search keeps an index from each value
to the set cells holding it, pushing a cell (and its mirror) when it sets it
and popping it when it unsets it.  Neither reads a lookup whose two sides
are equal for every value the cell can take: columns e and y, column 0 below
e and column n above it, and the index leaves out row and column e.  Each
free cell carries, prepared once, its upper bound, the values the task's
filters admit, the columns of its row x that are set once it is and whose
check can fail, and the rows it completes; a node reads only its lower
bound.  The search is a plain recursion, one level per free cell plus
a leaf level, that appends each table to one list.  Tables share their rows:
a value that passes builds the rows its cell completes, once, through a dict
local to one search (the rows no free cell touches go through it at the
root), and a leaf appends the completed rows as one tuple, so a task's tables
hold one tuple per distinct row between them and no leaf builds a row.
Orientation: x -> n - x maps the uninorms with neutral e onto those with
neutral n - e (and the conjunctive ones onto the disjunctive ones), and the
search is far cheaper from the high side: a task with e < n - e runs its
dual's search, under the same pruning proof, then reflects each table,
t'[x][y] = n - t[n-x][n-y], and sorts; each distinct row is reflected once,
so the reflected tables share rows too.
Determinism: candidates are tried in ascending order, so the search's list
is in lexicographic order of its row-major values, which a guard checks over
the whole list before any reflection and before the first table is yielded.
Its tables skip ``OpTable``'s structural re-check (``_built``): ``_search``
sets each cell with its mirror within its bounds, 0..n, and keeps row tuples,
so every completed table, and its reflection, is well formed.

``certify`` enumerates once, then classifies every pair through
``classify_and_check`` in one process, in the canonical order (e1, i1, e2, i2).
``scan_pairs`` reads its hits from the column-wise kernel
(``distributive_pairs`` on the uninorms' tables: the u2 read as one bitset
per cell and value, which gives each distinct u1 row the bitset of the u2
it is an endomorphism of; a u1's hits are the AND over its rows) and runs
the per-pair evidence path on the hits only: one classification each, the
necessity battery, and the decomposition built from that classification; a
hit the per-pair scan rejects is an internal inconsistency, never dropped.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .core import ChainScale, OpTable, Uninorm, _refuse_non_integer_neutral
from .distributivity import (
    ClassifyResult,
    Decomposition,
    TheoremCase,
    classify_and_check,
    distributive_pairs,
    necessity_conditions,
    _decompose_checked,
    _proper_unequal,
)
from .errors import InternalConsistencyError, SearchLimitError, StructureError

DEFAULT_ENUMERATION_LIMIT = 6
DEFAULT_CERTIFY_LIMIT = 5


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
        _refuse_non_integer_neutral(self.e)
        if not 0 <= self.e <= self.scale.n:
            raise StructureError(f"neutral index {self.e} outside chain 0..{self.scale.n}")


def _free_cells(n: int, e: int):
    """The cells (x, y), x <= y, that ``_neutral_table`` leaves unset: the
    search fills n(n - 1)/2 of them for every e."""
    t = _neutral_table(n, e)
    return [(x, y) for x in range(n + 1) for y in range(x, n + 1) if t[x][y] < 0]


def _neutral_table(n: int, e: int):
    """The search's root: row e, u(0, y) = 0 for y < e and u(x, n) = n for
    x > e, mirrors included; -1 elsewhere."""
    t = [[-1] * (n + 1) for _ in range(n + 1)]
    for y in range(n + 1):
        t[e][y] = t[y][e] = y
    for y in range(e):
        t[0][y] = t[y][0] = 0
    for x in range(e + 1, n + 1):
        t[x][n] = t[n][x] = n
    return t


def _cells(task: EnumerationTask, e: int):
    """``task``'s free cells with neutral ``e`` as ``(x, y, hi, admitted,
    columns, finishes)``: the static monotone bound; None or the ascending
    values the filters leave; the columns c with t[x][c] set once the cell is
    (root presets, earlier cells and mirrors), less c = e, c = y, c = 0 for
    y < e and c = n for x > e, whose checks cannot fail; and the rows it
    completes.
    Off the diagonal and with both ends in A(e), (0, n) admits the conjunctive
    bottom alone: 0, or n in the dual, as u(0, n) = 0 reflects to u(0, n) = n.
    Column n admits only [x, e) and n at (x, n), x < e: a = u(x, n) gives
    u(a, n) = u(x, u(n, n)) = a, so a >= e gives a = u(a, n) >= u(e, n) = n.
    Each filter's values there already lie in that set."""
    n = task.scale.n
    bottom = 0 if e == task.e else n
    t, cells = _neutral_table(n, e), []
    for x, y in _free_cells(n, e):
        t[x][y] = t[y][x] = x  # set: only which cells are set matters here
        skipped = {e, y, *((0,) if y < e else ()), *((n,) if x > e else ())}
        cells.append((x, y, x if y < e else y if x < e else n,
                      (bottom,) if task.conjunctive_only and (x, y) == (0, n) else
                      (x,) if task.idempotent_only and x == y else
                      (x, y) if task.locally_internal_only and x < e < y else
                      (*range(x, e), n) if y == n and x < e else None,
                      tuple(c for c, w in enumerate(t[x]) if w >= 0 and c not in skipped),
                      tuple(r for r in {x, y} if -1 not in t[r])))
    return cells


def _index(t, e):
    """``pos[w]``: the set cells (a, b) of ``t`` with t[a][b] = w, for every
    value w, mirrors included, outside row and column ``e``, the neutral
    element searched: the checks that read those cells cannot fail."""
    pos = [[] for _ in t]
    for a, row in enumerate(t):
        for b, w in enumerate(row):
            if w >= 0 and e not in (a, b):
                pos[w].append((a, b))
    return pos


def _search(t, pos, cells, i, stats, out, done, interned):
    """Append to ``out`` every table that fills ``cells[i:]`` (from ``_cells``)
    within the pruning rules.  ``pos`` is ``_index(t, e)``, e the neutral
    element searched, kept so while cells are set and unset: each entry is
    pushed and popped in stack order (no free cell lies in row or column e).
    ``done[r]`` is row r's tuple once a set cell completes it, and
    ``interned`` maps each distinct row tuple so far to itself, so the tables
    share one tuple per distinct row."""
    if i == len(cells):
        out.append(tuple(done))
        return
    x, y, hi, admitted, columns, finishes = cells[i]
    tx, ty = t[x], t[y]
    mirrored = x != y
    # the monotone lower bound: the set cells above and left of (x, y)
    lo = max(t[x - 1][y] if x else 0, tx[y - 1] if y else 0)
    values = range(lo, hi + 1) if admitted is None else [v for v in admitted if lo <= v <= hi]
    stats.nodes_expanded += len(values)
    # The triples whose four lookups became determined with cell (x, y),
    # x <= y.  Here the cells before (x, y) in the traversal are set within
    # their monotone bounds, and the cells preset at the root hold 0 in row 0
    # and n in column n, so the set cells are monotone.  The preset cells
    # hold in every uninorm with neutral e, and one exists, so the triples
    # they determine hold; every other triple determined before passed at an
    # earlier node: a triple that reads the new cell is the only kind left.
    #
    # Cells are set in pairs (-1 included), so t is symmetric and the mirror
    # (c, b, a) of a triple reads t[c][b] = t[b][c] and t[b][a] = t[a][b] with
    # the law's sides swapped: one verdict for both.  The new cell as bc or as
    # outer lookup (a, bc) is the mirror of it as ab or as outer lookup
    # (ab, c), which leaves four kinds: (x, y, c) and (y, x, c), then (a, b, y)
    # with ab = x and (a, b, x) with ab = y.  The first needs no check of its
    # own: at x = y it is the second, and for x < y:
    # - t[y][c] is set only for c <= x, c = e, and the preset cells holding
    #   n: c = n for y > e, and c > e for y = n.  At c = x both sides read
    #   t[v][x] = t[x][v], and at c = e both read v.  Otherwise let
    #   w = t[y][c].
    # - If w = y (y = n among them), (x, y, c) says t[v][c] = v, the same
    #   equation as (c, y, x): the ab = y case.
    # - If w > y (c = n among them), t[x][w] is set only at w = n with x > e,
    #   and there both sides read the absorbing n: t[x][n] = n, and
    #   v >= t[e][y] = y makes t[v][c] = n, preset for c = n and, for c < x,
    #   in the set row c at least t[c][y] = n.
    # - Otherwise c < x and w < y; let z = t[x][c], set.  z <= x: if z > x,
    #   cell (c, x) escaped the bound t[e][x] = x, so c > e, and then
    #   w >= t[y][e] = y by monotonicity.  So t[y][z] is set and (y, x, c)
    #   holds here: checked, or of a kind below.  (y, c, x) reads t[y][c],
    #   t[c][x], t[w][x] and t[y][z], all set; only t[y][z] can be the new
    #   cell, at z = x, where (y, c, x) is the mirror of (x, c, y): the ab = x
    #   case.  Otherwise it passed at an earlier node.
    # - By symmetry x(yc) = (yc)x = y(cx) = y(xc) = (yx)c = (xy)c: (y, x, c)
    #   and (y, c, x) give (x, y, c).
    # Five kinds of lookup read equal sides for every value v the cell can
    # take, so ``_cells`` leaves them out of ``columns`` and ``_index`` out
    # of ``pos``:
    # - c = e: t[v][e] = v, and t[y][t[x][e]] = t[y][x] = v.
    # - c = y: t[v][y], and t[y][t[x][y]] = t[y][v], the same cell's mirror.
    # - c = 0 for y < e: v <= x < e, so t[v][0] = 0 = t[y][t[x][0]], preset.
    # - c = n for x > e: v >= t[e][y] = y > e (monotone), so t[v][n] = n =
    #   t[y][t[x][n]], preset.
    # - a cell of row or column e in ``pos``: (e, b, c) with t[e][b] = b reads
    #   t[b][c] on both sides, and (a, e, c) with t[a][e] = a reads t[a][c].
    # A triple (a, b, c) passes when a lookup is unset (-1) or t[ab][c]
    # equals t[a][bc].
    for v in values:
        tx[y] = ty[x] = v
        tv = t[v]
        # the new cell as ab: triple (y, x, c), left side t[v][c]; with
        # t[x][c] unset it passes, so only the set ``columns`` are read
        for c in columns:
            left = tv[c]
            if left >= 0:
                bc = tx[c]
                if bc >= 0 and 0 <= ty[bc] != left:
                    break
        else:
            at = pos[v]
            at.append((x, y))
            if mirrored:
                at.append((y, x))
            # the new cell as the outer lookup t[ab][c]: triples (a, b, y) with
            # ab = x and (a, b, x) with ab = y, both with left side v.  ``pos``
            # indexes the set cells by value, so only the cells holding x or y
            # are read.
            for a, b in pos[x]:
                bc = ty[b]  # t[b][y], by symmetry
                if bc >= 0 and 0 <= t[a][bc] != v:
                    break
            else:
                for a, b in (pos[y] if mirrored else ()):
                    bc = tx[b]
                    if bc >= 0 and 0 <= t[a][bc] != v:
                        break
                else:
                    for r in finishes:
                        row = tuple(t[r])
                        done[r] = interned.setdefault(row, row)
                    _search(t, pos, cells, i + 1, stats, out, done, interned)
            at.pop()
            if mirrored:
                at.pop()
    tx[y] = ty[x] = -1


def _refuse_above(what: str, n: int, max_n: int) -> None:
    """Scales above ``max_n`` need a deliberate override: the search space
    grows too fast.  Whatever ``max_n``, ``_search`` must fit on the stack
    above the caller: it recurses once per free cell, n(n-1)/2 of them for
    every e (``_free_cells``), so it runs cells + 1 levels deep.  The guard
    tries that depth rather than counting frames, since what a stack has left
    under the limit depends on the C calls between its frames as well."""
    if n > max_n:
        raise SearchLimitError(f"{what} on L_{n} refused: limit is n <= {max_n}; "
                               f"pass max_n={n} (--max-n {n}) to override")
    cells, limit = n * (n - 1) // 2, sys.getrecursionlimit()
    levels = cells + 1
    if levels >= limit or not _stack_takes(levels):
        raise SearchLimitError(f"{what} on L_{n} refused: its search recurses once per "
                               f"free cell, {cells} of them, past the recursion limit {limit}")


def _stack_takes(levels: int) -> bool:
    """Whether ``levels`` more nested calls fit under the recursion limit."""
    try:
        return levels <= 1 or _stack_takes(levels - 1)
    except RecursionError:
        return False


def enumerate_uninorms(task: EnumerationTask, *,
                       max_n: int = DEFAULT_ENUMERATION_LIMIT,
                       stats: SearchStats | None = None):
    """Yield every uninorm on the task's chain with the task's neutral element.

    Each table appears exactly once, in lexicographic order of its rows.
    Where e < n - e, the task is searched with neutral n - e and its tables
    reflected back by x -> n - x.  A table of the search's list not strictly
    greater than the one before it is a search bug and raises
    :class:`InternalConsistencyError` before the first table is yielded.
    Scales above ``max_n`` are refused.
    """
    n, e = task.scale.n, task.e
    _refuse_above("enumeration", n, max_n)
    stats = stats or SearchStats()
    if task.conjunctive_only and e == 0:
        return  # row 0 is the identity, so u(0, n) = n: nothing qualifies
    searched = n - e if e < n - e else e
    t, tables, interned = _neutral_table(n, searched), [], {}
    # the rows no free cell touches are complete at the root
    done = [interned.setdefault(row, row) if -1 not in row else None for row in map(tuple, t)]
    _search(t, _index(t, searched), _cells(task, searched), 0, stats, tables, done, interned)
    for previous, rows in zip(tables, tables[1:]):
        if rows <= previous:
            raise InternalConsistencyError(
                f"enumeration on L_{n} with e={searched} left lexicographic order at {rows}")
    if searched != e:
        # each distinct row, reflected once, so the reflected tables share rows too
        mirror = {row: tuple(n - v for v in reversed(row)) for row in interned}
        tables = sorted(tuple(map(mirror.__getitem__, rows[::-1])) for rows in tables)
    for rows in tables:
        stats.emitted += 1
        yield Uninorm(OpTable._built(task.scale, rows), e)


@dataclass(frozen=True)
class PairDivergence:
    """A pair where the case conditions and the exhaustive scan disagree."""

    e1: int
    index1: int
    e2: int
    index2: int
    case: str
    exhaustive_verdict: bool
    u1_rows: tuple
    u2_rows: tuple

    @property
    def conditions_verdict(self) -> bool:
        """The routes disagree, so the conditions say the opposite."""
        return not self.exhaustive_verdict


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of comparing both distributivity routes over a full pair space.

    Asserts that the tallied cases cover every pair, and what duality
    implies: palindromic uninorm counts, and equal greater- and less-case
    counts for all pairs and for distributive pairs.
    """

    scale_n: int
    uninorm_counts: tuple          # ((e, count), ...) for e = 0..n
    pair_case_counts: tuple        # ((case value, pairs), ...)
    distributive_case_counts: tuple
    divergences: tuple
    nodes_expanded: int
    wall_time_s: float

    def __post_init__(self):
        tallied = sum(c for _, c in self.pair_case_counts)
        if tallied != self.pairs_checked:
            raise InternalConsistencyError(
                f"pair case counts add up to {tallied}, not {self.pairs_checked}")
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

    @property
    def pairs_checked(self) -> int:
        return sum(c for _, c in self.uninorm_counts) ** 2

    @property
    def agreements(self) -> int:
        return self.pairs_checked - len(self.divergences)


def _check_pairs(uninorms):
    """Classify every ordered pair over ``uninorms``, a list of
    ``(e, index, uninorm)``, in the canonical order.  Returns the pairs per
    ``(case, distributive)`` and the divergences."""
    tally = Counter()
    divergences = []
    for (e1, i1, u1), (e2, i2, u2) in product(uninorms, repeat=2):
        result = classify_and_check(u1, u2)
        case = result.case.value
        distributive = result.exhaustive.verdict
        tally[case, distributive] += 1
        if not result.agreement:
            divergences.append(PairDivergence(e1, i1, e2, i2, case, distributive,
                                              u1.rows, u2.rows))
    return tally, divergences


def certify(scale: ChainScale, *,
            max_n: int = DEFAULT_CERTIFY_LIMIT) -> CertificationReport:
    """Enumerate every uninorm for every neutral element and classify every
    ordered pair, comparing the case conditions against the exhaustive scan.

    Deterministic for a given scale: counts, ordering and divergence lists
    are the same on every run (only the wall time differs).
    """
    n = scale.n
    _refuse_above("certification", n, max_n)
    started = time.perf_counter()
    stats = SearchStats()
    by_e = [list(enumerate_uninorms(EnumerationTask(scale, e), max_n=max_n, stats=stats))
            for e in range(n + 1)]
    uninorms = [(e, i, u) for e, us in enumerate(by_e) for i, u in enumerate(us)]
    tally, divergences = _check_pairs(uninorms)

    case_order = [c.value for c in TheoremCase]
    return CertificationReport(
        scale_n=n,
        uninorm_counts=tuple((e, len(us)) for e, us in enumerate(by_e)),
        pair_case_counts=tuple((c, tally[c, True] + tally[c, False]) for c in case_order),
        distributive_case_counts=tuple((c, tally[c, True]) for c in case_order),
        divergences=tuple(divergences),
        nodes_expanded=stats.nodes_expanded,
        wall_time_s=time.perf_counter() - started,
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
               max_n: int = DEFAULT_ENUMERATION_LIMIT) -> list:
    """All distributive pairs (u1 with neutral e1, u2 with neutral e2).

    The hits are the index pairs ``distributive_pairs`` returns for the two
    enumerations' tables, u1 outer and u2 inner.  Only the hits take the
    per-pair evidence path: each carries the classification of both routes;
    for e1 != e2 also the necessity battery, and for proper unequal neutrals
    the block decomposition, built from that one classification.  A hit the
    per-pair exhaustive scan rejects raises :class:`InternalConsistencyError`.
    """
    n = scale.n
    _refuse_above("pair scan", n, max_n)
    firsts = list(enumerate_uninorms(EnumerationTask(scale, e1), max_n=max_n))
    seconds = firsts if e1 == e2 else list(
        enumerate_uninorms(EnumerationTask(scale, e2), max_n=max_n))
    hits = []
    decomposable = _proper_unequal(n, e1, e2)
    for i1, i2 in distributive_pairs([u.table for u in firsts], [u.table for u in seconds]):
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
