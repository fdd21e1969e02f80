"""Distributivity checking and the structural conditions for distributive pairs.

``check_distributivity`` is the exhaustive ground truth: it scans the triples
of the law  u1(x, u2(y,z)) = u2(u1(x,y), u1(x,z))  in a plain loop, up to the
first failure unless every witness is asked for.
``distributive_pairs`` is the same law for every pair of two stacks of
``OpTable``, returning those that hold: u1 distributes over u2 exactly when
each row y -> u1(x, y) is an endomorphism of u2.  It reads the second stack
by columns: the bitset of the u2 that hold w at (y, z), built once per stack,
gives each distinct row the bitset of the u2 it is an endomorphism of in
about (n+1)^3/2 big-int operations, however many u2 there are, and a u1's
hits are the AND over its rows.  It checks no structure: that is ``OpTable``'s.
The pair scan reads its hits from it before any report.
``classify_and_check`` picks the case from the neutral elements (e1 = e2,
e1 > e2, e1 < e2), runs its structural conditions through ``_CONDITIONS``,
where the unequal cases share one body, and the exhaustive scan; any
disagreement is a theorem divergence, a reportable finding, never dropped.
Each clause that reads only one table is a share, kept on the uninorm once
per table and partner neutral by ``_kept_on_table``: in the unequal cases
u2's hypotheses, clause-i side condition, boundary and clause ii half, and
u1's clause ii half and clause-iii closure; in the equal case u2's
idempotency.  Decompositions read u1's inner uninorm and u2's boundary from
them, so each restriction is built once per table and partner.
Each single-law clause is one ``core._clause`` call over its failing points.
The pair path's two hot scans stay loops: the distributivity triples, and
agreement with choice of an argument, which keeps each law's first violation.

Index-range conventions used by the case conditions (all bounds inclusive
unless marked strict):

    equal (e1 = e2 = e):  off-diagonal region = {x < e < y} and mirror

    unequal: one geometry, drawn for e1 > e2.  The case e1 < e2 is its
    reflection x -> n - x, which swaps min and max, t-norm and t-conorm,
    upper and lower; every range is still scanned upwards.

                                     e1 > e2      e1 < e2 (reflected)
        block [lo, hi] of u1 (e1)    [e2,n]       [0,e2]
        side of u2's square          [0,e2]       [e2,n]
        strip (outside the block)    [0,e2)       (e2,n]
        near                         [e2,e1]      [e1,e2]
        far                          [e1,n]       [0,e1]

    Each clause's region, in the case conditions and in the necessity battery:
        side x side    hypothesis: u2 = min / max   i: the same
        A(e2) of u2    hypothesis: u2 internal      local internality: the same
        strip x block  clause i: u1 = u2 = x or y
        strip x far    side cond.: u2(x, y) = y     iv: clause i's law and the
                       only if u2(y, y) = y         side cond., point by point
        strip x near   clause ii: u1 = u2 = x       iii: u2 = x
        side x near                                 ii: u1 = x (= min / max)
        block x block  clause iii: u1 closed, so that u1 on the block is a
                       uninorm with neutral e1 - lo, distributing over u2's
                       block (T2 or S2 shifted by -lo)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache, reduce, wraps
from itertools import chain, product
from operator import and_
from typing import Callable

from .core import (
    CheckReport,
    ChainScale,
    OpTable,
    Uninorm,
    Violation,
    underlying_tconorm,
    underlying_tnorm,
    validate_uninorm,
    _clause,
    _idempotency_failures,
    _internality_failures,
    _restriction,
)
from .errors import (
    CompositionInvalid,
    NotDistributiveError,
    ScaleMismatchError,
    WrongCaseError,
)


class TheoremCase(Enum):
    """Which of the three neutral-element orderings a pair falls under."""

    EQUAL_NEUTRAL = "equal-neutral"
    GREATER_NEUTRAL = "greater-neutral"
    LESS_NEUTRAL = "less-neutral"


class Pick(Enum):
    """Which argument a locally internal operation returns at a point."""

    FIRST = "first"
    SECOND = "second"


def _same_scale(u1: Uninorm, u2: Uninorm) -> None:
    if u1.n != u2.n:
        raise ScaleMismatchError(f"operands live on L_{u1.n} and L_{u2.n}")


def case_of(u1: Uninorm, u2: Uninorm) -> TheoremCase:
    _same_scale(u1, u2)
    if u1.e == u2.e:
        return TheoremCase.EQUAL_NEUTRAL
    return TheoremCase.GREATER_NEUTRAL if u1.e > u2.e else TheoremCase.LESS_NEUTRAL


def _kept_on_table(share):
    """``share(u, *args)``, kept in ``u.__dict__`` under the share's name while
    ``args`` repeat.

    A slot holds only the latest arguments (the partner's neutral, ``verbose``).
    ``certify`` visits pairs u1-outer and e-major, so it is almost always hit;
    ``scan`` classifies each hit and then decomposes it from the same shares.
    The slot is not a field, so equality, hash and repr ignore it, and nothing
    outlasts the tables of one run.
    """
    name = share.__name__

    @wraps(share)
    def kept(u: Uninorm, *args):
        slot = u.__dict__.get(name)
        if slot is None or slot[0] != args:
            slot = u.__dict__[name] = (args, share(u, *args))
        return slot[1]

    return kept


def check_distributivity(u1: Uninorm, u2: Uninorm, *, verbose: bool = False) -> CheckReport:
    """Exhaustively test that u1 distributes over u2.

    Witnesses are triples (x, y, z) with y <= z carrying both side values,
    emitted in lexicographic order.  Without ``verbose`` the scan stops at
    the first, the only one the report keeps.
    """
    _same_scale(u1, u2)
    return CheckReport.from_violations(
        _distributivity_violations(u1.rows, u2.rows, verbose, "distributivity"))


def _distributivity_violations(a, b, verbose: bool, law: str, detail: str = "") -> list:
    """The failing triples of "rows ``a`` distribute over rows ``b``", as
    ``law`` violations in scan order; only the first unless ``verbose``."""
    pts = range(len(a))
    found = []
    for x in pts:
        ax = a[x]
        for y in pts:
            by, b_axy = b[y], b[ax[y]]
            for z in pts[y:]:
                lhs, rhs = ax[by[z]], b_axy[ax[z]]
                if lhs != rhs:
                    found.append(Violation(law, (x, y, z), lhs=lhs, rhs=rhs, detail=detail))
                    if not verbose:
                        return found
    return found


def distributive_pairs(firsts, seconds):
    """The lexicographic list of (i1, i2) with firsts[i1] distributing over seconds[i2].

    ``firsts`` and ``seconds`` are stacks of :class:`OpTable`, the tables
    that ``Uninorm.table`` holds; tables on more than one chain raise
    :class:`ScaleMismatchError`, and an empty stack has no pairs.  Fixing x
    in the law makes it say that row x of u1, y -> u1(x, y), is an
    endomorphism of u2, so u1 distributes over u2 exactly when each of its
    rows does.  The test is column-wise: ``_endomorphisms`` gives each
    distinct row of the firsts the bitset of the second tables it is an
    endomorphism of, whatever their number, and a first table's hits are the
    AND of its rows' bitsets.  Reading the cells y <= z only and keying rows
    by their tuples is exact because an ``OpTable`` is square, symmetric and
    holds tuples of ints on its chain; nothing of that is checked again here.
    No uninorm axiom is assumed.
    """
    chains = sorted({t.scale.n for t in chain(firsts, seconds)})
    if len(chains) > 1:
        raise ScaleMismatchError("the stacks hold tables on more than one chain: "
                                 + ", ".join(f"L_{n}" for n in chains))
    if not firsts or not seconds:
        return []
    ids = {}
    uses = [{ids.setdefault(row, len(ids)) for row in t.values} for t in firsts]
    kept = _endomorphisms(list(ids), [t.values for t in seconds])
    pairs = []
    for i1, used in enumerate(uses):
        hits = reduce(and_, map(kept.__getitem__, used))
        while hits:  # the set bits, lowest first
            low = hits & -hits
            pairs.append((i1, low.bit_length() - 1))
            hits ^= low
    return pairs


def _endomorphisms(rows, seconds):
    """Per row r, the bitset of the symmetric ``seconds`` that r is an endomorphism of.

    Bit j stands for ``seconds[j]``.  ``column[y][z][w]`` is the bitset of the
    tables that hold w at (y, z), built once; a table is kept by row r at the
    cell (y, z) when it holds, for the w it has there, r[w] at (r[y], r[z]).
    So r costs one AND per cell and value held, (n+1)^3/2 at most, however
    many tables there are, and stops once no table is left.  The rows and
    tables are raw row tuples, taken as :class:`OpTable` holds them: ints on
    one chain, and each table square and symmetric.
    """
    m = len(seconds[0])
    column = [[None] * m for _ in range(m)]
    for (y, z), held in zip(product(range(m), repeat=2), zip(*map(chain.from_iterable, seconds))):
        if y <= z:
            # one character per table, seconds[0] last, so that it is bit 0 of the number read
            text, zeros = "".join(map(chr, reversed(held))), dict.fromkeys(held, "0")
            column[y][z] = column[z][y] = {w: int(text.translate({**zeros, w: "1"}), 2)
                                           for w in zeros}
    cells = [(y, z, tuple(column[y][z].items())) for y in range(m) for z in range(y, m)]
    everything, kept = (1 << len(seconds)) - 1, []
    for r in rows:
        left = everything
        for y, z, held in cells:
            image, kept_here = column[r[y]][r[z]], 0
            for w, bits in held:
                kept_here |= bits & image.get(r[w], 0)
            left &= kept_here
            if not left:
                break
        kept.append(left)
    return kept


def _agree_and_choose(u1, u2, xs, ys, verbose, agreement, choice, side_condition=""):
    """u1 = u2 = x or y on xs x ys; with a ``side_condition``, u2 = y only if u2(y, y) = y.
    The violations in scan order, only each law's first unless ``verbose``; a
    violation is built only where it is kept."""
    rows1, rows2 = u1.rows, u2.rows
    found, wanted = [], {agreement, choice, side_condition}

    def keep(violation):
        found.append(violation)
        if not verbose:
            wanted.discard(violation.law)

    for x in xs:
        row1, row2 = rows1[x], rows2[x]
        for y in ys:
            a, b = row1[y], row2[y]
            if a != b:
                if agreement in wanted:
                    keep(Violation(agreement, (x, y), lhs=a, rhs=b))
            elif a != x and a != y and choice in wanted:
                keep(Violation(choice, (x, y), lhs=a))
            if side_condition and b == y and rows2[y][y] != y and side_condition in wanted:
                keep(Violation(side_condition, (x, y), lhs=rows2[y][y], rhs=y, subject="u2"))
    return tuple(found)


def _equal_conditions(u1: Uninorm, u2: Uninorm, verbose: bool) -> CheckReport:
    """Structural conditions for distributivity when e1 = e2.

    u2 must be idempotent, and on the off-diagonal region both operations
    must agree and return one of their arguments.
    """
    return CheckReport.from_violations(_idempotency_share(u2, verbose) + _agree_and_choose(
        u1, u2, range(u1.e), range(u1.e + 1, u1.n + 1), verbose, "agreement", "local-internality"))


@_kept_on_table
def _idempotency_share(u2: Uninorm, verbose: bool) -> tuple:
    """The equal case's clause that reads only u2: its idempotency violations."""
    return _clause("idempotency", _idempotency_failures(u2), "u2", verbose)


@dataclass(frozen=True)
class _Geometry:
    """Where the clauses of one unequal-neutral case look on L_n.

    Written for e1 > e2; for e1 < e2 every region is its reflection under
    x -> n - x, with min and max (t-norm and t-conorm) swapped.  Ranges stay
    ascending either way, which is the order witnesses are reported in.
    """

    case: TheoremCase
    block: range            # u1's block [lo, hi] holds e1; clause iii restricts u1 to it
    side: range             # u2's min/max square is side x side
    strip: range            # the points outside the block
    near: range             # y from e2 to e1
    far: range              # y from e1 outwards
    op: Callable            # min or max
    unit: str               # law suffix of the square: "tnorm-min" or "tconorm-max"
    boundary: Callable      # u2 restricted to the block
    boundary_kind: str
    leak: str               # details and messages that name the side
    subchain: str
    forced: str

    @cached_property
    def square(self) -> tuple:
        """(x, y, op(x, y)) over u2's square, x <= y."""
        return tuple((x, y, self.op(x, y)) for x in self.side for y in range(x, self.side.stop))

    @cached_property
    def domain(self) -> tuple:
        """The off-diagonal strip a decomposition's selection covers."""
        return tuple((x, y) for x in self.strip for y in self.block)

    def inner(self, u1: Uninorm) -> Uninorm:  # u1 on the block, shifted by -lo
        return _restriction(u1, self.block[0], self.block[-1], u1.e - self.block[0])


def _proper_unequal(n: int, e1: int, e2: int) -> bool:
    """Whether neutrals e1 and e2 on L_n admit a block decomposition: they
    differ and both lie strictly inside the chain."""
    return e1 != e2 and 0 < min(e1, e2) and max(e1, e2) < n


@lru_cache(maxsize=None)
def _geometry(n: int, e1: int, e2: int) -> _Geometry:
    # the boundary lambdas look underlying_tconorm/underlying_tnorm up at call
    # time, so a wrapper installed on this module sees every call
    if e1 > e2:
        return _Geometry(
            TheoremCase.GREATER_NEUTRAL, block=range(e2, n + 1), side=range(e2 + 1), strip=range(e2),
            near=range(e2, e1 + 1), far=range(e1, n + 1), op=min, unit="tnorm-min",
            boundary=lambda u: underlying_tconorm(u), boundary_kind="t-conorm",
            leak="upper block leaks below e2, no inner uninorm exists",
            subchain="indices shifted by -e2 onto the upper subchain",
            forced="strip up to e1 is forced to min",
        )
    return _Geometry(
        TheoremCase.LESS_NEUTRAL, block=range(e2 + 1), side=range(e2, n + 1), strip=range(e2 + 1, n + 1),
        near=range(e1, e2 + 1), far=range(e1 + 1), op=max, unit="tconorm-max",
        boundary=lambda u: underlying_tnorm(u), boundary_kind="t-norm",
        leak="lower block leaks above e2, no inner uninorm exists",
        subchain="restricted to the lower subchain",
        forced="strip down to e1 is forced to max",
    )


# The failing (witness, lhs, rhs) of the laws that both the case conditions
# and the necessity battery read, in scan order
def _off_square(u2: Uninorm, g: _Geometry):
    """u2 = op on its square, x <= y."""
    rows = u2.rows
    return (((x, y), rows[x][y], v) for x, y, v in g.square if rows[x][y] != v)


def _not_first(u: Uninorm, xs: range, ys: range):
    """u(x, y) = x on xs x ys."""
    rows = u.rows
    return (((x, y), rows[x][y], x) for x in xs for y in ys if rows[x][y] != x)


@_kept_on_table
def _u2_share(u2: Uninorm, e1: int, verbose: bool):
    """The clauses that read only u2, partnered with neutral ``e1``: hypotheses,
    clause-i side condition, clause ii's u2 half, and the boundary on the block."""
    g, rows = _geometry(u2.n, e1, u2.e), u2.rows
    hypotheses = (_clause(f"hypothesis-{g.unit}", _off_square(u2, g), "u2", verbose)
                  + _clause("hypothesis-local-internality", _internality_failures(u2), "u2", verbose))
    side_condition = _clause(
        "clause-i-side-condition", (((x, y), rows[y][y], y) for x in g.strip for y in g.far
                                    if rows[x][y] == y and rows[y][y] != y),
        "u2", verbose, "second argument picked at a non-idempotent point")
    clause_ii = _clause(f"clause-ii-{g.op.__name__}", _not_first(u2, g.strip, g.near), "u2", verbose)
    return hypotheses, side_condition, clause_ii, g.boundary(u2)


@_kept_on_table
def _u1_share(u1: Uninorm, e2: int, verbose: bool):
    """The clauses that read only u1: clause ii's u1 half; clause iii's
    closure violations, and the inner uninorm when there are none (else None).

    The inner uninorm needs no validation of its own.  Let B be the block,
    which holds e1, and let u1(B x B) lie in B.  Then u1 on B shifted by -lo
    takes values in 0..m by closure; it is commutative and monotone because
    it is a restriction; its neutral is e1 - lo because u1(e1, x) = x; and it
    is associative because every intermediate u1(x, y) stays in B.
    """
    g, rows = _geometry(u1.n, u1.e, e2), u1.rows
    clause_ii = _clause(f"clause-ii-{g.op.__name__}", _not_first(u1, g.strip, g.near), "u1", verbose)
    leaks = _clause("clause-iii-closure", (((x, y), rows[x][y], e2) for x in g.block
                                           for y in range(x, g.block.stop) if rows[x][y] not in g.block),
                    "u1", verbose, g.leak)
    return clause_ii, leaks, None if leaks else g.inner(u1)


def _unequal_conditions(u1: Uninorm, u2: Uninorm, verbose: bool) -> CheckReport:
    """Structural conditions when e1 != e2: drawn for e1 > e2, reflected for
    e1 < e2 (see ``_Geometry``).  u2's hypothesis class (underlying t-norm =
    min, locally internal) is checked, not assumed, so the conditions are
    total on the case: pairs outside it fail with ``hypothesis-*``
    violations.  Boundary neutrals degenerate gracefully: empty strips are
    vacuous, and for e2 = 0 (e2 = n reflected) the block is the whole table.
    """
    g = _geometry(u1.n, u1.e, u2.e)
    hypotheses, side_condition, u2_clause_ii, boundary = _u2_share(u2, u1.e, verbose)
    u1_clause_ii, leaks, inner = _u1_share(u1, u2.e, verbose)
    # each clause keeps its own witnesses: no two clauses share a law, so
    # the lists are concatenated in clause order
    clause_i = _agree_and_choose(u1, u2, g.strip, g.block, verbose,
                                 "clause-i-agreement", "clause-i-choice")
    # clause ii's halves in scan order; the sort is stable, so at a point
    # where both fail, u1 comes before u2
    clause_ii = sorted(u1_clause_ii + u2_clause_ii, key=lambda v: v.witness)
    clause_iii = () if inner is None else _distributivity_violations(
        inner.rows, boundary.rows, verbose, "clause-iii-distributivity", g.subchain)
    return CheckReport.from_violations(
        (*hypotheses, *clause_i, *side_condition, *clause_ii, *leaks, *clause_iii))


def necessity_conditions(u1: Uninorm, u2: Uninorm, *, verbose: bool = False) -> CheckReport:
    """Necessary consequences of distributivity when e1 != e2.

    Narrower than the full case conditions: only the strip equalities, the
    agreement block (y from e1 outwards rather than the whole block), the
    side-condition and the local internality of u2.  Every
    brute-force-distributive pair must satisfy all of them.
    """
    _same_scale(u1, u2)
    if u1.e == u2.e:
        raise WrongCaseError("necessity batteries apply to pairs with e1 != e2")
    g = _geometry(u1.n, u1.e, u2.e)
    op = g.op.__name__
    # on side x near, x <= e2 <= y (mirrored in the less case), so op(x, y) = x
    return CheckReport.from_violations((
        *_clause(f"necessity-i-{g.unit}", _off_square(u2, g), "u2", verbose),
        *_clause(f"necessity-ii-u1-{op}", _not_first(u1, g.side, g.near), "u1", verbose),
        *_clause(f"necessity-iii-u2-{op}", _not_first(u2, g.strip, g.near), "u2", verbose),
        *_agree_and_choose(u1, u2, g.strip, g.far, verbose, "necessity-iv-agreement",
                           "necessity-iv-choice", "necessity-iv-side-condition"),
        *_clause("necessity-local-internality", _internality_failures(u2), "u2", verbose)))


# read only by classify_and_check: a wrapper installed per entry sees each case apart
_CONDITIONS = {
    TheoremCase.EQUAL_NEUTRAL: _equal_conditions,
    TheoremCase.GREATER_NEUTRAL: _unequal_conditions,
    TheoremCase.LESS_NEUTRAL: _unequal_conditions,
}


@dataclass(frozen=True)
class ClassifyResult:
    """Both verdicts for one pair: structural conditions vs. exhaustive scan.

    Disagreement between the two routes is the single most important output
    this toolkit can produce; it is exposed as an explicit divergence
    record instead of being collapsed into one verdict.
    """

    case: TheoremCase
    conditions: CheckReport
    exhaustive: CheckReport

    @property
    def agreement(self) -> bool:
        return self.conditions.verdict == self.exhaustive.verdict

    @property
    def verdict(self) -> bool:
        """The ground-truth (exhaustive) distributivity verdict."""
        return self.exhaustive.verdict

    def divergence(self) -> Violation | None:
        if self.agreement:
            return None
        return Violation(
            "theorem-divergence", (),
            detail=(f"case {self.case.value}: conditions say {self.conditions.verdict}, "
                    f"exhaustive scan says {self.exhaustive.verdict}"),
        )


def classify_and_check(u1: Uninorm, u2: Uninorm, *, verbose: bool = False) -> ClassifyResult:
    """Pick the case from (e1, e2), run its conditions and the exhaustive scan.

    u1 and u2 must be uninorms (tables from outside the program go through
    :meth:`Uninorm.checked`): clause iii takes a closed block of u1 as a
    uninorm without validating it.
    """
    case = case_of(u1, u2)
    return ClassifyResult(case, _CONDITIONS[case](u1, u2, verbose),
                          check_distributivity(u1, u2, verbose=verbose))


def _failing(result: ClassifyResult) -> CheckReport:
    """Both routes' violations, the theorem divergence first when they disagree."""
    lead = () if result.agreement else (result.divergence(),)
    return CheckReport.from_violations(lead + result.conditions.violations + result.exhaustive.violations)


@dataclass(frozen=True)
class Decomposition:
    """Block components of a distributive pair with unequal proper neutrals.

    For the greater case: ``inner`` is the upper block of u1 shifted onto
    L_{n-e2} (neutral e1-e2) and ``boundary_op`` the underlying t-conorm of
    u2.  For the less case: ``inner`` is the lower block of u1 on L_{e2}
    (neutral e1) and ``boundary_op`` the underlying t-norm of u2.
    ``selection`` lists (x, y, pick) over the off-diagonal strip in the
    ambient coordinates, recording which argument both operations return.
    """

    case: TheoremCase
    inner: Uninorm
    boundary_op: Uninorm
    selection: tuple

    def __post_init__(self):
        if self.case is TheoremCase.EQUAL_NEUTRAL:
            raise WrongCaseError("equal neutral elements admit no block decomposition")
        object.__setattr__(
            self, "selection",
            tuple(sorted(tuple(self.selection), key=lambda item: (item[0], item[1]))),
        )

    def selection_map(self) -> dict:
        return {(x, y): pick for x, y, pick in self.selection}


def decompose(u1: Uninorm, u2: Uninorm) -> Decomposition:
    """Split a distributive pair with unequal proper neutrals into its blocks.

    Refuses non-distributive pairs with the failing clauses, and pairs where
    the structural conditions disagree with the exhaustive scan with the
    theorem divergence first; pairs with equal or boundary neutral elements
    have no block structure and raise :class:`WrongCaseError`.
    """
    result = classify_and_check(u1, u2)
    if not (result.conditions.verdict and result.exhaustive.verdict):
        raise NotDistributiveError(_failing(result), "pair is not distributive" if result.agreement
                                   else "the two routes disagree: theorem divergence")
    if result.case is TheoremCase.EQUAL_NEUTRAL:
        raise WrongCaseError("equal neutral elements admit no block decomposition")
    if not _proper_unequal(u1.n, u1.e, u2.e):
        raise WrongCaseError(f"decomposition needs proper neutral elements, got e1={u1.e}, "
                             f"e2={u2.e} on L_{u1.n}")
    return _decompose_checked(u1, u2, result.case)


def _decompose_checked(u1: Uninorm, u2: Uninorm, case: TheoremCase) -> Decomposition:
    """The blocks of a pair its caller has classified as distributive under
    ``case``, with proper unequal neutrals; nothing is re-checked, and the
    inner uninorm and the boundary are that classification's shares."""
    g = _geometry(u1.n, u1.e, u2.e)
    boundary, inner = _u2_share(u2, u1.e, False)[-1], _u1_share(u1, u2.e, False)[-1]
    rows = u1.rows
    selection = tuple((x, y, Pick.FIRST if rows[x][y] == x else Pick.SECOND) for x, y in g.domain)
    return Decomposition(case, inner, boundary, selection)


def _reject(law: str, witness: tuple, message: str, **kw) -> CompositionInvalid:
    violation = Violation(law, witness, **kw)
    return CompositionInvalid(CheckReport.from_violations([violation]), f"{message}: {violation.describe()}")


_SHAPES = {
    TheoremCase.GREATER_NEUTRAL: "greater case needs 0 < e2 < e1 < n",
    TheoremCase.LESS_NEUTRAL: "less case needs 0 < e1 < e2 < n",
}


def compose(d: Decomposition, scale: ChainScale, e1: int, e2: int):
    """Assemble the candidate pair (u1, u2) from decomposition blocks.

    The block diagram fixes everything except the free corner of u1, which
    is filled canonically (min below e2 in the greater case, max above e2
    in the less case).  The cells outside the block are the same in both
    candidates, so they are computed once and shared by both tables; each
    block is filled from its operation's rows.  Both candidates are well
    formed by construction and skip ``OpTable``'s check, but must still pass
    full axiom validation, the case conditions and the exhaustive
    distributivity scan; an arbitrary selection map can break associativity,
    and a selection that picks the second argument at a point where the
    boundary operation is not idempotent is rejected before assembly.
    """
    n = scale.n
    g = _geometry(n, e1, e2) if _proper_unequal(n, e1, e2) else None
    if g is None or g.case is not d.case:
        raise _reject("shape", (e1, e2), _SHAPES[d.case])
    lo, m = g.block[0], len(g.block) - 1
    if d.inner.n != m or d.inner.e != e1 - lo:
        raise _reject("shape", (d.inner.n, d.inner.e),
                      f"inner must live on L_{m} with neutral {e1 - lo}")
    if d.boundary_op.n != m or d.boundary_op.e != e2 - lo:
        raise _reject("shape", (d.boundary_op.n, d.boundary_op.e),
                      f"boundary must be a {g.boundary_kind} on L_{m}")

    sel = d.selection_map()
    if tuple(sorted(sel)) != g.domain or len(sel) != len(d.selection):
        raise _reject("selection-domain", (len(sel),),
                      "selection must cover the off-diagonal strip exactly once")
    seconds = set()
    for (x, y), pick in sel.items():
        if pick is Pick.FIRST:
            continue
        if y in g.near:
            raise _reject("clause-ii-selection", (x, y),
                          f"{g.forced}, cannot pick the second argument")
        picked = lo + d.boundary_op.rows[y - lo][y - lo]  # y is in the far range
        if picked != y:
            raise _reject("side-condition", (x, y), "second argument picked at a "
                          "point where the boundary operation is not idempotent",
                          lhs=picked, rhs=y)
        seconds.add((x, y))

    # the strip's rows: the selection beyond the near range, min/max on the
    # rest (a first pick equals min/max there); by symmetry, column x of
    # them starts or ends row x of the block
    strip = tuple(tuple(y if (x, y) in seconds else g.op(x, y) for y in scale.points)
                  for x in g.strip)
    columns = tuple(zip(*strip))

    # n+1 rows of n+1 ints: a block entry is lo plus a value of an OpTable on L_m, so
    # in lo..n; a strip entry is y or min/max, so in 0..n; and the strip's columns are
    # the ends of the block rows, so the table is symmetric: no check is needed
    def assembled(block_op: Uninorm) -> OpTable:
        block = [tuple(map(lo.__add__, row)) for row in block_op.rows]
        if lo:  # greater case: the strip lies below the block
            return OpTable._built(scale, strip + tuple(map(tuple.__add__, columns[lo:], block)))
        return OpTable._built(scale, tuple(map(tuple.__add__, block, columns)) + strip)

    table1, table2 = assembled(d.inner), assembled(d.boundary_op)
    for subject, table, e in (("u1", table1, e1), ("u2", table2, e2)):
        rep = validate_uninorm(table, e)
        if not rep.verdict:
            tagged = tuple(replace(v, subject=subject) for v in rep.violations)
            raise CompositionInvalid(CheckReport.from_violations(tagged),
                                     f"assembled {subject} fails the uninorm axioms")
    cand1, cand2 = Uninorm(table1, e1), Uninorm(table2, e2)
    result = classify_and_check(cand1, cand2)
    if not result.agreement:
        passes, fails = ("passes", "fails") if result.conditions.verdict else ("fails", "passes")
        raise CompositionInvalid(_failing(result), f"assembled pair {passes} the case conditions "
                                 f"but {fails} the exhaustive scan: theorem divergence")
    if not result.verdict:
        raise CompositionInvalid(result.conditions, "assembled pair fails the case conditions")
    return cand1, cand2
