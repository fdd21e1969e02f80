"""Distributivity checking and the structural conditions for distributive pairs.

``check_distributivity`` is the exhaustive ground truth: it scans every
triple of the law  u1(x, u2(y,z)) = u2(u1(x,y), u1(x,z)).
``distributivity_matrix`` is the same law, through the same formula, batched:
the verdict for every pair of two stacks of tables, without witnesses; the
pair scan uses it to find hits before building any per-pair report.  The three
``*_conditions`` predicates evaluate the structural characterization for
the matching order of neutral elements (e1 = e2, e1 > e2, e1 < e2);
``classify_and_check`` runs both routes and flags any disagreement as a
theorem divergence, which is a reportable finding, never silently dropped.

Index-range conventions used by the case predicates (all bounds inclusive
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
        block x block  clause iii: u1 closed, inner neutral e1 - lo, distributing
                       over u2's block (T2 or S2 shifted by -lo)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .core import (
    CheckReport,
    ChainScale,
    OpTable,
    Uninorm,
    Violation,
    WitnessLog,
    underlying_tconorm,
    underlying_tnorm,
    validate_uninorm,
    _non_idempotent_points,
    _non_internal_points,
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
    if u1.scale != u2.scale:
        raise ScaleMismatchError(f"operands live on L_{u1.n} and L_{u2.n}")


def case_of(u1: Uninorm, u2: Uninorm) -> TheoremCase:
    _same_scale(u1, u2)
    if u1.e == u2.e:
        return TheoremCase.EQUAL_NEUTRAL
    return TheoremCase.GREATER_NEUTRAL if u1.e > u2.e else TheoremCase.LESS_NEUTRAL


@lru_cache(maxsize=None)
def _pair_grid(m: int):
    # unordered (y, z) pairs; swapping y and z leaves both sides unchanged,
    # so each pair is evaluated once
    return np.triu_indices(m)


def _law_sides(a, b, ys, zs):
    """u1(x, u2(y,z)) and u2(u1(x,y), u1(x,z)) for every x and every grid pair k.

    ``a`` is u1's table, or a stack of them along leading axes; the result
    has ``a``'s leading axes, then x, then k.
    """
    return a[..., b[ys, zs]], b[a[..., ys], a[..., zs]]


def check_distributivity(u1: Uninorm, u2: Uninorm, *, verbose: bool = False) -> CheckReport:
    """Exhaustively test that u1 distributes over u2.

    Witnesses are triples (x, y, z) with y <= z carrying both side values,
    emitted in lexicographic order.
    """
    _same_scale(u1, u2)
    ys, zs = _pair_grid(u1.n + 1)
    lhs, rhs = _law_sides(u1.table.array, u2.table.array, ys, zs)
    neq = lhs != rhs
    if not neq.any():
        return CheckReport.ok()
    log = WitnessLog(verbose)
    for x, k in zip(*(w.tolist() for w in np.nonzero(neq))):
        if not log.wants("distributivity"):
            break
        log.add(Violation("distributivity", (x, int(ys[k]), int(zs[k])),
                          lhs=int(lhs[x, k]), rhs=int(rhs[x, k])))
    return log.report()


def distributivity_matrix(firsts, seconds) -> np.ndarray:
    """The (k1, k2) boolean matrix of "firsts[i] distributes over seconds[j]".

    ``firsts`` and ``seconds`` are stacks of tables, shapes (k1, m, m) and
    (k2, m, m).  The law is checked exactly as in :func:`check_distributivity`,
    for every x and y <= z, which is exact for any symmetric second table: no
    uninorm axiom is assumed.  One numpy evaluation per second table covers
    the whole first stack, so memory is O(k1 * m * m(m+1)/2).
    """
    firsts = np.asarray(firsts, dtype=np.intp)
    seconds = np.asarray(seconds, dtype=np.intp)
    out = np.zeros((len(firsts), len(seconds)), dtype=bool)
    if out.size == 0:
        return out
    m = firsts.shape[-1]
    if firsts.shape[1:] != (m, m) or seconds.shape[1:] != (m, m):
        raise ScaleMismatchError(f"stacks of shapes {firsts.shape} and {seconds.shape} "
                                 "are not square tables on one chain")
    ys, zs = _pair_grid(m)
    for j, b in enumerate(seconds):
        lhs, rhs = _law_sides(firsts, b, ys, zs)
        out[:, j] = (lhs == rhs).reshape(len(firsts), -1).all(axis=1)
    return out


# One helper per clause shape, adding witnesses in scan order (the pair path's hot loops)
def _on_square(log, u2, g, law):
    """u2 = op on its square, x <= y."""
    for x, y, v in g.square:
        if u2(x, y) != v:
            log.add(Violation(law, (x, y), lhs=u2(x, y), rhs=v, subject="u2"))


def _agree_and_choose(log, u1, u2, xs, ys, agreement, choice, side_condition=""):
    """u1 = u2 = x or y on xs x ys; with a ``side_condition``, u2 = y only if u2(y, y) = y."""
    for x in xs:
        for y in ys:
            a, b = u1(x, y), u2(x, y)
            if a != b:
                log.add(Violation(agreement, (x, y), lhs=a, rhs=b))
            elif a not in (x, y):
                log.add(Violation(choice, (x, y), lhs=a))
            if side_condition and b == y and u2(y, y) != y:
                log.add(Violation(side_condition, (x, y), lhs=u2(y, y), rhs=y, subject="u2"))


def _keeps_first(log, xs, ys, checks):
    """u(x, y) = x on xs x ys, for each (u, subject, law) of ``checks`` at every point."""
    for x in xs:
        for y in ys:
            for u, subject, law in checks:
                if u(x, y) != x:
                    log.add(Violation(law, (x, y), lhs=u(x, y), rhs=x, subject=subject))


def equal_neutral_conditions(u1: Uninorm, u2: Uninorm, *, verbose: bool = False) -> CheckReport:
    """Structural conditions for distributivity when e1 = e2.

    u2 must be idempotent, and on the off-diagonal region both operations
    must agree and return one of their arguments.
    """
    _same_scale(u1, u2)
    if u1.e != u2.e:
        raise WrongCaseError(f"equal-neutral conditions need e1 = e2, got {u1.e} and {u2.e}")
    log = WitnessLog(verbose)
    for x in _non_idempotent_points(u2):
        log.add(Violation("idempotency", (x,), lhs=u2(x, x), rhs=x, subject="u2"))
    _agree_and_choose(log, u1, u2, range(u1.e), range(u1.e + 1, u1.n + 1),
                      "agreement", "local-internality")
    return log.report()


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


def _unequal_conditions(u1: Uninorm, u2: Uninorm, verbose: bool) -> CheckReport:
    g = _geometry(u1.n, u1.e, u2.e)
    log = WitnessLog(verbose)

    _on_square(log, u2, g, f"hypothesis-{g.unit}")
    for x, y in _non_internal_points(u2):
        log.add(Violation("hypothesis-local-internality", (x, y), lhs=u2(x, y), subject="u2"))

    _agree_and_choose(log, u1, u2, g.strip, g.block, "clause-i-agreement", "clause-i-choice")
    for x0 in g.strip:
        for y0 in g.far:
            if u2(x0, y0) == y0 and u2(y0, y0) != y0:
                log.add(Violation("clause-i-side-condition", (x0, y0),
                                  lhs=u2(y0, y0), rhs=y0, subject="u2",
                                  detail="second argument picked at a non-idempotent point"))

    law = f"clause-ii-{g.op.__name__}"  # op(x, y) = x across the near strip
    _keeps_first(log, g.strip, g.near, ((u1, "u1", law), (u2, "u2", law)))

    closed = True
    for x in g.block:
        for y in range(x, g.block.stop):
            if u1(x, y) not in g.block:
                closed = False
                log.add(Violation("clause-iii-closure", (x, y), lhs=u1(x, y), rhs=u2.e, subject="u1",
                                  detail=g.leak))
    if closed:
        inner = g.inner(u1)
        inner_report = validate_uninorm(inner.table, inner.e, verbose=verbose)
        if not inner_report.verdict:
            for v in inner_report.violations:
                log.add(replace(v, law=f"clause-iii-inner-{v.law}", subject="u1", detail=g.subchain))
        else:
            for v in check_distributivity(inner, g.boundary(u2), verbose=verbose).violations:
                log.add(replace(v, law="clause-iii-distributivity", detail=g.subchain))
    return log.report()


def greater_neutral_conditions(u1: Uninorm, u2: Uninorm, *, verbose: bool = False) -> CheckReport:
    """Structural conditions for distributivity when e1 > e2.

    The hypothesis class of u2 (underlying t-norm = min, locally internal)
    is checked rather than assumed, so the predicate is total on the case;
    pairs outside the class fail with ``hypothesis-*`` violations.
    Boundary neutral elements degenerate gracefully: empty strips are
    vacuous and for e2 = 0 the inner block is the whole table.
    """
    _same_scale(u1, u2)
    if u1.e <= u2.e:
        raise WrongCaseError(f"greater-neutral conditions need e1 > e2, got {u1.e} and {u2.e}")
    return _unequal_conditions(u1, u2, verbose)


def less_neutral_conditions(u1: Uninorm, u2: Uninorm, *, verbose: bool = False) -> CheckReport:
    """Structural conditions for distributivity when e1 < e2.

    The greater case reflected: u2 must have underlying t-conorm = max and
    be locally internal, both operations agree (returning an argument)
    below e2, equal max on the middle strip, and the lower block of u1
    forms an inner uninorm distributing over the underlying t-norm of u2.
    """
    _same_scale(u1, u2)
    if u1.e >= u2.e:
        raise WrongCaseError(f"less-neutral conditions need e1 < e2, got {u1.e} and {u2.e}")
    return _unequal_conditions(u1, u2, verbose)


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
    log = WitnessLog(verbose)
    _on_square(log, u2, g, f"necessity-i-{g.unit}")
    # on side x near, x <= e2 <= y (mirrored in the less case), so op(x, y) = x
    _keeps_first(log, g.side, g.near, ((u1, "u1", f"necessity-ii-u1-{g.op.__name__}"),))
    _keeps_first(log, g.strip, g.near, ((u2, "u2", f"necessity-iii-u2-{g.op.__name__}"),))
    _agree_and_choose(log, u1, u2, g.strip, g.far, "necessity-iv-agreement",
                      "necessity-iv-choice", "necessity-iv-side-condition")
    for x, y in _non_internal_points(u2):
        log.add(Violation("necessity-local-internality", (x, y), lhs=u2(x, y), subject="u2"))
    return log.report()


_CONDITIONS = {
    TheoremCase.EQUAL_NEUTRAL: equal_neutral_conditions,
    TheoremCase.GREATER_NEUTRAL: greater_neutral_conditions,
    TheoremCase.LESS_NEUTRAL: less_neutral_conditions,
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
    """Pick the case from (e1, e2), run its conditions and the exhaustive scan."""
    case = case_of(u1, u2)
    conditions = _CONDITIONS[case](u1, u2, verbose=verbose)
    exhaustive = check_distributivity(u1, u2, verbose=verbose)
    return ClassifyResult(case, conditions, exhaustive)


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

    Refuses non-distributive pairs (and pairs where the structural
    conditions disagree with the exhaustive scan) with the failing clauses;
    pairs with equal or boundary neutral elements have no block structure
    and raise :class:`WrongCaseError`.
    """
    result = classify_and_check(u1, u2)
    if not (result.conditions.verdict and result.exhaustive.verdict):
        failing = result.conditions.violations + result.exhaustive.violations
        raise NotDistributiveError(CheckReport.from_violations(failing))
    if result.case is TheoremCase.EQUAL_NEUTRAL:
        raise WrongCaseError("equal neutral elements admit no block decomposition")
    if not _proper_unequal(u1.n, u1.e, u2.e):
        raise WrongCaseError(
            f"decomposition needs proper neutral elements, got e1={u1.e}, e2={u2.e} on L_{u1.n}"
        )
    return _decompose_checked(u1, u2, result.case)


def _decompose_checked(u1: Uninorm, u2: Uninorm, case: TheoremCase) -> Decomposition:
    """The blocks of a pair its caller has classified as distributive under
    ``case``, with proper unequal neutrals; nothing is re-checked."""
    g = _geometry(u1.n, u1.e, u2.e)
    inner = g.inner(u1)
    selection = tuple(
        (x, y, Pick.FIRST if u1(x, y) == x else Pick.SECOND) for x, y in g.domain
    )
    return Decomposition(case, inner, g.boundary(u2), selection)


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
    in the less case).  Both candidates must pass full axiom validation,
    the case conditions and the exhaustive distributivity scan; an
    arbitrary selection map can break associativity, and a selection that
    picks the second argument at a point where the boundary operation is
    not idempotent is rejected before assembly.
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
    for (x, y), pick in sel.items():
        if pick is Pick.FIRST:
            continue
        if y in g.near:
            raise _reject("clause-ii-selection", (x, y),
                          f"{g.forced}, cannot pick the second argument")
        picked = lo + d.boundary_op(y - lo, y - lo)  # y is in the far range
        if picked != y:
            raise _reject("side-condition", (x, y), "second argument picked at a "
                          "point where the boundary operation is not idempotent",
                          lhs=picked, rhs=y)

    def assembled(block_op: Uninorm):
        # block_op on the block, the selection on the strip beyond the near
        # range, min/max on the rest (a pick in the near range is the first)
        def value(x, y):
            if x in g.block and y in g.block:
                return lo + block_op(x - lo, y - lo)
            if x in g.block:
                x, y = y, x
            if y in g.block and y not in g.near:
                return x if sel[(x, y)] is Pick.FIRST else y
            return g.op(x, y)
        return value

    table1 = OpTable.from_func(scale, assembled(d.inner))
    table2 = OpTable.from_func(scale, assembled(d.boundary_op))
    for subject, table, e in (("u1", table1, e1), ("u2", table2, e2)):
        rep = validate_uninorm(table, e)
        if not rep.verdict:
            tagged = tuple(replace(v, subject=subject) for v in rep.violations)
            raise CompositionInvalid(CheckReport.from_violations(tagged),
                                     f"assembled {subject} fails the uninorm axioms")
    cand1, cand2 = Uninorm(table1, e1), Uninorm(table2, e2)
    conditions = _CONDITIONS[g.case](cand1, cand2)
    if not conditions.verdict:
        raise CompositionInvalid(conditions, "assembled pair fails the case conditions")
    exhaustive = check_distributivity(cand1, cand2)
    if not exhaustive.verdict:
        raise CompositionInvalid(exhaustive,
                                 "assembled pair passes the case conditions but fails the "
                                 "exhaustive scan: theorem divergence")
    return cand1, cand2
