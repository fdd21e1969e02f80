"""Exact binary operations on finite chains, with uninorm axiom validation.

The carrier is the finite chain L_n = {0, 1, ..., n}; everything works on
integer indices into that set, so every check is exact.  A uninorm is a
commutative, associative, monotone table over L_n with a neutral element e;
t-norms are the e = n case and t-conorms the e = 0 case.  The off-diagonal
region A(e) is the complement of the squares [0,e]^2 and [e,n]^2, where any
uninorm stays between min and max.

Tables read from outside the program are refused above ``MAX_SCALE``
before any table is built: the axiom check reads (n+1)^2 (n+2)/2 triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    EmptyRestrictionError,
    InternalConsistencyError,
    InvalidUninormError,
    NotProperError,
    SearchLimitError,
    StructureError,
)

MAX_SCALE = 256


def refuse_large_scale(n: int, where: str) -> None:
    """Refuse an input scale above ``MAX_SCALE``; ``where`` names the input."""
    if n > MAX_SCALE:
        raise SearchLimitError(f"{where}: scale n={n} refused: inputs are limited to "
                               f"n <= {MAX_SCALE}")


@dataclass(frozen=True)
class ChainScale:
    """Resolution of the chain L_n; valid indices are 0..n inclusive."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise StructureError(f"chain resolution must be a positive integer, got {self.n!r}")

    @property
    def points(self) -> range:
        return range(self.n + 1)


@dataclass(frozen=True)
class OpTable:
    """A commutative binary operation on L_n, stored as a full square table.

    The constructor and :meth:`from_func` refuse what ``_structural_violations``
    finds (shape, integer entries, range, symmetry) and keep the rows as tuples,
    so list and tuple rows give equal tables; :func:`validate_uninorm` checks
    the remaining axioms.  ``_built`` skips the check for tuple rows known well
    formed: the search's by construction (tests hold it to that), the parser's
    by the same checker.  ``distributive_pairs`` checks none of it again.
    """

    scale: ChainScale
    values: tuple  # (n+1) rows of (n+1) chain indices

    def __post_init__(self):
        for violation in _structural_violations(self.values, self.scale.n):
            raise StructureError(violation.detail)
        object.__setattr__(self, "values", tuple(map(tuple, self.values)))

    @classmethod
    def _built(cls, scale: ChainScale, values: tuple) -> "OpTable":
        table = object.__new__(cls)
        object.__setattr__(table, "scale", scale)
        object.__setattr__(table, "values", values)
        return table

    @classmethod
    def from_func(cls, scale: ChainScale, op) -> "OpTable":
        pts = scale.points
        return cls(scale, tuple(tuple(op(x, y) for y in pts) for x in pts))


@dataclass(frozen=True)
class Uninorm:
    """An operation table together with its neutral element index.

    The plain constructor only checks that ``e`` is a valid index; use
    :meth:`checked` when the table comes from an untrusted source, so the
    neutrality, monotonicity and associativity axioms are verified and a
    failure raises :class:`InvalidUninormError` naming ``subject``.
    """

    table: OpTable
    e: int

    def __post_init__(self):
        n = self.table.scale.n
        if not 0 <= self.e <= n:
            raise StructureError(f"neutral index {self.e} outside chain 0..{n}")
        # plain attributes, read by the pair loops on every pair; neither is
        # a field, so equality, hash and repr see only table and e
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", self.table.values)

    @classmethod
    def checked(cls, table: OpTable, e: int, subject: str = "table") -> "Uninorm":
        report = validate_uninorm(table, e)
        if not report.verdict:
            raise InvalidUninormError(report, subject)
        return cls(table, e)

    @property
    def scale(self) -> ChainScale:
        return self.table.scale

    def __call__(self, x: int, y: int) -> int:
        return self.rows[x][y]

    @cached_property
    def _latest(self) -> dict:
        """name -> (arguments, value): the last value a function of that name
        derived from this uninorm and ``arguments``, kept until a call with
        other arguments.  Not a field, so equality, hash and repr ignore it."""
        return {}

    @property
    def is_tnorm(self) -> bool:
        return self.e == self.n

    @property
    def is_tconorm(self) -> bool:
        return self.e == 0

    @property
    def is_proper(self) -> bool:
        return 0 < self.e < self.n


@dataclass(frozen=True)
class Violation:
    """One witnessed law failure.

    ``witness`` holds the chain indices that reproduce the failure when
    replayed against the inputs; ``lhs``/``rhs`` hold the two observed (or
    observed vs. expected) values where that makes sense.
    """

    law: str
    witness: tuple
    lhs: int | None = None
    rhs: int | None = None
    subject: str = ""
    detail: str = ""

    def describe(self) -> str:
        where = ",".join(str(i) for i in self.witness)
        who = f"{self.subject}: " if self.subject else ""
        vals = ""
        if self.lhs is not None or self.rhs is not None:
            vals = f" [lhs={self.lhs} rhs={self.rhs}]"
        note = f" ({self.detail})" if self.detail else ""
        return f"{who}{self.law} at ({where}){vals}{note}"


@dataclass(frozen=True)
class CheckReport:
    """The witnesses for every failed law of a check; it holds when there
    are none."""

    violations: tuple = ()

    @property
    def verdict(self) -> bool:
        return not self.violations

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "CheckReport":
        return cls(tuple(violations))


class WitnessLog:
    """Collects violations, keeping only the first one per law unless verbose."""

    def __init__(self, verbose: bool = False):
        self.verbose = verbose
        self._items: list[Violation] = []
        self._laws_seen: set[str] = set()

    def add(self, violation: Violation) -> None:
        key = (violation.subject, violation.law)
        if self.verbose or key not in self._laws_seen:
            self._laws_seen.add(key)
            self._items.append(violation)

    def wants(self, law: str, subject: str = "") -> bool:
        return self.verbose or (subject, law) not in self._laws_seen

    @property
    def violations(self) -> tuple:
        return tuple(self._items)

    def report(self) -> CheckReport:
        return CheckReport.from_violations(self._items)


def _structural_violations(values, n: int) -> Iterator[Violation]:
    """Why ``values`` is no table on L_n, in order; an asymmetry is witnessed at its later row (y, x)."""
    if len(values) != n + 1:
        yield Violation("structure", (len(values),), detail=f"expected {n + 1} rows, got {len(values)}")
        return
    for x, row in enumerate(values):
        if len(row) != n + 1:
            yield Violation("structure", (x,), detail=f"row {x} has {len(row)} entries, expected {n + 1}")
            return
    for x, row in enumerate(values):
        for y, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool):
                yield Violation("structure", (x, y), detail=f"row {x}, entry {y}: {v!r} is not an integer")
            elif not 0 <= v <= n:
                yield Violation("structure", (x, y), lhs=v,
                                detail=f"row {x}, entry {y}: value {v} outside 0..{n}")
    for x, column in enumerate(zip(*values)):  # column x against row x, after the diagonal
        row = values[x]
        if tuple(row) != column:
            for y in range(x + 1, n + 1):
                if row[y] != column[y]:
                    yield Violation("structure", (y, x), lhs=column[y], rhs=row[y], detail=(
                        f"asymmetry: row {y}, entry {x} is {column[y]} but row {x}, entry {y} is {row[y]}"))


def validate_uninorm(table: OpTable, e: int, *, verbose: bool = False) -> CheckReport:
    """Check the uninorm axioms for (table, e).

    Shape, range and symmetry are :class:`OpTable`'s own checks; an ``e``
    outside the chain is reported as a ``structure`` violation.  The row
    tuples are scanned for neutrality (ascending x), monotonicity (row x
    against row x + 1, row-major), then associativity ((x, y, z) with x <= z,
    lexicographic).  Only the first witness per law is kept unless
    ``verbose``, so the scan stops at the first associativity witness.
    """
    log = WitnessLog(verbose)
    n = table.scale.n
    if not 0 <= e <= n:
        log.add(Violation("structure", (e,), detail=f"neutral index outside chain 0..{n}"))
        return log.report()

    rows = table.values
    pts = range(n + 1)
    for x, v in enumerate(rows[e]):
        if v != x and log.wants("neutrality"):
            log.add(Violation("neutrality", (x,), lhs=v, rhs=x))

    for x in range(n):
        row, below = rows[x], rows[x + 1]
        for y in pts:
            if row[y] > below[y] and log.wants("monotonicity"):
                log.add(Violation("monotonicity", (x, x + 1, y), lhs=row[y], rhs=below[y]))

    # (x*y)*z vs x*(y*z); swapping x and z yields the mirrored equation, so
    # the scan is restricted to x <= z
    for x in pts:
        rx, zs = rows[x], pts[x:]
        for y in pts:
            ry, rxy = rows[y], rows[rx[y]]
            for z in zs:
                if rxy[z] != rx[ry[z]]:
                    log.add(Violation("associativity", (x, y, z), lhs=rxy[z], rhs=rx[ry[z]]))
                    if not verbose:
                        return log.report()
    return log.report()


def _non_idempotent_points(u: Uninorm) -> list:
    """The x with u(x, x) != x, ascending."""
    return [x for x, row in enumerate(u.rows) if row[x] != x]


def _non_internal_points(u: Uninorm) -> list:
    """The (x, y) of A(e), x < e < y, where u returns neither argument, in scan order."""
    e, n = u.e, u.n
    return [(x, y) for x, row in enumerate(u.rows[:e]) for y in range(e + 1, n + 1)
            if row[y] not in (x, y)]


def is_idempotent(u: Uninorm) -> bool:
    """True iff u(x, x) = x for every x."""
    return not _non_idempotent_points(u)


def is_locally_internal(u: Uninorm) -> bool:
    """True iff u(x, y) is one of its arguments everywhere on A(e)."""
    return not _non_internal_points(u)


def is_conjunctive(u: Uninorm) -> bool:
    """True iff the proper uninorm u annihilates at u(0, n) = 0.

    A valid proper uninorm can only take 0 or n there; anything else is a
    bug in the caller's table, not a property of the input space.
    """
    if not u.is_proper:
        raise NotProperError(f"conjunctive/disjunctive split needs 0 < e < n, got e={u.e}, n={u.n}")
    v = u(0, u.n)
    if v == 0:
        return True
    if v == u.n:
        return False
    raise InternalConsistencyError(f"valid proper uninorm has u(0,n)={v}, expected 0 or {u.n}")


def _restriction(u: Uninorm, lo: int, hi: int, new_e: int) -> Uninorm:
    rows = tuple(tuple(v - lo for v in row[lo:hi + 1]) for row in u.rows[lo:hi + 1])
    return Uninorm(OpTable(ChainScale(hi - lo), rows), new_e)


def underlying_tnorm(u: Uninorm) -> Uninorm:
    """The restriction of u to [0, e]^2 as a t-norm on L_e (identity reindex)."""
    if u.e < 1:
        raise EmptyRestrictionError("no lower square: neutral element is 0")
    return _restriction(u, 0, u.e, u.e)


def underlying_tconorm(u: Uninorm) -> Uninorm:
    """The restriction of u to [e, n]^2 as a t-conorm on L_{n-e} (shift by -e)."""
    if u.e > u.n - 1:
        raise EmptyRestrictionError("no upper square: neutral element is n")
    return _restriction(u, u.e, u.n, 0)
