"""Constructors for standard t-norms, t-conorms and uninorm families.

Only chain-closed families are provided (min, max, Lukasiewicz, drastic,
and the U-min / U-max compositors that fill the off-diagonal region with
min resp. max around given underlying operations).  The product t-norm is
deliberately absent: it is not closed on an integer chain.

Only the three t-norm formulas are written out.  Each t-conorm is its
twin's image under the order reversal x -> n - x:
S(x, y) = n - T(n - x, n - y).

Families are also expressible as compact strings, e.g.
``idemmin(e=2,n=4)`` or ``umin(T=luk,S=max,e=2,n=4)``; see
:func:`parse_family_spec`.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .core import ChainScale, OpTable, Uninorm, refuse_large_scale, validate_uninorm
from .errors import ConstructionError, InternalConsistencyError, SpecSyntaxError

_TNORMS = {
    "min": lambda x, y, n: min(x, y),
    "lukasiewicz-tnorm": lambda x, y, n: max(0, x + y - n),
    "drastic-tnorm": lambda x, y, n: min(x, y) if max(x, y) == n else 0,
}
_TCONORMS = {  # each t-conorm with its t-norm twin
    "max": "min",
    "lukasiewicz-tconorm": "lukasiewicz-tnorm",
    "drastic-tconorm": "drastic-tnorm",
}
_PROPER = ("umin-idempotent", "umax-idempotent", "umin-of", "umax-of")
FAMILIES = (*_TNORMS, *_TCONORMS, *_PROPER)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one catalog table.

    ``t`` and ``s`` are the underlying t-norm (on L_e) and t-conorm (on
    L_{n-e}) and are only meaningful for the umin-of / umax-of compositors.
    """

    family: str
    scale: ChainScale
    e: int
    t: Uninorm | None = None
    s: Uninorm | None = None


def make(spec: FamilySpec) -> Uninorm:
    """Build the table selected by ``spec`` and verify it is a uninorm.

    Inconsistent parameters raise :class:`ConstructionError`; a constructor
    producing an invalid table would be a bug and raises
    :class:`InternalConsistencyError`.
    """
    u = _build(spec)
    report = validate_uninorm(u.table, u.e)
    if not report.verdict:
        raise InternalConsistencyError(
            f"constructor {spec.family} produced an invalid table: "
            f"{report.violations[0].describe()}"
        )
    return u


def _build(spec: FamilySpec) -> Uninorm:
    """The table selected by ``spec``, its parameters checked but not its
    uninorm axioms."""
    family, n, e = spec.family, spec.scale.n, spec.e
    if family not in FAMILIES:
        raise ConstructionError(f"unknown family {family!r}")
    if family in _TNORMS and e != n:
        raise ConstructionError(f"{family} needs e = n, got e={e}, n={n}")
    if family in _TCONORMS and e != 0:
        raise ConstructionError(f"{family} needs e = 0, got e={e}")
    if family in _PROPER and not 0 < e < n:
        raise ConstructionError(f"{family} needs 0 < e < n, got e={e}, n={n}")
    if family in ("umin-of", "umax-of"):
        if spec.t is None or spec.s is None:
            raise ConstructionError(f"{family} needs both T and S sub-operations")
        if spec.t.scale.n != e or spec.t.e != e:
            raise ConstructionError(
                f"T must be a t-norm on L_{e}, got scale n={spec.t.scale.n}, e={spec.t.e}"
            )
        if spec.s.scale.n != n - e or spec.s.e != 0:
            raise ConstructionError(
                f"S must be a t-conorm on L_{n - e}, got scale n={spec.s.scale.n}, e={spec.s.e}"
            )
    elif spec.t is not None or spec.s is not None:
        raise ConstructionError(f"{family} takes no T/S sub-operations")

    if family in _PROPER:
        # T and S are not checked on their own.  [0, e]^2 and [e, n]^2 are
        # closed under op, both hold e, and op is T on the first and S
        # shifted by e on the second, so the uninorm axioms of the whole
        # table restricted to them are T's t-norm axioms and S's t-conorm
        # axioms: make's one check of the whole table covers both.
        t = spec.t or _build(FamilySpec("min", ChainScale(e), e))
        s = spec.s or _build(FamilySpec("max", ChainScale(n - e), 0))
        off_diag = min if family in ("umin-idempotent", "umin-of") else max

        def op(x, y):
            if x <= e and y <= e:
                return t(x, y)
            if x >= e and y >= e:
                return e + s(x - e, y - e)
            return off_diag(x, y)
    else:  # a t-norm, or a t-conorm as its twin conjugated by x -> n - x
        tnorm = _TNORMS[_TCONORMS.get(family, family)]
        r = (lambda v: n - v) if family in _TCONORMS else (lambda v: v)

        def op(x, y):
            return r(tnorm(r(x), r(y), n))

    return Uninorm(OpTable.from_func(spec.scale, op), e)


# --- compact spec strings -------------------------------------------------
#
# spec   := name [ "(" arg ("," arg)* ")" ]
# arg    := key "=" value
# value  := integer | name | spec          (nested spec for T= / S=)
#
# Names are case-insensitive; "-" and "_" are interchangeable.  A name is a
# family's canonical name or one of the shorthands below.  In a T= slot a
# bare luk, lukasiewicz or drastic means the t-norm on L_e, in an S= slot the
# t-conorm on L_{n-e}.

_SHORTHANDS = {
    "luk-tnorm": "lukasiewicz-tnorm",
    "luk-tconorm": "lukasiewicz-tconorm",
    "idemmin": "umin-idempotent",
    "idemmax": "umax-idempotent",
    "umin": "umin-of",
    "umax": "umax-of",
    "luk-upper": "luk-upper",  # bounded sum min(n, x+y-e) on [e,n]^2, min elsewhere
}

_NAME_CHARS = set(string.ascii_letters + string.digits + "-_")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str, pos: int | None = None):
        raise SpecSyntaxError(message, self.text, self.pos if pos is None else pos)

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.text[start:self.pos].lower().replace("_", "-"), start


def _parse_call(cur: _Cursor, values: tuple = ()):
    """Returns (normalized-name, int args, sub-spec calls keyed t/s, name position).

    ``values`` holds where each enclosing T=/S= value starts.  ``_build_sub``
    refuses a sub-operation's own T=/S= once the spec is read; one level
    deeper, the key is refused as it is read, so nesting costs no recursion.
    """
    name, name_pos = cur.name()
    ints: dict[str, int] = {}
    subs: dict[str, tuple] = {}
    cur.skip_ws()
    if cur.peek() == "(":
        cur.pos += 1
        cur.skip_ws()
        if cur.peek() != ")":
            while True:
                key, key_pos = cur.name()
                if key in ints or key in subs:
                    cur.error(f"repeated key {key!r}", key_pos)
                cur.expect("=")
                cur.skip_ws()
                if key in ("n", "e"):
                    start = cur.pos
                    while cur.pos < len(cur.text) and cur.text[cur.pos] in string.digits:
                        cur.pos += 1
                    try:  # no digits, or more than int() converts
                        ints[key] = int(cur.text[start:cur.pos])
                    except ValueError:
                        cur.error("expected an integer", start)
                    if key == "n":
                        refuse_large_scale(ints[key], f"spec {cur.text!r}")
                elif key in ("t", "s"):
                    if len(values) == 2:
                        cur.error("nested T/S inside a sub-operation is not supported", values[0])
                    value_pos = cur.pos
                    subs[key] = (_parse_call(cur, (*values, value_pos)), value_pos)
                else:
                    cur.error(f"unknown key {key!r} (expected n, e, T or S)", key_pos)
                cur.skip_ws()
                if cur.peek() == ",":
                    cur.pos += 1
                    continue
                break
        cur.expect(")")
    return name, ints, subs, name_pos


def _build_sub(call, value_pos: int, slot: str, sub_n: int, text: str) -> Uninorm:
    name, ints, subs, name_pos = call
    kind, suffix, families = (("t-norm", "-tnorm", _TNORMS) if slot == "t"
                              else ("t-conorm", "-tconorm", _TCONORMS))
    if subs:
        raise SpecSyntaxError("nested T/S inside a sub-operation is not supported", text, value_pos)
    full = name + suffix if name in ("luk", "lukasiewicz", "drastic") else name
    family = _SHORTHANDS.get(full, full)
    if family not in families:
        raise SpecSyntaxError(f"{name!r} is not a {kind} family", text, name_pos)
    n = ints.get("n", sub_n)
    if n != sub_n:
        raise SpecSyntaxError(f"sub-operation scale n={n} does not fit its slot (needs n={sub_n})",
                              text, value_pos)
    if "e" in ints:
        raise SpecSyntaxError("sub-operations fix their own neutral element", text, value_pos)
    e = n if slot == "t" else 0
    return _build(FamilySpec(family, ChainScale(n), e))


def parse_family_spec(text: str) -> FamilySpec:
    """Parse a compact family string into a :class:`FamilySpec`.

    Raises :class:`SpecSyntaxError` with a caret position on bad syntax and
    :class:`ConstructionError` on inconsistent parameters.
    """
    cur = _Cursor(text)
    name, ints, subs, name_pos = _parse_call(cur)
    cur.skip_ws()
    if cur.pos != len(text):
        cur.error("unexpected trailing input")
    if name not in _SHORTHANDS and name not in FAMILIES:
        raise SpecSyntaxError(f"unknown family {name!r}", text, name_pos)
    family = _SHORTHANDS.get(name, name)
    if "n" not in ints:
        raise SpecSyntaxError("every family needs an explicit n", text, name_pos)
    n = ints["n"]
    if n < 1:
        raise SpecSyntaxError("n must be at least 1", text, name_pos)
    scale = ChainScale(n)

    if family in _TNORMS:
        e = ints.get("e", n)
    elif family in _TCONORMS:
        e = ints.get("e", 0)
    elif "e" not in ints:
        raise SpecSyntaxError(f"{name} needs an explicit e", text, name_pos)
    else:
        e = ints["e"]

    t = s = None
    if subs and family not in ("umin-of", "umax-of"):
        raise SpecSyntaxError(f"{name} takes no T/S arguments", text, name_pos)
    if family in ("umin-of", "umax-of", "luk-upper") and not 0 < e < n:
        raise ConstructionError(f"{family} needs 0 < e < n, got e={e}, n={n}")
    if family == "luk-upper":
        t = _build(FamilySpec("min", ChainScale(e), e))
        s = _build(FamilySpec("lukasiewicz-tconorm", ChainScale(n - e), 0))
        family = "umin-of"
    elif family in ("umin-of", "umax-of"):
        if "t" not in subs or "s" not in subs:
            raise SpecSyntaxError(f"{name} needs both T= and S=", text, name_pos)
        t = _build_sub(subs["t"][0], subs["t"][1], "t", e, text)
        s = _build_sub(subs["s"][0], subs["s"][1], "s", n - e, text)
    return FamilySpec(family, scale, e, t=t, s=s)


def from_string(text: str) -> Uninorm:
    """Build the uninorm named by a compact family string."""
    return make(parse_family_spec(text))
