"""Shorthand constructors for the test suite.

The catalog families are built through ``catalog.from_string``, the same
path the command line takes; ``dual`` lifts the raw-row oracle in
``oracles`` to a uninorm.
"""

import oracles
from unichain import ChainScale, OpTable, Uninorm, from_string


def idem_min(n, e):
    """max where both arguments are >= e, min everywhere else."""
    return from_string(f"idemmin(e={e},n={n})")


def idem_max(n, e):
    """min where both arguments are <= e, max everywhere else."""
    return from_string(f"idemmax(e={e},n={n})")


def luk_upper(n, e):
    """Bounded sum min(n, x+y-e) on [e,n]^2, min everywhere else."""
    return from_string(f"luk-upper(e={e},n={n})")


def min_tnorm(n):
    return from_string(f"min(n={n})")


def max_tconorm(n):
    return from_string(f"max(n={n})")


def table_of(rows):
    """An operation table on L_{len(rows) - 1}, checked for shape, range and symmetry."""
    return OpTable(ChainScale(len(rows) - 1), tuple(tuple(row) for row in rows))


def dual(u):
    """u conjugated by the order reversal x -> n - x, neutral n - e."""
    return Uninorm(OpTable(u.scale, oracles.dual(u.rows)), u.n - u.e)


def laws_violated(report):
    """The laws of a report's violations, each once, in order of appearance."""
    return tuple(dict.fromkeys(v.law for v in report.violations))
