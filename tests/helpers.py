"""Shorthand constructors for the test suite.

The catalog families are built through ``catalog.from_string``, the same
path the command line takes; ``dual`` lifts the raw-row oracle in
``oracles`` to a uninorm; ``random_symmetric`` draws a table that need not
be a uninorm; ``flip_conditions`` plants one divergence;
``assert_well_formed`` holds a table built through ``OpTable._built`` to
the check that path skips.
"""

from dataclasses import replace

import oracles
from unichain import ChainScale, CheckReport, OpTable, Uninorm, Violation, from_string
from unichain.core import _structural_violations


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
    return OpTable(ChainScale(len(rows) - 1), rows)


def dual(u):
    """u conjugated by the order reversal x -> n - x, neutral n - e."""
    return Uninorm(OpTable(u.scale, oracles.dual(u.rows)), u.n - u.e)


def random_symmetric(rng, n):
    """Rows of a symmetric table on L_n with every upper cell drawn from ``rng``."""
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for x in range(n + 1):
        for y in range(x, n + 1):
            rows[x][y] = rows[y][x] = rng.randrange(n + 1)
    return tuple(map(tuple, rows))


def assert_well_formed(table):
    """``OpTable``'s own check, and tuple rows, on a table built through
    ``_built``, which skips that check: the kernel relies on both unchecked."""
    assert not list(_structural_violations(table.values, table.scale.n)), table
    assert type(table.values) is tuple and all(type(row) is tuple for row in table.values)


def laws_violated(report):
    """The laws of a report's violations, each once, in order of appearance."""
    return tuple(dict.fromkeys(v.law for v in report.violations))


def flip_conditions(monkeypatch, module, u1, u2):
    """Make ``module.classify_and_check`` reverse the case conditions' verdict
    on the pair (u1, u2): one planted theorem divergence."""
    original = module.classify_and_check
    planted = CheckReport.from_violations([Violation("planted-divergence", ())])

    def classify(a, b, **kwargs):
        result = original(a, b, **kwargs)
        if (a.rows, b.rows) == (u1.rows, u2.rows):
            flipped = planted if result.conditions.verdict else CheckReport.from_violations(())
            result = replace(result, conditions=flipped)
        return result

    monkeypatch.setattr(module, "classify_and_check", classify)
