"""Acceptance suite: the exit criteria for the whole toolkit.

Each criterion is one test that prints a single PASS/FAIL line (bypassing
capture, so the lines are visible in a plain ``pytest`` run).  Everything
here is exact: the tolerances are set equality, bit equality and zero
divergences throughout.
"""

import sys
import time
from contextlib import contextmanager

import pytest

import oracles
from conftest import FIXTURES_DIR
from helpers import dual, max_tconorm, min_tnorm, table_of
from unichain import (
    ChainScale,
    EnumerationTask,
    FamilySpec,
    certify,
    check_distributivity,
    classify_and_check,
    compose,
    decompose,
    enumerate_uninorms,
    equal_neutral_conditions,
    greater_neutral_conditions,
    less_neutral_conditions,
    make,
    necessity_conditions,
    validate_uninorm,
)
from unichain.errors import NotDistributiveError, WrongCaseError
from unichain.formats import certification_doc, to_json


@pytest.fixture
def announce(request):
    """Write a line to the real terminal, past pytest's capture."""
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def write(line):
        if manager is None:
            sys.stdout.write(line)
        else:
            with manager.global_and_fixture_disabled():
                sys.stdout.write(line)
                sys.stdout.flush()

    return write


@contextmanager
def criterion(announce, num, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        announce(f"\nACCEPTANCE {num} ({label}): FAIL [{time.perf_counter() - started:.2f}s]\n")
        raise
    announce(f"\nACCEPTANCE {num} ({label}): PASS [{time.perf_counter() - started:.2f}s]\n")


def catalog_grid(max_n=6):
    """Every catalog constructor output on n = 1..max_n, all admissible e."""
    out = []
    for n in range(1, max_n + 1):
        scale = ChainScale(n)
        for family in ("min", "lukasiewicz-tnorm", "drastic-tnorm"):
            out.append(make(FamilySpec(family, scale, n)))
        for family in ("max", "lukasiewicz-tconorm", "drastic-tconorm"):
            out.append(make(FamilySpec(family, scale, 0)))
        for e in range(1, n):
            for family in ("umin-idempotent", "umax-idempotent"):
                out.append(make(FamilySpec(family, scale, e)))
            for tf in ("min", "lukasiewicz-tnorm", "drastic-tnorm"):
                for sf in ("max", "lukasiewicz-tconorm", "drastic-tconorm"):
                    t = make(FamilySpec(tf, ChainScale(e), e))
                    s = make(FamilySpec(sf, ChainScale(n - e), 0))
                    out.append(make(FamilySpec("umin-of", scale, e, t=t, s=s)))
                    out.append(make(FamilySpec("umax-of", scale, e, t=t, s=s)))
    return out


def test_criterion_1_axiom_suite(announce):
    with criterion(announce, 1, "axiom suite with mutation catching"):
        grid = catalog_grid()
        assert len(grid) > 100
        for u in grid:
            assert validate_uninorm(u.table, u.e).verdict, u

        # single-cell mutations: the validator's verdict must agree with the
        # wholesale oracle, and every reported witness must replay
        for u in (make(FamilySpec("umin-idempotent", ChainScale(4), 2)),
                  make(FamilySpec("min", ChainScale(4), 4)),
                  make(FamilySpec("umin-of", ChainScale(4), 2,
                                  t=min_tnorm(2),
                                  s=make(FamilySpec("lukasiewicz-tconorm", ChainScale(2), 0))))):
            n, e = u.n, u.e
            for x in range(n + 1):
                for y in range(x, n + 1):
                    for v in range(n + 1):
                        if v == u(x, y):
                            continue
                        rows = [list(r) for r in u.rows]
                        rows[x][y] = rows[y][x] = v
                        rows = tuple(tuple(r) for r in rows)
                        report = validate_uninorm(table_of(rows), e, verbose=True)
                        truth = (oracles.neutral_holds(rows, e)
                                 and oracles.monotone_holds(rows)
                                 and oracles.associative_holds(rows))
                        assert report.verdict == truth, (x, y, v)
                        for viol in report.violations:
                            if viol.law == "neutrality":
                                assert rows[e][viol.witness[0]] != viol.witness[0]
                            elif viol.law == "monotonicity":
                                a, b, c = viol.witness
                                assert rows[a][c] > rows[b][c]
                            elif viol.law == "associativity":
                                a, b, c = viol.witness
                                assert rows[rows[a][b]][c] != rows[a][rows[b][c]]


def test_criterion_2_equal_neutral_iff(announce, uninorms_by_e):
    with criterion(announce, 2, "equal-neutral conditions iff exhaustive check on L_2, L_3"):
        for n in (2, 3):
            by_e = uninorms_by_e(n)
            pairs = 0
            for e in range(n + 1):
                for u1 in by_e[e]:
                    for u2 in by_e[e]:
                        pairs += 1
                        conditions = equal_neutral_conditions(u1, u2).verdict
                        exhaustive = check_distributivity(u1, u2).verdict
                        assert conditions == exhaustive, (
                            f"divergence at e={e}:\nu1={u1.rows}\nu2={u2.rows}")
            assert pairs > 0


def test_criterion_3_unequal_neutral_iff(announce, uninorms_by_e):
    with criterion(announce, 3, "greater/less-neutral conditions iff exhaustive check on L_3, L_4"):
        for n in (3, 4):
            by_e = uninorms_by_e(n)
            divergences = []
            pairs = 0
            for e1 in range(n + 1):
                for e2 in range(n + 1):
                    if e1 == e2:
                        continue
                    predicate = (greater_neutral_conditions if e1 > e2
                                 else less_neutral_conditions)
                    for u1 in by_e[e1]:
                        for u2 in by_e[e2]:
                            pairs += 1
                            conditions = predicate(u1, u2).verdict
                            exhaustive = check_distributivity(u1, u2).verdict
                            if conditions != exhaustive:
                                divergences.append((u1, u2, conditions, exhaustive))
            if divergences:
                u1, u2, c, x = divergences[0]
                pytest.fail(
                    f"{len(divergences)} divergences on L_{n}; first pair, verbatim:\n"
                    f"u1 (e={u1.e}): {u1.rows}\nu2 (e={u2.e}): {u2.rows}\n"
                    f"conditions={c} exhaustive={x}")
            assert pairs > 0


def test_criterion_4_necessity_batteries(announce, uninorms_by_e):
    with criterion(announce, 4, "necessity batteries hold on every distributive unequal pair"):
        checked = 0
        for n in (3, 4):
            by_e = uninorms_by_e(n)
            for e1 in range(n + 1):
                for e2 in range(n + 1):
                    if e1 == e2:
                        continue
                    for u1 in by_e[e1]:
                        for u2 in by_e[e2]:
                            if not check_distributivity(u1, u2).verdict:
                                continue
                            checked += 1
                            report = necessity_conditions(u1, u2)
                            assert report.verdict, (
                                f"necessity exception on L_{n} (e1={e1}, e2={e2}):\n"
                                f"u1={u1.rows}\nu2={u2.rows}\n"
                                f"violations={[v.describe() for v in report.violations]}")
        assert checked > 0


def test_criterion_5_round_trip_and_refusals(announce, uninorms_by_e):
    with criterion(announce, 5, "decompose/compose round trip on L_3, refusal of the rest"):
        by_e = uninorms_by_e(3)
        round_trips = 0
        refusals = 0
        for e1 in range(4):
            for e2 in range(4):
                if e1 == e2:
                    continue
                proper = 0 < min(e1, e2) and max(e1, e2) < 3
                for u1 in by_e[e1]:
                    for u2 in by_e[e2]:
                        distributive = check_distributivity(u1, u2).verdict
                        if not distributive:
                            with pytest.raises(NotDistributiveError):
                                decompose(u1, u2)
                            refusals += 1
                        elif proper:
                            d = decompose(u1, u2)
                            r1, r2 = compose(d, u1.scale, e1, e2)
                            assert (r1.rows, r1.e) == (u1.rows, u1.e)
                            assert (r2.rows, r2.e) == (u2.rows, u2.e)
                            round_trips += 1
                        else:
                            # boundary neutrals: no block structure to recover
                            with pytest.raises(WrongCaseError):
                                decompose(u1, u2)
        assert round_trips == 8 and refusals > 0


def test_criterion_6_duality_transport(announce, all_pairs):
    with criterion(announce, 6, "duality transports verdicts and case conditions on L_3"):
        for u1, u2 in all_pairs(3):
            d1, d2 = dual(u1), dual(u2)
            assert (check_distributivity(u1, u2).verdict
                    == check_distributivity(d1, d2).verdict)
            if u1.e < u2.e:
                assert (less_neutral_conditions(u1, u2).verdict
                        == greater_neutral_conditions(d1, d2).verdict)


def test_criterion_7_enumeration_oracle_equivalence(announce):
    with criterion(announce, 7, "pruned enumeration equals the naive-filter oracle"):
        for n in (2, 3):
            for e in range(n + 1):
                ours = set(u.rows for u in
                           enumerate_uninorms(EnumerationTask(ChainScale(n), e)))
                naive = set(oracles.naive_uninorms(n, e))
                assert ours == naive, f"n={n} e={e}"
        assert len(list(enumerate_uninorms(EnumerationTask(ChainScale(2), 1)))) == 2
        assert len(list(enumerate_uninorms(EnumerationTask(ChainScale(1), 0)))) == 1


def test_criterion_8_universal_max_min(announce, uninorms_by_e):
    with criterion(announce, 8, "every uninorm distributes over max (e=0) and min (e=n)"):
        top = max_tconorm(3)
        bottom = min_tnorm(3)
        for us in uninorms_by_e(3).values():
            for u in us:
                assert check_distributivity(u, top).verdict
                assert check_distributivity(u, bottom).verdict


def test_criterion_9_determinism(announce):
    with criterion(announce, 9, "certification reports byte-identical across runs"):
        docs = set()
        for _ in range(3):
            report = certify(ChainScale(3))
            assert not report.divergences
            docs.add(to_json(certification_doc(report, include_timing=False)))
        assert len(docs) == 1
        golden = (FIXTURES_DIR / "certify_l3.json").read_text(encoding="utf-8")
        assert docs.pop() == golden
