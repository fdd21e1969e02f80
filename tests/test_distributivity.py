"""Distributivity checker, case conditions and dispatcher."""

import json
from collections import Counter
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES_DIR
from helpers import (
    all_pairs,
    assert_well_formed,
    block_restrictions,
    case_conditions,
    clause_iii_against_restrictions,
    closed_on_block,
    dual,
    idem_min,
    laws_violated,
    luk_upper,
    max_tconorm,
    random_symmetric,
    uninorms_by_e,
)
from unichain import (
    ChainScale,
    Decomposition,
    OpTable,
    Pick,
    TheoremCase,
    Uninorm,
    certify,
    check_distributivity,
    classify_and_check,
    compose,
    decompose,
    distributivity,
    from_string,
    necessity_conditions,
    scan_pairs,
    validate_uninorm,
)
from unichain.distributivity import _geometry, case_of
from unichain.errors import CompositionInvalid, ScaleMismatchError, WrongCaseError


class TestChecker:
    def test_idem_min_distributes_over_itself(self):
        u = idem_min(4, 2)
        assert oracles.distributes(u.rows, u.rows)  # independent 125-triple scan
        assert check_distributivity(u, u).verdict

    def test_luk_upper_fails_with_replayable_witness(self):
        u = luk_upper(4, 2)
        defect = oracles.find_distributivity_defect(u.rows, u.rows)
        assert defect is not None
        report = check_distributivity(u, u)
        assert not report.verdict
        x, y, z = report.violations[0].witness
        lhs = u(x, u(y, z))
        rhs = u(u(x, y), u(x, z))
        assert (lhs, rhs) == (report.violations[0].lhs, report.violations[0].rhs)
        assert lhs != rhs

    def test_everything_distributes_over_max(self):
        top = max_tconorm(4)
        for us in uninorms_by_e(4).values():
            for u in us:
                assert check_distributivity(u, top).verdict

    def test_agrees_with_oracle_on_all_l3_pairs(self):
        for u1, u2 in all_pairs(3):
            assert check_distributivity(u1, u2).verdict == oracles.distributes(u1.rows, u2.rows)

    def test_swap_invariance_and_witness_order(self):
        # witnesses are y <= z triples in lexicographic order
        u = luk_upper(4, 2)
        report = check_distributivity(u, u, verbose=True)
        witnesses = [v.witness for v in report.violations]
        assert witnesses == sorted(witnesses)
        assert all(y <= z for _, y, z in witnesses)


class TestEqualNeutral:
    def test_idem_min_pair(self):
        u = idem_min(4, 2)
        assert case_conditions(u, u).verdict

    def test_luk_upper_fails_idempotency_clause(self):
        report = case_conditions(idem_min(4, 2), luk_upper(4, 2))
        assert not report.verdict
        assert "idempotency" in laws_violated(report)

    def test_iff_on_l3(self):
        for u1, u2 in all_pairs(3):
            if u1.e != u2.e:
                continue
            assert case_conditions(u1, u2).verdict == oracles.distributes(
                u1.rows, u2.rows
            )


class TestGreaterNeutral:
    def test_composed_pair_satisfies_conditions(self):
        # the block-diagram pair with e2=1, e1=2 on L_4 assembles to
        # (idem_min(4,2), idem_min(4,1)); both routes must accept it
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        assert oracles.distributes(u1.rows, u2.rows)
        assert case_conditions(u1, u2).verdict
        assert check_distributivity(u1, u2).verdict

    def test_clause_iii_failure(self):
        # u2's underlying t-conorm is the bounded sum, and the inner block of
        # u1 does not distribute over it
        u1, u2 = idem_min(4, 2), luk_upper(4, 1)
        assert not oracles.distributes(u1.rows, u2.rows)
        report = case_conditions(u1, u2)
        assert not report.verdict
        assert "clause-iii-distributivity" in laws_violated(report)
        assert not check_distributivity(u1, u2).verdict

    def test_iff_on_l3(self):
        for u1, u2 in all_pairs(3):
            if u1.e <= u2.e:
                continue
            assert case_conditions(u1, u2).verdict == oracles.distributes(
                u1.rows, u2.rows
            )


class TestClauseIiiInner:
    def test_every_closed_block_is_a_uninorm_on_l1_to_l6(self):
        # clause iii takes u1 on a closed block as its inner uninorm without
        # validating it; check that claim over every closed (u1, e2)
        closed = 0
        for n in range(1, 7):
            for e1, us in uninorms_by_e(n).items():
                for e2 in range(n + 1):
                    if e2 == e1:
                        continue
                    g = _geometry(n, e1, e2)
                    for u1 in us:
                        if not closed_on_block(u1, g):
                            continue
                        closed += 1
                        inner = g.inner(u1)
                        assert inner.e == e1 - g.block[0]
                        report = validate_uninorm(inner.table, inner.e)
                        assert report.verdict, (u1.rows, e2, report.violations)
        assert closed == 8370

    def test_the_full_table_scan_equals_the_restrictions_on_l1_to_l4(self):
        # CI runs the same function on L_5
        compared = [clause_iii_against_restrictions(n) for n in range(1, 5)]
        assert [pairs for pairs, _, _ in compared] == [2, 20, 272, 4650]
        assert sum(witnesses for _, witnesses, _ in compared) == 30300
        assert not [differ for _, _, differ in compared if differ]


@st.composite
def drawn_decompositions(draw):
    """(d, scale, e1, e2) on L_3-L_6: an inner and a boundary of the right
    scale and neutral, each a uninorm or any symmetric table, and a drawn
    selection whose second picks stand only where compose takes one (beyond
    the near range, at a point where the boundary is idempotent), so that
    compose always assembles u1."""
    n = draw(st.integers(3, 6))
    e1, e2 = draw(st.sampled_from(list(permutations(range(1, n), 2))))
    g = _geometry(n, e1, e2)
    lo, m = g.block[0], len(g.block) - 1

    def block(e):
        if draw(st.booleans()):
            return draw(st.sampled_from(uninorms_by_e(m)[e]))
        return Uninorm(OpTable(ChainScale(m), random_symmetric(draw(st.randoms()), m)), e)

    inner, boundary = block(e1 - lo), block(e2 - lo)
    picks = draw(st.lists(st.sampled_from(Pick), min_size=len(g.domain), max_size=len(g.domain)))
    selection = tuple((x, y, pick if y not in g.near and boundary(y - lo, y - lo) == y - lo
                       else Pick.FIRST) for (x, y), pick in zip(g.domain, picks))
    return Decomposition(g.case, inner, boundary, selection), ChainScale(n), e1, e2


def spy_on_validation(captured):
    """``validate_uninorm`` that first keeps the table it is given."""
    def validate(table, e, **kwargs):
        captured.append(table)
        return validate_uninorm(table, e, **kwargs)
    return validate


class TestBuiltTables:
    """The restrictions and compose's candidates skip ``OpTable``'s check:
    every one of them is held to it here."""

    def test_every_block_restriction_is_well_formed_on_l1_to_l6(self):
        # CI runs the same function on L_7
        assert [block_restrictions(n) for n in range(1, 7)] == [4, 22, 114, 606, 3372, 19706]


    def test_compose_assembles_well_formed_tables_on_the_scan_blocks(self, monkeypatch):
        captured, composed = [], 0
        monkeypatch.setattr(distributivity, "validate_uninorm", spy_on_validation(captured))
        for n in (3, 4, 5):
            for e1, e2 in permutations(range(1, n), 2):
                for hit in scan_pairs(ChainScale(n), e1, e2):
                    # only u1's free corner is filled canonically, so u2 comes back
                    _, u2 = compose(hit.decomposition, ChainScale(n), e1, e2)
                    assert u2.rows == hit.u2.rows
                    composed += 1
        assert composed == 602 and len(captured) == 2 * composed  # 8, 72 and 522 hits
        for table in captured:
            assert_well_formed(table)

    @settings(max_examples=200, deadline=None)
    @given(drawn_decompositions())
    def test_compose_assembles_well_formed_tables_from_drawn_blocks(self, case):
        captured = []
        with mock.patch.object(distributivity, "validate_uninorm", spy_on_validation(captured)):
            try:
                compose(*case)
            except CompositionInvalid:
                pass
        assert captured  # u2 is validated only when u1 passes
        for table in captured:
            assert_well_formed(table)


class TestLessNeutral:
    def test_dual_of_composed_pair(self):
        u1, u2 = dual(idem_min(4, 2)), dual(idem_min(4, 1))
        assert case_conditions(u1, u2).verdict
        assert check_distributivity(u1, u2).verdict

    def test_dual_of_failing_pair_fails(self):
        u1, u2 = dual(idem_min(4, 2)), dual(luk_upper(4, 1))
        assert not case_conditions(u1, u2).verdict
        assert not check_distributivity(u1, u2).verdict

    def test_matches_greater_under_duality_on_l3(self):
        for u1, u2 in all_pairs(3):
            if u1.e >= u2.e:
                continue
            direct = case_conditions(u1, u2).verdict
            mirrored = case_conditions(dual(u1), dual(u2)).verdict
            assert direct == mirrored

    def test_iff_on_l3(self):
        for u1, u2 in all_pairs(3):
            if u1.e >= u2.e:
                continue
            assert case_conditions(u1, u2).verdict == oracles.distributes(
                u1.rows, u2.rows
            )


class TestClassifyAndCheck:
    def test_case_dispatch(self):
        result = classify_and_check(idem_min(4, 2), idem_min(4, 2))
        assert result.case is TheoremCase.EQUAL_NEUTRAL
        assert result.agreement and result.verdict
        result = classify_and_check(idem_min(4, 2), idem_min(4, 1))
        assert result.case is TheoremCase.GREATER_NEUTRAL
        assert result.agreement and result.verdict
        result = classify_and_check(idem_min(4, 1), idem_min(4, 2))
        assert result.case is TheoremCase.LESS_NEUTRAL

    def test_agreement_everywhere_on_l3(self):
        for u1, u2 in all_pairs(3):
            result = classify_and_check(u1, u2)
            assert result.agreement, (u1.rows, u2.rows, result.case)
            assert result.divergence() is None

    def test_the_dispatch_keeps_each_case_apart(self, monkeypatch):
        # each entry of the dispatch counted on its own, and each function's
        # module name bound to its last case's wrapper, as the benchmark's
        # tracer does: a call by name, not through the dispatch, is counted
        # under another case or under none
        calls = Counter()
        for case, conditions in list(distributivity._CONDITIONS.items()):
            def counted(*args, case=case, conditions=conditions):
                calls[case.value] += 1
                return conditions(*args)

            monkeypatch.setitem(distributivity._CONDITIONS, case, counted)
            monkeypatch.setattr(distributivity, conditions.__name__, counted)
        certify(ChainScale(3))
        golden = json.loads((FIXTURES_DIR / "certify_l3.json").read_text(encoding="utf-8"))
        assert calls == dict(golden["pair-case-counts"])
        assert sum(calls.values()) == 484
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        d = decompose(u1, u2)
        calls.clear()
        compose(d, u1.scale, u1.e, u2.e)
        assert calls == {"greater-neutral": 1}

    def test_divergence_record_shape(self):
        from unichain import CheckReport, ClassifyResult, Violation

        fake = ClassifyResult(
            TheoremCase.EQUAL_NEUTRAL,
            CheckReport.from_violations(()),
            CheckReport.from_violations([Violation("distributivity", (0, 0, 0), lhs=0, rhs=1)]),
        )
        assert not fake.agreement
        assert fake.divergence().law == "theorem-divergence"


class TestNecessityBattery:
    def test_holds_on_every_distributive_unequal_pair_on_l3(self):
        seen = 0
        for u1, u2 in all_pairs(3):
            if u1.e == u2.e or not oracles.distributes(u1.rows, u2.rows):
                continue
            seen += 1
            report = necessity_conditions(u1, u2)
            assert report.verdict, report.violations
        assert seen > 0

    def test_necessity_is_weaker_than_the_full_conditions(self):
        # this pair fails only clause iii, which the battery does not cover
        u1, u2 = idem_min(4, 2), luk_upper(4, 1)
        assert not oracles.distributes(u1.rows, u2.rows)
        assert necessity_conditions(u1, u2).verdict

    def test_flags_underlying_tnorm_violations(self):
        u2 = from_string("umin(T=luk,S=max,e=2,n=4)")
        report = necessity_conditions(idem_min(4, 3), u2)
        assert not report.verdict
        assert "necessity-i-tnorm-min" in laws_violated(report)

    def test_wrong_case(self):
        with pytest.raises(WrongCaseError):
            necessity_conditions(idem_min(4, 2), idem_min(4, 2))


class TestRedundantClauses:
    def test_local_internality_is_implied_by_clause_i_on_l1_to_l4(self):
        """u2's local internality on A(e2) has no witness that clause i lacks.

        In the unequal cases A(e2) = {x < e2 < y} lies inside strip x block:
        x in the strip [0, e2) and y in the block in the greater case; y in
        the strip (e2, n] and x in the block in the less case, where the
        region is mirrored.  There clause i requires u1 = u2 in {x, y}.  So
        wherever u2 returns neither argument, clause i fails at the same
        point: at (x, y) in the greater case, at (y, x) in the less case.
        The necessity battery splits the strip's partners into near and far,
        so such a point is a necessity-iii witness (strip x near, u2 = x) or
        a necessity-iv one (strip x far, clause i's law).
        """
        batteries = (
            ("hypothesis-local-internality", ("clause-i-agreement", "clause-i-choice")),
            ("necessity-local-internality",
             ("necessity-iii-", "necessity-iv-agreement", "necessity-iv-choice")),
        )
        pairs, implied = 0, Counter()
        for n in range(1, 5):
            by_e = uninorms_by_e(n)
            for e1, e2 in permutations(by_e, 2):
                for u1 in by_e[e1]:
                    for u2 in by_e[e2]:
                        pairs += 1
                        reports = (case_conditions(u1, u2, verbose=True),
                                   necessity_conditions(u1, u2, verbose=True))
                        for report, (law, clauses) in zip(reports, batteries):
                            at = {v.witness for v in report.violations if v.law.startswith(clauses)}
                            for v in report.violations:
                                if v.law == law:
                                    x, y = v.witness
                                    assert ((x, y) if e1 > e2 else (y, x)) in at, (
                                        u1.rows, e1, u2.rows, e2, law, v.witness)
                                    implied[law] += 1
        assert pairs == 7110
        assert implied == {law: 150 for law, _ in batteries}


# each entry meets tables on L_3 and L_4 whose neutrals, (e1, e2), fall in a
# case the entry refuses where it refuses any, so the scale is checked first
PAIR_ENTRIES = [
    (case_of, 1, 1),
    (check_distributivity, 1, 1),
    (classify_and_check, 1, 1),
    (necessity_conditions, 1, 1),
]


@pytest.mark.parametrize("entry, e1, e2", PAIR_ENTRIES, ids=[f.__name__ for f, *_ in PAIR_ENTRIES])
def test_every_pair_entry_refuses_mismatched_scales(entry, e1, e2):
    with pytest.raises(ScaleMismatchError, match="operands live on L_3 and L_4"):
        entry(idem_min(3, e1), idem_min(4, e2))
