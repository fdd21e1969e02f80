"""Distributivity checker, case conditions and dispatcher."""

import pytest

import oracles
from helpers import dual, idem_min, laws_violated, luk_upper, max_tconorm
from unichain import (
    ChainScale,
    TheoremCase,
    check_distributivity,
    classify_and_check,
    equal_neutral_conditions,
    from_string,
    greater_neutral_conditions,
    less_neutral_conditions,
    necessity_conditions,
)
from unichain.errors import ScaleMismatchError, WrongCaseError


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

    def test_everything_distributes_over_max(self, uninorms_by_e):
        top = max_tconorm(4)
        for us in uninorms_by_e(4).values():
            for u in us:
                assert check_distributivity(u, top).verdict

    def test_agrees_with_oracle_on_all_l3_pairs(self, all_pairs):
        for u1, u2 in all_pairs(3):
            assert check_distributivity(u1, u2).verdict == oracles.distributes(u1.rows, u2.rows)

    def test_swap_invariance_and_witness_order(self, uninorms_by_e):
        # witnesses are y <= z triples in lexicographic order
        u = luk_upper(4, 2)
        report = check_distributivity(u, u, verbose=True)
        witnesses = [v.witness for v in report.violations]
        assert witnesses == sorted(witnesses)
        assert all(y <= z for _, y, z in witnesses)

    def test_scale_mismatch(self):
        with pytest.raises(ScaleMismatchError):
            check_distributivity(idem_min(4, 2), idem_min(3, 2))


class TestEqualNeutral:
    def test_idem_min_pair(self):
        u = idem_min(4, 2)
        assert equal_neutral_conditions(u, u).verdict

    def test_luk_upper_fails_idempotency_clause(self):
        report = equal_neutral_conditions(idem_min(4, 2), luk_upper(4, 2))
        assert not report.verdict
        assert "idempotency" in laws_violated(report)

    def test_wrong_case(self):
        with pytest.raises(WrongCaseError):
            equal_neutral_conditions(idem_min(4, 2), idem_min(4, 1))

    def test_iff_on_l3(self, all_pairs):
        for u1, u2 in all_pairs(3):
            if u1.e != u2.e:
                continue
            assert equal_neutral_conditions(u1, u2).verdict == oracles.distributes(
                u1.rows, u2.rows
            )


class TestGreaterNeutral:
    def test_composed_pair_satisfies_conditions(self):
        # the block-diagram pair with e2=1, e1=2 on L_4 assembles to
        # (idem_min(4,2), idem_min(4,1)); both routes must accept it
        u1, u2 = idem_min(4, 2), idem_min(4, 1)
        assert oracles.distributes(u1.rows, u2.rows)
        assert greater_neutral_conditions(u1, u2).verdict
        assert check_distributivity(u1, u2).verdict

    def test_clause_iii_failure(self):
        # u2's underlying t-conorm is the bounded sum, and the inner block of
        # u1 does not distribute over it
        u1, u2 = idem_min(4, 2), luk_upper(4, 1)
        assert not oracles.distributes(u1.rows, u2.rows)
        report = greater_neutral_conditions(u1, u2)
        assert not report.verdict
        assert "clause-iii-distributivity" in laws_violated(report)
        assert not check_distributivity(u1, u2).verdict

    def test_iff_on_l3(self, all_pairs):
        for u1, u2 in all_pairs(3):
            if u1.e <= u2.e:
                continue
            assert greater_neutral_conditions(u1, u2).verdict == oracles.distributes(
                u1.rows, u2.rows
            )

    def test_wrong_case(self):
        with pytest.raises(WrongCaseError):
            greater_neutral_conditions(idem_min(4, 1), idem_min(4, 2))


class TestLessNeutral:
    def test_dual_of_composed_pair(self):
        u1, u2 = dual(idem_min(4, 2)), dual(idem_min(4, 1))
        assert less_neutral_conditions(u1, u2).verdict
        assert check_distributivity(u1, u2).verdict

    def test_wrong_case(self):
        with pytest.raises(WrongCaseError, match="less-neutral conditions need e1 < e2, got 2 and 1"):
            less_neutral_conditions(idem_min(4, 2), idem_min(4, 1))

    def test_dual_of_failing_pair_fails(self):
        u1, u2 = dual(idem_min(4, 2)), dual(luk_upper(4, 1))
        assert not less_neutral_conditions(u1, u2).verdict
        assert not check_distributivity(u1, u2).verdict

    def test_matches_greater_under_duality_on_l3(self, all_pairs):
        for u1, u2 in all_pairs(3):
            if u1.e >= u2.e:
                continue
            direct = less_neutral_conditions(u1, u2).verdict
            mirrored = greater_neutral_conditions(dual(u1), dual(u2)).verdict
            assert direct == mirrored

    def test_iff_on_l3(self, all_pairs):
        for u1, u2 in all_pairs(3):
            if u1.e >= u2.e:
                continue
            assert less_neutral_conditions(u1, u2).verdict == oracles.distributes(
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

    def test_agreement_everywhere_on_l3(self, all_pairs):
        for u1, u2 in all_pairs(3):
            result = classify_and_check(u1, u2)
            assert result.agreement, (u1.rows, u2.rows, result.case)
            assert result.divergence() is None

    def test_divergence_record_shape(self):
        from unichain import CheckReport, ClassifyResult, Violation

        fake = ClassifyResult(
            TheoremCase.EQUAL_NEUTRAL,
            CheckReport.ok(),
            CheckReport.from_violations([Violation("distributivity", (0, 0, 0), lhs=0, rhs=1)]),
        )
        assert not fake.agreement
        assert fake.divergence().law == "theorem-divergence"


class TestNecessityBattery:
    def test_holds_on_every_distributive_unequal_pair_on_l3(self, all_pairs):
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

    def test_scale_mismatch_is_checked_before_the_case(self):
        with pytest.raises(ScaleMismatchError, match="operands live on L_3 and L_4"):
            necessity_conditions(idem_min(3, 1), idem_min(4, 1))
