"""Block decomposition and composition of distributive pairs.

``tests/pins.py roundtrip_l<n>`` pins every decomposition ``scan`` emits on
L_3-L_5 through the text format and back into ``compose``; the L_5 totals
are read from its fixture here.
"""

import pytest

import oracles
import pins
from helpers import (all_pairs, case_conditions, dual, idem_max, idem_min, luk_upper, max_tconorm,
                     min_tnorm, table_of)
from unichain import (
    ChainScale,
    Decomposition,
    Pick,
    TheoremCase,
    Uninorm,
    check_distributivity,
    compose,
    decompose,
    validate_uninorm,
)
from unichain.catalog import make, FamilySpec
from unichain.cli import main
from unichain.errors import CompositionInvalid, NotDistributiveError, WrongCaseError
from unichain.formats import parse_decomposition


def max_on(n):
    return Uninorm(table_of([[max(x, y) for y in range(n + 1)] for x in range(n + 1)]), 0)


def luk_tconorm_on(n):
    return Uninorm(table_of([[min(n, x + y) for y in range(n + 1)] for x in range(n + 1)]), 0)


class TestDecompose:
    def test_block_pair_on_l4(self):
        # e2=1, e1=2: u1 = idem_min(4,2), u2 = idem_min(4,1)
        d = decompose(idem_min(4, 2), idem_min(4, 1))
        assert d.case is TheoremCase.GREATER_NEUTRAL
        assert validate_uninorm(d.inner.table, d.inner.e).verdict
        assert validate_uninorm(d.boundary_op.table, d.boundary_op.e).verdict
        assert d.inner.rows == idem_min(3, 1).rows and d.inner.e == 1
        assert d.boundary_op.rows == max_on(3).rows and d.boundary_op.e == 0
        assert all(pick is Pick.FIRST for _, _, pick in d.selection)
        assert sorted((x, y) for x, y, _ in d.selection) == [(0, y) for y in range(1, 5)]

    def test_refuses_non_distributive_before_case_check(self):
        # equal neutral elements, but the distributivity check fires first
        with pytest.raises(NotDistributiveError) as err:
            decompose(idem_min(4, 2), luk_upper(4, 2))
        assert not err.value.report.verdict

    def test_equal_case_refused(self):
        with pytest.raises(WrongCaseError):
            decompose(idem_min(4, 2), idem_min(4, 2))

    def test_boundary_neutrals_refused(self):
        # min over max is distributive, but a t-norm/t-conorm pair has no
        # block structure to extract
        with pytest.raises(WrongCaseError):
            decompose(min_tnorm(3), max_tconorm(3))

    def test_boundary_agreement_still_holds(self):
        # a t-norm u1 (e1 = n) over a proper u2: both routes say yes, yet
        # the pair is refused because e1 = n leaves no upper t-conorm block
        rows = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3))
        assert validate_uninorm(table_of(rows), 3).verdict
        u1 = Uninorm(table_of(rows), 3)
        u2 = idem_min(3, 2)
        assert oracles.distributes(u1.rows, u2.rows)
        assert case_conditions(u1, u2).verdict
        with pytest.raises(WrongCaseError):
            decompose(u1, u2)


class TestRoundTrip:
    def test_round_trip_on_l3(self):
        seen = 0
        for u1, u2 in all_pairs(3):
            e1, e2, n = u1.e, u2.e, u1.n
            if e1 == e2 or not (0 < min(e1, e2) and max(e1, e2) < n):
                continue
            if not oracles.distributes(u1.rows, u2.rows):
                with pytest.raises(NotDistributiveError):
                    decompose(u1, u2)
                continue
            seen += 1
            d = decompose(u1, u2)
            r1, r2 = compose(d, u1.scale, e1, e2)
            assert r1.rows == u1.rows and r1.e == e1
            assert r2.rows == u2.rows and r2.e == e2
        assert seen == 8  # 4 distributive pairs in each orientation

    def test_less_case_round_trip_via_duals(self):
        u1, u2 = dual(idem_min(4, 2)), dual(idem_min(4, 1))
        d = decompose(u1, u2)
        assert d.case is TheoremCase.LESS_NEUTRAL
        assert d.inner.e == u1.e
        r1, r2 = compose(d, u1.scale, u1.e, u2.e)
        assert r1.rows == u1.rows and r2.rows == u2.rows

    def test_l5_totals(self):
        # ``tests/pins.py roundtrip_l5`` pins each block's text round trip
        composed, identical = (pins.counts("roundtrip_l5", field) for field in ("composed", "identical"))
        assert len(composed) == len(identical) == 12
        assert (sum(composed.values()), sum(identical.values())) == (522, 424)


# Each block and each pick passes compose's own checks, but this inner (from an
# L_4 hit with the boundary of another) does not distribute over the boundary.
SWAPPED_INNER = """\
case greater-neutral
scale 4
e1 3
e2 1
inner
scale 3
neutral 2
0 0 0 0
0 1 1 3
0 1 2 3
0 3 3 3
boundary
scale 3
neutral 0
0 1 2 3
1 1 2 3
2 2 3 3
3 3 3 3
selection
0 1 first
0 2 first
0 3 first
0 4 first
"""


class TestCompose:
    def fig_parts(self):
        inner = idem_min(3, 1)
        boundary = max_on(3)
        selection = tuple((0, y, Pick.FIRST) for y in range(1, 5))
        return Decomposition(TheoremCase.GREATER_NEUTRAL, inner, boundary, selection)

    def test_assembles_the_block_pair(self):
        d = self.fig_parts()
        u1, u2 = compose(d, ChainScale(4), 2, 1)
        assert u1.rows == idem_min(4, 2).rows
        assert u2.rows == idem_min(4, 1).rows
        assert check_distributivity(u1, u2).verdict

    def test_side_condition_rejected_before_assembly(self):
        # picking the second argument at y0=3 requires the boundary
        # operation to be idempotent at index 2; the bounded sum is not
        inner = idem_max(3, 1)
        boundary = luk_tconorm_on(3)
        selection = ((0, 1, Pick.FIRST), (0, 2, Pick.FIRST), (0, 3, Pick.SECOND), (0, 4, Pick.FIRST))
        d = Decomposition(TheoremCase.GREATER_NEUTRAL, inner, boundary, selection)
        with pytest.raises(CompositionInvalid) as err:
            compose(d, ChainScale(4), 2, 1)
        assert err.value.report.violations[0].law == "side-condition"

    def test_axiom_breaking_selection_rejected_with_witness(self):
        # second at (0,3) but first at (0,4) makes row 0 non-monotone
        inner = idem_min(3, 1)
        boundary = max_on(3)
        selection = ((0, 1, Pick.FIRST), (0, 2, Pick.FIRST), (0, 3, Pick.SECOND), (0, 4, Pick.FIRST))
        d = Decomposition(TheoremCase.GREATER_NEUTRAL, inner, boundary, selection)
        with pytest.raises(CompositionInvalid) as err:
            compose(d, ChainScale(4), 2, 1)
        laws = set(v.law for v in err.value.report.violations)
        assert laws & {"monotonicity", "associativity"}

    def test_seconds_can_succeed(self):
        # a disjunctive inner block supports genuine second picks
        inner = idem_max(3, 1)
        boundary = max_on(3)
        selection = ((0, 1, Pick.FIRST), (0, 2, Pick.FIRST), (0, 3, Pick.SECOND), (0, 4, Pick.SECOND))
        d = Decomposition(TheoremCase.GREATER_NEUTRAL, inner, boundary, selection)
        u1, u2 = compose(d, ChainScale(4), 2, 1)
        assert u1(0, 3) == 3 and u2(0, 4) == 4
        assert oracles.distributes(u1.rows, u2.rows)
        assert decompose(u1, u2).selection == d.selection

    def test_strip_conflicting_selection_rejected(self):
        inner = idem_min(3, 1)
        boundary = max_on(3)
        selection = ((0, 1, Pick.SECOND), (0, 2, Pick.FIRST), (0, 3, Pick.FIRST), (0, 4, Pick.FIRST))
        d = Decomposition(TheoremCase.GREATER_NEUTRAL, inner, boundary, selection)
        with pytest.raises(CompositionInvalid) as err:
            compose(d, ChainScale(4), 2, 1)
        assert err.value.report.violations[0].law == "clause-ii-selection"

    def test_wrong_shapes_rejected(self):
        d = self.fig_parts()
        with pytest.raises(CompositionInvalid):
            compose(d, ChainScale(4), 3, 1)  # inner neutral does not match e1 - e2
        with pytest.raises(CompositionInvalid):
            compose(d, ChainScale(5), 2, 1)  # inner lives on the wrong subchain

    def test_boundary_with_the_wrong_neutral_is_rejected(self):
        d = self.fig_parts()
        d = Decomposition(d.case, d.inner, idem_min(3, 1), d.selection)
        with pytest.raises(CompositionInvalid) as err:
            compose(d, ChainScale(4), 2, 1)
        assert [(v.law, v.witness) for v in err.value.report.violations] == [("shape", (3, 1))]
        assert str(err.value) == "boundary must be a t-conorm on L_3: shape at (3,1)"

    def test_assembled_pair_failing_the_case_conditions_is_rejected(self):
        with pytest.raises(CompositionInvalid) as err:
            compose(*parse_decomposition(SWAPPED_INNER))
        assert str(err.value) == "assembled pair fails the case conditions"
        assert [(v.law, v.witness, v.lhs, v.rhs) for v in err.value.report.violations] == [
            ("clause-iii-distributivity", (1, 2, 2), 3, 1)]

    def test_assembled_pair_failing_the_case_conditions_is_status_one(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(SWAPPED_INNER)
        assert main(["compose", "--decomposition", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("compose rejected: assembled pair fails the case conditions\n"
                       "verdict: false\n  clause-iii-distributivity at (1,2,2) [lhs=3 rhs=1] "
                       "(indices shifted by -e2 onto the upper subchain)\n")

    def test_selection_domain_must_match(self):
        inner = idem_min(3, 1)
        boundary = max_on(3)
        selection = tuple((0, y, Pick.FIRST) for y in range(1, 4))  # (0,4) missing
        d = Decomposition(TheoremCase.GREATER_NEUTRAL, inner, boundary, selection)
        with pytest.raises(CompositionInvalid) as err:
            compose(d, ChainScale(4), 2, 1)
        assert err.value.report.violations[0].law == "selection-domain"

    def test_equal_case_has_no_decomposition_type(self):
        with pytest.raises(WrongCaseError):
            Decomposition(TheoremCase.EQUAL_NEUTRAL, idem_min(3, 1), max_on(3), ())
