"""Table construction, axiom validation, regions, predicates and duality."""

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import (
    dual,
    idem_max,
    idem_min,
    laws_violated,
    luk_upper,
    min_tnorm,
    random_symmetric,
    table_of,
)
from unichain import (
    ChainScale,
    OpTable,
    Uninorm,
    Violation,
    is_conjunctive,
    is_idempotent,
    is_locally_internal,
    underlying_tconorm,
    underlying_tnorm,
    validate_uninorm,
)
from unichain.distributivity import distributive_pairs
from unichain.errors import (
    EmptyRestrictionError,
    InvalidUninormError,
    NotProperError,
    StructureError,
)


def mutate(u, x, y, v):
    """Symmetric single-cell edit of a uninorm's rows."""
    rows = [list(r) for r in u.rows]
    rows[x][y] = rows[y][x] = v
    return tuple(tuple(r) for r in rows)


class TestOpTable:
    def test_symmetry_enforced(self):
        with pytest.raises(StructureError) as caught:
            table_of([[0, 0, 1], [0, 1, 2], [0, 2, 2]])
        assert str(caught.value) == "asymmetry: row 2, entry 0 is 0 but row 0, entry 2 is 1"

    def test_range_enforced(self):
        with pytest.raises(StructureError) as caught:
            table_of([[0, 0, 0], [0, 1, 2], [0, 2, 7]])
        assert str(caught.value) == "row 2, entry 2: value 7 outside 0..2"

    def test_shape_enforced(self):
        with pytest.raises(StructureError, match="entries"):
            table_of([[0, 0], [0, 1], [0, 1]])

    @pytest.mark.parametrize("rows, message", [
        ([[0, 0, 0], [0, 1, 2]], "expected 3 rows, got 2"),
        ([[0, 0, 0], [0, 1], [0, 2, 2]], "row 1 has 2 entries, expected 3"),
        ([[0, 0, 0], [0, 1.0, 2], [0, 2, 2]], "row 1, entry 1: 1.0 is not an integer"),
        ([[0, True, 0], [1, 1, 2], [0, 2, 2]], "row 0, entry 1: True is not an integer"),
        # within a row its entries come before its asymmetries with the rows above
        ([[0, 0, 0], [0, 1, 2], [1, 2, 9]], "row 2, entry 2: value 9 outside 0..2"),
    ])
    def test_each_refusal_names_its_position(self, rows, message):
        with pytest.raises(StructureError) as caught:
            OpTable(ChainScale(2), tuple(map(tuple, rows)))
        assert str(caught.value) == message

    def test_rows_given_as_lists_are_kept_as_tuples(self):
        lists = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
        built = OpTable(ChainScale(2), lists)
        twin = OpTable(ChainScale(2), tuple(map(tuple, lists)))
        assert built.values == twin.values and all(type(row) is tuple for row in built.values)
        assert built == twin and hash(built) == hash(twin)
        assert Uninorm(built, 1) == Uninorm(twin, 1)
        assert hash(Uninorm(built, 1)) == hash(Uninorm(twin, 1))
        assert distributive_pairs([built], [built, twin]) == \
               distributive_pairs([twin], [twin, built]) == [(0, 0), (0, 1)]

    def test_bad_neutral_index(self):
        table = table_of([[0, 0], [0, 1]])
        with pytest.raises(StructureError, match="neutral"):
            Uninorm(table, 5)


class TestRegions:
    def test_examples(self):
        assert oracles.region_of(1, 1, 2) == oracles.LOWER_SQUARE
        assert oracles.region_of(1, 3, 2) == oracles.OFF_DIAGONAL
        assert oracles.region_of(2, 2, 2) == oracles.LOWER_SQUARE  # boundary joins the squares
        assert oracles.region_of(3, 3, 2) == oracles.UPPER_SQUARE
        assert oracles.region_of(2, 3, 2) == oracles.UPPER_SQUARE

    @given(st.integers(1, 8), st.data())
    def test_partition(self, n, data):
        e = data.draw(st.integers(0, n))
        counts = {tag: 0 for tag in oracles.REGIONS}
        for x in range(n + 1):
            for y in range(n + 1):
                counts[oracles.region_of(x, y, e)] += 1
        assert sum(counts.values()) == (n + 1) ** 2
        # the strict off-diagonal region has 2 * e * (n - e) points
        assert counts[oracles.OFF_DIAGONAL] == 2 * e * (n - e)


class TestValidateUninorm:
    def test_min_is_a_tnorm(self):
        u = min_tnorm(4)
        assert validate_uninorm(u.table, 4).verdict

    def test_neutrality_defect_named(self):
        rows = mutate(idem_min(4, 2), 2, 3, 2)
        report = validate_uninorm(table_of(rows), 2)
        assert not report.verdict
        assert report.violations[0].law == "neutrality"
        assert report.violations[0].witness == (3,)

    def test_monotonicity_defect(self):
        # drop u(3,3) of the idempotent fixture below u(2,3)
        rows = mutate(idem_min(4, 2), 3, 3, 2)
        report = validate_uninorm(table_of(rows), 2)
        assert "monotonicity" in laws_violated(report)
        v = next(v for v in report.violations if v.law == "monotonicity")
        x, xp, y = v.witness
        assert rows[x][y] > rows[xp][y]

    def test_associativity_defect_found_by_perturbation_search(self):
        # brute-force search over single-cell perturbations of a valid table
        # until the plain-loop oracle finds an associativity defect
        base = idem_min(3, 1)
        found = None
        for x in range(4):
            for y in range(x, 4):
                if x == 1 or y == 1:
                    continue
                for v in range(4):
                    if v == base(x, y):
                        continue
                    rows = mutate(base, x, y, v)
                    if not oracles.neutral_holds(rows, 1):
                        continue
                    if not oracles.monotone_holds(rows):
                        continue
                    if not oracles.associative_holds(rows):
                        found = rows
                        break
                if found:
                    break
            if found:
                break
        assert found is not None, "perturbation search found no commutative monotone defect"
        report = validate_uninorm(table_of(found), 1)
        assert not report.verdict
        assert laws_violated(report) == ("associativity",)
        a, b, c = report.violations[0].witness
        assert found[found[a][b]][c] != found[a][found[b][c]]

    def test_out_of_range_entry_raises_before_validation(self):
        with pytest.raises(StructureError) as caught:
            validate_uninorm(table_of([[0, 0], [0, 9]]), 1)
        assert str(caught.value) == "row 1, entry 1: value 9 outside 0..1"

    def test_out_of_chain_neutral_is_reported(self):
        report = validate_uninorm(table_of([[0, 0], [0, 1]]), 5)
        assert laws_violated(report) == ("structure",)
        assert report.violations[0].detail == "neutral index outside chain 0..1"

    @pytest.mark.parametrize("flag", (True, 1.0), ids=("bool", "float"))
    def test_a_bool_or_float_neutral_is_refused(self, flag):
        # True passed 0 <= e <= n and was validated as e = 1 (verdict true on
        # this table); 1.0 escaped as a TypeError from indexing the rows
        with pytest.raises(StructureError, match=f"^neutral index {flag} is not an integer$"):
            validate_uninorm(idem_min(2, 1).table, flag)

    def test_verbose_collects_all_witnesses(self):
        table = table_of(mutate(idem_min(4, 2), 2, 3, 2))
        quiet = validate_uninorm(table, 2)
        loud = validate_uninorm(table, 2, verbose=True)
        assert len(loud.violations) >= len(quiet.violations)
        laws = set(v.law for v in loud.violations)
        assert laws >= set(v.law for v in quiet.violations)

    def test_witness_replay(self, uninorms_by_e):
        # every reported witness must reproduce its violation on the inputs
        base = idem_min(3, 1)
        for x in range(4):
            for y in range(x, 4):
                for v in range(4):
                    rows = mutate(base, x, y, v)
                    report = validate_uninorm(table_of(rows), 1, verbose=True)
                    for viol in report.violations:
                        if viol.law == "neutrality":
                            (px,) = viol.witness
                            assert rows[1][px] != px
                        elif viol.law == "monotonicity":
                            a, b, c = viol.witness
                            assert rows[a][c] > rows[b][c]
                        elif viol.law == "associativity":
                            a, b, c = viol.witness
                            assert rows[rows[a][b]][c] != rows[a][rows[b][c]]


def assert_matches_the_axiom_oracle(rows, e):
    table = table_of(rows)
    for verbose in (False, True):
        want = tuple(Violation(*v) for v in oracles.axiom_violations(rows, e, verbose))
        got = validate_uninorm(table, e, verbose=verbose).violations
        assert got == want, (rows, e, verbose)


class TestValidateAgainstTheOracle:
    def test_every_l4_uninorm_under_every_neutral(self, uninorms_by_e):
        for us in uninorms_by_e(4).values():
            for u in us:
                for e in range(5):
                    assert_matches_the_axiom_oracle(u.rows, e)

    def test_random_symmetric_tables(self):
        # half of the tables get an identity row at e, so the monotonicity and
        # associativity scans also run on tables that pass neutrality
        rng = random.Random(16)
        for n in range(1, 8):
            for _ in range(300):
                rows = random_symmetric(rng, n)
                e = rng.randrange(-1, n + 2)
                if 0 <= e <= n and rng.random() < 0.5:
                    rows = [list(row) for row in rows]
                    for y in range(n + 1):
                        rows[e][y] = rows[y][e] = y
                assert_matches_the_axiom_oracle(tuple(map(tuple, rows)), e)

    def test_an_invalid_l128_table_is_validated_in_little_memory(self):
        table = table_of(random_symmetric(random.Random(128), 128))
        tracemalloc.start()
        try:
            report = validate_uninorm(table, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.verdict
        assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestPredicates:
    def test_idempotent(self):
        assert is_idempotent(idem_min(4, 2))
        assert not is_idempotent(luk_upper(4, 2))
        assert luk_upper(4, 2)(3, 3) == 4  # the bounded sum exceeds its argument
        assert is_idempotent(min_tnorm(4))

    def test_locally_internal(self):
        assert is_locally_internal(idem_min(4, 2))
        assert is_locally_internal(luk_upper(4, 2))

    def test_locally_internal_counterexample(self):
        # a valid uninorm that takes an interior value on the off-diagonal
        # region (found by scanning the full enumeration on L_4)
        rows = (
            (0, 0, 2, 2, 4),
            (0, 1, 2, 3, 4),
            (2, 2, 4, 4, 4),
            (2, 3, 4, 4, 4),
            (4, 4, 4, 4, 4),
        )
        assert validate_uninorm(table_of(rows), 1).verdict
        u = Uninorm(table_of(rows), 1)
        assert not is_locally_internal(u)
        assert u(0, 3) == 2  # 2 is neither argument

    def test_conjunctive(self):
        assert is_conjunctive(idem_min(4, 2))
        assert not is_conjunctive(dual(idem_min(4, 2)))
        with pytest.raises(NotProperError):
            is_conjunctive(min_tnorm(4))


class TestDual:
    def test_involution_and_symmetry(self, uninorms_by_e):
        for e, us in uninorms_by_e(3).items():
            for u in us:
                d = dual(u)
                assert d.e == 3 - e
                assert validate_uninorm(d.table, d.e).verdict
                dd = dual(d)
                assert dd.rows == u.rows and dd.e == u.e

    def test_idem_min_maps_to_idem_max(self):
        assert dual(idem_min(4, 2)).rows == idem_max(4, 2).rows

    def test_maps_tnorms_to_tconorms(self):
        d = dual(min_tnorm(4))
        assert d.e == 0
        assert d.rows == tuple(tuple(max(x, y) for y in range(5)) for x in range(5))


class TestUnderlyingOps:
    def test_idem_min_restricts_to_min_and_max(self):
        u = idem_min(4, 2)
        t = underlying_tnorm(u)
        s = underlying_tconorm(u)
        assert t.rows == tuple(tuple(min(x, y) for y in range(3)) for x in range(3))
        assert t.e == 2
        assert s.rows == tuple(tuple(max(x, y) for y in range(3)) for x in range(3))
        assert s.e == 0

    def test_luk_upper_has_bounded_sum_tconorm(self):
        s = underlying_tconorm(luk_upper(4, 2))
        assert s.rows == tuple(tuple(min(2, x + y) for y in range(3)) for x in range(3))
        assert underlying_tnorm(luk_upper(4, 2)).rows == tuple(
            tuple(min(x, y) for y in range(3)) for x in range(3)
        )

    def test_restrictions_validate_over_enumeration(self, uninorms_by_e):
        for e, us in uninorms_by_e(3).items():
            for u in us:
                if e >= 1:
                    t = underlying_tnorm(u)
                    assert t.e == e
                    assert validate_uninorm(t.table, t.e).verdict
                if e <= 2:
                    s = underlying_tconorm(u)
                    assert s.e == 0
                    assert validate_uninorm(s.table, s.e).verdict

    def test_empty_restrictions_refused(self):
        with pytest.raises(EmptyRestrictionError):
            underlying_tnorm(dual(min_tnorm(3)))  # e = 0
        with pytest.raises(EmptyRestrictionError):
            underlying_tconorm(min_tnorm(3))  # e = n

    # the plain constructor takes any symmetric table, so a square can leak
    # out of its subchain; a closed restriction skips OpTable's structural
    # check, but one that leaks still takes it, and it refuses the block
    def test_a_lower_square_above_e_is_refused(self):
        rows = [[max(x, y) for y in range(5)] for x in range(5)]
        rows[0][1] = rows[1][0] = 3
        with pytest.raises(StructureError) as caught:
            underlying_tnorm(Uninorm(table_of(rows), 2))
        assert str(caught.value) == "row 0, entry 1: value 3 outside 0..2"

    def test_an_upper_square_below_e_is_refused(self):
        rows = [[min(x, y) for y in range(5)] for x in range(5)]
        rows[3][4] = rows[4][3] = 1
        with pytest.raises(StructureError) as caught:
            underlying_tconorm(Uninorm(table_of(rows), 2))
        assert str(caught.value) == "row 1, entry 2: value -1 outside 0..2"

    def test_internality_on_region_is_a_consequence(self, uninorms_by_e):
        for n in (3, 4):
            for e, us in uninorms_by_e(n).items():
                for u in us:
                    for x in range(n + 1):
                        for y in range(n + 1):
                            if oracles.region_of(x, y, e) == oracles.OFF_DIAGONAL:
                                assert min(x, y) <= u(x, y) <= max(x, y)


class TestCheckedConstructor:
    def test_checked_rejects_invalid(self):
        rows = mutate(idem_min(4, 2), 2, 3, 2)
        with pytest.raises(InvalidUninormError, match="^table fails") as raised:
            Uninorm.checked(table_of(rows), 2)
        assert raised.value.subject == "table"
        assert not raised.value.report.verdict

    def test_checked_names_its_subject(self):
        rows = mutate(idem_min(4, 2), 2, 3, 2)
        with pytest.raises(InvalidUninormError, match="^u2 fails") as raised:
            Uninorm.checked(table_of(rows), 2, subject="u2")
        assert raised.value.subject == "u2"

    def test_checked_accepts_valid(self):
        u = Uninorm.checked(idem_min(4, 2).table, 2)
        assert u.e == 2

    def test_scale_needs_positive_n(self):
        with pytest.raises(StructureError):
            ChainScale(0)

    @pytest.mark.parametrize("flag", (True, False))
    def test_a_bool_is_no_scale(self, flag):
        # True would pass as 1 and equal ChainScale(1)
        with pytest.raises(StructureError, match=f"got {flag}$"):
            ChainScale(flag)

    @pytest.mark.parametrize("flag", (True, False, 1.0))
    def test_a_bool_or_float_is_no_neutral_element(self, flag):
        # True would pass as 1, and render as "neutral": true and as
        # "neutral True", which the parser refuses; 1.0 as "neutral 1.0"
        with pytest.raises(StructureError, match=f"^neutral index {flag} is not an integer$"):
            Uninorm(idem_min(2, 1).table, flag)


class TestCheckReport:
    def test_verdict_must_match_violations(self):
        from dataclasses import fields

        from unichain import CheckReport, Violation

        # the verdict is read off the violations, so the two cannot disagree
        assert [f.name for f in fields(CheckReport)] == ["violations"]
        assert CheckReport.from_violations([]).verdict
        assert not CheckReport.from_violations([Violation("neutrality", (1,))]).verdict
