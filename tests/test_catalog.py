"""Catalog constructors: closed forms, validity grid, duality, spec strings."""

import pytest

import oracles
from helpers import dual, table_of
from unichain import ChainScale, FamilySpec, from_string, make, validate_uninorm
from unichain import catalog
from unichain.catalog import parse_family_spec
from unichain.core import MAX_SCALE
from unichain.errors import (
    ConstructionError,
    InternalConsistencyError,
    SearchLimitError,
    SpecSyntaxError,
)


def spec(family, n, e, t=None, s=None):
    return FamilySpec(family, ChainScale(n), e, t=t, s=s)


class TestClosedForms:
    def test_umin_idempotent_is_idem_min(self):
        u = make(spec("umin-idempotent", 4, 2))
        expected = tuple(
            tuple(max(x, y) if x >= 2 and y >= 2 else min(x, y) for y in range(5))
            for x in range(5)
        )
        assert u.rows == expected

    def test_umin_of_min_and_bounded_sum_is_luk_upper(self):
        t = make(spec("min", 2, 2))
        s = make(spec("lukasiewicz-tconorm", 2, 0))
        u = make(spec("umin-of", 4, 2, t=t, s=s))
        expected = tuple(
            tuple(min(4, x + y - 2) if x >= 2 and y >= 2 else min(x, y) for y in range(5))
            for x in range(5)
        )
        assert u.rows == expected
        assert u.rows == from_string("luk-upper(e=2,n=4)").rows

    def test_lukasiewicz_tnorm_closed_form(self):
        u = make(spec("lukasiewicz-tnorm", 4, 4))
        assert u.rows == tuple(tuple(max(0, x + y - 4) for y in range(5)) for x in range(5))
        assert u.e == 4

    def test_drastic_families(self):
        t = make(spec("drastic-tnorm", 3, 3))
        assert t.rows == tuple(
            tuple(min(x, y) if max(x, y) == 3 else 0 for y in range(4)) for x in range(4)
        )
        s = make(spec("drastic-tconorm", 3, 0))
        assert s.rows == dual(t).rows


class TestValidityGrid:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_family_on_every_admissible_e(self, n):
        built = []
        for family in ("min", "lukasiewicz-tnorm", "drastic-tnorm"):
            built.append(make(spec(family, n, n)))
        for family in ("max", "lukasiewicz-tconorm", "drastic-tconorm"):
            built.append(make(spec(family, n, 0)))
        for family in ("umin-idempotent", "umax-idempotent"):
            for e in range(1, n):
                built.append(make(spec(family, n, e)))
        for e in range(1, n):
            for tf in ("min", "lukasiewicz-tnorm", "drastic-tnorm"):
                for sf in ("max", "lukasiewicz-tconorm", "drastic-tconorm"):
                    t = make(spec(tf, e, e))
                    s = make(spec(sf, n - e, 0))
                    built.append(make(spec("umin-of", n, e, t=t, s=s)))
                    built.append(make(spec("umax-of", n, e, t=t, s=s)))
        for u in built:
            report = validate_uninorm(u.table, u.e)
            assert report.verdict, report.violations
            assert oracles.associative_holds(u.rows)

    def test_mutations_get_caught(self):
        u = make(spec("umin-idempotent", 4, 2))
        rows = [list(r) for r in u.rows]
        rows[3][4] = rows[4][3] = 3  # break the t-conorm part
        report = validate_uninorm(table_of(rows), 2)
        assert not report.verdict


class TestDualityIdentity:
    @pytest.mark.parametrize("n,e", [(4, 2), (4, 1), (5, 2), (3, 1)])
    def test_dual_of_umin_is_umax_of_duals(self, n, e):
        t = make(spec("lukasiewicz-tnorm", e, e))
        s = make(spec("lukasiewicz-tconorm", n - e, 0))
        left = dual(make(spec("umin-of", n, e, t=t, s=s)))
        right = make(spec("umax-of", n, n - e, t=dual(s), s=dual(t)))
        assert left.rows == right.rows and left.e == right.e

    def test_idempotent_families_are_idempotent_and_internal(self):
        from unichain import is_idempotent, is_locally_internal

        for n in (3, 4, 5):
            for e in range(1, n):
                for family in ("umin-idempotent", "umax-idempotent"):
                    u = make(spec(family, n, e))
                    assert is_idempotent(u)
                    assert is_locally_internal(u)


class TestConsistency:
    def test_tnorm_needs_top_neutral(self):
        with pytest.raises(ConstructionError):
            make(spec("min", 4, 2))

    def test_tconorm_needs_bottom_neutral(self):
        with pytest.raises(ConstructionError):
            make(spec("max", 4, 2))

    def test_proper_families_need_interior_neutral(self):
        with pytest.raises(ConstructionError):
            make(spec("umin-idempotent", 4, 0))
        with pytest.raises(ConstructionError):
            make(spec("umin-idempotent", 4, 4))

    def test_sub_operation_scale_mismatch(self):
        t = make(spec("min", 3, 3))  # wrong subchain: needs L_2
        s = make(spec("max", 2, 0))
        with pytest.raises(ConstructionError, match="t-norm on L_2"):
            make(spec("umin-of", 4, 2, t=t, s=s))

    def test_unexpected_sub_operations(self):
        t = make(spec("min", 2, 2))
        with pytest.raises(ConstructionError, match="no T/S"):
            make(spec("min", 2, 2, t=t))

    def test_unknown_family(self):
        with pytest.raises(ConstructionError, match="unknown family"):
            make(spec("product", 4, 4))

    @pytest.mark.parametrize("family, build", [
        ("min", lambda: make(spec("umin-idempotent", 5, 3))),
        ("min", lambda: make(spec("umax-idempotent", 5, 3))),
        ("min", lambda: from_string("umax(T=min,S=drastic,e=3,n=5)")),
        ("min", lambda: from_string("umin(T=luk,S=max,e=2,n=5)")),  # S = max, min's twin
        ("lukasiewicz-tnorm", lambda: from_string("umin(T=luk,S=max,e=3,n=5)")),
        ("lukasiewicz-tnorm", lambda: from_string("luk-upper(e=2,n=5)")),
        ("drastic-tnorm", lambda: from_string("umin(T=min,S=drastic,e=2,n=5)")),
    ])
    def test_a_broken_sub_operation_fails_the_whole_table_check(self, monkeypatch,
                                                                family, build):
        # T(x, n) = x - 1 for 0 < x < n, so n is no longer neutral (and 0 no
        # longer neutral for the twin t-conorm).  The sub-operations are not
        # checked on their own: only the check of the whole table sees it.
        formula = catalog._TNORMS[family]
        monkeypatch.setitem(catalog._TNORMS, family, lambda x, y, n: (
            formula(x, y, n) - (0 < min(x, y) < n == max(x, y))))
        with pytest.raises(InternalConsistencyError, match="produced an invalid table"):
            build()


class TestSpecStrings:
    def test_round_trips_through_grammar(self):
        assert from_string("idemmin(e=2,n=4)").rows == make(spec("umin-idempotent", 4, 2)).rows
        assert from_string("idemmax(e=2,n=4)").rows == make(spec("umax-idempotent", 4, 2)).rows
        luk_upper = make(spec("umin-of", 4, 2, t=make(spec("min", 2, 2)),
                              s=make(spec("lukasiewicz-tconorm", 2, 0))))
        assert from_string("luk-upper(e=2,n=4)").rows == luk_upper.rows
        assert from_string("umin(T=min,S=luk,e=2,n=4)").rows == luk_upper.rows
        assert from_string("min(n=3)").e == 3
        assert from_string("max(n=3)").e == 0
        assert from_string("LUK_TNORM(n=4)").rows == make(spec("lukasiewicz-tnorm", 4, 4)).rows

    def test_nested_sub_specs(self):
        u = from_string("umax(T=luk-tnorm(n=2),S=max,e=2,n=5)")
        assert u.e == 2
        assert u(1, 1) == 0  # Lukasiewicz below e
        assert u(0, 5) == 5  # max on the off-diagonal region

    def test_caret_positions(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse_family_spec("idemin(e=2,n=4)")
        assert err.value.pos == 0
        assert "^" in err.value.caret_message()
        with pytest.raises(SpecSyntaxError) as err:
            parse_family_spec("idemmin(q=2,n=4)")
        assert err.value.pos == 8
        with pytest.raises(SpecSyntaxError):
            parse_family_spec("idemmin(e=2,n=4) trailing")
        with pytest.raises(SpecSyntaxError):
            parse_family_spec("umin(T=max,S=max,e=2,n=4)")  # max is not a t-norm

    @pytest.mark.parametrize("text, error, message, pos", [
        ("", SpecSyntaxError, "expected a name", 0),
        ("idemmin(=2,n=4)", SpecSyntaxError, "expected a name", 8),
        ("idemmin(e 2,n=4)", SpecSyntaxError, "expected '='", 10),
        ("idemmin(e=2,n=4", SpecSyntaxError, "expected ')'", 15),
        ("idemmin(e=x,n=4)", SpecSyntaxError, "expected an integer", 10),
        ("umin(T=min(T=min),S=max,e=2,n=4)", SpecSyntaxError,
         "nested T/S inside a sub-operation is not supported", 7),
        ("umin(T=min(e=2),S=max,e=2,n=4)", SpecSyntaxError,
         "sub-operations fix their own neutral element", 7),
        ("min(n=0)", SpecSyntaxError, "n must be at least 1", 0),
        ("luk-upper(n=4)", SpecSyntaxError, "luk-upper needs an explicit e", 0),
        ("luk-upper(e=4,n=4)", ConstructionError, "luk-upper needs 0 < e < n, got e=4, n=4", None),
        ("idemmin(n=4)", SpecSyntaxError, "idemmin needs an explicit e", 0),
        ("umin(T=min,S=max,e=0,n=4)", ConstructionError, "umin-of needs 0 < e < n, got e=0, n=4",
         None),
        ("umin(T=min,e=2,n=4)", SpecSyntaxError, "umin needs both T= and S=", 0),
        ("min(n=4,T=min)", SpecSyntaxError, "min takes no T/S arguments", 0),
        ("luk-upper(T=drastic,S=max,e=2,n=4)", SpecSyntaxError,
         "luk-upper takes no T/S arguments", 0),
        ("min(n=²)", SpecSyntaxError, "expected an integer", 6),
        ("idemmin(e=\u0661,n=\u0664)", SpecSyntaxError, "expected an integer", 10),
        ("idemmin(e=2,n=\u0664)", SpecSyntaxError, "expected an integer", 14),
        ("min(n=+3)", SpecSyntaxError, "expected an integer", 6),
        ("idemmin(e=2,n=4,n=5)", SpecSyntaxError, "repeated key 'n'", 16),
        ("umin(T=min,t=luk,S=max,e=2,n=4)", SpecSyntaxError, "repeated key 't'", 11),
        ("umin(T=min(n=2,N=2),S=max,e=2,n=4)", SpecSyntaxError, "repeated key 'n'", 15),
    ])
    def test_every_grammar_error(self, text, error, message, pos):
        with pytest.raises(error) as err:
            parse_family_spec(text)
        assert str(err.value) == message
        assert getattr(err.value, "pos", None) == pos

    def test_scales_above_the_input_limit_are_refused(self):
        assert parse_family_spec(f"min(n={MAX_SCALE})").scale.n == MAX_SCALE
        with pytest.raises(SearchLimitError, match=f"n={MAX_SCALE + 1} refused"):
            parse_family_spec(f"idemmin(e=2,n={MAX_SCALE + 1})")

    def test_grammar_requires_n(self):
        with pytest.raises(SpecSyntaxError, match="explicit n"):
            parse_family_spec("idemmin(e=2)")

    def test_sub_scale_must_fit_slot(self):
        with pytest.raises(SpecSyntaxError, match="does not fit"):
            parse_family_spec("umin(T=min(n=3),S=max,e=2,n=4)")
