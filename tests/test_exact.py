"""Exact rational derivation of scheme coefficients."""

import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

import taylor_oracle
from dispersive_compact import exact


def order_conditions_single(template, degree):
    """The single linear constraint arising from one Taylor degree, from the
    same cached integer row as ``exact.order_conditions``."""
    row, scale = template.taylor_row(degree)
    return {u: F(v, scale) for u, v in zip(exact._COLUMNS, row)}


def test_template_validation_rejects_bad_parity():
    with pytest.raises(exact.TemplateError):
        exact.SchemeTemplate(
            derivative_order=3,
            lhs_offsets=((-2, "alpha"), (0, "one"), (2, "alpha")),
            rhs_groups=(exact.TapGroup("a", ((1, F(1)), (2, F(-1)))),),
            grid_kind="node_only",
        ).validate()


_TRI = ((-2, "alpha"), (0, "one"), (2, "alpha"))
_ODD_A = (exact.TapGroup("a", ((-2, F(-1)), (2, F(1)))),)


@pytest.mark.parametrize("lhs, rhs, message", [
    (((-2, "alpha"), (0, "one"), (0, "one"), (2, "alpha")), _ODD_A,
     "duplicate LHS offset"),
    (((-2, "alpha"), (0, "alpha"), (2, "alpha")), _ODD_A, "unit diagonal"),
    (((-2, "gamma"), (0, "one"), (2, "gamma")), _ODD_A, "unknown LHS slot"),
    (((-1, "alpha"), (0, "one"), (1, "alpha")), _ODD_A, "whole grid points"),
    (((-2, "alpha"), (0, "one"), (2, "beta")), _ODD_A, "not symmetric"),
    (_TRI, (exact.TapGroup("d", ((-2, F(-1)), (2, F(1)))),),
     "unknown RHS slot"),
    (_TRI, (exact.TapGroup("a", ((-2, F(-1)), (2, F(1)), (2, F(1)))),),
     "duplicate tap offset"),
])
def test_template_validation_names_each_structural_fault(lhs, rhs, message):
    template = exact.SchemeTemplate(derivative_order=3, lhs_offsets=lhs,
                                    rhs_groups=rhs, grid_kind="node_only")
    with pytest.raises(exact.TemplateError, match=message):
        template.validate()


def test_condition_rows_refuse_an_odd_max_order():
    with pytest.raises(ValueError, match="even and non-negative"):
        exact.TDCNCS_TEMPLATE.condition_rows(3)


def test_group_with_a_first_moment_is_a_spurious_derivative():
    # antisymmetric taps whose first moment is not zero reproduce u' inside
    # a third-derivative formula
    template = exact.SchemeTemplate(
        derivative_order=3, lhs_offsets=_TRI,
        rhs_groups=(exact.TapGroup("a", ((-1, F(-1)), (1, F(1)))),),
        grid_kind="node_only")
    with pytest.raises(exact.TemplateError, match="spurious derivative of degree 1"):
        template.condition_rows(2)


@pytest.mark.parametrize("call", [
    lambda: exact.builtin_scheme("TDCCS-1-E2"),  # a variant no one derives
    lambda: exact.family_template("NOPE"),
])
def test_unknown_family_or_variant_raises(call):
    with pytest.raises(exact.UnknownSchemeError):
        call()


def test_order_conditions_count_matches_unknowns():
    template = exact.TDCNCS_TEMPLATE
    conds = exact.order_conditions(template, 8)
    assert len(conds) == 4  # a, b, c, alpha for the tridiagonal T8 row
    for eq in conds:
        assert set(eq) == {"a", "b", "c", "alpha", "beta", "const"}


@pytest.mark.parametrize("scheme_id", exact.catalogued_scheme_ids())
def test_catalogue_rows_satisfy_their_order_conditions(scheme_id):
    template, coeffs = exact.builtin_scheme(scheme_id)
    values = coeffs.as_dict()
    for eq in exact.order_conditions(template, coeffs.formal_order):
        residual = eq["const"] + sum(
            eq[u] * values[u] for u in exact.ALL_UNKNOWNS
        )
        assert residual == 0


@pytest.mark.parametrize(
    "scheme_id,field,value",
    [
        ("TDCNCS-T8", "a", F(2367, 1180)),
        ("TDCNCS-T8", "alpha", F(205, 472)),
        ("TDCCCS-T8", "a", F(1058279, 975200)),
        ("TDCCS-T8", "a", F(58021, 14120)),
        ("TDCCS-T8", "alpha", F(-1261, 3530)),
        ("CI-P10", "c", F(1, 126)),
        ("CI-P10", "beta", F(5, 126)),
        ("TDCNCS-P10", "beta", F(-557, 5478)),
    ],
)
def test_catalogue_spot_values(scheme_id, field, value):
    _, coeffs = exact.builtin_scheme(scheme_id)
    assert coeffs.as_dict()[field] == value


def test_derivation_reproduces_catalogue_exactly():
    for scheme_id in exact.catalogued_scheme_ids():
        family, variant = exact.split_scheme_id(scheme_id)
        template = exact.family_template(family)
        zero_slots, order = exact.VARIANT_CONSTRAINTS[variant]
        derived = exact.derive_coefficients(
            template, zero_slots, order, family=scheme_id
        )
        _, tabulated = exact.builtin_scheme(scheme_id)
        assert derived.as_dict() == tabulated.as_dict(), scheme_id


def test_mutating_returned_conditions_leaves_derivation_exact():
    # the Taylor rows are cached per template; what callers get is theirs
    leads = {sid: exact.leading_truncation_error(*exact.builtin_scheme(sid))
             for sid in exact.catalogued_scheme_ids()}
    # and each (template, max_order) list is built once; what a caller gets
    # is a fresh list of fresh dicts
    for template in set(exact._FAMILY_TEMPLATES.values()):
        want = [dict(eq) for eq in exact.order_conditions(template, 12)]
        conditions = exact.order_conditions(template, 12)
        assert conditions == want
        conditions += [order_conditions_single(template, degree)
                       for degree in range(24)]
        for eq in conditions:
            for key in eq:
                eq[key] += 1
            eq["extra"] = F(7)
        assert exact.order_conditions(template, 12) == want
    test_derivation_reproduces_catalogue_exactly()
    for sid, lead in leads.items():
        assert exact.leading_truncation_error(*exact.builtin_scheme(sid)) == lead


def test_te_alias_resolves_to_taylor_row():
    _, via_alias = exact.builtin_scheme("TDCCS-TE-T8")
    _, direct = exact.builtin_scheme("TDCCS-T8")
    assert via_alias.as_dict() == direct.as_dict()


def test_unknown_scheme_raises():
    with pytest.raises(exact.UnknownSchemeError):
        exact.builtin_scheme("TDXXX-T8")


def test_overconstrained_target_order_raises():
    with pytest.raises(exact.DerivationError):
        exact.derive_coefficients(
            exact.TDCNCS_TEMPLATE, frozenset({"b", "c", "alpha", "beta"}), 8
        )


def test_truncation_lead_structure():
    template, coeffs = exact.builtin_scheme("TDCNCS-T8")
    lead = exact.leading_truncation_error(template, coeffs)
    assert lead.power_of_h == 8
    assert lead.derivative_index == 11
    assert lead.constant_q != 0


def test_coefficients_json_round_trip():
    # each coefficient as the numerator and denominator of its exact Fraction
    _, coeffs = exact.builtin_scheme("TDCCS-T8")
    want = {"a": F(58021, 14120), "b": F(-109007, 28240), "c": F(1029, 28240),
            "alpha": F(-1261, 3530), "beta": F(0)}
    assert coeffs.to_json_dict() == {
        "family": "TDCCS-T8", "order": 8,
        **{k: {"num": str(v.numerator), "den": str(v.denominator)}
           for k, v in want.items()},
    }


def test_derived_first_derivative_companions_exist():
    for scheme_id in ("CNCS-T8", "CCS-T8"):
        template, coeffs = exact.builtin_scheme(scheme_id)
        assert template.derivative_order == 1
        assert coeffs.formal_order == 8


def test_split_scheme_id():
    assert exact.split_scheme_id("TDCCS-1-T8") == ("TDCCS-1", "T8")
    assert exact.split_scheme_id("TDCNCS-P10") == ("TDCNCS", "P10")


def test_catalogued_ids_listed_once_before_and_after_derivation():
    before = exact.catalogued_scheme_ids()
    for scheme_id in before:
        exact.builtin_scheme(scheme_id)  # caches the derived-only families
    after = exact.catalogued_scheme_ids()
    assert after == before
    assert len(set(after)) == len(after) == 49


@pytest.mark.parametrize("family", list(exact._FAMILY_TEMPLATES))
def test_integer_rows_are_the_fraction_conditions_times_their_scale(family):
    # the integer rows against the Fraction sums they replaced
    template = exact.family_template(family)
    for degree in range(25):
        row, scale = template.taylor_row(degree)
        assert scale > 0 and all(type(v) is int for v in (*row, scale))
        assert order_conditions_single(template, degree) == \
            taylor_oracle.condition(template, degree), degree
    assert exact.order_conditions(template, 12) == \
        taylor_oracle.order_conditions(template, 12)


@pytest.mark.parametrize("scheme_id", exact.catalogued_scheme_ids())
def test_truncation_lead_is_the_fraction_residual(scheme_id):
    template, coeffs = exact.builtin_scheme(scheme_id)
    lead = exact.leading_truncation_error(template, coeffs)
    constant, degree = taylor_oracle.leading_truncation_error(template, coeffs)
    assert (lead.constant_q, lead.derivative_index) == (constant, degree)
    assert lead.power_of_h == degree - template.derivative_order


@pytest.mark.parametrize("scheme_id", ["TDCNCS-T8", "TDCCS-T8", "CCS-T8"])
def test_truncation_lead_search_steps_past_a_matched_degree(scheme_id):
    # no catalogued scheme is superconvergent, so only an understated order
    # makes the search step past a degree that the scheme matches
    template, coeffs = exact.builtin_scheme(scheme_id)
    understated = dataclasses.replace(coeffs,
                                      formal_order=coeffs.formal_order - 2)
    assert exact.leading_truncation_error(template, understated) == \
        exact.leading_truncation_error(template, coeffs)


def _solve(rows, rhs):
    nums, det = exact.solve_fraction_free(rows, rhs)
    assert all(type(v) is int for v in (*nums, det))
    return [F(x, det) for x in nums], det


def test_solver_names_the_column_of_a_singular_system():
    with pytest.raises(exact.DerivationError, match="singular system at column 1"):
        exact.solve_fraction_free([[1, 2, 3], [2, 4, 7], [3, 6, 1]], [1, 2, 3])
    with pytest.raises(exact.DerivationError, match="singular system at column 0"):
        exact.solve_fraction_free([[0, 1], [0, 2]], [1, 2])


def test_solver_refuses_a_system_that_is_not_square():
    with pytest.raises(exact.DerivationError, match="2x3, expected square"):
        exact.solve_fraction_free([[1, 2, 3], [4, 5, 6]], [1, 2])


def test_solver_swaps_rows_past_a_zero_leading_pivot():
    x, _ = _solve([[0, 2, 1], [3, 0, 0], [0, 0, 5]], [7, 6, 10])
    assert x == [F(2), F(5, 2), F(2)]


def test_solver_signs_the_solution_of_a_negative_determinant():
    x, det = _solve([[1, 2], [3, 4]], [5, 6])
    assert det == -2
    assert x == [F(-4), F(9, 2)]
    x, det = _solve([[-3]], [2])
    assert (x, det) == ([F(-2, 3)], -3)


def test_solver_is_exact_on_random_integer_systems():
    rng = random.Random(2101)
    for _ in range(200):
        n = rng.randint(1, 7)
        rows = [[rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(n)]
                for _ in range(n)]
        rhs = [rng.randint(-50, 50) for _ in range(n)]
        try:
            x, det = _solve(rows, rhs)
        except exact.DerivationError:
            assert np.linalg.matrix_rank(np.array(rows, dtype=float)) < n
            continue
        assert [sum(a * v for a, v in zip(row, x)) for row in rows] == rhs
        assert abs(det) == abs(round(np.linalg.det(np.array(rows, dtype=float))))


def test_largest_catalogue_denominators_are_derived_exactly():
    zero, order = exact.VARIANT_CONSTRAINTS["P10"]
    derived = exact.derive_coefficients(exact.TDCCCS_TEMPLATE, zero, order)
    assert derived.b == F(677644345, 451853286)
    assert derived.beta == F(15505921, 451853286)
    assert max(v.denominator for v in derived.as_dict().values()) == 451853286
