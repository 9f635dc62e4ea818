"""Exact rational derivation of scheme coefficients."""

from fractions import Fraction as F

import pytest

from dispersive_compact import exact


def order_conditions_single(template, degree):
    """The single linear constraint arising from one Taylor degree, through
    the same cached rows as ``exact.order_conditions``."""
    return exact._condition(*exact._taylor_rows(template)(degree))


def test_template_validation_rejects_bad_parity():
    with pytest.raises(exact.TemplateError):
        exact.SchemeTemplate(
            derivative_order=3,
            lhs_offsets=((-2, "alpha"), (0, "one"), (2, "alpha")),
            rhs_groups=(exact.TapGroup("a", ((1, F(1)), (2, F(-1)))),),
            grid_kind="node_only",
        ).validate()


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
