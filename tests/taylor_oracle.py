"""Reference Taylor rows of a stencil template, summed in ``Fraction``.

This is the row builder ``exact`` used before it summed each Taylor row in
integers: it sums every tap's (s/2)^k / k! as an exact rational, for the
tests that pin the integer rows and the order conditions to it.
"""

import math
from fractions import Fraction as F

from dispersive_compact import exact


def lhs_taylor_coeff(template, degree):
    """Coefficient of f^(degree) * h^(degree-d) on the left-hand side.

    The LHS applies the d-th derivative at the listed offsets, so the degree-n
    contribution of offset s is (s/2)^(n-d) / (n-d)!.
    """
    d = template.derivative_order
    out = {"one": F(0), "alpha": F(0), "beta": F(0)}
    if degree < d:
        return out
    p = degree - d
    for off, slot in template.lhs_offsets:
        out[slot] += F(off, 2) ** p / math.factorial(p)
    return out


def rhs_taylor_coeff(template, degree):
    """Coefficient of f^(degree) * h^(degree-d) on the right-hand side."""
    out = {g.slot: F(0) for g in template.rhs_groups}
    fact = math.factorial(degree)
    for group in template.rhs_groups:
        acc = F(0)
        for off, w in group.taps:
            acc += w * F(off, 2) ** degree
        out[group.slot] += acc / fact
    return out


def condition(template, degree):
    """One degree's Taylor coefficients as sum(coef * unknown) + const = 0."""
    lhs = lhs_taylor_coeff(template, degree)
    eq = {k: F(0) for k in exact.ALL_UNKNOWNS}
    eq["alpha"] = lhs["alpha"]
    eq["beta"] = lhs["beta"]
    eq["const"] = lhs["one"]
    for slot, v in rhs_taylor_coeff(template, degree).items():
        eq[slot] -= v
    return eq


def order_conditions(template, max_order):
    """The conditions of the degrees below d + max_order - 1 that are neither
    of the wrong parity nor below the derivative order d."""
    d = template.derivative_order
    return [condition(template, degree)
            for degree in range(d, d + max_order - 1, 2)]


def leading_truncation_error(template, coeffs):
    """(residual, degree) of the first unmatched degree, as
    ``exact.leading_truncation_error`` reports it."""
    values = coeffs.as_dict()
    degree = template.derivative_order + coeffs.formal_order
    while True:
        eq = condition(template, degree)
        residual = eq["const"] + sum(eq[u] * values[u] for u in exact.ALL_UNKNOWNS)
        if residual != 0:
            return residual, degree
        degree += 2
