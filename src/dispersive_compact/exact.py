"""Exact derivation of compact finite-difference coefficients.

All stencils are described by a :class:`SchemeTemplate` whose tap offsets are
measured in units of h/2, so cell nodes sit at even offsets and cell centers
at odd offsets.  Coefficients are derived by Taylor matching and checked
against a built-in catalogue.  Each Taylor degree's condition is summed as one
row of integers, scaled by a positive factor, and the system is solved by
fraction-free elimination, so the only Fractions are the exact rational
coefficients, the unscaled ``order_conditions`` and the truncation constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

F = Fraction

LHS_SLOTS = ("one", "alpha", "beta")
RHS_SLOTS = ("a", "b", "c")
ALL_UNKNOWNS = ("a", "b", "c", "alpha", "beta")


class TemplateError(ValueError):
    """Raised for a structurally invalid stencil template."""


class DerivationError(ValueError):
    """Raised when the Taylor-matching system cannot be solved."""


class UnknownSchemeError(KeyError):
    """Raised as ``UnknownSchemeError(scheme_id, valid_ids)`` for an id that a
    lookup does not accept; the message names it and the ids it accepts."""

    def __str__(self):
        return (f"unknown scheme {self.args[0]!r}; "
                f"valid schemes: {', '.join(sorted(self.args[1]))}")


@dataclass(frozen=True)
class TapGroup:
    """One right-hand-side tap group scaled by a single free coefficient."""

    slot: str  # "a", "b" or "c"
    taps: tuple[tuple[int, Fraction], ...]  # (offset in h/2 units, weight)


@dataclass(frozen=True)
class SchemeTemplate:
    """Symbolic description of a compact stencil.

    derivative_order 0 denotes interpolation (even/symmetric taps); odd
    derivative orders require antisymmetric taps.
    """

    derivative_order: int
    lhs_offsets: tuple[tuple[int, str], ...]  # (offset in h/2 units, slot)
    rhs_groups: tuple[TapGroup, ...]
    grid_kind: str  # "node_only", "center_only" or "dual"

    def validate(self) -> None:
        lhs = {off: slot for off, slot in self.lhs_offsets}
        if len(lhs) != len(self.lhs_offsets):
            raise TemplateError("duplicate LHS offset")
        if lhs.get(0) != "one":
            raise TemplateError("LHS must contain the unit diagonal at offset 0")
        for off, slot in self.lhs_offsets:
            if slot not in LHS_SLOTS:
                raise TemplateError(f"unknown LHS slot {slot!r}")
            if off % 2 != 0:
                raise TemplateError("LHS offsets must be whole grid points")
            if lhs.get(-off) != slot:
                raise TemplateError(f"LHS not symmetric at offset {off}")
        odd = self.derivative_order % 2 == 1
        for group in self.rhs_groups:
            if group.slot not in RHS_SLOTS:
                raise TemplateError(f"unknown RHS slot {group.slot!r}")
            weights = dict(group.taps)
            if len(weights) != len(group.taps):
                raise TemplateError("duplicate tap offset")
            for off, w in group.taps:
                mirror = -w if odd else w
                if weights.get(-off) != mirror:
                    kind = "antisymmetric" if odd else "symmetric"
                    raise TemplateError(
                        f"group {group.slot!r} not {kind} at offset {off}"
                    )

    def flat_taps(self, coeffs: SchemeCoefficients, num=Fraction):
        """Sorted (offset, weight) taps with each group's coefficient applied.

        ``num`` converts coefficients and weights before they are multiplied
        and summed: ``Fraction`` keeps the taps exact; ``float`` gives the
        double-precision taps the operators apply, which can differ from the
        rounded exact taps in the last bit.
        """
        vals = coeffs.as_dict()
        taps: dict = {}
        for group in self.rhs_groups:
            cv = num(vals[group.slot])
            if cv == 0:
                continue
            for off, w in group.taps:
                taps[off] = taps.get(off, 0) + cv * num(w)
        return tuple(sorted(taps.items()))

    def check_grid(self, n: int) -> None:
        """Refuse N = ``n`` cells below the stencil's half-width in h/2 units:
        the one minimum-N rule of operators and circulant spectra, node-only
        and dual alike."""
        offsets = [off for off, _ in self.lhs_offsets]
        offsets += [off for g in self.rhs_groups for off, _ in g.taps]
        half_width = max(map(abs, offsets))
        if n < half_width:
            raise ValueError(
                f"N={n} too small for stencil half-width {half_width} (h/2 units)")

    def taylor_row(self, degree: int) -> tuple[tuple[int, ...], int]:
        """(row, scale): Taylor degree n's condition sum(coef * unknown) +
        const = 0 over (a, b, c, alpha, beta, const), times the positive
        scale 2^n n! L, L the lcm of the tap-weight denominators.  So an
        offset s adds L w s^n on the right and 2^d L s^(n-d) n!/(n-d)! on
        the left, all integers.  Summed once per (template, degree)."""
        rows = self._taylor_rows
        if degree not in rows:
            lcm, groups = self._integer_taps
            row = [0] * len(_COLUMNS)
            for slot, taps in groups:
                row[_COLUMN[slot]] -= sum(w * off ** degree for off, w in taps)
            d = self.derivative_order
            if degree >= d:
                lift = (lcm << d) * math.perm(degree, d)
                for off, slot in self.lhs_offsets:
                    row[_COLUMN[slot]] += lift * off ** (degree - d)
            rows[degree] = tuple(row), (lcm << degree) * math.factorial(degree)
        return rows[degree]

    def condition_rows(self, max_order: int) -> tuple:
        """The ``taylor_row`` of each order condition up to ``max_order``:
        degrees that vanish by parity or lie below the derivative order are
        checked to vanish (a positive scale keeps which entries are zero) and
        skipped.  Collected once per max order."""
        conditions = self._condition_rows.get(max_order)
        if conditions is not None:
            return conditions
        if max_order < 0 or max_order % 2 != 0:
            raise ValueError("max_order must be even and non-negative")
        d = self.derivative_order
        conditions = []
        for degree in range(0, d + max_order - 1):
            row, scale = self.taylor_row(degree)
            if (degree - d) % 2 == 1:
                # wrong parity: both sides must vanish identically
                if any(row):
                    raise TemplateError(f"parity violation at Taylor degree {degree}")
            elif degree < d:
                if any(row):
                    raise TemplateError(
                        f"RHS reproduces a spurious derivative of degree {degree}"
                    )
            else:
                conditions.append((row, scale))
        self._condition_rows[max_order] = conditions = tuple(conditions)
        return conditions

    @functools.cached_property
    def _integer_taps(self):
        """(L, ((slot, ((offset, L * weight), ...)), ...)) of the validated
        template, L the lcm of the tap-weight denominators."""
        self.validate()
        lcm = math.lcm(*(Fraction(w).denominator
                         for g in self.rhs_groups for _, w in g.taps))
        return lcm, tuple((g.slot, tuple((off, int(w * lcm)) for off, w in g.taps))
                          for g in self.rhs_groups)

    @functools.cached_property
    def _taylor_rows(self) -> dict:
        return {}

    @functools.cached_property
    def _condition_rows(self) -> dict:
        return {}


@dataclass(frozen=True)
class SchemeCoefficients:
    """The (a, b, c, alpha, beta) tuple of a catalogued or derived scheme."""

    a: Fraction
    b: Fraction
    c: Fraction
    alpha: Fraction
    beta: Fraction
    family: str
    formal_order: int

    def as_dict(self) -> dict[str, Fraction]:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "alpha": self.alpha,
            "beta": self.beta,
        }

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.family, "order": self.formal_order}
        for name, value in self.as_dict().items():
            out[name] = {"num": str(value.numerator), "den": str(value.denominator)}
        return out


@dataclass(frozen=True)
class TruncationLead:
    """Leading unmatched Taylor term Q * f^(n) * h^p of a scheme."""

    constant_q: Fraction
    derivative_index: int
    power_of_h: int

    @property
    def decimal(self) -> float:
        return float(self.constant_q)


# the entries of a Taylor row; the unit LHS diagonal "one" is its constant
_COLUMNS = ALL_UNKNOWNS + ("const",)
_COLUMN = {**{u: i for i, u in enumerate(_COLUMNS)}, "one": len(ALL_UNKNOWNS)}


def order_conditions(
    template: SchemeTemplate, max_order: int
) -> list[dict[str, Fraction]]:
    """Linear order conditions on {a, b, c, alpha, beta} up to ``max_order``.

    Each returned equation is a mapping unknown -> coefficient plus a
    ``"const"`` entry, with the convention  sum(coef * unknown) + const = 0.
    Degrees that vanish identically by parity are checked and skipped.  The
    list and its dicts are the caller's own.
    """
    return [{u: Fraction(v, scale) for u, v in zip(_COLUMNS, row)}
            for row, scale in template.condition_rows(max_order)]


def solve_fraction_free(rows, rhs) -> tuple[list[int], int]:
    """Solve the integer system ``rows @ x = rhs`` by fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968).

    Every division is exact, so the entries stay integers and each step's
    pivot is a minor of the row-swapped matrix.  Returns the numerators and
    the last pivot, that matrix's determinant: x = numerators / determinant.
    Raises ``DerivationError`` on a non-square or a singular system.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    if n != m:
        raise DerivationError(f"system is {n}x{m}, expected square")
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise DerivationError(f"singular system at column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        prow = aug[col]
        pv = prow[col]
        for r, row in enumerate(aug):
            if r != col:
                f = row[col]
                aug[r] = [(pv * v - f * w) // det for v, w in zip(row, prow)]
        det = pv
    return [row[n] for row in aug], det


def derive_coefficients(
    template: SchemeTemplate,
    zero_slots: frozenset[str] | set[str],
    target_order: int,
    family: str = "derived",
) -> SchemeCoefficients:
    """Solve the Taylor-matching system with the given slots pinned to zero."""
    zero_slots = frozenset(zero_slots)
    present = {g.slot for g in template.rhs_groups}
    present |= {slot for _, slot in template.lhs_offsets if slot != "one"}
    unknowns = [u for u in ALL_UNKNOWNS if u in present and u not in zero_slots]
    conditions = template.condition_rows(target_order)
    if len(conditions) != len(unknowns):
        raise DerivationError(
            f"{len(conditions)} conditions for {len(unknowns)} unknowns "
            f"(order {target_order}, free: {unknowns})"
        )
    cols = [_COLUMN[u] for u in unknowns]
    nums, det = solve_fraction_free(
        [[row[j] for j in cols] for row, _ in conditions],
        [-row[-1] for row, _ in conditions])
    for degree, (row, _) in enumerate(conditions):
        # the condition times its scale and the determinant
        if row[-1] * det + sum(row[j] * x for j, x in zip(cols, nums)) != 0:
            raise DerivationError(f"nonzero residual in condition {degree}")
    values = dict.fromkeys(ALL_UNKNOWNS, F(0))
    values.update((u, F(x, det)) for u, x in zip(unknowns, nums))
    return SchemeCoefficients(family=family, formal_order=target_order, **values)


def leading_truncation_error(
    template: SchemeTemplate, coeffs: SchemeCoefficients
) -> TruncationLead:
    """First unmatched Taylor residual of the scheme formula.

    The constant is the raw per-equation residual (left side minus right
    side), not divided by the implicit LHS row sum.
    """
    d = template.derivative_order
    values = [getattr(coeffs, u) for u in ALL_UNKNOWNS]
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    degree = d + coeffs.formal_order
    for _ in range(16):
        row, scale = template.taylor_row(degree)
        # the residual times the row's scale and the common denominator
        residual = row[-1] * den + sum(r * x for r, x in zip(row, nums))
        if residual != 0:
            return TruncationLead(
                constant_q=Fraction(residual, den * scale),
                derivative_index=degree,
                power_of_h=degree - d,
            )
        degree += 2
    raise DerivationError("no unmatched Taylor degree found")


# ---------------------------------------------------------------------------
# stencil templates
# ---------------------------------------------------------------------------

def _group(slot: str, taps: dict[int, Fraction]) -> TapGroup:
    return TapGroup(slot=slot, taps=tuple(sorted(taps.items())))


def _odd_group(slot: str, half: dict[int, Fraction]) -> TapGroup:
    taps = dict(half)
    taps.update({-off: -w for off, w in half.items()})
    return _group(slot, taps)


def _even_group(slot: str, half: dict[int, Fraction]) -> TapGroup:
    taps = dict(half)
    taps.update({-off: w for off, w in half.items() if off != 0})
    return _group(slot, taps)


_PENTA_LHS = ((-4, "beta"), (-2, "alpha"), (0, "one"), (2, "alpha"), (4, "beta"))
_TRI_LHS = ((-2, "alpha"), (0, "one"), (2, "alpha"))

TDCNCS_TEMPLATE = SchemeTemplate(
    derivative_order=3,
    lhs_offsets=_PENTA_LHS,
    rhs_groups=(
        _odd_group("a", {4: F(1, 2), 2: F(-1)}),
        _odd_group("b", {6: F(1, 8), 2: F(-3, 8)}),
        _odd_group("c", {8: F(1, 20), 2: F(-1, 5)}),
    ),
    grid_kind="node_only",
)

TDCCCS_TEMPLATE = SchemeTemplate(
    derivative_order=3,
    lhs_offsets=_PENTA_LHS,
    rhs_groups=(
        _odd_group("a", {3: F(1), 1: F(-3)}),
        _odd_group("b", {5: F(1, 5), 1: F(-1)}),
        _odd_group("c", {7: F(1, 14), 1: F(-1, 2)}),
    ),
    grid_kind="center_only",
)

TDCCS_TEMPLATE = SchemeTemplate(
    derivative_order=3,
    lhs_offsets=_PENTA_LHS,
    rhs_groups=(
        _odd_group("a", {2: F(4), 1: F(-8)}),
        _odd_group("b", {3: F(8, 5), 2: F(-12, 5)}),
        _odd_group("c", {5: F(8, 35), 2: F(-4, 7)}),
    ),
    grid_kind="dual",
)

TDCCS1_TEMPLATE = SchemeTemplate(
    derivative_order=3,
    lhs_offsets=_PENTA_LHS,
    rhs_groups=(
        _odd_group("a", {2: F(4), 1: F(-8)}),
        _odd_group("b", {3: F(8, 5), 2: F(-12, 5)}),
        _odd_group("c", {5: F(8, 15), 4: F(-2, 3)}),
    ),
    grid_kind="dual",
)

TDCCS2_TEMPLATE = SchemeTemplate(
    derivative_order=3,
    lhs_offsets=_PENTA_LHS,
    rhs_groups=(
        _odd_group("a", {2: F(4), 1: F(-8)}),
        _odd_group("b", {4: F(6, 7), 3: F(-8, 7)}),
        _odd_group("c", {5: F(8, 15), 4: F(-2, 3)}),
    ),
    grid_kind="dual",
)

TDCCS3_TEMPLATE = SchemeTemplate(
    derivative_order=3,
    lhs_offsets=_PENTA_LHS,
    rhs_groups=(
        _odd_group("a", {2: F(4), 1: F(-8)}),
        _odd_group("b", {4: F(6, 7), 3: F(-8, 7)}),
        _odd_group("c", {5: F(8, 35), 2: F(-4, 7)}),
    ),
    grid_kind="dual",
)

# midpoint interpolation; offsets measured from the target cell center
CI_TEMPLATE = SchemeTemplate(
    derivative_order=0,
    lhs_offsets=_PENTA_LHS,
    rhs_groups=(
        _even_group("a", {1: F(1, 2)}),
        _even_group("b", {3: F(1, 2)}),
        _even_group("c", {5: F(1, 2)}),
    ),
    grid_kind="center_only",
)

# first-derivative companions used for the convective term
CNCS_TEMPLATE = SchemeTemplate(
    derivative_order=1,
    lhs_offsets=_TRI_LHS,
    rhs_groups=(
        _odd_group("a", {2: F(1, 2)}),
        _odd_group("b", {4: F(1, 4)}),
        _odd_group("c", {6: F(1, 6)}),
    ),
    grid_kind="node_only",
)

CCS_TEMPLATE = SchemeTemplate(
    derivative_order=1,
    lhs_offsets=_TRI_LHS,
    rhs_groups=(
        _odd_group("a", {1: F(1)}),
        _odd_group("b", {2: F(1, 2)}),
        _odd_group("c", {3: F(1, 3)}),
    ),
    grid_kind="dual",
)

_FAMILY_TEMPLATES: dict[str, SchemeTemplate] = {
    "TDCNCS": TDCNCS_TEMPLATE,
    "TDCCCS": TDCCCS_TEMPLATE,
    "TDCCS": TDCCS_TEMPLATE,
    "TDCCS-1": TDCCS1_TEMPLATE,
    "TDCCS-2": TDCCS2_TEMPLATE,
    "TDCCS-3": TDCCS3_TEMPLATE,
    "CI": CI_TEMPLATE,
    "CNCS": CNCS_TEMPLATE,
    "CCS": CCS_TEMPLATE,
}

# pattern suffix -> (slots pinned to zero, formal order)
VARIANT_CONSTRAINTS: dict[str, tuple[frozenset[str], int]] = {
    "E2": (frozenset({"b", "c", "alpha", "beta"}), 2),
    "E4": (frozenset({"c", "alpha", "beta"}), 4),
    "E6": (frozenset({"alpha", "beta"}), 6),
    "T4": (frozenset({"b", "c", "beta"}), 4),
    "T6": (frozenset({"c", "beta"}), 6),
    "T8": (frozenset({"beta"}), 8),
    "P6": (frozenset({"b", "c"}), 6),
    "P8": (frozenset({"c"}), 8),
    "P10": (frozenset(), 10),
}


def _table(family: str, rows: dict[str, tuple]) -> dict[str, SchemeCoefficients]:
    out = {}
    for suffix, (a, b, c, alpha, beta, order) in rows.items():
        name = f"{family}-{suffix}"
        out[name] = SchemeCoefficients(
            a=F(a), b=F(b), c=F(c), alpha=F(alpha), beta=F(beta),
            family=name, formal_order=order,
        )
    return out


_TDCNCS_ROWS = {
    "E2": (1, 0, 0, 0, 0, 2),
    "E4": (2, -1, 0, 0, 0, 4),
    "E6": (F(169, 60), F(-12, 5), F(7, 12), 0, 0, 6),
    "T4": (2, 0, 0, F(1, 2), 0, 4),
    "T6": (2, F(-1, 8), 0, F(7, 16), 0, 6),
    "T8": (F(2367, 1180), F(-167, 1180), F(1, 236), F(205, 472), 0, 8),
    "P6": (F(40, 21), 0, 0, F(4, 9), F(1, 126), 6),
    "P8": (F(160, 83), F(-5, 166), 0, F(147, 332), F(1, 166), 8),
    "P10": (F(18221, 5478), F(-1846, 913), F(5, 66), F(799, 2739), F(-557, 5478), 10),
}

_TDCCCS_ROWS = {
    "E2": (1, 0, 0, 0, 0, 2),
    "E4": (F(13, 8), F(-5, 8), 0, 0, 0, 4),
    "E6": (F(1299, 640), F(-499, 384), F(259, 960), 0, 0, 6),
    "T4": (F(4, 3), 0, 0, F(1, 6), 0, 4),
    "T6": (F(205, 166), F(35, 166), 0, F(37, 166), 0, 6),
    "T8": (F(1058279, 975200), F(96627, 195040), F(-24787, 487600), F(3229, 12190), 0, 8),
    "P6": (F(320, 233), 0, 0, F(134, 699), F(-7, 1398), 6),
    "P8": (F(49720, 79903), F(91400, 79903), 0, F(28838, 79903), F(3541, 159806), 8),
    "P10": (
        F(55463611, 150617762), F(677644345, 451853286), F(6301771, 225926643),
        F(93443398, 225926643), F(15505921, 451853286), 10,
    ),
}

_CI_ROWS = {
    "E2": (1, 0, 0, 0, 0, 2),
    "E4": (F(9, 8), F(-1, 8), 0, 0, 0, 4),
    "E6": (F(75, 64), F(-25, 128), F(3, 128), 0, 0, 6),
    "T4": (F(4, 3), 0, 0, F(1, 6), 0, 4),
    "T6": (F(3, 2), F(1, 10), 0, F(3, 10), 0, 6),
    "T8": (F(25, 16), F(5, 32), F(-1, 224), F(5, 14), 0, 8),
    "P6": (F(64, 45), 0, 0, F(2, 9), F(-1, 90), 6),
    "P8": (F(8, 5), F(8, 35), 0, F(2, 5), F(1, 70), 8),
    "P10": (F(5, 3), F(5, 14), F(1, 126), F(10, 21), F(5, 126), 10),
}

_TDCCS_ROWS = {
    "E4": (F(13, 8), F(-5, 8), 0, 0, 0, 4),
    "E6": (F(361, 192), F(-129, 128), F(49, 384), 0, 0, 6),
    "T4": (F(8, 7), 0, 0, F(1, 14), 0, 4),
    "T6": (5, -5, 0, F(-1, 2), 0, 6),
    "T8": (F(58021, 14120), F(-109007, 28240), F(1029, 28240), F(-1261, 3530), 0, 8),
    "P6": (F(320, 273), 0, 0, F(74, 819), F(-1, 234), 6),
    "P8": (F(19640, 4621), F(-353000, 87799), 0, F(-33746, 87799), F(-147, 175598), 8),
    "P10": (
        F(74390155, 19635801), F(-45752035, 13090534), F(4684435, 39271602),
        F(-5803114, 19635801), F(74747, 39271602), 10,
    ),
}

_CATALOGUE: dict[str, SchemeCoefficients] = {}
_CATALOGUE.update(_table("TDCNCS", _TDCNCS_ROWS))
_CATALOGUE.update(_table("TDCCCS", _TDCCCS_ROWS))
_CATALOGUE.update(_table("CI", _CI_ROWS))
_CATALOGUE.update(_table("TDCCS", _TDCCS_ROWS))

# coefficients not printed anywhere: derived on first use and cached
_DERIVED_VARIANTS = {
    "TDCCS-1": ("T4", "T6", "T8", "P10"),
    "TDCCS-2": ("T4", "T6", "T8", "P10"),
    "TDCCS-3": ("T4", "T6", "T8", "P10"),
    "CNCS": ("T8",),
    "CCS": ("T8",),
}
_derived_cache: dict[str, SchemeCoefficients] = {}

_ALIASES = {
    # the TE label marks Taylor-derived coefficients, the default route
    "TDCCS-TE": "TDCCS",
    "TDCCS-TE-1": "TDCCS-1",
    "TDCCS-TE-2": "TDCCS-2",
    "TDCCS-TE-3": "TDCCS-3",
}


def split_scheme_id(scheme_id: str) -> tuple[str, str]:
    """Split 'FAMILY-V' into family and variant suffix, resolving aliases."""
    family, dash, variant = scheme_id.rpartition("-")
    if not (dash and variant in VARIANT_CONSTRAINTS):
        raise UnknownSchemeError(scheme_id, catalogued_scheme_ids())
    return _ALIASES.get(family, family), variant


def catalogued_scheme_ids() -> list[str]:
    ids = sorted(_CATALOGUE)
    for family, variants in _DERIVED_VARIANTS.items():
        ids.extend(f"{family}-{v}" for v in variants)
    return ids


def builtin_scheme(scheme_id: str) -> tuple[SchemeTemplate, SchemeCoefficients]:
    """Look up a catalogued scheme; derived-only families are computed once."""
    family, variant = split_scheme_id(scheme_id)
    name = f"{family}-{variant}"
    if name in _CATALOGUE:
        return _FAMILY_TEMPLATES[family], _CATALOGUE[name]
    if variant not in _DERIVED_VARIANTS.get(family, ()):
        raise UnknownSchemeError(scheme_id, catalogued_scheme_ids())
    template = _FAMILY_TEMPLATES[family]
    if name not in _derived_cache:
        zero, order = VARIANT_CONSTRAINTS[variant]
        _derived_cache[name] = derive_coefficients(template, zero, order, family=name)
    return template, _derived_cache[name]


def family_template(family: str) -> SchemeTemplate:
    family = _ALIASES.get(family, family)
    try:
        return _FAMILY_TEMPLATES[family]
    except KeyError:
        raise UnknownSchemeError(family, _FAMILY_TEMPLATES) from None
