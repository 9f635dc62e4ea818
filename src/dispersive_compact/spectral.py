"""Fourier analysis of the compact schemes.

Every symbol is evaluated here: the grid (DFT) symbol of a periodic circulant
that operators apply, modified wavenumbers, interpolation/filter transfer
functions, bandwidth resolving efficiency, least-squares coefficient
optimization and circulant eigenvalues.

Conventions: for a derivative operator of odd order d acting on e^{ikx} the
per-mode factor is (i)^d psi(w) / h^d with w = kh, so a third derivative gives
-i*psi/h^3 and a first derivative +i*psi/h, with psi(w) = w^d + O(w^{d+p}).
Dual (node+center) schemes are analyzed on the fine grid of spacing h/2; node
modes correspond to w in [0, pi], the full fine spectrum extends the same trig
formulas beyond pi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .banded import SingularOperatorError, check_invertible


# ---------------------------------------------------------------------------
# taps on the grid, and the direct sums of a symbol B(w)/A(w)
# ---------------------------------------------------------------------------

def grid_taps(taps, grid_kind: str, derivative_order: int):
    """(index shift, weight) of each (h/2 offset, weight) tap on the grid the
    operator acts on: row i of its B reads value i + shift.

    Dual operators act on the interleaved fine grid, so the shift is the
    offset.  Node- and center-only operators act on N values; a tap at an odd
    offset reads the opposite-parity sequence, which occupies the same index
    range, so its offset rounds toward the output parity: up for an
    interpolation to centers, down for a derivative at nodes.
    """
    if grid_kind == "dual":
        return list(taps)
    if grid_kind not in ("node_only", "center_only"):
        raise ValueError(f"unknown grid kind {grid_kind!r}")
    out = []
    for off, w in taps:
        if off % 2 == 0:
            shift = off // 2
        elif derivative_order == 0:
            shift = (off + 1) // 2
        else:
            shift = (off - 1) // 2
        out.append((shift, w))
    return out


def lhs_symbol(alpha, beta, omega):
    """Symbol A(w) = 1 + 2*alpha*cos(w) + 2*beta*cos(2w) of the implicit band."""
    return 1.0 + 2.0 * alpha * np.cos(omega) + 2.0 * beta * np.cos(2.0 * omega)


def tap_sum(taps, omega):
    """Symbol B(w)/i = sum_{m>0} 2 w_m sin(m w/2) of antisymmetric (h/2 offset,
    weight) taps.  Only offsets m > 0 are read."""
    out = 0
    for m, w in taps:
        if m > 0:
            out = out + 2 * float(w) * np.sin(m * omega / 2)
    return out


def circulant_symbol(taps, alpha, beta, grid_kind: str, derivative_order: int,
                     size: int) -> np.ndarray:
    """DFT symbol of h^d A^{-1} B on a periodic grid of ``size`` points.

    Column convention: h^d D v = ifft(sigma * fft(v)).  Because row i of B
    reads v[i + shift], mode k of B v is v_k times sum w e^{+2 pi i shift k/size},
    the conjugate of the DFT of B's first row.  The LHS band acts within one
    parity, so its offsets step by 2 on the fine grid of a dual operator.
    The caller has refused a singular band (``check_invertible``).
    """
    row = np.zeros(size)
    for shift, w in grid_taps(taps, grid_kind, derivative_order):
        row[shift % size] += float(w)
    step = 2 if grid_kind == "dual" else 1
    den = lhs_symbol(float(alpha), float(beta),
                     2.0 * np.pi * step * np.arange(size) / size)
    return np.conj(np.fft.fft(row)) / den


@dataclass(frozen=True)
class SchemeSymbol:
    """Fourier symbol of a scheme (optionally CI-composed) or of a filter."""

    derivative_order: int
    grid_kind: str
    taps: tuple[tuple[int, Fraction], ...]
    alpha: Fraction
    beta: Fraction
    transfer: "SchemeSymbol | None" = None  # interpolation factor (CI variants)
    scheme_id: str | None = None  # the id that ``scheme_symbol`` resolved

    @functools.cached_property
    def _factored(self):
        """(k_r, P, A) with psi (odd d) or T (d = 0), before the CI transfer,
        equal to s * prod_r (y - r)^k_r * P(y)/A(y) for r = 0, 1, 2, where
        y = 1 - x, x = cos(w/2), s = sin(w/2) for odd taps and 1 for even
        ones: sin(m w/2) = s U_{m-1}(x), cos(m w/2) = T_m(x), A = 1 +
        2 alpha T_2(x) + 2 beta T_4(x).  The zeros at w = 0, pi and 2 pi, where
        the trigonometric sums cancel, are divided out exactly.

        The taps, alpha and beta are scaled by the LCM of their denominators,
        so P and A are built and divided in integers over that one common
        denominator.  Each coefficient is converted by ``c / scale``, the
        correctly rounded integer division that ``float(Fraction)`` does;
        P and A are float tuples in ascending powers of y, without zero
        high coefficients."""
        odd = self.derivative_order % 2 == 1
        count = max(4, *(m for m, _ in self.taps)) + 1
        cheb_t = _chebyshev_in_y(1, count)
        cheb_u = _chebyshev_in_y(2, count)
        scale = math.lcm(self.alpha.denominator, self.beta.denominator,
                         *(w.denominator for _, w in self.taps))

        def scaled(q):
            return q.numerator * (scale // q.denominator)

        sign = -1 if self.derivative_order % 4 == 3 else 1
        num = [0] * count
        for m, w in self.taps:
            if m > 0:
                basis = cheb_u[m - 1] if odd else cheb_t[m]
                weight = sign * 2 * scaled(w)
            elif m == 0 and not odd:
                basis, weight = cheb_t[0], scaled(w)
            else:
                continue
            num = [n + weight * c for n, c in zip(num, basis)]
        alpha, beta = 2 * scaled(self.alpha), 2 * scaled(self.beta)
        den = [scale * t0 + alpha * t2 + beta * t4
               for t0, t2, t4 in zip(cheb_t[0], cheb_t[2], cheb_t[4])]
        powers = []
        for root in (0, 1, 2):
            k_num, num = _divide_out(num, root)
            k_den, den = _divide_out(den, root)
            powers.append(k_num - k_den)
        return powers, _to_float(num, scale), _to_float(den, scale)

    def _evaluate(self, trig, buffers=()):
        """psi or T from the ``_trig`` factors of w, times the CI transfer,
        which reads the same factors.

        P(y)/A(y) is ``polyval``'s Horner rule with the same rounding, run in
        place in the buffer that it returns; a scalar w stays numpy-scalar
        arithmetic.  Given ``buffers``, arrays of w's shape, the result is
        formed in the first, A(y) and a power of y - r in the second, and the
        CI transfer in the ones after the first, so nothing is allocated: a
        symbol takes two, a CI symbol three."""
        factors, sine = trig
        powers, num, den = self._factored
        out, scratch = buffers[:2] if buffers else (None, None)
        out = _horner(num, factors[0], out)
        out /= _horner(den, factors[0], scratch)
        for factor, k in zip(factors, powers):
            if k == 1:  # x ** 1 = x exactly
                out *= factor
            elif k:
                out *= np.power(factor, k, out=scratch)
        if self.derivative_order % 2 == 1:
            out *= sine
        if self.transfer is not None:
            out *= self.transfer._evaluate(trig, buffers[1:])
        return out

    def require_odd(self):
        """Refuse an even order: it has no psi, efficiency or time step."""
        if self.derivative_order % 2 == 0:
            raise ValueError(f"{self.scheme_id}: psi, efficiency and stability"
                             f" are defined for odd derivative orders")

    def psi(self, omega):
        """Scaled modified wavenumber psi(w); w may exceed pi for fine modes."""
        self.require_odd()
        return self._evaluate(_trig(np.asarray(omega, dtype=float)))

    def transfer_function(self, omega):
        """Real per-mode amplitude T(w) of an interpolation or filter (d = 0)."""
        if self.derivative_order != 0:
            raise ValueError("transfer function requires derivative order 0")
        return self._evaluate(_trig(np.asarray(omega, dtype=float)))


def _trig(omega):
    """((y, y - 1, y - 2), sin(w/2)) with y = 1 - cos(w/2): all the
    transcendental work of a symbol at w, each y - r accurate near its own
    zero."""
    return ((2.0 * np.sin(omega / 4.0) ** 2, -np.cos(omega / 2.0),
             -2.0 * np.cos(omega / 4.0) ** 2), np.sin(omega / 2.0))


@functools.lru_cache(maxsize=None)
def _chebyshev_in_y(second: int, count: int):
    """T_k (second = 1) or U_k (second = 2) of x = 1 - y for k < count, as
    integer coefficient tuples of count terms in ascending powers of y."""
    polys = [(1,) + (0,) * (count - 1), (second, -second) + (0,) * (count - 2)]
    while len(polys) < count:
        p, q = polys[-1], polys[-2]  # 2 x p - q
        polys.append(tuple(2 * c - 2 * b - a
                           for c, b, a in zip(p, (0,) + p[:-1], q)))
    return tuple(polys)


def _divide_out(poly, root):
    """(j, q) with poly(y) = (y - root)^j q(y) and q(root) != 0, exactly."""
    j = 0
    while True:
        quotient, acc = [], 0
        for c in reversed(poly):  # synthetic division, highest power first
            acc = acc * root + c
            quotient.append(acc)
        if acc != 0:
            return j, poly
        poly, j = quotient[-2::-1], j + 1


def _to_float(poly, scale):
    """Integer coefficients over ``scale`` as floats, without zero high
    coefficients, which add only zeros to Horner's rule."""
    end = len(poly)
    while end > 1 and poly[end - 1] == 0:
        end -= 1
    return tuple(c / scale for c in poly[:end])


def _horner(coeffs, y, out=None):
    """``polyval(y, coeffs)``: the same operations, in one buffer, ``out``
    when given."""
    acc = y * 0 if out is None else np.multiply(y, 0, out=out)
    acc += coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= y
        acc += c
    return acc


def _symbol_from_parts(template, coeffs, transfer=None, scheme_id=None):
    return SchemeSymbol(
        derivative_order=template.derivative_order,
        grid_kind=template.grid_kind,
        taps=template.flat_taps(coeffs),
        alpha=coeffs.alpha,
        beta=coeffs.beta,
        transfer=transfer,
        scheme_id=scheme_id,
    )


_CI_FAMILIES = {
    # CI-composed analysis variants: centers supplied by the P10 compact
    # interpolation instead of independent evolution
    "TDCCCS-CI": "TDCCCS",
    "TDCCS-CI": "TDCCS",
    "TDCCS-CI-1": "TDCCS-1",
    "TDCCS-CI-2": "TDCCS-2",
    "TDCCS-CI-3": "TDCCS-3",
}

_LS_FAMILIES = {
    "TDCCS-LS": "TDCCS",
    "TDCCS-LS-1": "TDCCS-1",
    "TDCCS-LS-2": "TDCCS-2",
    "TDCCS-LS-3": "TDCCS-3",
}
# least squares needs a free implicit coefficient, alpha or beta
_LS_VARIANTS = ("T4", "T6", "T8", "P6", "P8", "P10")


def scheme_symbol(scheme_id: str) -> SchemeSymbol:
    """Resolve any catalogued / derived / CI / LS scheme id to its symbol,
    once per id.  The cache is ``_scheme_symbol``'s, so that this stays a
    plain function, which a tracer can wrap."""
    return _scheme_symbol(scheme_id)


@functools.cache
def _scheme_symbol(scheme_id: str) -> SchemeSymbol:
    transfer = None
    try:
        family, variant = exact.split_scheme_id(scheme_id)
        if family in _CI_FAMILIES:
            template, coeffs = exact.builtin_scheme(
                f"{_CI_FAMILIES[family]}-{variant}")
            transfer = scheme_symbol("CI-P10")
        elif family in _LS_FAMILIES and variant in _LS_VARIANTS:
            coeffs = ls_optimize(_LS_FAMILIES[family], variant)
            template = exact.family_template(_LS_FAMILIES[family])
        else:
            template, coeffs = exact.builtin_scheme(scheme_id)
    except exact.UnknownSchemeError:
        raise exact.UnknownSchemeError(scheme_id, analysis_scheme_ids()) from None
    return _symbol_from_parts(template, coeffs, transfer, f"{family}-{variant}")


def analysis_scheme_ids() -> list[str]:
    """All scheme ids accepted by the spectral-analysis entry points."""
    ids = set(exact.catalogued_scheme_ids())
    for fam, base in {**_CI_FAMILIES, **_LS_FAMILIES}.items():
        for bid in exact.catalogued_scheme_ids():
            b_fam, variant = exact.split_scheme_id(bid)
            if b_fam == base and (fam in _CI_FAMILIES or variant in _LS_VARIANTS):
                ids.add(f"{fam}-{variant}")
    return sorted(ids)


def modified_wavenumber(scheme_id: str, omega):
    """psi(w) for w in [0, pi] (fine-grid extension accepted beyond pi)."""
    return scheme_symbol(scheme_id).psi(omega)


# midpoint grid of the efficiency scan: avoids w = pi exactly, where
# T4-type denominators vanish
_SCAN_SAMPLES = 20000


@functools.lru_cache(maxsize=None)
def _scan_grid(d: int):
    """(w, w^d, _trig(w)) on the scan grid, built once per process and read-
    only, since every later scan shares them."""
    omega = (np.arange(1, _SCAN_SAMPLES + 1) - 0.5) * np.pi / _SCAN_SAMPLES
    omega_d = omega ** d
    trig = _trig(omega)
    for a in (omega, omega_d, *trig[0], trig[1]):
        a.flags.writeable = False
    return omega, omega_d, trig


@functools.lru_cache(maxsize=None)
def _scan_buffers():
    """(three float buffers, a mask) of the scan grid's size, built once per
    process: a scan forms psi, its CI transfer and its error in the buffers
    and marks the tolerance in the mask, so it allocates nothing.  Every
    scan shares them; the package runs one scan at a time per process."""
    return (tuple(np.empty(_SCAN_SAMPLES) for _ in range(3)),
            np.empty(_SCAN_SAMPLES, dtype=bool))


@dataclass(frozen=True)
class EfficiencyResult:
    """Shortest well-resolved wavenumber and the efficiency e = w_f/pi."""

    omega_f: float
    e: float


def resolving_efficiency(scheme_id: str, eps_t: float,
                         mode: str = "band_edge") -> EfficiencyResult:
    """Shortest well-resolved wavenumber w_f with |psi-w^3|/w^3 <= eps_t.

    ``band_edge`` (default) takes the largest w in tolerance: for optimized
    coefficients the error re-enters the tolerance band where psi - w^3
    changes sign, and the reported w_f sits at the upper band edge.
    ``strict`` instead demands the tolerance on all of (0, w*], i.e. stops at
    the first exceedance; the two agree whenever the error grows monotonely.
    Dense scan over (0, pi) followed by bisection to |dw| <= 1e-5.
    """
    if not eps_t > 0:
        raise ValueError(f"eps_t must be positive, got {eps_t}")
    if mode not in ("band_edge", "strict"):
        raise ValueError(f"unknown mode {mode!r}")
    sym = scheme_symbol(scheme_id)
    sym.require_odd()  # before the scan, which does not call psi
    d = sym.derivative_order

    def err(w):
        return np.abs(sym.psi(w) - w ** d) / w ** d

    def refine(lo, hi):
        # invariant: lo in tolerance, hi out of tolerance
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            if err(mid) > eps_t:
                hi = mid
            else:
                lo = mid
        return lo

    omega, omega_d, trig = _scan_grid(d)
    buffers, mask = _scan_buffers()
    scan = sym._evaluate(trig, buffers)  # |psi - w^d| / w^d in psi's buffer
    scan -= omega_d
    np.abs(scan, out=scan)
    scan /= omega_d
    if mode == "strict":
        np.greater(scan, eps_t, out=mask)
        k = mask.argmax()  # the first w out of tolerance, if any
        wf = np.pi
        if mask[k]:
            wf = refine(float(omega[max(k - 1, 0)]), float(omega[k]))
    else:
        np.less_equal(scan[::-1], eps_t, out=mask)
        j = mask.argmax()  # the last w in tolerance, counted from pi
        wf = float(omega[0])
        if mask[j]:
            k = _SCAN_SAMPLES - 1 - j
            wf = (np.pi if j == 0
                  else refine(float(omega[k]), float(omega[k + 1])))
    return EfficiencyResult(omega_f=wf, e=wf / np.pi)


# ---------------------------------------------------------------------------
# least-squares coefficient optimization
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gauss_legendre(points: int):
    from numpy.polynomial.legendre import leggauss  # only the LS integrals

    return leggauss(points)


def _quadrature(r: float, points: int):
    """Gauss-Legendre nodes and weights on [0, r*pi]."""
    nodes, weights = _gauss_legendre(points)
    upper = r * np.pi
    return 0.5 * upper * (nodes + 1.0), 0.5 * upper * weights


# Gauss-Legendre points of the LS integrals over [0, r*pi].  The integrands
# are products of short trigonometric sums and w^3, entire and slowly varying
# on a range of at most pi, so 100 points integrate them to rounding.  400 or
# 1000 points move the coefficients by < 1e-7 of a row's largest one, which is
# as closely as the normal equations (condition number up to ~3e6 at r = 1,
# ~3e9 at r = 0.5) fix them.
_LS_QUAD_POINTS = 100


def ls_optimize(family: str = "TDCCS", variant: str = "T8",
                r: float = 1.0) -> exact.SchemeCoefficients:
    """Least-squares coefficients minimizing E = int (psi - w^3)^2 D^2 dw.

    The weighting D^2 cancels the denominator, so the integrand is a
    quadratic form in the coefficients.  The stationarity system sets the
    partial derivatives with respect to the stencil coefficients (a, b, c as
    retained by the variant) to zero, with the implicit coefficients (alpha,
    and beta for the pentadiagonal variant) tied to them by the retained
    low-order accuracy conditions.

    The integrals are ``_LS_QUAD_POINTS`` = 100-point Gauss-Legendre sums,
    exact to rounding for these integrands (within ~5e-13 of a 1000-point
    rule).  The system's condition number reaches ~3e6 at r = 1 and ~3e9 at
    r = 0.5, and the coefficients are determined to ~1e-7 of the row's
    largest one: over r in [0.5, 1] a 1000-point rule moves them by up to
    7.7e-8 of it, and moves no resolving efficiency.
    Each (family, variant, r) is solved once per process.
    """
    if family not in _LS_FAMILIES.values():
        raise ValueError(f"LS optimization takes the families "
                         f"{', '.join(_LS_FAMILIES.values())}; got {family!r}")
    if variant not in _LS_VARIANTS:
        raise ValueError(f"LS optimization takes the variants "
                         f"{', '.join(_LS_VARIANTS)}, which keep a free alpha "
                         f"or beta; got {variant!r}")
    if not (0.0 < r <= 1.0):
        raise ValueError("r must be in (0, 1]")
    return _ls_optimize(family, variant, r, _LS_QUAD_POINTS)


@functools.cache
def _ls_optimize(family: str, variant: str, r: float,
                 points: int) -> exact.SchemeCoefficients:
    template = exact.family_template(family)
    zero, _order = exact.VARIANT_CONSTRAINTS[variant]
    lhs_free = [u for u in ("alpha", "beta") if u not in zero]
    rhs_free = [u for u in ("a", "b", "c") if u not in zero]
    conditions = exact.order_conditions(template, 2 * len(lhs_free))
    conditions = conditions[: len(lhs_free)]

    omega, wq = _quadrature(r, points)
    d = template.derivative_order
    sign = -1.0 if d % 4 == 3 else 1.0
    # per-slot numerator basis: the group's taps at unit coefficient
    nbases = {g.slot: tap_sum(g.taps, omega) for g in template.rhs_groups}
    lbases = {"alpha": 2.0 * np.cos(omega), "beta": 2.0 * np.cos(2.0 * omega)}
    target = omega ** d

    # residual (psi - w^d) * D = -w^d + sum_u x_u * phi_u over all frees; the
    # rows dE/dx_s = 0 of the stencil coefficients are one weighted Gram
    # product of the basis
    frees = rhs_free + lhs_free
    phi = np.array([sign * nbases[s] for s in rhs_free]
                   + [-target * lbases[lv] for lv in lhs_free])
    weighted = phi[: len(rhs_free)] * wq
    n = len(frees)
    mat = np.empty((n, n))
    rvec = np.empty(n)
    mat[: len(rhs_free)] = weighted @ phi.T
    rvec[: len(rhs_free)] = weighted @ target
    for i, eq in enumerate(conditions, start=len(rhs_free)):
        mat[i] = [float(eq[u]) for u in frees]
        rvec[i] = -float(eq["const"])
    try:
        x = np.linalg.solve(mat, rvec)
    except np.linalg.LinAlgError as err:
        raise exact.DerivationError(f"singular LS stationarity system: {err}")

    vals = {u: Fraction(0) for u in exact.ALL_UNKNOWNS}
    for u, xv in zip(frees, x):
        vals[u] = Fraction(float(xv))
    order = 2 * len(lhs_free)  # only the eliminated conditions hold exactly
    ls_family = {v: k for k, v in _LS_FAMILIES.items()}[family]
    return exact.SchemeCoefficients(
        family=f"{ls_family}-{variant}", formal_order=order, **vals
    )


def ls_misfit(family: str, coeffs: exact.SchemeCoefficients, r: float = 1.0,
              quad_points: int = _LS_QUAD_POINTS) -> float:
    """E of Eq-form int_0^{r pi} (psi - w^3)^2 D^2 dw for given coefficients."""
    template = exact.family_template(family)
    omega, wq = _quadrature(r, quad_points)
    sym = _symbol_from_parts(template, coeffs)
    d = template.derivative_order
    den = lhs_symbol(float(coeffs.alpha), float(coeffs.beta), omega)
    resid = (sym.psi(omega) - omega ** d) * den
    return float(np.sum(wq * resid * resid))


# ---------------------------------------------------------------------------
# circulant spectra and CFL bounds
# ---------------------------------------------------------------------------

def circulant_eigenvalues(scheme_id: str, n: int) -> np.ndarray:
    """Eigenvalues of the scaled operator h^d A^{-1} B via DFT of its rows.

    Dual schemes are analyzed as the combined fine-grid circulant of size 2N.
    Entry k is the operator's symbol at mode -k: the conjugate of
    ``CompactOperator.symbol`` times h^d.
    """
    sym = scheme_symbol(scheme_id)
    if sym.transfer is not None:
        raise ValueError("CI-composed symbols have no standalone circulant")
    family, _ = exact.split_scheme_id(scheme_id)
    exact.family_template(_LS_FAMILIES.get(family, family)).check_grid(n)
    size = 2 * n if sym.grid_kind == "dual" else n
    try:
        # as every operator's solver does, refuse a band singular off the grid
        check_invertible(float(sym.alpha), float(sym.beta))
        sigma = circulant_symbol(sym.taps, sym.alpha, sym.beta, sym.grid_kind,
                                 sym.derivative_order, size)
    except SingularOperatorError as err:
        raise SingularOperatorError(f"{scheme_id}: {err}") from None
    return np.conj(sigma)


IMAG_AXIS_LIMIT_TVDRK3 = 1.732
