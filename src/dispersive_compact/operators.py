"""Application of compact derivative, interpolation and filter operators.

All data is periodic, and every operator is a circulant whose symbol comes
from ``spectral``.  Node-only operators act on length-N arrays; dual
operators act on the interleaved fine grid of 2N points (nodes at even fine
indices, cell centers at odd fine indices) so that the half-shifted center
update is the same stencil applied one fine point over.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact
from .banded import DENSE_LIMIT, CyclicBandedSolver
from .spectral import SchemeSymbol, circulant_symbol, grid_taps


# Circulant sizes up to DENSE_LIMIT (384, declared in ``banded``, which
# factors the tridiagonal bands up to it in numpy and flushes subnormals in
# larger solvers) apply a cached dense matrix, by the matrix's own ``dot``
# method: the BLAS call of ``np.dot`` without its dispatch.  Measured on
# a 2-vCPU x86-64 VM with one BLAS thread, dense matvec vs FFT apply: 8.8 vs
# 14.2 us at 240, 20.7 vs 20.1 us at 384, 53.7 vs 16.9 us at 512, 1.27 ms vs
# 46 us at 2048 (a rerun had them cross between 240 and 320).  Near the limit
# the two differ by microseconds per apply.  The linear tables run at sizes up
# to 240, and their round-off-floor errors depend on the dense path's exact
# rounding.
#
# Above the limit the FFT's cost depends on how the size factors, while the
# factored banded solve (``apply_array``) is O(N) at any size.  One apply
# into ``out``, banded vs FFT, same VM, both rows in one run (us; TDCCS-T8
# at the sizes 2N = 386, 4098 and 8194, TDCNCS-T8 at the others):
#
#   size     386   1021   2049   4097   4098   8194 |  385   2048   4096   8192
#   banded    45     25     40     64     77    137 |   20     40     68    109
#   FFT       49    135    301    256    664    524 |   17     33     64    132
#
# So ``apply`` uses the FFT at sizes whose prime factors are all <= 13 and
# the banded solve at the others.  Of the 13-smooth sizes the FFT wins 385,
# 400, 2048 and 4096 (by 3-7 us; 400: 15 vs 20) and ties 1001 (26 vs 28),
# but the banded solve, with its taps paired and pre-scaled, wins 4225,
# 4400 and 8192 (69 vs 93, 68 vs 79, 109 vs 132 us; in each of three runs).
# The rule is kept: moving it would change the bits of runs at those sizes.
# Each operator picks its path once, on its first ``apply``.


def _applies_by_fft(size: int) -> bool:
    """Whether ``apply`` takes the FFT: above DENSE_LIMIT, prime factors <= 13."""
    if size <= DENSE_LIMIT:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        while size % p == 0:
            size //= p
    return size == 1


def _paired_taps(grid_taps, scale: float) -> list:
    """B's taps as (shift, weight * scale, pair) terms: a shift k > 0 is
    paired with the -k tap by ``np.subtract`` when its weight is opposite,
    by ``np.add`` when it is equal; any other tap stands alone (pair None)."""
    weights = dict(grid_taps)
    terms = []
    for shift, w in grid_taps:
        partner = weights.get(-shift) if shift else None
        pair = {-w: np.subtract, w: np.add}.get(partner)
        if pair is None or shift > 0:
            terms.append((shift, w * scale, pair))
    return terms


class CompactOperator:
    """A periodic circulant h^-d A^{-1} B lowered to double precision.

    Built from a catalogued scheme id; ``_init_circulant`` builds one from
    flat taps, (alpha, beta), derivative order and grid kind, as
    ``FilterOperator`` does.  Every apply takes and returns a plain array of
    ``size`` values: N for node_only/center_only kinds, the 2N-point fine
    array for the dual kind.
    """

    def __init__(self, scheme_id: str, n: int, h: float):
        template, coeffs = exact.builtin_scheme(scheme_id)
        template.check_grid(n)
        self._init_circulant(template.flat_taps(coeffs, float), coeffs.alpha,
                             coeffs.beta, template.derivative_order,
                             template.grid_kind, n, h)

    def _init_circulant(self, taps, alpha, beta, derivative_order: int,
                        grid_kind: str, n: int, h: float) -> None:
        self.derivative_order = derivative_order
        self.grid_kind = grid_kind
        self.n = int(n)
        self.h = float(h)
        self._grid_taps = grid_taps(taps, grid_kind, derivative_order)
        self._pad = max(abs(shift) for shift, _ in self._grid_taps)
        self.solver = CyclicBandedSolver(self.n, float(alpha), float(beta))
        self._scale = self.h ** (-derivative_order)
        self._terms = _paired_taps(self._grid_taps, self._scale)
        self.size = 2 * self.n if grid_kind == "dual" else self.n
        # the modes 0 to size // 2 of the DFT symbol, scaled by h^-d, which
        # rfft gives; irfft reads only the real part of modes 0 and size / 2
        half = self._scale * circulant_symbol(
            taps, alpha, beta, grid_kind, derivative_order, self.size,
        )[: self.size // 2 + 1]
        half.imag[[0, -1] if self.size % 2 == 0 else 0] = 0.0
        self._half_symbol = half
        self._dense: np.ndarray | None = None
        self._scaled: dict[float, CompactOperator] = {}

    @property
    def symbol(self) -> np.ndarray:
        """The circulant's DFT symbol, scaled by h^-d (and a ``scaled``
        factor): D v = ifft(symbol * fft(v)).  Formed on each read from the
        one stored half, the modes 0 to size // 2 that the FFT apply reads,
        by mirroring: symbol[-k] = conj(symbol[k])."""
        half = self._half_symbol
        return np.concatenate((half, half[self.size - len(half):0:-1].conj()))

    def _tap_sum(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The scaled B v, written into ``out`` (which may be ``values``):
        row i reads values[i + shift], a slice of one periodically padded
        copy (values may be a block whose columns are applied one by one)."""
        pad, size = self._pad, len(values)
        padded = np.concatenate((values[size - pad:], values, values[:pad]))

        def at(shift):
            return padded[pad + shift: pad + shift + size]

        def term(shift, w, pair, dest):
            if pair is None:
                return np.multiply(at(shift), w, dest)
            return np.multiply(pair(at(shift), at(-shift), dest), w, dest)

        first, *rest = self._terms
        term(*first, out)
        if rest:
            scratch = np.empty_like(out)
            for t in rest:
                np.add(out, term(*t, scratch), out)
        return out

    def _check_size(self, values: np.ndarray) -> None:
        if len(values) != self.size:
            if self.grid_kind == "dual":
                raise ValueError("dual operator expects a fine array of length 2N")
            raise ValueError(f"expected {self.n} values, got {len(values)}")

    def apply_array(self, values: np.ndarray, out=None) -> np.ndarray:
        """Operator action on a raw array (fine-grid array for dual kind),
        by the O(N) cyclic banded solve.  Written into ``out`` when given,
        which may be ``values``.

        B v is summed from one periodically padded copy of ``values``, by
        taps that carry h^-d (and a ``scaled`` factor) already: a pair of
        shifts +-k with opposite weights as w (v[i+k] - v[i-k]), with equal
        weights as w (v[i+k] + v[i-k]).  B v is summed into ``out``, which
        the band solve of a node operator's vector then overwrites (a dual
        parity's strided rows are solved in a copy), and the corner
        correction writes the result back into ``out``.  The solver gives each
        column of a block (the identity, for ``dense_matrix``) the bits of
        its own vector apply."""
        self._check_size(values)
        if out is None:
            out = np.empty(values.shape)
        self._tap_sum(values, out)
        # each parity of a dual operator's fine grid is its own cyclic system
        stride = 2 if self.grid_kind == "dual" else 1
        for parity in range(stride):
            rows = out[parity::stride]
            self.solver.solve(rows, rows)
        return out

    def apply_fft(self, values: np.ndarray, out=None) -> np.ndarray:
        """Operator action on a raw array of ``size`` values by real FFT; agrees
        with ``apply_array`` to round-off.  Written into ``out`` when given."""
        self._check_size(values)
        return np.fft.irfft(self._half_symbol * np.fft.rfft(values),
                            n=self.size, out=out)

    @functools.cached_property
    def apply(self):
        """``apply(values, out=None)``, the operator action as time loops
        apply it, by the path chosen for ``size`` on first use: the cached
        dense matrix's own ``dot`` up to DENSE_LIMIT; above, ``apply_fft`` at
        sizes whose FFT is fast and ``apply_array`` at the others.  The
        result is written into ``out`` when given, which may be ``values``."""
        if _applies_by_fft(self.size):
            return self.apply_fft
        return self.dense_matrix().dot if self.size <= DENSE_LIMIT else self.apply_array

    def minus(self, other: CompactOperator):
        """``apply(v, w, out)``, writing this operator's v minus ``other``'s
        w (of the same size) into ``out``, by this operator's ``apply`` path:
        on the FFT path one sum of half symbols, irfft(s rfft(v) + (-1 t)
        rfft(w)); on the others ``apply(v, out)``, then ``other``'s apply of
        w, into a buffer of its own, subtracted.  v and w keep their bytes."""
        multiply, add, subtract = np.multiply, np.add, np.subtract
        if _applies_by_fft(self.size):
            rfft, irfft, size = np.fft.rfft, np.fft.irfft, self.size
            sigma, tau = self._half_symbol, -1.0 * other._half_symbol

            def apply(v, w, out):
                spectrum, w_spectrum = rfft(v), rfft(w)
                multiply(sigma, spectrum, spectrum)
                multiply(tau, w_spectrum, w_spectrum)
                add(spectrum, w_spectrum, spectrum)
                return irfft(spectrum, n=size, out=out)

            return apply

        this, that, scratch = self.apply, other.apply, np.empty(other.size)

        def apply(v, w, out):
            this(v, out)
            return subtract(out, that(w, scratch), out)

        return apply

    def scaled(self, factor: float) -> CompactOperator:
        """This operator times ``factor``, built once per factor: it shares
        the solver, and carries taps times factor * h^-d, one stored half
        spectrum, factor times this one's, and a dense matrix of its own,
        built on first use.  Every path of a power-of-two factor gives
        ``factor`` times the unscaled apply."""
        if factor not in self._scaled:
            op = self._scaled[factor] = copy.copy(self)
            op.__dict__.pop("apply", None)  # bound to the parent's data
            op._scale = factor * self._scale
            op._terms = _paired_taps(self._grid_taps, op._scale)
            op._half_symbol = factor * self._half_symbol
            op._dense, op._scaled = None, {}
        return self._scaled[factor]

    def dense_matrix(self) -> np.ndarray:
        """The full circulant A^{-1} B action, cached: ``apply_array`` of
        the identity.  The solver gives each column of a block the bits of
        its own solve, so column j is ``apply_array`` of the j-th unit vector."""
        if self._dense is None:
            self._dense = self.apply_array(np.eye(self.size))
        return self._dense


def build_operator(scheme_id: str, n: int, h: float) -> CompactOperator:
    return CompactOperator(scheme_id, n, h)


# ---------------------------------------------------------------------------
# low-pass spatial filter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterSpec:
    """Tridiagonal low-pass filter: transfer T(0)=1 and T(pi)=0 by construction."""

    alpha_f: float
    order: int
    a_exact: tuple[Fraction, ...]  # a_0 ... a_N, N = order/2

    @functools.cached_property
    def symbol(self) -> SchemeSymbol:
        """Exact symbol of symmetric (h/2 offset, weight) taps a_0 at 0 and
        a_n/2 at +-2n, which sum to a_0 + sum a_n cos(n w).  Its band is
        alpha_f as derived: T(0) = 1 gives sum a_n = 1 + 2 alpha_f."""
        a = self.a_exact
        half = [(2 * n, a_n / 2) for n, a_n in enumerate(a) if n]
        taps = tuple(sorted([(0, a[0]), *half, *((-off, w) for off, w in half)]))
        return SchemeSymbol(derivative_order=0, grid_kind="node_only",
                            taps=taps, alpha=(sum(a) - 1) / 2,
                            beta=Fraction(0))

    def transfer(self, omega) -> np.ndarray:
        return self.symbol.transfer_function(omega)


def derive_filter(n_half_width: int, alpha_f: float) -> FilterSpec:
    """Filter coefficients of order 2*N on a 2N+1 point stencil.

    Taylor matching of degrees 0, 2, ..., 2N-2 plus annihilation of the
    Nyquist mode; solved exactly (alpha_f is taken as an exact rational).
    """
    if not abs(alpha_f) < 0.5:  # NaN too
        raise ValueError(f"|alpha_f| must be < 0.5, got {alpha_f}")
    if n_half_width < 1:
        raise ValueError("half width must be >= 1")
    nh = n_half_width
    af = Fraction(alpha_f).limit_denominator(10**12)
    # moment conditions sum a_n n^(2q) == LHS moment, and the Nyquist mode,
    # in integers: the right side times alpha_f's denominator
    rows = [[n ** (2 * q) for n in range(nh + 1)] for q in range(nh)]
    rows.append([(-1) ** n for n in range(nh + 1)])
    rhs = [af.denominator + 2 * af.numerator] + [2 * af.numerator] * (nh - 1) + [0]
    nums, det = exact.solve_fraction_free(rows, rhs)
    return FilterSpec(
        alpha_f=float(alpha_f),
        order=2 * nh,
        a_exact=tuple(Fraction(x, det * af.denominator) for x in nums),
    )


FILTER_ORDERS = {"F8": 4, "F10": 5, "F12": 6}


def filter_by_name(name: str, alpha_f: float) -> FilterSpec:
    if name not in FILTER_ORDERS:
        raise ValueError(f"unknown filter {name!r}; "
                         f"valid: {', '.join(sorted(FILTER_ORDERS))}")
    return derive_filter(FILTER_ORDERS[name], alpha_f)


class FilterOperator(CompactOperator):
    """A FilterSpec as a derivative-order-0 circulant.  The node kind filters N
    values; the dual kind filters the 2N-point fine array of a dual state, so
    that its node and center sequences are each filtered on their own."""

    def __init__(self, spec: FilterSpec, n: int, grid_kind: str = "node_only"):
        if n < spec.order + 1:
            raise ValueError(f"N={n} too small for filter width {spec.order // 2}")
        taps = [(off, float(w)) for off, w in spec.symbol.taps]
        # the scale h^0 is 1 for any h
        self._init_circulant(taps, spec.alpha_f, 0.0, 0, grid_kind, n, 1.0)
