"""Application of compact derivative, interpolation and filter operators.

All data is periodic, and every operator is a circulant whose symbol comes
from ``spectral``.  Node-only operators act on length-N arrays; dual
operators act on the interleaved fine grid of 2N points (nodes at even fine
indices, cell centers at odd fine indices) so that the half-shifted center
update is the same stencil applied one fine point over.
"""

from __future__ import annotations

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
# factored banded solve (``apply_array``) is O(N) at any size.  One apply,
# banded vs FFT, same VM (us; TDCCS-T8 at the sizes 2N = 386, 4098 and 8194,
# TDCNCS-T8 at the others):
#
#   size     386   1021   2049   4097   4098   8194 |  385   2048   4096   8192
#   banded    35     40     74    155    114    248 |   26     72    150    371
#   FFT       62    149    307    249    662    516 |   18     34     74    162
#
# The FFT also won at the 13-smooth sizes 400, 1001, 4225 and 4400.  So
# ``apply`` uses the FFT at sizes whose prime factors are all <= 13 and the
# banded solve at the others.  Each operator picks its path once, on its
# first ``apply``.


def _fft_is_fast(size: int) -> bool:
    """Whether every prime factor of ``size`` is at most 13."""
    for p in (2, 3, 5, 7, 11, 13):
        while size % p == 0:
            size //= p
    return size == 1


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
        self.size = 2 * self.n if grid_kind == "dual" else self.n
        # the circulant's DFT symbol, scaled by h^-d: D v = ifft(symbol * fft(v))
        self.symbol = self._scale * circulant_symbol(
            taps, alpha, beta, grid_kind, derivative_order, self.size,
        )
        self._half_symbol = self.symbol[: self.size // 2 + 1]
        self._dense: np.ndarray | None = None

    def _rhs(self, values: np.ndarray) -> np.ndarray:
        # row i reads values[i + shift]: slices of one periodically padded copy
        # (values may be a block whose columns are applied one by one)
        pad, size = self._pad, len(values)
        padded = np.concatenate((values[size - pad:], values, values[:pad]))
        out = np.zeros(values.shape)
        for shift, w in self._grid_taps:
            out += w * padded[pad + shift: pad + shift + size]
        return out * self._scale

    def _check_size(self, values: np.ndarray) -> None:
        if len(values) != self.size:
            if self.grid_kind == "dual":
                raise ValueError("dual operator expects a fine array of length 2N")
            raise ValueError(f"expected {self.n} values, got {len(values)}")

    def apply_array(self, values: np.ndarray, out=None) -> np.ndarray:
        """Operator action on a raw array (fine-grid array for dual kind),
        by the O(N) cyclic banded solve.  Written into ``out`` when given."""
        self._check_size(values)
        rhs, solve = self._rhs(values), self.solver.solve
        if self.grid_kind == "dual":
            # each parity of the fine grid is its own cyclic system
            result = np.empty_like(rhs)
            result[0::2] = solve(rhs[0::2])
            result[1::2] = solve(rhs[1::2])
        else:
            result = solve(rhs)
        if out is None:
            return result
        out[...] = result
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
        if self.size <= DENSE_LIMIT:
            return self.dense_matrix().dot
        return self.apply_fft if _fft_is_fast(self.size) else self.apply_array

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
