"""Cyclic banded solver against the dense oracle."""

import math
import re

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, solve_banded

from dispersive_compact import banded
from dispersive_compact.banded import (
    DENSE_LIMIT,
    CyclicBandedSolver,
    SingularOperatorError,
    check_invertible,
    dense_oracle_solve,
)

RNG = np.random.default_rng(1234)


def test_small_tridiagonal_matches_dense():
    solver = CyclicBandedSolver(7, 0.25)
    rhs = RNG.normal(size=7)
    x = solver.solve(rhs)
    ref = dense_oracle_solve(solver.dense(), rhs)
    assert np.max(np.abs(x - ref)) < 1e-13


CATALOGUED_BANDS = [
    (205 / 472, 0.0),     # node third derivative, tridiagonal
    (-1261 / 3530, 0.0),  # dual third derivative
    (3 / 8, 0.0),         # node first derivative
    (799 / 2739, -557 / 5478),  # pentadiagonal
    (10 / 21, 5 / 126),   # interpolation, pentadiagonal
    (0.4, 0.0),           # filter LHS
]


@pytest.mark.parametrize("alpha,beta", CATALOGUED_BANDS)
def test_catalogued_bands_match_oracle(alpha, beta):
    for n in (8, 13, 64):
        solver = CyclicBandedSolver(n, alpha, beta)
        rhs = RNG.normal(size=n)
        x = solver.solve(rhs)
        ref = dense_oracle_solve(solver.dense(), rhs)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(x - ref)) / scale < 1e-11


def test_hundred_random_systems_match_oracle():
    for _ in range(100):
        n = int(RNG.integers(8, 65))
        alpha = float(RNG.uniform(-0.3, 0.3))
        beta = float(RNG.uniform(-0.05, 0.05)) if RNG.random() < 0.5 else 0.0
        solver = CyclicBandedSolver(n, alpha, beta)
        rhs = RNG.normal(size=n)
        x = solver.solve(rhs)
        ref = dense_oracle_solve(solver.dense(), rhs)
        scale = max(np.max(np.abs(ref)), 1.0)
        assert np.max(np.abs(x - ref)) / scale < 1e-11


def test_identity_when_alpha_beta_zero():
    solver = CyclicBandedSolver(16, 0.0, 0.0)
    rhs = RNG.normal(size=16)
    assert np.array_equal(solver.solve(rhs), rhs)


def test_multiple_right_hand_sides():
    solver = CyclicBandedSolver(12, 0.3)
    rhs = RNG.normal(size=(12, 5))
    x = solver.solve(rhs)
    assert x.shape == (12, 5)
    for j in range(5):
        assert np.allclose(x[:, j], solver.solve(rhs[:, j]))


@pytest.mark.parametrize("n, alpha, beta", [(2, 0.3, 0.0), (4, 0.3, 0.01)])
def test_solver_refuses_a_system_smaller_than_its_band(n, alpha, beta):
    with pytest.raises(ValueError, match=f"n={n} too small for bandwidth"):
        CyclicBandedSolver(n, alpha, beta)


def test_solve_refuses_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(ValueError, match="rhs length 11 != n=12"):
        CyclicBandedSolver(12, 0.3).solve(np.ones(11))


def test_dense_oracle_refuses_a_system_above_its_size_limit():
    with pytest.raises(ValueError, match="limited to n <= 512"):
        dense_oracle_solve(np.eye(513), np.ones(513))


def test_singular_band_detected():
    # 1 + 2*(1/2)*cos(w) vanishes at w = pi
    with pytest.raises(SingularOperatorError):
        check_invertible(0.5, 0.0)
    with pytest.raises(SingularOperatorError):
        CyclicBandedSolver(16, 0.5)


def test_singular_band_between_sample_points_detected():
    # D(c) = 1 + 2*alpha*c + 2*beta*(2c^2 - 1) touches zero at its vertex
    # c = -alpha/(4*beta), i.e. at w = 0.955..., which no uniform grid hits
    alpha, beta = -math.sqrt(0.48), 0.3
    with pytest.raises(SingularOperatorError):
        check_invertible(alpha, beta)
    with pytest.raises(SingularOperatorError):
        CyclicBandedSolver(64, alpha, beta)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=-1.0, max_value=1.0),
    beta=st.floats(min_value=-0.5, max_value=0.5),
)
def test_invertibility_agrees_with_dense_sampling(alpha, beta):
    omega = np.linspace(0.0, np.pi, 20001)
    d = 1.0 + 2.0 * alpha * np.cos(omega) + 2.0 * beta * np.cos(2.0 * omega)
    tol = 1e-10  # check_invertible's own margin
    try:
        check_invertible(alpha, beta)
    except SingularOperatorError:
        # |dD/dw| <= 2|alpha| + 4|beta| <= 4, so the sampled extremes lie
        # within 4 * step / 2 of the true ones
        slack = tol + 2.0 * (omega[1] - omega[0])
        assert np.min(d) <= slack and np.max(d) >= -slack
    else:
        assert np.all(d >= tol - 1e-14) or np.all(d <= -tol + 1e-14)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=48),
    alpha=st.floats(min_value=-0.35, max_value=0.35),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_solve_then_multiply_recovers_rhs(n, alpha, seed):
    solver = CyclicBandedSolver(n, alpha)
    rhs = np.random.default_rng(seed).normal(size=n)
    x = solver.solve(rhs)
    back = solver.dense() @ x
    assert np.max(np.abs(back - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def _band_oracle(ab, n):
    """The truncated band solve whose bits the solver keeps: scipy's
    ``solve_banded``, except for a tridiagonal band above DENSE_LIMIT, which
    is solved by LAPACK's positive-definite LDL^T (``dpttrf``/``dpttrs``)."""
    p = len(ab) // 2
    if p == 2 or n <= DENSE_LIMIT:
        return lambda b: solve_banded((p, p), ab, b)
    d, e, info = lapack.dpttrf(ab[1], ab[0, 1:])
    assert info == 0
    return lambda b: lapack.dpttrs(d, e, b)[0]


def _flushed(g, n):
    """The corner columns as the solver keeps them: above DENSE_LIMIT, with
    their subnormal entries set to zero."""
    if n > DENSE_LIMIT:
        g = np.where(np.abs(g) < np.finfo(float).tiny, 0.0, g)
    return g


@pytest.mark.parametrize("alpha,beta", [
    (205 / 472, 0.0), (-1261 / 3530, 0.0), (0.375, 0.0), (0.4, 0.0),
    (799 / 2739, -557 / 5478), (10 / 21, 5 / 126), (0.45, 0.06),
])
def test_factored_solve_is_bit_identical_to_solve_banded(alpha, beta):
    # the dense operator bits the acceptance tables rest on were built by
    # scipy's solve_banded; the stored LAPACK factor must reproduce them.
    # A tridiagonal band above DENSE_LIMIT has dpttrs's bits instead
    p = 2 if beta else 1
    rng = np.random.default_rng(17)
    for n in (2 * p + 1, 8, 20, 240, 2049, 4097):
        solver = CyclicBandedSolver(n, alpha, beta)
        ab = solver._ab.copy()
        band_solve = _band_oracle(ab, n)

        def oracle(b):
            if b.ndim == 2:  # each column as its own vector solve
                return np.column_stack([oracle(col) for col in b.T])
            y = band_solve(b)
            return y - solver._g @ (solver._cap_inv @ (solver._vt @ y))

        rows = [*range(p), *range(n - p, n)]  # the corner rows of the _g build
        assert np.array_equal(solver._g, _flushed(
            band_solve(np.eye(n)[:, rows]), n))
        cases = [rng.normal(size=n) * 10.0 ** rng.uniform(-5, 4)
                 for _ in range(20)]
        cases += [np.eye(n)[:, j] for j in {0, 1, n // 2, n - 1}]
        cases.append(rng.normal(size=(n, 7)))
        for b in cases:
            before = b.copy()
            assert np.array_equal(solver.solve(b), oracle(b)), n
            assert np.array_equal(b, before)
        assert np.array_equal(solver._ab, ab)


@pytest.mark.parametrize("alpha,beta", CATALOGUED_BANDS)
def test_flushing_subnormal_corner_columns_keeps_the_solve_bits(alpha, beta):
    # the flushed entries lie far below one ulp of any solution entry that a
    # generic right-hand side produces; at n = 4097 TDCNCS-T8 has 2858 of them
    rng = np.random.default_rng(5)
    for n in (2049, 4097):
        solver = CyclicBandedSolver(n, alpha, beta)
        p = solver.bandwidth
        band_solve = _band_oracle(solver._ab, n)
        rows = [*range(p), *range(n - p, n)]
        g = band_solve(np.eye(n)[:, rows])
        assert np.count_nonzero(g) > np.count_nonzero(solver._g)
        for _ in range(10):
            b = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 4)
            y = band_solve(b)
            assert np.array_equal(solver.solve(b),
                                  y - g @ (solver._cap_inv @ (solver._vt @ y)))


# the four catalogued tridiagonal bands (TDCNCS-T8, TDCCS-T8, CNCS-T8,
# CCS-T8) and the filter strengths nearest 1/2
LARGE_BANDS = [205 / 472, -1261 / 3530, 3 / 8, -3 / 20, 0.49, -0.49]


@pytest.mark.parametrize("alpha", LARGE_BANDS)
def test_large_tridiagonal_solve_agrees_with_solve_banded(alpha):
    # above DENSE_LIMIT the LDL^T solve rounds apart from solve_banded's LU.
    # Worst measured over these cases: 4.5e-16 of max|x| apart (3.5e-16 on
    # the catalogued bands) and a residual of 2.3e-16 of (1 + 2|alpha|)
    # max|x|; the bounds leave a margin of ~4x
    rng = np.random.default_rng(31)
    for n in (DENSE_LIMIT + 1, 2049, 4097):
        solver = CyclicBandedSolver(n, alpha)
        g = solve_banded((1, 1), solver._ab, np.eye(n)[:, [0, n - 1]])
        for _ in range(20):
            b = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 4)
            x = solver.solve(b)
            y = solve_banded((1, 1), solver._ab, b)
            want = y - g @ (solver._cap_inv @ (solver._vt @ y))
            scale = np.max(np.abs(want))
            assert np.max(np.abs(x - want)) <= 2e-15 * scale, n
            residual = x + alpha * (np.roll(x, 1) + np.roll(x, -1)) - b
            assert np.max(np.abs(residual)) <= (
                1e-15 * (1 + 2 * abs(alpha)) * np.max(np.abs(x))), n


def test_dense_path_solvers_keep_their_subnormal_corner_columns():
    # dense matrices are built from unit vectors, whose solves do reach the
    # subnormal tail: TDCCS-T4's band (alpha = 1/14) at the largest dense size
    solver = CyclicBandedSolver(DENSE_LIMIT, 1 / 14)
    tiny = np.abs(solver._g) < np.finfo(float).tiny
    assert np.any(tiny & (solver._g != 0.0))


# below DENSE_LIMIT a tridiagonal band is factored by dgttrf's recurrence in
# Python and swept for a matrix right-hand side in numpy: the catalogued
# tridiagonal bands and the filter strengths -0.2 and 0.49
SMALL_BANDS = [alpha for alpha, beta in CATALOGUED_BANDS if beta == 0.0]
SMALL_BANDS += [-0.2, 0.49]


@pytest.mark.parametrize("alpha", SMALL_BANDS)
def test_small_tridiagonal_solver_has_the_lapack_bits(alpha):
    rng = np.random.default_rng(23)
    for n in (3, 8, 20, 192, DENSE_LIMIT):
        solver = CyclicBandedSolver(n, alpha)
        *factor, info = lapack.dgttrf(np.full(n - 1, alpha), np.ones(n),
                                      np.full(n - 1, alpha))
        assert info == 0
        for got, want in zip(solver._factor, factor, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

        def trs(b):
            return lapack.dgttrs(*factor, b)[0]

        # Fortran order, as dgttrs returns it: ``g @ w`` reaches BLAS through
        # the transposition that the LAPACK-factored solver uses
        g = trs(np.eye(n)[:, [0, n - 1]])
        assert solver._g.flags.f_contiguous
        assert solver._g.tobytes() == g.tobytes()
        block = rng.normal(size=(n, 6))
        block[:, 1] = -0.0
        block[n // 2, 2] = -np.inf  # 0 * inf: the zero du2 term still counts
        with np.errstate(invalid="ignore"):
            swept = solver._band_solve(block)
        assert swept.flags.f_contiguous
        assert swept.tobytes() == trs(block).tobytes()
        # vector solves go to dgttrs with the same factor
        for _ in range(20):
            b = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 4)
            y = trs(b)
            want = y - g @ (solver._cap_inv @ (solver._vt @ y))
            assert solver.solve(b).tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha,beta", [*CATALOGUED_BANDS, (0.0, 0.0)])
def test_solve_columns_is_solve_on_each_column(alpha, beta):
    # one sweep of the block, then the corner correction column by column:
    # one matrix product over all columns would round differently
    rng = np.random.default_rng(29)
    for n in (8, 150, DENSE_LIMIT, DENSE_LIMIT + 5):
        solver = CyclicBandedSolver(n, alpha, beta)
        block = rng.normal(size=(n, 9)) * 10.0 ** rng.uniform(-5, 4, size=9)
        got = solver.solve(block)
        want = np.column_stack([solver.solve(col) for col in block.T])
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), n


# a tridiagonal band swept in numpy, one solved by dpttrs, a pentadiagonal
# band and bandwidth 0
@pytest.mark.parametrize("n, alpha, beta", [
    (120, 205 / 472, 0.0), (DENSE_LIMIT + 5, 205 / 472, 0.0),
    (150, 799 / 2739, -557 / 5478), (120, 0.0, 0.0)])
def test_solve_into_out_has_the_bytes_of_solve(n, alpha, beta):
    # out given, and out is rhs: a contiguous vector (which LAPACK
    # overwrites), a dual parity's strided rows and a block; without out,
    # rhs keeps its bytes
    solver = CyclicBandedSolver(n, alpha, beta)
    rng = np.random.default_rng(n)
    fine = rng.normal(size=2 * n)
    for rhs in (rng.normal(size=n), fine[1::2], rng.normal(size=(n, 5))):
        rhs_bytes, other_parity = rhs.tobytes(), fine[0::2].tobytes()
        want = solver.solve(rhs)
        assert rhs.tobytes() == rhs_bytes
        out = np.empty_like(want)
        assert solver.solve(rhs, out) is out
        assert out.tobytes() == want.tobytes()
        assert rhs.tobytes() == rhs_bytes
        assert solver.solve(rhs, rhs) is rhs
        assert rhs.tobytes() == want.tobytes()
        assert fine[0::2].tobytes() == other_parity


def test_missing_lapack_extension_names_the_directory_searched(monkeypatch,
                                                                tmp_path):
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    banded._lapack.cache_clear()
    try:
        with pytest.raises(ImportError,
                           match=re.escape(str(tmp_path / "linalg"))):
            banded._lapack()
    finally:
        banded._lapack.cache_clear()
