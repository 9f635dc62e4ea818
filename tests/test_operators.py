"""Periodic operator application: derivatives, interpolation, filters."""

import pathlib

import numpy as np
import pytest

from dispersive_compact import exact, spectral
from dispersive_compact.banded import SingularOperatorError, check_invertible
from dispersive_compact.operators import (
    DENSE_LIMIT,
    FILTER_ORDERS,
    CompactOperator,
    FilterOperator,
    build_operator,
    derive_filter,
    filter_by_name,
)


def _sin_grid(n, k=1):
    h = 2 * np.pi / n
    x = h * np.arange(n)
    return np.sin(k * x), h, x


def test_node_third_derivative_of_sin():
    u, h, x = _sin_grid(64, k=3)
    op = build_operator("TDCNCS-T8", 64, h)
    out = op.apply_array(u)
    exact_vals = -27.0 * np.cos(3 * x)
    assert np.max(np.abs(out - exact_vals)) < 1e-7


def test_dual_third_derivative_of_sin():
    n = 64
    h = 2 * np.pi / n
    fine = 0.5 * h * np.arange(2 * n)
    op = build_operator("TDCCS-T8", n, h)
    out = op.apply_array(np.sin(2 * fine))
    # nodes at even fine points, centers at odd ones
    assert np.max(np.abs(out[0::2] - (-8.0 * np.cos(2 * fine[0::2])))) < 1e-9
    assert np.max(np.abs(out[1::2] - (-8.0 * np.cos(2 * fine[1::2])))) < 1e-9


def test_first_derivative_companions():
    u, h, x = _sin_grid(48, k=2)
    op = build_operator("CNCS-T8", 48, h)
    out = op.apply_array(u)
    assert np.max(np.abs(out - 2.0 * np.cos(2 * x))) < 1e-8


def test_interpolation_hits_midpoints():
    u, h, x = _sin_grid(32)
    ci = build_operator("CI-P10", 32, h)
    mid = ci.apply_array(u)
    assert np.max(np.abs(mid - np.sin(x + h / 2))) < 1e-12


def test_constants_are_annihilated():
    n, h = 24, 0.3
    const = np.full(n, 5.0)
    for scheme_id in ("TDCNCS-T8", "CNCS-T8", "TDCNCS-P10"):
        out = build_operator(scheme_id, n, h).apply_array(const)
        assert np.max(np.abs(out)) < 1e-12


def test_formal_order_observed_on_grid_refinement():
    errs = []
    for n in (16, 32):
        u, h, x = _sin_grid(n)
        op = build_operator("TDCNCS-T8", n, h)
        errs.append(np.max(np.abs(op.apply_array(u) + np.cos(x))))
    rate = np.log2(errs[0] / errs[1])
    assert 7.5 < rate < 8.5


def test_dense_matrix_equals_apply():
    n = 32
    h = 2 * np.pi / n
    op = build_operator("TDCNCS-T8", n, h)
    rng = np.random.default_rng(7)
    v = rng.normal(size=n)
    assert np.allclose(op.dense_matrix() @ v, op.apply_array(v), atol=1e-11)


def _invertible(scheme_id):
    _, coeffs = exact.builtin_scheme(scheme_id)
    try:
        check_invertible(float(coeffs.alpha), float(coeffs.beta))
    except SingularOperatorError:
        return False
    return True


# every catalogued scheme whose implicit band can be solved: node-only,
# center-only (both cross-parity rounding directions) and dual kinds
KERNEL_IDS = [sid for sid in exact.catalogued_scheme_ids() if _invertible(sid)]


# the catalogued operators with a tridiagonal band (or none), whose dense
# matrices are built by the numpy sweeps of ``banded`` at dense-path sizes
TRIDIAGONAL_IDS = [sid for sid in KERNEL_IDS
                   if exact.builtin_scheme(sid)[1].beta == 0]
DENSE_NS = (13, 20, 21, 40, 120, 150, 192)


def _assert_dense_matrix_is_unit_vector_applies(op):
    # byte for byte, so signed zeros count; C order, as matvec's BLAS call
    # depends on the layout
    eye = np.eye(op.size)
    want = np.column_stack([op.apply_array(eye[:, j]) for j in range(op.size)])
    got = op.dense_matrix()
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes(), op.n


@pytest.mark.parametrize("scheme_id", TRIDIAGONAL_IDS)
def test_dense_matrix_is_apply_array_on_unit_vectors(scheme_id):
    for n in DENSE_NS:
        _assert_dense_matrix_is_unit_vector_applies(
            build_operator(scheme_id, n, 2 * np.pi / n))


@pytest.mark.parametrize("name", ["F8", "F10", "F12"])
@pytest.mark.parametrize("alpha_f", [0.4, -0.2, 0.49])
@pytest.mark.parametrize("grid_kind", ["node_only", "dual"])
def test_filter_dense_matrix_is_apply_array_on_unit_vectors(name, alpha_f,
                                                            grid_kind):
    spec = filter_by_name(name, alpha_f)
    for n in DENSE_NS:
        _assert_dense_matrix_is_unit_vector_applies(
            FilterOperator(spec, n, grid_kind))


def test_catalogued_singular_bands():
    # alpha = 1/2 vanishes at w = pi, alpha = -1/2 at w = 0
    singular = sorted(set(exact.catalogued_scheme_ids()) - set(KERNEL_IDS))
    assert singular == ["TDCCS-1-T6", "TDCCS-T6", "TDCNCS-T4"]
    assert len(KERNEL_IDS) == 46


@pytest.mark.parametrize("scheme_id", KERNEL_IDS)
def test_fft_apply_matches_banded_apply(scheme_id):
    template, _ = exact.builtin_scheme(scheme_id)
    # circulant sizes just below and above the dense limit 384, and the odd
    # 4097 and 2 * 2049
    ns = (191, 193, 2049) if template.grid_kind == "dual" else (383, 385, 4097)
    rng = np.random.default_rng(5)
    for n in ns:
        op = build_operator(scheme_id, n, 2 * np.pi / n)
        v = rng.normal(size=op.size)
        ref = op.apply_array(v)
        err = np.max(np.abs(op.apply_fft(v) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref)), (n, err)


@pytest.mark.parametrize("scheme_id, n", [
    ("TDCNCS-T8", 64), ("TDCNCS-P10", 33), ("TDCCCS-T8", 50),
    ("CI-P10", 32), ("TDCCS-T8", 40), ("CNCS-T8", 30), ("CCS-T8", 21),
])
def test_circulant_eigenvalues_are_conjugate_symbol(scheme_id, n):
    # the eigenvalue array is indexed by -k, the symbol by k
    lam = spectral.circulant_eigenvalues(scheme_id, n)
    for h in (1.0, 0.37):
        op = build_operator(scheme_id, n, h)
        want = np.conj(op.symbol) * h ** op.derivative_order
        assert np.max(np.abs(lam - want)) <= 1e-13 * np.max(np.abs(lam))


# alpha = 1/2 vanishes at w = pi, alpha = -1/2 at w = 0
SINGULAR_ODD_IDS = ["TDCNCS-T4", "TDCCS-T6", "TDCCS-1-T6"]
ODD_ORDER_IDS = [sid for sid in exact.catalogued_scheme_ids()
                 if exact.builtin_scheme(sid)[0].derivative_order % 2 == 1
                 and sid not in SINGULAR_ODD_IDS]


@pytest.mark.parametrize("n", [20, 21, 64])
def test_grid_symbol_is_psi_on_the_grid_modes(n):
    # the operator's DFT route and the factored psi route agree on every
    # grid mode: i^d psi(w), w in units of h (a dual grid's fine spacing is
    # h/2), and a center-only derivative lands half a cell back on the nodes
    assert len(ODD_ORDER_IDS) == 37
    for sid in ODD_ORDER_IDS:
        op = build_operator(sid, n, 1.0)
        theta = 2 * np.pi * np.fft.fftfreq(op.size)
        omega = 2 * theta if op.grid_kind == "dual" else theta
        want = 1j ** op.derivative_order * spectral.scheme_symbol(sid).psi(omega)
        if op.grid_kind == "center_only":
            want = want * np.exp(-0.5j * omega)
        err = np.max(np.abs(op.symbol - want))
        assert err <= 1e-12 * np.max(np.abs(want)), (sid, err)


@pytest.mark.parametrize("n", [20, 21, 64])
@pytest.mark.parametrize("scheme_id", SINGULAR_ODD_IDS)
def test_singular_odd_order_operators_are_refused(scheme_id, n):
    with pytest.raises(SingularOperatorError):
        build_operator(scheme_id, n, 1.0)


def test_filter_half_width_must_be_positive():
    with pytest.raises(ValueError, match="half width must be >= 1"):
        derive_filter(0, 0.4)


def test_grid_too_small_rejected():
    with pytest.raises(ValueError):
        CompactOperator("TDCNCS-T8", 2, 0.1)


@pytest.mark.parametrize("h", [0.0, -0.1, float("nan"), float("inf")])
def test_operator_refuses_a_spacing_that_is_not_finite_and_positive(h):
    # refused before h^-d: h = 0 would divide by zero, and nan, inf or -0.1
    # give a NaN, zero or sign-flipped symbol
    with pytest.raises(ValueError, match=f"h must be finite and positive, got {h}"):
        CompactOperator("TDCNCS-T8", 20, h)


# -- filters ---------------------------------------------------------------

def test_filter_coefficients_are_the_pinned_fractions():
    # written before the filter rows were eliminated in integers
    lines = [" ".join(map(str, [name, repr(alpha_f),
                                *filter_by_name(name, alpha_f).a_exact]))
             for name in FILTER_ORDERS for alpha_f in (0.4, 0.45, -0.3)]
    golden = pathlib.Path(__file__).parent / "golden" / "filter_a_exact.txt"
    assert "\n".join(lines) + "\n" == golden.read_text()


def test_filter_moment_conditions_exact():
    from fractions import Fraction
    spec = derive_filter(6, 0.4)
    a = spec.a_exact
    af = Fraction(2, 5)
    assert sum(a) == 1 + 2 * af                      # T(0) = 1
    assert sum((-1) ** n * an for n, an in enumerate(a)) == 0  # T(pi) = 0
    for q in range(1, 6):
        assert sum(Fraction(n) ** (2 * q) * an for n, an in enumerate(a)) == 2 * af


def test_filter_orders():
    assert filter_by_name("F8", 0.4).order == 8
    assert filter_by_name("F10", 0.4).order == 10
    assert filter_by_name("F12", 0.4).order == 12


def test_filter_kills_nyquist_mode():
    n = 40
    spec = filter_by_name("F12", 0.4)
    filt = FilterOperator(spec, n)
    nyquist = np.cos(np.pi * np.arange(n))
    assert np.max(np.abs(filt.apply_array(nyquist))) < 1e-12


def test_filter_preserves_constants_and_means():
    n = 40
    filt = FilterOperator(filter_by_name("F10", 0.2), n)
    const = np.full(n, 3.0)
    assert np.max(np.abs(filt.apply_array(const) - 3.0)) < 1e-12
    rng = np.random.default_rng(3)
    v = rng.normal(size=n)
    assert abs(np.sum(filt.apply_array(v)) - np.sum(v)) < 1e-10


def test_filter_never_amplifies_any_mode():
    n = 64
    for name in ("F8", "F10", "F12"):
        for af in (0.0, 0.2, -0.2, 0.4, -0.4):
            filt = FilterOperator(filter_by_name(name, af), n)
            gain = np.abs(np.fft.fft(filt.apply_array(np.eye(n)[:, 0])))
            assert np.max(gain) <= 1.0 + 1e-12


def test_filter_alpha_range_enforced():
    with pytest.raises(ValueError):
        derive_filter(4, 0.5)


@pytest.mark.parametrize("alpha_f", [0.5, -0.5, float("inf"), float("nan")])
def test_filter_alpha_range_names_the_value(alpha_f):
    with pytest.raises(ValueError, match=rf"^\|alpha_f\| must be < 0\.5, got {alpha_f}$"):
        derive_filter(4, alpha_f)


def test_unknown_filter_name():
    with pytest.raises(ValueError) as err:
        filter_by_name("F99", 0.4)
    assert str(err.value) == "unknown filter 'F99'; valid: F10, F12, F8"


@pytest.mark.parametrize("name", ["F8", "F10", "F12"])
@pytest.mark.parametrize("grid_kind", ["node_only", "dual"])
def test_filter_matvec_matches_banded_apply(name, grid_kind):
    # circulant sizes at and above FFT_THRESHOLD 200, just below and at the
    # dense limit 384, and above it: dense 200, 382 = 2 * 191 and 383 (prime
    # factors above 13), FFT 216 and 384, banded 386 = 2 * 193 and 389
    ns = ((100, 108, 191, 192, 193) if grid_kind == "dual"
          else (200, 216, 383, 384, 389))
    rng = np.random.default_rng(13)
    for n in ns:
        filt = FilterOperator(filter_by_name(name, 0.4), n, grid_kind)
        assert filt._dense is None  # built on the first dense-path apply
        v = rng.normal(size=filt.size)
        ref = filt.apply_array(v)
        got = filt.apply(v)
        assert (filt._dense is not None) == (filt.size in (200, 382, 383))
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), n
        # in place, as the time loop applies it
        assert np.array_equal(filt.apply(v, out=v), got)
        assert np.array_equal(v, got)


# the path apply takes above FFT_THRESHOLD: the FFT where every prime factor
# of the size is <= 13; elsewhere, above the dense limit, the banded solve
MATVEC_PATHS = {216: "apply_fft", 240: "apply_fft", 384: "apply_fft",
                385: "apply_fft", 386: "apply_array", 389: "apply_array",
                400: "apply_fft", 4096: "apply_fft", 4097: "apply_array",
                4098: "apply_array", 8194: "apply_array"}
_MATVEC_CASES = [(size, "node") for size in MATVEC_PATHS] + [
    (size, kind) for size in MATVEC_PATHS if size % 2 == 0
    for kind in ("dual", "dual filter")]


@pytest.mark.parametrize("size, kind", _MATVEC_CASES)
def test_matvec_takes_the_path_of_its_size(size, kind):
    if kind == "node":
        op = build_operator("TDCNCS-T8", size, 2 * np.pi / size)
    elif kind == "dual":
        op = build_operator("TDCCS-T8", size // 2, 4 * np.pi / size)
    else:
        op = FilterOperator(filter_by_name("F12", 0.4), size // 2, "dual")
    assert op.size == size
    v = np.random.default_rng(size).normal(size=size)
    assert op.apply == getattr(op, MATVEC_PATHS[size])
    want = getattr(op, MATVEC_PATHS[size])(v)
    assert np.array_equal(op.apply(v), want)
    assert np.array_equal(op.apply(v, out=v), want)
    assert op._dense is None


# FFT-path sizes: 216, 240, 400 and 2048 node and dual, 385 node
FFT_CASES = [(size, kind) for size in (216, 240, 385, 400, 2048)
             for kind in ("node", "dual") if size % 2 == 0 or kind == "node"]


@pytest.mark.parametrize("size, kind", FFT_CASES)
def test_the_fft_path_has_the_bits_of_numpys_public_transforms(size, kind):
    # pocketfft's gufuncs, called directly, against np.fft's wrappers of
    # them: apply_fft, minus and a filter, scaled and unscaled, into a fresh
    # array, into out and into the values themselves
    def public(half, v):
        return np.fft.irfft(half * np.fft.rfft(v), n=size)

    if kind == "node":
        third, first = (build_operator(sid, size, 1.0 / size)
                        for sid in ("TDCNCS-T8", "CNCS-T8"))
        filt = FilterOperator(filter_by_name("F12", 0.4), size)
    else:
        third, first = (build_operator(sid, size // 2, 2.0 / size)
                        for sid in ("TDCCS-T8", "CCS-T8"))
        filt = FilterOperator(filter_by_name("F12", 0.4), size // 2, "dual")
    half = size // 2 + 1
    rng = np.random.default_rng(size)
    for op in (third, third.scaled(-1e-4), first, filt, filt.scaled(0.3)):
        assert op.apply == op.apply_fft
        v = rng.normal(size=size)
        want = public(op.symbol[:half], v)
        assert np.array_equal(op.apply_fft(v), want)
        out = np.empty(size)
        assert op.apply_fft(v, out) is out
        assert np.array_equal(out, want)
        assert op.apply_fft(v, v) is v
        assert np.array_equal(v, want)
    for op in (third, third.scaled(-1e-4)):
        v, w = rng.normal(size=(2, size))
        out = np.empty(size)
        assert op.minus(first)(v, w, out) is out
        want = np.fft.irfft(op.symbol[:half] * np.fft.rfft(v)
                            + -1.0 * first.symbol[:half] * np.fft.rfft(w),
                            n=size)
        assert np.array_equal(out, want)


@pytest.mark.parametrize("size", [40, 385, 389])
def test_apply_picks_its_path_once_and_writes_into_out(size):
    # dense, FFT and banded paths
    op = build_operator("TDCNCS-T8", size, 2 * np.pi / size)
    v = np.random.default_rng(size).normal(size=size)
    apply = op.apply
    assert op.apply is apply
    if size <= DENSE_LIMIT:
        assert apply.__self__ is op.dense_matrix()  # the matrix's own dot
        want = op.dense_matrix().dot(v)
    elif size == 389:
        assert apply == op.apply_array  # the banded solve itself
        want = op.apply_array(v)
    else:
        want = op.apply_fft(v)
    out = np.empty(size)
    assert apply(v, out) is out
    assert out.tobytes() == want.tobytes()
    assert apply(v).tobytes() == want.tobytes()


# dense (sizes 20 and 40), FFT (400, 512) and banded (389, 386) paths
SCALED_CASES = [("TDCNCS-T8", 20), ("TDCCS-T8", 20), ("TDCNCS-T8", 400),
                ("TDCCS-T8", 256), ("TDCNCS-T8", 389), ("TDCCS-T8", 193)]


@pytest.mark.parametrize("scheme_id, n", SCALED_CASES)
@pytest.mark.parametrize("factor", [-1.0, -1 / 64, 4.0])
def test_a_power_of_two_scaled_operator_is_exact_on_every_path(scheme_id, n,
                                                               factor):
    op = build_operator(scheme_id, n, 2 * np.pi / n)
    scaled = op.scaled(factor)
    assert op.scaled(factor) is scaled  # built once per factor
    assert scaled.solver is op.solver
    assert np.array_equal(scaled.symbol, factor * op.symbol)
    v = np.random.default_rng(n).normal(size=op.size)
    assert scaled.apply.__name__ == op.apply.__name__  # the same path
    assert np.array_equal(scaled.apply(v), factor * op.apply(v))
    if op.size <= DENSE_LIMIT:
        assert scaled.dense_matrix() is not op.dense_matrix()
        assert np.array_equal(scaled.dense_matrix(), factor * op.dense_matrix())
    else:
        assert op._dense is None and scaled._dense is None


@pytest.mark.parametrize("scheme_id, n", SCALED_CASES)
def test_a_scaled_operator_rounds_within_a_few_ulp(scheme_id, n):
    # -1e-4 is no power of two: the product is formed in the operator's
    # entries (or symbol), not after the apply.  Measured over 20 draws per
    # case: at most 6.7e-16 of max|factor * apply|, 3 ulp.
    op = build_operator(scheme_id, n, 2 * np.pi / n)
    v = np.random.default_rng(n).normal(size=op.size)
    want = -1e-4 * op.apply(v)
    got = op.scaled(-1e-4).apply(v)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


# each family's third and first derivatives: dense (N = 20, 40), banded
# (sizes 389 and 386 = 2 * 193) and FFT (sizes 400 and 2048) paths
MINUS_SCHEMES = {"TDCNCS": ("TDCNCS-T8", "CNCS-T8"),
                 "TDCCS": ("TDCCS-T8", "CCS-T8")}
MINUS_CASES = [(family, n) for family in MINUS_SCHEMES for n in (20, 40)] + [
    ("TDCNCS", 389), ("TDCCS", 193), ("TDCNCS", 400), ("TDCCS", 200),
    ("TDCNCS", 2048), ("TDCCS", 1024)]


@pytest.mark.parametrize("family, n", MINUS_CASES)
def test_minus_is_this_apply_less_the_others(family, n):
    # dense and banded paths: the bytes of the two applies and a subtract;
    # the FFT path's one symbol sum: within 10 ulp of max|s| max|v| +
    # max|t| max|w| of the two banded applies, the size the transforms
    # round at (as the flux rate's).  v and w keep their bytes.
    third, first = MINUS_SCHEMES[family]
    op = build_operator(third, n, 1.0 / n).scaled(-1e-4)
    other = build_operator(first, n, 1.0 / n)
    minus = op.minus(other)
    rng = np.random.default_rng(n)
    for draw in range(5):
        v, w = rng.normal(size=(2, op.size))
        v_bytes, w_bytes, out = v.tobytes(), w.tobytes(), np.empty(op.size)
        assert minus(v, w, out) is out
        assert (v.tobytes(), w.tobytes()) == (v_bytes, w_bytes)
        if op.apply != op.apply_fft:
            assert np.array_equal(out, op.apply(v) - other.apply(w)), draw
            continue
        want = op.apply_array(v) - other.apply_array(w)
        scale = (np.max(np.abs(op.symbol)) * np.max(np.abs(v))
                 + np.max(np.abs(other.symbol)) * np.max(np.abs(w)))
        assert np.max(np.abs(out - want)) <= 10 * 2.0 ** -52 * scale, draw


# odd sizes 21, 193 and 389 (at the last two, prime, the full DFT gives the
# mean an imaginary round-off), even sizes 40, 386 and 400
@pytest.mark.parametrize("scheme_id, n", [
    ("TDCNCS-T8", 21), ("CNCS-T8", 193), ("TDCNCS-T8", 389),
    ("TDCCS-T8", 20), ("CCS-T8", 193), ("TDCNCS-T8", 400)])
def test_the_formed_symbol_is_exactly_conjugate_symmetric(scheme_id, n):
    # formed from the one stored half, whose mean (and Nyquist) mode is real
    op = build_operator(scheme_id, n, 1.0 / n)
    for o in (op, op.scaled(-1e-4), op.scaled(-1.0)):
        symbol = o.symbol
        assert symbol.shape == (o.size,)
        assert np.array_equal(symbol, np.conj(symbol[-np.arange(o.size)]))


def _allocating_apply(op, v):
    """``apply_array`` as an allocating tap sum, then the scale h^-d (times a
    ``scaled`` factor), then ``solver.solve`` of each parity."""
    pad, size = op._pad, len(v)
    padded = np.concatenate((v[size - pad:], v, v[:pad]))
    rhs = np.zeros(size)
    for shift, w in op._grid_taps:
        rhs += w * padded[pad + shift: pad + shift + size]
    rhs = rhs * op._scale
    stride = 2 if op.grid_kind == "dual" else 1
    out = np.empty(size)
    for parity in range(stride):
        out[parity::stride] = op.solver.solve(rhs[parity::stride])
    return out


# circulant sizes 389, 1031 and 4097 (node), 386 = 2 * 193 and 4098 = 2 * 2049
# (dual); the parity solver of 386 is within DENSE_LIMIT and runs dgttrs
@pytest.mark.parametrize("third, first, n", [
    ("TDCNCS-T8", "CNCS-T8", 389), ("TDCCS-T8", "CCS-T8", 193),
    ("TDCNCS-T8", "CNCS-T8", 1031), ("TDCNCS-T8", "CNCS-T8", 4097),
    ("TDCCS-T8", "CCS-T8", 2049)])
def test_the_in_place_banded_apply_rounds_as_the_allocating_sum(third, first,
                                                                n):
    # paired, pre-scaled taps summed into the solve's own buffer, against
    # the allocating sum: within 80 ulp of |h^-d factor| sum|w| max|v|.
    # Measured over these 6 states: at most 7.5 ulp of it (the F12 filter at
    # size 4098, whose alpha_f = 0.4 band amplifies), 0.96 for the
    # derivatives.  In place too, as a filter applies.
    h = 1.0 / n
    d3 = build_operator(third, n, h)
    d1 = build_operator(first, n, h)
    ops = [d3, d3.scaled(-1e-4), d1, d1.scaled(-1.0),
           FilterOperator(filter_by_name("F12", 0.4), n, d3.grid_kind)]
    step = 0.5 * h if d3.grid_kind == "dual" else h
    u0 = 2.0 + 0.5 * np.sin(2 * np.pi * step * np.arange(d3.size))
    rng = np.random.default_rng(n)
    for op in ops:
        assert op.apply == op.apply_array
        for draw in range(6):
            v = u0 + (0.1 * rng.normal(size=op.size) if draw else 0.0)
            got = op.apply_array(v)
            scale = (abs(op._scale) * sum(abs(w) for _, w in op._grid_taps)
                     * np.max(np.abs(v)))
            err = np.max(np.abs(got - _allocating_apply(op, v)))
            assert err <= 80 * 2.0 ** -52 * scale, (op.derivative_order, draw)
            out = np.empty(op.size)
            assert op.apply_array(v, out) is out
            assert out.tobytes() == got.tobytes()
            assert op.apply_array(v, v) is v
            assert v.tobytes() == got.tobytes()


# sizes 385 and 400 take the FFT, whose rfft of one point more or fewer can
# have the same length; 389 takes the banded solve
@pytest.mark.parametrize("scheme_id, n", [
    ("TDCNCS-T8", 385), ("TDCNCS-T8", 389), ("TDCNCS-T8", 400),
    ("TDCCS-T8", 200),  # a dual FFT path, size 400
])
@pytest.mark.parametrize("delta", [-1, 1])
def test_apply_refuses_an_array_of_the_wrong_length(scheme_id, n, delta):
    op = build_operator(scheme_id, n, 2 * np.pi / n)
    message = (r"^dual operator expects a fine array of length 2N$"
               if op.grid_kind == "dual"
               else rf"^expected {n} values, got {n + delta}$")
    with pytest.raises(ValueError, match=message):
        op.apply(np.ones(op.size + delta))


@pytest.mark.parametrize("scheme_id, n_min", [("TDCNCS-T8", 8),
                                               ("TDCCS-T8", 5)])
def test_operators_and_spectra_share_one_minimum_n(scheme_id, n_min):
    # node-only and dual ids alike: N at least the stencil half-width in
    # h/2 units, for an operator as for its circulant eigenvalues
    assert build_operator(scheme_id, n_min, 0.1).n == n_min
    assert len(spectral.circulant_eigenvalues(scheme_id, n_min)) > 0
    message = rf"^N={n_min - 1} too small for stencil half-width {n_min} "
    with pytest.raises(ValueError, match=message):
        build_operator(scheme_id, n_min - 1, 0.1)
    with pytest.raises(ValueError, match=message):
        spectral.circulant_eigenvalues(scheme_id, n_min - 1)


@pytest.mark.parametrize("n", [32, 193, 200])
def test_dual_filter_filters_each_parity_as_a_node_filter(n):
    # the node filter takes the dense path; the dual filter takes it at
    # n = 32, the banded solve at n = 193 (size 386 = 2 * 193) and the FFT at
    # n = 200 (size 400 = 2^4 * 5^2)
    spec = filter_by_name("F12", 0.4)
    node, dual = FilterOperator(spec, n), FilterOperator(spec, n, "dual")
    rng = np.random.default_rng(11)
    v = np.empty(2 * n)  # nodes at even fine points, centers at odd
    v[0::2], v[1::2] = rng.normal(size=n), rng.normal(size=n)
    fine = dual.apply(v)
    scale = np.max(np.abs(fine))
    assert np.max(np.abs(fine[0::2] - node.apply(v[0::2]))) <= 1e-14 * scale
    assert np.max(np.abs(fine[1::2] - node.apply(v[1::2]))) <= 1e-14 * scale
    out = dual.apply_array(v)
    assert np.array_equal(out[0::2], node.apply_array(v[0::2]))
    assert np.array_equal(out[1::2], node.apply_array(v[1::2]))


def test_filter_width_bound():
    with pytest.raises(ValueError, match="too small for filter width 6"):
        FilterOperator(filter_by_name("F12", 0.4), 12, "dual")
    assert FilterOperator(filter_by_name("F12", 0.4), 13, "dual").size == 26
