"""Fourier symbols, resolving efficiency, LS optimization, eigenvalues."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import symbol_oracle
from mp_oracle import direct_sum, psi_mp

from dispersive_compact import cli, exact, spectral
from dispersive_compact.banded import SingularOperatorError
from dispersive_compact.operators import filter_by_name


def test_symbol_matches_operator_on_fourier_modes():
    n = 48
    h = 2 * np.pi / n
    from dispersive_compact.operators import build_operator
    op = build_operator("TDCNCS-T8", n, h)
    for k in (1, 3, 7, 11):
        omega = k * h
        mode = np.exp(1j * k * h * np.arange(n))
        out = op.apply_array(mode.real) + 1j * op.apply_array(mode.imag)
        lam = out[0] / mode[0]
        expected = -1j * spectral.modified_wavenumber("TDCNCS-T8", omega) / h**3
        assert abs(lam - expected) < 1e-10 * max(1.0, abs(expected))


def test_symbol_small_omega_limit_is_cubic():
    for sid in ("TDCNCS-T8", "TDCCCS-T8", "TDCCS-T8"):
        omega = np.array([1e-3, 2e-3])
        psi = spectral.modified_wavenumber(sid, omega)
        assert np.allclose(psi, omega**3, rtol=1e-5)


def test_ci_composition_reduces_resolution():
    # transfer-function composition can only shrink the resolved band
    r_plain = spectral.resolving_efficiency("TDCCS-T8", 1e-3)
    r_ci = spectral.resolving_efficiency("TDCCS-CI-T8", 1e-3)
    assert r_ci.e < r_plain.e


def test_efficiency_monotone_in_tolerance():
    loose = spectral.resolving_efficiency("TDCNCS-T8", 1e-3)
    tight = spectral.resolving_efficiency("TDCNCS-T8", 1e-4)
    assert tight.e <= loose.e + 1e-12
    assert 0.0 <= tight.e <= 1.0


def test_strict_mode_no_larger_than_band_edge():
    for sid in ("TDCCS-LS-T4", "TDCNCS-T8"):
        strict = spectral.resolving_efficiency(sid, 1e-3, mode="strict")
        band = spectral.resolving_efficiency(sid, 1e-3, mode="band_edge")
        assert strict.e <= band.e + 1e-9


def test_ls_beats_taylor_on_integrated_misfit():
    for variant in ("T4", "T8"):
        _, te = exact.builtin_scheme(f"TDCCS-{variant}")
        ls = spectral.ls_optimize("TDCCS", variant)
        assert spectral.ls_misfit("TDCCS", ls) < spectral.ls_misfit("TDCCS", te)


def test_ls_preserves_retained_order_conditions():
    ls = spectral.ls_optimize("TDCCS", "T8")
    template = exact.family_template("TDCCS")
    values = ls.as_dict()
    # the low-order accuracy conditions kept as constraints must still hold
    (eq,) = exact.order_conditions(template, 2)  # Taylor degree 3's
    residual = eq["const"] + sum(
        float(eq[u]) * float(values[u]) for u in exact.ALL_UNKNOWNS
    )
    assert abs(residual) < 1e-12


def test_circulant_eigenvalues_purely_imaginary():
    for sid, n in (("TDCNCS-T8", 64), ("TDCCS-T8", 64)):
        lam = spectral.circulant_eigenvalues(sid, n)
        assert np.max(np.abs(lam.real)) < 1e-11 * np.max(np.abs(lam))


def test_eigenvalues_match_symbol():
    # eigenvalue sets agree with {-i psi(w_k)}; fft ordering flips k -> -k
    n = 50
    lam = spectral.circulant_eigenvalues("TDCNCS-T8", n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    omega = 2 * np.pi * k / n
    psi = np.array([
        spectral.modified_wavenumber("TDCNCS-T8", abs(w)) * np.sign(w)
        for w in omega
    ])
    got = np.sort(lam.imag)
    want = np.sort((-psi))
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(psi))


def test_max_stable_timestep_is_cfl_bound(tmp_path):
    out = tmp_path / "stability.json"
    assert cli.dispatch(["stability", "--scheme", "TDCNCS-T8", "--n", "256",
                         "--out", str(out)]) == cli.EXIT_OK
    lam = np.max(np.abs(spectral.circulant_eigenvalues("TDCNCS-T8", 256)))
    bound = json.loads(out.read_text())["cfl_bound"]
    assert abs(bound - spectral.IMAG_AXIS_LIMIT_TVDRK3 / lam) < 1e-14


@pytest.mark.parametrize("n", [64, 101])
def test_singular_scheme_rejected_in_eigenvalues(n):
    # TDCNCS-T4 has alpha = 1/2: its LHS symbol vanishes at w = pi, which is a
    # grid mode for even n only; the scheme is refused at every n
    with pytest.raises(SingularOperatorError):
        spectral.circulant_eigenvalues("TDCNCS-T4", n)


@pytest.mark.parametrize("scheme_id", ["TDCCS-LS-2-T8", "TDCCS-LS-3-T8"])
def test_band_vanishing_between_grid_modes_rejected(scheme_id):
    # least squares gives these alpha > 1/2, so 1 + 2 alpha cos(w) vanishes
    # inside (0, pi) without vanishing on a grid mode
    assert spectral.scheme_symbol(scheme_id).alpha > Fraction(1, 2)
    with pytest.raises(SingularOperatorError):
        spectral.circulant_eigenvalues(scheme_id, 100)


@pytest.mark.parametrize("call, error, message", [
    (lambda: spectral.grid_taps([(2, 1.0)], "edge_only", 3), ValueError,
     "unknown grid kind"),
    (lambda: spectral.scheme_symbol("TDCNCS-T8").transfer_function(0.5),
     ValueError, "requires derivative order 0"),
    (lambda: spectral.resolving_efficiency("TDCNCS-T8", 1e-3, mode="edge"),
     ValueError, "unknown mode"),
    (lambda: spectral.ls_optimize("TDCCS", "T8", 0.0), ValueError,
     r"r must be in \(0, 1\]"),
    (lambda: spectral.ls_optimize("TDCCS", "T8", 1.5), ValueError,
     r"r must be in \(0, 1\]"),
    (lambda: spectral.ls_optimize("TDCCS", "Q3"), exact.UnknownSchemeError,
     "TDCCS-Q3"),
    (lambda: spectral.ls_optimize("TDCCS", "E6"), ValueError,
     "must retain an implicit coefficient"),
])
def test_analysis_refuses_what_it_cannot_evaluate(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_stability_refuses_even_derivative_orders():
    # an interpolation has eigenvalues but no time step: the CLI's
    # ``stability`` refuses it (test_cli)
    assert spectral.circulant_eigenvalues("CI-T8", 64).shape == (64,)


@pytest.mark.parametrize("mode", ["band_edge", "strict"])
@pytest.mark.parametrize("eps_t", [1e-3, 1e-12])
def test_efficiency_refuses_even_derivative_orders(eps_t, mode):
    # refused before the scan, which evaluates the symbol without psi
    with pytest.raises(ValueError, match="odd derivative orders"):
        spectral.resolving_efficiency("CI-T8", eps_t, mode=mode)


def test_efficiency_scan_on_the_cached_grid_is_psi_on_a_fresh_grid():
    ids = [sid for sid in spectral.analysis_scheme_ids()
           if spectral.scheme_symbol(sid).derivative_order % 2 == 1]
    assert len(ids) == 87
    fresh = (np.arange(1, 20001) - 0.5) * np.pi / 20000
    for sid in ids:
        sym = spectral.scheme_symbol(sid)
        d = sym.derivative_order
        omega, omega_d, trig = spectral._scan_grid(d)
        assert not omega.flags.writeable and not omega_d.flags.writeable
        assert np.array_equal(omega, fresh)
        assert np.array_equal(omega_d, fresh.copy() ** d)
        assert np.array_equal(sym._evaluate(trig), sym.psi(fresh.copy())), sid


def test_ci_psi_is_base_psi_times_the_p10_transfer_bit_for_bit():
    ids = [sid for sid in spectral.analysis_scheme_ids()
           if exact.split_scheme_id(sid)[0] in spectral._CI_FAMILIES]
    assert len(ids) == 29
    omega = np.linspace(1e-3, 2 * np.pi - 1e-3, 501)
    transfer = spectral.scheme_symbol("CI-P10").transfer_function(omega)
    for sid in ids:
        family, variant = exact.split_scheme_id(sid)
        base = spectral.scheme_symbol(f"{spectral._CI_FAMILIES[family]}-{variant}")
        want = base.psi(omega) * transfer
        assert np.array_equal(spectral.modified_wavenumber(sid, omega), want), sid


def test_unknown_scheme_id():
    with pytest.raises(exact.UnknownSchemeError):
        spectral.scheme_symbol("TDCCS-XX-T8")


def test_analysis_ids_cover_composed_families():
    ids = spectral.analysis_scheme_ids()
    for sid in ("TDCCS-LS-T8", "TDCCS-CI-T8", "TDCCCS-CI-P10", "TDCCS-TE-T8"):
        assert sid in ids or sid.replace("-TE", "") in ids


def test_spectrum_csv(tmp_path):
    path = tmp_path / "spec.csv"
    argv = ["spectrum", "--scheme", "TDCNCS-T8", "--samples", "50",
            "--out", str(path)]
    assert cli.dispatch(argv) == cli.EXIT_OK
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["omega", "psi", "omega_cubed", "R"]
    assert len(lines) > 40


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_spectrum_csv_refuses_fewer_than_two_samples(samples, tmp_path, capsys):
    path = tmp_path / "spec.csv"
    argv = ["spectrum", "--scheme", "TDCNCS-T8", "--samples", str(samples),
            "--out", str(path)]
    assert cli.dispatch(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: --samples must be >= 2, got {samples}\n"
    assert not path.exists()


def test_float_psi_matches_mpmath_oracle():
    ids = [sid for sid in spectral.analysis_scheme_ids()
           if spectral.scheme_symbol(sid).derivative_order % 2 == 1]
    assert len(ids) == 87
    omega = np.linspace(0.5, 3.0, 26)
    worst = 0.0
    with mp.workdps(50):
        for sid in ids:
            sym = spectral.scheme_symbol(sid)
            for w, p in zip(omega, sym.psi(omega)):
                ref = psi_mp(sym, w)
                worst = max(worst, float(abs(float(p) - ref) / max(1, abs(ref))))
    assert worst <= 1e-12


def test_float_transfer_matches_mpmath_oracle():
    # the CI-P10 transfer B(w)/A(w), summed independently in 50 digits
    sym = spectral.scheme_symbol("CI-P10")
    omega = np.linspace(0.5, 3.0, 26)
    with mp.workdps(50):
        for w, t in zip(omega, sym.transfer_function(omega)):
            ref = psi_mp(sym, w)
            assert abs(float(t) - ref) <= 1e-12 * max(1, abs(ref))


@pytest.mark.parametrize("name", ["F8", "F10", "F12"])
@pytest.mark.parametrize("alpha_f", [0.0, 0.2, -0.2, 0.4, -0.4])
def test_filter_transfer_keeps_relative_precision_to_pi(name, alpha_f):
    # relative, not absolute: T has a double zero at w = pi, where its direct
    # sum cancels; the reference is summed in 50 digits from the exact taps
    spec = filter_by_name(name, alpha_f)
    omega = np.concatenate([np.linspace(0.0, np.pi, 400),
                            np.pi - np.geomspace(1e-1, 1e-8, 20)])
    # a_0 + sum a_n cos(n w), as taps a_0 at 0 and a_n/2 at h/2 offset 2n
    taps = [(2 * n, a / 2 if n else a) for n, a in enumerate(spec.a_exact)]
    alpha = Fraction(str(alpha_f))
    with mp.workdps(50):
        for w, t in zip(omega, spec.transfer(omega)):
            ref = direct_sum(taps, alpha, 0, 0, w)
            assert abs(t - ref) <= 1e-12 * abs(ref), (w, t, ref)


def test_float_psi_keeps_relative_precision_near_zeros():
    # relative, not absolute: psi - w^3 cancels near w = 0, and A or B vanish
    # at w = pi and 2 pi for some schemes
    ids = [sid for sid in spectral.analysis_scheme_ids()
           if spectral.scheme_symbol(sid).derivative_order % 2 == 1]
    assert len(ids) == 87
    log_grid = np.geomspace(1e-4, np.pi, 61)[:-1]
    fine_modes = np.linspace(np.pi, 2 * np.pi, 17)
    worst = (0.0, None, None)
    with mp.workdps(50):
        for sid in ids:
            sym = spectral.scheme_symbol(sid)
            omega = log_grid
            if sym.grid_kind == "dual":
                omega = np.concatenate([log_grid, fine_modes])
            for w, p in zip(omega, sym.psi(omega)):
                ref = psi_mp(sym, w)
                err = float(abs(p - ref) / abs(ref))
                if err > worst[0]:
                    worst = (err, sid, w)
    assert worst[0] <= 1e-12, worst


def _pinned_symbols():
    """Every analysed id, the three filters at five strengths, and each LS
    id's family and variant optimized over three more ranges."""
    syms = {sid: spectral.scheme_symbol(sid)
            for sid in spectral.analysis_scheme_ids()}
    for name in ("F8", "F10", "F12"):
        for alpha_f in (-0.2, 0.0, 0.3, 0.4, 0.49):
            syms[f"{name}:{alpha_f}"] = filter_by_name(name, alpha_f).symbol
    for sid in spectral.analysis_scheme_ids():
        family, variant = exact.split_scheme_id(sid)
        if family in spectral._LS_FAMILIES:
            base = spectral._LS_FAMILIES[family]
            for r in (0.3, 0.65, 0.9):
                coeffs = spectral.ls_optimize(base, variant, r)
                syms[f"{sid}@{r}"] = spectral._symbol_from_parts(
                    exact.family_template(base), coeffs)
    return syms


def test_factored_symbol_has_the_bits_of_the_rational_polyval_oracle():
    # the integer build and the in-place Horner rule against the Fraction
    # build and polyval they replaced: the same powers, the same coefficients
    # less zero high ones, and the same values and result type at every input
    syms = _pinned_symbols()
    assert len(syms) == 96 + 15 + 54
    scan = spectral._scan_grid(3)[0].copy()
    wide = np.concatenate([np.linspace(0.0, 2 * np.pi, 401),
                           [0.0, np.pi, 2 * np.pi, 1e-300]])
    inputs = [scan, wide, 1.234, np.float64(2.5), np.array(np.pi / 3)]
    for name, sym in syms.items():
        powers, num, den = symbol_oracle.factored(sym)
        got_powers, got_num, got_den = sym._factored
        assert got_powers == powers, name
        assert np.array(got_num).tobytes() == symbol_oracle.trim(num).tobytes(), name
        assert np.array(got_den).tobytes() == symbol_oracle.trim(den).tobytes(), name
        evaluate = (sym.psi if sym.derivative_order % 2 == 1
                    else sym.transfer_function)
        for omega in inputs:
            with np.errstate(all="ignore"):  # T4 bands vanish at pi
                want = symbol_oracle.evaluate(
                    sym, spectral._trig(np.asarray(omega, dtype=float)))
                got = evaluate(omega)
            assert type(got) is type(want), (name, omega)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


@pytest.mark.parametrize("mode", ["band_edge", "strict"])
@pytest.mark.parametrize("eps_t", [1e-3, 1e-4])
def test_efficiency_is_the_oracle_efficiency_bit_for_bit(eps_t, mode):
    ids = [sid for sid in spectral.analysis_scheme_ids()
           if spectral.scheme_symbol(sid).derivative_order % 2 == 1]
    assert len(ids) == 87
    for sid in ids:
        got = spectral.resolving_efficiency(sid, eps_t, mode=mode).omega_f
        want = symbol_oracle.resolving_efficiency(
            spectral.scheme_symbol(sid), eps_t, mode)
        assert got == want, sid


def test_the_package_loads_numpy_polynomial_only_for_least_squares():
    # a fresh interpreter: importing the package and a dense-path run must
    # not load numpy.polynomial; the LS Gauss-Legendre nodes then load it
    script = """
import sys
import dispersive_compact
from dispersive_compact import kdv, spectral
problem = kdv.make_problem("linear", c=8.0)
disc = kdv.Discretization("TDCNCS", 20, problem.length, problem.x_lo)
kdv.integrate(problem, disc, kdv.RunConfig(t_final=0.01))
assert "numpy.polynomial" not in sys.modules, "loaded before least squares"
print(spectral.ls_optimize("TDCCS", "T8").as_dict())
assert "numpy.polynomial" in sys.modules
"""
    src = str(pathlib.Path(spectral.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{spectral.ls_optimize('TDCCS', 'T8').as_dict()}\n"
