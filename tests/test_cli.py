"""Command-line interface: exit codes, configs, artifact formats."""

import contextlib
import errno
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dispersive_compact
from dispersive_compact import exact, kdv, spectral, timeint
from dispersive_compact.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    build_parser,
    dispatch,
    parse_filter_flag,
)


def run_cli(*argv):
    return dispatch(list(argv))


@pytest.fixture
def one_worker(monkeypatch):
    # on one CPU, convergence studies run their N in this process
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def test_no_command_is_usage_error(capsys):
    assert run_cli() == EXIT_USAGE
    capsys.readouterr()


def test_coeffs_json(tmp_path):
    out = tmp_path / "c.json"
    code = run_cli("coeffs", "--scheme", "TDCCS-T8", "--format", "json",
                   "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["a"] == {"num": "58021", "den": "14120"}
    assert doc["alpha"] == {"num": "-1261", "den": "3530"}


def test_coeffs_unknown_scheme_lists_catalogue(capsys):
    assert run_cli("coeffs", "--scheme", "BOGUS") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "TDCNCS-T8" in err and "TDCCS-P10" in err


@pytest.mark.parametrize("argv, ids", [
    (("coeffs", "--scheme"), exact.catalogued_scheme_ids),
    (("spectrum", "--scheme"), spectral.analysis_scheme_ids),
    (("efficiency", "--schemes"), spectral.analysis_scheme_ids),
    (("stability", "--scheme"), spectral.analysis_scheme_ids),
])
def test_unknown_scheme_lists_the_ids_the_command_accepts(argv, ids, capsys):
    # spectrum, efficiency and stability also take the CI and LS ids that
    # coeffs refuses (stability then refuses a CI id on its own); TDCCS-E2,
    # which TDCCS-CI-E2 composes, is itself no scheme
    for typed in ("TDCCS-CI-T9", "TDCCS-CI-E2"):
        assert run_cli(*argv, typed) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"error: unknown scheme '{typed}'; valid schemes: "
                       f"{', '.join(sorted(ids()))}\n")


def test_spectrum_csv(tmp_path):
    out = tmp_path / "s.csv"
    code = run_cli("spectrum", "--scheme", "TDCNCS-T8", "--samples", "50",
                   "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "omega,psi,omega_cubed,R"


def test_spectrum_library_and_cli_write_the_same_table(tmp_path, capsys):
    # the table rebuilt from the library's symbol; TDCNCS-T4's denominator
    # vanishes at w = pi, which the grid leaves out
    omega = np.linspace(0.0, np.pi, 64, endpoint=False)[1:]
    psi = spectral.modified_wavenumber("TDCNCS-T4", omega)
    lib = "omega,psi,omega_cubed,R\r\n" + "".join(
        f"{w:.10g},{p:.12e},{w ** 3:.12e},{p / w ** 3:.12e}\r\n"
        for w, p in zip(omega, psi))
    out = tmp_path / "cli.csv"
    args = ("spectrum", "--scheme", "TDCNCS-T4", "--samples", "64")
    assert run_cli(*args, "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == lib.encode()
    capsys.readouterr()
    assert run_cli(*args) == EXIT_OK
    assert capsys.readouterr().out == lib
    rows = lib.strip().splitlines()[1:]
    assert len(rows) == 63 and float(rows[-1].split(",")[0]) < 3.14


# The files under tests/golden/ are byte-for-byte outputs of the commands
# below, written before the CSV and JSON writers moved from kdv and spectral
# into the CLI; these tests pin that the move kept every byte.  The runs are a
# few steps long, but a near-zero snapshot value prints below round-off, so a
# numpy or BLAS build that rounds differently rewrites its last digits.
GOLDEN = pathlib.Path(__file__).parent / "golden"
# TDCNCS-T4's denominator vanishes at w = pi, which the 63-row grid leaves out
SPECTRUM_ARGV = ("spectrum", "--scheme", "TDCNCS-T4", "--samples", "64")
CONVERGE_ARGV = ("converge", "--example", "soliton", "--scheme", "tdcncs",
                 "--Ns", "20,40", "--dt-rule", "fixed", "--dt", "1e-3",
                 "--t-final", "0.01")


@pytest.mark.usefixtures("one_worker")
@pytest.mark.parametrize("argv, golden", [
    (SPECTRUM_ARGV, "spectrum_TDCNCS-T4_64.csv"),
    (CONVERGE_ARGV, "converge_soliton.csv"),
    # written before the symbol was factored in integers and evaluated in place
    (("efficiency", "--schemes", "all"), "efficiency_all.csv"),
    (("efficiency", "--schemes", "all", "--mode", "strict"),
     "efficiency_all_strict.csv"),
    (("filter-analyze", "--name", "F12", "--alpha-f", "0.4"),
     "filter_F12_0.4.csv"),
    (("spectrum", "--scheme", "TDCCCS-CI-T8", "--samples", "64"),
     "spectrum_TDCCCS-CI-T8_64.csv"),
    # the default text format
    (("coeffs", "--scheme", "TDCCS-T8"), "coeffs_TDCCS-T8.txt"),
    (("coeffs", "--scheme", "CCS-T8"), "coeffs_CCS-T8.txt"),
], ids=["spectrum", "converge", "efficiency", "efficiency-strict", "filter",
        "spectrum-ci", "coeffs-TDCCS-T8", "coeffs-CCS-T8"])
def test_table_is_the_pinned_bytes_in_a_file_and_on_stdout(argv, golden,
                                                           tmp_path, capsys):
    want = (GOLDEN / golden).read_bytes()
    out = tmp_path / golden
    assert run_cli(*argv, "--out", str(out)) == EXIT_OK
    assert out.read_bytes() == want
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_OK
    assert capsys.readouterr().out == want.decode()


@pytest.mark.usefixtures("one_worker")
def test_converge_json_is_the_pinned_bytes(tmp_path):
    # the first row's rates are empty CSV cells and JSON nulls
    out, doc = tmp_path / "c.csv", tmp_path / "c.json"
    assert run_cli(*CONVERGE_ARGV, "--out", str(out), "--json", str(doc)) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "converge_soliton.csv").read_bytes()
    assert doc.read_bytes() == (GOLDEN / "converge_soliton.json").read_bytes()


@pytest.mark.parametrize("argv, golden", [
    (("--scheme", "tdcncs", "--example", "soliton", "--N", "32",
      "--t-final", "0.01", "--dt-rule", "half_h2"),
     "snapshot_soliton_tdcncs.csv"),
    (("--scheme", "tdccs", "--example", "soliton", "--N", "32",
      "--t-final", "0.01", "--dt-rule", "fixed", "--dt", "0.002"),
     "snapshot_soliton_tdccs.csv"),
    (("--scheme", "tdccs", "--example", "triple_soliton", "--N", "40",
      "--t-final", "0.01", "--dt-rule", "half_h2", "--filter", "F12:0.4:1"),
     "snapshot_triple_soliton_tdccs.csv"),
], ids=["node", "dual-node-values", "no-exact-solution"])
def test_run_snapshot_is_the_pinned_bytes(argv, golden, tmp_path):
    snap = tmp_path / golden
    assert run_cli("run", *argv, "--snapshot", str(snap),
                   "--out", str(tmp_path / "summary.json")) == EXIT_OK
    assert snap.read_bytes() == (GOLDEN / golden).read_bytes()


# written before the Taylor rows were summed and eliminated in integers
DERIVED_ONLY_IDS = [f"TDCCS-{k}-{v}" for k in (1, 2, 3)
                    for v in ("T4", "T6", "T8", "P10")] + ["CNCS-T8", "CCS-T8"]


def test_derived_coefficients_are_the_pinned_json_bytes(capsys):
    out = []
    for scheme_id in DERIVED_ONLY_IDS:
        capsys.readouterr()
        assert run_cli("coeffs", "--scheme", scheme_id, "--format", "json") == EXIT_OK
        out.append(capsys.readouterr().out)
    assert "".join(out) == (GOLDEN / "coeffs_derived.json").read_text()


@pytest.mark.parametrize("samples", ["1", "0", "-3"])
def test_filter_analyze_refuses_fewer_than_two_samples_like_spectrum(
        samples, tmp_path, capsys):
    # one rule: test_spectral pins the same message, and no file, for spectrum
    out = tmp_path / "t.csv"
    assert run_cli("filter-analyze", "--samples", samples,
                   "--out", str(out)) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: --samples must be >= 2, got {samples}\n")
    assert not out.exists()


def test_zero_length_run_is_validated_like_any_other(capsys):
    # an alpha_f of 0.7 is refused at t = 0 as at t = 0.001
    for t_final in ("0", "0.001"):
        assert run_cli("run", "--example", "soliton", "--N", "32", "--t-final",
                       t_final, "--filter", "F12:0.7:20") == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "error: |alpha_f| must be < 0.5, got 0.7\n"


@pytest.mark.parametrize("argv", [
    ("filter-analyze", "--alpha-f", "nan"),
    ("run", "--example", "soliton", "--N", "32", "--t-final", "0",
     "--filter", "F12:nan:20"),
])
def test_nan_filter_strength_gets_the_filter_message(argv, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: |alpha_f| must be < 0.5, got nan\n")


@pytest.mark.parametrize("schemes", ["", ",", " , "])
def test_efficiency_without_a_scheme_is_usage_error(schemes, tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert run_cli("efficiency", "--schemes", schemes,
                   "--out", str(out)) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", f"error: --schemes names no scheme: {schemes!r}\n")
    assert not out.exists()


# one call of each analysis command, for a fresh interpreter to run
ANALYSIS_ARGV = [
    ["coeffs", "--scheme", "TDCNCS-T8", "--format", "json"],
    ["spectrum", "--scheme", "TDCCS-T6", "--samples", "8"],
    ["efficiency", "--schemes", "TDCNCS-T8,TDCCS-T6"],
    ["stability", "--scheme", "TDCCS-T8", "--n", "64"],
    ["ls-optimize", "--family", "TDCCS", "--variant", "T8"],
    ["filter-analyze", "--samples", "8"],
]
# the analyses at their default sizes, every scheme's efficiency, and runs
# by dispatch: dense node and filtered dual paths, then a banded one
DENSE_ARGV = [
    ["spectrum", "--scheme", "TDCCS-T6"],
    ["efficiency", "--schemes", "all"],
    ["filter-analyze"],
    ["run", "--example", "linear", "--N", "20", "--t-final", "0.01"],
    ["run", "--example", "triple_soliton", "--scheme", "tdccs", "--N", "40",
     "--dt-rule", "half_h2", "--t-final", "0.01", "--filter", "F12:0.4:1"],
]
BANDED_ARGV = ["run", "--example", "dispersion_limit", "--dt-rule", "cfl_h3",
               "--cfl", "50", "--t-final", "5e-6", "--scheme", "tdcncs",
               "--N", "389"]


def test_the_library_reads_no_environment_variable():
    # every file under this checkout's src/, as grep -r reads them
    files = [p for p in (pathlib.Path(__file__).resolve().parents[1]
                         / "src").rglob("*") if p.is_file()]
    assert any(p.suffix == ".py" for p in files)
    assert [str(p) for p in files
            if re.search(rb"os\.environ|getenv", p.read_bytes())] == []


def test_lapack_loads_only_for_a_banded_path_solver():
    # a fresh interpreter, since this one has loaded scipy.linalg already.
    # The analysis commands and the dense-path runs (a node run at N = 20, a
    # filtered dual one at N = 40) must load neither it nor LAPACK; a band
    # above the dense limit must load LAPACK, or the check proves nothing,
    # and still not scipy.linalg.  No path loads scipy.signal or mpmath
    script = f"""
import sys
from dispersive_compact import banded, cli, kdv, operators

def heavy():
    return [m for m in ("scipy.linalg", "scipy.signal", "mpmath")
            if m in sys.modules]

assert not heavy(), heavy()
for argv in {ANALYSIS_ARGV + DENSE_ARGV!r}:
    assert cli.dispatch(argv) == 0, argv
assert not heavy(), ("loaded by the analysis", heavy())
problem = kdv.make_problem("linear", c=8.0)
disc = kdv.Discretization("TDCNCS", 20, problem.length, problem.x_lo)
kdv.integrate(problem, disc, kdv.RunConfig(t_final=0.01))
problem = kdv.make_problem("triple_soliton")
disc = kdv.Discretization("TDCCS", 40, problem.length, problem.x_lo)
config = kdv.RunConfig(dt_rule="half_h2", t_final=0.01,
                       filter=kdv.FilterConfig("F12", 0.4, 1))
kdv.integrate(problem, disc, config)
assert not heavy(), ("loaded by a dense-path run", heavy())
assert banded._lapack.cache_info().currsize == 0, "LAPACK loaded too early"
# a band above the dense limit, tri- and pentadiagonal, loads LAPACK's
# extension by itself; scipy.linalg imported afterwards gives the same bits:
# dpttrs's for the tridiagonal band, solve_banded's for the pentadiagonal
import numpy as np
tri = kdv.Discretization("TDCNCS", 389, 1.0).d3_op.solver
assert banded._lapack.cache_info().currsize == 1, "not loaded by a band"
penta = operators.CompactOperator("TDCCS-P10", 400, 1.0).solver
assert (tri.bandwidth, penta.bandwidth) == (1, 2)
assert cli.dispatch({BANDED_ARGV!r}) == 0
assert not heavy(), ("loaded by a banded-path solver or run", heavy())
from scipy.linalg import lapack, solve_banded
d, e, info = lapack.dpttrf(tri._ab[1], tri._ab[0, 1:])
assert info == 0
band_solves = ((tri, lambda b: lapack.dpttrs(d, e, b)[0]),
               (penta, lambda b: solve_banded((2, 2), penta._ab, b)))
rng = np.random.default_rng(20)
for solver, band_solve in band_solves:
    rhs = rng.standard_normal(solver.n)
    oracle = solver._correct(band_solve(rhs))
    assert solver.solve(rhs).tobytes() == oracle.tobytes(), solver.bandwidth
"""
    src = str(pathlib.Path(dispersive_compact.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, message", [
    (("run", "--example", "linear", "--N", "20", "--t-final", "-inf"),
     "t_final must be finite and non-negative, got -inf"),
    (("run", "--example", "linear", "--N", "20", "--t-final", "-1e-3"),
     "t_final must be finite and non-negative, got -0.001"),
    (("filter-analyze", "--alpha-f", "-inf"),
     "|alpha_f| must be < 0.5, got -inf"),
])
def test_negative_flag_value_reaches_the_flag_check(argv, message, capsys):
    # argparse would take a value that starts with '-' and is not a plain
    # negative decimal for an option; the '=' form must read the same
    assert run_cli(*argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")
    *flags, flag, value = argv
    assert run_cli(*flags, f"{flag}={value}") == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_efficiency_csv(tmp_path):
    out = tmp_path / "e.csv"
    code = run_cli("efficiency", "--schemes", "TDCNCS-T8", "--eps", "1e-3",
                   "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scheme,omega_f,e"
    scheme, _, e = lines[1].split(",")
    assert scheme == "TDCNCS-T8"
    assert abs(float(e) - 0.5018) < 0.002


def test_stability_json(tmp_path):
    out = tmp_path / "st.json"
    code = run_cli("stability", "--scheme", "TDCNCS-T8", "--n", "100",
                   "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert abs(doc["max_eigenvalue_modulus"] - 15.157) < 0.01
    assert round(doc["cfl_bound"], 2) == 0.11
    assert doc["integrator"] == "TVDRK3"


@pytest.mark.parametrize("scheme, message", [
    # an interpolation has eigenvalues but no time step
    ("CI-T8", "CI-T8: psi, efficiency and stability are defined for odd "
              "derivative orders"),
    # a CI-composed symbol is no circulant of its own
    ("TDCCS-CI-T8", "no standalone circulant"),
])
def test_stability_refuses_what_no_integrator_steps(scheme, message, capsys):
    assert run_cli("stability", "--scheme", scheme) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err and out == ""


def test_singular_operator_is_numerical_failure(capsys):
    # TDCNCS-T4 (alpha = 1/2) is singular at the Nyquist mode of N = 100; at
    # N = 101 no grid mode sits on its zero, and the band is refused all the same
    for n in ("100", "101"):
        assert run_cli("stability", "--scheme", "TDCNCS-T4", "--n", n) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_singular_ls_system_is_numerical_failure(capsys):
    # r = 1e-12 is inside (0, 1], but the quadrature interval is too short
    # for the stationarity system to be solved
    argv = ("ls-optimize", "--family", "TDCCS", "--variant", "T8", "--r", "1e-12")
    assert run_cli(*argv) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: singular LS stationarity system")
    assert err.count("\n") == 1


def test_efficiency_all_lists_only_accepted_ids(tmp_path):
    out = tmp_path / "e.csv"
    assert run_cli("efficiency", "--schemes", "all", "--out", str(out)) == EXIT_OK
    listed = [row.split(",")[0] for row in out.read_text().strip().splitlines()[1:]]
    assert listed and set(listed) <= set(spectral.analysis_scheme_ids())
    assert "TDCCS-T8" in listed and "TDCCS-LS-T8" in listed
    assert not [sid for sid in listed if sid.startswith("CI-") or "-LS-E" in sid]


def test_filter_analyze(tmp_path):
    out = tmp_path / "f.csv"
    code = run_cli("filter-analyze", "--name", "F12", "--alpha-f", "0.4",
                   "--samples", "64", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "omega,T"
    assert abs(float(lines[-1].split(",")[1])) < 1e-12  # T(pi) = 0


def test_ls_optimize_json(tmp_path):
    out = tmp_path / "ls.json"
    code = run_cli("ls-optimize", "--family", "TDCCS", "--variant", "T8",
                   "--format", "json", "--out", str(out))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["family"].startswith("TDCCS-LS")


@pytest.mark.parametrize("family", ["TDCNCS", "TDCCS-TE", "CI"])
def test_ls_optimize_refuses_other_families_naming_the_four(family, capsys):
    assert run_cli("ls-optimize", "--family", family,
                   "--variant", "T8") == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "TDCCS, TDCCS-1, TDCCS-2, TDCCS-3" in err


@pytest.mark.parametrize("variant", ["Q3", "E6"])
def test_ls_optimize_refuses_other_variants_naming_the_six(variant, capsys):
    # E6 is a scheme variant, but it has no free alpha or beta to fit
    assert run_cli("ls-optimize", "--variant", variant) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: LS optimization takes the variants T4, T6, T8, P6, P8, P10, "
        f"which keep a free alpha or beta; got {variant!r}\n")


def test_run_summary(tmp_path):
    out = tmp_path / "sum.json"
    snap = tmp_path / "snap.csv"
    code = run_cli("run", "--example", "linear", "--c", "1", "--scheme",
                   "tdcncs", "--N", "20", "--t-final", "1",
                   "--out", str(out), "--snapshot", str(snap))
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert abs(doc["Linf"] / 1.6089e-9 - 1.0) < 0.1
    assert snap.read_text().splitlines()[0] == "x,u_numeric,u_exact,abs_error"
    # the permission bits that open() gives a new file
    (tmp_path / "ref").write_text("")
    mode = (tmp_path / "ref").stat().st_mode
    assert out.stat().st_mode == snap.stat().st_mode == mode


def test_run_unknown_preset(capsys):
    assert run_cli("run", "--example", "nosuch") == EXIT_USAGE
    assert "valid" in capsys.readouterr().err


def test_run_divergence_is_numerical_failure(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.json"
    argv = ("run", "--example", "soliton", "--scheme", "tdcncs", "--N", "40",
            "--dt-rule", "fixed", "--dt", "0.5", "--t-final", "5",
            "--out", str(out))

    def interrupt(*args):
        raise KeyboardInterrupt

    # a file made for the run is removed; an existing one keeps its bytes
    for old in (None, "keep"):
        if old is not None:
            out.write_text(old)
        assert run_cli(*argv) == EXIT_NUMERICAL
        assert "diverged at t=1.5 (step 4)" in capsys.readouterr().err
        assert (out.read_text() if out.exists() else None) == old
    # and so on an interrupt, which dispatch lets through
    out.unlink()
    monkeypatch.setattr(kdv, "integrate", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_cli(*argv)
    assert not out.exists()
    # through a dangling link, the file made is the link's target
    link = tmp_path / "link.json"
    link.symlink_to(out)
    with pytest.raises(KeyboardInterrupt):
        run_cli(*argv[:-1], str(link))
    assert link.is_symlink() and not out.exists()


@pytest.mark.parametrize("argv", [
    ("coeffs", "--scheme", "TDCNCS-T4", "--out", "{missing}/c.json"),
    ("run", "--example", "linear", "--c", "1", "--N", "10", "--t-final",
     "0.01", "--out", "{tmp}/s.json", "--snapshot", "{missing}/snap.csv"),
    ("converge", "--example", "linear", "--c", "1", "--Ns", "10,12",
     "--t-final", "0.01", "--out", "{tmp}/c.csv",
     "--json", "{missing}/c.json"),
])
@pytest.mark.usefixtures("one_worker")
def test_unwritable_output_is_usage_error(argv, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in argv]
    assert run_cli(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "missing" in err
    # a first output, claimed before the second was refused, is removed
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ("--cfl", "0"), ("--cfl", "-0.01"), ("--cfl", "nan"),
    ("--dt-rule", "fixed", "--dt", "inf"), ("--dt-rule", "fixed", "--dt", "0"),
    ("--t-final", "nan"), ("--t-final", "inf"), ("--t-final", "-1"),
])
def test_bad_run_config_is_usage_error(flags, capsys):
    assert run_cli("run", *flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("converge", "--example", "linear", "--c", "8", "--Ns", "20,40",
     "--out", "missing/t.csv"),
    ("converge", "--example", "linear", "--c", "8", "--Ns", "20,40",
     "--json", "missing/t.json"),
    ("run", "--snapshot", "missing/s.csv"),
    ("run", "--out", "missing/r.json"),
    # an output path that is an existing directory
    ("converge", "--example", "linear", "--c", "8", "--Ns", "20,40",
     "--out", "made"),
    ("converge", "--example", "linear", "--c", "8", "--Ns", "20,40",
     "--json", "made"),
    ("run", "--snapshot", "made"),
    # a name longer than the file system allows
    ("converge", "--example", "soliton", "--Ns", "40,800", "--out", "x" * 300),
    # a directory without write permission
    ("run", "--out", "made/r.json"),
    # a folder that is a file
    ("coeffs", "--out", "afile/x.json"),
    # a path longer than PATH_MAX
    ("run", "--out", "./" * 2100 + "x.json"),
    # a symbolic link into a missing folder
    ("converge", "--example", "soliton", "--Ns", "40,800", "--out", "dangling"),
    # a symbolic link to itself
    ("run", "--snapshot", "loop"),
])
def test_output_in_missing_directory_is_refused_before_any_run(
        argv, tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("integrate called")

    # root ignores mode bits, so "made/r.json" is refused through os.open
    real_open = os.open

    def refusing_open(path, flags, *args, **kwargs):
        if path == "made/r.json":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(kdv, "integrate", no_run)
    monkeypatch.setattr(os, "open", refusing_open)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # a study in this process
    monkeypatch.chdir(tmp_path)
    (tmp_path / "made").mkdir()
    (tmp_path / "afile").write_text("")
    (tmp_path / "dangling").symlink_to("missing/x.csv")
    (tmp_path / "loop").symlink_to("loop")
    assert run_cli(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{argv[-2]} {argv[-1]}:" in err
    message = {"made": "Is a directory", "x" * 300: "File name too long",
               "made/r.json": "Permission denied",
               "afile/x.json": "Not a directory",
               "./" * 2100 + "x.json": "File name too long",
               "loop": "Too many levels of symbolic links"}
    assert message.get(argv[-1], "No such file or directory") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "afile", "dangling", "loop", "made"]
    assert not any((tmp_path / "made").iterdir())
    assert (tmp_path / "afile").read_text() == ""


def test_experiment_flags_read_kdv_tables(capsys):
    for command in ("run", "converge"):
        actions = {a.dest: a for a in build_parser().commands[command]._actions}
        assert actions["dt_rule"].choices == list(kdv.DT_RULES)
        assert actions["scheme"].choices == list(kdv.FAMILY_OPS)
        assert actions["example"].choices == kdv.preset_names()
    assert run_cli("run", "--scheme", "tdcxx") == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: dispersive-compact run: argument --scheme: invalid choice: "
        "'TDCXX' (choose from 'TDCNCS', 'TDCCS')\n")


FILTER_REFUSAL = "error: unknown filter 'F99'; valid: F10, F12, F8\n"
PRESET_REFUSAL = ("error: bad parameters for preset 'soliton': "
                  "_soliton() got an unexpected keyword argument 'c'\n")


@pytest.mark.filterwarnings("error")  # no step-guard warning comes first
@pytest.mark.parametrize("argv, message", [
    (("run", "--filter", "F99:0.4:20"), FILTER_REFUSAL),
    # a step far above the dispersive bound
    (("run", "--filter", "F99:0.4:20", "--dt-rule", "h2", "--N", "20"),
     FILTER_REFUSAL),
    (("converge", "--filter", "F99:0.4:20", "--Ns", "20,40"), FILTER_REFUSAL),
    (("run", "--example", "soliton", "--c", "3"), PRESET_REFUSAL),
    (("converge", "--example", "soliton", "--c", "3"), PRESET_REFUSAL),
], ids=["run-filter", "run-filter-h2", "converge-filter", "run-preset",
        "converge-preset"])
def test_filter_and_preset_parameter_refusals_are_one_line(argv, message,
                                                           monkeypatch, capsys):
    def no_step(*args):
        raise AssertionError("a run stepped")

    monkeypatch.setattr(timeint.TvdRk3, "advance", no_step)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # a study in this process
    assert run_cli(*argv) == EXIT_USAGE
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("cpus", [1, 2])
def test_converge_bad_preset_parameter_is_usage_error(cpus, monkeypatch,
                                                      capsys):
    # the soliton preset takes no eps; rejected before any worker starts
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code = run_cli("converge", "--example", "soliton", "--eps", "0",
                   "--Ns", "10,20")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "soliton" in err


@pytest.mark.usefixtures("one_worker")
def test_converge_csv(tmp_path):
    out = tmp_path / "conv.csv"
    code = run_cli("converge", "--example", "linear", "--c", "1", "--scheme",
                   "tdcncs", "--Ns", "10,20", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,Linf,L1,L2,rate_inf,rate_1,rate_2"
    rate = float(lines[2].split(",")[4])
    assert abs(rate - 8.0) < 0.4


@pytest.mark.usefixtures("one_worker")
def test_converge_stdout_matches_out_file(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    args = ("converge", "--example", "linear", "--c", "1", "--scheme",
            "tdcncs", "--Ns", "10,20")
    assert run_cli(*args, "--out", str(out)) == EXIT_OK
    capsys.readouterr()
    assert run_cli(*args) == EXIT_OK
    assert capsys.readouterr().out == out.read_bytes().decode()


@pytest.mark.parametrize("argv, key", [
    (("run", "--order", "8"), "order"),
    (("stability", "--integrator", "TVDRK3"), "integrator"),
])
def test_single_valued_options_are_gone(argv, key, tmp_path, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    assert run_cli(argv[0], "--config", str(cfg)) == EXIT_USAGE
    assert f"unknown config key(s) {key}" in capsys.readouterr().err


def test_serial_is_not_an_option(tmp_path, capsys):
    # a study runs serially on one CPU or with one N; no flag chooses it
    assert run_cli("converge", "--serial") == EXIT_USAGE
    assert "unrecognized arguments: --serial" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"serial": True}))
    assert run_cli("converge", "--config", str(cfg)) == EXIT_USAGE
    assert "unknown config key(s) serial" in capsys.readouterr().err


def test_seed_is_not_an_option(tmp_path, capsys):
    assert run_cli("run", "--seed", "1") == EXIT_USAGE
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1}')
    assert run_cli("converge", "--config", str(cfg)) == EXIT_USAGE
    assert "unknown config key(s) seed" in capsys.readouterr().err


def test_dump_config_round_trip(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("run", "--example", "linear", "--c", "2", "--N", "30",
                   "--dump-config", str(a)) == EXIT_OK
    assert run_cli("run", "--config", str(a), "--dump-config", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["c"] == 2.0 and doc["n"] == 30


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"example": "linear", "c": 1.0, "n": 20}))
    dump = tmp_path / "eff.json"
    assert run_cli("run", "--config", str(cfg), "--N", "40",
                   "--dump-config", str(dump)) == EXIT_OK
    assert json.loads(dump.read_text())["n"] == 40


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"examle": "linear"}))
    assert run_cli("run", "--config", str(cfg)) == EXIT_USAGE
    assert "examle" in capsys.readouterr().err


def test_malformed_config_reports_location(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{\n  bad\n}")
    assert run_cli("run", "--config", str(cfg)) == EXIT_USAGE
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--config", "missing.json"), "missing.json: No such file"),
    (("--config", "list.json"), "config must be a JSON object"),
    (("--out", "x" * 300), "File name too long"),  # OSError at open
])
def test_unusable_config_or_output_file_is_one_line_usage_error(
        argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")
    assert run_cli("coeffs", *argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err and out == ""


def test_empty_config_is_all_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    dump = tmp_path / "d.json"
    assert run_cli("run", "--config", str(cfg), "--dump-config",
                   str(dump)) == EXIT_OK
    doc = json.loads(dump.read_text())
    assert doc["example"] == "linear" and doc["dt_rule"] == "cfl_h3"


_EXPERIMENT_DEFAULTS = {
    "example": "linear", "c": None, "eps": None, "x0": None,
    "scheme": "TDCNCS", "dt_rule": "cfl_h3", "cfl": None,
    "dt": None, "filter": None, "t_final": None, "out": None,
}
GOLDEN_DEFAULTS = {
    "coeffs": {"scheme": "TDCCS-T8", "format": "text", "out": None},
    "spectrum": {"scheme": "TDCCS-T8", "samples": 400, "out": None},
    "efficiency": {"schemes": "all", "eps": 1e-3, "mode": "band_edge",
                   "out": None},
    "stability": {"scheme": "TDCCS-T8", "n": 1024, "out": None},
    "filter-analyze": {"name": "F12", "alpha_f": 0.4, "samples": 400,
                       "out": None},
    "ls-optimize": {"family": "TDCCS", "variant": "T8", "r": 1.0,
                    "format": "text", "out": None},
    "run": {**_EXPERIMENT_DEFAULTS, "n": 100, "snapshot": None},
    "converge": {**_EXPERIMENT_DEFAULTS, "ns": "10,20,30,40", "json": None},
}


@pytest.mark.parametrize("command", sorted(GOLDEN_DEFAULTS))
def test_dump_config_writes_each_default(command, tmp_path):
    dump = tmp_path / "d.json"
    assert run_cli(command, "--dump-config", str(dump)) == EXIT_OK
    # byte comparison: pins int against float as well as each value
    want = json.dumps(GOLDEN_DEFAULTS[command], indent=2, sort_keys=True)
    assert dump.read_text() == want + "\n"


@pytest.mark.parametrize("command, doc", [
    # refused as the same text given to the flag is
    ("run", {"n": 40.5, "t_final": 1e-3}),
    ("run", {"dt": 5e-3, "t_final": 1e-3}),  # a dt without --dt-rule fixed
    ("spectrum", {"samples": 12.7}),
    ("coeffs", {"scheme": 5}),
    ("run", {"filter": 3, "t_final": 1e-3}),
    # choices and nulls, which argparse checks on no default
    ("coeffs", {"format": "yaml"}),
    ("stability", {"n": None}),
    ("spectrum", {"samples": None}),
    ("run", {"dt_rule": None, "t_final": 1e-3}),
])
def test_bad_config_value_is_one_line_usage_error(command, doc, tmp_path,
                                                  capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(command, "--config", str(cfg)) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


def test_config_text_value_is_converted_like_the_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "40", "cfl": "0.02"}))
    dump = tmp_path / "d.json"
    assert run_cli("run", "--config", str(cfg), "--dump-config",
                   str(dump)) == EXIT_OK
    doc = json.loads(dump.read_text())
    assert doc["n"] == 40 and type(doc["n"]) is int
    assert doc["cfl"] == 0.02


def test_filter_flag_parsing():
    fc = parse_filter_flag("F12:0.4:20")
    assert (fc.name, fc.alpha_f, fc.every) == ("F12", 0.4, 20)
    with pytest.raises(UsageError):
        parse_filter_flag("F12:0.4")


def test_bad_flag_value_is_usage_error(capsys):
    assert run_cli("run", "--example", "linear", "--scheme", "weird") == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("run", "--N", "0"),
    ("converge", "--Ns", "0,10"),
    ("converge", "--Ns", ","),
    ("run", "--example", "linear", "--c", "0"),
    ("run", "--example", "linear", "--c", "1e-320"),
    ("run", "--example", "linear", "--c", "nan"),
    ("run", "--example", "linear", "--c", "inf"),
    # epsilon = c**-2 underflows to 0.0
    ("run", "--example", "linear", "--c", "1e200", "--N", "20",
     "--t-final", "0.001"),
    ("run", "--example", "single_soliton", "--eps", "0"),
    ("run", "--example", "single_soliton", "--c", "-0.3"),
    ("run", "--example", "single_soliton", "--x0", "inf"),
    ("run", "--example", "triple_soliton", "--eps", "0"),
    ("run", "--example", "dispersion_limit", "--eps", "nan"),
    ("run", "--cfl", "1e-320"),
    ("run", "--dt-rule", "fixed", "--dt", "1e-320"),
    ("efficiency", "--schemes", "TDCNCS-T8", "--eps", "nan"),
    ("run", "--example", "linear", "--c", "1.5"),
    ("run", "--example", "linear", "--N", "10", "--t-final", "1e300"),
    ("spectrum", "--samples", "1"),
    ("spectrum", "--samples", "-3"),
    ("filter-analyze", "--samples", "0"),
    ("filter-analyze", "--samples", "1"),
    ("filter-analyze", "--samples", "-2"),
    ("stability", "--scheme", "CI-T8"),
    ("run", "--example", "linear", "--N", "20", "--t-final", "0.01",
     "--dt", "0.005"),
    ("run", "--example", "linear", "--N", "20", "--t-final", "0.01",
     "--dt-rule", "half_h2", "--cfl", "5"),
    # no TDCCS-T8 operator exists on fewer than 5 cells
    ("stability", "--scheme", "TDCCS-T8", "--n", "4"),
])
@pytest.mark.usefixtures("one_worker")
def test_out_of_range_input_is_one_line_usage_error(argv, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


# Each fuzz draw gives valid values to all but at most two of its flags, which
# get hostile ones.  Valid values keep t_final <= 1e-3 and N <= 32, so that no
# draw runs more than ~10^3 steps; a hostile t_final of 1e300 asks for more
# steps than integrate accepts.
VALID = {
    "--N": ("8", "16", "32"), "--c": ("1", "8"), "--eps": ("1e-3", "0.5"),
    "--x0": ("0.5",), "--cfl": ("0.5", "4"), "--dt": ("1e-4", "1e-5"),
    "--t-final": ("1e-4", "1e-3"), "--Ns": ("8,16", "16,32", "16"),
    "--filter": ("F12:0.4:1", "F8:-0.2:3"),
}
HOSTILE = ("0", "-1", "inf", "-inf", "nan", "1e-320", "1e300")
HOSTILE_POOLS = {flag: HOSTILE for flag in VALID}
HOSTILE_POOLS["--Ns"] = ("0,10", ",", "-4,8", "nan", "32,16", "1e300")
HOSTILE_POOLS["--filter"] = ("F10:0.6:1", "F12:nan:1", "F12:0.4:0", "F8:0.2")
# the flags each preset takes, beyond those of every run
PRESET_FLAGS = {
    "linear": ("--c",), "soliton": (), "single_soliton": ("--c", "--eps", "--x0"),
    "double_soliton": ("--eps",), "triple_soliton": ("--eps",),
    "dispersion_limit": ("--eps",), "tophat": ("--eps",),
}


@st.composite
def _experiment_argv(draw, command, examples):
    example = draw(st.sampled_from(examples))
    dt_rule = draw(st.sampled_from(("cfl_h3", "half_h2", "fixed")))
    # --cfl goes with the cfl_h3 rule only and --dt with the fixed rule only;
    # elsewhere each is refused outright
    rule_flags = {"cfl_h3": ("--cfl",), "fixed": ("--dt",)}.get(dt_rule, ())
    flags = [*rule_flags, "--t-final", *PRESET_FLAGS[example]]
    flags.append("--N" if command == "run" else "--Ns")
    if draw(st.booleans()):
        flags.append("--filter")
    hostile = draw(st.sets(st.sampled_from(flags), max_size=2))
    argv = [command, "--example", example,
            "--scheme", draw(st.sampled_from(("tdcncs", "tdccs"))),
            "--dt-rule", dt_rule]
    for flag in flags:
        pool = HOSTILE_POOLS[flag] if flag in hostile else VALID[flag]
        argv += [flag, draw(st.sampled_from(pool))]
    return argv


def test_spectral_commands_run_without_mpmath(monkeypatch):
    # mpmath is a test-only dependency, which the library never imports
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert spectral.resolving_efficiency("TDCCS-T6", 1e-4).e > 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["spectrum", "--scheme", "TDCCS-T6"]) == EXIT_OK
        assert dispatch(["efficiency", "--schemes", "all"]) == EXIT_OK


def _dispatch_quietly(argv) -> str:
    """Stderr of a run that exits 0, 1 or 2, and that refuses in one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL), (argv, code)
    # a flag the parser refuses would stop every draw before it runs
    assert "unrecognized arguments" not in err.getvalue(), argv
    if code != EXIT_OK:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (argv, lines)
        assert lines[0].startswith(("error:", "numerical failure:")), (argv, lines)
    return err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_experiment_argv("run", sorted(PRESET_FLAGS)))
def test_run_fuzz_never_raises(argv):
    _dispatch_quietly(argv)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(argv=_experiment_argv("converge", ("linear", "soliton", "single_soliton")))
def test_converge_fuzz_never_raises(argv):
    # hypothesis refuses function-scoped fixtures such as monkeypatch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 1)
        _dispatch_quietly(argv)


@st.composite
def _analysis_id(draw):
    """A family of an analysis id, under a CI, LS or TE (alias) infix or
    none, with its variant or another suffix: ids that the analysis commands
    accept, aliases that they resolve and near misses that they refuse."""
    sid = draw(st.sampled_from(spectral.analysis_scheme_ids()))
    family, variant = exact.split_scheme_id(sid)
    head, _, tail = family.replace("-CI", "").replace("-LS", "").partition("-")
    family = head + draw(st.sampled_from(("", "-CI", "-LS", "-TE"))) + (
        "-" + tail if tail else "")
    if draw(st.booleans()):
        variant = draw(st.sampled_from((*exact.VARIANT_CONSTRAINTS, "T9", "")))
    return f"{family}-{variant}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(("spectrum", "efficiency", "stability")),
       scheme=_analysis_id())
def test_analysis_fuzz_names_the_typed_id(command, scheme):
    flag = "--schemes" if command == "efficiency" else "--scheme"
    more = ["--n", "64"] if command == "stability" else []
    err = _dispatch_quietly([command, flag, scheme, *more])
    if "unknown scheme" in err:
        assert err.startswith(f"error: unknown scheme {scheme!r}; "), err
