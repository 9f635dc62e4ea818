"""Acceptance gate: one test per shipped claim, one PASS/FAIL line each.

Each test prints `criterion N: PASS|FAIL - <summary>` on the real stdout so
the gate's verdicts are visible regardless of pytest capture settings.
"""

import math
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from dispersive_compact import exact, kdv, spectral
from dispersive_compact.operators import (
    FilterOperator,
    build_operator,
    filter_by_name,
)
from dispersive_compact.timeint import rk3_amplification, tvdrk3_step


def report(num, ok, summary):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} - {summary}", file=sys.__stdout__)
    assert ok, f"criterion {num}: {summary}"


# -- criterion 1: coefficient tables ---------------------------------------

def test_criterion_1_coefficient_tables():
    t0 = time.perf_counter()
    bad = []
    for scheme_id in exact.catalogued_scheme_ids():
        family, variant = exact.split_scheme_id(scheme_id)
        zero_slots, order = exact.VARIANT_CONSTRAINTS[variant]
        derived = exact.derive_coefficients(
            exact.family_template(family), zero_slots, order, family=scheme_id
        )
        _, tabulated = exact.builtin_scheme(scheme_id)
        if derived.as_dict() != tabulated.as_dict():
            bad.append(scheme_id)
    elapsed = time.perf_counter() - t0
    report(
        1, not bad and elapsed < 1.0,
        f"all {len(exact.catalogued_scheme_ids())} catalogued rows derived "
        f"with exact rational equality in {elapsed:.2f}s"
        + (f"; mismatches: {bad}" if bad else ""),
    )


# -- criterion 2: truncation constants -------------------------------------

def test_criterion_2_truncation_constants():
    t0 = time.perf_counter()
    expected = {
        "TDCNCS-T8": 3.12192e-5,
        "TDCCCS-T8": 6.57252e-5,
        "TDCCS-T8": 2.1882e-6,
    }
    results = {}
    ok = True
    for scheme_id, want in expected.items():
        template, coeffs = exact.builtin_scheme(scheme_id)
        lead = exact.leading_truncation_error(template, coeffs)
        got = abs(lead.decimal)
        results[scheme_id] = got
        # agreement to 5 significant digits
        if abs(got - want) > 5e-6 * want:
            ok = False
    elapsed = time.perf_counter() - t0
    report(
        2, ok and elapsed < 1.0,
        "leading truncation constants "
        + ", ".join(f"{k}={v:.5e}" for k, v in results.items())
        + f" in {elapsed:.2f}s",
    )


# -- criterion 3: resolving-efficiency tables ------------------------------

# Tabulated e per family for variants T4, T6, T8, P10 at eps_t = 1e-3 / 1e-4.
_EFF_1E3 = {
    "TDCNCS": (0.2205, 0.5523, 0.5018, 0.5205),
    "TDCCCS": (0.2278, 0.3705, 0.4672, 0.5874),
    "TDCCCS-CI": (0.2277, 0.3699, 0.4600, 0.5354),
    "TDCCS-CI": (0.2297, 0.6483, 0.5631, 0.5565),
    "TDCCS-TE": (0.2297, 0.4411, 0.7828, 0.9542),
    "TDCCS-LS": (0.8898, 0.9998, 0.9998, 0.9998),
    "TDCCS-CI-1": (0.2297, 0.6483, 0.5639, 0.5563),
    "TDCCS-TE-1": (0.2297, 0.4411, 0.7679, 0.9321),
    "TDCCS-LS-1": (0.8898, 0.9998, 0.9998, 0.9998),
    "TDCCS-TE-2": (0.2297, 0.3959, 0.5131, 0.6506),
    "TDCCS-TE-3": (0.2297, 0.3959, 0.5152, 0.6110),
}
_EFF_1E4 = {
    "TDCNCS": (0.1248, 0.4850, 0.3855, 0.4114),
    "TDCCCS": (0.1290, 0.2545, 0.3518, 0.4753),
    "TDCCCS-CI": (0.1290, 0.2544, 0.3490, 0.4336),
    "TDCCS-CI": (0.1294, 0.6347, 0.4672, 0.4521),
    "TDCCS-TE": (0.1294, 0.2497, 0.5376, 0.7284),
    "TDCCS-LS": (0.8888, 0.9493, 0.9998, None),  # P10 checked as >= 0.9690
    "TDCCS-CI-1": (0.1294, 0.6347, 0.4691, 0.4520),
    "TDCCS-TE-1": (0.1294, 0.2497, 0.5280, 0.7093),
    "TDCCS-LS-1": (0.8888, 0.9493, 0.9998, 0.9998),
    "TDCCS-TE-2": (0.1294, 0.2718, 0.3917, 0.5046),
    "TDCCS-TE-3": (0.1294, 0.2718, 0.3928, 0.4823),
}
_VARIANTS = ("T4", "T6", "T8", "P10")


def test_criterion_3_resolving_efficiency():
    t0 = time.perf_counter()
    bad = []
    count = 0
    for eps_t, table in ((1e-3, _EFF_1E3), (1e-4, _EFF_1E4)):
        for family, row in table.items():
            for variant, want in zip(_VARIANTS, row):
                got = spectral.resolving_efficiency(
                    f"{family}-{variant}", eps_t
                ).e
                count += 1
                if want is None:
                    if got < 0.9690:
                        bad.append((family, variant, eps_t, got))
                elif abs(got - want) > 0.002:
                    bad.append((family, variant, eps_t, got))
    elapsed = time.perf_counter() - t0
    report(
        3, not bad and elapsed < 10.0,
        f"{count} table cells within +/-0.002 in {elapsed:.2f}s"
        + (f"; deviations: {bad}" if bad else ""),
    )


# -- criterion 4: stability constants --------------------------------------

def test_criterion_4_stability_constants():
    t0 = time.perf_counter()
    expected = {"TDCNCS-T8": 15.157, "TDCCS-T8": 147.168}
    parts = []
    ok = True
    for scheme_id, want in expected.items():
        lam100 = float(np.max(np.abs(spectral.circulant_eigenvalues(scheme_id, 100))))
        lam1024 = float(np.max(np.abs(spectral.circulant_eigenvalues(scheme_id, 1024))))
        # the quoted constants are the N=100 sampling of the symbol; the
        # N=1024 value sits on the continuum envelope slightly above them
        if abs(lam100 - want) > 0.01 or abs(lam1024 - want) > 0.01 * want:
            ok = False
        parts.append(f"{scheme_id}: |lam|={lam100:.4f} (N=100), {lam1024:.4f} (N=1024)")
    cfl_n = round(1.732 / float(np.max(np.abs(
        spectral.circulant_eigenvalues("TDCNCS-T8", 100)))), 2)
    cfl_d = round(1.732 / float(np.max(np.abs(
        spectral.circulant_eigenvalues("TDCCS-T8", 100)))), 3)
    if (cfl_n, cfl_d) != (0.11, 0.012):
        ok = False
    elapsed = time.perf_counter() - t0
    report(
        4, ok and elapsed < 5.0,
        "; ".join(parts) + f"; CFL {cfl_n}, {cfl_d} in {elapsed:.2f}s",
    )


# -- criteria 5-7: convergence tables --------------------------------------

def _table_check(preset, params, expected, tol, floor_tol=None, floor=1e-11):
    """Run each (family, N) cell and compare all three norms."""
    results = {}
    bad = []
    for family, rows in expected.items():
        for n, wanted in rows.items():
            problem = kdv.make_problem(preset, **params)
            disc = kdv.Discretization(family, n, problem.length, problem.x_lo)
            run = kdv.integrate(problem, disc, kdv.RunConfig())
            results[(family, n)] = run.norms
            for got, want in zip(run.norms, wanted):
                cell_tol = tol
                if floor_tol is not None and want < floor:
                    cell_tol = floor_tol
                if abs(got - want) > cell_tol * want:
                    bad.append((family, n, got, want))
    return results, bad


def _rate(errors, ns):
    return [
        math.log(errors[i - 1] / errors[i]) / math.log(ns[i] / ns[i - 1])
        for i in range(1, len(ns))
    ]


_C1_TABLE = {
    "TDCNCS": {
        10: (4.1920e-07, 2.7131e-07, 2.9230e-07),
        20: (1.6089e-09, 1.0249e-09, 1.1120e-09),
        30: (6.2433e-11, 3.9821e-11, 4.3504e-11),
        40: (6.6641e-12, 4.2295e-12, 4.6437e-12),
    },
    "TDCCS": {
        10: (1.1729e-07, 7.5910e-08, 8.1641e-08),
        20: (6.4028e-10, 4.0809e-10, 4.4262e-10),
        30: (2.6549e-11, 1.6931e-11, 1.8471e-11),
        40: (2.9058e-12, 1.8481e-12, 2.0281e-12),
    },
}
_C1_RATES = {"TDCNCS": (8.0254, 8.0135, 7.7772), "TDCCS": (7.5171, 7.8500, 7.6900)}


def test_criterion_5_example1_c1():
    t0 = time.perf_counter()
    results, bad = _table_check(
        "linear", {"c": 1.0}, _C1_TABLE, tol=0.10, floor_tol=0.25
    )
    ns = [10, 20, 30, 40]
    for family, want_rates in _C1_RATES.items():
        got = _rate([results[(family, n)][0] for n in ns], ns)
        for g, w in zip(got, want_rates):
            if abs(g - w) > 0.4:
                bad.append((family, "rate", g, w))
    elapsed = time.perf_counter() - t0
    report(
        5, not bad and elapsed < 120.0,
        f"24 error cells within 10% (25% below the 1e-11 round-off floor) "
        f"and rates within +/-0.4 in {elapsed:.1f}s"
        + (f"; deviations: {bad}" if bad else ""),
    )


_C8_TABLE = {
    "TDCNCS": {
        20: (7.9125e-01, 5.1211e-01, 5.4678e-01),
        40: (1.0796e-03, 6.9871e-04, 7.6486e-04),
        60: (3.6487e-05, 2.3271e-05, 2.5610e-05),
        80: (3.4195e-06, 2.2132e-06, 2.4374e-06),
        100: (5.6767e-07, 3.6163e-07, 3.9977e-07),
    },
    "TDCCS": {
        20: (8.9768e-03, 5.8099e-03, 6.2784e-03),
        40: (1.1749e-04, 7.6040e-05, 8.3230e-05),
        60: (7.5798e-06, 4.8343e-06, 5.3201e-06),
        80: (9.5509e-07, 6.1815e-07, 6.8077e-07),
        100: (1.8581e-07, 1.1837e-07, 1.3085e-07),
    },
}


def test_criterion_6_example1_c8():
    t0 = time.perf_counter()
    results, bad = _table_check("linear", {"c": 8.0}, _C8_TABLE, tol=0.15)
    ns = [40, 60, 80, 100]  # skip the under-resolved N=20 row for rates
    ncs_rates = _rate([results[("TDCNCS", n)][0] for n in ns], ns)
    ccs_rates = _rate([results[("TDCCS", n)][0] for n in ns], ns)
    if not all(abs(r - 8.0) < 0.5 for r in ncs_rates):
        bad.append(("TDCNCS", "rates", ncs_rates))
    if not all(r >= 6.2 for r in ccs_rates):
        bad.append(("TDCCS", "rates", ccs_rates))
    elapsed = time.perf_counter() - t0
    report(
        6, not bad and elapsed < 900.0,
        f"30 error cells within 15%, TDCNCS rates ~8, TDCCS rates >= 6.2 "
        f"in {elapsed:.1f}s" + (f"; deviations: {bad}" if bad else ""),
    )


_E2_LINF = {
    "TDCNCS": {20: 5.4854e-01, 40: 1.2988e-02, 60: 3.2825e-04, 80: 3.3159e-05,
               100: 5.6867e-06, 120: 1.3256e-06, 140: 3.7695e-07, 160: 1.2706e-07},
    "TDCCS": {20: 2.0778e-02, 40: 2.6255e-04, 60: 1.7256e-05, 80: 2.3533e-06,
              100: 4.8859e-07, 120: 1.3222e-07, 140: 4.2335e-08, 160: 1.7606e-08},
}


def test_criterion_7_example2_soliton():
    t0 = time.perf_counter()
    problem = kdv.make_problem("soliton")
    got = {}
    bad = []
    for family, rows in _E2_LINF.items():
        for n, want in rows.items():
            disc = kdv.Discretization(family, n, problem.length, problem.x_lo)
            run = kdv.integrate(problem, disc, kdv.RunConfig())
            got[(family, n)] = run.norms[0]
            if not (want / 2.0 <= run.norms[0] <= want * 2.0):
                bad.append((family, n, run.norms[0], want))
    for n in _E2_LINF["TDCNCS"]:
        if got[("TDCCS", n)] >= got[("TDCNCS", n)]:
            bad.append(("ordering", n))
    ns = [60, 80, 100, 120, 140, 160]
    ncs_rates = _rate([got[("TDCNCS", n)] for n in ns], ns)
    ccs_rates = _rate([got[("TDCCS", n)] for n in ns], ns)
    if not all(abs(r - 8.0) < 0.5 for r in ncs_rates):
        bad.append(("TDCNCS", "rates", ncs_rates))
    if not all(r >= 6.3 for r in ccs_rates):
        bad.append(("TDCCS", "rates", ccs_rates))
    elapsed = time.perf_counter() - t0
    report(
        7, not bad and elapsed < 600.0,
        f"16 Linf cells within factor 2, TDCCS < TDCNCS at every N, "
        f"rates ~8 / >= 6.3 in {elapsed:.1f}s"
        + (f"; deviations: {bad}" if bad else ""),
    )


# -- criterion 8: filter properties ----------------------------------------

def test_criterion_8_filter_properties():
    t0 = time.perf_counter()
    bad = []
    omega = np.linspace(0.0, np.pi, 4001)
    for name in ("F8", "F10", "F12"):
        for alpha_f in (0.0, 0.2, -0.2, 0.4, -0.4):
            spec = filter_by_name(name, alpha_f)
            transfer = spec.transfer(omega)
            if abs(transfer[0] - 1.0) > 1e-12 or abs(transfer[-1]) > 1e-12:
                bad.append((name, alpha_f, "endpoints"))
            if np.max(np.abs(transfer)) > 1.0 + 1e-12:
                bad.append((name, alpha_f, "amplifies"))
    n = 64
    filt = FilterOperator(filter_by_name("F12", 0.4), n)
    nyquist = np.cos(np.pi * np.arange(n))
    if np.max(np.abs(filt.apply_array(nyquist))) > 1e-12:
        bad.append(("F12", 0.4, "nyquist survives"))
    elapsed = time.perf_counter() - t0
    report(
        8, not bad,
        f"T(0)=1, T(pi)=0, |T|<=1 for F8/F10/F12 x 5 alpha values; F12 kills "
        f"the Nyquist mode ({elapsed:.2f}s)"
        + (f"; deviations: {bad}" if bad else ""),
    )


# -- criterion 9: qualitative soliton dynamics -----------------------------

def test_criterion_9_qualitative_dynamics():
    t0 = time.perf_counter()
    bad = []
    # single soliton, N=80, t=3
    problem = kdv.make_problem("single_soliton")
    cfg = kdv.RunConfig(dt_rule="fixed", dt=1e-4)
    errs = {}
    for family in ("TDCNCS", "TDCCS"):
        disc = kdv.Discretization(family, 80, problem.length, problem.x_lo)
        errs[family] = kdv.integrate(problem, disc, cfg).norms[0]
        if errs[family] >= 1e-2:
            bad.append(("single", family, errs[family]))
    if errs["TDCCS"] * 5.0 > errs["TDCNCS"]:
        bad.append(("single", "ratio", errs))
    # double soliton: finite, mass conserved, two post-collision peaks
    problem = kdv.make_problem("double_soliton")
    disc = kdv.Discretization("TDCCS", 100, problem.length, problem.x_lo)
    run = kdv.integrate(problem, disc, kdv.RunConfig(dt_rule="fixed", dt=1e-4))
    u = run.state.node_values
    if not np.all(np.isfinite(u)):
        bad.append(("double", "non-finite"))
    if run.mass_drift >= 1e-8:
        bad.append(("double", "mass", run.mass_drift))
    peaks = [
        i for i in range(len(u))
        if u[i] > u[i - 1] and u[i] > u[(i + 1) % len(u)] and u[i] > 0.05
    ]
    if len(peaks) != 2:
        bad.append(("double", "peaks", len(peaks)))
    # triple soliton: filtered run carries less high-wavenumber energy
    problem = kdv.make_problem("triple_soliton")
    disc = kdv.Discretization("TDCNCS", 150, problem.length, problem.x_lo)
    hi_energy = {}
    for label, filt in (
        ("filtered", kdv.FilterConfig("F12", 0.4, 20)),
        ("unfiltered", None),
    ):
        run = kdv.integrate(
            problem, disc, kdv.RunConfig(dt_rule="half_h2", filter=filt)
        )
        if not np.all(np.isfinite(run.state.values)):
            bad.append(("triple", label, "non-finite"))
        power = np.abs(np.fft.rfft(run.state.values)) ** 2
        hi_energy[label] = float(np.sum(power[-(len(power) // 10):]))
    if hi_energy["filtered"] >= hi_energy["unfiltered"]:
        bad.append(("triple", "energy", hi_energy))
    elapsed = time.perf_counter() - t0
    report(
        9, not bad and elapsed < 600.0,
        f"single-soliton Linf {errs['TDCNCS']:.1e}/{errs['TDCCS']:.1e} "
        f"(ratio {errs['TDCNCS'] / errs['TDCCS']:.1f}x), double soliton 2 peaks "
        f"with mass drift ok, filtered triple-soliton high-k energy "
        f"{hi_energy['filtered']:.1e} < {hi_energy['unfiltered']:.1e} "
        f"in {elapsed:.1f}s" + (f"; deviations: {bad}" if bad else ""),
    )


# -- criterion 10: zero-dispersion limit -----------------------------------

def test_criterion_10_zero_dispersion():
    t0 = time.perf_counter()
    problem = kdv.make_problem("dispersion_limit", eps=1e-4)
    disc = kdv.Discretization("TDCNCS", 100, problem.length, problem.x_lo)
    run = kdv.integrate(problem, disc, kdv.RunConfig(dt_rule="h2"))
    finite = bool(np.all(np.isfinite(run.state.values)))
    ok = finite and run.t_final == 0.5 and run.mass_drift < 1e-8
    elapsed = time.perf_counter() - t0
    # eps <= 1e-6 cases need N >= 800 at dt = h^2 and take minutes to t = 0.5
    # (measured ~81 s for TDCNCS N=800, ~114 s for TDCCS N=800 and ~460 s for
    # TDCNCS N=1600); they are exercised only through the CLI presets, not in
    # the default suite
    report(
        10, ok,
        f"eps=1e-4, N=100 run to t=0.5: finite={finite}, "
        f"mass drift {run.mass_drift:.1e} ({elapsed:.1f}s)",
    )


# -- criterion 11: oracle suites -------------------------------------------

def test_criterion_11_oracle_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    bad = []

    # dense-operator equivalence at N <= 64
    for scheme_id in ("TDCNCS-T8", "TDCNCS-P10", "TDCCS-T8", "CI-P10"):
        n = 48
        op = build_operator(scheme_id, n, 0.17)
        size = 2 * n if op.grid_kind == "dual" else n
        v = rng.normal(size=size)
        direct = op.apply_array(v)
        dense = op.dense_matrix() @ v
        scale = max(np.max(np.abs(direct)), 1.0)
        if np.max(np.abs(direct - dense)) / scale > 1e-11:
            bad.append(("dense", scheme_id))

    # cyclic solver vs dense LU
    from dispersive_compact.banded import CyclicBandedSolver, dense_oracle_solve
    for _ in range(100):
        n = int(rng.integers(8, 65))
        alpha = float(rng.uniform(-0.3, 0.3))
        beta = float(rng.uniform(-0.05, 0.05))
        solver = CyclicBandedSolver(n, alpha, beta)
        rhs = rng.normal(size=n)
        ref = dense_oracle_solve(solver.dense(), rhs)
        scale = max(np.max(np.abs(ref)), 1.0)
        if np.max(np.abs(solver.solve(rhs) - ref)) / scale > 1e-11:
            bad.append(("cyclic", n, alpha, beta))

    # symbol consistency on Fourier modes
    n = 40
    h = 2 * np.pi / n
    op = build_operator("TDCNCS-T8", n, h)
    for k in (1, 5, 9, 13):
        mode = np.exp(1j * k * h * np.arange(n))
        lam = (op.apply_array(mode.real) + 1j * op.apply_array(mode.imag))[0]
        want = -1j * spectral.modified_wavenumber("TDCNCS-T8", k * h) / h**3
        if abs(lam - want) > 1e-10 * max(abs(want), 1.0):
            bad.append(("symbol", k))

    # RK3 amplification polynomial at round-off
    lam = -0.35 + 0.9j
    u = np.array([1.0 + 0j])
    u = tvdrk3_step(u, lambda v: lam * v, 1.0)
    if abs(u[0] - rk3_amplification(lam)) > 1e-14:
        bad.append(("rk3",))

    # order-condition residuals exactly zero
    for scheme_id in exact.catalogued_scheme_ids():
        template, coeffs = exact.builtin_scheme(scheme_id)
        values = coeffs.as_dict()
        for eq in exact.order_conditions(template, coeffs.formal_order):
            residual = eq["const"] + sum(
                eq[u_] * values[u_] for u_ in exact.ALL_UNKNOWNS
            )
            if residual != F(0):
                bad.append(("order", scheme_id))

    elapsed = time.perf_counter() - t0
    report(
        11, not bad,
        f"dense equivalence, 100 cyclic solves, Fourier symbols, RK3 "
        f"polynomial, exact order conditions all green ({elapsed:.2f}s)"
        + (f"; deviations: {bad}" if bad else ""),
    )
