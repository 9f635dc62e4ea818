"""Problem presets, semidiscrete rates, integration, norms, studies."""

import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from dispersive_compact import exact, kdv, operators, spectral
from dispersive_compact.kdv import DualGridFunction
from dispersive_compact.operators import (
    DENSE_LIMIT,
    FFT_THRESHOLD,
    CompactOperator,
    FilterOperator,
    filter_by_name,
)
from dispersive_compact.timeint import DivergenceError, TvdRk3, rk3_amplification


def test_preset_fields():
    p = kdv.make_problem("linear", c=8.0)
    assert p.epsilon == pytest.approx(1.0 / 64.0)
    assert p.x_hi == pytest.approx(2 * math.pi)
    x = np.array([0.1, 0.7])
    assert np.allclose(p.initial(x), np.sin(8 * x))
    assert np.allclose(p.exact(x, 0.25), np.sin(8 * (x + 0.25)))

    p = kdv.make_problem("soliton")
    assert (p.x_lo, p.x_hi) == (-10.0, 12.0)
    assert np.allclose(p.exact(np.array([0.0]), 0.0), [-2.0])

    p = kdv.make_problem("single_soliton")
    k = 0.5 * math.sqrt(0.3 / 5e-4)
    # u0 = 3c sech^2(k (x - x0)) with c = 0.3, x0 = 0.5
    u0 = p.initial(np.array([0.5, 0.5 + 1.0 / k]))
    assert u0 == pytest.approx([0.9, 0.9 / math.cosh(1.0) ** 2])


def test_presets_flux_is_one_coefficient():
    # g(u) = kappa*u^2: linear transport, the soliton's -3u^2, Burgers' u^2/2
    kappas = {name: kdv.make_problem(name).kappa for name in kdv.preset_names()}
    assert kappas == {"linear": 0.0, "soliton": -3.0, "single_soliton": 0.5,
                      "double_soliton": 0.5, "triple_soliton": 0.5,
                      "dispersion_limit": 0.5, "tophat": 0.5}


def test_problem_refuses_an_empty_domain():
    with pytest.raises(ValueError, match="x_hi must exceed x_lo"):
        dataclasses.replace(kdv.make_problem("soliton"), x_hi=-10.0)


@pytest.mark.parametrize("t_final", [float("nan"), float("inf"), -1.0])
def test_problem_refuses_its_own_bad_t_final(t_final):
    # as RunConfig refuses the same value, before any run
    with pytest.raises(ValueError, match="t_final must be finite and non-negative"):
        dataclasses.replace(kdv.make_problem("soliton"), t_final=t_final)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["x_lo", "x_hi", "kappa", "epsilon"])
def test_problem_refuses_a_field_that_is_not_finite(field, value):
    # refused where it is built: an infinite x_hi would divide by zero in
    # integrate, and a NaN epsilon would read as a divergence at t = 0
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        dataclasses.replace(kdv.make_problem("soliton"), **{field: value})


def test_unknown_preset():
    with pytest.raises(KeyError):
        kdv.make_problem("nosuch")


def test_error_norm_examples():
    num = np.array([3.0, 4.0])
    ref = np.array([0.0, 0.0])
    # wrapped-endpoint convention over N+1 = 3 samples: diff = (3, 4, 3)
    linf, l1, l2 = kdv.error_norms(num, ref)
    assert linf == 4.0
    assert l1 == pytest.approx(10.0 / 3.0)
    assert l2 == pytest.approx(math.sqrt(34.0 / 3.0))
    same = kdv.error_norms(num, num)
    assert same == (0.0, 0.0, 0.0)
    shifted = kdv.error_norms(np.array([1.5, 1.5]), np.zeros(2))
    assert shifted == (1.5, 1.5, 1.5)


def test_error_norms_length_mismatch():
    with pytest.raises(ValueError):
        kdv.error_norms(np.zeros(4), np.zeros(5))


def test_semidiscrete_rhs_constant_is_zero():
    p = kdv.make_problem("soliton")
    d = kdv.Discretization("TDCNCS", 32, p.length, p.x_lo)
    rate = kdv.bind_rate(p, d)(np.full(32, 0.7), np.empty(32))
    assert np.max(np.abs(rate)) < 1e-11


def test_semidiscrete_rhs_linear_case_analytic():
    c = 2.0
    p = kdv.make_problem("linear", c=c)
    d = kdv.Discretization("TDCNCS", 64, p.length, p.x_lo)
    x = d.nodes()
    rate = kdv.bind_rate(p, d)(np.sin(c * x), np.empty(64))
    assert np.max(np.abs(rate - c * np.cos(c * x))) < 1e-8


def test_semidiscrete_rhs_conservative():
    p = kdv.make_problem("soliton")
    d = kdv.Discretization("TDCNCS", 48, p.length, p.x_lo)
    u = p.initial(d.nodes())
    rate = kdv.bind_rate(p, d)(u, np.empty(48))
    assert abs(np.sum(rate)) < 48 * 1e-12 * np.max(np.abs(rate))


def test_zero_t_final_returns_sampled_ic():
    p = kdv.make_problem("soliton")
    d = kdv.Discretization("TDCCS", 32, p.length, p.x_lo)
    r = kdv.integrate(p, d, kdv.RunConfig(t_final=0.0))
    assert isinstance(r.state, DualGridFunction)
    assert np.array_equal(r.state.node_values, p.initial(d.nodes()))
    # fine-grid points may differ from nodes + h/2 by one ulp
    assert np.allclose(
        r.state.center_values, p.initial(d.nodes() + d.h / 2), rtol=1e-13
    )


def test_zero_length_run_is_validated_like_any_other():
    p = kdv.make_problem("soliton")
    d = kdv.Discretization("TDCNCS", 32, p.length, p.x_lo)
    with pytest.raises(ValueError, match="unknown dt rule"):
        kdv.integrate(p, d, kdv.RunConfig(dt_rule="bogus", t_final=0.0))
    with pytest.raises(ValueError, match="unknown filter 'F99'"):
        kdv.integrate(p, d, kdv.RunConfig(
            t_final=0.0, filter=kdv.FilterConfig("F99", 0.9, 20)))
    r = kdv.integrate(p, d, kdv.RunConfig(t_final=0.0, record_every=5))
    assert (r.n_steps, r.dt, r.t_final) == (0, 0.0, 0.0)
    # the t = 0 sample, as every other run's history starts
    assert len(r.history) == 1 and r.history[0][0] == 0.0
    assert np.array_equal(r.history[0][1], p.initial(d.nodes()))
    assert r.mass_final == r.mass_initial


def test_dual_centers_sampled_not_interpolated():
    p = kdv.make_problem("single_soliton")
    d = kdv.Discretization("TDCCS", 40, p.length, p.x_lo)
    values = d.initial_state(p)
    assert np.allclose(values[1::2], p.initial(d.nodes() + d.h / 2), rtol=1e-13)


@pytest.mark.parametrize("family", ["TDCNCS", "TDCCS"])
def test_run_state_points_are_the_sampled_points(family):
    # the points a run's state reports (perfbench reads them) are the ones
    # its initial state was sampled at, bit for bit
    p = kdv.make_problem("soliton")
    d = kdv.Discretization(family, 32, p.length, p.x_lo)
    state = kdv.integrate(p, d, kdv.RunConfig(t_final=0.0)).state
    if d.dual:
        x, u = state.fine_points(), state.fine()
        assert np.array_equal(x[0::2], d.nodes())
    else:
        x, u = state.nodes(), state.values
        assert np.array_equal(x, d.nodes())
    assert np.array_equal(u, p.initial(x))


# circulant sizes 200 (at FFT_THRESHOLD), 383 (prime) and 382 = 2 * 191 (a
# prime factor above 13) take the dense path
@pytest.mark.parametrize("family, n", [("TDCNCS", 200), ("TDCCS", 100),
                                       ("TDCNCS", 383), ("TDCCS", 191)])
def test_small_grids_apply_the_dense_matrix_exactly(family, n):
    d = kdv.Discretization(family, n, 2 * np.pi)
    v = np.random.default_rng(2).normal(size=2 * n if d.dual else n)
    assert np.array_equal(d.d3_op.apply(v), d.d3_op.dense_matrix() @ v)
    assert np.array_equal(d.d1_op.apply(v), d.d1_op.dense_matrix() @ v)


# circulant sizes 240 = 2^4 * 3 * 5 (the dual soliton run at N = 120),
# 385 = 5*7*11 and 400 = 2^4 * 5^2 factor into primes <= 13
@pytest.mark.parametrize("family, n", [("TDCCS", 120), ("TDCNCS", 385),
                                       ("TDCCS", 200)])
def test_large_grids_apply_by_fft_without_a_dense_build(family, n):
    d = kdv.Discretization(family, n, 2 * np.pi)
    v = np.random.default_rng(2).normal(size=2 * n if d.dual else n)
    assert np.array_equal(d.d3_op.apply(v), d.d3_op.apply_fft(v))
    assert np.array_equal(d.d1_op.apply(v), d.d1_op.apply_fft(v))
    assert d.d3_op._dense is None and d.d1_op._dense is None


# circulant sizes 389 (prime), 386 = 2 * 193 and 778 = 2 * 389 have a prime
# factor above 13; the dual N = 389 is the one whose parity solver (n = 389)
# is above DENSE_LIMIT and factored by LAPACK
@pytest.mark.parametrize("family, n", [("TDCNCS", 389), ("TDCCS", 193),
                                       ("TDCCS", 389)])
def test_large_grids_apply_by_banded_solve_without_a_dense_build(family, n):
    d = kdv.Discretization(family, n, 2 * np.pi)
    v = np.random.default_rng(2).normal(size=2 * n if d.dual else n)
    assert np.array_equal(d.d3_op.apply(v), d.d3_op.apply_array(v))
    assert np.array_equal(d.d1_op.apply(v), d.d1_op.apply_array(v))
    assert d.d3_op._dense is None and d.d1_op._dense is None


def test_dt_rules():
    assert kdv.RunConfig(dt_rule="cfl_h3", cfl=0.01).timestep(0.1) == pytest.approx(1e-5)
    assert kdv.RunConfig().timestep(0.1) == 0.01 * 0.1 ** 3
    assert kdv.RunConfig(dt_rule="half_h2").timestep(0.2) == pytest.approx(0.02)
    assert kdv.RunConfig(dt_rule="h2").timestep(0.2) == pytest.approx(0.04)
    assert kdv.RunConfig(dt_rule="fixed", dt=3e-4).timestep(0.2) == 3e-4
    with pytest.raises(ValueError):
        kdv.RunConfig(dt_rule="fixed").timestep(0.1)
    with pytest.raises(ValueError):
        kdv.RunConfig(dt_rule="h4").timestep(0.1)


@pytest.mark.parametrize("fields", [
    {"cfl": 0.0}, {"cfl": -0.01}, {"cfl": float("nan")}, {"cfl": float("inf")},
    {"dt": 0.0}, {"dt": float("inf")}, {"dt": float("nan")},
    {"t_final": -1.0}, {"t_final": float("nan")}, {"t_final": float("inf")},
    # a dt other rules would ignore, and the fixed rule without one
    {"dt": 5e-3}, {"dt_rule": "h2", "dt": 5e-3}, {"dt_rule": "fixed"},
    # a cfl the rules other than cfl_h3 would ignore
    {"dt_rule": "half_h2", "cfl": 5.0}, {"dt_rule": "h2", "cfl": 0.01},
    {"dt_rule": "fixed", "dt": 5e-3, "cfl": 0.01},
])
def test_run_config_rejects_bad_values(fields):
    with pytest.raises(ValueError):
        kdv.RunConfig(**fields)


def test_timestep_guard_warns():
    p = kdv.make_problem("soliton")
    d = kdv.Discretization("TDCNCS", 40, p.length, p.x_lo)
    with pytest.warns(UserWarning):
        kdv.check_timestep(p, d, dt=1.0, u0=d.initial_state(p))


@pytest.mark.parametrize("n", [20, 64, 389])
@pytest.mark.parametrize("family", sorted(kdv.FAMILY_OPS))
def test_timestep_guard_uses_the_run_operator(family, n):
    # the radius of the run's own operator moves with N (at N = 20 it lies a
    # few percent below the one at N = 256), so the guard reads it at the
    # run's N: a dt just under that bound passes and one just over warns
    p = kdv.make_problem("linear", c=1.0)
    d = kdv.Discretization(family, n, p.length, p.x_lo)
    u0 = d.initial_state(p)
    radius = np.max(np.abs(d.d3_op.symbol)) * d.h ** 3
    bound = spectral.IMAG_AXIS_LIMIT_TVDRK3 * d.h ** 3 / (p.epsilon * radius)
    # the bound the stability command prints, in time units
    eigenvalues = spectral.circulant_eigenvalues(d.third_scheme, n)
    printed = spectral.IMAG_AXIS_LIMIT_TVDRK3 / np.max(np.abs(eigenvalues))
    assert bound == pytest.approx(printed * d.h ** 3 / abs(p.epsilon), rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kdv.check_timestep(p, d, dt=0.999 * bound, u0=u0)
    with pytest.warns(UserWarning, match="dispersive stability bound"):
        kdv.check_timestep(p, d, dt=1.001 * bound, u0=u0)


def _counting_initial(problem, calls):
    """``problem`` with its initial condition counting its calls."""
    def initial(x):
        calls.append(len(x))
        return problem.initial(x)

    return dataclasses.replace(problem, initial=initial)


@pytest.mark.parametrize("t_final", [0.01, 0.0])
@pytest.mark.parametrize("family", sorted(kdv.FAMILY_OPS))
def test_a_run_samples_its_initial_state_once(family, t_final):
    calls = []
    p = _counting_initial(kdv.make_problem("soliton"), calls)
    d = kdv.Discretization(family, 40, p.length, p.x_lo)
    kdv.integrate(p, d, kdv.RunConfig(t_final=t_final))
    assert calls == [d.d3_op.size]


@pytest.mark.parametrize("family", sorted(kdv.FAMILY_OPS))
def test_a_serial_study_samples_each_initial_state_twice(family, monkeypatch):
    # once in the zero-length run that checks the grid, once in the run
    calls = []
    make_problem = kdv.make_problem
    monkeypatch.setattr(kdv, "make_problem", lambda *args, **kwargs:
                        _counting_initial(make_problem(*args, **kwargs), calls))
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    kdv.convergence_study("linear", family, [10, 20], kdv.RunConfig(),
                          params={"c": 1.0})
    size = 2 if family == "TDCCS" else 1
    assert sorted(calls) == [10 * size, 10 * size, 20 * size, 20 * size]


def test_linear_example_matches_table_row():
    p = kdv.make_problem("linear", c=1.0)
    d = kdv.Discretization("TDCNCS", 20, p.length, p.x_lo)
    r = kdv.integrate(p, d, kdv.RunConfig())
    assert r.norms[0] == pytest.approx(1.6089e-9, rel=0.1)


def test_filter_cadence_applied():
    p = kdv.make_problem("triple_soliton")
    d = kdv.Discretization("TDCNCS", 64, p.length, p.x_lo)
    cfg = kdv.RunConfig(
        dt_rule="half_h2", t_final=0.05,
        filter=kdv.FilterConfig("F12", 0.4, 5),
    )
    r = kdv.integrate(p, d, cfg)
    assert np.all(np.isfinite(r.state.values))


def test_filter_cadence_validated():
    with pytest.raises(ValueError):
        kdv.FilterConfig("F12", 0.4, 0)



def test_history_recording():
    p = kdv.make_problem("linear", c=1.0)
    d = kdv.Discretization("TDCNCS", 16, p.length, p.x_lo)
    r = kdv.integrate(p, d, kdv.RunConfig(t_final=0.05, record_every=10))
    assert len(r.history) >= 2
    assert r.history[0][0] == 0.0


def test_convergence_report_rates_and_serialization():
    report = kdv.ConvergenceReport(
        problem_id="linear", scheme_id="TDCNCS-T8",
        ns=[10, 20], errors=[(2.56e-3, 1e-3, 1e-3), (1e-5, 1e-5, 1e-5)],
    )
    rates = report.rates()
    assert rates[0] == (None, None, None)
    assert rates[1][0] == pytest.approx(math.log(256.0) / math.log(2.0))
    rows = list(report.rows())
    assert rows[0] == [10, 2.56e-3, 1e-3, 1e-3, None, None, None]
    assert rows[1][:4] == [20, 1e-5, 1e-5, 1e-5]
    doc = report.to_json_dict()
    assert doc["scheme"] == "TDCNCS-T8"
    assert doc["rows"] == [dict(zip(report.CSV_HEADER, row)) for row in rows]


def test_convergence_study_serial_parallel_agree(monkeypatch):
    # the CPU count alone picks the path: 1 in this process, 2 a real pool
    # of two worker processes
    errors = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        errors[cpus] = kdv.convergence_study(
            "linear", "TDCNCS", [10, 20], kdv.RunConfig(), params={"c": 1.0}
        ).errors
    assert errors[1] == errors[2]


@pytest.mark.parametrize("cpus, ns, pools", [
    (2, [10, 20, 30], [2]),
    (1, [10, 20, 30], []),
    (2, [10], []),
])
def test_a_study_pools_when_it_has_more_than_one_cpu_and_n(cpus, ns, pools,
                                                           monkeypatch):
    import concurrent.futures

    opened, discs = [], []
    integrate = kdv.integrate

    class RecordingPool:
        """Records each pool's worker count; runs its jobs in this process."""

        def __init__(self, workers):
            opened.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    def recording_integrate(problem, disc, config):
        discs.append((disc, config.t_final))
        return integrate(problem, disc, config)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(kdv, "integrate", recording_integrate)
    kdv.convergence_study("linear", "TDCNCS", ns, kdv.RunConfig(t_final=0.01),
                          params={"c": 1.0})
    assert opened == pools
    pre_runs = [disc for disc, t_final in discs if t_final == 0.0]
    runs = [disc for disc, t_final in discs if t_final != 0.0]
    assert [disc.n for disc in pre_runs] == ns
    assert [disc.n for disc in runs] == ns
    # in this process the runs step the zero-length runs' discretizations;
    # a pool's workers build their own
    shared = [run is pre for run, pre in zip(runs, pre_runs)]
    assert shared == [not pools] * len(ns)


def test_convergence_study_requires_increasing_ns():
    with pytest.raises(ValueError):
        kdv.convergence_study("linear", "TDCNCS", [20, 10], kdv.RunConfig())


def test_convergence_study_refuses_a_preset_without_exact_solution_first(
        monkeypatch):
    def no_run(*args):
        raise AssertionError("integrate called")

    monkeypatch.setattr(kdv, "integrate", no_run)
    with pytest.raises(ValueError, match="no exact solution"):
        kdv.convergence_study("double_soliton", "TDCNCS", [40, 80],
                              kdv.RunConfig())


@pytest.mark.parametrize("ns, config, message", [
    ([4, 40], kdv.RunConfig(), "N=4 too small for stencil"),
    ([10, 40], kdv.RunConfig(filter=kdv.FilterConfig("F12", 0.4, 20)),
     "N=10 too small for filter width 6"),
    # to t = 0.5 at dt = 0.01 h^3, N = 100000 takes about 5e12 steps
    ([40, 100000], kdv.RunConfig(t_final=0.5), r"more than 1e\+08 steps"),
])
def test_convergence_study_refuses_a_bad_n_before_any_run(ns, config, message,
                                                          monkeypatch):
    # a pool reports a job's error only after the jobs ahead of it finish
    def no_job(args):
        raise AssertionError("a study job ran")

    zero_length_run = kdv.integrate

    def no_run(problem, disc, config):
        if config.t_final != 0:
            raise AssertionError("a study job ran")
        return zero_length_run(problem, disc, config)

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(kdv, "_study_worker", no_job)
    monkeypatch.setattr(kdv, "integrate", no_run)
    with pytest.raises(ValueError, match=message):
        kdv.convergence_study("soliton", "TDCNCS", ns, config)


@pytest.mark.parametrize("family", sorted(kdv.FAMILY_OPS))
def test_family_schemes_share_one_grid_kind(family):
    kinds = {exact.builtin_scheme(sid)[0].grid_kind
             for sid in kdv.FAMILY_OPS[family]}
    assert kinds == {"dual" if family == "TDCCS" else "node_only"}


def test_unknown_family():
    with pytest.raises(KeyError, match="'TDXXX'; valid: TDCNCS, TDCCS"):
        kdv.Discretization("TDXXX", 20, 1.0)


@pytest.mark.parametrize("n", [100.5, 100.0, True])
def test_discretization_refuses_non_integer_n(n):
    # N = 100.5 used to give n = 100 nodes at h = L/100.5
    with pytest.raises(ValueError, match="N must be an integer"):
        kdv.Discretization("TDCNCS", n, 2 * np.pi)


@pytest.mark.parametrize("length, x_lo, message", [
    # refused where it is built, not as a step count of more than 1e+08
    (-2 * np.pi, 0.0, "length must be finite and positive, got -6.28"),
    (0.0, 0.0, "length must be finite and positive, got 0.0"),
    (float("inf"), 0.0, "length must be finite and positive, got inf"),
    (float("nan"), 0.0, "length must be finite and positive, got nan"),
    (2 * np.pi, float("nan"), "x_lo must be finite, got nan"),
    (2 * np.pi, -float("inf"), "x_lo must be finite, got -inf"),
])
def test_discretization_refuses_a_domain_that_is_not_finite(length, x_lo,
                                                            message):
    with pytest.raises(ValueError, match=message):
        kdv.Discretization("TDCNCS", 20, length, x_lo)


@pytest.mark.parametrize("record_every", [-1, 2.5])
def test_run_config_refuses_bad_record_every(record_every):
    # record_every=-1 used to record every step
    with pytest.raises(ValueError, match="record_every"):
        kdv.RunConfig(record_every=record_every)


def test_filter_config_refuses_non_integer_cadence():
    with pytest.raises(ValueError, match="cadence"):
        kdv.FilterConfig("F12", 0.4, 2.5)


def _oracle_state(problem, disc, config):
    """Final fine-grid state of a plain-numpy TVD-RK3 loop, written out in
    the operation order of ``TvdRk3`` with allocating arithmetic."""
    return _oracle_run(problem, disc, config)[0]


def _oracle_run(problem, disc, config):
    """``_oracle_state``'s loop, stepped one step at a time: its final
    fine-grid state and its history, sampled as ``integrate`` documents."""
    t_final = problem.t_final if config.t_final is None else config.t_final
    n_steps = max(1, round(t_final / config.timestep(disc.h)))
    dt = t_final / n_steps

    def by_fft(op):
        # the FFT half of CompactOperator.apply's rule
        size, largest_prime = op.size, 1
        for p in range(2, op.size + 1):
            while size % p == 0:
                size, largest_prime = size // p, p
        return op.size > FFT_THRESHOLD and largest_prime <= 13

    def by_rule(op):
        # the dense/FFT/banded rule of CompactOperator.apply, the FFT written
        # with numpy's public transforms
        if by_fft(op):
            half = op.symbol[:op.size // 2 + 1]
            return lambda v: np.fft.irfft(half * np.fft.rfft(v), n=op.size)
        if op.size <= DENSE_LIMIT:
            dense = op.dense_matrix()
            return lambda v: dense @ v
        return op.apply_array

    # -eps D3 as the run folds it, once, into the operator
    d3_op = disc.d3_op.scaled(-problem.epsilon)
    third, first = by_rule(d3_op), by_rule(disc.d1_op)
    half = d3_op.size // 2 + 1

    def rate(v):
        if problem.kappa == 0.0:
            return third(v)
        flux = problem.kappa * v * v
        if by_fft(d3_op):
            # the FFT path sums the two symbols, -eps D3's and -D1's, before
            # one inverse transform
            return np.fft.irfft(
                d3_op.symbol[:half] * np.fft.rfft(v)
                + -disc.d1_op.symbol[:half] * np.fft.rfft(flux), n=d3_op.size)
        return third(v) - first(flux)

    filt = None
    if config.filter is not None:
        filt = by_rule(FilterOperator(
            filter_by_name(config.filter.name, config.filter.alpha_f), disc.n,
            disc.d3_op.grid_kind))
    u = disc.initial_state(problem)
    history = [(0.0, disc.node_values(u))] if config.record_every else []
    for step in range(1, n_steps + 1):
        u1 = u + dt * rate(u)
        u2 = 0.75 * u + 0.25 * u1 + (0.25 * dt) * rate(u1)
        u = (1.0 / 3.0) * u + (2.0 / 3.0) * u2 + (2.0 / 3.0 * dt) * rate(u2)
        if filt is not None and step % config.filter.every == 0:
            u = filt(u)
        if config.record_every and step % config.record_every == 0:
            history.append((step * dt, disc.node_values(u)))
    return u, history


def _dispersion_limit_10_steps(n, flt=None):
    h = 1.0 / n
    return kdv.RunConfig(cfl=50.0, t_final=10 * 50.0 * h ** 3, filter=flt)


@pytest.mark.parametrize("preset, params, family, n, config", [
    ("linear", {"c": 8.0}, "TDCNCS", 20, kdv.RunConfig()),
    ("linear", {"c": 8.0}, "TDCCS", 20, kdv.RunConfig()),
    ("soliton", {}, "TDCNCS", 40, kdv.RunConfig()),
    ("triple_soliton", {}, "TDCNCS", 150, kdv.RunConfig(
        dt_rule="half_h2", t_final=0.05,
        filter=kdv.FilterConfig("F12", 0.4, 20))),
    ("dispersion_limit", {}, "TDCCS", 256, _dispersion_limit_10_steps(256)),
    # dual-kind filters: dense (size 200) and FFT (size 400) paths
    ("triple_soliton", {}, "TDCCS", 100, kdv.RunConfig(
        dt_rule="half_h2", t_final=0.05,
        filter=kdv.FilterConfig("F10", 0.2, 7))),
    ("triple_soliton", {}, "TDCCS", 200, kdv.RunConfig(
        dt_rule="half_h2", t_final=0.002,
        filter=kdv.FilterConfig("F12", 0.4, 3))),
    # banded paths: sizes 389 (prime) and 386 = 2 * 193
    ("dispersion_limit", {}, "TDCNCS", 389, _dispersion_limit_10_steps(389)),
    ("dispersion_limit", {}, "TDCCS", 193, _dispersion_limit_10_steps(193)),
    # a node-only FFT path with a flux: size 400 = 2^4 * 5^2
    ("dispersion_limit", {}, "TDCNCS", 400, _dispersion_limit_10_steps(400)),
    # states above 1024 entries: a filtered FFT path (size 1200 = 2^4 * 3 *
    # 5^2) and a banded path (size 1031, a prime)
    ("dispersion_limit", {}, "TDCCS", 600, _dispersion_limit_10_steps(
        600, kdv.FilterConfig("F12", 0.4, 3))),
    ("dispersion_limit", {}, "TDCNCS", 1031, _dispersion_limit_10_steps(1031)),
    # FFT paths at size 240 = 2^4 * 3 * 5: the dual soliton run at N = 120
    # and a node-only filtered run
    ("soliton", {}, "TDCCS", 120, kdv.RunConfig(t_final=0.005)),
    ("triple_soliton", {}, "TDCNCS", 240, kdv.RunConfig(
        dt_rule="half_h2", t_final=0.002,
        filter=kdv.FilterConfig("F12", 0.4, 3))),
])
def test_integrate_equals_plain_numpy_loop(preset, params, family, n, config):
    problem = kdv.make_problem(preset, **params)
    disc = kdv.Discretization(family, n, problem.length, problem.x_lo)
    result = kdv.integrate(problem, disc, config)
    state = result.state
    got = state.fine() if isinstance(state, DualGridFunction) else state.values
    assert np.array_equal(got, _oracle_state(problem, disc, config))


def _soliton_steps(steps, dt=0.002):
    return dict(dt_rule="fixed", dt=dt, t_final=steps * dt)


@pytest.mark.parametrize("family, n, config", [
    # events of both cadences, apart and together, over a ragged end
    ("TDCNCS", 40, kdv.RunConfig(**_soliton_steps(17), record_every=5,
                                 filter=kdv.FilterConfig("F12", 0.4, 3))),
    # the one record is the t = 0 sample
    ("TDCNCS", 40, kdv.RunConfig(**_soliton_steps(17), record_every=18)),
    # a filter after every step, so every segment is one step long
    ("TDCNCS", 40, kdv.RunConfig(**_soliton_steps(70), record_every=33,
                                 filter=kdv.FilterConfig("F10", 0.2, 1))),
    # a dual grid, with segments longer than a checked block
    ("TDCCS", 32, kdv.RunConfig(**_soliton_steps(100), record_every=40,
                                filter=kdv.FilterConfig("F12", 0.4, 35))),
])
def test_segments_between_events_give_the_bytes_of_the_step_loop(
        family, n, config):
    problem = kdv.make_problem("soliton")
    disc = kdv.Discretization(family, n, problem.length, problem.x_lo)
    result = kdv.integrate(problem, disc, config)
    want, want_history = _oracle_run(problem, disc, config)
    state = result.state
    got = state.fine() if isinstance(state, DualGridFunction) else state.values
    assert got.tobytes() == want.tobytes()
    assert [t for t, _ in result.history] == [t for t, _ in want_history]
    assert [v.tobytes() for _, v in result.history] == [
        v.tobytes() for _, v in want_history]
    assert len(want_history) == 1 + result.n_steps // config.record_every


@pytest.mark.parametrize("family", ["TDCNCS", "TDCCS"])
@pytest.mark.parametrize("n", [20, 40])
def test_grid_symbol_predicts_the_linear_run(family, n):
    # u_t = -eps D3 u acts on each grid mode alone: a step multiplies mode k
    # by the RK3 amplification of dt * (-eps) * symbol_k
    p = kdv.make_problem("linear", c=8.0)
    d = kdv.Discretization(family, n, p.length, p.x_lo)
    r = kdv.integrate(p, d, kdv.RunConfig())
    amplification = rk3_amplification(r.dt * -p.epsilon * d.d3_op.symbol)
    want = np.fft.ifft(amplification ** r.n_steps
                       * np.fft.fft(d.initial_state(p)))
    got = r.state.fine() if d.dual else r.state.values
    assert r.n_steps > 3000
    assert np.max(np.abs(got - want)) < 1e-11


def test_a_run_without_a_flux_never_builds_the_first_derivative():
    p = kdv.make_problem("linear", c=8.0)
    d = kdv.Discretization("TDCNCS", 20, p.length)
    kdv.integrate(p, d, kdv.RunConfig(t_final=0.001))
    # only -eps D3 is built: neither D1 nor the unscaled D3
    assert d.d3_op.scaled(-p.epsilon)._dense is not None
    assert d.d3_op._dense is None and d.d1_op._dense is None


@pytest.mark.parametrize("family", ["TDCNCS", "TDCCS"])
@pytest.mark.parametrize("preset, params", [("linear", {"c": 8.0}),
                                            ("soliton", {})],
                         ids=["linear", "soliton"])
def test_no_python_scalar_reaches_a_ufunc_in_a_step(family, preset, params,
                                                    monkeypatch):
    p = kdv.make_problem(preset, **params)
    d = kdv.Discretization(family, 20, p.length, p.x_lo)
    d.d3_op.scaled(-p.epsilon).dense_matrix()
    d.d1_op.dense_matrix()
    stepper = TvdRk3((d.d3_op.size,))
    stepper.u[...] = d.initial_state(p)
    seen = []

    def spy(ufunc):
        def call(*args, **kwargs):
            seen.extend((ufunc.__name__, type(a)) for a in args)
            return ufunc(*args, **kwargs)
        return call

    # installed before bind_rate and advance look the ufuncs up
    for name in ("multiply", "add", "subtract"):
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    stepper.advance(kdv.bind_rate(p, d), 0.01 * d.h ** 3, 3)
    assert {name for name, _ in seen} >= {"multiply", "add"}
    assert [(name, t) for name, t in seen if not issubclass(t, np.ndarray)] == []


_LINEAR, _SOLITON = ("linear", {"c": 8.0}), ("soliton", {})


@pytest.mark.parametrize("family, n, problem, per_step", [
    pytest.param(family, 20, problem, per_step, id=f"{problem[0]}-{family}")
    for problem, per_step in (
        (_LINEAR, {"multiply": 3, "add": 5}),
        (_SOLITON, {"multiply": 9, "add": 5, "subtract": 3}))
    for family in ("TDCNCS", "TDCCS")
] + [
    # FFT paths: circulant sizes 400 (node), 1200 and 240 (dual)
    pytest.param(family, n, _SOLITON,
                 {"multiply": 15, "add": 8, "rfft": 6, "irfft": 3},
                 id=f"soliton-{family}-{n}-fft")
    for family, n in (("TDCNCS", 400), ("TDCCS", 600), ("TDCCS", 120))
])
def test_a_step_makes_the_counted_ufunc_calls(family, n, problem, per_step,
                                              monkeypatch):
    # the stages make 3 multiplies and 5 adds; a rate without a flux makes
    # none (-eps is in D3), one with a flux 2 multiplies and 1 subtract on
    # the dense path, and 4 multiplies and 1 add on the FFT path, where it
    # also calls pocketfft's rfft gufunc twice and its irfft once (np.fft's
    # wrappers never)
    p = kdv.make_problem(problem[0], **problem[1])
    d = kdv.Discretization(family, n, p.length, p.x_lo)
    # the dense path's matrices are built before the spies are installed
    d.d3_op.scaled(-p.epsilon).apply, d.d1_op.apply
    stepper = TvdRk3((d.d3_op.size,))
    stepper.u[...] = d.initial_state(p)
    calls = []

    def spy(ufunc, name=None):
        def call(*args, **kwargs):
            calls.append((name or ufunc.__name__, [type(a) for a in args]))
            return ufunc(*args, **kwargs)
        return call

    # installed before bind_rate and advance look the ufuncs up
    for name in ("multiply", "add", "subtract"):
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, spy(getattr(np.fft, name),
                                              f"np.fft.{name}"))
    gufuncs = operators._pocketfft()
    monkeypatch.setattr(operators, "_pocketfft", lambda: types.SimpleNamespace(
        rfft_n_even=spy(gufuncs.rfft_n_even, "rfft"),
        rfft_n_odd=spy(gufuncs.rfft_n_odd, "rfft"),
        irfft=spy(gufuncs.irfft, "irfft")))
    rate = kdv.bind_rate(p, d)
    if p.kappa == 0.0:  # the scaled matrix's own dot, no Python closure
        assert rate.__name__ == "dot"
        assert rate.__self__ is d.d3_op.scaled(-p.epsilon).dense_matrix()
    stepper.advance(rate, 0.01 * d.h ** 3, 3)
    names = [name for name, _ in calls]
    assert {name: names.count(name) for name in names} == {
        name: 3 * count for name, count in per_step.items()}
    assert all(issubclass(t, np.ndarray)
               for _, arg_types in calls for t in arg_types)


# circulant sizes 400, 1200 and 2048 of each family: all on the FFT path
@pytest.mark.parametrize("family, n", [
    ("TDCNCS", 400), ("TDCNCS", 1200), ("TDCNCS", 2048),
    ("TDCCS", 200), ("TDCCS", 600), ("TDCCS", 1024)])
def test_the_fft_flux_rate_agrees_with_its_two_banded_applies(family, n):
    # the FFT path's one symbol sum against -eps D3 v - D1 g(v), each by
    # ``apply_array``: within 10 ulp of max|s3| max|v| + max|s1| max|g(v)|,
    # the size the transforms round at.  Measured over these 10 states:
    # at most 1.11 ulp of it (TDCCS at N = 1024).
    p = kdv.make_problem("dispersion_limit", eps=1e-4)
    d = kdv.Discretization(family, n, p.length, p.x_lo)
    d3_op = d.d3_op.scaled(-p.epsilon)
    assert d3_op.apply == d3_op.apply_fft
    rate = kdv.bind_rate(p, d)
    u0 = d.initial_state(p)
    rng = np.random.default_rng(n)
    for draw in range(10):
        v = u0 + (0.1 * rng.normal(size=u0.size) if draw else 0.0)
        flux = p.kappa * v * v
        want = d3_op.apply_array(v) - d.d1_op.apply_array(flux)
        out = np.empty_like(v)
        assert rate(v, out) is out
        scale = (np.max(np.abs(d3_op.symbol)) * np.max(np.abs(v))
                 + np.max(np.abs(d.d1_op.symbol)) * np.max(np.abs(flux)))
        assert np.max(np.abs(out - want)) <= 10 * 2.0 ** -52 * scale, draw


@pytest.mark.parametrize("family", sorted(kdv.FAMILY_OPS))
def test_a_serial_study_builds_one_dense_matrix_per_n(family, monkeypatch):
    # the zero-length run that checks the grid builds -eps D3; the run
    # steps the same matrix
    built = []
    dense_matrix = CompactOperator.dense_matrix

    def counting(op):
        if op._dense is None:
            built.append(op.size)
        return dense_matrix(op)

    monkeypatch.setattr(CompactOperator, "dense_matrix", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    kdv.convergence_study("linear", family, [10, 20],
                          kdv.RunConfig(t_final=0.01), params={"c": 1.0})
    size = 2 if family == "TDCCS" else 1
    assert built == [10 * size, 20 * size]


def test_divergence_reports_its_step():
    p = kdv.make_problem("soliton")
    d = kdv.Discretization("TDCNCS", 40, p.length, p.x_lo)
    with pytest.warns(UserWarning) as warned:  # the dt guard's
        with pytest.raises(DivergenceError) as err:
            kdv.integrate(p, d, kdv.RunConfig(dt_rule="fixed", dt=0.05))
    # the flux overflows in step 8, which starts at t = 7 dt
    assert err.value.step == 8
    assert "(step 8)" in str(err.value)
    assert err.value.time == pytest.approx(0.35)
    assert not [w for w in warned if issubclass(w.category, RuntimeWarning)]


def _step_by_step_divergence(problem, disc, config):
    """The error that ``TvdRk3.step`` raises when ``integrate``'s run is
    stepped one checked step at a time, filtered after the step."""
    t_final = problem.t_final if config.t_final is None else config.t_final
    n_steps = max(1, round(t_final / config.timestep(disc.h)))
    dt = t_final / n_steps
    stepper = TvdRk3((disc.d3_op.size,))
    stepper.u[...] = disc.initial_state(problem)
    rate = kdv.bind_rate(problem, disc)
    filt = None
    if config.filter is not None:
        filt = FilterOperator(filter_by_name(config.filter.name,
                                             config.filter.alpha_f),
                              disc.n, disc.d3_op.grid_kind)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError) as err:
        for step in range(1, n_steps + 1):
            stepper.step(rate, dt, step, (step - 1) * dt)
            if filt is not None and step % config.filter.every == 0:
                filt.apply(stepper.u, stepper.u)
    return err.value


@pytest.mark.parametrize("family, flt", [
    ("TDCNCS", None),
    ("TDCNCS", kdv.FilterConfig("F12", 0.4, 3)),
    ("TDCCS", kdv.FilterConfig("F10", 0.2, 5)),
])
def test_divergence_is_reported_as_step_by_step_stepping_reports_it(
        family, flt):
    p = kdv.make_problem("soliton")
    d = kdv.Discretization(family, 40, p.length, p.x_lo)
    config = kdv.RunConfig(dt_rule="fixed", dt=0.05, filter=flt,
                           record_every=2)
    want = _step_by_step_divergence(p, d, config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the dt guard's
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError) as err:
            kdv.integrate(p, d, config)
    assert (err.value.step, err.value.time) == (want.step, want.time)
    assert str(err.value) == (
        f"soliton: diverged at t={want.time:.6g} (step {want.step})")
    # the stepper's own error, naming the stage, is the context
    assert str(err.value.__context__) == str(want)


@pytest.mark.parametrize("family, flt", [
    ("TDCNCS", None), ("TDCCS", None),
    ("TDCNCS", kdv.FilterConfig("F12", 0.4, 1)),
    ("TDCCS", kdv.FilterConfig("F12", 0.4, 1)),
])
def test_integrate_leaves_the_initial_array_unmodified(family, flt):
    base = kdv.make_problem("single_soliton")
    d = kdv.Discretization(family, 32, base.length, base.x_lo)
    u0 = d.initial_state(base)
    problem = dataclasses.replace(base, initial=lambda x: u0)
    r = kdv.integrate(problem, d, kdv.RunConfig(
        dt_rule="half_h2", t_final=0.01, filter=flt))
    assert r.n_steps > 1
    assert np.array_equal(u0, d.initial_state(base))


ROOT = pathlib.Path(__file__).resolve().parent.parent
# the case names of the benchmark's KdV workloads, read from perfbench by a
# process that writes no bytecode there
CASE_NAMES_SCRIPT = f"""
import random, sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
import workloads
for workload in ("kdv-linear", "kdv-nonlinear", "kdv-wide"):
    for case in workloads.WORKLOADS[workload](random.Random(0), False):
        print(case.name)
"""


def test_bit_digest_hashes_every_benchmark_kdv_cell():
    # a change meant to keep every bit diffs this script's output on the
    # parent and on the change; the hashes depend on the BLAS and the CPU,
    # so only the lines' form and names are checked here
    names = subprocess.run([sys.executable, "-B", "-c", CASE_NAMES_SCRIPT],
                           capture_output=True, text=True, timeout=60)
    assert names.returncode == 0, names.stderr
    digest = subprocess.run([sys.executable, str(ROOT / "tests/bit_digest.py")],
                            capture_output=True, text=True, timeout=60)
    assert digest.returncode == 0, digest.stderr
    lines = digest.stdout.splitlines()
    assert len(lines) == 11
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert [line.split()[0] for line in lines] == names.stdout.split()


def test_bit_digest_measures_each_cell_against_a_saved_run(tmp_path):
    # --save on one tree and --against on another gives each cell's move;
    # against its own saved states every cell keeps its hash and moves by 0
    script = str(ROOT / "tests/bit_digest.py")
    runs = [subprocess.run([sys.executable, script, flag, str(tmp_path)],
                           capture_output=True, text=True, timeout=60)
            for flag in ("--save", "--against")]
    assert [run.returncode for run in runs] == [0, 0], runs[-1].stderr
    saved, against = (run.stdout.splitlines() for run in runs)
    assert len(saved) == 11
    assert against == [f"{line} 0.00e+00" for line in saved]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"{line.split()[0]}.npy" for line in saved)
