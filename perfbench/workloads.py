"""One pass of one benchmark workload, in a process of its own.

    PYTHONPATH=src python3 perfbench/workloads.py --workload kdv-linear --seed 1

Imports ``dispersive_compact`` from the checkout's ``src``, builds every case
(set-up), runs the computing call of each case (solve), checks each output
against its reference and prints one JSON object: the ``time.monotonic``
start and end of the import and of each case's set-up and solve
(``import_at``, ``build_at``, ``solve_at``, keyed by case name), the speed
probes taken between them (``probes``), ``peak_rss_mb``, ``attempted``,
``failed`` and the failure messages. With
``--trace`` the library's entry points are wrapped (see ``spans.py``) and the
span table is added. ``--quick`` runs each workload at reduced size, for
``selfcheck.py``.

Every workload is a closed loop: one caller runs one case after another. An
operation is one case (a KdV run or a table cell); it fails if it raises or
misses its reference check. The seed only permutes case order and draws the
inputs that have no reference value, so a pass costs the same for any seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

# numpy and dispersive_compact are imported inside the functions below, so
# that setup_s includes the library's import
ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Case:
    name: str
    solve: Callable  # state -> output; timed as solve
    check: Callable  # output -> None, or a message saying what missed
    build: Callable | None = None  # () -> state; timed as set-up


# ---------------------------------------------------------------------------
# KdV workloads
# ---------------------------------------------------------------------------

def _kdv_case(kdv, name, preset, params, family, n, config, check):
    def build():
        problem = kdv.make_problem(preset, **params)
        disc = kdv.Discretization(family, n, problem.length, problem.x_lo)
        return problem, disc

    def solve(state):
        problem, disc = state
        return kdv.integrate(problem, disc, config)

    return Case(name, solve, check, build)


def kdv_linear(rng, quick):
    """Preset linear, c = 8, default RunConfig: criterion 6 cells."""
    kdv = importlib.import_module("dispersive_compact.kdv")
    ns = (20,) if quick else (20, 40)
    cases = []
    for family in ("TDCNCS", "TDCCS"):
        for n in ns:
            want = ref.LINEAR_C8[(family, n)]

            def check(run, want=want):
                for got, w in zip(run.norms, want):
                    if abs(got - w) > ref.LINEAR_TOL * w:
                        return f"norms {run.norms} vs {want}"
                return None

            cases.append(_kdv_case(kdv, f"linear-{family}-{n}", "linear",
                                   {"c": 8.0}, family, n, kdv.RunConfig(),
                                   check))
    return cases


def kdv_nonlinear(rng, quick):
    """Soliton (criterion 7) and filtered triple soliton (criterion 9)."""
    import numpy as np

    kdv = importlib.import_module("dispersive_compact.kdv")
    cases = []
    for family in ("TDCNCS",) if quick else ("TDCNCS", "TDCCS"):
        want = ref.SOLITON_LINF[(family, 120)]

        def check(run, want=want):
            if not want / ref.SOLITON_FACTOR <= run.norms[0] \
                    <= want * ref.SOLITON_FACTOR:
                return f"Linf {run.norms[0]:.4e} vs {want:.4e}"
            return None

        cases.append(_kdv_case(kdv, f"soliton-{family}-120", "soliton", {},
                               family, 120, kdv.RunConfig(), check))

    def check_triple(run):
        if not np.all(np.isfinite(run.state.values)):
            return "non-finite state"
        if not run.mass_drift < ref.MASS_DRIFT_MAX:
            return f"mass drift {run.mass_drift:.2e}"
        return None

    config = kdv.RunConfig(dt_rule="half_h2",
                           filter=kdv.FilterConfig("F12", 0.4, 20),
                           t_final=0.2 if quick else None)
    cases.append(_kdv_case(kdv, "triple-TDCNCS-150", "triple_soliton", {},
                           "TDCNCS", 150, config, check_triple))
    return cases


# (u(T) - u0)/T against the initial rate -u u_x - eps u_xxx, relative max
# norm. The cells measure <= 4.4e-5 (time truncation); dropping the
# dispersive term gives 1.9e-3, flipping its sign 3.8e-3.
WIDE_RATE_TOL = 3e-4
WIDE_CFL = 50.0  # ~0.4 of the TDCCS dispersive bound


def kdv_wide(rng, quick):
    """dispersion_limit, 100 steps at cfl_h3 = 50: dense and banded paths."""
    import numpy as np

    kdv = importlib.import_module("dispersive_compact.kdv")
    steps = 10 if quick else 100
    # circulant size 2N for TDCCS; sizes <= 4096 take the cached dense path
    cells = (("TDCNCS", 512), ("TDCCS", 512)) if quick else \
        (("TDCNCS", 2048), ("TDCCS", 1024))
    cells += (("TDCNCS", 4097), ("TDCCS", 2049))
    cases = []
    for family, n in cells:
        problem = kdv.make_problem("dispersion_limit", eps=1e-4)
        h = problem.length / n
        t_final = steps * WIDE_CFL * h ** 3
        config = kdv.RunConfig(dt_rule="cfl_h3", cfl=WIDE_CFL, t_final=t_final)

        def check(run, t_final=t_final, eps=problem.epsilon):
            state = run.state
            if hasattr(state, "fine"):
                x, u = state.fine_points(), state.fine()
            else:
                x, u = state.nodes(), state.values
            u0 = 2.0 + 0.5 * np.sin(2.0 * np.pi * x)
            ux = np.pi * np.cos(2.0 * np.pi * x)
            uxxx = -4.0 * np.pi ** 3 * np.cos(2.0 * np.pi * x)
            rate = -u0 * ux - eps * uxxx
            err = np.max(np.abs((u - u0) / t_final - rate)) / np.max(np.abs(rate))
            if not err <= WIDE_RATE_TOL:
                return f"initial-rate error {err:.2e}"
            return None

        cases.append(_kdv_case(kdv, f"wide-{family}-{n}", "dispersion_limit",
                               {"eps": 1e-4}, family, n, config, check))
    return cases


# ---------------------------------------------------------------------------
# spectral tables
# ---------------------------------------------------------------------------

LS_FAMILIES = ("TDCCS", "TDCCS-1", "TDCCS-2", "TDCCS-3")
LS_DRAWS = 6  # seeded r per (family, variant)
# the misfit integrand is a short trigonometric sum, so 100 Gauss points give
# the same E as the 400 of the optimization at a sixth of the cost
CHECK_QUAD_POINTS = 100


def spectral_tables(rng, quick):
    """Criteria 1-4: coefficient rows, truncation constants, resolving
    efficiency, LS optimization and stability constants."""
    import numpy as np

    exact = importlib.import_module("dispersive_compact.exact")
    spectral = importlib.import_module("dispersive_compact.spectral")
    groups = []

    rows = []
    for sid in exact.catalogued_scheme_ids():
        def solve(_, sid=sid):
            family, variant = exact.split_scheme_id(sid)
            zero, order = exact.VARIANT_CONSTRAINTS[variant]
            return exact.derive_coefficients(exact.family_template(family),
                                             zero, order, family=sid)

        def check(derived, sid=sid):
            if derived.as_dict() != exact.builtin_scheme(sid)[1].as_dict():
                return "derived row differs from the catalogue"
            return None

        rows.append(Case(f"derive-{sid}", solve, check))
    groups.append(rows)

    rows = []
    for sid, want in ref.TRUNCATION.items():
        def solve(_, sid=sid):
            return exact.leading_truncation_error(*exact.builtin_scheme(sid))

        def check(lead, want=want):
            if abs(abs(lead.decimal) - want) > ref.TRUNCATION_RTOL * want:
                return f"constant {abs(lead.decimal):.6e} vs {want:.6e}"
            return None

        rows.append(Case(f"truncation-{sid}", solve, check))
    groups.append(rows)

    # set-up resolves each analysed id once, filling the derived-row and LS
    # caches; later calls for the same id hit the cache
    analysed = []
    rows = []
    for eps_t, table in ref.EFFICIENCY.items():
        for family, wants in table.items():
            for variant, want in zip(ref.EFFICIENCY_VARIANTS, wants):
                sid = f"{family}-{variant}"
                if sid not in analysed:
                    analysed.append(sid)

                def solve(_, sid=sid, eps_t=eps_t):
                    return spectral.resolving_efficiency(sid, eps_t).e

                def check(e, want=want):
                    if want is None:
                        if not e >= ref.EFFICIENCY_FLOOR:
                            return f"e {e:.4f} below {ref.EFFICIENCY_FLOOR}"
                    elif not abs(e - want) <= ref.EFFICIENCY_TOL:
                        return f"e {e:.4f} vs {want:.4f}"
                    return None

                rows.append(Case(f"efficiency-{sid}-{eps_t:g}", solve, check,
                                 lambda sid=sid: spectral.scheme_symbol(sid)))
    groups.append(rows)

    rows = []
    for sid in analysed:
        eps_t = 10.0 ** rng.uniform(-6.0, -3.0)

        def solve(_, sid=sid, eps_t=eps_t):
            return tuple(spectral.resolving_efficiency(sid, eps_t, mode=m).e
                         for m in ("strict", "band_edge"))

        def check(es):
            # strict stops at the first exceedance, band_edge at the last
            # in-tolerance point; bisection resolves w to 1e-5
            strict, band = es
            if not 0.0 < strict <= band + 1e-5 / math.pi and band <= 1.0:
                return f"strict {strict:.4f}, band_edge {band:.4f}"
            return None

        rows.append(Case(f"efficiency-{sid}-seeded", solve, check,
                         lambda sid=sid: spectral.scheme_symbol(sid)))
    groups.append(rows)

    rows = []
    for family in LS_FAMILIES:
        template = exact.family_template(family)
        for variant in ref.EFFICIENCY_VARIANTS:
            for draw in range(LS_DRAWS):
                r = rng.uniform(0.5, 1.0)

                def solve(_, family=family, variant=variant, r=r):
                    return spectral.ls_optimize(family, variant, r)

                def check(coeffs, family=family, variant=variant, r=r,
                          template=template):
                    # the retained low-order conditions hold, and the misfit
                    # is no larger than that of the Taylor coefficients
                    zero, _ = exact.VARIANT_CONSTRAINTS[variant]
                    kept = sum(u not in zero for u in ("alpha", "beta"))
                    values = coeffs.as_dict()
                    for eq in exact.order_conditions(template, 2 * kept)[:kept]:
                        res = eq["const"] + sum(eq[u] * values[u]
                                                for u in exact.ALL_UNKNOWNS)
                        if abs(float(res)) > 1e-9:
                            return f"order-condition residual {float(res):.2e}"
                    taylor = exact.builtin_scheme(f"{family}-{variant}")[1]
                    e_ls = spectral.ls_misfit(family, coeffs, r,
                                              CHECK_QUAD_POINTS)
                    e_te = spectral.ls_misfit(family, taylor, r,
                                              CHECK_QUAD_POINTS)
                    if not e_ls <= e_te * (1.0 + 1e-9):
                        return f"LS misfit {e_ls:.3e} above Taylor {e_te:.3e}"
                    return None

                rows.append(Case(f"ls-{family}-{variant}-{draw}", solve,
                                 check))
    groups.append(rows)

    rows = []
    for sid, want in ref.STABILITY.items():
        def solve(_, sid=sid):
            return tuple(
                float(np.max(np.abs(spectral.circulant_eigenvalues(sid, n))))
                for n in (100, 1024))

        def check(lams, sid=sid, want=want):
            lam100, lam1024 = lams
            cfl, digits = ref.STABILITY_CFL[sid]
            if (abs(lam100 - want) > ref.STABILITY_ATOL
                    or abs(lam1024 - want) > ref.STABILITY_RTOL * want
                    or round(1.732 / lam100, digits) != cfl):
                return f"|lambda| {lam100:.4f} / {lam1024:.4f} vs {want}"
            return None

        rows.append(Case(f"stability-{sid}", solve, check))
    groups.append(rows)

    return [case for rows in groups for case in (rows[:2] if quick else rows)]


WORKLOADS = {
    "kdv-linear": kdv_linear,
    "kdv-nonlinear": kdv_nonlinear,
    "kdv-wide": kdv_wide,
    "spectral-tables": spectral_tables,
}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def _versions() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": blas_name}


class SpeedProbe:
    """Times a fixed pure-Python loop every EVERY_S seconds, on SIGALRM.

    A neighbour on a shared host can slow this process's CPU down by up to
    twice, for tens of milliseconds to tens of seconds, which the process
    cannot see in its own CPU time. The probe's time tracks that slow-down,
    so that ``run.py`` can rescale each timed interval to a steady speed and
    take out the time the probes themselves used.
    """

    LOOPS = 20_000  # about 1.2 ms on an uncontended 2 GHz core
    EVERY_S = 0.05

    def __init__(self):
        # (middle on time.monotonic, loop time)
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def take(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.monotonic()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * i
        end = time.monotonic()
        self.samples.append(((start + end) / 2.0, end - start))
        self._busy = False

    def __enter__(self):
        self.take()
        self._previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.take()
        return False


def run_pass(workload: str, seed: int, trace: bool, quick: bool) -> dict:
    with SpeedProbe() as probe:
        result = _timed_pass(workload, seed, trace, quick)
    result["probes"] = probe.samples
    return result


def _timed_pass(workload: str, seed: int, trace: bool, quick: bool) -> dict:
    clock = time.monotonic
    t0 = clock()
    package = importlib.import_module("dispersive_compact")
    for module in ("exact", "spectral", "kdv"):
        importlib.import_module(f"dispersive_compact.{module}")
    import_at = (t0, clock())
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"dispersive_compact imported from {package.__file__}, "
                          f"not from {ROOT / 'src'}")

    tracer = None
    missing = []
    if trace:
        import spans

        tracer = spans.Tracer()
        missing = tracer.install()

    rng = random.Random(seed)
    cases = WORKLOADS[workload](rng, quick)
    rng.shuffle(cases)
    if len({case.name for case in cases}) != len(cases):
        raise ValueError(f"{workload}: case names are not unique")

    failures = []

    def fail(case, what):
        failures.append(f"{case.name}: {what}")

    built = []
    build_at = {}
    for case in cases:
        if tracer:
            tracer.case = case.name
        t0 = clock()
        try:
            built.append((case, case.build() if case.build else None))
        except Exception as err:  # a failed operation
            fail(case, f"build raised {type(err).__name__}: {err}")
        build_at[case.name] = (t0, clock())

    solve_at = {}
    for case, state in built:
        if tracer:
            tracer.case = case.name
        t0 = clock()
        try:
            output = case.solve(state)
        except Exception as err:  # a failed operation
            solve_at[case.name] = (t0, clock())
            fail(case, f"raised {type(err).__name__}: {err}")
            continue
        solve_at[case.name] = (t0, clock())
        if tracer:
            tracer.case = None
        try:
            problem = case.check(output)
        except Exception as err:  # a check that cannot run is a miss
            problem = f"check raised {type(err).__name__}: {err}"
        if problem:
            fail(case, problem)

    result = {
        "workload": workload,
        "import_at": import_at,
        "build_at": build_at,
        "solve_at": solve_at,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(cases),
        "failed": len(failures),
        "failures": failures,
        "versions": _versions(),
    }
    if tracer:
        result["spans"] = tracer.per_span()
        result["span_records"] = tracer.records()
        result["missing_boundaries"] = missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.trace, args.quick)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
