"""Periodic KdV-type problems  u_t + g(u)_x + eps*u_xxx = 0  with the flux
g(u) = kappa*u^2, and their semidiscrete / fully discrete solution, error
norms and convergence studies.  The module writes no files.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .operators import CompactOperator, FilterOperator, filter_by_name
from .timeint import DivergenceError, TvdRk3


def _sech(x):
    # np.cosh overflows harmlessly for large |x|; 1/cosh underflows to 0
    with np.errstate(over="ignore"):
        return 1.0 / np.cosh(x)


@dataclass(frozen=True)
class KdvProblem:
    """One periodic initial-value problem with optional exact solution."""

    name: str
    x_lo: float
    x_hi: float
    kappa: float  # flux g(u) = kappa*u^2, so g'(u) = 2*kappa*u
    epsilon: float
    initial: object  # x -> u0(x)
    exact: object | None  # (x, t) -> u, or None
    t_final: float

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise ValueError("x_hi must exceed x_lo")
        _check_t_final(self.t_final)

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo


def _check_t_final(t_final) -> None:
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and non-negative, got {t_final}")


def _checked(positive=(), **params) -> list[float]:
    """Preset parameters as floats: all finite, those named in ``positive`` > 0."""
    values = {name: float(value) for name, value in params.items()}
    for name, value in values.items():
        if not math.isfinite(value) or (name in positive and not value > 0):
            need = "finite and positive" if name in positive else "finite"
            raise ValueError(f"{name} must be {need}, got {value}")
    return list(values.values())


def _linear(c=1.0):
    (c,) = _checked(c=c)
    if c == 0 or not c.is_integer():  # sin(c x) is 2 pi-periodic for whole c only
        raise ValueError(f"c must be a nonzero integer, got {c}")
    (eps,) = _checked(("eps",), eps=c ** -2)
    return KdvProblem(
        name="linear",
        x_lo=0.0, x_hi=2.0 * np.pi,
        kappa=0.0,
        epsilon=eps,
        initial=lambda x: np.sin(c * x),
        exact=lambda x, t: np.sin(c * (x + t)),
        t_final=1.0,
    )


def _soliton():
    return KdvProblem(
        name="soliton",
        x_lo=-10.0, x_hi=12.0,
        kappa=-3.0,
        epsilon=1.0,
        initial=lambda x: -2.0 * _sech(x) ** 2,
        exact=lambda x, t: -2.0 * _sech(x - 4.0 * t) ** 2,
        t_final=0.5,
    )


def _single_soliton(c=0.3, eps=5e-4, x0=0.5):
    c, eps, x0 = _checked(("c", "eps"), c=c, eps=eps, x0=x0)
    (k,) = _checked(("k",), k=0.5 * math.sqrt(c / eps))
    return KdvProblem(
        name="single_soliton",
        x_lo=0.0, x_hi=2.0,
        kappa=0.5,
        epsilon=eps,
        initial=lambda x: 3.0 * c * _sech(k * (x - x0)) ** 2,
        exact=lambda x, t: 3.0 * c * _sech(k * (x - x0 - c * t)) ** 2,
        t_final=3.0,
    )


def _double_soliton(c1=0.3, c2=0.1, x1=0.4, x2=0.8, eps=4.84e-4):
    c1, c2, x1, x2, eps = _checked(("c1", "c2", "eps"), c1=c1, c2=c2,
                                   x1=x1, x2=x2, eps=eps)
    k1, k2 = _checked(("k1", "k2"), k1=0.5 * math.sqrt(c1 / eps),
                      k2=0.5 * math.sqrt(c2 / eps))
    return KdvProblem(
        name="double_soliton",
        x_lo=0.0, x_hi=2.0,
        kappa=0.5,
        epsilon=eps,
        initial=lambda x: (3.0 * c1 * _sech(k1 * (x - x1)) ** 2
                           + 3.0 * c2 * _sech(k2 * (x - x2)) ** 2),
        exact=None,
        t_final=4.0,
    )


def _triple_soliton(eps=1e-4):
    (eps,) = _checked(("eps",), eps=eps)
    return KdvProblem(
        name="triple_soliton",
        x_lo=0.0, x_hi=3.0,
        kappa=0.5,
        epsilon=eps,
        initial=lambda x: (2.0 / 3.0) * _sech((x - 1.0) / math.sqrt(108.0 * eps)) ** 2,
        exact=None,
        t_final=4.0,
    )


def _dispersion_limit(eps=1e-4):
    (eps,) = _checked(eps=eps)
    return KdvProblem(
        name="dispersion_limit",
        x_lo=0.0, x_hi=1.0,
        kappa=0.5,
        epsilon=eps,
        initial=lambda x: 2.0 + 0.5 * np.sin(2.0 * np.pi * x),
        exact=None,
        t_final=0.5,
    )


def _tophat(eps=1e-4):
    (eps,) = _checked(eps=eps)
    return KdvProblem(
        name="tophat",
        x_lo=0.0, x_hi=5.0,
        kappa=0.5,
        epsilon=eps,
        initial=lambda x: np.where((x > 0.25) & (x < 4.0), 1.0, 0.0),
        exact=None,
        t_final=0.05,
    )


_PRESETS = {
    "linear": _linear,
    "soliton": _soliton,
    "single_soliton": _single_soliton,
    "double_soliton": _double_soliton,
    "triple_soliton": _triple_soliton,
    "dispersion_limit": _dispersion_limit,
    "tophat": _tophat,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def make_problem(preset: str, **params) -> KdvProblem:
    try:
        factory = _PRESETS[preset]
    except KeyError:
        raise KeyError(
            f"unknown preset {preset!r}; valid: {', '.join(preset_names())}"
        ) from None
    try:
        return factory(**params)
    except TypeError as err:  # a parameter the preset does not take
        raise ValueError(f"bad parameters for preset {preset!r}: {err}") from None


# ---------------------------------------------------------------------------
# spatial discretization
# ---------------------------------------------------------------------------

def _whole(name: str, value, lo: int) -> int:
    """``value`` as an int.  A bool, a float or any other non-integer is
    refused, not rounded, and so is a value below ``lo``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo):
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GridFunction:
    """A node-only run's state: periodic samples on N nodes with spacing h."""

    values: np.ndarray
    h: float
    domain_start: float = 0.0

    @property
    def n(self) -> int:
        return len(self.values)

    def nodes(self) -> np.ndarray:
        return self.domain_start + self.h * np.arange(self.n)


@dataclass(frozen=True)
class DualGridFunction:
    """A dual run's state: co-evolved node and center samples (centers at
    x_j + h/2), the even and odd points of the interleaved fine array."""

    node_values: np.ndarray
    center_values: np.ndarray
    h: float
    domain_start: float = 0.0

    @property
    def n(self) -> int:
        return len(self.node_values)

    def fine(self) -> np.ndarray:
        out = np.empty(2 * self.n)
        out[0::2] = self.node_values
        out[1::2] = self.center_values
        return out

    def fine_points(self) -> np.ndarray:
        return self.domain_start + 0.5 * self.h * np.arange(2 * self.n)


FAMILY_OPS = {
    # family -> (third- and first-derivative scheme), of one grid kind
    "TDCNCS": ("TDCNCS-T8", "CNCS-T8"),
    "TDCCS": ("TDCCS-T8", "CCS-T8"),
}


class Discretization:
    """Operators of one scheme family on a fixed periodic grid.

    The TDCNCS family holds node values only; TDCCS co-evolves node and
    center values on the interleaved fine grid.
    """

    def __init__(self, family: str, n: int, length: float, x_lo: float = 0.0):
        if family not in FAMILY_OPS:
            raise KeyError(f"unknown family {family!r}; "
                           f"valid: {', '.join(FAMILY_OPS)}")
        self.n = _whole("N", n, 1)
        self.h = length / self.n
        self.x_lo = float(x_lo)
        self.third_scheme, first_scheme = FAMILY_OPS[family]
        self.d3_op = CompactOperator(self.third_scheme, self.n, self.h)
        self.d1_op = CompactOperator(first_scheme, self.n, self.h)
        self.dual = self.d3_op.grid_kind == "dual"

    def nodes(self) -> np.ndarray:
        return self.x_lo + self.h * np.arange(self.n)

    def initial_state(self, problem: KdvProblem):
        """Sample u0 directly (centers sampled, never interpolated)."""
        if self.dual:
            return problem.initial(self.x_lo + 0.5 * self.h * np.arange(2 * self.n))
        return problem.initial(self.nodes())

    def wrap(self, values: np.ndarray) -> GridFunction | DualGridFunction:
        """The run-result view of a state array."""
        if self.dual:
            return DualGridFunction(values[0::2], values[1::2], self.h, self.x_lo)
        return GridFunction(values, self.h, self.x_lo)

    def node_values(self, values: np.ndarray) -> np.ndarray:
        return values[0::2] if self.dual else values


def bind_rate(problem: KdvProblem, disc: Discretization):
    """The rate  -(g(u))_x - eps * u_xxx  as ``rate(v, out)``, which writes it
    into ``out`` and returns it.  The operators' apply paths, -eps and kappa
    are looked up once, here, and the flux g(u) and its derivative have
    buffers of their own, so a step's three rates make no Python call below
    this one on the dense path.  Non-finite values are left to the time
    stepper's check."""
    third, neg_eps, multiply = disc.d3_op.apply, -problem.epsilon, np.multiply
    if problem.kappa == 0.0:
        # no flux: D1 is not applied, so its dense matrix is never built
        def rate(v, out):
            multiply(third(v, out), neg_eps, out)
            return out

        return rate

    first, kappa, subtract = disc.d1_op.apply, problem.kappa, np.subtract
    flux, d_flux = np.empty((2, disc.d1_op.size))

    def rate(v, out):
        multiply(third(v, out), neg_eps, out)
        multiply(v, kappa, flux)
        multiply(flux, v, flux)
        subtract(out, first(flux, d_flux), out)
        return out

    return rate


# ---------------------------------------------------------------------------
# run configuration and integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterConfig:
    name: str = "F12"  # F8 / F10 / F12
    alpha_f: float = 0.4
    every: int = 20

    def __post_init__(self):
        _whole("filter cadence", self.every, 1)


# dt rule -> its nominal step at spacing h, given RunConfig's cfl and dt.
# cfl_h3, the paper's rule, reads neither eps nor the operator, so it sits at
# a different fraction of each run's own dispersive bound (README).
DT_RULES = {
    "cfl_h3": lambda h, cfl, dt: (0.01 if cfl is None else cfl) * h ** 3,
    "half_h2": lambda h, cfl, dt: 0.5 * h * h,
    "h2": lambda h, cfl, dt: h * h,
    "fixed": lambda h, cfl, dt: dt,
}


@dataclass(frozen=True)
class RunConfig:
    dt_rule: str = "cfl_h3"  # a key of DT_RULES
    cfl: float | None = None  # cfl_h3 only; None: 0.01
    dt: float | None = None  # given with dt_rule == "fixed" and only with it
    filter: FilterConfig | None = None
    record_every: int = 0  # 0: no history
    t_final: float | None = None  # None: problem default

    def __post_init__(self):
        if self.dt_rule not in DT_RULES:
            raise ValueError(f"unknown dt rule {self.dt_rule!r}")
        _whole("record_every", self.record_every, 0)
        if self.cfl is not None:
            _checked(("cfl",), cfl=self.cfl)
            if self.dt_rule != "cfl_h3":
                raise ValueError(f"a cfl goes with dt_rule 'cfl_h3' only; got "
                                 f"dt_rule {self.dt_rule!r} and cfl {self.cfl}")
        if self.dt is not None:
            _checked(("dt",), dt=self.dt)
        if (self.dt is not None) != (self.dt_rule == "fixed"):
            raise ValueError(f"a dt goes with dt_rule 'fixed' and only with it; "
                             f"got dt_rule {self.dt_rule!r} and dt {self.dt}")
        if self.t_final is not None:
            _check_t_final(self.t_final)

    def timestep(self, h: float) -> float:
        """The rule's nominal step at spacing ``h`` (``DT_RULES``)."""
        return DT_RULES[self.dt_rule](h, self.cfl, self.dt)


@dataclass
class RunResult:
    problem: KdvProblem
    disc: Discretization
    state: GridFunction | DualGridFunction
    t_final: float
    n_steps: int
    dt: float
    norms: tuple[float, float, float] | None  # (Linf, L1, L2) vs exact
    mass_initial: float
    mass_final: float
    mass_scale: float  # h * sum |u0|, the natural size of the mass
    history: list  # [(t, node_values array), ...] if recorded

    @property
    def mass_drift(self) -> float:
        scale = max(abs(self.mass_initial), self.mass_scale, 1e-30)
        return abs(self.mass_final - self.mass_initial) / scale


def check_timestep(problem: KdvProblem, disc: Discretization, dt: float,
                   u0: np.ndarray) -> None:
    """Warn when dt exceeds the dispersive bound of the run's own operator or
    the convective guard of its sampled initial state ``u0``."""
    if problem.epsilon != 0.0:
        bound = spectral.IMAG_AXIS_LIMIT_TVDRK3 / (
            abs(problem.epsilon) * float(np.max(np.abs(disc.d3_op.symbol))))
        if dt > bound * (1.0 + 1e-12):
            warnings.warn(
                f"dt={dt:.3e} exceeds the dispersive stability bound "
                f"{bound:.3e} for {disc.third_scheme}",
                stacklevel=2,
            )
    speed = float(np.max(np.abs(2.0 * problem.kappa * u0)))  # 0 without a flux
    if speed > 0 and dt > 0.5 * disc.h / speed:
        warnings.warn(
            f"dt={dt:.3e} exceeds the convective guard "
            f"{0.5 * disc.h / speed:.3e}",
            stacklevel=2,
        )


# The longest documented run (eps = 1e-6, TDCNCS N = 1600, dt = h^2) takes about
# 1.3e6 steps; far more is a mistyped t_final or dt that would run without bound.
MAX_STEPS = 10**8


def integrate(problem: KdvProblem, disc: Discretization,
              config: RunConfig) -> RunResult:
    t_final = problem.t_final if config.t_final is None else float(config.t_final)
    # the loop steps the stepper's own row, in place
    stepper = TvdRk3((disc.d3_op.size,))
    values = stepper.u
    values[...] = disc.initial_state(problem)
    nodes = disc.node_values(values)  # a view: it follows the stepped row
    mass0 = disc.h * float(np.sum(nodes))
    mass_scale = disc.h * float(np.sum(np.abs(nodes)))

    dt_nominal = config.timestep(disc.h)
    if not (dt_nominal > 0 and t_final / dt_nominal <= MAX_STEPS):
        raise ValueError(f"time step {dt_nominal:.3g} gives more than "
                         f"{MAX_STEPS:.0e} steps to t_final={t_final:.6g}")
    # a zero-length run takes no step, and every other run at least one
    n_steps = max(1, round(t_final / dt_nominal)) if t_final > 0 else 0
    dt = t_final / n_steps if n_steps else 0.0
    # a filter is refused before the step guard can warn
    filt = None
    if config.filter is not None:
        spec = filter_by_name(config.filter.name, config.filter.alpha_f)
        filt = FilterOperator(spec, disc.n, disc.d3_op.grid_kind)
    check_timestep(problem, disc, dt, values)

    rate = bind_rate(problem, disc)
    history = []
    if config.record_every:
        history.append((0.0, nodes.copy()))
    # the loop steps from event to event: a filter step, a record step or
    # the end
    cadences = [c for c in (config.filter and config.filter.every,
                            config.record_every) if c]
    step = 0
    try:
        # an overflow or invalid operation leaves a non-finite value in the
        # state, which the stepper's own check reports as a DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            while step < n_steps:
                event = min([n_steps] + [(step // c + 1) * c for c in cadences])
                stepper.advance(rate, dt, event - step, step + 1)
                step = event
                if filt is not None and step % config.filter.every == 0:
                    filt.apply(values, values)
                if config.record_every and step % config.record_every == 0:
                    history.append((step * dt, nodes.copy()))
    except DivergenceError as err:
        raise DivergenceError(
            f"{problem.name}: diverged at t={err.time:.6g} (step {err.step})",
            step=err.step, time=err.time,
        ) from None

    mass1 = disc.h * float(np.sum(nodes))
    norms = None if problem.exact is None else error_norms(
        nodes, problem.exact(disc.nodes(), t_final))
    return RunResult(problem, disc, disc.wrap(values), t_final, n_steps, dt,
                     norms, mass0, mass1, mass_scale, history)


def error_norms(numeric: np.ndarray, exact: np.ndarray):
    """(Linf, L1, L2) of two node arrays with the wrapped-endpoint 1/(N+1)
    averaging."""
    if len(numeric) != len(exact):
        raise ValueError("length mismatch")
    diff = np.abs(numeric - exact)
    # periodic tables count both x_0 and x_N = x_0 + L
    diff = np.concatenate([diff, diff[:1]])
    linf = float(np.max(diff))
    l1 = float(np.mean(diff))
    l2 = float(np.sqrt(np.mean(diff * diff)))
    return (linf, l1, l2)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    problem_id: str
    scheme_id: str
    ns: list[int]
    errors: list[tuple[float, float, float]]  # (Linf, L1, L2) per N

    def rates(self):
        out = [(None, None, None)]
        for i in range(1, len(self.ns)):
            ratio = math.log(self.ns[i] / self.ns[i - 1])
            row = []
            for j in range(3):
                prev, cur = self.errors[i - 1][j], self.errors[i][j]
                row.append(math.log(prev / cur) / ratio if prev > 0 and cur > 0
                           else None)
            out.append(tuple(row))
        return out

    CSV_HEADER = ["N", "Linf", "L1", "L2", "rate_inf", "rate_1", "rate_2"]

    def rows(self):
        for n, errs, rates in zip(self.ns, self.errors, self.rates()):
            yield [n, *errs, *rates]

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem_id,
            "scheme": self.scheme_id,
            "rows": [
                dict(zip(self.CSV_HEADER, row)) for row in self.rows()
            ],
        }


def _study_worker(args):
    preset, params, family, n, config = args
    problem = make_problem(preset, **params)
    disc = Discretization(family, n, problem.length, problem.x_lo)
    return integrate(problem, disc, config).norms


def convergence_study(preset: str, family: str, ns: list[int],
                      config: RunConfig,
                      params: dict | None = None) -> ConvergenceReport:
    """Errors per N, each N run in a pool of up to one process per CPU;
    on one CPU, or with one N, the runs stay in this process.
    A preset without an exact solution, and an N whose grid or filter a run
    refuses, are refused before any run: a pool reports a job's error only
    after the jobs ahead of it have finished."""
    if not ns:
        raise ValueError("Ns must list at least one N")
    if list(ns) != sorted(set(ns)):
        raise ValueError("Ns must be strictly increasing")
    params = dict(params or {})
    problem = make_problem(preset, **params)
    if problem.exact is None:
        raise ValueError(f"preset {preset!r} has no exact solution")
    discs = [Discretization(family, n, problem.length, problem.x_lo)
             for n in ns]
    for disc in discs:  # a zero-length run checks the grid, step rule and filter
        integrate(problem, disc, replace(config, t_final=0.0))
    workers = min(os.cpu_count() or 1, len(ns))
    if workers > 1:
        # multiprocessing is loaded only by the runs that use it
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(preset, params, family, n, config) for n in ns]
        with ProcessPoolExecutor(workers) as pool:
            errors = list(pool.map(_study_worker, jobs))
    else:
        # the serial runs step the operators that the zero-length runs built
        errors = [integrate(problem, disc, config).norms for disc in discs]
    return ConvergenceReport(
        problem_id=preset, scheme_id=FAMILY_OPS[family][0],
        ns=list(ns), errors=errors,
    )

