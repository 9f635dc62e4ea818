"""Periodic KdV-type problems  u_t + g(u)_x + eps*u_xxx = 0  with the flux
g(u) = kappa*u^2, and their semidiscrete / fully discrete solution, error
norms and convergence studies.  The module writes no files.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .operators import CompactOperator, FilterOperator, filter_by_name
from .timeint import DivergenceError, TvdRk3

THREADS_ENV = "DISPERSIVE_COMPACT_THREADS"


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
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise ValueError("x_hi must exceed x_lo")

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo


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
    return KdvProblem(
        name="linear",
        x_lo=0.0, x_hi=2.0 * np.pi,
        kappa=0.0,
        epsilon=c ** -2,
        initial=lambda x: np.sin(c * x),
        exact=lambda x, t: np.sin(c * (x + t)),
        t_final=1.0,
        params={"c": c},
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
        params={"c": c, "eps": eps, "x0": x0, "k": k},
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
        params={"c1": c1, "c2": c2, "x1": x1, "x2": x2, "eps": eps},
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
        params={"eps": eps},
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
        params={"eps": eps},
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
        params={"eps": eps},
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
    return factory(**params)


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


_FAMILY_OPS = {
    # family -> (third-derivative scheme, first-derivative scheme)
    "TDCNCS": ("TDCNCS-T8", "CNCS-T8"),
    "TDCCS": ("TDCCS-T8", "CCS-T8"),
}

class Discretization:
    """Operators of one scheme family on a fixed periodic grid.

    The TDCNCS family holds node values only; TDCCS co-evolves node and
    center values on the interleaved fine grid.
    """

    def __init__(self, family: str, n: int, length: float, x_lo: float = 0.0):
        if family not in _FAMILY_OPS:
            raise KeyError(f"unknown family {family!r}; valid: TDCNCS, TDCCS")
        self.family = family
        self.n = _whole("N", n, 1)
        self.h = length / self.n
        self.x_lo = float(x_lo)
        self.third_scheme, self.first_scheme = _FAMILY_OPS[family]
        self.d3_op = CompactOperator(self.third_scheme, self.n, self.h)
        self.d1_op = CompactOperator(self.first_scheme, self.n, self.h)
        if self.d3_op.grid_kind != self.d1_op.grid_kind:
            raise ValueError("first/third derivative grid kinds disagree")
        self.dual = self.d3_op.grid_kind == "dual"
        self._work = np.empty(self.d1_op.size)  # first(g(u)) inside semidiscrete_rhs

    def nodes(self) -> np.ndarray:
        return self.x_lo + self.h * np.arange(self.n)

    def fine_points(self) -> np.ndarray:
        return self.x_lo + 0.5 * self.h * np.arange(2 * self.n)

    def third(self, values: np.ndarray, out=None) -> np.ndarray:
        return self.d3_op.matvec(values, out=out)

    def first(self, values: np.ndarray, out=None) -> np.ndarray:
        return self.d1_op.matvec(values, out=out)

    def initial_state(self, problem: KdvProblem):
        """Sample u0 directly (centers sampled, never interpolated)."""
        if self.dual:
            return problem.initial(self.fine_points())
        return problem.initial(self.nodes())

    def wrap(self, values: np.ndarray) -> GridFunction | DualGridFunction:
        """The run-result view of a state array."""
        if self.dual:
            return DualGridFunction(values[0::2], values[1::2], self.h, self.x_lo)
        return GridFunction(values, self.h, self.x_lo)

    def node_values(self, values: np.ndarray) -> np.ndarray:
        return values[0::2] if self.dual else values


def semidiscrete_rhs(problem: KdvProblem, disc: Discretization,
                     values: np.ndarray, out=None) -> np.ndarray:
    """Rate  -(g(u))_x - eps * u_xxx  on the discretization's value layout,
    written into ``out`` when given.  Non-finite values are left to the
    time stepper's check."""
    rate = disc.third(values, out=out)
    np.multiply(rate, -problem.epsilon, out=rate)
    if problem.kappa != 0.0:
        rate -= disc.first(problem.kappa * values * values, out=disc._work)
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


@dataclass(frozen=True)
class RunConfig:
    dt_rule: str = "cfl_h3"  # cfl_h3 | half_h2 | h2 | fixed
    cfl: float | None = None  # cfl_h3 only; None: 0.01
    dt: float | None = None  # given with dt_rule == "fixed" and only with it
    filter: FilterConfig | None = None
    record_every: int = 0  # 0: no history
    t_final: float | None = None  # None: problem default

    def __post_init__(self):
        _whole("record_every", self.record_every, 0)
        if self.cfl is not None and not (math.isfinite(self.cfl) and self.cfl > 0):
            raise ValueError(f"cfl must be finite and positive, got {self.cfl}")
        if self.cfl is not None and self.dt_rule != "cfl_h3":
            raise ValueError(f"a cfl goes with dt_rule 'cfl_h3' only; "
                             f"got dt_rule {self.dt_rule!r} and cfl {self.cfl}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if (self.dt is not None) != (self.dt_rule == "fixed"):
            raise ValueError(f"a dt goes with dt_rule 'fixed' and only with it; "
                             f"got dt_rule {self.dt_rule!r} and dt {self.dt}")
        if self.t_final is not None and not (
                math.isfinite(self.t_final) and self.t_final >= 0):
            raise ValueError(
                f"t_final must be finite and non-negative, got {self.t_final}")

    def timestep(self, h: float) -> float:
        if self.dt_rule == "cfl_h3":
            return (0.01 if self.cfl is None else self.cfl) * h ** 3
        if self.dt_rule == "half_h2":
            return 0.5 * h * h
        if self.dt_rule == "h2":
            return h * h
        if self.dt_rule == "fixed":
            return self.dt
        raise ValueError(f"unknown dt rule {self.dt_rule!r}")


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


def check_timestep(problem: KdvProblem, disc: Discretization, dt: float) -> None:
    """Warn when dt exceeds the dispersive or convective stability guard."""
    # spectral radius of h^3 D3 for the run's own operator and N
    lam = float(np.max(np.abs(disc.d3_op.symbol))) * disc.h ** 3
    if problem.epsilon != 0.0:
        bound = spectral.IMAG_AXIS_LIMIT_TVDRK3 * disc.h ** 3 / (
            abs(problem.epsilon) * lam)
        if dt > bound * (1.0 + 1e-12):
            warnings.warn(
                f"dt={dt:.3e} exceeds the dispersive stability bound "
                f"{bound:.3e} for {disc.third_scheme}",
                stacklevel=2,
            )
    u0 = disc.initial_state(problem)
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
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    # a copy: the loop below steps it in place
    values = np.array(disc.initial_state(problem), dtype=float)
    mass0 = disc.h * float(np.sum(disc.node_values(values)))
    mass_scale = disc.h * float(np.sum(np.abs(disc.node_values(values))))

    dt_nominal = config.timestep(disc.h)
    if not (dt_nominal > 0 and t_final / dt_nominal <= MAX_STEPS):
        raise ValueError(f"time step {dt_nominal:.3g} gives more than "
                         f"{MAX_STEPS:.0e} steps to t_final={t_final:.6g}")
    # a zero-length run takes no step, and every other run at least one
    n_steps = max(1, round(t_final / dt_nominal)) if t_final > 0 else 0
    dt = t_final / n_steps if n_steps else 0.0
    check_timestep(problem, disc, dt)

    filt = None
    if config.filter is not None:
        spec = filter_by_name(config.filter.name, config.filter.alpha_f)
        filt = FilterOperator(spec, disc.n, disc.d3_op.grid_kind)

    def rhs(v, out):
        semidiscrete_rhs(problem, disc, v, out=out)

    stepper = TvdRk3(values.shape)
    history = []
    if config.record_every:
        history.append((0.0, disc.node_values(values).copy()))
    t = 0.0
    try:
        # an overflow or invalid operation leaves a non-finite value in the
        # state, which the step's own check reports as a DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, n_steps + 1):
                stepper.step(values, rhs, dt, step_index=step, time=t)
                t = step * dt
                if filt is not None and step % config.filter.every == 0:
                    filt.matvec(values, out=values)
                if config.record_every and step % config.record_every == 0:
                    history.append((t, disc.node_values(values).copy()))
    except DivergenceError as err:
        raise DivergenceError(
            f"{problem.name}: diverged at t={t:.6g} (step {err.step})",
            step=err.step, time=t,
        ) from None

    mass1 = disc.h * float(np.sum(disc.node_values(values)))
    norms = _norms_vs_exact(problem, disc, values, t_final)
    return RunResult(problem, disc, disc.wrap(values), t_final, n_steps, dt,
                     norms, mass0, mass1, mass_scale, history)


def _norms_vs_exact(problem, disc, values, t):
    if problem.exact is None:
        return None
    return error_norms(disc.node_values(values),
                       problem.exact(disc.nodes(), t))


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
    result = integrate(problem, disc, config)
    if result.norms is None:
        raise ValueError(f"preset {preset!r} has no exact solution")
    return result.norms


def max_workers() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def convergence_study(preset: str, family: str, ns: list[int],
                      config: RunConfig, params: dict | None = None,
                      parallel: bool = True) -> ConvergenceReport:
    if not ns:
        raise ValueError("Ns must list at least one N")
    if list(ns) != sorted(set(ns)):
        raise ValueError("Ns must be strictly increasing")
    params = dict(params or {})
    jobs = [(preset, params, family, n, config) for n in ns]
    workers = min(max_workers(), len(jobs))
    if parallel and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            errors = list(pool.map(_study_worker, jobs))
    else:
        errors = [_study_worker(job) for job in jobs]
    return ConvergenceReport(
        problem_id=preset, scheme_id=_FAMILY_OPS[family][0],
        ns=list(ns), errors=errors,
    )

