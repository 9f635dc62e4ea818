"""Span tracing around the library's public entry points, from outside.

A traced run wraps each boundary listed in SPANS where its callers look the
name up: module-level functions are rebound in every ``dispersive_compact``
module that binds them (so ``kdv.tvdrk3_step`` is wrapped as well as
``timeint.tvdrk3_step``), methods are replaced on their class. A boundary
that no longer exists is skipped and reports zero calls.

Spans are aggregated in memory per (case, name, parent): call count, total
and self time (duration minus the time covered by child spans), and the
first start and last end relative to the tracer's creation. A KdV run makes
about 400k step, RHS and apply spans, so single spans are not kept.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (span name, boundaries "module:qualname", the end-to-end metric and
# workload(s) the span's time should move). The mapping is what a later
# change cites when it claims that a layer got faster.
SPANS = (
    ("kdv.discretization", ("kdv:Discretization.__init__",),
     "setup_s, peak_rss_mb on kdv-wide; negligible on kdv-linear"),
    ("operators.build", ("operators:CompactOperator.__init__",),
     "setup_s, peak_rss_mb on kdv-wide; negligible on kdv-linear"),
    ("operators.dense_matrix", ("operators:CompactOperator.dense_matrix",),
     "setup_s, peak_rss_mb on kdv-wide; negligible on kdv-linear"),
    ("banded.factor", ("banded:CyclicBandedSolver.__init__",),
     "setup_s, peak_rss_mb on kdv-wide; negligible on kdv-linear"),
    ("timeint.step", ("timeint:tvdrk3_step",),
     "solve_s on kdv-linear and kdv-nonlinear; calls drop on kdv-linear "
     "only under a linear exact-in-time path"),
    ("kdv.integrate", ("kdv:integrate",),
     "solve_s on kdv-linear and kdv-nonlinear"),
    ("kdv.rhs", ("kdv:semidiscrete_rhs",),
     "solve_s on kdv-linear and kdv-nonlinear; calls drop on kdv-linear "
     "only under a linear exact-in-time path"),
    ("kdv.third", ("kdv:Discretization.third",),
     "solve_s on kdv-wide (dense vs banded cells) and kdv-nonlinear"),
    ("kdv.first", ("kdv:Discretization.first",),
     "solve_s on kdv-wide (dense vs banded cells) and kdv-nonlinear"),
    ("operators.apply", ("operators:CompactOperator.apply_array",),
     "solve_s on kdv-wide (dense vs banded cells) and kdv-nonlinear"),
    ("banded.solve", ("banded:CyclicBandedSolver.solve",),
     "solve_s on kdv-wide (dense vs banded cells) and kdv-nonlinear"),
    ("operators.filter_build", ("operators:FilterOperator.__init__",),
     "solve_s on kdv-nonlinear only"),
    ("operators.filter_apply", ("operators:FilterOperator.apply_array",),
     "solve_s on kdv-nonlinear only"),
    ("kdv.check_timestep", ("kdv:check_timestep",),
     "solve_s on every KdV workload (once per run)"),
    ("spectral.circulant_eigenvalues", ("spectral:circulant_eigenvalues",),
     "solve_s on every KdV workload (once per run)"),
    ("spectral.resolving_efficiency", ("spectral:resolving_efficiency",),
     "solve_s and setup_s on spectral-tables"),
    ("spectral.psi", ("spectral:SchemeSymbol.psi",),
     "solve_s and setup_s on spectral-tables"),
    ("spectral.psi_mp", ("spectral:SchemeSymbol.psi_mp",),
     "solve_s and setup_s on spectral-tables"),
    ("spectral.ls_optimize", ("spectral:ls_optimize",),
     "solve_s and setup_s on spectral-tables"),
    ("spectral.scheme_symbol", ("spectral:scheme_symbol",),
     "solve_s and setup_s on spectral-tables"),
    ("exact.builtin_scheme", ("exact:builtin_scheme",),
     "solve_s and setup_s on spectral-tables"),
    ("exact.derive_coefficients", ("exact:derive_coefficients",),
     "solve_s and setup_s on spectral-tables"),
    ("exact.leading_truncation_error", ("exact:leading_truncation_error",),
     "solve_s and setup_s on spectral-tables"),
)

SPAN_NAMES = tuple(name for name, _, _ in SPANS)
PACKAGE = "dispersive_compact"


class Tracer:
    """Aggregating span recorder; set ``case`` to tag the spans that follow."""

    def __init__(self):
        self.case = None
        self.origin = time.perf_counter()
        self.spans: dict[tuple, list] = {}
        self._stack: list[list] = []  # [name, time covered by children]

    def wrap(self, name, fn):
        stack, spans, origin = self._stack, self.spans, self.origin
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                key = (self.case, name, parent)
                rec = spans.get(key)
                if rec is None:
                    spans[key] = [1, duration, duration - frame[1],
                                  start - origin, end - origin]
                else:
                    rec[0] += 1
                    rec[1] += duration
                    rec[2] += duration - frame[1]
                    rec[4] = end - origin

        return traced

    def install(self) -> list[str]:
        """Wrap every boundary in SPANS; returns the boundaries not found."""
        missing = []
        for name, targets, _ in SPANS:
            for target in targets:
                if not _patch(target, functools.partial(self.wrap, name)):
                    missing.append(target)
        return missing

    def records(self) -> list[dict]:
        return [
            {"case": case, "name": name, "parent": parent, "calls": calls,
             "total_s": total, "self_s": self_s, "first_start_s": first,
             "last_end_s": last}
            for (case, name, parent), (calls, total, self_s, first, last)
            in self.spans.items()
        ]

    def per_span(self) -> dict[str, dict]:
        """calls / self_s / total_s per span name, summed over cases and
        parents; spans made outside a case (by the checks) are left out."""
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in SPAN_NAMES}
        for (case, name, _), (calls, total, self_s, _, _) in self.spans.items():
            if case is None:
                continue
            out[name]["calls"] += calls
            out[name]["total_s"] += total
            out[name]["self_s"] += self_s
        return out


def _patch(target: str, make_wrapper) -> bool:
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return False
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    if inspect.isclass(owner):
        original = owner.__dict__.get(attr)
        if not inspect.isfunction(original):
            return False
        setattr(owner, attr, make_wrapper(original))
        return True
    original = getattr(owner, attr, None)
    if not inspect.isfunction(original):
        return False
    wrapped = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE
                               or mod_name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    return True
