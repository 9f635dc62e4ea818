"""Three-stage TVD Runge-Kutta stepping and its linear amplification factor."""

from __future__ import annotations

import math

import numpy as np


class DivergenceError(FloatingPointError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


_THIRD = 1.0 / 3.0
_TWO_THIRDS = 2.0 / 3.0
# ``advance`` checks the state once per block of this many steps
CHECK_EVERY = 32


class TvdRk3:
    """In-place TVD-RK3 steps of arrays of one shape over preallocated stages.

    ``rhs(v, out)`` writes the rate at ``v`` into ``out``.  A step evaluates
    u1 = u + dt S(u); u2 = (3/4 u + 1/4 u1) + (dt/4) S(u1);
    u_next = (1/3 u + 2/3 u2) + (2 dt/3) S(u2), in that order.  ``step``
    takes one step and ``advance`` a block of steps of the own row ``u``, in
    place; both run the one stage body ``_run``.

    The stages are the rows of one buffer, ``stages`` = [u1, u, rate, u2], so
    each of the two weighted sums takes its three products in one multiply
    by full (3, size) weight rows: stage 2 over rows 0:3, stage 3 over rows
    1:4.

    The result is checked by one reduction, u.u, which is non-finite whenever
    an entry is; only then does ``np.isfinite`` look at the entries, which
    clears a finite state whose sum of squares overflows, and re-check u1 and
    u2 to name the stage.  A non-finite stage always reaches the result
    through its 1/4 or 2/3 weight, and a non-finite entry of u reaches the
    next result through its 1/3 weight, so once the state is non-finite it
    stays so.  ``advance`` therefore checks once per block of
    ``CHECK_EVERY`` steps; a block that fails is restored from the copy
    taken at its start and replayed through ``step``, which raises for the
    step that ``step`` alone would have raised for.
    """

    def __init__(self, shape, dtype=float):
        shape = np.broadcast_shapes(shape)
        self.stages = np.empty((4, *shape), dtype)
        products = np.empty((3, *shape), dtype)
        # row views (0-d ones for a scalar state) and the two row blocks
        rows = [a[i, ...] for a in (self.stages, products)
                for i in range(len(a))]
        self._views = (*rows, self.stages[:3], self.stages[1:], products)
        self.u = rows[1]
        self._flat = self.u.reshape(-1)
        self._start = np.empty(shape, dtype)  # a block's first state
        # weights of stage 2 (rows 0:3) and stage 3 (rows 1:4); the dt
        # entries are set by the first step of each dt
        self._w2, self._w3 = np.empty((2, 3, *shape), dtype)
        self._dt = None

    def _use(self, dt) -> None:
        """Refuse a non-finite ``dt``, and bind a new one and its weights."""
        if dt != self._dt:
            if not math.isfinite(dt):
                raise ValueError(f"dt must be finite, got {dt}")
            self._dt = dt
            # dt as the stage ufunc would promote it, converted once
            self._dt_array = np.array(dt, np.result_type(self.stages, dt))
            # the transposes put the three weights on the last axis
            self._w2.T[...] = (0.25, 0.75, 0.25 * dt)
            self._w3.T[...] = (_THIRD, _TWO_THIRDS * dt, _TWO_THIRDS)

    def _run(self, rhs, steps) -> None:
        """The stage body: ``steps`` unchecked steps of the own row, with the
        dt and weights that ``_use(dt)`` set."""
        u1, own, r, u2, p0, p1, p2, head, tail, prod = self._views
        dt, w2, w3 = self._dt_array, self._w2, self._w3
        mul, add = np.multiply, np.add
        for _ in range(steps):
            rhs(own, r)
            mul(r, dt, u1)
            add(u1, own, u1)
            rhs(u1, r)
            mul(head, w2, prod)  # 1/4 u1, 3/4 u, dt/4 S(u1)
            add(p1, p0, u2)
            add(u2, p2, u2)
            rhs(u2, r)
            mul(tail, w3, prod)  # 1/3 u, 2 dt/3 S(u2), 2/3 u2
            add(p0, p2, own)
            add(own, p1, own)

    def _finite(self) -> bool:
        flat = self._flat
        # abs takes a complex u.u to a real number that is non-finite when
        # either part is (cmath would cost loading a shared library)
        return (math.isfinite(abs(flat.dot(flat)))
                or bool(np.isfinite(self.u).all()))

    def step(self, rhs, dt, step_index=None, time=None) -> None:
        """Advance the own row ``u`` by one step of size ``dt``, in place."""
        self._use(dt)
        self._run(rhs, 1)
        if not self._finite():
            u1, u2 = self.stages[0], self.stages[3]
            stage = 1 if not np.isfinite(u1).all() else (
                2 if not np.isfinite(u2).all() else 3)
            raise DivergenceError(
                f"non-finite values in RK stage {stage}"
                + (f" at step {step_index}" if step_index is not None else ""),
                step=step_index,
                time=time,
            )

    def advance(self, rhs, dt, steps, first_step=1) -> None:
        """Advance the own row ``u`` by ``steps`` steps of size ``dt``, in
        place.  The steps are numbered from ``first_step``, and step k starts
        at time (k - 1) dt: a ``DivergenceError`` carries the index and start
        time of the first step whose result is not finite."""
        self._use(dt)
        own, start = self.u, self._start
        end = first_step + steps
        for first in range(first_step, end, CHECK_EVERY):
            block = min(CHECK_EVERY, end - first)
            start[...] = own
            self._run(rhs, block)
            if not self._finite():
                own[...] = start
                for k in range(first, first + block):
                    self.step(rhs, dt, k, (k - 1) * dt)


def tvdrk3_step(u, rhs_fn, dt, step_index=None, time=None) -> np.ndarray:
    """One TVD-RK3 step of an array of any dtype by ``TvdRk3``, with the rate
    ``rhs_fn(v)``; returns a new array and leaves ``u`` unmodified."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    u = np.asarray(u)
    stepper = TvdRk3(u.shape, np.result_type(u, float))
    stepper.u[...] = u

    def rhs(v, out):
        out[...] = rhs_fn(v)

    # an overflow leaves inf in the state, which the step reports; only the
    # check's own u.u can overflow on a finite state
    with np.errstate(over="ignore"):
        stepper.step(rhs, dt, step_index, time)
    return stepper.u.copy()


def rk3_amplification(z):
    """Linear amplification factor of the scheme: 1 + z + z^2/2 + z^3/6."""
    z = np.asarray(z, dtype=complex)
    return 1.0 + z + z * z / 2.0 + z * z * z / 6.0
