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


class TvdRk3:
    """In-place TVD-RK3 steps of arrays of one shape over preallocated stages.

    ``rhs(v, out)`` writes the rate at ``v`` into ``out``.  A step evaluates
    u1 = u + dt S(u); u2 = (3/4 u + 1/4 u1) + (dt/4) S(u1);
    u_next = (1/3 u + 2/3 u2) + (2 dt/3) S(u2), in that order.

    The stages are the rows of one buffer, ``stages`` = [u1, u, rate, u2], so
    each of the two weighted sums takes its three products in one broadcast
    multiply: stage 2 over rows 0:3, stage 3 over rows 1:4.  ``u`` is the
    stepper's own row; a loop that steps it copies nothing, and any other
    array is copied in and back out.

    The result is checked by one reduction, u.u, which is non-finite whenever
    an entry is; only then does ``np.isfinite`` look at the entries, which
    clears a finite state whose sum of squares overflows, and re-check u1 and
    u2 to name the stage.  A non-finite stage always reaches the result
    through its 1/4 or 2/3 weight.
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
        # per-row weights of stage 2 (rows 0:3) and stage 3 (rows 1:4); the
        # dt entries are set by the first step of each dt
        self._w2, self._w3 = np.empty((2, 3, *(1,) * len(shape)), dtype)
        self._dt = None

    def step(self, u, rhs, dt, step_index=None, time=None) -> None:
        """Advance ``u`` by one step of size ``dt``, in place."""
        u1, own, r, u2, p0, p1, p2, head, tail, prod = self._views
        mul, add = np.multiply, np.add
        if dt != self._dt:
            self._dt = dt
            self._w2.flat = (0.25, 0.75, 0.25 * dt)
            self._w3.flat = (_THIRD, _TWO_THIRDS * dt, _TWO_THIRDS)
        if u is not own:
            own[...] = u
        rhs(own, r)
        mul(r, dt, u1)
        add(u1, own, u1)
        rhs(u1, r)
        mul(head, self._w2, prod)  # 1/4 u1, 3/4 u, dt/4 S(u1)
        add(p1, p0, u2)
        add(u2, p2, u2)
        rhs(u2, r)
        mul(tail, self._w3, prod)  # 1/3 u, 2 dt/3 S(u2), 2/3 u2
        add(p0, p2, own)
        add(own, p1, own)
        if u is not own:
            u[...] = own
        flat = self._flat
        # abs takes a complex u.u to a real number that is non-finite when
        # either part is (cmath would cost loading a shared library)
        if (not math.isfinite(abs(flat.dot(flat)))
                and not np.isfinite(own).all()):
            stage = 1 if not np.isfinite(u1).all() else (
                2 if not np.isfinite(u2).all() else 3)
            raise DivergenceError(
                f"non-finite values in RK stage {stage}"
                + (f" at step {step_index}" if step_index is not None else ""),
                step=step_index,
                time=time,
            )


def tvdrk3_step(u, rhs_fn, dt, step_index=None, time=None) -> np.ndarray:
    """One TVD-RK3 step of an array of any dtype by ``TvdRk3``, with the rate
    ``rhs_fn(v)``; returns a new array and leaves ``u`` unmodified."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    u = np.asarray(u)
    u = np.array(u, dtype=np.result_type(u, float))

    def rhs(v, out):
        out[...] = rhs_fn(v)

    # an overflow leaves inf in the state, which the step reports; only the
    # check's own u.u can overflow on a finite state
    with np.errstate(over="ignore"):
        TvdRk3(u.shape, u.dtype).step(u, rhs, dt, step_index, time)
    return u


def rk3_amplification(z):
    """Linear amplification factor of the scheme: 1 + z + z^2/2 + z^3/6."""
    z = np.asarray(z, dtype=complex)
    return 1.0 + z + z * z / 2.0 + z * z * z / 6.0
