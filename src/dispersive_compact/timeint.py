"""Three-stage TVD Runge-Kutta stepping and its linear stability region."""

from __future__ import annotations

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
    u_next = (1/3 u + 2/3 u2) + (2 dt/3) S(u2), in that order, and checks the
    result once; only a non-finite result re-checks u1 and u2 to name the
    stage.  A non-finite stage always reaches the result through its 1/4 or
    2/3 weight.
    """

    def __init__(self, shape, dtype=float):
        self.u1 = np.empty(shape, dtype)
        self.u2 = np.empty(shape, dtype)
        self.rate = np.empty(shape, dtype)
        self.scratch = np.empty(shape, dtype)

    def step(self, u, rhs, dt, step_index=None, time=None) -> None:
        """Advance ``u`` by one step of size ``dt``, in place."""
        u1, u2, r, s = self.u1, self.u2, self.rate, self.scratch
        mul, add = np.multiply, np.add
        rhs(u, r)
        mul(r, dt, out=u1)
        add(u, u1, out=u1)
        rhs(u1, r)
        mul(u, 0.75, out=u2)
        mul(u1, 0.25, out=s)
        add(u2, s, out=u2)
        mul(r, 0.25 * dt, out=r)
        add(u2, r, out=u2)
        rhs(u2, r)
        mul(u, _THIRD, out=u)
        mul(u2, _TWO_THIRDS, out=s)
        add(u, s, out=u)
        mul(r, _TWO_THIRDS * dt, out=r)
        add(u, r, out=u)
        if not np.isfinite(u).all():
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

    TvdRk3(u.shape, u.dtype).step(u, rhs, dt, step_index, time)
    return u


def rk3_amplification(z):
    """Linear amplification factor of the scheme: 1 + z + z^2/2 + z^3/6."""
    z = np.asarray(z, dtype=complex)
    return 1.0 + z + z * z / 2.0 + z * z * z / 6.0


def rk3_stability_contains(z) -> bool:
    """Whether z lies in the stability region |1 + z + z^2/2 + z^3/6| <= 1."""
    return bool(np.abs(rk3_amplification(z)) <= 1.0)
