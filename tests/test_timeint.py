"""TVD-RK3 stepping and stability region."""

import warnings

import numpy as np
import pytest

from dispersive_compact.timeint import (
    CHECK_EVERY,
    DivergenceError,
    TvdRk3,
    rk3_amplification,
    tvdrk3_step,
)


def rk3_stability_contains(z) -> bool:
    """Whether z lies in the stability region |1 + z + z^2/2 + z^3/6| <= 1."""
    return bool(np.abs(rk3_amplification(z)) <= 1.0)


def test_linear_decay_follows_amplification_polynomial():
    lam = -0.7
    dt = 0.05
    u = np.array([1.0])
    for step in range(40):
        u = tvdrk3_step(u, lambda v: lam * v, dt)
    expected = rk3_amplification(lam * dt).real ** 40
    assert abs(u[0] - expected) < 1e-13


def test_third_order_convergence_on_nonlinear_ode():
    def rhs(u):
        return u * u  # u' = u^2, u(0)=1 -> u = 1/(1-t)

    errs = []
    for n in (40, 80):
        dt = 0.5 / n
        u = np.array([1.0])
        for _ in range(n):
            u = tvdrk3_step(u, rhs, dt)
        errs.append(abs(u[0] - 2.0))
    rate = np.log2(errs[0] / errs[1])
    assert 2.7 < rate < 3.3


def test_amplification_polynomial_values():
    assert rk3_amplification(0.0) == 1.0
    z = 0.3 + 0.4j
    assert abs(rk3_amplification(z) - (1 + z + z**2 / 2 + z**3 / 6)) < 1e-15


def test_imaginary_axis_extent():
    assert rk3_stability_contains(1.73j)
    assert not rk3_stability_contains(1.74j)
    assert rk3_stability_contains(-1.73j)


def test_divergence_detected():
    def rhs(u):
        return u * np.inf

    with pytest.raises(DivergenceError) as err:
        tvdrk3_step(np.ones(4), rhs, 0.1, step_index=17)
    assert err.value.step == 17


def test_nonpositive_dt_rejected():
    with pytest.raises(ValueError):
        tvdrk3_step(np.ones(2), lambda u: u, 0.0)


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_divergence_names_the_stage_and_step(stage):
    calls = []

    def rhs(u):
        # finite until the given stage's rate
        calls.append(None)
        return np.full_like(u, np.inf) if len(calls) == stage else u

    with pytest.raises(DivergenceError, match=f"RK stage {stage} at step 9") as err:
        tvdrk3_step(np.ones(4), rhs, 0.1, step_index=9)
    assert err.value.step == 9


@pytest.mark.parametrize("wrap, rhs", [
    (lambda v: v, lambda u: -u),
    # any dtype: criterion 11 steps a complex array
    (lambda v: v * (1.0 - 0.5j), lambda u: -u),
])
def test_step_leaves_its_input_unmodified(wrap, rhs):
    u = wrap(np.linspace(0.5, 1.5, 8))
    out = tvdrk3_step(u, rhs, 0.1)
    assert np.array_equal(u, wrap(np.linspace(0.5, 1.5, 8)))
    assert out.dtype == u.dtype
    decay = rk3_amplification(-0.1).real
    assert np.allclose(out, decay * u)


def test_a_scalar_state_steps_like_a_one_point_array():
    got = tvdrk3_step(np.float64(2.0), lambda v: -0.7 * v, 0.1)
    assert got.shape == ()
    assert got == tvdrk3_step(np.array([2.0]), lambda v: -0.7 * v, 0.1)[0]


def test_finite_state_whose_sum_of_squares_overflows_steps():
    # its sum and u.u overflow to inf; only the entry-wise check clears it
    u = np.array([1e308, 1e308, -1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor does the check warn
        out = tvdrk3_step(u, lambda v: np.zeros_like(v), 0.1)
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, u)


@pytest.mark.parametrize("stage", [1, 2, 3])
def test_the_check_names_each_stage_of_a_complex_state(stage):
    # a complex u.u goes through abs; the real case is tested above
    calls = []

    def rhs(v, out):
        calls.append(None)
        out[...] = np.inf if len(calls) == stage else -v

    stepper = TvdRk3((5,), complex)
    stepper.u[...] = 1.0 - 2.0j
    with np.errstate(invalid="ignore"), pytest.raises(
            DivergenceError, match=f"RK stage {stage} at step 3$"):
        stepper.step(rhs, 0.1, step_index=3)


def _sine_rate(v, out):
    np.multiply(np.sin(v), -1.5, out)


def test_the_stage_rows_hold_the_documented_stages():
    # stages = [u1, u, rate, u2] after a step of u' = -u from u = 1
    stepper = TvdRk3((3,))
    stepper.u[...] = 1.0
    stepper.step(lambda v, out: np.negative(v, out), 0.1)
    u1, u, rate, u2 = stepper.stages[:, 0]
    assert u1 == 1.0 - 0.1
    assert u2 == 0.75 + 0.25 * u1 - 0.025 * u1
    assert rate == -u2
    assert u == 1.0 / 3.0 + 2.0 / 3.0 * u2 + (2.0 / 3.0 * 0.1) * rate


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_non_finite_dt_rejected(dt):
    u = np.ones(3)
    stepper = TvdRk3((3,))
    stepper.u[...] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dt must be finite"):
            tvdrk3_step(u, lambda v: v, dt)
        with pytest.raises(ValueError, match="dt must be finite"):
            stepper.step(lambda v, out: np.copyto(out, v), dt)
        with pytest.raises(ValueError, match="dt must be finite"):
            stepper.advance(lambda v, out: np.copyto(out, v), dt, 5)
    assert np.array_equal(u, np.ones(3))
    assert np.array_equal(stepper.u, np.ones(3))


def _growth_until(trigger):
    """The rate u' = u of a state of ones, which is infinite wherever the
    value it is evaluated at lies within 5 % of ``trigger``."""
    def rhs(v, out):
        np.copyto(out, v)
        out[np.abs(v / trigger - 1.0) < 0.05] = np.inf

    return rhs


def _step_by_step_error(rhs, dt, steps):
    stepper = TvdRk3((3,))
    stepper.u[...] = 1.0
    with pytest.raises(DivergenceError) as err:
        for k in range(1, steps + 1):
            stepper.step(rhs, dt, k, (k - 1) * dt)
    return err.value


# with dt = 1 each step of u' = u from a multiplies it by 8/3 and evaluates
# the rate at a, 2a and 7a/4, which name stages 1, 2 and 3
@pytest.mark.parametrize("step", [
    CHECK_EVERY + 1,  # a block's first step
    CHECK_EVERY + CHECK_EVERY // 2,  # its middle
    2 * CHECK_EVERY,  # its last step
])
@pytest.mark.parametrize("stage, factor", [(1, 1.0), (2, 2.0), (3, 1.75)])
def test_a_block_reports_the_divergence_that_step_by_step_stepping_does(
        step, stage, factor):
    dt = 1.0
    rhs = _growth_until(factor * rk3_amplification(dt).real ** (step - 1))
    want = _step_by_step_error(rhs, dt, 3 * CHECK_EVERY)
    assert (want.step, str(want)) == (
        step, f"non-finite values in RK stage {stage} at step {step}")
    stepper = TvdRk3((3,))
    stepper.u[...] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DivergenceError) as err:
            stepper.advance(rhs, dt, 3 * CHECK_EVERY)
    assert (err.value.step, err.value.time, str(err.value)) == (
        want.step, want.time, str(want))


def test_advance_numbers_its_steps_from_first_step():
    dt = 0.5
    rhs = _growth_until(rk3_amplification(dt).real ** 9)
    want = _step_by_step_error(rhs, dt, 20)
    stepper = TvdRk3((3,))
    stepper.u[...] = 1.0
    stepper.advance(rhs, dt, 4, first_step=1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError) as err:
        stepper.advance(rhs, dt, 16, first_step=5)
    assert (err.value.step, err.value.time) == (want.step, want.time) == (
        10, 4.5)


# every shape multiplies full weight rows, (3,) ones for a scalar state
@pytest.mark.parametrize("shape", [(), (5,), (2, 3), (1024,), (1025,)])
def test_step_and_advance_give_the_bytes_of_the_plain_loop(shape):
    rng = np.random.default_rng(11)
    u = rng.normal(size=shape)
    own, other = TvdRk3(shape), TvdRk3(shape)
    own.u[...] = other.u[...] = u
    dt, steps = 0.07, 2 * CHECK_EVERY + 3

    def rate(v):
        return np.sin(v) * -1.5

    for _ in range(steps):
        own.step(_sine_rate, dt)
        u1 = u + dt * rate(u)
        u2 = 0.75 * u + 0.25 * u1 + (0.25 * dt) * rate(u1)
        u = (1.0 / 3.0) * u + (2.0 / 3.0) * u2 + (2.0 / 3.0 * dt) * rate(u2)
    other.advance(_sine_rate, dt, steps)
    assert own.u.tobytes() == u.tobytes()
    assert other.u.tobytes() == u.tobytes()


def test_stage_one_takes_dt_at_the_precision_numpy_promotes_it_to():
    # a float64 dt on a float32 state: r * dt in float64, rounded once
    stepper = TvdRk3((1000,), np.float32)
    stepper.u[...] = u = np.random.default_rng(5).normal(
        size=1000).astype(np.float32)
    dt = np.float64(0.1234567891234)
    stepper.step(lambda v, out: np.multiply(v, np.float32(-1.7), out), dt)
    r = u * np.float32(-1.7)
    assert stepper.stages[0].tobytes() == (
        (r * dt).astype(np.float32) + u).tobytes()


def test_finite_state_whose_sum_of_squares_overflows_advances():
    # every block's u.u overflows; the entries clear each of them
    stepper = TvdRk3((4,))
    stepper.u[...] = u = np.array([1e308, 1e308, -1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            stepper.advance(lambda v, out: out.fill(0.0), 0.1,
                            2 * CHECK_EVERY + 1)
    assert np.array_equal(stepper.u, u)
