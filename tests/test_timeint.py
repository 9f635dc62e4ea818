"""TVD-RK3 stepping and stability region."""

import numpy as np
import pytest

from dispersive_compact.timeint import (
    DivergenceError,
    rk3_amplification,
    rk3_stability_contains,
    tvdrk3_step,
)


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
