"""TVD-RK3 stepping and stability region."""

import numpy as np
import pytest

from dispersive_compact.operators import DualGridFunction, GridFunction
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


def test_grid_function_container_preserved():
    f = GridFunction(np.ones(8), 0.5, domain_start=1.0)
    out = tvdrk3_step(f, lambda g: GridFunction(np.zeros(8), g.h, g.domain_start), 0.1)
    assert isinstance(out, GridFunction)
    assert out.h == 0.5 and out.domain_start == 1.0
    assert np.allclose(out.values, 1.0)


def test_dual_container_preserved():
    f = DualGridFunction(np.ones(6), np.full(6, 2.0), 0.5)

    def rhs(g):
        return DualGridFunction(-g.node_values, -g.center_values, g.h, g.domain_start)

    out = tvdrk3_step(f, rhs, 0.1)
    assert isinstance(out, DualGridFunction)
    decay = rk3_amplification(-0.1).real
    assert np.allclose(out.node_values, decay)
    assert np.allclose(out.center_values, 2.0 * decay)


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
    (lambda v: GridFunction(v, 0.5), lambda g: GridFunction(-g.values, g.h)),
    (lambda v: DualGridFunction(v[:4], v[4:], 0.5),
     lambda g: DualGridFunction(-g.node_values, -g.center_values, g.h)),
])
def test_step_leaves_its_input_unmodified(wrap, rhs):
    values = np.linspace(0.5, 1.5, 8)
    out = tvdrk3_step(wrap(values), rhs, 0.1)
    assert np.array_equal(values, np.linspace(0.5, 1.5, 8))
    decay = rk3_amplification(-0.1).real
    out_values = np.concatenate(
        (out.node_values, out.center_values) if isinstance(out, DualGridFunction)
        else (getattr(out, "values", out),))
    assert np.allclose(out_values, decay * values)
