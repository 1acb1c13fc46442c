"""Finite-difference verification machinery."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pintoc
from pintoc import (
    BarrierAugmentation,
    BoxConstraint,
    CartPoleDynamics,
    DerivativeCheckError,
    DimensionError,
    FiniteDiffCost,
    FiniteDiffDynamics,
    LinearDynamics,
    PendulumDynamics,
    QuadraticCost,
    StageDerivatives,
    check_derivatives,
)


def test_linear_dynamics_exact():
    rng = np.random.default_rng(0)
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
    dyn = LinearDynamics(A, B, horizon=4)
    report = check_derivatives(dyn, (rng.normal(size=(1, 3)), rng.normal(size=(1, 2))))
    assert report.ok
    # the Jacobians of an affine map are recovered by central differences
    # to machine-level accuracy
    assert report["fx"].max_abs_err < 1e-9
    assert report["fu"].max_abs_err < 1e-9
    assert report["fxx"].max_abs_err < 1e-9


def test_pendulum_jacobian_close_to_fd():
    dyn = PendulumDynamics(horizon=1)
    report = check_derivatives(dyn, (np.array([[1.0, 0.5]]), np.array([[1.0]])),
                               tolerance=1e-5, step=1e-6)
    assert report.ok
    assert report["fx"].max_abs_err < 1e-5


def test_barrier_symmetric_point_zero_gradient():
    box = BoxConstraint(1, 1, control_lower=-5.0, control_upper=5.0)
    aug = BarrierAugmentation(box, mu=0.1)
    grad = aug.derivatives(np.zeros((1, 1)), np.zeros((1, 1))).u
    assert np.allclose(grad, 0.0)
    report = check_derivatives(aug, (np.zeros((1, 1)), np.zeros((1, 1))))
    assert report.ok


def test_mismatch_names_derivative():
    class Broken(PendulumDynamics):
        def derivatives(self, xs, us):
            lin = super().derivatives(xs, us)
            return lin._replace(u=lin.u + 0.5)

    with pytest.raises(DerivativeCheckError, match="fu"):
        check_derivatives(Broken(horizon=1), (np.array([[0.2, 0.1]]), np.array([[0.3]])))


def test_mismatch_at_one_stage_of_a_batch_is_found(rng):
    # derivatives is what the solver runs, so an error confined to one row of
    # one of its fields must fail the check
    class Broken(CartPoleDynamics):
        def derivatives(self, xs, us):
            lin = super().derivatives(xs, us)
            fxu = lin.xu.copy()
            fxu[3] += 1e-3
            return lin._replace(xu=fxu)

    xs = rng.uniform((-1, -np.pi, -2, -3), (1, np.pi, 2, 3), size=(5, 4))
    us = rng.uniform(-60.0, 60.0, size=(5, 1))
    assert check_derivatives(CartPoleDynamics(horizon=5), (xs, us)).ok
    with pytest.raises(DerivativeCheckError, match="failed for: fxu") as exc:
        check_derivatives(Broken(horizon=5), (xs, us))
    assert str(exc.value).count("(abs") == 1  # no other derivative is named


@pytest.mark.parametrize("field", ["f" + name for name in StageDerivatives._fields])
def test_every_field_of_linearize_is_checked_at_every_stage(field, rng):
    xs = rng.uniform((-1, -np.pi, -2, -3), (1, np.pi, 2, 3), size=(4, 4))
    us = rng.uniform(-60.0, 60.0, size=(4, 1))
    for stage in range(4):
        class Broken(CartPoleDynamics):
            def derivatives(self, xs, us):
                lin = super().derivatives(xs, us)
                part = getattr(lin, field[1:]).copy()
                part[stage] += 1e-3
                return lin._replace(**{field[1:]: part})

        with pytest.raises(DerivativeCheckError, match=f"failed for: {field} ") as exc:
            check_derivatives(Broken(horizon=4), (xs, us))
        assert str(exc.value).count("(abs") == 1


@pytest.mark.parametrize("shapes", [((0, 2), (0, 1)), ((3, 2), (2, 1)), ((2,), (1,))])
def test_unstacked_or_empty_points_are_rejected(shapes):
    xs, us = (np.zeros(shape) for shape in shapes)
    with pytest.raises(DimensionError):
        check_derivatives(PendulumDynamics(horizon=3), (xs, us))


def test_quadratic_cost_check():
    rng = np.random.default_rng(2)
    cost = QuadraticCost(np.diag([2.0, 1.0]), np.eye(1), np.diag([3.0, 3.0]),
                         x_goal=np.array([0.5, -0.5]))
    report = check_derivatives(cost, (rng.normal(size=(1, 2)), rng.normal(size=(1, 1))))
    assert report.ok


def test_constraint_model_check():
    box = BoxConstraint(2, 1, control_lower=-2.0, control_upper=2.0,
                        state_upper=(1.0, np.inf))
    report = check_derivatives(box, (np.array([[0.2, 0.0]]), np.array([[0.1]])))
    assert report.ok


def test_fd_fallback_models_agree_with_analytic(rng):
    # every field at every one of 5 stages: first derivatives to 1e-6,
    # second derivatives to 1e-5
    for analytic, cost in ((PendulumDynamics(horizon=5),
                            QuadraticCost(np.eye(2), np.eye(1), 2 * np.eye(2))),
                           (CartPoleDynamics(horizon=5),
                            QuadraticCost(np.diag([10.0, 10.0, 1.0, 1.0]), np.eye(1),
                                          np.diag([100.0, 100.0, 10.0, 10.0])))):
        d_x = analytic.d_x
        xs, us = rng.normal(size=(5, d_x)), rng.normal(size=(5, 1))
        fd = FiniteDiffDynamics(lambda t, x, u: analytic.f(t, x, u),
                                horizon=5, d_x=d_x, d_u=1)
        fd_cost = FiniteDiffCost(lambda t, x, u: cost.l_batch(x[None], u[None])[0],
                                 lambda x: cost.terminal(x))
        for model, exact in ((fd, analytic), (fd_cost, cost)):
            fd_der, der = model.derivatives(xs, us), exact.derivatives(xs, us)
            for field in StageDerivatives._fields:
                atol = 1e-6 if len(field) == 1 else 1e-5
                assert np.allclose(getattr(fd_der, field), getattr(der, field), atol=atol), field
        for x in xs:
            assert np.allclose(fd_cost.terminal_x(x), cost.terminal_x(x), atol=1e-6)
            assert np.allclose(fd_cost.terminal_xx(x), cost.terminal_xx(x), atol=1e-5)


def test_import_leaves_heavy_scipy_modules_unloaded():
    # importing scipy.optimize once pushed the benchmark's set-up time and
    # peak memory past their bounds; scipy.linalg costs the same way, and
    # pintoc needs no SciPy module at all
    code = ("import sys, pintoc; print(sorted(m for m in "
            "('scipy', 'scipy.linalg', 'scipy.optimize') if m in sys.modules))")
    src = str(Path(pintoc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    assert out.stdout.strip() == "[]"
