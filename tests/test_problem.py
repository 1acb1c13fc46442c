"""Trajectory container, rollout, and augmented cost evaluation."""

import numpy as np
import pytest

from pintoc import (
    BoxConstraint,
    BarrierAugmentation,
    DimensionError,
    DivergenceError,
    InfeasibleError,
    LinearDynamics,
    PendulumDynamics,
    QuadraticCost,
    Trajectory,
    ZeroAugmentation,
    rollout,
    total_cost,
)
from pintoc.systems import PendulumParams


def test_trajectory_length_invariant():
    with pytest.raises(DimensionError):
        Trajectory(np.zeros((4, 2)), np.zeros((4, 1)))


def test_trajectory_rejects_nonfinite():
    states = np.zeros((3, 2))
    states[1, 0] = np.nan
    with pytest.raises(DimensionError):
        Trajectory(states, np.zeros((2, 1)))


def test_trajectory_immutable():
    traj = Trajectory(np.zeros((3, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        traj.states[0, 0] = 1.0


def test_rollout_identity_dynamics():
    dyn = LinearDynamics(np.eye(2), np.zeros((2, 1)), horizon=5)
    traj = rollout(dyn, np.array([3.0, -1.0]), np.ones((5, 1)))
    assert np.allclose(traj.states, np.tile([3.0, -1.0], (6, 1)))


def test_rollout_telescoping_sum():
    dyn = LinearDynamics(np.eye(1), np.eye(1), horizon=3)
    traj = rollout(dyn, np.zeros(1), np.ones((3, 1)))
    assert np.allclose(traj.states[:, 0], [0, 1, 2, 3])


def test_rollout_matches_stepwise_euler():
    params = PendulumParams(dt=0.01)
    dyn = PendulumDynamics(horizon=50, params=params)
    controls = np.zeros((50, 1))
    traj = rollout(dyn, np.array([np.pi, 0.0]), controls)
    # the Euler step written out independently of the model
    p = params
    x = np.array([np.pi, 0.0])
    for t in range(50):
        theta, omega = x
        acc = -(p.gravity / p.length) * np.sin(theta) \
            + (controls[t, 0] - p.damping * omega) / (p.mass * p.length ** 2)
        x = np.array([theta + p.dt * omega, omega + p.dt * acc])
        assert np.allclose(traj.states[t + 1], x, atol=1e-14)


def test_rollout_idempotent():
    dyn = PendulumDynamics(horizon=30)
    rng = np.random.default_rng(0)
    controls = rng.normal(size=(30, 1))
    traj = rollout(dyn, np.array([np.pi, 0.0]), controls)
    again = rollout(dyn, traj.states[0], traj.controls)
    assert np.array_equal(traj.states, again.states)


def test_rollout_divergence_reports_index():
    class Exploding(LinearDynamics):
        def f(self, t, x, u):
            return x * 1e200 if t >= 2 else x + 1.0

    dyn = Exploding(np.eye(1), np.zeros((1, 1)), horizon=6)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
        rollout(dyn, np.ones(1), np.zeros((6, 1)))
    assert exc.value.step == 4  # t=2 makes huge, t=3 overflows to inf


def test_rollout_divergence_before_f_rejects_a_nonfinite_state():
    # the torque drives omega to inf at state 2, theta to inf at state 3,
    # and math.sin(inf) raises ValueError computing state 4
    dyn = PendulumDynamics(6, PendulumParams(dt=1.0))
    with pytest.raises(DivergenceError) as exc:
        rollout(dyn, np.array([np.pi, 0.0]), np.full((6, 1), 1e308))
    assert exc.value.step == 2

    class Failing(LinearDynamics):
        def f(self, t, x, u):
            if t == 3:
                raise ValueError("model error")
            return x + 1.0

    # an error on finite inputs is the model's own, and passes through
    with pytest.raises(ValueError, match="model error"):
        rollout(Failing(np.eye(1), np.zeros((1, 1)), horizon=6), np.ones(1), np.zeros((6, 1)))


def test_rollout_shape_checks():
    dyn = LinearDynamics(np.eye(2), np.zeros((2, 1)), horizon=4)
    with pytest.raises(DimensionError):
        rollout(dyn, np.zeros(3), np.zeros((4, 1)))
    with pytest.raises(DimensionError):
        rollout(dyn, np.zeros(2), np.zeros((3, 1)))


def test_total_cost_zero_models():
    cost = QuadraticCost(np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((2, 2)))
    traj = Trajectory(np.ones((4, 2)), np.ones((3, 1)))
    assert total_cost(cost, ZeroAugmentation(), traj) == 0.0


def test_total_cost_matches_brute_force(rng):
    n, d_x, d_u = 7, 2, 2
    cost = QuadraticCost(np.eye(d_x), np.eye(d_u), np.eye(d_x))
    states = rng.normal(size=(n + 1, d_x))
    controls = rng.normal(size=(n, d_u))
    traj = Trajectory(states, controls)
    expected = 0.5 * float(states[-1] @ states[-1])
    for t in range(n):
        expected += 0.5 * float(states[t] @ states[t]) + 0.5 * float(controls[t] @ controls[t])
    got = total_cost(cost, ZeroAugmentation(), traj)
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_total_cost_barrier_boundary_raises():
    cost = QuadraticCost(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    box = BoxConstraint(1, 1, control_lower=-1.0, control_upper=1.0)
    aug = BarrierAugmentation(box, mu=0.1)
    traj = Trajectory(np.zeros((3, 1)), np.array([[0.0], [1.0]]))  # u=1 on the boundary
    with pytest.raises(InfeasibleError) as exc:
        total_cost(cost, aug, traj)
    assert exc.value.stage == 1


def test_box_constraint_stacking():
    box = BoxConstraint(2, 1, control_lower=-5.0, control_upper=5.0)
    assert box.n_state == 0 and box.n_control == 2
    h = box.h_batch(np.array([[2.0]]))[0]
    assert np.allclose(h, [-3.0, -7.0])  # [u - ub, lb - u]
    assert np.array_equal(box.hu, [[1.0], [-1.0]])
    assert box.gx.shape == (0, 2)
    states = BoxConstraint(2, 1, state_lower=(-1.0, -np.inf), state_upper=(2.0, 3.0))
    assert states.n_state == 3 and states.n_control == 0
    g = states.g_batch(np.array([[0.5, 1.0]]))[0]
    assert np.allclose(g, [-1.5, -2.0, -1.5])  # [x - ub, lb - x]
    assert np.array_equal(states.gx, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert states.hu.shape == (0, 1)


def test_box_one_sided_bounds():
    box = BoxConstraint(1, 1, control_lower=1.0, control_upper=None)
    assert box.n_control == 1
    assert np.allclose(box.h_batch(np.array([[3.0]]))[0], [-2.0])


@pytest.mark.parametrize("bounds", [dict(control_lower=1.0, control_upper=1.0),
                                    dict(control_lower=-1.0, control_upper=np.nan),
                                    dict(state_lower=(np.nan, 0.0)),
                                    dict(state_lower=(1.0, 2.0, 3.0))])
def test_box_rejects_empty_or_nan_bounds(bounds):
    with pytest.raises(DimensionError):
        BoxConstraint(2, 1, **bounds)
