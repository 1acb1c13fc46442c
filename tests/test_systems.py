"""Benchmark models: dynamics values, derivatives, equilibria, energy."""

import numpy as np
import pytest

from pintoc import (
    CartPoleDynamics,
    CartPoleParams,
    JetDynamics,
    PendulumDynamics,
    PendulumParams,
    QuadraticCost,
    Trajectory,
    ZeroAugmentation,
    check_derivatives,
    make_swingup_problem,
    pendulum_energy,
    rollout,
    swingup_goal,
    swingup_start,
    total_cost,
)
from pintoc.systems import _cos, _sin


def test_pendulum_equilibrium_fixed_point():
    dyn = PendulumDynamics(horizon=1, params=PendulumParams(dt=0.07))
    x = np.array([0.0, 0.0])
    assert np.allclose(dyn.f(0, x, np.zeros(1)), x)
    # the inverted point is an equilibrium of the vector field too
    x = np.array([np.pi, 0.0])
    nxt = dyn.f(0, x, np.zeros(1))
    assert np.allclose(nxt, x, atol=1e-12)


def test_pendulum_gravity_only_step():
    dyn = PendulumDynamics(horizon=1, params=PendulumParams(dt=0.01))
    nxt = dyn.f(0, np.array([np.pi / 2, 0.0]), np.zeros(1))
    assert np.isclose(nxt[1], -0.0981)  # omega' = -g*dt with l = m = 1
    assert np.isclose(nxt[0], np.pi / 2)


def test_pendulum_derivatives_at_random_points(rng):
    dyn = PendulumDynamics(horizon=20, params=PendulumParams(dt=0.02))
    points = [(rng.uniform(-np.pi, np.pi, size=2), rng.uniform(-5.0, 5.0, size=1))
              for _ in range(20)]
    xs, us = (np.array(a) for a in zip(*points))
    assert check_derivatives(dyn, (xs, us), tolerance=1e-5, step=1e-6).ok


def test_cartpole_down_equilibrium():
    dyn = CartPoleDynamics(horizon=1, params=CartPoleParams(dt=0.03))
    x = np.zeros(4)  # theta = 0 is pole-down in this convention
    assert np.allclose(dyn.f(0, x, np.zeros(1)), x)


def test_cartpole_quarter_turn_accelerations():
    # at theta = pi/2 with zero velocities and zero force the printed
    # numerators reduce to: cart term mp*sin(th)*g*cos(th) -> 0, pole term
    # -(mc+mp) g sin(th) / (l (mc + mp))
    params = CartPoleParams(dt=0.01)
    x = np.array([0.0, np.pi / 2, 0.0, 0.0])
    nxt = CartPoleDynamics(horizon=1, params=params).f(0, x, np.zeros(1))
    assert np.isclose(nxt[2], 0.0)  # vel' = dt * 0
    expected_pole = -(params.cart_mass + params.pole_mass) * params.gravity / (
        params.pole_length * (params.cart_mass + params.pole_mass))
    assert np.isclose(nxt[3], params.dt * expected_pole)
    assert np.isclose(nxt[0], 0.0) and np.isclose(nxt[1], np.pi / 2)


def test_cartpole_centripetal_cart_acceleration():
    # at theta = pi/2, zero force, the cart is pushed only by the pole's
    # centripetal term: mp*l*omega^2 / (mc + mp) (Tedrake, Underactuated
    # Robotics, ch. 3); the pole row already uses omega^2
    params = CartPoleParams(dt=0.01)
    omega = 2.0
    x = np.array([0.0, np.pi / 2, 0.0, omega])
    nxt = CartPoleDynamics(horizon=1, params=params).f(0, x, np.zeros(1))
    expected = params.pole_mass * params.pole_length * omega ** 2 / (
        params.cart_mass + params.pole_mass)
    assert np.isclose((nxt[2] - x[2]) / params.dt, expected)


def test_cartpole_derivatives_at_random_points(rng):
    dyn = CartPoleDynamics(horizon=20, params=CartPoleParams(dt=0.02))
    points = [(rng.uniform((-1, -np.pi, -2, -3), (1, np.pi, 2, 3)),
               rng.uniform(-60.0, 60.0, size=1)) for _ in range(20)]
    xs, us = (np.array(a) for a in zip(*points))
    assert check_derivatives(dyn, (xs, us), tolerance=1e-5, step=1e-6).ok


class EveryJetOperation(JetDynamics):
    """A made-up map using each operation a jet supports."""

    def __init__(self, horizon):
        super().__init__(horizon, d_x=2, d_u=2)

    def step(self, x, u):
        a, b = x
        c, d = u
        den = 2.0 + _cos(a) * _cos(a)
        return [
            (1.5 + a) * (b - 0.5) - (0.3 - c) + 2.0 * _sin(b * d) / den,
            -(a * b) / 4.0 + (d + 1.0) / (3.0 + b * b) + 0.7 / (2.0 - _sin(c)) - a * 3.0,
        ]


def test_jet_derivatives_of_every_operation(rng):
    dyn = EveryJetOperation(horizon=30)
    xs, us = rng.uniform(-2.0, 2.0, size=(30, 2)), rng.uniform(-2.0, 2.0, size=(30, 2))
    assert check_derivatives(dyn, (xs, us)).ok


@pytest.mark.parametrize("dyn", [PendulumDynamics(horizon=40), CartPoleDynamics(horizon=40),
                                 EveryJetOperation(horizon=40)],
                         ids=lambda dyn: type(dyn).__name__)
def test_f_batch_equals_stacked_f_bit_for_bit(dyn, rng):
    xs = rng.uniform(-4.0, 4.0, size=(40, dyn.d_x))
    us = rng.uniform(-60.0, 60.0, size=(40, dyn.d_u))
    batch = dyn.f_batch(xs, us)
    stacked = np.stack([dyn.f(t, xs[t], us[t]) for t in range(40)])
    assert batch.shape == (40, dyn.d_x)
    assert batch.tobytes() == stacked.tobytes()


def test_pendulum_euler_energy_drift():
    # undamped, unforced Euler integration drifts O(dt) per step: small at
    # dt = 1e-4 but strictly positive (it is not a higher-order integrator)
    params = PendulumParams(dt=1e-4, damping=1e-30)
    dyn = PendulumDynamics(horizon=100, params=params)
    x = np.array([2.0, 0.0])
    e0 = pendulum_energy(x, params)
    for t in range(100):
        x = dyn.f(t, x, np.zeros(1))
    drift = abs(pendulum_energy(x, params) - e0) / e0
    assert 0.0 < drift < 1e-3


def test_swingup_bundle_shapes():
    prob = make_swingup_problem("pendulum", 20, 0.05)
    assert prob.dynamics.horizon == 20
    assert prob.dynamics.d_x == 2 and prob.dynamics.d_u == 1
    assert prob.constraints.n_control == 2

    prob = make_swingup_problem("cartpole", 1000, 0.002)
    assert prob.dynamics.horizon == 1000
    assert prob.dynamics.d_x == 4 and prob.dynamics.d_u == 1


def test_swingup_zero_weights_zero_cost(rng):
    prob = make_swingup_problem("pendulum", 6, 0.05, q=(0.0, 0.0), r=(0.0,),
                                terminal_scale=0.0)
    traj = rollout(prob.dynamics, swingup_start("pendulum"),
                   rng.normal(size=(6, 1)))
    assert total_cost(prob.cost, ZeroAugmentation(), traj) == 0.0


def test_swingup_conventions():
    assert np.allclose(swingup_start("pendulum"), [np.pi, 0.0])
    assert np.allclose(swingup_goal("pendulum"), [0.0, 0.0])
    assert np.allclose(swingup_start("cartpole"), np.zeros(4))
    assert np.allclose(swingup_goal("cartpole", 0.3), [0.3, np.pi, 0.0, 0.0])
    with pytest.raises(ValueError):
        make_swingup_problem("acrobot", 10, 0.01)


def test_params_validation():
    for cls, params in ((PendulumParams, dict(dt=-0.1)), (CartPoleParams, dict(pole_mass=0.0)),
                        (PendulumParams, dict(dt=np.nan)), (PendulumParams, dict(damping=np.inf)),
                        (CartPoleParams, dict(dt=np.nan)), (CartPoleParams, dict(force_limit=np.inf))):
        with pytest.raises(ValueError):
            cls(**params)


def test_cost_model_derivatives(rng):
    prob = make_swingup_problem("cartpole", 4, 0.01)
    for _ in range(5):
        x = rng.normal(size=4)
        u = rng.normal(size=1)
        assert check_derivatives(prob.cost, (x[None], u[None])).ok
