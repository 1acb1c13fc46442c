"""Benchmark systems: Euler-discretized pendulum and cart-pole swing-up.

Conventions (documented because the cost targets depend on them):

* pendulum state is ``(theta, omega)`` with the upright goal at the origin,
  so the swing-up starts hanging at ``(pi, 0)``;
* cart-pole state is ``(pos, theta, vel, omega)`` with ``theta = 0`` the
  pole-down equilibrium; the swing-up goal is ``theta = pi`` and a target
  cart position.

Angles are not wrapped; costs act on raw differences.  All derivatives are
analytic and FD-verified by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .problem import BoxConstraint, ControlProblem, CostModel, DynamicsModel

SYSTEMS = ("pendulum", "cartpole")


# ---------------------------------------------------------------------------
# generic building blocks
# ---------------------------------------------------------------------------

class LinearDynamics(DynamicsModel):
    """Affine time-invariant map ``x' = A x + B u + c``."""

    def __init__(self, A: np.ndarray, B: np.ndarray, horizon: int,
                 offset: np.ndarray | None = None):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        super().__init__(horizon, A.shape[0], B.shape[1])
        if A.shape != (self.d_x, self.d_x) or B.shape != (self.d_x, self.d_u):
            raise DimensionError("A must be (d_x, d_x) and B (d_x, d_u)")
        self.A = A
        self.B = B
        self.offset = np.zeros(self.d_x) if offset is None else np.asarray(offset, float)

    def f(self, t, x, u):
        return self.A @ x + self.B @ u + self.offset

    def fx_batch(self, xs, us):
        return np.broadcast_to(self.A, (len(us),) + self.A.shape)

    def fu_batch(self, xs, us):
        return np.broadcast_to(self.B, (len(us),) + self.B.shape)

    def fxx_batch(self, xs, us):
        return np.zeros((len(us), self.d_x, self.d_x, self.d_x))

    def fuu_batch(self, xs, us):
        return np.zeros((len(us), self.d_x, self.d_u, self.d_u))

    def fxu_batch(self, xs, us):
        return np.zeros((len(us), self.d_x, self.d_x, self.d_u))


class QuadraticCost(CostModel):
    """Tracking cost ``0.5 (x - xg)^T Q (x - xg) + 0.5 u^T R u`` with a
    quadratic terminal term."""

    def __init__(self, Q: np.ndarray, R: np.ndarray, Q_terminal: np.ndarray,
                 x_goal: np.ndarray | None = None):
        self.Q = np.atleast_2d(np.asarray(Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(R, dtype=float))
        self.Qf = np.atleast_2d(np.asarray(Q_terminal, dtype=float))
        d_x = self.Q.shape[0]
        self.x_goal = np.zeros(d_x) if x_goal is None else np.asarray(x_goal, float)

    def terminal(self, x):
        dx = x - self.x_goal
        return 0.5 * float(dx @ self.Qf @ dx)

    def terminal_x(self, x):
        return self.Qf @ (x - self.x_goal)

    def terminal_xx(self, x):
        return self.Qf

    def l_batch(self, xs, us):
        dxs = xs - self.x_goal
        return 0.5 * (np.einsum("ti,ij,tj->t", dxs, self.Q, dxs)
                      + np.einsum("ti,ij,tj->t", us, self.R, us))

    def lx_batch(self, xs, us):
        return (xs - self.x_goal) @ self.Q.T

    def lu_batch(self, xs, us):
        return us @ self.R.T

    def lxx_batch(self, xs, us):
        return np.broadcast_to(self.Q, (len(us),) + self.Q.shape)

    def luu_batch(self, xs, us):
        return np.broadcast_to(self.R, (len(us),) + self.R.shape)

    def lxu_batch(self, xs, us):
        return np.zeros((len(us), self.Q.shape[0], self.R.shape[0]))


# ---------------------------------------------------------------------------
# pendulum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PendulumParams:
    gravity: float = 9.81       # m/s^2
    length: float = 1.0         # m
    mass: float = 1.0           # kg
    damping: float = 1e-3       # kg m / s
    dt: float = 0.01            # s
    torque_limit: float = 5.0   # N m

    def __post_init__(self):
        for name in ("gravity", "length", "mass", "damping", "dt", "torque_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def pendulum_step(state: np.ndarray, control: np.ndarray,
                  params: PendulumParams) -> np.ndarray:
    """One Euler step of the damped torque-driven pendulum."""
    theta, omega = state
    tau = np.asarray(control, dtype=float).reshape(-1)[0]
    p = params
    acc = -(p.gravity / p.length) * math.sin(theta) \
        + (tau - p.damping * omega) / (p.mass * p.length ** 2)
    return np.array([theta + p.dt * omega, omega + p.dt * acc])


class PendulumDynamics(DynamicsModel):
    def __init__(self, horizon: int, params: PendulumParams | None = None):
        super().__init__(horizon, d_x=2, d_u=1)
        self.params = params if params is not None else PendulumParams()

    def f(self, t, x, u):
        return pendulum_step(x, u, self.params)

    def fx_batch(self, xs, us):
        p = self.params
        n = len(us)
        out = np.empty((n, 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 0, 1] = p.dt
        out[:, 1, 0] = -p.dt * (p.gravity / p.length) * np.cos(xs[:, 0])
        out[:, 1, 1] = 1.0 - p.dt * p.damping / (p.mass * p.length ** 2)
        return out

    def fu_batch(self, xs, us):
        p = self.params
        fu = np.array([[0.0], [p.dt / (p.mass * p.length ** 2)]])
        return np.broadcast_to(fu, (len(us), 2, 1))

    def fxx_batch(self, xs, us):
        p = self.params
        out = np.zeros((len(us), 2, 2, 2))
        out[:, 1, 0, 0] = p.dt * (p.gravity / p.length) * np.sin(xs[:, 0])
        return out

    def fuu_batch(self, xs, us):
        return np.zeros((len(us), 2, 1, 1))

    def fxu_batch(self, xs, us):
        return np.zeros((len(us), 2, 2, 1))


def pendulum_energy(state: np.ndarray, params: PendulumParams) -> float:
    """Mechanical energy (per unit m l^2) of the unforced pendulum."""
    theta, omega = state
    p = params
    return 0.5 * omega ** 2 + (p.gravity / p.length) * (1.0 - math.cos(theta))


# ---------------------------------------------------------------------------
# cart-pole
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CartPoleParams:
    gravity: float = 9.81      # m/s^2
    pole_length: float = 0.5   # m
    cart_mass: float = 10.0    # kg
    pole_mass: float = 1.0     # kg
    dt: float = 0.01           # s
    force_limit: float = 60.0  # N

    def __post_init__(self):
        for name in ("gravity", "pole_length", "cart_mass", "pole_mass", "dt",
                     "force_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _quotient_derivs(n, gn, hn, den, gden, hden):
    """Value, gradient and Hessian of ``n / den`` from those of each factor.

    Operates on batched inputs: values ``(...)``, gradients ``(..., 3)``,
    Hessians ``(..., 3, 3)``.
    """
    d1 = den[..., None]
    d2 = den[..., None, None]
    q = n / den
    gq = gn / d1 - n[..., None] * gden / d1 ** 2
    outer_ng = gn[..., :, None] * gden[..., None, :]
    outer_gg = gden[..., :, None] * gden[..., None, :]
    hq = (
        hn / d2
        - (outer_ng + np.swapaxes(outer_ng, -1, -2)) / d2 ** 2
        - n[..., None, None] * hden / d2 ** 2
        + 2.0 * n[..., None, None] * outer_gg / d2 ** 3
    )
    return q, gq, hq


def _cartpole_accel(theta, omega, force, p: CartPoleParams):
    """Cart and pole accelerations with first/second derivatives.

    Derivatives are with respect to the reduced variables (theta, omega,
    force), the only ones the accelerations depend on.  Inputs may be
    scalars or equally-shaped arrays; returns two triples
    ``(value, gradient(..., 3), hessian(..., 3, 3))``.
    """
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    force = np.asarray(force, dtype=float)
    s, c = np.sin(theta), np.cos(theta)
    mp, mc, length, grav = p.pole_mass, p.cart_mass, p.pole_length, p.gravity
    shape = theta.shape
    zero = np.zeros(shape)

    den = mc + mp * s * s
    gden = np.stack([2.0 * mp * s * c, zero, zero], axis=-1)
    hden = np.zeros(shape + (3, 3))
    hden[..., 0, 0] = 2.0 * mp * (c * c - s * s)

    # cart: (F + mp sin(th) (l om + g cos(th))) / den
    n1 = force + mp * s * (length * omega + grav * c)
    gn1 = np.stack([
        mp * c * length * omega + mp * grav * (c * c - s * s),
        mp * length * s,
        np.ones(shape),
    ], axis=-1)
    hn1 = np.zeros(shape + (3, 3))
    hn1[..., 0, 0] = -mp * length * s * omega - 4.0 * mp * grav * s * c
    hn1[..., 0, 1] = hn1[..., 1, 0] = mp * length * c
    cart = _quotient_derivs(n1, gn1, hn1, den, gden, hden)

    # pole: (-F cos(th) - mp l om^2 cos(th) sin(th) - (mc+mp) g sin(th)) / (l den)
    n2 = -force * c - mp * length * omega ** 2 * c * s - (mc + mp) * grav * s
    gn2 = np.stack([
        force * s - mp * length * omega ** 2 * (c * c - s * s) - (mc + mp) * grav * c,
        -2.0 * mp * length * omega * c * s,
        -c,
    ], axis=-1)
    hn2 = np.zeros(shape + (3, 3))
    hn2[..., 0, 0] = force * c + 4.0 * mp * length * omega ** 2 * s * c + (mc + mp) * grav * s
    hn2[..., 0, 1] = hn2[..., 1, 0] = -2.0 * mp * length * omega * (c * c - s * s)
    hn2[..., 1, 1] = -2.0 * mp * length * c * s
    hn2[..., 0, 2] = hn2[..., 2, 0] = s
    pole = _quotient_derivs(n2, gn2, hn2, length * den, length * gden, length * hden)
    return cart, pole


def cartpole_step(state: np.ndarray, control: np.ndarray,
                  params: CartPoleParams) -> np.ndarray:
    """One Euler step of the force-driven cart-pole."""
    pos, theta, vel, omega = state
    force = np.asarray(control, dtype=float).reshape(-1)[0]
    (cart_acc, _, _), (pole_acc, _, _) = _cartpole_accel(theta, omega, force, params)
    dt = params.dt
    return np.array([pos + dt * vel, theta + dt * omega,
                     vel + dt * float(cart_acc), omega + dt * float(pole_acc)])


class CartPoleDynamics(DynamicsModel):
    def __init__(self, horizon: int, params: CartPoleParams | None = None):
        super().__init__(horizon, d_x=4, d_u=1)
        self.params = params if params is not None else CartPoleParams()

    def f(self, t, x, u):
        return cartpole_step(x, u, self.params)

    # reduced-variable order inside _cartpole_accel: (theta, omega, force);
    # state order: (pos, theta, vel, omega)

    def _batch_accel(self, xs, us):
        return _cartpole_accel(xs[:, 1], xs[:, 3], us[:, 0], self.params)

    def fx_batch(self, xs, us):
        dt = self.params.dt
        (_, gc, _), (_, gp, _) = self._batch_accel(xs, us)
        n = len(us)
        out = np.zeros((n, 4, 4))
        out[:, 0, 0] = out[:, 1, 1] = out[:, 2, 2] = 1.0
        out[:, 0, 2] = out[:, 1, 3] = dt
        out[:, 2, 1] = dt * gc[:, 0]
        out[:, 2, 3] = dt * gc[:, 1]
        out[:, 3, 1] = dt * gp[:, 0]
        out[:, 3, 3] = 1.0 + dt * gp[:, 1]
        return out

    def fu_batch(self, xs, us):
        dt = self.params.dt
        (_, gc, _), (_, gp, _) = self._batch_accel(xs, us)
        out = np.zeros((len(us), 4, 1))
        out[:, 2, 0] = dt * gc[:, 2]
        out[:, 3, 0] = dt * gp[:, 2]
        return out

    def fxx_batch(self, xs, us):
        dt = self.params.dt
        (_, _, hc), (_, _, hp) = self._batch_accel(xs, us)
        out = np.zeros((len(us), 4, 4, 4))
        for row, h in ((2, hc), (3, hp)):
            out[:, row, 1, 1] = dt * h[:, 0, 0]
            out[:, row, 1, 3] = out[:, row, 3, 1] = dt * h[:, 0, 1]
            out[:, row, 3, 3] = dt * h[:, 1, 1]
        return out

    def fuu_batch(self, xs, us):
        return np.zeros((len(us), 4, 1, 1))

    def fxu_batch(self, xs, us):
        dt = self.params.dt
        (_, _, hc), (_, _, hp) = self._batch_accel(xs, us)
        out = np.zeros((len(us), 4, 4, 1))
        for row, h in ((2, hc), (3, hp)):
            out[:, row, 1, 0] = dt * h[:, 0, 2]
            out[:, row, 3, 0] = dt * h[:, 1, 2]
        return out


# ---------------------------------------------------------------------------
# swing-up problem bundles
# ---------------------------------------------------------------------------

DEFAULT_WEIGHTS = {
    # (diag Q, diag R); positions weighted 10, velocities 1, control 0.1
    "pendulum": (np.array([10.0, 1.0]), np.array([0.1])),
    "cartpole": (np.array([10.0, 10.0, 1.0, 1.0]), np.array([0.1])),
}
DEFAULT_TERMINAL_SCALE = 10.0


def swingup_start(system: str) -> np.ndarray:
    """Initial state of the swing-up task (the stable hanging equilibrium)."""
    if system == "pendulum":
        return np.array([math.pi, 0.0])
    if system == "cartpole":
        return np.zeros(4)
    raise ValueError(f"unknown system {system!r}")


def swingup_goal(system: str, target_position: float = 0.0) -> np.ndarray:
    """Goal state of the swing-up task (upright, at rest)."""
    if system == "pendulum":
        return np.zeros(2)
    if system == "cartpole":
        return np.array([target_position, math.pi, 0.0, 0.0])
    raise ValueError(f"unknown system {system!r}")


def make_swingup_problem(system: str, horizon: int, dt: float,
                         q: np.ndarray | None = None,
                         r: np.ndarray | None = None,
                         terminal_scale: float = DEFAULT_TERMINAL_SCALE,
                         target_position: float = 0.0) -> ControlProblem:
    """Swing-up benchmark: dynamics, quadratic tracking cost, control box.

    ``q`` and ``r`` override the default diagonal weights; the terminal
    weight is ``terminal_scale`` times the stage weight.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    q_def, r_def = DEFAULT_WEIGHTS[system]
    Q = np.diag(q_def if q is None else np.asarray(q, dtype=float))
    R = np.diag(r_def if r is None else np.asarray(r, dtype=float))
    goal = swingup_goal(system, target_position)
    cost = QuadraticCost(Q, R, terminal_scale * Q, x_goal=goal)
    if system == "pendulum":
        params = PendulumParams(dt=dt)
        dyn: DynamicsModel = PendulumDynamics(horizon, params)
        bound = params.torque_limit
    else:
        params = CartPoleParams(dt=dt)
        dyn = CartPoleDynamics(horizon, params)
        bound = params.force_limit
    box = BoxConstraint(dyn.d_x, dyn.d_u, control_lower=-bound, control_upper=bound)
    return ControlProblem(dynamics=dyn, cost=cost, constraints=box)
