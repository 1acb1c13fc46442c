"""Benchmark systems: Euler-discretized pendulum and cart-pole swing-up.

Conventions (documented because the cost targets depend on them):

* pendulum state is ``(theta, omega)`` with the upright goal at the origin,
  so the swing-up starts hanging at ``(pi, 0)``;
* cart-pole state is ``(pos, theta, vel, omega)`` with ``theta = 0`` the
  pole-down equilibrium; the swing-up goal is ``theta = pi`` and a target
  cart position.

Angles are not wrapped; costs act on raw differences.  Each system is
written once, as the Euler step of a :class:`JetDynamics`: evaluated on
floats it is the map, on arrays of stage values the map at every stage, and
on second-order jets it gives the exact Jacobians and Hessians, which the
test suite checks against finite differences.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .problem import (
    BoxConstraint,
    ControlProblem,
    CostModel,
    DynamicsModel,
    StageDerivatives,
)

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

    def derivatives(self, xs, us):
        n, d_x, d_u = len(us), self.d_x, self.d_u
        return StageDerivatives(
            x=np.broadcast_to(self.A, (n, d_x, d_x)),
            u=np.broadcast_to(self.B, (n, d_x, d_u)),
            xx=np.zeros((n, d_x, d_x, d_x)),
            uu=np.zeros((n, d_x, d_u, d_u)),
            xu=np.zeros((n, d_x, d_x, d_u)),
        )


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

    def derivatives(self, xs, us):
        n = len(us)
        return StageDerivatives(
            x=(xs - self.x_goal) @ self.Q.T,
            u=us @ self.R.T,
            xx=np.broadcast_to(self.Q, (n,) + self.Q.shape),
            uu=np.broadcast_to(self.R, (n,) + self.R.shape),
            xu=np.broadcast_to(0.0, (n, self.Q.shape[0], self.R.shape[0])),
        )


# ---------------------------------------------------------------------------
# dynamics written once: second-order jets
# ---------------------------------------------------------------------------

def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., :, None] * b[..., None, :]


class _Jet:
    """Value, gradient and Hessian of one quantity over a batch of points.

    ``val`` is ``(N,)``, ``grad`` ``(N, k)`` and ``hess`` ``(N, k, k)`` in
    ``k`` seed variables.  ``+ - * /`` against jets or constants on either
    side, :func:`_sin` and :func:`_cos` apply the chain rule to all three
    parts, so an expression written for floats also yields its first and
    second derivatives (second-order forward mode, or hyper-dual numbers:
    Fike & Alonso, AIAA 2011; Griewank & Walther, *Evaluating Derivatives*,
    2008).
    """

    __slots__ = ("val", "grad", "hess")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, val: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.val, self.grad, self.hess = val, grad, hess

    def _chain(self, val, d1, d2) -> "_Jet":
        """``g(self)`` from the value and first two derivatives of ``g``."""
        return _Jet(val, d1[..., None] * self.grad,
                    d1[..., None, None] * self.hess
                    + d2[..., None, None] * _outer(self.grad, self.grad))

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return _Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return _Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.val * other, self.grad * other, self.hess * other)
        cross = _outer(self.grad, other.grad)
        return _Jet(self.val * other.val,
                    self.grad * other.val[..., None] + other.grad * self.val[..., None],
                    self.hess * other.val[..., None, None]
                    + other.hess * self.val[..., None, None] + cross + np.swapaxes(cross, -1, -2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.val / other, self.grad / other, self.hess / other)
        # q = a / b: differentiate a = q b twice and solve for q's parts
        q = self.val / other.val
        grad = (self.grad - q[..., None] * other.grad) / other.val[..., None]
        cross = _outer(grad, other.grad)
        return _Jet(q, grad,
                    (self.hess - q[..., None, None] * other.hess - cross
                     - np.swapaxes(cross, -1, -2)) / other.val[..., None, None])

    def __rtruediv__(self, other):
        val = other / self.val
        d1 = -val / self.val
        return self._chain(val, d1, -2.0 * d1 / self.val)


def _sin(a):
    """Sine of a jet, an array of stage values, or a float (through ``math``)."""
    if isinstance(a, _Jet):
        s, c = np.sin(a.val), np.cos(a.val)
        return a._chain(s, c, -s)
    return np.sin(a) if isinstance(a, np.ndarray) else math.sin(a)


def _cos(a):
    """Cosine of a jet, an array of stage values, or a float (through ``math``)."""
    if isinstance(a, _Jet):
        s, c = np.sin(a.val), np.cos(a.val)
        return a._chain(c, -s, -c)
    return np.cos(a) if isinstance(a, np.ndarray) else math.cos(a)


class JetDynamics(DynamicsModel):
    """A time-invariant dynamics model written once, as :meth:`step`.

    ``step`` runs on three kinds of entries.  On the Python floats of one
    point it is the map ``f``, so the rollout builds no derivatives.  On
    arrays holding one entry of every stage it is ``f_batch``, the same
    floating-point operations in the same order, so its rows equal ``f``
    bit for bit.  On :class:`_Jet` seeds over ``(x, u)`` at every stage it
    yields all the Jacobians and Hessians at once: :meth:`derivatives` is
    one such evaluation.
    """

    @abc.abstractmethod
    def step(self, x: list, u: list) -> list:
        """The ``d_x`` entries of the next state from the entries of ``x``
        and ``u``, using only ``+ - * /``, :func:`_sin` and :func:`_cos`."""

    def f(self, t, x, u):
        return np.array(self.step(np.asarray(x, dtype=float).tolist(),
                                  np.asarray(u, dtype=float).reshape(-1).tolist()))

    def f_batch(self, xs, us):
        xs, us = np.asarray(xs, dtype=float), np.asarray(us, dtype=float)
        return np.stack(self.step(list(xs.T), list(us.T)), axis=1)

    def _jets(self, xs, us) -> tuple[np.ndarray, np.ndarray]:
        """Gradients ``(N, d_x, k)`` and Hessians ``(N, d_x, k, k)`` of
        ``step`` in ``z = (x, u)``, ``k = d_x + d_u``."""
        zs = np.hstack([xs, us])
        n, k = zs.shape
        eye, zero = np.eye(k), np.zeros((n, k, k))
        seeds = [_Jet(zs[:, i], np.broadcast_to(eye[i], (n, k)), zero) for i in range(k)]
        out = self.step(seeds[:self.d_x], seeds[self.d_x:])
        return (np.stack([y.grad for y in out], axis=1),
                np.stack([y.hess for y in out], axis=1))

    def derivatives(self, xs, us):
        grad, hess = self._jets(xs, us)
        x, u = slice(None, self.d_x), slice(self.d_x, None)
        return StageDerivatives(x=grad[..., x], u=grad[..., u], xx=hess[..., x, x],
                                uu=hess[..., u, u], xu=hess[..., x, u])


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


class PendulumDynamics(JetDynamics):
    """One Euler step of the damped torque-driven pendulum."""

    def __init__(self, horizon: int, params: PendulumParams | None = None):
        super().__init__(horizon, d_x=2, d_u=1)
        self.params = params if params is not None else PendulumParams()

    def step(self, x, u):
        theta, omega = x
        p = self.params
        acc = -(p.gravity / p.length) * _sin(theta) \
            + (u[0] - p.damping * omega) / (p.mass * p.length ** 2)
        return [theta + p.dt * omega, omega + p.dt * acc]


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
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


class CartPoleDynamics(JetDynamics):
    """One Euler step of the force-driven cart-pole."""

    def __init__(self, horizon: int, params: CartPoleParams | None = None):
        super().__init__(horizon, d_x=4, d_u=1)
        self.params = params if params is not None else CartPoleParams()

    def step(self, x, u):
        pos, theta, vel, omega = x
        force = u[0]
        p = self.params
        mp, mc, length, grav = p.pole_mass, p.cart_mass, p.pole_length, p.gravity
        s, c = _sin(theta), _cos(theta)
        den = mc + mp * s * s
        cart_acc = (force + mp * s * (length * (omega * omega) + grav * c)) / den
        pole_acc = (-force * c - mp * length * (omega * omega) * c * s
                    - (mc + mp) * grav * s) / (length * den)
        return [pos + p.dt * vel, theta + p.dt * omega,
                vel + p.dt * cart_acc, omega + p.dt * pole_acc]


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
