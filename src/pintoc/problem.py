"""Problem data model: trajectories, model interfaces, and cost evaluation.

A discrete-time control problem is described by two models (dynamics and
cost) and a box of stage constraints, plus an optional cost augmentation
(log-barrier or consensus penalty) supplied by an outer solver.  Values and
derivatives are evaluated over all stages at once, row ``t`` being stage
``t``, so time-varying problems are expressible: the derivatives of the
dynamics, of the stage cost and of the augmentation by one ``derivatives``
call each, all returning the same record.  Only the dynamics map
``f(t, x, u)`` (for the sequential rollout) and the terminal cost take a
single point.  Every object is immutable after construction.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import DimensionError, DivergenceError, InfeasibleError


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Trajectory:
    """A state sequence of length N+1 paired with N controls."""

    states: np.ndarray    # (N+1, d_x)
    controls: np.ndarray  # (N, d_u)

    def __post_init__(self):
        object.__setattr__(self, "states", _frozen(np.atleast_2d(self.states)))
        object.__setattr__(self, "controls", _frozen(np.atleast_2d(self.controls)))
        if self.states.shape[0] != self.controls.shape[0] + 1:
            raise DimensionError(
                f"need len(states) == len(controls) + 1, got "
                f"{self.states.shape[0]} states and {self.controls.shape[0]} controls"
            )
        if not np.all(np.isfinite(self.states)):
            raise DimensionError("trajectory states contain non-finite values")
        if not np.all(np.isfinite(self.controls)):
            raise DimensionError("trajectory controls contain non-finite values")

    @property
    def horizon(self) -> int:
        return self.controls.shape[0]

    @property
    def d_x(self) -> int:
        return self.states.shape[1]

    @property
    def d_u(self) -> int:
        return self.controls.shape[1]


class StageDerivatives(NamedTuple):
    """First and second derivatives of a stage function at every stage.

    Row ``t`` of each field is stage ``t``; the shapes below are those of a
    scalar stage cost.  For the vector-valued dynamics the output component
    is the axis after the stage axis: ``x[t, k]`` is the gradient and
    ``xx[t, k]`` the symmetric Hessian of component ``k`` of ``f_t``.
    """

    x: np.ndarray   # (N, d_x)
    u: np.ndarray   # (N, d_u)
    xx: np.ndarray  # (N, d_x, d_x)
    uu: np.ndarray  # (N, d_u, d_u)
    xu: np.ndarray  # (N, d_x, d_u)


class DynamicsModel(abc.ABC):
    """Discrete map ``x_{t+1} = f_t(x_t, u_t)`` with its first and second
    derivatives.

    A model implements two methods.  ``f(t, x, u)`` is the map at one stage,
    which the sequential rollout evaluates.  ``derivatives(xs, us)`` takes
    stacked states and controls (row ``t`` is stage ``t``) and returns every
    derivative a Newton iteration needs, as one :class:`StageDerivatives`
    like a stage cost's, so a model that shares work between them (as the
    jets of :class:`pintoc.systems.JetDynamics` do) evaluates once per
    iteration.

    ``f_batch(xs, us)`` is the map at every stage at once, used to check
    that a trajectory follows the dynamics; it stacks ``f`` stage by stage
    unless a subclass vectorizes it.  ``fx_batch`` ... ``fxu_batch`` each
    return one field of ``derivatives``.  The solver never calls them; they
    stay so that code resolving the derivatives by name keeps working.
    """

    horizon: int
    d_x: int
    d_u: int

    def __init__(self, horizon: int, d_x: int, d_u: int):
        if horizon < 1 or d_x < 1 or d_u < 1:
            raise DimensionError("horizon, d_x and d_u must all be positive")
        self.horizon = horizon
        self.d_x = d_x
        self.d_u = d_u

    @abc.abstractmethod
    def f(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Next state ``(d_x,)`` from the state and control of stage ``t``."""

    @abc.abstractmethod
    def derivatives(self, xs: np.ndarray, us: np.ndarray) -> StageDerivatives:
        """Jacobians and Hessians of ``f`` at every row of ``(xs, us)``."""

    def f_batch(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Next states ``(N, d_x)``, row ``t`` being ``f(t, xs[t], us[t])``."""
        return stack_stages(self.f, xs, us)

    def fx_batch(self, xs, us):
        return self.derivatives(xs, us).x

    def fu_batch(self, xs, us):
        return self.derivatives(xs, us).u

    def fxx_batch(self, xs, us):
        return self.derivatives(xs, us).xx

    def fuu_batch(self, xs, us):
        return self.derivatives(xs, us).uu

    def fxu_batch(self, xs, us):
        return self.derivatives(xs, us).xu


def stack_stages(fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
                 xs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Evaluate a per-stage ``fn(t, x, u)`` at every row, stacked by stage."""
    return np.stack([np.asarray(fn(t, xs[t], us[t]), dtype=float)
                     for t in range(len(us))])


class CostModel(abc.ABC):
    """Stage cost ``l_t(x, u)`` and terminal cost with analytic derivatives.

    Stage values (``l_batch``) and derivatives (``derivatives``, all of them
    as one :class:`StageDerivatives`) are batched over stages like those of
    :class:`DynamicsModel`; the terminal cost is evaluated at one state.
    """

    @abc.abstractmethod
    def l_batch(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        """Stage costs, shape (N,)."""

    @abc.abstractmethod
    def derivatives(self, xs: np.ndarray, us: np.ndarray) -> StageDerivatives:
        """Gradients and Hessians of ``l_t`` at every row of ``(xs, us)``."""

    @abc.abstractmethod
    def terminal(self, x: np.ndarray) -> float: ...

    @abc.abstractmethod
    def terminal_x(self, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def terminal_xx(self, x: np.ndarray) -> np.ndarray: ...


class BoxConstraint:
    """Componentwise bounds, the stage inequality constraints of a problem.

    Bounds ``lb <= u <= ub`` become ``h(u) = [u - ub; lb - u]``, and state
    bounds likewise ``g(x)``, so the feasible set is ``{g <= 0, h <= 0}``
    and the Euclidean projection used by ADMM is a componentwise clamp.
    ``w_batch(xs, us)`` stacks them as ``[g; h]`` in each row (row ``t`` is
    stage ``t``).  Infinite bounds are dropped from the stacking, so a box
    without finite bounds is the unconstrained problem; a NaN bound is
    rejected.

    The constraints are affine: their Jacobians are the constant +-1
    selector matrices ``gx`` ``(n_state, d_x)`` and ``hu``
    ``(n_control, d_u)``, and their Hessians are zero.
    """

    def __init__(self, d_x: int, d_u: int,
                 control_lower=None, control_upper=None,
                 state_lower=None, state_upper=None):
        self.d_x = d_x
        self.d_u = d_u
        self.control_lower = self._bound("control_lower", control_lower, d_u, -np.inf)
        self.control_upper = self._bound("control_upper", control_upper, d_u, np.inf)
        self.state_lower = self._bound("state_lower", state_lower, d_x, -np.inf)
        self.state_upper = self._bound("state_upper", state_upper, d_x, np.inf)
        if not (np.all(self.control_lower < self.control_upper)
                and np.all(self.state_lower < self.state_upper)):
            raise DimensionError("box bounds must be lower < upper, and not NaN")
        self._g, self.gx = self._one_sided(self.state_lower, self.state_upper)
        self._h, self.hu = self._one_sided(self.control_lower, self.control_upper)
        self.n_state = len(self.gx)    # number of g components (m_g)
        self.n_control = len(self.hu)  # number of h components (m_h)

    @staticmethod
    def _bound(name: str, value, dim: int, default: float) -> np.ndarray:
        if value is None:
            return _frozen(np.full(dim, default))
        arr = np.asarray(value, dtype=float)
        if arr.ndim > 1 or arr.size not in (1, dim):
            raise DimensionError(f"{name} needs {dim} entries or one for all, "
                                 f"got shape {arr.shape}")
        return _frozen(np.broadcast_to(arr, (dim,)))

    @staticmethod
    def _one_sided(lower: np.ndarray, upper: np.ndarray):
        """Rows ``[z - upper; lower - z]`` of the finite bounds, as the index
        and bound of each, and their constant Jacobian."""
        up = np.flatnonzero(np.isfinite(upper))
        lo = np.flatnonzero(np.isfinite(lower))
        jac = np.zeros((len(up) + len(lo), len(upper)))
        jac[np.arange(len(up)), up] = 1.0
        jac[np.arange(len(up), len(jac)), lo] = -1.0
        return (up, upper[up], lo, lower[lo]), _frozen(jac)

    @staticmethod
    def _stack(z, rows) -> np.ndarray:
        up, upper, lo, lower = rows
        z = np.asarray(z, dtype=float)
        return np.concatenate([z[:, up] - upper, lower - z[:, lo]], axis=1)

    def g_batch(self, xs: np.ndarray) -> np.ndarray:
        return self._stack(xs, self._g)

    def h_batch(self, us: np.ndarray) -> np.ndarray:
        return self._stack(us, self._h)

    def w_batch(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        return np.concatenate([self.g_batch(xs[:len(us)]), self.h_batch(us)], axis=1)

    @property
    def n_total(self) -> int:
        return self.n_state + self.n_control

    def max_violation(self, traj: Trajectory) -> float:
        """Largest constraint value over all stages (<= 0 means feasible)."""
        if self.n_total == 0:
            return -np.inf
        return float(self.w_batch(traj.states[:-1], traj.controls).max())


class AugmentedCost(abc.ABC):
    """Extra stage cost ``c_t(x, u) = sum_i phi(w_i)`` added by an outer solver.

    ``w = [g(x); h(u)]`` are the stacked constraint values of the stage.  A
    subclass supplies only ``penalty`` (``phi``, ``phi'`` and ``phi''``
    entrywise); the derivatives, batched over stages like those of
    :class:`CostModel`, follow by the chain rule written once here, with no
    curvature term of the constraints since the box is affine::

        cx  = gx^T phi'(g)        cxx = gx^T diag(phi''(g)) gx
        cu  = hu^T phi'(h)        cuu = hu^T diag(phi''(h)) hu
        cxu = 0

    :meth:`derivatives` returns all of them as one :class:`StageDerivatives`,
    the interface of :class:`CostModel`, from one evaluation of ``g``, of
    ``h`` and of the penalty of each, and evaluates nothing for a part
    without constraints (a control-only box has no ``g``).

    :meth:`step_scale` lets a penalty defined only on part of the control
    space shorten a Newton step before its rollout.
    """

    constraints: BoxConstraint

    @abc.abstractmethod
    def penalty(self, w: np.ndarray, cols: slice) -> tuple[np.ndarray, ...]:
        """``phi``, ``phi'`` and ``phi''`` of each entry of ``w``, which holds
        the columns ``cols`` of the stacked ``[g; h]`` (one row per stage)."""

    def _parts(self, xs, us):
        """Input, columns of ``[g; h]``, evaluator and Jacobian of the state
        part, then of the control part, so an infeasible ``g`` is reported
        before ``h``."""
        con = self.constraints
        return ((xs, slice(0, con.n_state), con.g_batch, con.gx),
                (us, slice(con.n_state, con.n_total), con.h_batch, con.hu))

    def c_batch(self, xs, us):
        total = np.zeros(len(us))
        for z, cols, value, _ in self._parts(xs, us):
            if cols.stop > cols.start:
                total += np.sum(self.penalty(value(z), cols)[0], axis=1)
        return total

    def derivatives(self, xs: np.ndarray, us: np.ndarray) -> StageDerivatives:
        terms = []
        for z, cols, value, J in self._parts(xs, us):
            n, d = z.shape
            if cols.stop == cols.start:
                terms.append((np.zeros((n, d)), np.zeros((n, d, d))))
                continue
            _, d1, d2 = self.penalty(value(z), cols)
            terms.append((d1 @ J, np.einsum("mi,tm,mj->tij", J, d2, J)))
        (cx, cxx), (cu, cuu) = terms
        # g depends on x only and h on u only, so the cross term vanishes
        cxu = np.broadcast_to(0.0, (len(us), xs.shape[1], us.shape[1]))
        return StageDerivatives(cx, cu, cxx, cuu, cxu)

    def step_scale(self, controls: np.ndarray, dus: np.ndarray, d: np.ndarray,
                   alpha: float) -> float:
        """Fraction in (0, 1] of the control step ``dus`` to take from
        ``controls``, where ``(H + alpha*I) dus = -d``; the whole step here."""
        return 1.0


class ZeroAugmentation(AugmentedCost):
    """No augmentation; reduces the augmented objective to the plain cost."""

    constraints = BoxConstraint(0, 0)  # no bounds: no penalty term, zero derivatives

    def penalty(self, w, cols):
        return (np.zeros_like(w),) * 3


@dataclass(frozen=True)
class ControlProblem:
    """Bundle of the models describing one constrained control problem.

    An unbounded ``BoxConstraint(d_x, d_u)`` is the unconstrained problem.
    """

    dynamics: DynamicsModel
    cost: CostModel
    constraints: BoxConstraint

    @property
    def horizon(self) -> int:
        return self.dynamics.horizon


def rollout(model: DynamicsModel, x1: np.ndarray, controls: np.ndarray) -> Trajectory:
    """Propagate ``controls`` through the dynamics starting from ``x1``.

    Raises:
        DivergenceError: if any produced state is non-finite, reporting the
            first offending step.
        DimensionError: on shape mismatch with the model.
    """
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    if x1.shape[0] != model.d_x:
        raise DimensionError(f"x1 has dimension {x1.shape[0]}, model wants {model.d_x}")
    if controls.shape != (model.horizon, model.d_u):
        raise DimensionError(
            f"controls shape {controls.shape} does not match "
            f"(N, d_u) = ({model.horizon}, {model.d_u})"
        )
    states = np.empty((model.horizon + 1, model.d_x))
    states[0] = x1
    for t in range(model.horizon):
        try:
            states[t + 1] = model.f(t, states[t], controls[t])
        except (ValueError, ArithmeticError):
            # f may reject a non-finite state (``math.sin(inf)`` raises); an
            # error on finite inputs is the model's own
            _check_finite(states[:t + 1])
            raise
    # one finiteness check for all stages costs less than one per stage
    _check_finite(states)
    return Trajectory(states, controls)


def _check_finite(states: np.ndarray) -> None:
    """Raise :class:`DivergenceError` at the first non-finite row past row 0."""
    finite = np.all(np.isfinite(states[1:]), axis=1)
    if not np.all(finite):
        raise DivergenceError(int(np.argmin(finite)) + 1)


def first_dynamics_gap(model: DynamicsModel, traj: Trajectory,
                       tol: float) -> tuple[int, float] | None:
    """First stage at which ``traj`` departs from the dynamics, with its gap.

    Stage ``t`` departs when ``max|f(x_t, u_t) - x_{t+1}|`` exceeds
    ``tol * (1 + max|f(x_t, u_t)|)``.  All stages are evaluated in one
    ``f_batch`` call; returns ``None`` when every stage is consistent.
    """
    predicted = model.f_batch(traj.states[:-1], traj.controls)
    gaps = np.max(np.abs(predicted - traj.states[1:]), axis=1)
    bad = np.flatnonzero(gaps > tol * (1.0 + np.max(np.abs(predicted), axis=1)))
    return (int(bad[0]), float(gaps[bad[0]])) if bad.size else None


def total_cost(cost: CostModel, aug: AugmentedCost, traj: Trajectory) -> float:
    """Augmented objective: terminal cost plus sum of ``l_t + c_t``.

    Raises:
        InfeasibleError: if a barrier augmentation is evaluated outside the
            strict interior.
    """
    xs, us = traj.states[:-1], traj.controls
    total = cost.terminal(traj.states[-1])
    total += float(np.sum(cost.l_batch(xs, us))) + float(np.sum(aug.c_batch(xs, us)))
    return float(total)
