"""Finite-difference implementations of the model interfaces.

These wrap plain per-stage callables so arbitrary user functions can be
plugged into the solvers without deriving Jacobians and Hessians.  Each
model implements the one derivative method of its interface
(``linearize`` for the dynamics, ``derivatives`` for the stage cost) by
differencing the callable evaluated at every stage.  They trade accuracy
and speed for convenience and are intended for prototyping and tests; a
map written with ``+ - * /``, sine and cosine gets exact
derivatives from :class:`pintoc.systems.JetDynamics` instead, as the shipped
benchmark systems do.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .derivcheck import fd_hessian, fd_jacobian
from .problem import CostModel, DynamicsModel, Linearization, StageDerivatives, stack_stages


class FiniteDiffDynamics(DynamicsModel):
    """Dynamics model with derivatives from central differences of ``fn``."""

    def __init__(self, fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
                 horizon: int, d_x: int, d_u: int,
                 step: float = 1e-6, hess_step: float = 1e-4):
        super().__init__(horizon, d_x, d_u)
        self._fn = fn
        self._step = step
        self._hess_step = hess_step

    def f(self, t, x, u):
        return np.asarray(self._fn(t, x, u), dtype=float)

    def linearize(self, xs, us):
        f, h = self.f_batch, self._hess_step
        jac_u = lambda xx: fd_jacobian(lambda uu: f(xx, uu), us, h)
        return Linearization(
            fx=fd_jacobian(lambda xx: f(xx, us), xs, self._step),
            fu=fd_jacobian(lambda uu: f(xs, uu), us, self._step),
            fxx=fd_hessian(lambda xx: f(xx, us), xs, h),
            fuu=fd_hessian(lambda uu: f(xs, uu), us, h),
            fxu=np.swapaxes(fd_jacobian(jac_u, xs, h), -1, -2),
        )


class FiniteDiffCost(CostModel):
    """Cost model differentiating ``stage(t, x, u)`` and ``term(x)`` numerically."""

    def __init__(self, stage: Callable[[int, np.ndarray, np.ndarray], float],
                 term: Callable[[np.ndarray], float],
                 step: float = 1e-6, hess_step: float = 1e-4):
        self._stage = stage
        self._term = term
        self._step = step
        self._hess_step = hess_step

    def l_batch(self, xs, us):
        return stack_stages(self._stage, xs, us)

    def derivatives(self, xs, us):
        val, h = self.l_batch, self._hess_step
        grad_x = lambda uu: fd_jacobian(lambda xx: val(xx, uu), xs, h)
        return StageDerivatives(
            x=fd_jacobian(lambda xx: val(xx, us), xs, self._step),
            u=fd_jacobian(lambda uu: val(xs, uu), us, self._step),
            xx=fd_hessian(lambda xx: val(xx, us), xs, h),
            uu=fd_hessian(lambda uu: val(xs, uu), us, h),
            xu=fd_jacobian(grad_x, us, h),
        )

    def terminal(self, x):
        return float(self._term(x))

    def terminal_x(self, x):
        return fd_jacobian(self._term, x, self._step)

    def terminal_xx(self, x):
        return fd_hessian(self._term, x, self._hess_step)
