"""Finite-difference implementations of the model interfaces.

These wrap plain per-stage callables so arbitrary user functions can be
plugged into the solvers without deriving Jacobians and Hessians.  Each
model implements the one derivative method of every stage function,
``derivatives``, by one shared central-difference rule applied to the
callable evaluated at every stage.  They trade accuracy and speed for
convenience and are intended for prototyping and tests; a map written with
``+ - * /``, sine and cosine gets exact derivatives from
:class:`pintoc.systems.JetDynamics` instead, as the shipped benchmark
systems do.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .derivcheck import fd_hessian, fd_jacobian
from .problem import CostModel, DynamicsModel, StageDerivatives, stack_stages


def _central_differences(value: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        xs: np.ndarray, us: np.ndarray,
                        step: float, hess_step: float) -> StageDerivatives:
    """Every field of :class:`StageDerivatives` of the batched ``value(xs, us)``
    (a stage cost, or the dynamics with the output component second), by
    central differences: ``step`` for gradients, ``hess_step`` for Hessians."""
    in_x = lambda xx: value(xx, us)
    in_u = lambda uu: value(xs, uu)
    grad_x = lambda uu: fd_jacobian(lambda xx: value(xx, uu), xs, hess_step)
    return StageDerivatives(
        x=fd_jacobian(in_x, xs, step),
        u=fd_jacobian(in_u, us, step),
        xx=fd_hessian(in_x, xs, hess_step),
        uu=fd_hessian(in_u, us, hess_step),
        xu=fd_jacobian(grad_x, us, hess_step),
    )


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

    def derivatives(self, xs, us):
        return _central_differences(self.f_batch, xs, us, self._step, self._hess_step)


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
        return _central_differences(self.l_batch, xs, us, self._step, self._hess_step)

    def terminal(self, x):
        return float(self._term(x))

    def terminal_x(self, x):
        return fd_jacobian(self._term, x, self._step)

    def terminal_xx(self, x):
        return fd_hessian(self._term, x, self._hess_step)
