"""Finite-difference implementations of the model interfaces.

These wrap plain per-stage callables so arbitrary user functions can be
plugged into the solvers without deriving Jacobians and Hessians.  Each
model fills its :class:`~pintoc.problem.StageDerivatives` record, at every
stage at once, by the one central-difference rule that
:func:`pintoc.check_derivatives` checks analytic derivatives against: first
derivatives difference the callable, and second derivatives difference
those differenced gradients.  Each model has one ``step`` for both levels;
its default, 1e-4, keeps the rounding of the nested differences near 1e-8.
The models trade accuracy and speed for convenience and are intended for
prototyping and tests; a map written with ``+ - * /``, sine and cosine gets
exact derivatives from :class:`pintoc.systems.JetDynamics` instead, as the
shipped benchmark systems do.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .derivcheck import fd_jacobian, fd_stage_derivatives
from .problem import CostModel, DynamicsModel, StageDerivatives, stack_stages


def _central_differences(value: Callable[[np.ndarray, np.ndarray], np.ndarray],
                         xs: np.ndarray, us: np.ndarray, step: float) -> StageDerivatives:
    """:func:`fd_stage_derivatives` of the batched ``value(xs, us)``, with its
    gradients differenced too."""
    grad_x = lambda xx, uu: fd_jacobian(lambda z: value(z, uu), xx, step)
    grad_u = lambda xx, uu: fd_jacobian(lambda z: value(xx, z), uu, step)
    return fd_stage_derivatives(value, grad_x, grad_u, xs, us, step)


class FiniteDiffDynamics(DynamicsModel):
    """Dynamics model with derivatives from central differences of ``fn``."""

    def __init__(self, fn: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
                 horizon: int, d_x: int, d_u: int, step: float = 1e-4):
        super().__init__(horizon, d_x, d_u)
        self._fn = fn
        self._step = step

    def f(self, t, x, u):
        return np.asarray(self._fn(t, x, u), dtype=float)

    def derivatives(self, xs, us):
        return _central_differences(self.f_batch, xs, us, self._step)


class FiniteDiffCost(CostModel):
    """Cost model differentiating ``stage(t, x, u)`` and ``term(x)`` numerically."""

    def __init__(self, stage: Callable[[int, np.ndarray, np.ndarray], float],
                 term: Callable[[np.ndarray], float], step: float = 1e-4):
        self._stage = stage
        self._term = term
        self._step = step

    def l_batch(self, xs, us):
        return stack_stages(self._stage, xs, us)

    def derivatives(self, xs, us):
        return _central_differences(self.l_batch, xs, us, self._step)

    def terminal(self, x):
        return float(self._term(x))

    def terminal_x(self, x):
        return fd_jacobian(self._term, x, self._step)

    def terminal_xx(self, x):
        return fd_jacobian(self.terminal_x, x, self._step)
