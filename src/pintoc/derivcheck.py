"""Central-difference verification of analytic model derivatives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DerivativeCheckError, DimensionError
from .problem import (AugmentedCost, BoxConstraint, CostModel, DynamicsModel,
                      StageDerivatives)

DEFAULT_STEP = 1e-6
DEFAULT_TOL = 1e-5


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                step: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference derivative of ``fn`` along the last axis of ``x``.

    Works for scalar, vector, and matrix valued ``fn``; the differentiation
    axis is appended last.  A 2-D ``x`` is a batch of points, one per row:
    each row is perturbed at once, so ``fn`` must map row ``t`` of its input
    to row ``t`` of its output alone (as the ``*_batch`` evaluators do), and
    the result holds one derivative per row.
    """
    x = np.asarray(x, dtype=float)
    base = np.asarray(fn(x), dtype=float)
    n = x.shape[-1]
    out = np.empty(base.shape + (n,))
    for i in range(n):
        dx = np.zeros_like(x)
        dx[..., i] = step
        hi = np.asarray(fn(x + dx), dtype=float)
        lo = np.asarray(fn(x - dx), dtype=float)
        out[..., i] = (hi - lo) / (2.0 * step)
    return out


def fd_stage_derivatives(value: Callable, grad_x: Callable, grad_u: Callable,
                         xs: np.ndarray, us: np.ndarray, step: float) -> StageDerivatives:
    """Every field of :class:`StageDerivatives` by central differences at the
    stacked ``(xs, us)``: the first derivatives of the batched ``value(xs, us)``
    (a stage cost, or the dynamics with the output component second), and the
    second derivatives of the batched gradients ``grad_x`` and ``grad_u``."""
    in_x = lambda fn: fd_jacobian(lambda xx: fn(xx, us), xs, step)
    in_u = lambda fn: fd_jacobian(lambda uu: fn(xs, uu), us, step)
    return StageDerivatives(x=in_x(value), u=in_u(value), xx=in_x(grad_x),
                            uu=in_u(grad_u), xu=in_u(grad_x))


@dataclass(frozen=True)
class DerivativeCheck:
    name: str
    max_abs_err: float
    max_rel_err: float
    ok: bool


@dataclass(frozen=True)
class DerivativeReport:
    checks: tuple[DerivativeCheck, ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __getitem__(self, name: str) -> DerivativeCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _compare(name: str, analytic, fd, tol: float) -> DerivativeCheck:
    """Compare stacked derivatives stage by stage (axis 0 indexes stages)."""
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    rows = len(analytic)
    abs_err = np.max(np.abs(analytic - fd).reshape(rows, -1), axis=1)
    scale = np.max(np.abs(fd).reshape(rows, -1), axis=1)
    rel_err = abs_err / np.maximum(scale, 1e-12)
    # pass if close in a scale-aware sense: small derivatives are judged
    # absolutely, large ones relatively, each stage on its own scale
    ok = bool(np.all(abs_err <= tol * (1.0 + scale)))
    return DerivativeCheck(name, float(abs_err.max()), float(rel_err.max()), ok)


def check_derivatives(target, point, tolerance: float = DEFAULT_TOL,
                      step: float = DEFAULT_STEP) -> DerivativeReport:
    """Validate every analytic derivative of ``target`` at every stage of a batch.

    ``point`` is a pair ``(xs, us)`` of stacked states ``(n, d_x)`` and
    controls ``(n, d_u)``; row ``t`` is stage ``t``, so a time-varying
    target needs one row per stage of its horizon.  The evaluators the
    solver runs are checked at all rows in one call: every field of the
    ``derivatives`` of a dynamics model, a stage cost or an augmentation,
    and the constant Jacobians ``gx`` and ``hu`` of a box.

    The reference record is :func:`fd_stage_derivatives`, the rule the
    finite-difference models build theirs with.  Its first derivatives
    difference the underlying evaluator (``f_batch``, ``l_batch`` or
    ``c_batch``); its second derivatives difference the model's own
    analytic first derivatives, so one bad level cannot mask another.  The
    checks are named by the function and the field: ``fx`` ... ``fxu`` for
    dynamics, ``lx`` ... ``lxu`` for a stage cost, ``cx`` ... ``cxu`` for an
    augmentation.  A box is affine: ``gx`` and ``hu`` are compared against
    differences of ``g_batch`` and ``h_batch``, with no second derivatives
    to check.  A cost's terminal derivatives are checked at the last row of
    ``xs``.  Each stage is judged on its own scale.

    Returns the full report, or raises :class:`DerivativeCheckError` naming
    the offending derivatives if any comparison exceeds ``tolerance``.
    """
    xs, us = (np.asarray(a, dtype=float) for a in point)
    if xs.ndim != 2 or us.ndim != 2 or len(xs) != len(us) or not len(us):
        raise DimensionError(
            f"need stacked (n, d_x) states and (n, d_u) controls with n >= 1, "
            f"got shapes {xs.shape} and {us.shape}")
    checks: list[DerivativeCheck] = []
    if isinstance(target, (DynamicsModel, CostModel, AugmentedCost)):
        m = target
        # the dynamics f, the stage cost l of a cost model, or the augmentation c
        name, value = (("f", m.f_batch) if isinstance(m, DynamicsModel) else
                       ("l", m.l_batch) if isinstance(m, CostModel) else ("c", m.c_batch))
        der = m.derivatives(xs, us)
        fd = fd_stage_derivatives(value, lambda xx, uu: m.derivatives(xx, uu).x,
                                  lambda xx, uu: m.derivatives(xx, uu).u, xs, us, step)
        checks += [_compare(name + field, getattr(der, field), getattr(fd, field), tolerance)
                   for field in StageDerivatives._fields]
        if isinstance(m, CostModel):
            x_end = xs[-1]
            checks += [
                _compare("terminal_x", [m.terminal_x(x_end)],
                         [fd_jacobian(m.terminal, x_end, step)], tolerance),
                _compare("terminal_xx", [m.terminal_xx(x_end)],
                         [fd_jacobian(m.terminal_x, x_end, step)], tolerance),
            ]
    elif isinstance(target, BoxConstraint):
        # affine constraints: constant Jacobians and no Hessians to check
        for name, jac, value, z in (("gx", target.gx, target.g_batch, xs),
                                    ("hu", target.hu, target.h_batch, us)):
            if len(jac):
                checks.append(_compare(name, np.broadcast_to(jac, (len(z),) + jac.shape),
                                       fd_jacobian(value, z, step), tolerance))
    else:
        raise TypeError(f"cannot check derivatives of {type(target).__name__}")

    report = DerivativeReport(tuple(checks), tolerance)
    if not report.ok:
        bad = ", ".join(
            f"{c.name} (abs {c.max_abs_err:.3e}, rel {c.max_rel_err:.3e})"
            for c in report.checks if not c.ok
        )
        raise DerivativeCheckError(f"derivative check failed for: {bad}")
    return report
