"""The three associative-scan passes of one Newton iteration.

Each pass follows the same recipe: build the elements of all stages as one
stack (a NamedTuple of arrays whose leading axis is the stage), combine them
with an associative operator via :func:`pintoc.scan.scan`, and read the
result off the combined stack by slicing.

* co-state pass (suffix scan): adjoint vectors of the augmented Lagrangian,
* value pass (suffix scan over dual-form conditional value functions):
  quadratic cost-to-go parameters and an affine control law,
* propagation pass (prefix scan): closed-loop state deviations.

The co-state and propagation passes share one element, the affine map
``x -> F x + e``: the adjoint recursion is that map run backward in time.

Element construction is independent across stages, and each combine is
written once for a single element and for a batch of them alike.  The scan
engine runs every level of its plan as one batched combine, so both backward
recursions and the forward propagation run in logarithmic span.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .exceptions import ConditioningError, DefinitenessError
from .problem import (
    AugmentedCost,
    CostModel,
    DynamicsModel,
    StageDerivatives,
    Trajectory,
)
from .scan import ScanDirection, scan


# Element fields carry optional leading batch axes ("..."): one element, or a
# stack of them with the stage as the leading axis.

class ValueElement(NamedTuple):
    """Dual parameterization (A, Y, C, eta, b) of a conditional value function."""

    A: np.ndarray    # (..., d_x, d_x)
    Y: np.ndarray    # (..., d_x, d_x), symmetric
    C: np.ndarray    # (..., d_x, d_x), symmetric
    eta: np.ndarray  # (..., d_x)
    b: np.ndarray    # (..., d_x)


class RolloutElement(NamedTuple):
    """Affine map ``dx -> F dx + e``: a closed-loop state step, or an adjoint
    step ``lambda -> fx^T lambda + (l + c)_x`` taken backward in time."""

    F: np.ndarray  # (..., d_x, d_x)
    e: np.ndarray  # (..., d_x)


class FeedbackLaw(NamedTuple):
    """Affine control law ``du_t = Gamma_t dx_t + gamma_t``."""

    Gamma: np.ndarray  # (N, d_u, d_x)
    gamma: np.ndarray  # (N, d_u)


@dataclass(frozen=True)
class StageExpansion:
    """Second-order expansion of the augmented Lagrangian along a nominal.

    Per-stage arrays are stacked along axis 0.  ``R_reg`` stores
    ``R + alpha*I``; use :meth:`with_alpha` to retune the regularization
    without re-evaluating any model derivative.
    """

    P: np.ndarray           # (N, d_x, d_x) Hessian in x
    R: np.ndarray           # (N, d_u, d_u) Hessian in u, unregularized
    M: np.ndarray           # (N, d_x, d_u) cross Hessian
    d: np.ndarray           # (N, d_u) gradient in u
    Fx: np.ndarray          # (N, d_x, d_x) dynamics Jacobian in x
    Fu: np.ndarray          # (N, d_x, d_u) dynamics Jacobian in u
    P_terminal: np.ndarray  # (d_x, d_x)
    alpha: float
    R_reg: np.ndarray       # (N, d_u, d_u) R + alpha*I

    @property
    def horizon(self) -> int:
        return self.P.shape[0]

    @property
    def d_x(self) -> int:
        return self.P.shape[1]

    @property
    def d_u(self) -> int:
        return self.R.shape[1]

    def with_alpha(self, alpha: float) -> "StageExpansion":
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        eye = np.eye(self.d_u)
        return replace(self, alpha=alpha, R_reg=self.R + alpha * eye)


def _T(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + _T(a))


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product over any leading batch axes."""
    return (a @ x[..., None])[..., 0]


# ---------------------------------------------------------------------------
# affine maps: the element of the co-state and propagation passes
# ---------------------------------------------------------------------------

def rollout_combine(first: RolloutElement, second: RolloutElement) -> RolloutElement:
    """Compose affine maps, applying ``first`` then ``second``."""
    return RolloutElement(
        F=second.F @ first.F,
        e=_mv(second.F, first.e) + second.e,
    )


# ---------------------------------------------------------------------------
# co-state pass
# ---------------------------------------------------------------------------

def costate_pass(traj: Trajectory, cost: CostModel, aug: AugmentedCost,
                 dyn: DynamicsModel
                 ) -> tuple[np.ndarray, StageDerivatives, StageDerivatives]:
    """Adjoint vectors lambda_{1:N+1} of the augmented Lagrangian, with the
    model derivatives at the nominal that they were built from.

    The adjoints satisfy the backward recursion
    ``lambda_t = lx_t + cx_t + fx_t^T lambda_{t+1}`` with the terminal
    gradient as boundary.  Each step is the affine map of the propagation
    pass, ``RolloutElement(fx_t^T, lx_t + cx_t)``, so the recursion is a
    suffix scan of :func:`rollout_combine` with its operands swapped.  The
    dynamics, the stage cost and the augmentation are each differentiated
    (``derivatives``) once, at every stage; the dynamics' record and the
    summed stage-cost record are returned for :func:`hamiltonian_expansion`,
    which needs the rest of them at the same nominal.
    """
    xs, us = traj.states[:-1], traj.controls
    lam_final = np.asarray(cost.terminal_x(traj.states[-1]), dtype=float)
    f = dyn.derivatives(xs, us)
    stage = StageDerivatives(*map(np.add, cost.derivatives(xs, us), aug.derivatives(xs, us)))
    # fold the boundary into the last element; its zero Jacobian absorbs
    # everything to its right during the scan
    elements = RolloutElement(
        F=np.concatenate([_T(f.x[:-1]), np.zeros((1, dyn.d_x, dyn.d_x))]),
        e=np.vstack([stage.x[:-1], stage.x[-1] + f.x[-1].T @ lam_final]),
    )
    suffix = scan(elements, lambda a, b: rollout_combine(b, a), ScanDirection.REVERSE)
    return np.vstack([suffix.e, lam_final]), f, stage


# ---------------------------------------------------------------------------
# quadratic expansion
# ---------------------------------------------------------------------------

def hamiltonian_expansion(traj: Trajectory, costates: np.ndarray, f: StageDerivatives,
                          stage: StageDerivatives, cost: CostModel,
                          alpha: float = 0.0) -> StageExpansion:
    """Second-order stage data (P, R, M, d) of the augmented Lagrangian.

    ``costates``, the dynamics' derivatives ``f`` and the stage-cost
    derivatives ``stage`` (cost plus augmentation) are those returned by
    :func:`costate_pass` at the same nominal, so the expansion reads the
    cost model only for its terminal Hessian.  Each field of the stage
    Hamiltonian ``l + c + lambda_{t+1}^T f`` is the stage field plus the
    dynamics field contracted with the next adjoint vector over its output
    component; through the second derivatives this contraction is what
    distinguishes the Newton expansion from a Gauss-Newton (iLQR) one.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    n, d_u = traj.horizon, traj.d_u
    lam = np.asarray(costates[1:], dtype=float)  # (N, d_x)
    P, R, M, d = (getattr(stage, k) + np.einsum("tk,tk...->t...", lam, getattr(f, k))
                  for k in ("xx", "uu", "xu", "u"))
    P = _sym(P)
    R = _sym(R)
    return StageExpansion(
        P=P, R=R, M=M, d=d, Fx=f.x, Fu=f.u,
        P_terminal=_sym(np.asarray(cost.terminal_xx(traj.states[n]), dtype=float)),
        alpha=float(alpha),
        R_reg=R + alpha * np.eye(d_u),
    )


# ---------------------------------------------------------------------------
# value pass
# ---------------------------------------------------------------------------

def _assert_spd_batch(mats: np.ndarray, what: str) -> None:
    """Batched positive-definiteness gate; names the failing stage."""
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        for t in range(len(mats)):
            try:
                np.linalg.cholesky(mats[t])
            except np.linalg.LinAlgError as err:
                raise DefinitenessError(t, what) from err
        raise


def value_elements(exp: StageExpansion) -> ValueElement:
    """Dual-form value elements of all stages, stacked; row ``N`` is the boundary.

    The single-stage dual parameters reduce to

        A = Fx - Fu Rr^-1 M^T,   Y = P - M Rr^-1 M^T,
        C = Fu Rr^-1 Fu^T,       eta = M Rr^-1 d,     b = -Fu Rr^-1 d,

    with ``Rr = R + alpha*I``.  This is the feedforward form written without
    any inverse of P, which need not exist at a poor nominal.  The boundary
    row carries the terminal Hessian in ``Y`` and zeros elsewhere.

    Raises:
        DefinitenessError: naming the first stage whose ``Rr`` fails its
            Cholesky factorization, which signals that the regularization is
            too small.
    """
    _assert_spd_batch(exp.R_reg, "R + alpha*I")
    Ri_Mt = np.linalg.solve(exp.R_reg, _T(exp.M))
    Ri_Fut = np.linalg.solve(exp.R_reg, _T(exp.Fu))
    Ri_d = np.linalg.solve(exp.R_reg, exp.d[..., None])[..., 0]
    zero_m, zero_v = np.zeros((1, exp.d_x, exp.d_x)), np.zeros((1, exp.d_x))
    return ValueElement(
        A=np.concatenate([exp.Fx - exp.Fu @ Ri_Mt, zero_m]),
        Y=np.concatenate([_sym(exp.P - exp.M @ Ri_Mt), exp.P_terminal[None]]),
        C=np.concatenate([_sym(exp.Fu @ Ri_Fut), zero_m]),
        eta=np.concatenate([_mv(exp.M, Ri_d), zero_v]),
        b=np.concatenate([-_mv(exp.Fu, Ri_d), zero_v]),
    )


def value_combine(left: ValueElement, right: ValueElement) -> ValueElement:
    """Merge adjacent conditional value functions, ``left`` covering the
    earlier stages.

    Raises:
        ConditioningError: if ``I + C_left Y_right`` is singular.
    """
    d_x = left.A.shape[-1]
    gram = np.eye(d_x) + left.C @ right.Y
    # since C and Y are symmetric, (I + Y_right C_left) is gram transposed,
    # and push-through, (I + Y C)^-1 = I - Y (I + C Y)^-1 C, lets the solve
    # with gram serve that orientation too: one more right-hand side, C_left v
    v = right.eta - _mv(right.Y, left.b)
    rhs = np.concatenate([left.A, left.C, (left.b + _mv(left.C, right.eta))[..., None],
                          _mv(left.C, v)[..., None]], axis=-1)
    try:
        sol = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as err:
        raise ConditioningError("singular I + C*Y while combining value elements") from err
    left_AT = _T(left.A)
    return ValueElement(
        A=right.A @ sol[..., :d_x],
        Y=_sym(left_AT @ (right.Y @ sol[..., :d_x]) + left.Y),
        C=_sym(right.A @ sol[..., d_x:2 * d_x] @ _T(right.A) + right.C),
        eta=_mv(left_AT, v - _mv(right.Y, sol[..., 2 * d_x + 1])) + left.eta,
        b=_mv(right.A, sol[..., 2 * d_x]) + right.b,
    )


def value_pass(exp: StageExpansion) -> tuple[np.ndarray, np.ndarray, FeedbackLaw]:
    """Cost-to-go parameters (S, s) and the affine control law.

    A suffix scan over the dual elements yields the value function at every
    stage: ``S_t = Y``, ``s_t = -eta`` of the combined suffix element.  Gains
    follow from the one-step minimization against ``S_{t+1}, s_{t+1}``:

        Q_t = Rr_t + Fu^T S_{t+1} Fu,
        gamma_t = -Q_t^-1 (d_t + Fu^T s_{t+1}),
        Gamma_t = -Q_t^-1 (M_t^T + Fu^T S_{t+1} Fx).

    Raises:
        DefinitenessError: if some ``Q_t`` is not positive definite.
    """
    suffix = scan(value_elements(exp), value_combine, ScanDirection.REVERSE)
    S, s = suffix.Y, -suffix.eta
    FuT = _T(exp.Fu)
    FuT_S = FuT @ S[1:]
    Q = _sym(exp.R_reg + FuT_S @ exp.Fu)
    _assert_spd_batch(Q, "Q")
    Gamma = -np.linalg.solve(Q, _T(exp.M) + FuT_S @ exp.Fx)
    gamma = -np.linalg.solve(Q, (exp.d + _mv(FuT, s[1:]))[..., None])[..., 0]
    return S, s, FeedbackLaw(Gamma, gamma)


# ---------------------------------------------------------------------------
# propagation pass
# ---------------------------------------------------------------------------

def propagation_pass(law: FeedbackLaw, exp: StageExpansion
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-loop deviations (dx, du) under the feedback law, from dx_1 = 0.

    The closed-loop maps ``F_t = Fx + Fu Gamma_t``, ``e_t = Fu gamma_t`` are
    chained by a prefix scan; deviation states are the offsets of the
    combined maps and controls follow from the law.
    """
    F = exp.Fx + exp.Fu @ law.Gamma
    F[0] = 0.0  # dx_1 = 0, so the head element is a pure offset
    prefix = scan(RolloutElement(F, _mv(exp.Fu, law.gamma)), rollout_combine)
    dxs = np.vstack([np.zeros(exp.d_x), prefix.e])
    dus = _mv(law.Gamma, dxs[:-1]) + law.gamma
    return dxs, dus
