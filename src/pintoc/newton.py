"""Iterative Newton method built from the three scan passes.

Each iteration computes adjoints, expands the augmented Lagrangian to second
order, solves the regularized quadratic subproblem through the value and
propagation scans, and applies the control step.  States are re-rolled
through the nonlinear dynamics after every accepted step so iterates stay
dynamically feasible; the additive state deviations are used only inside the
quadratic model.  The augmentation may first shorten a control step
(:meth:`~pintoc.problem.AugmentedCost.step_scale`).  Step acceptance and the
regularization weight follow the Levenberg-Marquardt trust-region rule
driven by the gain ratio between the actual and model-predicted cost
reduction of the step actually taken.  State-constraint crossings (which
reach the step only through the nonlinear rollout), divergence, an
indefinite subproblem and a cost increase reject the step and grow the
regularization weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConditioningError,
    DefinitenessError,
    DivergenceError,
    InfeasibleError,
    SolverStalledError,
)
from .passes import costate_pass, hamiltonian_expansion, propagation_pass, value_pass
from .problem import (
    AugmentedCost,
    CostModel,
    DynamicsModel,
    Trajectory,
    ZeroAugmentation,
    first_dynamics_gap,
    rollout,
    total_cost,
)

ALPHA_MAX = 1e12
ALPHA_MIN = 1e-6  # smallest nonzero weight: a rejected step at alpha == 0 is
                  # retried with it, and a warm MPC step (run_mpc) starts at it
NU0 = 2.0         # growth factor of alpha at the first of consecutive rejections

TERM_COST = "converged_cost"
TERM_STEP = "converged_step"
TERM_MAX_ITERS = "max_iters"
TERM_STALLED = "stalled"


@dataclass(frozen=True)
class NewtonOptions:
    alpha0: float = 1.0       # initial regularization weight
    inner_tol: float = 1e-8   # relative cost-change / step-norm tolerance
    max_iters: int = 100

    def __post_init__(self):
        if not 0 <= self.alpha0 < math.inf:
            raise ValueError("alpha0 must be >= 0 and finite")
        if not 0 < self.inner_tol < math.inf:
            raise ValueError("inner_tol must be > 0 and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    cost: float        # augmented cost after the iteration
    alpha: float       # regularization used for this step
    gain_ratio: float  # actual/predicted reduction (-inf marks a hard reject)
    step_norm: float   # max-abs proposed control step, before shortening
    accepted: bool
    step_scale: float = 1.0  # fraction of the proposed step taken


@dataclass(frozen=True)
class NewtonReport:
    iterations: int
    final_cost: float
    history: tuple[IterationRecord, ...]
    termination: str

    @property
    def converged(self) -> bool:
        return self.termination in (TERM_COST, TERM_STEP)

    @property
    def accepted_steps(self) -> int:
        return sum(1 for rec in self.history if rec.accepted)


def gain_ratio(actual_reduction: float, predicted_reduction: float) -> float:
    """Trust-region gain ratio; -inf when the model predicts no decrease."""
    if predicted_reduction <= 0:
        return -math.inf
    return actual_reduction / predicted_reduction


def regularization_update(alpha: float, nu: float, ratio: float
                          ) -> tuple[float, float, bool]:
    """Levenberg-Marquardt weight update from the gain ratio.

    A positive ratio accepts the step, shrinks ``alpha`` by up to a factor
    of three and resets ``nu`` to ``NU0``; otherwise the step is rejected and
    ``alpha`` grows by ``nu`` (from zero to ``ALPHA_MIN``, since zero cannot
    grow multiplicatively), and ``nu`` itself doubles to escape persistent
    rejection.
    """
    if ratio > 0:
        return alpha * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), NU0, True
    return (alpha * nu if alpha > 0 else ALPHA_MIN), 2.0 * nu, False


def predicted_reduction(dus: np.ndarray, d: np.ndarray, alpha: float,
                        scale: float = 1.0) -> float:
    """Model decrease of the step ``scale * dus``, where ``(H + alpha*I) du = -d``.

    Along that ray the quadratic model ``d.du + 0.5 du^T H du`` falls by
    ``0.5 * (scale^2 * alpha*|du|^2 - scale*(2 - scale) * d.du)``, which at
    ``scale=1`` is the full step's ``0.5 * sum du^T (alpha*du - d)``.
    """
    return 0.5 * float(scale * scale * alpha * np.sum(dus * dus)
                       - scale * (2.0 - scale) * np.sum(dus * d))


def _check_consistent(dyn: DynamicsModel, traj: Trajectory) -> None:
    bad = first_dynamics_gap(dyn, traj, 1e-8)
    if bad is not None:
        t, gap = bad
        raise ValueError(
            f"initial trajectory is not dynamically consistent at step {t} "
            f"(gap {gap:.3e}); build it with rollout()"
        )


def newton_solve(dyn: DynamicsModel, cost: CostModel, aug: AugmentedCost | None,
                 initial: Trajectory, opts: NewtonOptions | None = None
                 ) -> tuple[Trajectory, NewtonReport]:
    """Minimize the augmented objective over controls from ``initial``.

    Accepted iterates have non-increasing augmented cost.  Terminates when
    the relative cost change of an accepted full step drops below
    ``opts.inner_tol``; when the proposed step norm does, unless a step was
    rejected since the last accepted one (or the start), since rejections
    shrink the step by growing the regularization; or after
    ``opts.max_iters`` iterations.  The augmentation may shorten the control
    step (``aug.step_scale``) before the rollout, and the gain ratio uses
    the model decrease of the shortened step; a shortened step never counts
    as converged.  A step crossing a state constraint or diverging under the
    dynamics, and an indefinite subproblem, are hard rejects recorded with
    ``gain_ratio == -inf``; a step increasing the cost is rejected with its
    negative gain ratio.  Rejected steps are retried with a larger
    regularization weight.

    Raises:
        SolverStalledError: if the subproblem stays unsolvable (indefinite)
            with the regularization weight already past its ceiling.
        InfeasibleError: if ``initial`` itself violates a barrier domain.
    """
    aug = aug if aug is not None else ZeroAugmentation()
    opts = opts if opts is not None else NewtonOptions()
    _check_consistent(dyn, initial)

    traj = initial
    cur_cost = total_cost(cost, aug, traj)
    alpha, nu = opts.alpha0, NU0
    expansion = None
    history: list[IterationRecord] = []
    termination = TERM_MAX_ITERS
    # a step is small either at a minimum or because rejections grew alpha;
    # only the first is convergence
    rejected = False

    while len(history) < opts.max_iters:
        if expansion is None:
            costates, f, stage = costate_pass(traj, cost, aug, dyn)
            expansion = hamiltonian_expansion(traj, costates, f, stage, cost, alpha)
        elif expansion.alpha != alpha:
            expansion = expansion.with_alpha(alpha)

        try:
            _, _, law = value_pass(expansion)
            _, dus = propagation_pass(law, expansion)
        except (DefinitenessError, ConditioningError) as err:
            if alpha > ALPHA_MAX:
                raise SolverStalledError(
                    f"subproblem unsolvable with alpha={alpha:.3e}: {err}"
                ) from err
            history.append(IterationRecord(cur_cost, alpha, -math.inf, math.nan, False))
            alpha, nu, _ = regularization_update(alpha, nu, -math.inf)
            rejected = True
            continue

        step_norm = float(np.max(np.abs(dus)))
        if step_norm <= opts.inner_tol and not rejected:
            history.append(IterationRecord(cur_cost, alpha, math.nan, step_norm, False))
            termination = TERM_STEP
            break

        scale = aug.step_scale(traj.controls, dus, expansion.d, alpha)
        predicted = predicted_reduction(dus, expansion.d, alpha, scale)
        alpha_used = alpha
        candidate = None
        new_cost = math.inf
        try:
            candidate = rollout(dyn, traj.states[0], traj.controls + scale * dus)
            new_cost = total_cost(cost, aug, candidate)
            ratio = gain_ratio(cur_cost - new_cost, predicted)
        except (InfeasibleError, DivergenceError):
            ratio = -math.inf
        alpha, nu, accepted = regularization_update(alpha, nu, ratio)
        rejected = not accepted

        if accepted:
            rel_change = abs(cur_cost - new_cost) / max(1.0, abs(cur_cost))
            history.append(IterationRecord(new_cost, alpha_used, ratio, step_norm, True,
                                           scale))
            traj, cur_cost = candidate, new_cost
            expansion = None
            if rel_change <= opts.inner_tol and scale == 1.0:
                termination = TERM_COST
                break
        else:
            history.append(IterationRecord(cur_cost, alpha_used, ratio, step_norm, False,
                                           scale))
            if alpha > ALPHA_MAX:
                termination = TERM_STALLED
                break

    return traj, NewtonReport(
        iterations=len(history),
        final_cost=cur_cost,
        history=tuple(history),
        termination=termination,
    )
