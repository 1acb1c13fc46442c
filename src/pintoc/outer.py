"""Constrained outer loops: primal log-barrier and ADMM.

Both methods repeatedly hand an augmented unconstrained-in-controls
subproblem to :func:`pintoc.newton.newton_solve` and recycle its solution as
the next warm start.  The barrier loop shrinks the barrier weight towards
zero; ADMM alternates the trajectory update with a clamp of the consensus
variable and a dual ascent step, tracking primal and dual residuals.

Both loops return one :class:`OuterReport`: an :class:`OuterRound` per
subproblem solve, and the augmentation the returned trajectory answers to.

Under the log-barrier, :meth:`BarrierAugmentation.step_scale` shortens a
Newton control step that would come near the boundary of the control
constraints ``h(u) < 0``.  For the control box this keeps every iterate
strictly feasible, so box crossings cost no rejected iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InfeasibleError
from .newton import NewtonOptions, NewtonReport, newton_solve
from .problem import (
    AugmentedCost,
    BoxConstraint,
    ControlProblem,
    Trajectory,
)


@dataclass(frozen=True)
class OuterRound:
    """One subproblem solve of an outer loop."""

    weight: float             # the round's barrier mu or ADMM rho
    controls: np.ndarray      # solution controls of this round
    newton: NewtonReport
    residuals: tuple[float, float] | None = None  # ADMM (primal, dual) after the update


@dataclass(frozen=True)
class OuterReport:
    """What :func:`barrier_solve` and :func:`admm_solve` return."""

    rounds: tuple[OuterRound, ...]
    converged: bool
    final: AugmentedCost | None  # the penalty the returned trajectory answers to

    @property
    def outer_iterations(self) -> int:
        return len(self.rounds)

    @property
    def inner_iterations(self) -> int:
        return sum(r.newton.iterations for r in self.rounds)


# ---------------------------------------------------------------------------
# log-barrier interior point
# ---------------------------------------------------------------------------

TAU_BOUNDARY = 0.995  # fraction of the distance to the control boundary a step may cover


class BarrierAugmentation(AugmentedCost):
    """Log-barrier penalty ``-mu * sum(log(-w))``.

    Defined only on the strict interior; evaluation at a point with any
    constraint component >= 0 raises :class:`InfeasibleError` carrying the
    stage and the offending component index within the stacked constraint
    vector.
    """

    def __init__(self, constraints: BoxConstraint, mu: float):
        if not mu > 0:
            raise ValueError("barrier parameter mu must be > 0")
        self.constraints = constraints
        self.mu = float(mu)

    def penalty(self, w, cols):
        if w.max() >= 0:
            stages, comps = np.nonzero(w >= 0)
            t, comp = int(stages[0]), int(comps[0])
            raise InfeasibleError(t, cols.start + comp, float(w[t, comp]))
        inv = 1.0 / w
        return -self.mu * np.log(-w), -self.mu * inv, self.mu * inv * inv

    def step_scale(self, controls, dus, d, alpha):
        """Fraction in (0, 1] of the control step to take under the barrier.

        With ``dh = hu du`` the change of the control box constraints, which
        are affine, a full step that goes at most ``TAU_BOUNDARY`` of the
        way to the boundary of ``h + s*dh < 0`` is taken as is.  Otherwise
        the scale ``s`` is capped at the fraction-to-boundary
        ``TAU_BOUNDARY * min(-h / dh)`` and, below that cap, set to a
        minimizer along the step of the quadratic model with its
        control-barrier part replaced by the exact barrier
        ``-mu * sum(log(-h - s*dh))``: near the boundary the quadratic model
        reaches far past the barrier's minimum.  State constraints are not
        capped here.
        """
        con = self.constraints
        h = con.h_batch(controls)
        dh = dus @ con.hu.T
        rising = dh > 0
        if not np.any(rising):
            return 1.0
        cap = TAU_BOUNDARY * float(np.min(-h[rising] / dh[rising]))
        if cap >= 1.0:
            return 1.0
        q = dh / h
        dd = float(np.sum(dus * d))
        reg = alpha * float(np.sum(dus * dus))

        def slope(s: float) -> float:
            # derivative of the quadratic model along the step, plus the exact
            # barrier's departure from its own second-order expansion
            remainder = self.mu * s * s * float(np.sum(q ** 3 / (1.0 + s * q)))
            return (1.0 - s) * dd - s * reg - remainder

        if slope(cap) <= 0:
            return cap
        # the slope is negative at 0 and positive at the cap: bisect the
        # bracket down to 2**-50 of its width (importing scipy.optimize for a
        # root finder would add ~20 MB and ~0.2 s to ``import pintoc``)
        lo, hi = 0.0, cap
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0:
                hi = mid
            else:
                lo = mid
        return lo


def assert_strictly_feasible(constraints: BoxConstraint, traj: Trajectory) -> None:
    """Raise with a list of violated components unless all w(x, u) < 0."""
    w = constraints.w_batch(traj.states, traj.controls)
    violations = [(int(t), int(c), float(w[t, c])) for t, c in zip(*np.nonzero(w >= 0))]
    if violations:
        listing = "; ".join(
            f"stage {t} component {c}: {v:.6g}" for t, c, v in violations[:10]
        )
        if len(violations) > 10:
            listing += f"; ... ({len(violations)} total)"
        t0, c0, v0 = violations[0]
        raise InfeasibleError(t0, c0, v0, f"trajectory is not strictly feasible: {listing}")


@dataclass(frozen=True)
class BarrierOptions:
    mu0: float = 0.1
    zeta: float = 0.2
    mu_tol: float = 1e-4
    newton: NewtonOptions = field(default_factory=NewtonOptions)

    def __post_init__(self):
        if not 0 < self.mu0 < np.inf:
            raise ValueError("mu0 must be > 0 and finite")
        if not 0 < self.zeta < 1:
            raise ValueError("zeta must lie in (0, 1)")
        if not 0 < self.mu_tol < np.inf:
            raise ValueError("mu_tol must be > 0 and finite")


def barrier_solve(problem: ControlProblem, initial: Trajectory,
                  opts: BarrierOptions | None = None
                  ) -> tuple[Trajectory, OuterReport]:
    """Primal log-barrier method: solve, shrink mu, repeat until mu <= tol.

    Every subproblem is warm-started from the previous solution, so all
    iterates remain strictly feasible.

    Raises:
        InfeasibleError: if ``initial`` is not strictly feasible.
    """
    opts = opts if opts is not None else BarrierOptions()
    assert_strictly_feasible(problem.constraints, initial)

    traj = initial
    mu = opts.mu0
    aug = None
    rounds: list[OuterRound] = []
    while mu > opts.mu_tol:
        aug = BarrierAugmentation(problem.constraints, mu)
        traj, report = newton_solve(problem.dynamics, problem.cost, aug, traj, opts.newton)
        rounds.append(OuterRound(mu, traj.controls, report))
        mu *= opts.zeta
    return traj, OuterReport(tuple(rounds), all(r.newton.converged for r in rounds), aug)


# ---------------------------------------------------------------------------
# ADMM
# ---------------------------------------------------------------------------

class AdmmAugmentation(AugmentedCost):
    """Consensus penalty ``(rho/2) * ||w(x,u) - z_t + v_t/rho||^2``."""

    def __init__(self, constraints: BoxConstraint, rho: float,
                 z: np.ndarray, v: np.ndarray):
        if not rho > 0:
            raise ValueError("penalty parameter rho must be > 0")
        self.constraints = constraints
        self.rho = float(rho)
        self.z = np.asarray(z, dtype=float)
        self.v = np.asarray(v, dtype=float)
        if self.z.shape != self.v.shape:
            raise ValueError("z and v must have matching shapes")

    def penalty(self, w, cols):
        res = w - self.z[:, cols] + self.v[:, cols] / self.rho
        return 0.5 * self.rho * res * res, self.rho * res, np.full_like(res, self.rho)


def project_box(point: np.ndarray) -> np.ndarray:
    """Euclidean projection onto ``{y <= 0}``: a componentwise clamp.

    The one-sided stacking of box constraints makes the consensus set the
    nonpositive orthant, so the projection is closed-form.
    """
    return np.minimum(np.asarray(point, dtype=float), 0.0)


@dataclass(frozen=True)
class AdmmOptions:
    rho: float = 1.0
    residual_tol: float = 1e-2
    max_outer: int = 200
    newton: NewtonOptions = field(default_factory=NewtonOptions)

    def __post_init__(self):
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be > 0 and finite")
        if not 0 < self.residual_tol < np.inf:
            raise ValueError("residual_tol must be > 0 and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


def admm_solve(problem: ControlProblem, initial: Trajectory,
               opts: AdmmOptions | None = None) -> tuple[Trajectory, OuterReport]:
    """Operator splitting between the trajectory and a clamped consensus.

    Each outer step minimizes the penalty-augmented objective over controls
    (states re-rolled inside the Newton solver), projects the shifted
    constraint values onto the feasible orthant, and updates the
    multipliers.  Terminates when both the primal residual ``w - z`` and the
    dual residual ``z - z_prev`` are within tolerance in infinity norm;
    exceeding the outer budget is reported, not raised.
    """
    opts = opts if opts is not None else AdmmOptions()
    con = problem.constraints

    traj = initial
    z = project_box(con.w_batch(traj.states, traj.controls))
    v = np.zeros_like(z)
    rounds: list[OuterRound] = []
    converged = False
    for _ in range(opts.max_outer):
        aug = AdmmAugmentation(con, opts.rho, z, v)
        traj, nrep = newton_solve(problem.dynamics, problem.cost, aug, traj, opts.newton)
        w_val = con.w_batch(traj.states, traj.controls)
        z_prev = z
        z = project_box(w_val + v / opts.rho)
        v = v + opts.rho * (w_val - z)
        r_p = float(np.max(np.abs(w_val - z))) if z.size else 0.0
        r_d = float(np.max(np.abs(z - z_prev))) if z.size else 0.0
        rounds.append(OuterRound(opts.rho, traj.controls, nrep, (r_p, r_d)))
        if r_p <= opts.residual_tol and r_d <= opts.residual_tol:
            converged = True
            break
    return traj, OuterReport(tuple(rounds), converged, AdmmAugmentation(con, opts.rho, z, v))
