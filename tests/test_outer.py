"""Barrier and ADMM outer loops with their augmentations."""

import numpy as np
import pytest

from pintoc import (
    AdmmAugmentation,
    AdmmOptions,
    BarrierAugmentation,
    BarrierOptions,
    BoxConstraint,
    ControlProblem,
    InfeasibleError,
    LinearDynamics,
    NewtonOptions,
    QuadraticCost,
    admm_solve,
    barrier_solve,
    check_derivatives,
    make_swingup_problem,
    newton_solve,
    project_box,
    rollout,
)
from pintoc.bench import RunConfig, draw_initial_controls


def one_dim_problem():
    """min u^2 s.t. u >= 1, embedded as a single-stage control problem."""
    dyn = LinearDynamics(np.eye(1), np.zeros((1, 1)), horizon=1)
    cost = QuadraticCost(np.zeros((1, 1)), 2.0 * np.eye(1), np.zeros((1, 1)))
    box = BoxConstraint(1, 1, control_lower=1.0)
    return ControlProblem(dyn, cost, box)


# ---------------------------------------------------------------------------
# barrier augmentation
# ---------------------------------------------------------------------------

def test_barrier_box_value_and_symmetry():
    box = BoxConstraint(1, 1, control_lower=-5.0, control_upper=5.0)
    aug = BarrierAugmentation(box, mu=0.1)
    val = aug.c_batch(np.zeros((1, 1)), np.zeros((1, 1)))[0]
    assert np.isclose(val, -0.2 * np.log(5.0))
    assert np.allclose(aug.derivatives(np.zeros((1, 1)), np.zeros((1, 1))).u, 0.0)


def test_barrier_one_sided_hand_derivative():
    box = BoxConstraint(1, 1, control_upper=1.0)
    aug = BarrierAugmentation(box, mu=1.0)
    xs, us = np.zeros((1, 1)), np.zeros((1, 1))
    assert np.isclose(aug.c_batch(xs, us)[0], 0.0)  # -log(1 - 0) = 0
    assert np.allclose(aug.derivatives(xs, us).u, 1.0)


def test_barrier_derivatives_match_fd(rng):
    box = BoxConstraint(2, 2, control_lower=(-2.0, -3.0), control_upper=(2.0, 3.0),
                        state_upper=(1.5, 1.5), state_lower=(-1.5, -1.5))
    aug = BarrierAugmentation(box, mu=0.3)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=2)
        u = rng.uniform(-1.5, 1.5, size=2)
        assert check_derivatives(aug, (x[None], u[None]), tolerance=1e-5).ok


def test_barrier_infeasible_evaluation_raises():
    box = BoxConstraint(1, 1, control_lower=-1.0, control_upper=1.0)
    aug = BarrierAugmentation(box, mu=0.1)
    with pytest.raises(InfeasibleError):
        aug.c_batch(np.zeros((1, 1)), np.array([[2.0]]))


def test_barrier_reports_stacked_component_index(rng):
    box = BoxConstraint(2, 2, state_upper=(1.5, 1.5), control_upper=(2.0, 3.0))
    aug = BarrierAugmentation(box, mu=0.3)
    n_state = box.n_state
    assert (n_state, box.n_control) == (2, 2)
    xs = rng.uniform(-1.0, 1.0, size=(10, 2))
    us = rng.uniform(-1.5, 1.5, size=(10, 2))

    def reported(evaluator, xs, us):
        with pytest.raises(InfeasibleError) as info:
            evaluator(xs, us)
        return info.value.stage, info.value.component

    for j, bound in enumerate((2.0, 3.0)):
        bad_u = us.copy()
        bad_u[7, j] = bound + 0.5
        for evaluator in (aug.c_batch, aug.derivatives):
            assert reported(evaluator, xs, bad_u) == (7, n_state + j)
    for i in range(2):
        bad_x = xs.copy()
        bad_x[4, i] = 2.0
        for evaluator in (aug.c_batch, aug.derivatives):
            assert reported(evaluator, bad_x, us) == (4, i)
    # both violated, the control one at an earlier stage: g is checked first
    bad_x, bad_u = xs.copy(), us.copy()
    bad_x[5, 1] = 2.0
    bad_u[2, 0] = 2.5
    assert reported(aug.c_batch, bad_x, bad_u) == (5, 1)


# ---------------------------------------------------------------------------
# barrier solve
# ---------------------------------------------------------------------------

def test_barrier_tracks_closed_form_per_round():
    prob = one_dim_problem()
    init = rollout(prob.dynamics, np.zeros(1), np.array([[2.0]]))
    traj, report = barrier_solve(prob, init, BarrierOptions())
    assert report.outer_iterations == 5  # mu: .1, .02, .004, 8e-4, 1.6e-4
    for rnd in report.rounds:
        u_star = 0.5 * (1.0 + np.sqrt(1.0 + 2.0 * rnd.weight))
        assert abs(rnd.controls[0, 0] - u_star) < 1e-6
        assert rnd.residuals is None
    assert abs(traj.controls[0, 0] - 1.0) < 1e-3


def test_barrier_far_bounds_match_unconstrained(rng):
    n = 12
    prob = make_swingup_problem("pendulum", n, 0.05)
    wide = BoxConstraint(2, 1, control_lower=-1e6, control_upper=1e6)
    relaxed = ControlProblem(prob.dynamics, prob.cost, wide)
    controls = 0.3 * rng.standard_normal((n, 1))
    init = rollout(prob.dynamics, np.array([np.pi, 0.0]), controls)
    free_traj, _ = newton_solve(prob.dynamics, prob.cost, None, init,
                                NewtonOptions(max_iters=100))
    con_traj, report = barrier_solve(relaxed, init, BarrierOptions())
    assert report.converged
    assert np.abs(con_traj.controls - free_traj.controls).max() < 1e-3


def test_unbounded_box_is_the_unconstrained_problem(rng):
    """A box without finite bounds is the one form of "no constraints":
    both outer loops return the plain Newton solution bit for bit."""
    n = 40
    prob = make_swingup_problem("pendulum", n, 0.05)
    free = ControlProblem(prob.dynamics, prob.cost, BoxConstraint(2, 1))
    assert free.constraints.n_total == 0
    init = rollout(prob.dynamics, np.array([np.pi, 0.0]), 0.3 * rng.standard_normal((n, 1)))
    plain, newton = newton_solve(prob.dynamics, prob.cost, None, init)
    barrier, b_report = barrier_solve(free, init)
    admm, a_report = admm_solve(free, init)
    assert newton.converged and b_report.converged and a_report.converged
    # the first barrier round is the plain solve; later ones stop at once
    iterations = [r.newton.iterations for r in b_report.rounds]
    assert iterations == [newton.iterations] + [1] * (len(iterations) - 1)
    assert a_report.outer_iterations == 1
    assert np.array_equal(barrier.controls, plain.controls)
    assert np.array_equal(admm.controls, plain.controls)


def test_barrier_vacuous_loop_returns_initial():
    prob = one_dim_problem()
    init = rollout(prob.dynamics, np.zeros(1), np.array([[2.0]]))
    traj, report = barrier_solve(prob, init, BarrierOptions(mu0=1e-5, mu_tol=1e-4))
    assert report.outer_iterations == 0
    assert report.final is None
    assert np.array_equal(traj.controls, init.controls)


def test_barrier_rejects_infeasible_start():
    prob = one_dim_problem()
    init = rollout(prob.dynamics, np.zeros(1), np.array([[0.5]]))  # u < 1 violates
    with pytest.raises(InfeasibleError, match="not strictly feasible"):
        barrier_solve(prob, init, BarrierOptions())


def test_barrier_all_rounds_strictly_feasible(rng):
    prob = make_swingup_problem("pendulum", 20, 0.05)
    cfg = RunConfig(system="pendulum", solver="barrier", horizons=(20,))
    controls = draw_initial_controls(prob, cfg, 20, 0)
    init = rollout(prob.dynamics, np.array([np.pi, 0.0]), controls)
    traj, report = barrier_solve(prob, init, BarrierOptions())
    bound = 5.0
    for rnd in report.rounds:
        assert np.abs(rnd.controls).max() < bound


# ---------------------------------------------------------------------------
# ADMM augmentation and projection
# ---------------------------------------------------------------------------

def test_admm_penalty_zero_residual():
    box = BoxConstraint(1, 1, control_lower=-1.0, control_upper=1.0)
    xs, us = np.zeros((1, 1)), np.array([[0.3]])
    w = box.w_batch(xs, us)
    aug = AdmmAugmentation(box, rho=2.0, z=w, v=np.zeros_like(w))
    assert np.isclose(aug.c_batch(xs, us)[0], 0.0)


def test_admm_penalty_hand_derivative():
    # scalar constraint w(u) = u - 1 with z = 0, v = 0, rho = 2 at u = 0
    box = BoxConstraint(1, 1, control_upper=1.0)
    aug = AdmmAugmentation(box, rho=2.0, z=np.zeros((1, 1)), v=np.zeros((1, 1)))
    xs, us = np.zeros((1, 1)), np.zeros((1, 1))
    assert np.isclose(aug.c_batch(xs, us)[0], 1.0)
    assert np.allclose(aug.derivatives(xs, us).u, -2.0)


def test_admm_penalty_derivatives_match_fd(rng):
    box = BoxConstraint(2, 2, control_lower=(-2.0, -1.0), control_upper=(2.0, 1.0),
                        state_upper=(3.0, 3.0))
    n = 4
    d_w = box.n_total
    aug = AdmmAugmentation(box, rho=0.7, z=rng.normal(size=(n, d_w)),
                           v=rng.normal(size=(n, d_w)))
    # all n stages at once: row t meets the stage-t consensus data
    xs, us = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    assert check_derivatives(aug, (xs, us), tolerance=1e-5).ok


def test_project_box_componentwise():
    assert np.allclose(project_box(np.array([-1.0, 2.0, 0.0])), [-1.0, 0.0, 0.0])
    interior = np.array([-0.5, -2.0])
    assert np.allclose(project_box(interior), interior)


def test_project_box_idempotent(rng):
    p = rng.normal(size=8)
    once = project_box(p)
    assert np.array_equal(project_box(once), once)


def test_project_box_matches_grid_search(rng):
    # one-dimensional argmin_{y <= 0} |y - p| by dense grid
    for p in rng.normal(size=6):
        grid = np.linspace(-6.0, 0.0, 240001)
        best = grid[np.argmin((grid - p) ** 2)]
        assert abs(project_box(np.array([p]))[0] - best) < 1e-4


# ---------------------------------------------------------------------------
# ADMM solve
# ---------------------------------------------------------------------------

def test_admm_fixed_point_single_outer_iteration(rng):
    # start at the unconstrained optimum of a problem whose optimum already
    # satisfies the constraints: one outer iteration suffices
    n = 8
    dyn = LinearDynamics(np.eye(2) * 0.9, np.array([[0.0], [1.0]]), horizon=n)
    cost = QuadraticCost(np.eye(2), np.eye(1), np.eye(2))
    box = BoxConstraint(2, 1, control_lower=-50.0, control_upper=50.0)
    prob = ControlProblem(dyn, cost, box)
    init = rollout(dyn, np.array([0.5, -0.5]), np.zeros((n, 1)))
    free, _ = newton_solve(dyn, cost, None, init, NewtonOptions())
    traj, report = admm_solve(prob, free, AdmmOptions(rho=1.0))
    assert report.converged
    assert report.outer_iterations == 1


def test_admm_pendulum_respects_tolerance(rng):
    prob = make_swingup_problem("pendulum", 30, 0.05)
    cfg = RunConfig(system="pendulum", solver="admm", horizons=(30,))
    controls = draw_initial_controls(prob, cfg, 30, 0)
    init = rollout(prob.dynamics, np.array([np.pi, 0.0]), controls)
    opts = AdmmOptions(rho=1.0, max_outer=150)
    traj, report = admm_solve(prob, init, opts)
    assert report.converged
    assert all(rnd.weight == opts.rho and rnd.residuals is not None
               for rnd in report.rounds)
    primal, dual = report.rounds[-1].residuals
    assert primal <= 1e-2
    assert dual <= 1e-2
    assert prob.constraints.max_violation(traj) <= 1e-2
    assert np.all(report.final.z <= 0.0)


def test_admm_budget_exhaustion_is_reported_not_raised(rng):
    prob = make_swingup_problem("pendulum", 20, 0.05)
    controls = 0.5 * rng.standard_normal((20, 1))
    init = rollout(prob.dynamics, np.array([np.pi, 0.0]), controls)
    traj, report = admm_solve(prob, init, AdmmOptions(rho=1.0, max_outer=2))
    assert not report.converged
    assert report.outer_iterations == 2


def test_options_validation():
    with pytest.raises(ValueError):
        BarrierOptions(zeta=1.5)
    with pytest.raises(ValueError):
        BarrierOptions(mu0=-0.1)
    with pytest.raises(ValueError):
        AdmmOptions(rho=0.0)
    with pytest.raises(ValueError):
        AdmmOptions(residual_tol=-1.0)
    for value in (np.nan, np.inf):
        for options in (dict(mu0=value), dict(mu_tol=value)):
            with pytest.raises(ValueError):
                BarrierOptions(**options)
        for options in (dict(rho=value), dict(residual_tol=value)):
            with pytest.raises(ValueError):
                AdmmOptions(**options)
