"""Newton solver: trust-region mechanics, LQ exactness, feasibility."""

import math

import numpy as np
import pytest
from conftest import lq_bundle, lq_optimum, random_lq_problem

import pintoc.newton
from pintoc import (
    AdmmAugmentation,
    BarrierAugmentation,
    BoxConstraint,
    DivergenceError,
    LinearDynamics,
    NewtonOptions,
    PintocError,
    QuadraticCost,
    SolverStalledError,
    ZeroAugmentation,
    barrier_solve,
    gain_ratio,
    make_swingup_problem,
    newton_solve,
    predicted_reduction,
    regularization_update,
    rollout,
    swingup_start,
    total_cost,
)
from pintoc.bench import RunConfig, draw_initial_controls
from pintoc.passes import costate_pass, hamiltonian_expansion


def test_regularization_update_formula():
    alpha, nu, accepted = regularization_update(3.0, 2.0, 1.0)
    assert accepted and np.isclose(alpha, 1.0) and nu == 2.0  # factor 1/3
    alpha, nu, accepted = regularization_update(3.0, 2.0, 0.5)
    assert accepted and np.isclose(alpha, 3.0)  # (2*0.5-1)^3 = 0 -> factor 1
    alpha, nu, accepted = regularization_update(3.0, 2.0, -0.2)
    assert not accepted and np.isclose(alpha, 6.0) and nu == 4.0


def test_rejected_steps_at_zero_alpha_raise_alpha():
    # an unregularized swing-up from random controls has rejected steps; each
    # must be retried with a larger weight, also the first one at alpha = 0
    n = 40
    for seed in (0, 2):
        cfg = RunConfig(system="pendulum", seed=seed, horizons=(n,), dt=0.05)
        prob = cfg.build_problem(n, cfg.step_size(n))
        init = rollout(prob.dynamics, swingup_start("pendulum"),
                       draw_initial_controls(prob, cfg, n, 0))
        traj, report = newton_solve(prob.dynamics, prob.cost, None, init,
                                    NewtonOptions(alpha0=0.0, max_iters=60))
        history = report.history
        assert any(not rec.accepted for rec in history)
        assert all(nxt.alpha > rec.alpha
                   for rec, nxt in zip(history, history[1:]) if not rec.accepted)
        assert report.converged
    assert regularization_update(0.0, 2.0, -math.inf) == (1e-6, 4.0, False)


def test_gain_ratio_basic():
    assert gain_ratio(2.0, 2.0) == 1.0
    assert gain_ratio(-1.0, 2.0) == -0.5
    assert gain_ratio(1.0, 0.0) == -math.inf
    assert gain_ratio(1.0, -1.0) == -math.inf


def test_newton_options_validation():
    for options in (dict(alpha0=-1.0), dict(max_iters=0), dict(alpha0=math.nan),
                    dict(alpha0=math.inf), dict(inner_tol=math.nan), dict(inner_tol=math.inf)):
        with pytest.raises(ValueError):
            NewtonOptions(**options)


def test_lq_converges_in_two_iterations(rng):
    for _ in range(5):
        n = int(rng.integers(4, 20))
        dyn, cost, x1, init = lq_bundle(rng, n, 2, 1)
        traj, report = newton_solve(dyn, cost, None, init,
                                    NewtonOptions(alpha0=0.0))
        assert report.converged
        assert report.accepted_steps <= 2
        oracle = lq_optimum(dyn, cost, x1, n)
        scale = max(1.0, np.abs(oracle.controls).max())
        assert np.abs(traj.controls - oracle.controls).max() / scale < 1e-6


def test_already_optimal_terminates_immediately(rng):
    dyn, cost, x1, init = lq_bundle(rng, 10, 2, 1)
    optimal = lq_optimum(dyn, cost, x1, 10)
    traj, report = newton_solve(dyn, cost, None, optimal,
                                NewtonOptions(alpha0=0.0))
    assert report.iterations == 1
    assert report.history[0].step_norm <= 1e-8
    assert report.termination == "converged_step"


@pytest.mark.parametrize("system, n", [("cartpole", 60), ("pendulum", 40)])
def test_restart_at_converged_barrier_solution_ends_in_one_iteration(system, n):
    # a warm MPC step starts at ALPHA_MIN next to an optimum it already
    # holds: its first step must end the solve as converged, not start a
    # run of rounding-noise rejections
    cfg = RunConfig(system=system, seed=0, horizons=(n,))
    prob = cfg.build_problem(n, cfg.step_size(n))
    init = rollout(prob.dynamics, swingup_start(system),
                   draw_initial_controls(prob, cfg, n, 0))
    traj, outer_report = barrier_solve(prob, init, cfg.barrier_options())
    assert outer_report.converged
    _, report = newton_solve(prob.dynamics, prob.cost, outer_report.final, traj,
                             NewtonOptions(alpha0=pintoc.newton.ALPHA_MIN))
    assert report.iterations == 1 and report.converged


def test_small_steps_after_rejections_are_not_convergence(rng, monkeypatch):
    # every rejection grows alpha and so shrinks the next step; a step that
    # is small only for that reason must not end the solve as converged
    dyn, cost, x1, init = lq_bundle(rng, 3, 2, 1)

    def diverge(model, x, controls):
        raise DivergenceError(1)

    monkeypatch.setattr(pintoc.newton, "rollout", diverge)
    traj, report = newton_solve(dyn, cost, None, init)
    assert report.termination == "stalled"
    assert not report.converged
    assert all(not rec.accepted and rec.gain_ratio == -math.inf for rec in report.history)
    assert traj is init


def test_indefinite_subproblem_past_alpha_ceiling_raises_stalled(rng):
    # a Hessian in u of -1e20 stays indefinite for every alpha up to the
    # ceiling, so the solver must give up with its typed error
    dyn, cost, x1, init = lq_bundle(rng, 3, 2, 1)
    cost = QuadraticCost(cost.Q, np.array([[-1e20]]), cost.Qf, cost.x_goal)
    with pytest.raises(SolverStalledError) as exc:
        newton_solve(dyn, cost, None, init)
    assert isinstance(exc.value, PintocError)


def test_quadratic_gain_ratio_is_one(rng):
    dyn, cost, x1, init = lq_bundle(rng, 8, 2, 2)
    traj, report = newton_solve(dyn, cost, None, init, NewtonOptions(alpha0=0.5))
    first = report.history[0]
    assert first.accepted
    assert abs(first.gain_ratio - 1.0) < 1e-9


def test_accepted_costs_monotone(rng):
    prob = make_swingup_problem("pendulum", 25, 0.05)
    controls = 0.5 * rng.standard_normal((25, 1))
    init = rollout(prob.dynamics, np.array([np.pi, 0.0]), controls)
    aug = BarrierAugmentation(prob.constraints, 0.1)
    traj, report = newton_solve(prob.dynamics, prob.cost, aug, init,
                                NewtonOptions(max_iters=60))
    costs = [rec.cost for rec in report.history if rec.accepted]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert report.final_cost <= total_cost(prob.cost, aug, init)


def test_iterates_stay_dynamically_feasible(rng):
    prob = make_swingup_problem("pendulum", 15, 0.05)
    controls = 0.3 * rng.standard_normal((15, 1))
    init = rollout(prob.dynamics, np.array([np.pi, 0.0]), controls)
    traj, report = newton_solve(prob.dynamics, prob.cost, None, init,
                                NewtonOptions(max_iters=40))
    for t in range(traj.horizon):
        nxt = prob.dynamics.f(t, traj.states[t], traj.controls[t])
        assert np.abs(nxt - traj.states[t + 1]).max() < 1e-10


def test_barrier_steps_stay_feasible(rng):
    prob = make_swingup_problem("pendulum", 20, 0.05)
    controls = 0.5 * rng.standard_normal((20, 1))
    box = prob.constraints
    # swinging up from -pi drives the rate positive; capping it at 3 rad/s
    # makes full steps cross g(x) <= 0, which only the rollout detects
    rate_capped = BoxConstraint(2, 1, control_lower=box.control_lower,
                                control_upper=box.control_upper,
                                state_upper=[np.inf, 3.0])
    for constraints, x1 in ((box, [np.pi, 0.0]), (rate_capped, [-np.pi, 0.0])):
        init = rollout(prob.dynamics, np.array(x1), controls)
        aug = BarrierAugmentation(constraints, 0.05)
        traj, report = newton_solve(prob.dynamics, prob.cost, aug, init,
                                    NewtonOptions(max_iters=80))
        assert constraints.max_violation(traj) < 0.0
    # the state-bound crossings went through the reject-and-regularize path
    assert any(rec.gain_ratio == -math.inf and np.isfinite(rec.step_norm)
               for rec in report.history)


def test_box_crossing_steps_are_shortened_not_rejected(monkeypatch):
    n = 100
    cfg = RunConfig(system="pendulum", solver="barrier", seed=0, horizons=(n,),
                    total_time=2.0)
    prob = cfg.build_problem(n, cfg.step_size(n))
    init = rollout(prob.dynamics, swingup_start("pendulum"),
                   draw_initial_controls(prob, cfg, n, 0))
    tried = []

    def recording_rollout(model, x1, controls):
        tried.append(np.array(controls))
        return rollout(model, x1, controls)

    monkeypatch.setattr(pintoc.newton, "rollout", recording_rollout)
    aug = BarrierAugmentation(prob.constraints, 0.1)
    traj, report = newton_solve(prob.dynamics, prob.cost, aug, init,
                                cfg.newton_options())
    assert report.converged
    assert not any(rec.gain_ratio == -math.inf for rec in report.history)
    assert all(prob.constraints.h_batch(us).max() < 0.0 for us in tried)
    # full steps did cross the torque box: some were shortened
    assert any(rec.step_scale < 1.0 for rec in report.history)


def test_inconsistent_initial_rejected(rng):
    dyn, cost, x1, init = lq_bundle(rng, 6, 2, 1)
    bad = init.states.copy()
    bad[3] += 1.0
    from pintoc import Trajectory
    with pytest.raises(ValueError, match="dynamically consistent at step 2 "):
        newton_solve(dyn, cost, None, Trajectory(bad, init.controls))


def test_one_jet_evaluation_per_expanded_nominal():
    # the dynamics' derivatives evaluate the jets of the step, and the stage
    # cost its derivatives, once per nominal the solver expands; a rejected step
    # keeps the expansion and evaluates none
    class Counting(pintoc.PendulumDynamics):
        jets = 0

        def _jets(self, xs, us):
            self.jets += 1
            return super()._jets(xs, us)

    class CountingCost(pintoc.QuadraticCost):
        calls = 0

        def derivatives(self, xs, us):
            self.calls += 1
            return super().derivatives(xs, us)

    n = 20
    cfg = RunConfig(system="pendulum", solver="barrier", seed=1, horizons=(n,),
                    total_time=2.0)
    prob = cfg.build_problem(n, cfg.step_size(n))
    dyn = Counting(n, prob.dynamics.params)
    cost = CountingCost(prob.cost.Q, prob.cost.R, prob.cost.Qf, prob.cost.x_goal)
    init = rollout(dyn, swingup_start("pendulum"), draw_initial_controls(prob, cfg, n, 0))
    _, report = pintoc.barrier_solve(pintoc.ControlProblem(dyn, cost, prob.constraints),
                                     init, cfg.barrier_options())
    histories = [r.newton.history for r in report.rounds]
    assert any(not rec.accepted and not math.isnan(rec.gain_ratio)
               for history in histories for rec in history)
    # each round expands its start and the nominal of every accepted step
    # but one that ended the round
    expanded = sum(1 + sum(rec.accepted for rec in history[:-1]) for history in histories)
    assert dyn.jets == expanded
    assert cost.calls == expanded


def test_history_matches_iteration_count(rng):
    dyn, cost, x1, init = lq_bundle(rng, 6, 2, 1)
    traj, report = newton_solve(dyn, cost, None, init, NewtonOptions())
    assert len(report.history) == report.iterations


def test_shortened_step_lands_at_barrier_minimum():
    # min u^2 - mu*log(u - 1): the full step from u = 2 crosses u = 1, and
    # the cost is quadratic, so the exact-barrier search along the step
    # reaches the analytic optimum 0.5*(1 + sqrt(1 + 2*mu)) in one iteration
    mu = 0.1
    dyn = LinearDynamics(np.eye(1), np.zeros((1, 1)), horizon=1)
    cost = QuadraticCost(np.zeros((1, 1)), 2.0 * np.eye(1), np.zeros((1, 1)))
    box = BoxConstraint(1, 1, control_lower=1.0)
    init = rollout(dyn, np.zeros(1), np.array([[2.0]]))
    aug = BarrierAugmentation(box, mu)
    traj, report = newton_solve(dyn, cost, aug, init, NewtonOptions(max_iters=1))
    first = report.history[0]
    assert first.accepted and first.step_scale < 1.0
    assert abs(traj.controls[0, 0] - 0.5 * (1.0 + math.sqrt(1.0 + 2.0 * mu))) < 1e-9
    # a step going half way to the boundary is taken in full, and so is any
    # step without a barrier
    d = np.zeros((1, 1))
    assert aug.step_scale(init.controls, np.array([[-0.5]]), d, 1.0) == 1.0
    admm = AdmmAugmentation(box, 1.0, np.zeros((1, 1)), np.zeros((1, 1)))
    for other in (ZeroAugmentation(), admm):
        assert other.step_scale(init.controls, np.array([[-2.0]]), d, 1.0) == 1.0


def test_predicted_reduction_formula(rng):
    dus = np.array([[1.0], [2.0]])
    d = np.array([[0.5], [-1.0]])
    expected = 0.5 * (3.0 * 5.0 - (0.5 - 2.0))
    assert np.isclose(predicted_reduction(dus, d, 3.0), expected)
    # shortened step: decrease of the model d.du + du^T H du / 2 along s*du,
    # where du solves the regularized system (H + alpha I) du = -d
    n, d_u, alpha = 4, 2, 0.7
    root = rng.standard_normal((n * d_u, n * d_u))
    H = root @ root.T + 0.1 * np.eye(n * d_u)
    grad = rng.standard_normal(n * d_u)
    du = np.linalg.solve(H + alpha * np.eye(n * d_u), -grad)
    for s in (1.0, 0.3, 0.01):
        model_decrease = -(grad @ (s * du) + 0.5 * (s * du) @ H @ (s * du))
        got = predicted_reduction(du.reshape(n, d_u), grad.reshape(n, d_u), alpha, s)
        assert np.isclose(got, model_decrease, rtol=1e-12, atol=0.0)


def test_first_order_optimality_on_barrier_subproblem(rng):
    prob = make_swingup_problem("pendulum", 30, 0.05)
    controls = 0.5 * rng.standard_normal((30, 1))
    init = rollout(prob.dynamics, np.array([np.pi, 0.0]), controls)
    aug = BarrierAugmentation(prob.constraints, 0.1)
    traj, report = newton_solve(prob.dynamics, prob.cost, aug, init,
                                NewtonOptions(max_iters=200))
    assert report.converged
    lam, lin, stage = costate_pass(traj, prob.cost, aug, prob.dynamics)
    exp = hamiltonian_expansion(traj, lam, lin, stage, prob.cost)
    assert np.abs(exp.d).max() <= 1e-4
