"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here and matches the library's contract.  The
heavier closed-loop criteria are at the bottom; the full module is expected
to run in well under ten minutes on a desktop CPU.
"""

import math

import numpy as np
import pytest
from conftest import (
    forward_closed_loop,
    kkt_subproblem,
    lq_bundle,
    lq_optimum,
    random_expansion,
    rand_spd,
    riccati_backward,
    sequential_costates,
)

from pintoc import (
    AdmmOptions,
    BarrierAugmentation,
    BarrierOptions,
    BoxConstraint,
    ControlProblem,
    LinearDynamics,
    NewtonOptions,
    QuadraticCost,
    RolloutElement,
    ValueElement,
    ZeroAugmentation,
    admm_solve,
    barrier_solve,
    check_derivatives,
    costate_pass,
    hamiltonian_expansion,
    make_swingup_problem,
    newton_solve,
    propagation_pass,
    rollout,
    rollout_combine,
    scan_depth_probe,
    swingup_start,
    total_cost,
    value_combine,
    value_pass,
)
from pintoc.bench import RunConfig, draw_initial_controls, run_mpc
from pintoc.outer import AdmmAugmentation

HORIZON_SET = (2, 3, 7, 16, 33, 64, 100)


def _passed(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def _rel_gap(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max() / max(
        1.0, float(np.abs(np.asarray(a)).max()))


def test_criterion_1_executor_equivalence():
    rng = np.random.default_rng(42)
    worst_pass, worst_solve = 0.0, 0.0
    for i in range(50):
        n = HORIZON_SET[i % len(HORIZON_SET)]
        d_x = int(rng.integers(1, 4))
        d_u = int(rng.integers(1, 4))
        # the three passes on a random subproblem expansion, against the
        # sequential Riccati recursion and closed-loop rollout
        exp = random_expansion(rng, n, d_x, d_u, alpha=0.1)
        S, s, law = value_pass(exp)
        S_o, s_o, Gam_o, gam_o = riccati_backward(exp)
        worst_pass = max(worst_pass, _rel_gap(S_o, S), _rel_gap(s_o, s),
                         _rel_gap(Gam_o, law.Gamma), _rel_gap(gam_o, law.gamma))
        dx, du = propagation_pass(law, exp)
        dx_o, du_o = forward_closed_loop(exp, law.Gamma, law.gamma)
        worst_pass = max(worst_pass, _rel_gap(dx_o, dx), _rel_gap(du_o, du))
        # co-state pass plus full solves on a random LQ problem
        dyn, cost, x1, init = lq_bundle(rng, n, d_x, d_u)
        traj = rollout(dyn, x1, rng.normal(size=(n, d_u)))
        lam, _, _ = costate_pass(traj, cost, ZeroAugmentation(), dyn)
        lam_o = sequential_costates(traj, cost, ZeroAugmentation(), dyn)
        worst_pass = max(worst_pass, _rel_gap(lam_o, lam))
        _, rep = newton_solve(dyn, cost, None, init, NewtonOptions())
        best = total_cost(cost, ZeroAugmentation(), lq_optimum(dyn, cost, x1, n))
        gap = abs(rep.final_cost - best) / max(1.0, abs(best))
        worst_solve = max(worst_solve, gap)
    assert worst_pass < 1e-8
    assert worst_solve < 1e-6
    _passed(1, f"50 problems, pass gap {worst_pass:.2e}, solve gap {worst_solve:.2e}")


def test_criterion_2_span_bound():
    for n in range(1, 1025):
        bound = 2 * math.ceil(math.log2(n)) if n > 1 else 0
        assert scan_depth_probe(n) <= bound, f"depth bound violated at n={n}"
    _passed(2, "scan depth <= 2*ceil(log2 N) for N in 1..1024")


def test_criterion_3_subproblem_matches_kkt():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 6))
        d_x = int(rng.integers(1, 4))
        d_u = int(rng.integers(1, 4))
        exp = random_expansion(rng, n, d_x, d_u, alpha=float(rng.uniform(0, 1)))
        _, _, law = value_pass(exp)
        dxs, dus = propagation_pass(law, exp)
        kx, ku = kkt_subproblem(exp)
        scale = max(1.0, np.abs(ku).max(), np.abs(kx).max())
        worst = max(worst, np.abs(dus - ku).max() / scale,
                    np.abs(dxs - kx).max() / scale)
    assert worst < 1e-7
    _passed(3, f"40 dense KKT solves, worst gap {worst:.2e}")


def test_criterion_4_lq_exactness():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        d_x = int(rng.integers(1, 4))
        d_u = int(rng.integers(1, 4))
        dyn, cost, x1, init = lq_bundle(rng, n, d_x, d_u)
        traj, report = newton_solve(dyn, cost, None, init, NewtonOptions(alpha0=0.0))
        assert report.converged
        assert report.accepted_steps <= 2
        oracle = lq_optimum(dyn, cost, x1, n)
        assert _rel_gap(oracle.controls, traj.controls) < 1e-6
        assert _rel_gap(oracle.states, traj.states) < 1e-6
    _passed(4, "10 LQ instances solved exactly in <= 2 accepted steps")


@pytest.mark.parametrize("horizon", [20, 100, 500])
def test_criterion_5_pendulum_barrier_swingup(horizon):
    cfg = RunConfig(system="pendulum", solver="barrier", seed=0,
                    horizons=(horizon,), total_time=2.0)
    problem = cfg.build_problem(horizon, cfg.step_size(horizon))
    controls = draw_initial_controls(problem, cfg, horizon, 0)
    init = rollout(problem.dynamics, swingup_start("pendulum"), controls)
    traj, report = barrier_solve(problem, init, cfg.barrier_options())
    assert report.converged, [r.newton.termination for r in report.rounds]
    assert np.abs(traj.controls).max() <= 5.0
    _passed(5, f"N={horizon}: converged, max|tau| = {np.abs(traj.controls).max():.6f}")


@pytest.mark.parametrize("system,rho", [("pendulum", 1.0), ("cartpole", 0.5)])
def test_criterion_6_admm_termination(system, rho):
    n = 40
    cfg = RunConfig(system=system, solver="admm", seed=0, horizons=(n,),
                    total_time=2.0, rho=rho)
    problem = cfg.build_problem(n, cfg.step_size(n))
    controls = draw_initial_controls(problem, cfg, n, 0)
    init = rollout(problem.dynamics, swingup_start(system), controls)
    traj, report = admm_solve(problem, init, cfg.admm_options())
    assert report.converged, f"budget exhausted at {report.outer_iterations}"
    primal, dual = report.rounds[-1].residuals
    assert primal <= 1e-2
    assert dual <= 1e-2
    violation = problem.constraints.max_violation(traj)
    assert violation <= 1e-2
    _passed(6, f"{system} rho={rho}: residuals ({primal:.2e}, "
               f"{dual:.2e}), violation {violation:.2e}")


@pytest.mark.parametrize("system", ["pendulum", "cartpole"])
def test_criterion_7_mpc_closed_loop(system):
    if system == "pendulum":
        cfg = RunConfig(system="pendulum", solver="barrier", seed=0,
                        sim_time=4.0, frequency=100.0, mpc_horizon=60)
        bound, goal = 5.0, np.zeros(2)
    else:
        cfg = RunConfig(system="cartpole", solver="barrier", seed=0,
                        sim_time=4.0, frequency=100.0, mpc_horizon=60)
        bound, goal = 60.0, np.array([0.0, np.pi, 0.0, 0.0])
    log = run_mpc(cfg)
    assert log.steps == 400
    assert np.abs(log.controls).max() <= bound + 1e-9
    final = log.states[-1]
    if system == "pendulum":
        assert abs(final[0] - goal[0]) <= 0.05   # angle
        assert abs(final[1] - goal[1]) <= 0.05   # rate
    else:
        assert abs(final[0] - goal[0]) <= 0.1    # cart position
        assert abs(final[1] - goal[1]) <= 0.05   # pole angle
        assert abs(final[3] - goal[3]) <= 0.05   # pole rate
    _passed(7, f"{system}: final state {np.round(final, 4)}, "
               f"max|u| = {np.abs(log.controls).max():.4f}")


def test_criterion_8_derivative_hygiene():
    rng = np.random.default_rng(20)
    checked = 0
    for system in ("pendulum", "cartpole"):
        prob = make_swingup_problem(system, 4, 0.02)
        d_x, d_u = prob.dynamics.d_x, prob.dynamics.d_u
        bound = prob.constraints.control_upper[0]
        barrier = BarrierAugmentation(prob.constraints, mu=0.1)
        d_w = prob.constraints.n_total
        admm = AdmmAugmentation(prob.constraints, rho=0.7,
                                z=rng.normal(size=(4, d_w)),
                                v=rng.normal(size=(4, d_w)))
        for _ in range(20):
            # every report covers all 4 stages of the horizon
            xs = rng.uniform(-1.5, 1.5, size=(4, d_x))
            us = rng.uniform(-0.9 * bound, 0.9 * bound, size=(4, d_u))
            for target in (prob.dynamics, prob.cost, barrier, admm,
                           prob.constraints):
                assert check_derivatives(target, (xs, us), tolerance=1e-5).ok
                checked += 1
    _passed(8, f"{checked} derivative reports clean at 1e-5")


def test_criterion_9_one_dim_barrier_analytic():
    dyn = LinearDynamics(np.eye(1), np.zeros((1, 1)), horizon=1)
    cost = QuadraticCost(np.zeros((1, 1)), 2.0 * np.eye(1), np.zeros((1, 1)))
    box = BoxConstraint(1, 1, control_lower=1.0)
    problem = ControlProblem(dyn, cost, box)
    init = rollout(dyn, np.zeros(1), np.array([[2.0]]))
    traj, report = barrier_solve(problem, init, BarrierOptions())
    worst = 0.0
    for rnd in report.rounds:
        u_star = 0.5 * (1.0 + math.sqrt(1.0 + 2.0 * rnd.weight))
        worst = max(worst, abs(rnd.controls[0, 0] - u_star))
    assert worst < 1e-6
    assert abs(traj.controls[0, 0] - 1.0) < 1e-3
    _passed(9, f"per-round gap {worst:.2e}, final u = {traj.controls[0, 0]:.6f}")


def test_criterion_10_associativity_suite():
    rng = np.random.default_rng(33)

    def check(make, combine, tol, trials=100):
        worst = 0.0
        for _ in range(trials):
            a, b, c = make(), make(), make()
            left = combine(combine(a, b), c)
            right = combine(a, combine(b, c))
            for x, y in zip(left, right):
                scale = max(1.0, float(np.abs(np.asarray(x)).max()))
                worst = max(worst, float(np.abs(np.asarray(x) - np.asarray(y)).max()) / scale)
        assert worst < 1e-9, worst
        return worst

    d_x, d_u = 2, 2
    w2 = check(lambda: ValueElement(rng.normal(size=(d_x, d_x)), rand_spd(rng, d_x),
                                    rand_spd(rng, d_x), rng.normal(size=d_x),
                                    rng.normal(size=d_x)), value_combine, 1e-9)
    w3 = check(lambda: RolloutElement(rng.normal(size=(d_x, d_x)),
                                      rng.normal(size=d_x)), rollout_combine, 1e-9)
    _passed(10, f"100 trials each; worst deviations {w2:.1e}, {w3:.1e}")
