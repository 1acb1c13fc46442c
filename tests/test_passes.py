"""The three scan passes against independent sequential oracles."""

import numpy as np
import pytest
from conftest import (
    forward_closed_loop,
    kkt_subproblem,
    random_expansion,
    random_lq_problem,
    riccati_backward,
    sequential_costates,
)

from pintoc import (
    BarrierAugmentation,
    ConditioningError,
    DefinitenessError,
    FeedbackLaw,
    PendulumDynamics,
    QuadraticCost,
    RolloutElement,
    StageExpansion,
    Trajectory,
    ValueElement,
    ZeroAugmentation,
    costate_pass,
    hamiltonian_expansion,
    make_swingup_problem,
    propagation_pass,
    rollout,
    rollout_combine,
    value_combine,
    value_elements,
    value_pass,
)
from pintoc.derivcheck import fd_jacobian


def element_close(a, b, tol=1e-12):
    return all(np.allclose(x, y, atol=tol) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# co-state pass
# ---------------------------------------------------------------------------

def test_costate_boundary_zero_and_quadratic():
    # the last co-state is the terminal gradient
    dyn = PendulumDynamics(horizon=3)
    traj = rollout(dyn, np.array([1.0, 2.0]), np.zeros((3, 1)))
    for Qf in (np.zeros((2, 2)), np.eye(2)):
        cost = QuadraticCost(np.eye(2), np.eye(1), Qf)
        lam, _, _ = costate_pass(traj, cost, ZeroAugmentation(), dyn)
        assert np.allclose(lam[-1], cost.terminal_x(traj.states[-1]))
    assert np.allclose(lam[-1], traj.states[-1])


def test_costate_boundary_matches_fd():
    prob = make_swingup_problem("pendulum", 4, 0.05)
    traj = rollout(prob.dynamics, np.array([0.3, -0.1]), np.full((4, 1), 0.2))
    lam, _, _ = costate_pass(traj, prob.cost, ZeroAugmentation(), prob.dynamics)
    fd = fd_jacobian(prob.cost.terminal, traj.states[-1])
    assert np.allclose(lam[-1], fd, atol=1e-6)


def test_costate_combine_neutral_right():
    # the co-state pass scans rollout_combine with its operands swapped, so
    # the identity on the later segment is applied first
    rng = np.random.default_rng(0)
    left = RolloutElement(rng.normal(size=(2, 2)), rng.normal(size=2))
    right = RolloutElement(np.eye(2), np.zeros(2))
    out = rollout_combine(right, left)
    assert np.allclose(out.F, left.F)  # df . I composition
    assert np.allclose(out.e, left.e)


def test_costate_pass_zero_problem():
    dyn = PendulumDynamics(horizon=6)
    cost = QuadraticCost(np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((2, 2)))
    traj = rollout(dyn, np.array([1.0, 0.0]), np.zeros((6, 1)))
    lam, _, _ = costate_pass(traj, cost, ZeroAugmentation(), dyn)
    assert np.allclose(lam, 0.0)


def test_costate_pass_matches_sequential_recursion(rng):
    dyn, cost, x1 = random_lq_problem(rng, 16, 2, 1)
    traj = rollout(dyn, x1, rng.normal(size=(16, 1)))
    aug = ZeroAugmentation()
    lam, _, _ = costate_pass(traj, cost, aug, dyn)
    oracle = sequential_costates(traj, cost, aug, dyn)
    scale = max(1.0, np.abs(oracle).max())
    assert np.abs(lam - oracle).max() / scale < 1e-10


def test_costate_pass_single_stage():
    rng = np.random.default_rng(5)
    dyn, cost, x1 = random_lq_problem(rng, 1, 2, 2)
    traj = rollout(dyn, x1, rng.normal(size=(1, 2)))
    aug = ZeroAugmentation()
    lam, lin, stage = costate_pass(traj, cost, aug, dyn)
    xs, us = traj.states[:-1], traj.controls
    # the pass hands on the model derivatives it used, for the expansion:
    # the stage cost's and the augmentation's summed field by field
    assert all(np.array_equal(a, b) for a, b in zip(lin, dyn.derivatives(xs, us)))
    assert all(np.array_equal(a, b + c) for a, b, c in
               zip(stage, cost.derivatives(xs, us), aug.derivatives(xs, us)))
    expected = stage.x[0] + lin.x[0].T @ lam[1]
    assert np.allclose(lam[0], expected, atol=1e-12)


def test_costate_pass_nonlinear_with_barrier(rng):
    prob = make_swingup_problem("pendulum", 12, 0.05)
    controls = 0.5 * rng.standard_normal((12, 1))
    traj = rollout(prob.dynamics, np.array([np.pi, 0.0]), controls)
    aug = BarrierAugmentation(prob.constraints, 0.1)
    lam, _, _ = costate_pass(traj, prob.cost, aug, prob.dynamics)
    oracle = sequential_costates(traj, prob.cost, aug, prob.dynamics)
    assert np.abs(lam - oracle).max() / max(1.0, np.abs(oracle).max()) < 1e-10


# ---------------------------------------------------------------------------
# Hamiltonian expansion
# ---------------------------------------------------------------------------

def test_expansion_linear_quadratic_has_exact_blocks(rng):
    dyn, cost, x1 = random_lq_problem(rng, 5, 2, 2)
    traj = rollout(dyn, x1, rng.normal(size=(5, 2)))
    aug = ZeroAugmentation()
    lam, lin, stage = costate_pass(traj, cost, aug, dyn)
    exp = hamiltonian_expansion(traj, lam, lin, stage, cost, alpha=0.0)
    for t in range(5):
        assert np.allclose(exp.P[t], cost.Q)
        assert np.allclose(exp.R[t], cost.R)
        assert np.allclose(exp.M[t], 0.0)
    assert np.allclose(exp.P_terminal, cost.Qf)


def test_expansion_gradient_matches_fd_hamiltonian(rng):
    prob = make_swingup_problem("pendulum", 8, 0.05)
    controls = 0.4 * rng.standard_normal((8, 1))
    traj = rollout(prob.dynamics, np.array([np.pi, 0.0]), controls)
    aug = BarrierAugmentation(prob.constraints, 0.1)
    lam, lin, stage = costate_pass(traj, prob.cost, aug, prob.dynamics)
    exp = hamiltonian_expansion(traj, lam, lin, stage, prob.cost)
    for t in (0, 3, 7):
        x = traj.states[t]

        def hamiltonian_u(u):
            return (prob.cost.l_batch(x[None], u[None])[0] + aug.c_batch(x[None], u[None])[0]
                    + lam[t + 1] @ prob.dynamics.f(t, x, u))

        fd = fd_jacobian(hamiltonian_u, traj.controls[t])
        assert np.abs(exp.d[t] - fd).max() < 1e-5


def test_expansion_alpha_shifts_r():
    rng = np.random.default_rng(3)
    dyn, cost, x1 = random_lq_problem(rng, 3, 1, 1)
    cost.R[0, 0] = 1.0
    traj = rollout(dyn, x1, np.zeros((3, 1)))
    lam, lin, stage = costate_pass(traj, cost, ZeroAugmentation(), dyn)
    exp = hamiltonian_expansion(traj, lam, lin, stage, cost, alpha=10.0)
    assert np.allclose(exp.R_reg[0], 11.0)
    assert np.allclose(exp.with_alpha(0.0).R_reg[0], 1.0)


# ---------------------------------------------------------------------------
# value elements
# ---------------------------------------------------------------------------

def _expansion_from_arrays(P, R, M, d, Fx, Fu, PT, alpha=0.0):
    return StageExpansion(P=P, R=R, M=M, d=d, Fx=Fx, Fu=Fu, P_terminal=PT,
                          alpha=alpha, R_reg=R + alpha * np.eye(R.shape[1]))


def test_value_element_decoupled_case(rng):
    from conftest import rand_spd
    P = rand_spd(rng, 2)[None]
    R = rand_spd(rng, 2)[None]
    Fx = rng.normal(size=(1, 2, 2))
    Fu = rng.normal(size=(1, 2, 2))
    exp = _expansion_from_arrays(P, R, np.zeros((1, 2, 2)), np.zeros((1, 2)),
                                 Fx, Fu, np.eye(2))
    els = value_elements(exp)
    assert np.allclose(els.A[0], Fx[0])
    assert np.allclose(els.Y[0], P[0])
    assert np.allclose(els.C[0], Fu[0] @ np.linalg.solve(R[0], Fu[0].T))
    assert np.allclose(els.eta[0], 0.0)
    assert np.allclose(els.b[0], 0.0)


def test_value_element_scalar_example():
    # P=2, R~=1, M=0, d=1, Fx=1, Fu=1: the feedforward pair is q=-1, r=0,
    # giving A=1, Y=2, C=1, eta=0, b=-1
    exp = _expansion_from_arrays(
        P=np.array([[[2.0]]]), R=np.array([[[1.0]]]), M=np.zeros((1, 1, 1)),
        d=np.array([[1.0]]), Fx=np.array([[[1.0]]]), Fu=np.array([[[1.0]]]),
        PT=np.zeros((1, 1)))
    # feedforward pair from the stage subproblem
    q = -np.linalg.solve(exp.R_reg[0] - exp.M[0].T @ np.linalg.solve(exp.P[0], exp.M[0]),
                         exp.d[0])
    r = -np.linalg.solve(exp.P[0], exp.M[0] @ q)
    assert np.allclose(q, -1.0) and np.allclose(r, 0.0)
    els = value_elements(exp)
    assert np.allclose(els.A[0], 1.0)
    assert np.allclose(els.Y[0], 2.0)
    assert np.allclose(els.C[0], 1.0)
    assert np.allclose(els.eta[0], 0.0)
    assert np.allclose(els.b[0], -1.0)


def test_value_element_terminal():
    exp = _expansion_from_arrays(
        P=np.zeros((1, 2, 2)), R=np.eye(2)[None], M=np.zeros((1, 2, 2)),
        d=np.zeros((1, 2)), Fx=np.eye(2)[None], Fu=np.eye(2)[None],
        PT=np.diag([3.0, 4.0]))
    els = value_elements(exp)
    assert all(len(field) == 2 for field in els)
    assert np.allclose(els.Y[1], np.diag([3.0, 4.0]))
    for part in (els.A[1], els.C[1], els.eta[1], els.b[1]):
        assert np.allclose(part, 0.0)


def test_value_element_feedforward_route_equivalent(rng):
    # the eta/b expressions used by value_elements are the feedforward
    # pair (q, r) route written without P^{-1}; on invertible P the two
    # must coincide
    from conftest import rand_spd
    for _ in range(20):
        d_x, d_u = 3, 2
        P = rand_spd(rng, d_x)
        R = rand_spd(rng, d_u)
        M = 0.4 * rng.normal(size=(d_x, d_u))
        d = rng.normal(size=d_u)
        Fx = rng.normal(size=(d_x, d_x))
        Fu = rng.normal(size=(d_x, d_u))
        exp = _expansion_from_arrays(P[None], R[None], M[None], d[None],
                                     Fx[None], Fu[None], np.eye(d_x))
        els = value_elements(exp)
        q = -np.linalg.solve(R - M.T @ np.linalg.solve(P, M), d)
        r = -np.linalg.solve(P, M @ q)
        eta_printed = (P - M @ np.linalg.solve(R, M.T)) @ r
        b_printed = Fu @ np.linalg.solve(R, M.T @ r) + Fu @ q
        assert np.allclose(els.eta[0], eta_printed, atol=1e-9)
        assert np.allclose(els.b[0], b_printed, atol=1e-9)


def test_value_element_indefinite_r_raises():
    exp = _expansion_from_arrays(
        P=np.eye(1)[None], R=np.array([[[-1.0]]]), M=np.zeros((1, 1, 1)),
        d=np.zeros((1, 1)), Fx=np.eye(1)[None], Fu=np.eye(1)[None],
        PT=np.zeros((1, 1)))
    with pytest.raises(DefinitenessError) as exc:
        value_elements(exp)
    assert exc.value.stage == 0


def test_value_combine_neutral_right(rng):
    from conftest import rand_spd
    left = ValueElement(rng.normal(size=(2, 2)), rand_spd(rng, 2), rand_spd(rng, 2),
                        rng.normal(size=2), rng.normal(size=2))
    zero = ValueElement(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                        np.zeros(2), np.zeros(2))
    out = value_combine(left, zero)
    assert element_close(out, left, tol=1e-12)


def test_value_combine_scalar_example():
    one = ValueElement(np.eye(1), np.eye(1), np.eye(1), np.zeros(1), np.zeros(1))
    out = value_combine(one, one)
    assert np.allclose(out.A, 0.5)
    assert np.allclose(out.Y, 1.5)
    assert np.allclose(out.C, 1.5)
    assert np.allclose(out.eta, 0.0)
    assert np.allclose(out.b, 0.0)


def test_value_combine_singular_pair_in_batch_raises(rng):
    # five pairs combined in one call; only pair 3 has I + C_left Y_right = 0
    from conftest import rand_spd
    k, d_x = 5, 2
    left = ValueElement(rng.normal(size=(k, d_x, d_x)),
                        np.stack([rand_spd(rng, d_x) for _ in range(k)]),
                        np.stack([rand_spd(rng, d_x) for _ in range(k)]),
                        rng.normal(size=(k, d_x)), rng.normal(size=(k, d_x)))
    right = ValueElement(rng.normal(size=(k, d_x, d_x)),
                         np.stack([rand_spd(rng, d_x) for _ in range(k)]),
                         np.stack([rand_spd(rng, d_x) for _ in range(k)]),
                         rng.normal(size=(k, d_x)), rng.normal(size=(k, d_x)))
    value_combine(left, right)  # every pair regular
    left.C[3], right.Y[3] = -np.eye(d_x), np.eye(d_x)
    with pytest.raises(ConditioningError):
        value_combine(left, right)


def test_value_combine_associative(rng):
    from conftest import rand_spd
    for _ in range(25):
        els = [ValueElement(rng.normal(size=(2, 2)), rand_spd(rng, 2),
                            rand_spd(rng, 2), rng.normal(size=2), rng.normal(size=2))
               for _ in range(3)]
        left = value_combine(value_combine(els[0], els[1]), els[2])
        right = value_combine(els[0], value_combine(els[1], els[2]))
        assert element_close(left, right, tol=1e-9)


# ---------------------------------------------------------------------------
# value pass
# ---------------------------------------------------------------------------

def test_value_pass_single_stage_bellman(rng):
    exp = random_expansion(rng, 1, 2, 1)
    S, s, law = value_pass(exp)
    So, so, Gam, gam = riccati_backward(exp)
    assert np.allclose(S[0], So[0], atol=1e-10)
    assert np.allclose(s[0], so[0], atol=1e-10)
    assert np.allclose(law.Gamma, Gam, atol=1e-10)
    assert np.allclose(law.gamma, gam, atol=1e-10)


def test_value_pass_matches_riccati(rng):
    for _ in range(10):
        n = int(rng.integers(2, 20))
        d_x = int(rng.integers(1, 4))
        d_u = int(rng.integers(1, 4))
        exp = random_expansion(rng, n, d_x, d_u)
        S, s, law = value_pass(exp)
        So, so, Gam, gam = riccati_backward(exp)
        scale = max(1.0, np.abs(So).max())
        assert np.abs(S - So).max() / scale < 1e-8
        assert np.abs(s - so).max() / max(1.0, np.abs(so).max()) < 1e-8
        assert np.allclose(law.Gamma, Gam, atol=1e-8)
        assert np.allclose(law.gamma, gam, atol=1e-8)


def test_value_pass_bellman_consistency(rng):
    # (S_t, s_t) must satisfy the one-step backup from (S_{t+1}, s_{t+1})
    exp = random_expansion(rng, 12, 2, 2)
    S, s, law = value_pass(exp)
    for t in range(12):
        Fx, Fu, M, d = exp.Fx[t], exp.Fu[t], exp.M[t], exp.d[t]
        Q = exp.R_reg[t] + Fu.T @ S[t + 1] @ Fu
        G = -np.linalg.solve(Q, M.T + Fu.T @ S[t + 1] @ Fx)
        g = -np.linalg.solve(Q, d + Fu.T @ s[t + 1])
        Fcl, ecl = Fx + Fu @ G, Fu @ g
        S_t = exp.P[t] + M @ G + G.T @ M.T + G.T @ exp.R_reg[t] @ G + Fcl.T @ S[t + 1] @ Fcl
        s_t = M @ g + G.T @ (exp.R_reg[t] @ g + d) + Fcl.T @ (S[t + 1] @ ecl + s[t + 1])
        assert np.abs(S[t] - S_t).max() / max(1.0, np.abs(S_t).max()) < 1e-8
        assert np.abs(s[t] - s_t).max() / max(1.0, np.abs(s_t).max()) < 1e-8


def test_value_pass_lq_no_gradient_means_no_feedforward(rng):
    exp = random_expansion(rng, 8, 2, 1)
    exp = _expansion_from_arrays(exp.P, exp.R, np.zeros_like(exp.M),
                                 np.zeros_like(exp.d), exp.Fx, exp.Fu,
                                 exp.P_terminal)
    S, s, law = value_pass(exp)
    assert np.allclose(s, 0.0, atol=1e-12)
    assert np.allclose(law.gamma, 0.0, atol=1e-12)
    _, _, Gam, _ = riccati_backward(exp)
    assert np.allclose(law.Gamma, Gam, atol=1e-9)


def test_value_pass_pure_regularization():
    n, d_x, d_u, alpha = 5, 2, 1, 4.0
    exp = _expansion_from_arrays(
        P=np.zeros((n, d_x, d_x)), R=np.zeros((n, d_u, d_u)),
        M=np.zeros((n, d_x, d_u)), d=np.zeros((n, d_u)),
        Fx=np.tile(np.eye(d_x), (n, 1, 1)), Fu=np.ones((n, d_x, d_u)),
        PT=np.zeros((d_x, d_x)), alpha=alpha)
    S, s, law = value_pass(exp)
    assert np.allclose(S, 0.0)
    assert np.allclose(law.Gamma, 0.0)
    assert np.allclose(law.gamma, 0.0)


# ---------------------------------------------------------------------------
# propagation pass
# ---------------------------------------------------------------------------

def test_rollout_combine_identity():
    rng = np.random.default_rng(0)
    first = RolloutElement(rng.normal(size=(2, 2)), rng.normal(size=2))
    ident = RolloutElement(np.eye(2), np.zeros(2))
    assert element_close(rollout_combine(first, ident), first)


def test_rollout_combine_zero_jacobian_absorbs():
    # a map with zero Jacobian forgets its input.  Applied second it absorbs
    # the map before it; applied first it makes the composite a constant,
    # which is how both passes fold in their boundary (the first stage of
    # the propagation pass, the last stage of the co-state pass)
    rng = np.random.default_rng(1)
    const = RolloutElement(np.zeros((2, 2)), rng.normal(size=2))
    other = RolloutElement(rng.normal(size=(2, 2)), rng.normal(size=2))
    assert element_close(rollout_combine(other, const), const)
    out = rollout_combine(const, other)
    assert np.allclose(out.F, 0.0)
    assert np.allclose(out.e, other.F @ const.e + other.e)


def test_rollout_combine_scalar_chain():
    out = rollout_combine(RolloutElement(np.array([[2.0]]), np.array([1.0])),
                          RolloutElement(np.array([[3.0]]), np.array([1.0])))
    assert np.allclose(out.F, 6.0)
    assert np.allclose(out.e, 4.0)


def test_rollout_combine_associative(rng):
    for _ in range(25):
        els = [RolloutElement(rng.normal(size=(3, 3)), rng.normal(size=3))
               for _ in range(3)]
        a = rollout_combine(rollout_combine(els[0], els[1]), els[2])
        b = rollout_combine(els[0], rollout_combine(els[1], els[2]))
        assert element_close(a, b, tol=1e-12)


def test_propagation_zero_feedforward_is_fixed_point(rng):
    exp = random_expansion(rng, 6, 2, 1)
    law = FeedbackLaw(rng.normal(size=(6, 1, 2)), np.zeros((6, 1)))
    dxs, dus = propagation_pass(law, exp)
    assert np.allclose(dxs, 0.0)
    assert np.allclose(dus, 0.0)


def test_propagation_matches_sequential(rng):
    exp = random_expansion(rng, 32, 3, 2)
    _, _, law = value_pass(exp)
    dxs, dus = propagation_pass(law, exp)
    oxs, ous = forward_closed_loop(exp, law.Gamma, law.gamma)
    assert np.abs(dxs - oxs).max() / max(1.0, np.abs(oxs).max()) < 1e-10
    assert np.abs(dus - ous).max() / max(1.0, np.abs(ous).max()) < 1e-10


def test_propagation_single_stage(rng):
    exp = random_expansion(rng, 1, 2, 1)
    _, _, law = value_pass(exp)
    dxs, dus = propagation_pass(law, exp)
    e1 = exp.Fu[0] @ law.gamma[0]
    assert np.allclose(dxs[0], 0.0)
    assert np.allclose(dxs[1], e1, atol=1e-12)


# ---------------------------------------------------------------------------
# subproblem optimality and agreement with the sequential oracles
# ---------------------------------------------------------------------------

def test_scan_solution_matches_kkt(rng):
    for _ in range(12):
        n = int(rng.integers(1, 6))
        d_x = int(rng.integers(1, 4))
        d_u = int(rng.integers(1, 4))
        exp = random_expansion(rng, n, d_x, d_u, alpha=float(rng.uniform(0, 2)))
        _, _, law = value_pass(exp)
        dxs, dus = propagation_pass(law, exp)
        kx, ku = kkt_subproblem(exp)
        scale = max(1.0, np.abs(ku).max())
        assert np.abs(dus - ku).max() / scale < 1e-7
        assert np.abs(dxs - kx).max() / scale < 1e-7


@pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64, 100])
def test_pass_executor_equivalence(n, rng):
    # the scan passes against the sequential Riccati and closed-loop oracles
    exp = random_expansion(rng, n, 2, 1)
    def rel_gap(got, oracle):
        return np.abs(got - oracle).max() / max(1.0, np.abs(oracle).max())

    S, s, law = value_pass(exp)
    S_o, s_o, Gam_o, gam_o = riccati_backward(exp)
    assert rel_gap(S, S_o) < 1e-8 and rel_gap(s, s_o) < 1e-8
    assert rel_gap(law.Gamma, Gam_o) < 1e-8 and rel_gap(law.gamma, gam_o) < 1e-8
    dxs, dus = propagation_pass(law, exp)
    dxs_o, dus_o = forward_closed_loop(exp, law.Gamma, law.gamma)
    assert rel_gap(dxs, dxs_o) < 1e-8 and rel_gap(dus, dus_o) < 1e-8
