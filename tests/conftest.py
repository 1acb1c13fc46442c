"""Shared generators and sequential oracles for the test suite.

The oracles here deliberately avoid the scan machinery: plain backward
recursions, dense KKT solves, and step-by-step rollouts, so they can
adjudicate the scan-based implementations.
"""

import numpy as np
import pytest

from pintoc import (
    ControlProblem,
    LinearDynamics,
    QuadraticCost,
    StageExpansion,
    Trajectory,
    ZeroAugmentation,
    rollout,
)


def rand_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + n * np.eye(n))


def random_expansion(rng, n, d_x, d_u, alpha=0.0, cross_scale=0.3) -> StageExpansion:
    """Random well-conditioned subproblem data (P, R SPD)."""
    P = np.stack([rand_spd(rng, d_x, 0.5) for _ in range(n)])
    R = np.stack([rand_spd(rng, d_u, 0.5) for _ in range(n)])
    M = cross_scale * rng.normal(size=(n, d_x, d_u))
    d = rng.normal(size=(n, d_u))
    Fx = 0.7 * rng.normal(size=(n, d_x, d_x))
    Fu = rng.normal(size=(n, d_x, d_u))
    PT = rand_spd(rng, d_x, 0.5)
    return StageExpansion(P=P, R=R, M=M, d=d, Fx=Fx, Fu=Fu, P_terminal=PT,
                          alpha=alpha, R_reg=R + alpha * np.eye(d_u))


def random_lq_problem(rng, n, d_x, d_u):
    """Random stable-ish linear dynamics with SPD quadratic cost."""
    A = np.eye(d_x) + 0.3 * rng.normal(size=(d_x, d_x)) / np.sqrt(d_x)
    B = rng.normal(size=(d_x, d_u))
    dyn = LinearDynamics(A, B, horizon=n)
    Q = rand_spd(rng, d_x, 0.3)
    R = rand_spd(rng, d_u, 0.3)
    Qf = rand_spd(rng, d_x, 1.0)
    goal = rng.normal(size=d_x)
    cost = QuadraticCost(Q, R, Qf, x_goal=goal)
    x1 = rng.normal(size=d_x)
    return dyn, cost, x1


def sequential_costates(traj, cost, aug, dyn):
    """Direct backward recursion for the adjoint vectors."""
    n = traj.horizon
    xs, us = traj.states[:-1], traj.controls
    lx, cx, fx = cost.derivatives(xs, us).x, aug.derivatives(xs, us).x, dyn.fx_batch(xs, us)
    lam = np.zeros((n + 1, dyn.d_x))
    lam[n] = cost.terminal_x(traj.states[n])
    for t in range(n - 1, -1, -1):
        lam[t] = lx[t] + cx[t] + fx[t].T @ lam[t + 1]
    return lam


def riccati_backward(exp: StageExpansion):
    """Classical sequential Bellman/Riccati recursion on expansion data."""
    n, d_x, d_u = exp.horizon, exp.d_x, exp.d_u
    S = np.zeros((n + 1, d_x, d_x))
    s = np.zeros((n + 1, d_x))
    Gam = np.zeros((n, d_u, d_x))
    gam = np.zeros((n, d_u))
    S[n] = exp.P_terminal
    for t in range(n - 1, -1, -1):
        Fx, Fu, M, d = exp.Fx[t], exp.Fu[t], exp.M[t], exp.d[t]
        Q = exp.R_reg[t] + Fu.T @ S[t + 1] @ Fu
        Gam[t] = -np.linalg.solve(Q, M.T + Fu.T @ S[t + 1] @ Fx)
        gam[t] = -np.linalg.solve(Q, d + Fu.T @ s[t + 1])
        Fcl = Fx + Fu @ Gam[t]
        ecl = Fu @ gam[t]
        St = (exp.P[t] + M @ Gam[t] + Gam[t].T @ M.T
              + Gam[t].T @ exp.R_reg[t] @ Gam[t] + Fcl.T @ S[t + 1] @ Fcl)
        S[t] = 0.5 * (St + St.T)
        s[t] = (M @ gam[t] + Gam[t].T @ (exp.R_reg[t] @ gam[t] + d)
                + Fcl.T @ (S[t + 1] @ ecl + s[t + 1]))
    return S, s, Gam, gam


def forward_closed_loop(exp: StageExpansion, Gam, gam):
    """Sequential forward propagation of the closed loop from dx_1 = 0."""
    n, d_x, d_u = exp.horizon, exp.d_x, exp.d_u
    dxs = np.zeros((n + 1, d_x))
    dus = np.zeros((n, d_u))
    for t in range(n):
        dus[t] = Gam[t] @ dxs[t] + gam[t]
        dxs[t + 1] = exp.Fx[t] @ dxs[t] + exp.Fu[t] @ dus[t]
    return dxs, dus


def kkt_subproblem(exp: StageExpansion):
    """Dense KKT solve of the regularized quadratic subproblem.

    Variables are (dx_2..dx_{N+1}, du_1..du_N) plus one multiplier per
    dynamics row; dx_1 = 0 is substituted out.
    """
    n, d_x, d_u = exp.horizon, exp.d_x, exp.d_u
    nx, nu = n * d_x, n * d_u
    nv = nx + nu
    H = np.zeros((nv, nv))
    c = np.zeros(nv)
    for t in range(n):
        iu = nx + t * d_u
        H[iu:iu + d_u, iu:iu + d_u] += exp.R_reg[t]
        c[iu:iu + d_u] += exp.d[t]
        if t >= 1:
            ix = (t - 1) * d_x  # block holding dx_{t+1} is index t; dx_t is t-1
            H[ix:ix + d_x, ix:ix + d_x] += exp.P[t]
            H[ix:ix + d_x, iu:iu + d_u] += exp.M[t]
            H[iu:iu + d_u, ix:ix + d_x] += exp.M[t].T
    ixT = (n - 1) * d_x
    H[ixT:ixT + d_x, ixT:ixT + d_x] += exp.P_terminal
    Aeq = np.zeros((n * d_x, nv))
    for t in range(n):
        r = t * d_x
        Aeq[r:r + d_x, t * d_x:(t + 1) * d_x] = np.eye(d_x)
        if t >= 1:
            Aeq[r:r + d_x, (t - 1) * d_x:t * d_x] -= exp.Fx[t]
        Aeq[r:r + d_x, nx + t * d_u:nx + (t + 1) * d_u] -= exp.Fu[t]
    kkt = np.block([[H, Aeq.T], [Aeq, np.zeros((n * d_x, n * d_x))]])
    rhs = np.concatenate([-c, np.zeros(n * d_x)])
    sol = np.linalg.solve(kkt, rhs)
    dxs = np.concatenate([np.zeros(d_x), sol[:nx]]).reshape(n + 1, d_x)
    dus = sol[nx:nv].reshape(n, d_u)
    return dxs, dus


def lq_optimum(dyn: LinearDynamics, cost: QuadraticCost, x1, horizon):
    """Closed-form LQR tracking solution via backward Riccati plus rollout."""
    n = horizon
    S = cost.Qf.copy()
    s = cost.Qf @ (-cost.x_goal) + 0.0  # gradient of terminal at x=0 offset form
    # value V_t(x) = 0.5 x^T S x + s^T x + const
    gains = []
    offs = []
    A, B = dyn.A, dyn.B
    for t in range(n - 1, -1, -1):
        Q = cost.R + B.T @ S @ B
        K = -np.linalg.solve(Q, B.T @ S @ A)
        k = -np.linalg.solve(Q, B.T @ (S @ dyn.offset + s))
        gains.append(K)
        offs.append(k)
        Acl = A + B @ K
        ccl = B @ k + dyn.offset
        s_new = (cost.Q @ (-cost.x_goal) + K.T @ cost.R @ k
                 + Acl.T @ (S @ ccl + s))
        S_new = cost.Q + K.T @ cost.R @ K + Acl.T @ S @ Acl
        S, s = 0.5 * (S_new + S_new.T), s_new
    gains.reverse()
    offs.reverse()
    xs = np.zeros((n + 1, dyn.d_x))
    us = np.zeros((n, dyn.d_u))
    xs[0] = x1
    for t in range(n):
        us[t] = gains[t] @ xs[t] + offs[t]
        xs[t + 1] = A @ xs[t] + B @ us[t] + dyn.offset
    return Trajectory(xs, us)


def lq_bundle(rng, n, d_x, d_u):
    dyn, cost, x1 = random_lq_problem(rng, n, d_x, d_u)
    init = rollout(dyn, x1, np.zeros((n, d_u)))
    return dyn, cost, x1, init


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
