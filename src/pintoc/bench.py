"""Experiment harness: horizon-scaling benchmark, MPC simulation, CSV I/O.

The benchmark mirrors the swing-up experiment protocol: for each horizon the
problem is rebuilt at the matching step size, the initial control sequence is
drawn from a seeded zero-mean normal distribution (scaled into the feasible
interior for barrier runs), and the wall time of the solve call alone is
recorded with a monotonic clock.  One warm-up solve per configuration is run
and discarded.  Wall-clock speedups are deliberately not asserted anywhere;
span is covered by the scan depth probe.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .exceptions import PintocError
from .newton import ALPHA_MIN, NewtonOptions, newton_solve
from .outer import (
    AdmmOptions,
    BarrierAugmentation,
    BarrierOptions,
    admm_solve,
    barrier_solve,
)
from .problem import (
    ControlProblem,
    Trajectory,
    first_dynamics_gap,
    rollout,
    total_cost,
)
from .systems import (
    DEFAULT_TERMINAL_SCALE,
    SYSTEMS,
    make_swingup_problem,
    swingup_start,
)

SOLVERS = ("barrier", "admm")

BENCH_HEADER = ("system", "solver", "horizon", "rep",
                "wall_s", "outer_iters", "inner_iters", "converged")

# penalty weights used in the swing-up experiments
DEFAULT_RHO = {"pendulum": 1.0, "cartpole": 0.5}


@dataclass(frozen=True)
class RunConfig:
    system: str = "pendulum"
    solver: str = "barrier"
    horizons: tuple[int, ...] = (20, 40, 80, 100)
    dt: float | None = None        # fixed step size; None derives dt = total_time / N
    total_time: float = 2.0        # plan duration when dt is None
    repetitions: int = 10
    seed: int = 0
    out: str | None = None
    # barrier options
    mu0: float = BarrierOptions.mu0
    zeta: float = BarrierOptions.zeta
    mu_tol: float = BarrierOptions.mu_tol
    # admm options
    rho: float | None = None       # None picks the per-system default
    residual_tol: float = AdmmOptions.residual_tol
    max_outer: int = AdmmOptions.max_outer
    # newton options
    alpha0: float = NewtonOptions.alpha0
    inner_tol: float = NewtonOptions.inner_tol
    max_inner: int = 200           # the harness budget, twice NewtonOptions.max_iters
    # initial control draw
    control_scale: float = 1.0     # std dev of the normal draw
    # cost weights (None keeps the per-system defaults)
    state_weights: tuple[float, ...] | None = None
    control_weight: float | None = None
    terminal_scale: float = DEFAULT_TERMINAL_SCALE
    # mpc
    mpc_horizon: int = 60
    sim_time: float = 4.0
    frequency: float = 100.0
    target_position: float = 0.0
    mpc_start: tuple[float, ...] | None = None  # None uses the per-system default

    def __post_init__(self):
        for name, hint in FIELD_TYPES.items():
            value = getattr(self, name)
            if hint is int and not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if hint == tuple[int, ...] and not all(map(_is_int, value)):
                raise ValueError(f"{name} must be integers, got {value!r}")
            if (hint in (float, float | None, tuple[float, ...] | None)
                    and value is not None and not np.all(np.isfinite(value))):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.system not in SYSTEMS:
            raise ValueError(f"system must be one of {SYSTEMS}")
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ValueError("horizons must be a non-empty list of positive integers")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        dt = 1.0 if self.dt is None else self.dt
        if min(dt, self.total_time, self.mpc_horizon, self.sim_time, self.frequency) <= 0:
            raise ValueError("dt, total_time, mpc_horizon, sim_time, frequency must be > 0")
        if self.mpc_steps < 1:
            raise ValueError(f"sim_time * frequency = {self.sim_time * self.frequency:g} "
                             "rounds to 0 MPC steps; a run needs at least 1")
        self.barrier_options()  # the solver options check their own fields
        self.admm_options()
        d_x = len(swingup_start(self.system))
        for name in ("state_weights", "mpc_start"):
            value = getattr(self, name)
            if value is not None and len(value) != d_x:
                raise ValueError(f"{name} needs {d_x} entries for {self.system}, "
                                 f"got {len(value)}")

    @property
    def mpc_steps(self) -> int:
        """Closed-loop steps of an MPC run: ``sim_time`` at ``frequency``."""
        return int(round(self.sim_time * self.frequency))

    def newton_options(self) -> NewtonOptions:
        return NewtonOptions(alpha0=self.alpha0, inner_tol=self.inner_tol,
                             max_iters=self.max_inner)

    def barrier_options(self) -> BarrierOptions:
        return BarrierOptions(mu0=self.mu0, zeta=self.zeta, mu_tol=self.mu_tol,
                              newton=self.newton_options())

    def admm_options(self) -> AdmmOptions:
        rho = self.rho if self.rho is not None else DEFAULT_RHO[self.system]
        return AdmmOptions(rho=rho, residual_tol=self.residual_tol,
                           max_outer=self.max_outer, newton=self.newton_options())

    def solver_options(self) -> BarrierOptions | AdmmOptions:
        return self.barrier_options() if self.solver == "barrier" else self.admm_options()

    def step_size(self, horizon: int) -> float:
        return self.dt if self.dt is not None else self.total_time / horizon

    def build_problem(self, horizon: int, dt: float) -> ControlProblem:
        r = None if self.control_weight is None else (self.control_weight,)
        return make_swingup_problem(
            self.system, horizon, dt, q=self.state_weights, r=r,
            terminal_scale=self.terminal_scale,
            target_position=self.target_position)


# the declared type of every RunConfig field, which config values and flags
# are read as and which RunConfig checks its integer and float fields against
FIELD_TYPES = typing.get_type_hints(RunConfig)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class BenchmarkRecord:
    system: str
    solver: str
    horizon: int
    rep: int
    wall_s: float
    outer_iters: int
    inner_iters: int
    converged: bool

    def to_row(self) -> tuple:
        return (self.system, self.solver, self.horizon, self.rep,
                repr(self.wall_s), self.outer_iters, self.inner_iters,
                int(self.converged))

    @classmethod
    def from_row(cls, row: dict) -> "BenchmarkRecord":
        return cls(
            system=row["system"], solver=row["solver"],
            horizon=int(row["horizon"]), rep=int(row["rep"]),
            wall_s=float(row["wall_s"]), outer_iters=int(row["outer_iters"]),
            inner_iters=int(row["inner_iters"]),
            converged=bool(int(row["converged"])),
        )


def draw_initial_controls(problem: ControlProblem, config: RunConfig,
                          horizon: int, rep: int) -> np.ndarray:
    """Seeded zero-mean normal control draw, interior-scaled for barrier runs."""
    rng = np.random.default_rng((config.seed, horizon, rep))
    controls = config.control_scale * rng.standard_normal(
        (horizon, problem.dynamics.d_u))
    if config.solver == "barrier":
        box = problem.constraints
        limit = 0.9 * np.minimum(np.abs(box.control_upper), np.abs(box.control_lower))
        peak = np.max(np.abs(controls), axis=0)
        with np.errstate(invalid="ignore"):
            factor = np.where(np.isfinite(limit) & (peak > limit), limit / peak, 1.0)
        controls = controls * factor
    return controls


def _solve(problem: ControlProblem, initial: Trajectory,
           options: BarrierOptions | AdmmOptions):
    if isinstance(options, BarrierOptions):
        return barrier_solve(problem, initial, options)
    return admm_solve(problem, initial, options)


def validate_solution(problem: ControlProblem, traj: Trajectory,
                      config: RunConfig, report) -> bool:
    """Re-check a returned trajectory: dynamics, constraints, optimality.

    Optimality is checked against ``report.final``, the penalty the returned
    trajectory answers to, and behaviorally: a fresh short Newton run started
    at the returned trajectory must not be able to reduce that augmented
    objective meaningfully.  (Raw gradient or full-step norms are not
    scale-invariant once a small barrier weight puts the solution close to
    the constraint boundary.)
    """
    if first_dynamics_gap(problem.dynamics, traj, 1e-9) is not None:
        return False
    allowed = 0.0 if config.solver == "barrier" else config.residual_tol
    if problem.constraints.max_violation(traj) > allowed:
        return False
    aug = report.final
    if aug is None:
        return False
    try:
        before = total_cost(problem.cost, aug, traj)
        polish = NewtonOptions(inner_tol=config.inner_tol, max_iters=8)
        _, recheck = newton_solve(problem.dynamics, problem.cost, aug, traj, polish)
    except PintocError:
        return False
    improvement = (before - recheck.final_cost) / max(1.0, abs(before))
    return bool(improvement <= 1e-5)


def run_benchmark(config: RunConfig) -> list[BenchmarkRecord]:
    """Timed swing-up solves over the configured horizons and repetitions.

    Solver failures are recorded as unconverged rows rather than raised.
    """
    records: list[BenchmarkRecord] = []
    options = config.solver_options()
    for horizon in config.horizons:
        problem = config.build_problem(horizon, config.step_size(horizon))
        x_start = swingup_start(config.system)

        def one_solve(rep: int) -> BenchmarkRecord:
            controls = draw_initial_controls(problem, config, horizon, rep)
            initial = rollout(problem.dynamics, x_start, controls)
            start = time.perf_counter()
            try:
                traj, report = _solve(problem, initial, options)
            except PintocError:
                return BenchmarkRecord(config.system, config.solver, horizon, rep,
                                       time.perf_counter() - start, 0, 0, False)
            wall = time.perf_counter() - start
            converged = report.converged and validate_solution(problem, traj, config, report)
            return BenchmarkRecord(config.system, config.solver, horizon, rep, wall,
                                   report.outer_iterations, report.inner_iterations,
                                   converged)

        one_solve(0)  # warm-up, discarded
        for rep in range(config.repetitions):
            records.append(one_solve(rep))
    if config.out:
        write_benchmark_csv(records, config.out)
    return records


def write_benchmark_csv(records: list[BenchmarkRecord], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(BENCH_HEADER)
        for rec in records:
            writer.writerow(rec.to_row())


def read_benchmark_csv(path: str | Path) -> list[BenchmarkRecord]:
    with open(path, newline="") as handle:
        return [BenchmarkRecord.from_row(row) for row in csv.DictReader(handle)]


# ---------------------------------------------------------------------------
# MPC simulation
# ---------------------------------------------------------------------------

STATE_COLUMNS = {"pendulum": ("theta", "omega"),
                 "cartpole": ("pos", "theta", "vel", "omega")}
CONTROL_COLUMNS = {"pendulum": ("torque",), "cartpole": ("force",)}

# Closed-loop defaults (documented choices; the experiment protocol leaves
# them open).  The pendulum loop starts hanging and completes the full
# reorientation; the cart-pole loop starts with the pole tipped 0.3 rad off
# upright and the cart displaced, i.e. an angle-stabilization plus
# position-control task, which is what a 0.6 s lookahead can do.  Cart-pole
# regulation needs a stronger position pull and cheap control effort.
DEFAULT_MPC_START = {
    "pendulum": (math.pi, 0.0),
    "cartpole": (0.2, math.pi - 0.3, 0.0, 0.0),
}
DEFAULT_MPC_WEIGHTS = {
    "pendulum": ((10.0, 1.0), 0.01),
    "cartpole": ((20.0, 10.0, 1.0, 1.0), 0.001),
}


def mpc_config(config: RunConfig) -> RunConfig:
    """Fill unset MPC fields with the per-system closed-loop defaults."""
    updates = {}
    if config.mpc_start is None:
        updates["mpc_start"] = DEFAULT_MPC_START[config.system]
    weights, effort = DEFAULT_MPC_WEIGHTS[config.system]
    if config.state_weights is None:
        updates["state_weights"] = weights
    if config.control_weight is None:
        updates["control_weight"] = effort
    return replace(config, **updates) if updates else config


@dataclass(frozen=True)
class MpcLog:
    system: str
    dt: float
    times: np.ndarray      # (S,)
    states: np.ndarray     # (S+1, d_x); states[k] is the plant state at step k
    controls: np.ndarray   # (S, d_u) applied controls
    solve_s: np.ndarray    # (S,) per-step solve wall time
    converged: np.ndarray  # (S,) bool
    iterations: np.ndarray  # (S,) Newton iterations per step, 0 where the solve raised

    @property
    def steps(self) -> int:
        return len(self.times)

    def header(self) -> tuple[str, ...]:
        return (("t_s",) + STATE_COLUMNS[self.system]
                + CONTROL_COLUMNS[self.system] + ("solve_s",))

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.header())
            for k in range(self.steps):
                writer.writerow((repr(float(self.times[k])),
                                 *map(repr, self.states[k]),
                                 *map(repr, self.controls[k]),
                                 repr(float(self.solve_s[k]))))


def run_mpc(config: RunConfig) -> MpcLog:
    """Receding-horizon simulation with shift warm starts.

    Each step solves the fixed-horizon problem from the current plant state,
    applies the first control, and advances the plant by one model step.
    The warm start of the next step is the plan shifted by one stage and,
    after a converged barrier solve, its last barrier weight and the
    smallest regularization weight ``ALPHA_MIN``: the next solve then runs
    one barrier round at that weight, starting its Newton steps next to
    the optimum it already holds instead of walking alpha down from
    ``alpha0``.  A failed solve is logged, the loop continues with the last
    applied control, and the next step starts cold from ``mu0`` and
    ``alpha0``.
    """
    config = mpc_config(config)
    dt = 1.0 / config.frequency
    steps = config.mpc_steps
    horizon = config.mpc_horizon
    problem = config.build_problem(horizon, dt)
    dyn = problem.dynamics

    state = np.asarray(config.mpc_start, dtype=float)
    warm = draw_initial_controls(problem, config, horizon, rep=0)
    cold = options = config.solver_options()

    states = np.empty((steps + 1, dyn.d_x))
    controls = np.empty((steps, dyn.d_u))
    solve_s = np.empty(steps)
    converged = np.empty(steps, dtype=bool)
    iterations = np.zeros(steps, dtype=int)
    states[0] = state
    last_control = np.zeros(dyn.d_u)
    for k in range(steps):
        start = time.perf_counter()
        try:
            initial = rollout(dyn, state, warm)
            traj, report = _solve(problem, initial, options)
        except PintocError:
            report = None
        solve_s[k] = time.perf_counter() - start
        converged[k] = report is not None and report.converged
        options = cold
        if report is not None:
            iterations[k] = report.inner_iterations
            plan = traj.controls
            last_control = plan[0].copy()
            warm = np.vstack([plan[1:], plan[-1:]])  # shift, repeat last
            if report.converged and isinstance(report.final, BarrierAugmentation):
                options = replace(cold, mu0=report.final.mu,
                                  newton=replace(cold.newton, alpha0=ALPHA_MIN))
        controls[k] = last_control
        state = dyn.f(0, state, last_control)
        states[k + 1] = state
    return MpcLog(
        system=config.system, dt=dt,
        times=dt * np.arange(steps), states=states, controls=controls,
        solve_s=solve_s, converged=converged, iterations=iterations,
    )


# ---------------------------------------------------------------------------
# plot-data export
# ---------------------------------------------------------------------------

def emit_plotdata(records, out_dir: str | Path) -> list[Path]:
    """Write plot-ready tables (no plotting library involved).

    Benchmark records become a runtime-vs-horizon table with mean and std
    columns per (system, solver, horizon) group; an MPC log becomes
    its time/state/control table.  Returns the written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if isinstance(records, MpcLog):
        path = out_dir / "mpc_trajectory.csv"
        records.write_csv(path)
        return [path]
    records = list(records)
    if not records:
        raise ValueError("no records to export")
    groups: dict[tuple, list[BenchmarkRecord]] = {}
    for rec in records:
        groups.setdefault((rec.system, rec.solver, rec.horizon), []).append(rec)
    path = out_dir / "runtime_vs_horizon.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("system", "solver", "horizon",
                         "mean_wall_s", "std_wall_s", "runs", "all_converged"))
        for key in sorted(groups):
            runs = groups[key]
            walls = np.array([r.wall_s for r in runs])
            writer.writerow((*key, repr(float(walls.mean())),
                             repr(float(walls.std())), len(runs),
                             int(all(r.converged for r in runs))))
    return [path]
