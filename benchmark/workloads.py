"""Workloads, correctness gate and metrics of the pintoc benchmark.

Every workload uses the library's default options (executor included) apart
from the fields set in ``WORKLOADS``, and drives pintoc only through its
public API.  A run repeats one unit of work -- a swing-up solve, or a
40-step MPC episode -- while the next unit is expected to finish within
the run's budget, and always runs at least one.  The correctness gate runs
outside the timed region; a failed check counts as a failure and does not
stop the run.  An untraced run samples the host's speed between the
subproblem solves or MPC steps and reports its timings in reference
seconds (see ``speed.py``).
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from pintoc import bench, newton, outer, passes
from pintoc.bench import RunConfig, draw_initial_controls, mpc_config, validate_solution
from pintoc.exceptions import PintocError
from pintoc.problem import ZeroAugmentation, rollout, total_cost
from pintoc.systems import swingup_start

from speed import Speedometer
from tracing import Tracer, per_call_cost


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int       # N of every solved problem
    config: RunConfig  # library defaults apart from the fields set below
    mpc: bool = False


WORKLOADS = {w.name: w for w in (
    # The paper's long-horizon case; value_pass dominates the solve.  The
    # first barrier round hits max_iters on most seeds (the open
    # long-horizon defect), which makes fail_ratio vary from run to run.
    Workload("swingup_long", 500,
             RunConfig(system="pendulum", solver="barrier", total_time=2.0)),
    # Re-enters newton_solve ~42 times per solve with a quadratic penalty,
    # and is the only workload on the ADMM outer path.
    Workload("swingup_admm", 200,
             RunConfig(system="cartpole", solver="admm", total_time=2.0)),
    # Closed loop with one caller: each step's solve waits for the last.
    # Short horizon, so the model and the rollout dominate, not the scans.
    # Short episodes, several per run, spread the costly first steps and the
    # settled ones over the whole run, so a slow spell of the host shifts
    # every percentile alike.
    Workload("mpc_cartpole", 60,
             RunConfig(system="cartpole", solver="barrier", mpc_horizon=60,
                       frequency=100.0, sim_time=0.4), mpc=True),
)}

SOLVERS = {"barrier": "barrier_solve", "admm": "admm_solve"}

# Metrics are judged by their ratio to a median, so none may read 0: a ratio
# with nothing in its numerator reports this floor.  No run attempts 1000
# units, so one failure always reads above it.
RATIO_FLOOR = 1e-3

LAYERS = ("outer", "newton", "passes.costate", "passes.expansion", "passes.value",
          "passes.propagation", "scan", "problem.rollout", "problem.total_cost",
          "systems.derivs")

DERIVATIVES = ("fx_batch", "fu_batch", "fxx_batch", "fuu_batch", "fxu_batch")


@dataclass
class Outcome:
    """What the timed units of one run produced."""

    # wall times with the speed samples taken out, and the samples around them
    unit_s: list[float] = field(default_factory=list)   # per solve or episode
    unit_samples: list[tuple[int, int]] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)   # latency samples
    step_sample: list[int] = field(default_factory=list)
    # the same in reference seconds; wall times in a traced run
    unit_ref: list[float] = field(default_factory=list)
    step_ref: list[float] = field(default_factory=list)
    failed: list[bool] = field(default_factory=list)    # per attempt
    late: list[bool] = field(default_factory=list)      # missed deadline or failed
    incorrect: int = 0                                  # outputs failing the gate
    task_costs: list[float] = field(default_factory=list)
    closed_loop_costs: list[float] = field(default_factory=list)

    def finish(self, speed: Speedometer | None, deadline: float, per_step: bool) -> None:
        """Convert the timings to reference seconds, then mark each attempt
        (each step if ``per_step``, else each unit) that failed or took
        longer than ``deadline`` as late."""
        self.unit_ref, self.step_ref = list(self.unit_s), list(self.step_s)
        if speed is not None:
            self.unit_ref = [t * speed.over(*span)
                             for t, span in zip(self.unit_s, self.unit_samples)]
            self.step_ref = [t * speed.around(i)
                             for t, i in zip(self.step_s, self.step_sample)]
        times = self.step_ref if per_step else self.unit_ref
        self.late = [failed or t > deadline for failed, t in zip(self.failed, times)]


def initial_trajectory(problem, config: RunConfig, horizon: int, rep: int):
    controls = draw_initial_controls(problem, config, horizon, rep)
    return rollout(problem.dynamics, swingup_start(config.system), controls)


def build(name: str, seed: int):
    """The set-up of a run: its config, problem and first initial trajectory.

    An MPC episode builds its own problem inside ``run_mpc``; its set-up is
    the same construction, done once before timing.
    """
    w = WORKLOADS[name]
    config = replace(w.config, seed=seed)
    if w.mpc:
        closed = mpc_config(config)
        problem = closed.build_problem(w.horizon, 1.0 / config.frequency)
        draw_initial_controls(problem, closed, w.horizon, 0)
        return config, problem, None
    problem = config.build_problem(w.horizon, config.step_size(w.horizon))
    return config, problem, initial_trajectory(problem, config, w.horizon, 0)


def _more(unit_s: list[float], seconds: float) -> bool:
    """Start another unit while it is expected to end within ``seconds``."""
    return not unit_s or sum(unit_s) + statistics.median(unit_s) <= seconds


@contextmanager
def sampled_rollouts(taken: list[int], speed: Speedometer):
    """Sample the host's speed at the start of each MPC step.

    ``run_mpc`` calls ``rollout`` once per step inside its step timer, so
    sample ``taken[k]`` is what was added to the step's ``solve_s``.
    """
    original = bench.rollout

    def sampled(*args, **kwargs):
        taken.append(speed.sample())
        return original(*args, **kwargs)

    bench.rollout = sampled
    try:
        yield
    finally:
        bench.rollout = original


@contextmanager
def timed_subproblems(out: Outcome, speed: Speedometer):
    """Record the wall time of each ``newton_solve`` the outer loops make,
    sampling the host's speed before each, outside its timer."""
    original = outer.newton_solve

    def timed(*args, **kwargs):
        out.step_sample.append(speed.sample())
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            out.step_s.append(time.perf_counter() - start)

    outer.newton_solve = timed
    try:
        yield
    finally:
        outer.newton_solve = original


def run_swingups(w: Workload, config, problem, first, seconds, tracer) -> Outcome:
    """Independent swing-up solves; solve ``rep`` starts from draw ``rep``.

    A run holds too few solves for a 90th percentile, so its steps are the
    outer loop's subproblem solves, timed only in the untraced run.  A solve
    is late when it takes longer than the plan it returns lasts.
    """
    options = (config.barrier_options() if config.solver == "barrier"
               else config.admm_options())
    out = Outcome()
    speed = Speedometer()
    rep, initial = 0, first
    with nullcontext() if tracer else timed_subproblems(out, speed):
        while _more(out.unit_s, seconds):
            if initial is None:
                initial = initial_trajectory(problem, config, w.horizon, rep)
            # looked up at call time so that a traced run calls the wrapper
            solve = getattr(outer, SOLVERS[config.solver])
            first_sample = None if tracer else speed.sample()
            spent, start = speed.spent, time.perf_counter()
            try:
                with tracer.active() if tracer else nullcontext():
                    traj, report = solve(problem, initial, options)
            except PintocError:
                traj = report = None
            out.unit_s.append(time.perf_counter() - start - (speed.spent - spent))
            out.unit_samples.append((first_sample, len(speed.samples)))
            if traj is None:
                # nothing returned: the start's cost counts, no output is wrong
                failed = True
                traj = initial
            else:
                valid = validate_solution(problem, traj, config, report)
                out.incorrect += not valid
                failed = not (valid and report.converged)
            out.failed.append(failed)
            # validate_solution checked that the plan follows the dynamics, so
            # its states are the plant's
            stage = float(np.sum(problem.cost.l_batch(traj.states[:-1], traj.controls)))
            out.closed_loop_costs.append(stage)
            out.task_costs.append(total_cost(problem.cost, ZeroAugmentation(), traj))
            rep, initial = rep + 1, None
    out.finish(None if tracer else speed, config.total_time, per_step=False)
    return out


def run_mpc_episodes(w: Workload, config, seconds, tracer) -> Outcome:
    """40-step closed-loop episodes; episode ``e`` seeds its warm start
    with ``1000 * seed + e``.  A step is late when its solve takes longer
    than the control period."""
    out = Outcome()
    speed = Speedometer()
    episode = 0
    while _more(out.unit_s, seconds):
        episode_config = replace(config, seed=1000 * config.seed + episode)
        first_sample = None if tracer else speed.sample()
        taken: list[int] = []
        start = time.perf_counter()
        with tracer.active() if tracer else sampled_rollouts(taken, speed):
            log = bench.run_mpc(episode_config)
        pauses = np.array([speed.samples[i] for i in taken])
        out.unit_s.append(time.perf_counter() - start - pauses.sum())
        out.unit_samples.append((first_sample, len(speed.samples)))
        if not tracer and len(taken) != log.steps:
            raise RuntimeError("run_mpc no longer calls rollout once per step; "
                               "the speed samples cannot be taken out of solve_s")
        out.step_s.extend((log.solve_s - pauses if taken else log.solve_s).tolist())
        out.step_sample.extend(taken)
        closed = mpc_config(episode_config)
        problem = closed.build_problem(w.horizon, log.dt)
        box = problem.constraints
        in_box = np.all((log.controls >= box.control_lower - 1e-9)
                        & (log.controls <= box.control_upper + 1e-9), axis=1)
        finite = np.all(np.isfinite(log.states[1:]), axis=1)
        failed = ~(in_box & finite & log.converged)
        out.incorrect += int(np.sum(~(in_box & finite)))
        out.failed.extend(failed.tolist())
        cost = problem.cost
        stage = float(np.sum(cost.l_batch(log.states[:-1], log.controls)))
        out.closed_loop_costs.append(stage)
        out.task_costs.append(stage + float(cost.terminal(log.states[-1])))
        episode += 1
    out.finish(None if tracer else speed, 1.0 / config.frequency, per_step=True)
    return out


def _ratio(count: int, total: int) -> float:
    return max(count / total, RATIO_FLOOR)


def end_to_end_metrics(out: Outcome, setup_s: float) -> dict:
    """Timings in reference seconds; ``setup_s`` is already converted."""
    steps = np.asarray(out.step_ref)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (statistics.median(out.unit_ref), "s"),
        "fail_ratio": (_ratio(sum(out.failed), len(out.failed)), "ratio"),
        "task_cost": (statistics.median(out.task_costs), "cost"),
        "step_p50_ms": (1e3 * float(np.percentile(steps, 50)), "ms"),
        "step_p90_ms": (1e3 * float(np.percentile(steps, 90)), "ms"),
        "deadline_miss_ratio": (_ratio(sum(out.late), len(out.late)), "ratio"),
        "closed_loop_cost": (statistics.median(out.closed_loop_costs), "cost"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def install_tracing(tracer: Tracer, dynamics_cls: type, stats: Counter) -> None:
    """Wrap each layer's public functions where their callers look them up.

    ``newton_solve`` is wrapped only in ``pintoc.outer``; the call that
    ``validate_solution`` makes from ``pintoc.bench`` is part of the gate.
    """
    def on_newton(result):
        report = result[1]
        stats["newton.iters"] += report.iterations
        stats["newton.accepted"] += report.accepted_steps
        stats["newton.hard_rejects"] += sum(
            1 for rec in report.history if rec.gain_ratio == -math.inf)

    def on_outer(result):
        stats["outer.rounds"] += result[1].outer_iterations

    # the benchmark calls the outer loops through pintoc.outer, run_mpc
    # through the names bound in pintoc.bench
    for module in (outer, bench):
        for name in SOLVERS.values():
            tracer.patch(module, name, tracer.span("outer", getattr(module, name), on_outer))
    tracer.patch(outer, "newton_solve", tracer.span("newton", outer.newton_solve, on_newton))
    for name, layer in (("costate_pass", "passes.costate"),
                        ("hamiltonian_expansion", "passes.expansion"),
                        ("value_pass", "passes.value"),
                        ("propagation_pass", "passes.propagation"),
                        ("rollout", "problem.rollout"),
                        ("total_cost", "problem.total_cost")):
        tracer.patch(newton, name, tracer.span(layer, getattr(newton, name)))
    tracer.patch(bench, "rollout", tracer.span("problem.rollout", bench.rollout))
    tracer.patch(passes, "scan", tracer.span("scan", passes.scan))
    for name in DERIVATIVES:
        tracer.patch(dynamics_cls, name,
                     tracer.span("systems.derivs", getattr(dynamics_cls, name)))
    # one call per stage: counted, its time stays with the caller's span
    tracer.patch(dynamics_cls, "f", tracer.counter("systems.f", dynamics_cls.f))


def layer_metrics(tracer: Tracer, stats: Counter) -> dict:
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
    iters = stats["newton.iters"]
    solves = tracer.calls["outer"]
    span_cost, count_cost = per_call_cost()
    metrics.update({
        "newton.iters": (iters, "count"),
        "newton.ms_per_iter": (1e3 * tracer.total_s["newton"] / max(iters, 1), "ms"),
        "newton.accepted_ratio": (stats["newton.accepted"] / max(iters, 1), "ratio"),
        "newton.hard_rejects": (stats["newton.hard_rejects"], "count"),
        "outer.rounds": (stats["outer.rounds"], "count"),
        "mpc.iters_per_step": (iters / max(solves, 1), "count"),
        "systems.f_calls": (tracer.counts["systems.f"], "count"),
        "tracing.overhead_s": (sum(tracer.calls.values()) * span_cost
                               + sum(tracer.counts.values()) * count_cost, "s"),
    })
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, setup_s: float) -> tuple[dict, dict]:
    """One benchmark run: the JSON object the benchmark prints last, and
    the run's speed factor with its median wall times, for the record."""
    w = WORKLOADS[name]
    config, problem, first = build(name, seed)
    tracer, stats = (Tracer() if trace else None), Counter()
    try:
        if tracer:
            install_tracing(tracer, type(problem.dynamics), stats)
        if w.mpc:
            out = run_mpc_episodes(w, config, seconds, tracer)
        else:
            out = run_swingups(w, config, problem, first, seconds, tracer)
    finally:
        if tracer:
            tracer.restore()
    metrics = layer_metrics(tracer, stats) if tracer else end_to_end_metrics(out, setup_s)
    wall = {"speed_factor": statistics.median(out.unit_ref) / statistics.median(out.unit_s),
            "wall_solve_s": statistics.median(out.unit_s),
            "wall_step_p50_ms": 1e3 * statistics.median(out.step_s) if out.step_s else None}
    return {
        "correct": out.incorrect == 0,
        "attempted": len(out.failed),
        "failed": sum(out.failed),
        "metrics": {key: {"value": float(value) if isinstance(value, float) else int(value),
                          "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }, wall


def _git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git_sha": _git_sha(root),
    }
