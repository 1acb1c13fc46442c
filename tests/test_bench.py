"""Harness: CSV round trips, determinism, plot-data export, CLI."""

import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pintoc
from pintoc import admm_solve, bench, rollout, swingup_start
from pintoc.bench import (
    BENCH_HEADER,
    BenchmarkRecord,
    MpcLog,
    RunConfig,
    draw_initial_controls,
    emit_plotdata,
    read_benchmark_csv,
    run_benchmark,
    run_mpc,
    validate_solution,
    write_benchmark_csv,
)
from pintoc.cli import EXIT_CONFIG, EXIT_OK, main, read_config_file
from pintoc.exceptions import PintocError
from pintoc.newton import ALPHA_MIN

FAST = dict(horizons=(8, 12), repetitions=2, total_time=0.8,
            inner_tol=1e-6, max_inner=300)


def test_benchmark_rows_and_convergence():
    cfg = RunConfig(system="pendulum", solver="barrier", seed=3, **FAST)
    records = run_benchmark(cfg)
    assert len(records) == 4  # two horizons x two reps
    assert all(rec.converged for rec in records)
    assert all(rec.wall_s >= 0.0 for rec in records)


def test_benchmark_deterministic_iteration_counts():
    cfg = RunConfig(system="pendulum", solver="barrier", seed=7,
                    horizons=(10,), repetitions=1, total_time=0.8,
                    inner_tol=1e-6, max_inner=60)
    a = run_benchmark(cfg)
    b = run_benchmark(cfg)
    assert [(r.outer_iters, r.inner_iters) for r in a] == \
           [(r.outer_iters, r.inner_iters) for r in b]
    assert [r.converged for r in a] == [r.converged for r in b]


def test_csv_round_trip(tmp_path):
    records = [
        BenchmarkRecord("pendulum", "barrier", 20, 0, 0.125, 5, 40, True),
        BenchmarkRecord("cartpole", "admm", 100, 3, 2.5, 30, 300, False),
    ]
    path = tmp_path / "bench.csv"
    write_benchmark_csv(records, path)
    with open(path) as handle:
        assert handle.readline().strip() == ",".join(BENCH_HEADER)
    assert read_benchmark_csv(path) == records


def test_emit_plotdata_aggregates(tmp_path):
    records = []
    for solver in ("barrier", "admm"):
        for horizon in (10, 20, 40, 80):
            for rep in range(3):
                records.append(BenchmarkRecord(
                    "pendulum", solver, horizon, rep,
                    0.01 * horizon + 0.001 * rep, 5, 50, True))
    paths = emit_plotdata(records, tmp_path)
    with open(paths[0]) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8  # two solvers x four horizons
    single = emit_plotdata(records[:1], tmp_path)
    with open(single[0]) as handle:
        row = next(csv.DictReader(handle))
    assert float(row["std_wall_s"]) == 0.0
    assert float(row["mean_wall_s"]) == records[0].wall_s


def test_emit_plotdata_empty_raises(tmp_path):
    with pytest.raises(ValueError):
        emit_plotdata([], tmp_path)


def test_validation_checks_the_penalty_the_solve_used():
    cfg = RunConfig(system="cartpole", solver="admm", seed=0, horizons=(20,),
                    total_time=2.0)
    problem = cfg.build_problem(20, cfg.step_size(20))
    controls = draw_initial_controls(problem, cfg, 20, 0)
    initial = rollout(problem.dynamics, swingup_start("cartpole"), controls)
    # rho = 5 needs 219 rounds here, past the default budget of 200
    options = dataclasses.replace(cfg.admm_options(), rho=5.0, max_outer=400)
    traj, report = admm_solve(problem, initial, options)
    assert report.converged
    assert cfg.admm_options().rho != 5.0
    assert validate_solution(problem, traj, cfg, report)
    assert validate_solution(problem, traj, dataclasses.replace(cfg, rho=5.0), report)


def test_mpc_short_run_and_log(tmp_path):
    cfg = RunConfig(system="pendulum", solver="barrier", seed=0,
                    sim_time=0.1, frequency=50.0, mpc_horizon=10,
                    mpc_start=(0.4, 0.0), inner_tol=1e-6, max_inner=60)
    log = run_mpc(cfg)
    assert log.steps == 5
    assert log.states.shape == (6, 2)
    assert np.all(np.abs(log.controls) <= 5.0)
    path = tmp_path / "mpc.csv"
    log.write_csv(path)
    with open(path) as handle:
        header = handle.readline().strip()
    assert header == "t_s,theta,omega,torque,solve_s"
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 5
    assert np.isclose(float(rows[1]["t_s"]), 0.02)


def test_mpc_carries_barrier_weight_across_steps(monkeypatch):
    cfg = RunConfig(system="pendulum", solver="barrier", seed=0,
                    sim_time=0.2, frequency=50.0, mpc_horizon=10,
                    mpc_start=(0.4, 0.0), inner_tol=1e-6, max_inner=60)
    failing_step = 4
    # (opts.mu0, opts.newton.alpha0, report) per step; the report is None
    # where it raised
    calls = []
    original = bench.barrier_solve

    def recording(problem, initial, opts):
        if len(calls) == failing_step:
            calls.append((opts.mu0, opts.newton.alpha0, None))
            raise PintocError("made to fail")
        traj, report = original(problem, initial, opts)
        calls.append((opts.mu0, opts.newton.alpha0, report))
        return traj, report

    monkeypatch.setattr(bench, "barrier_solve", recording)
    log = run_mpc(cfg)
    assert len(calls) == log.steps == 10
    mu0s, alpha0s, reports = zip(*calls)
    assert (mu0s[0], alpha0s[0]) == (cfg.mu0, cfg.alpha0)
    assert len(reports[0].rounds) > 1
    warm_steps = 0
    for before, mu0, alpha0, report in zip(reports, mu0s[1:], alpha0s[1:], reports[1:]):
        if before is not None and before.converged:
            warm_steps += 1
            assert mu0 == before.rounds[-1].weight
            assert alpha0 == ALPHA_MIN
            if report is not None:
                assert len(report.rounds) == 1
        else:
            assert (mu0, alpha0) == (cfg.mu0, cfg.alpha0)
    assert warm_steps == log.steps - 2  # all but the first and the one after the failure
    assert len(reports[failing_step + 1].rounds) == len(reports[0].rounds)
    assert not log.converged[failing_step]
    assert log.iterations.tolist() == [0 if r is None else r.inner_iterations
                                       for r in reports]


def test_mpc_warm_steps_take_few_newton_iterations():
    # the benchmark's cart-pole episode: once the pole has settled, a warm
    # step starts at the optimum it already holds and needs about two
    # iterations, where a start at alpha0 = 1 spends ten walking alpha down
    cfg = RunConfig(system="cartpole", solver="barrier", seed=0, mpc_horizon=60,
                    frequency=100.0, sim_time=0.4)
    log = run_mpc(cfg)
    assert log.steps == 40
    assert log.converged.all()
    assert log.iterations[20:].max() <= 3


def test_mpc_deterministic_rerun():
    cfg = RunConfig(system="pendulum", solver="barrier", seed=11,
                    sim_time=0.06, frequency=50.0, mpc_horizon=8,
                    mpc_start=(0.3, 0.0), inner_tol=1e-6, max_inner=60)
    a = run_mpc(cfg)
    b = run_mpc(cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.controls, b.controls)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# benchmark setup\n"
        "system = cartpole\n"
        "solver = admm\n"
        "horizons = 10, 20\n"
        "dt = 0.05\n"
        "repetitions = 3\n"
        "rho = 0.5\n"
    )
    values = read_config_file(path)
    cfg = RunConfig(**values)
    assert cfg.system == "cartpole"
    assert cfg.horizons == (10, 20)
    assert cfg.rho == 0.5


def test_config_file_tuple_fields(tmp_path):
    # every tuple-valued option reads a comma list, not only the horizons
    path = tmp_path / "run.cfg"
    path.write_text(
        "system = pendulum\n"
        "horizons = 8\n"
        "total_time = 0.8\n"
        "repetitions = 1\n"
        "state_weights = 10, 1\n"
        "mpc_start = none\n"
    )
    values = read_config_file(path)
    assert values["state_weights"] == (10, 1)
    assert values["horizons"] == (8,)
    assert values["mpc_start"] is None
    assert main(["bench", "--config", str(path)]) == EXIT_OK


# a value for every RunConfig field, written below as config text: tuples
# as comma lists, None as ``none``
SAMPLE_CONFIG = dict(
    system="cartpole", solver="admm", horizons=(10, 20), dt=0.05, total_time=1.5,
    repetitions=3, seed=4, out="runs/bench.csv", mu0=0.2, zeta=0.3, mu_tol=1e-5,
    rho=None, residual_tol=1e-3, max_outer=40, alpha0=0.5, inner_tol=1e-7,
    max_inner=90, control_scale=0.5, state_weights=(20.0, 10.0, 1.0, 1.0),
    control_weight=0.01, terminal_scale=5.0, mpc_horizon=30, sim_time=1.0,
    frequency=50.0, target_position=0.25, mpc_start=(0.2, 3.0, 0.0, 0.0),
)


def test_config_file_reads_every_field_back(tmp_path):
    assert set(SAMPLE_CONFIG) == {f.name for f in dataclasses.fields(RunConfig)}

    def render(value):
        if value is None:
            return "none"
        if isinstance(value, tuple):
            return ", ".join(map(str, value))
        return str(value)

    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {render(value)}\n"
                            for key, value in SAMPLE_CONFIG.items()))
    values = read_config_file(path)
    assert values == SAMPLE_CONFIG
    assert {k: type(v) for k, v in values.items()} == \
           {k: type(v) for k, v in SAMPLE_CONFIG.items()}
    assert RunConfig(**values) == RunConfig(**SAMPLE_CONFIG)


@pytest.mark.parametrize("command, text", [
    # a weight vector or start state of the wrong length for the system
    ("bench", "system = cartpole\nhorizons = 8\nstate_weights = 10, 1\n"),
    ("mpc", "system = pendulum\nmpc_start = 1, 2, 3\n"),
    # values that do not read as their field's type
    ("bench", "horizons = 8\nrepetitions = 1.5\n"),
    ("bench", "horizons = 8\nmu0 = abc\n"),
    # values of the right type out of their range
    ("bench", "horizons = 8\nmu0 = -1\n"),
    ("mpc", "frequency = 0\n"),
    # values that are not finite
    ("mpc", "frequency = inf\n"),
    ("mpc", "sim_time = inf\n"),
    ("bench", "horizons = 8\ntotal_time = nan\n"),
    ("bench", "horizons = 8\ndt = inf\n"),
])
def test_cli_bad_config_value_exit_code(tmp_path, capsys, command, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bench", "--reps", "x"],
    ["bench", "--horizons", "8,x"],
    ["mpc", "--system", "helicopter"],
    ["bench", "--no-such-flag"],
    ["mpc", "--frequency", "inf"],
])
def test_cli_bad_flag_exit_code(argv):
    # argparse's own exit code 2 would read as an unconverged --strict run
    assert main(argv) == EXIT_CONFIG


def test_cli_mpc_run_of_zero_steps_is_a_config_error(capsys):
    # 0.001 s at 100 Hz rounds to 0 closed-loop steps
    assert main(["mpc", "--sim-time", "0.001"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "0 MPC steps" in captured.err


@pytest.mark.parametrize("field, value", [
    ("repetitions", 1.5),
    ("seed", "3"),
    ("mpc_horizon", 60.0),
    ("max_inner", True),
    ("max_outer", None),
    ("horizons", (8, 12.0)),
])
def test_config_int_fields_reject_other_types(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{"horizons": (8,), field: value})


@pytest.mark.parametrize("field, value", [
    ("sim_time", np.inf),
    ("frequency", np.inf),
    ("total_time", np.nan),
    ("dt", np.inf),
    ("mu_tol", np.nan),
    ("rho", np.nan),
    ("control_weight", np.inf),
    ("mpc_start", (np.pi, np.nan)),
])
def test_config_float_fields_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RunConfig(**{"horizons": (8,), field: value})


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("no_such_option = 3\n")
    from pintoc.cli import ConfigError
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_cli_bench_smoke(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--system", "pendulum", "--solver", "barrier",
                 "--horizons", "8", "--reps", "1", "--total-time", "0.8",
                 "--seed", "1", "--out", str(out), "--strict",
                 "--plot-data", str(tmp_path)])
    assert code == EXIT_OK
    records = read_benchmark_csv(out)
    assert len(records) == 1 and records[0].converged
    assert (tmp_path / "runtime_vs_horizon.csv").exists()


def test_cli_mpc_reports_latency_against_the_period(tmp_path, capsys):
    out = tmp_path / "mpc.csv"
    code = main(["mpc", "--system", "pendulum", "--sim-time", "0.1",
                 "--frequency", "50", "--mpc-horizon", "10", "--mpc-start", "0.4, 0",
                 "--out", str(out), "--strict"])
    assert code == EXIT_OK
    summary = capsys.readouterr().out.splitlines()[-1]
    match = re.search(r"step solve median ([\d.]+) ms and max ([\d.]+) ms, "
                      r"steps over the 20 ms period: (\d+), unconverged steps: 0$",
                      summary)
    assert match, summary
    with open(out) as handle:
        solve_s = np.array([float(row["solve_s"]) for row in csv.DictReader(handle)])
    assert len(solve_s) == 5
    assert float(match[1]) == pytest.approx(1e3 * np.median(solve_s), abs=0.06)
    assert float(match[2]) == pytest.approx(1e3 * solve_s.max(), abs=0.06)
    assert int(match[3]) == np.count_nonzero(solve_s > 1 / 50)


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("system = helicopter\n")
    code = main(["bench", "--config", str(bad)])
    assert code == EXIT_CONFIG


def test_cli_missing_config_file():
    code = main(["bench", "--config", "/nonexistent/x.cfg"])
    assert code == EXIT_CONFIG


def test_cli_entrypoint_runs():
    # the child does not inherit pytest's pythonpath setting, only the
    # environment: put the package's source directory on its PYTHONPATH
    src = str(Path(pintoc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "pintoc.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "bench" in proc.stdout and "mpc" in proc.stdout
