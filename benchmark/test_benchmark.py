"""Self-test of the benchmark: short runs of the real command.

    python3 -m pytest benchmark

Takes about three minutes: every workload runs one unit of work untraced
and once traced.  A traced run must count exactly one ``value_pass`` per
Newton iteration; a wrapper installed on a namespace its caller does not
look the name up in breaks that equality.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from pintoc import bench, newton, outer, passes  # noqa: E402
from pintoc.systems import CartPoleDynamics  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    return result


def check_metrics(metrics: dict, spec: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_benchmark_json_names_registered_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = result_of(run(workload, 0))["metrics"]
    check_metrics(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_counts_one_value_pass_per_newton_iteration(workload):
    metrics = result_of(run(workload, 1))["metrics"]
    check_metrics(metrics, SPEC["per_layer"])
    assert metrics["newton.iters"]["value"] > 0
    assert metrics["passes.value.calls"]["value"] == metrics["newton.iters"]["value"]
    assert metrics["tracing.overhead_s"]["value"] > 0


def test_tracing_restores_originals_and_skips_the_gate():
    modules = (outer, bench, newton, passes)
    before = [dict(vars(m)) for m in modules] + [dict(vars(CartPoleDynamics))]
    tracer = Tracer()
    workloads.install_tracing(tracer, CartPoleDynamics, Counter())
    try:
        assert outer.newton_solve is not before[0]["newton_solve"]
        assert newton.value_pass is not before[2]["value_pass"]
        # validate_solution's own Newton re-solve is part of the gate
        assert bench.newton_solve is before[1]["newton_solve"]
    finally:
        tracer.restore()
    after = [dict(vars(m)) for m in modules] + [dict(vars(CartPoleDynamics))]
    assert after == before


def test_speed_is_sampled_once_per_mpc_step():
    config = replace(workloads.WORKLOADS["mpc_cartpole"].config, sim_time=0.03)
    original, taken, speed = bench.rollout, [], Speedometer()
    with workloads.sampled_rollouts(taken, speed):
        log = bench.run_mpc(config)
    assert bench.rollout is original
    assert taken == [0, 1, 2] and log.steps == 3
    # each sample ran inside its step's timer
    assert all(pause < step for pause, step in zip(speed.samples, log.solve_s))


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("swingup_admm", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
