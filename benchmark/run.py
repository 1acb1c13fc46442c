"""Run one workload of the pintoc benchmark and print its metrics as JSON.

    python3 benchmark/run.py --workload mpc_cartpole --seed 0 --seconds 50 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The line before it records the environment, and the run's host
speed factor with its wall times (see speed.py).  Workloads and metrics
are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# set-up is timed in fresh interpreters, so importing the library counts;
# each then times the speed kernel to convert its set-up to reference seconds
SETUP_REPEATS = 5
SETUP_PROBE = """\
import statistics, sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
setup = time.perf_counter() - start
import speed
meter = speed.Speedometer()
for _ in range(9):
    meter.sample()
print(setup, setup * meter.over(0, 9))
"""


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time to import pintoc and build a run's problem and inputs,
    in reference seconds and in wall seconds."""
    reference, wall = [], []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        setup, converted = map(float, probe.stdout.strip().splitlines()[-1].split())
        wall.append(setup)
        reference.append(converted)
    return statistics.median(reference), statistics.median(wall)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "pintoc" / "__init__.py").is_file():
        print(f"error: pintoc sources not found in {SRC}", file=sys.stderr)
        return 2

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    setup_s, wall_setup_s = (0.0, 0.0) if args.trace else setup_seconds(args.workload, args.seed)
    result, wall = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                 setup_s)
    print(json.dumps({"environment": workloads.environment(ROOT),
                      "host": {**wall, "wall_setup_s": wall_setup_s}}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
