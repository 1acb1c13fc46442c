"""Command-line front end.

Two subcommands:

* ``pintoc bench`` runs the horizon-scaling swing-up benchmark and writes
  one CSV row per (horizon, repetition),
* ``pintoc mpc`` runs the closed-loop simulation and writes the trajectory
  log.

Options come from a flat ``key = value`` config file, overridden by CLI
flags.  Config values and flags are read alike, by the type their
:class:`~pintoc.bench.RunConfig` field declares (:func:`read_value`).
Exit codes: 0 on success, 1 on configuration errors (a value that does not
read as its field's type, fails the ``RunConfig`` checks, or a bad flag),
2 when ``--strict`` is set and any benchmark row (or MPC step) failed to
converge.
"""

from __future__ import annotations

import argparse
import sys
import typing
from pathlib import Path

import numpy as np

from .bench import FIELD_TYPES, SOLVERS, RunConfig, emit_plotdata, run_benchmark, run_mpc
from .systems import SYSTEMS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNCONVERGED = 2


class ConfigError(Exception):
    pass


def read_value(key: str, text: str, where: str):
    """``text`` read as the type of the ``RunConfig`` field ``key``.

    ``none`` or an empty value is None for an optional field, a tuple field
    is a comma or space separated list of its item type, and any other
    field converts with its own type (``int``, ``float`` or ``str``).

    Raises:
        ConfigError: naming ``where`` and ``key`` if ``text`` does not convert.
    """
    hint = FIELD_TYPES[key]
    text = text.strip().strip("'\"")
    kinds = typing.get_args(hint)
    if type(None) in kinds:
        if text.lower() in ("none", ""):
            return None
        hint = kinds[0]
    try:
        if typing.get_origin(hint) is tuple:
            item = typing.get_args(hint)[0]
            return tuple(item(part) for part in text.replace(",", " ").split())
        return hint(text)
    except ValueError as err:
        raise ConfigError(f"{where}: {key}: {err}") from None


def read_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` format; blank lines and # comments ignored."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = read_value(key, text, f"{path}:{lineno}")
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(read_config_file(args.config))
    for key in FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = read_value(key, flag, "command line")
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--system", choices=SYSTEMS)
    parser.add_argument("--solver", choices=SOLVERS)
    parser.add_argument("--dt", help="fixed step size in seconds")
    parser.add_argument("--seed")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--strict", action="store_true",
                        help="exit with code 2 if anything failed to converge")
    parser.add_argument("--plot-data", dest="plot_data", metavar="DIR",
                        help="also write plot-ready tables to DIR")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pintoc",
        description="Parallel-in-time Newton solvers: benchmarks and MPC simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="horizon-scaling benchmark")
    _add_common(bench)
    bench.add_argument("--horizons",
                       help="comma-separated horizon list, e.g. 20,100,500")
    bench.add_argument("--total-time", dest="total_time",
                       help="plan duration in seconds when --dt is not given")
    bench.add_argument("--reps", dest="repetitions")

    mpc = sub.add_parser("mpc", help="closed-loop MPC simulation")
    _add_common(mpc)
    mpc.add_argument("--mpc-horizon", dest="mpc_horizon")
    mpc.add_argument("--sim-time", dest="sim_time")
    mpc.add_argument("--frequency")
    mpc.add_argument("--target-position", dest="target_position")
    mpc.add_argument("--mpc-start", dest="mpc_start",
                     help="comma-separated initial plant state")
    return parser


def _cmd_bench(config: RunConfig, args) -> int:
    records = run_benchmark(config)
    n_bad = sum(1 for r in records if not r.converged)
    if config.out:
        print(f"wrote {len(records)} rows to {config.out}")
    for rec in records:
        print(f"  {rec.system} {rec.solver} N={rec.horizon} "
              f"rep={rec.rep}: {rec.wall_s:.3f}s outer={rec.outer_iters} "
              f"inner={rec.inner_iters} converged={rec.converged}")
    if args.plot_data:
        for path in emit_plotdata(records, args.plot_data):
            print(f"plot data: {path}")
    if n_bad:
        print(f"{n_bad} of {len(records)} runs did not converge")
        if args.strict:
            return EXIT_UNCONVERGED
    return EXIT_OK


def _cmd_mpc(config: RunConfig, args) -> int:
    log = run_mpc(config)
    if config.out:
        log.write_csv(config.out)
        print(f"wrote {log.steps} steps to {config.out}")
    n_bad = int(np.count_nonzero(~log.converged))
    n_late = int(np.count_nonzero(log.solve_s > log.dt))
    step_ms = 1e3 * log.solve_s
    final = ", ".join(f"{v:.4f}" for v in log.states[-1])
    print(f"{config.system} MPC: {log.steps} steps at {config.frequency:.0f} Hz, "
          f"final state ({final}), mean solve "
          f"{float(log.solve_s.mean()):.4f}s, mean Newton iterations "
          f"{float(log.iterations.mean()):.1f}, step solve median "
          f"{float(np.median(step_ms)):.1f} ms and max {float(step_ms.max()):.1f} ms, "
          f"steps over the {1e3 * log.dt:g} ms period: {n_late}, "
          f"unconverged steps: {n_bad}")
    if args.plot_data:
        for path in emit_plotdata(log, args.plot_data):
            print(f"plot data: {path}")
    if n_bad and args.strict:
        return EXIT_UNCONVERGED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a bad flag, the code --strict reserves, and 0
        # after --help
        return EXIT_CONFIG if stop.code else EXIT_OK
    try:
        config = build_config(args)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "bench":
        return _cmd_bench(config, args)
    return _cmd_mpc(config, args)


if __name__ == "__main__":
    sys.exit(main())
