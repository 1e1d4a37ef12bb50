"""Command-line front end.

  ghostbench run <scenario.file> [--out DIR]
  ghostbench trend <scenario.file> --lc <comma list, meters> [--out DIR]
  ghostbench selftest

``trend`` runs the scenario's own seeds (at least 2) at each coherence length.
GHOSTBENCH_OUT sets the default output directory.  Exit codes: 0 ok,
1 runtime failure, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .errors import ConfigError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _default_out(value: str | None) -> str:
    return value or os.environ.get("GHOSTBENCH_OUT") or "out"


def _fail(message: str, code: int) -> int:
    print(f"ghostbench: {message}", file=sys.stderr)
    return code


def _cmd_run(args) -> int:
    try:
        scenario = harness.load_scenario(args.scenario)
    except ConfigError as exc:
        return _fail(f"parse error: {exc}", EXIT_USAGE)
    try:
        harness.run_scenario(scenario, _default_out(args.out))
    except Exception as exc:  # noqa: BLE001 - surface one line, signal via exit code
        return _fail(f"runtime error: {exc}", EXIT_RUNTIME)
    return EXIT_OK


def _cmd_trend(args) -> int:
    try:
        scenario = harness.load_scenario(args.scenario)
        lc_list = [float(t) for t in args.lc.split(",") if t.strip()]
    except ConfigError as exc:
        return _fail(f"parse error: {exc}", EXIT_USAGE)
    except ValueError as exc:
        return _fail(f"bad --lc: {exc}", EXIT_USAGE)
    try:
        _, verdicts = harness.trend_experiment(scenario, lc_list, out_dir=_default_out(args.out))
    except ConfigError as exc:  # trend_experiment checks its inputs before any work
        return _fail(f"bad trend input: {exc}", EXIT_USAGE)
    except Exception as exc:  # noqa: BLE001
        return _fail(f"runtime error: {exc}", EXIT_RUNTIME)
    for key, value in sorted(verdicts.items()):
        print(f"{key}={'true' if value else 'false'}")
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    return EXIT_OK if harness.selftest(verbose=True) else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghostbench",
                                     description="pseudo-thermal ghost imaging bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("scenario")
    run.add_argument("--out", default=None, help="output directory (default $GHOSTBENCH_OUT or ./out)")
    run.set_defaults(func=_cmd_run)

    trend = sub.add_parser("trend", help="coherence-length trend table from a base scenario")
    trend.add_argument("scenario")
    trend.add_argument("--lc", required=True, help="comma list of coherence lengths in meters")
    trend.add_argument("--out", default=None)
    trend.set_defaults(func=_cmd_trend)

    selftest = sub.add_parser("selftest", help="run the built-in oracle checks")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
