"""Command-line front end.

  ghostbench run <scenario.file> [--out DIR]

``run`` runs the file's scenario; when its ``optics.lc_target_m`` lists two
or more coherence lengths it writes the sweep layout and trend table (see
``harness``) and prints one ``<verdict>=true|false`` line per verdict row.
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
        scenario_dir = harness.run_scenario(scenario, _default_out(args.out))
    except Exception as exc:  # noqa: BLE001 - surface one line, signal via exit code
        return _fail(f"runtime error: {exc}", EXIT_RUNTIME)
    if len(scenario.configs) > 1:
        for line in (scenario_dir / "trend.csv").read_text(encoding="utf-8").splitlines():
            if line.startswith("verdict,"):
                key, value = line.split(",")[1:3]
                print(f"{key}={value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghostbench",
                                     description="pseudo-thermal ghost imaging bench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario file (a sweep when it lists 2+ l_c)")
    run.add_argument("scenario")
    run.add_argument("--out", default=None, help="output directory (default $GHOSTBENCH_OUT or ./out)")
    run.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
