#!/usr/bin/env python3
"""Run the canonical double slit at three coherence lengths as one trend,
slit_sweep, and print its table (mean SNR / MSE per coherence length and
method).  Each (coherence length, seed) campaign runs once.
"""
import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ghostbench import harness  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--m", type=int, default=500)
    parser.add_argument("--seeds", default="1,2,3,4,5", help="at least 2 seeds")
    args = parser.parse_args()

    seeds = tuple(int(s) for s in args.seeds.split(","))
    base = harness.parse_scenario_text(
        harness.double_slit_sweep_scenarios(m=args.m, seeds=seeds)[0])
    base = dataclasses.replace(base, name="slit_sweep")
    print(f"running {base.name} (m={base.m}, {len(seeds)} seeds per coherence length)")
    csv_text, verdicts = harness.trend_experiment(base, harness.SLIT_SWEEP_LCS, args.out)
    print(csv_text)
    print("verdicts:", verdicts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
