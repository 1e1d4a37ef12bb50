#!/usr/bin/env python3
"""Run the canonical double-slit scenarios at three coherence lengths and
print the trend table (mean SNR / MSE per coherence length and method).

Writes per-seed images and metrics under --out, plus <out>/<name>/trend.csv.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ghostbench import harness  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--m", type=int, default=500)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    seeds = tuple(int(s) for s in args.seeds.split(","))
    lc_list = (276.7e-6, 135.5e-6, 68.8e-6)
    for text in harness.double_slit_sweep_scenarios(lc_list=lc_list, m=args.m, seeds=seeds):
        scenario = harness.parse_scenario_text(text)
        print(f"running {scenario.name} (m={scenario.m}, {len(seeds)} seeds)")
        harness.run_scenario(scenario, args.out, threads=args.threads)

    base = harness.parse_scenario_text(
        harness.double_slit_sweep_scenarios(lc_list=lc_list[:1], m=args.m, seeds=seeds)[0])
    csv_text, verdicts = harness.trend_experiment(base, lc_list, out_dir=args.out,
                                                  threads=args.threads)
    print(csv_text)
    print("verdicts:", verdicts)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
