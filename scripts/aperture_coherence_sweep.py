#!/usr/bin/env python3
"""Image a synthetic transmission aperture at three coherence lengths,
GI with 2000 observations and GICS with 1000 measurements.

Without --mask it writes the shape-aperture graymap (disk, ring, bar) of the
benchmark's aperture_gi workload at seed 1, bench/workloads.aperture_pgm(1),
then runs the per-method scenario pairs.
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from ghostbench import harness, ioutil  # noqa: E402
from workloads import aperture_pgm  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--mask", default=None, help="100x100 graymap path (generated if omitted)")
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mask is None:
        mask_path = out / "aperture.pgm"
        ioutil.atomic_write_bytes(mask_path, aperture_pgm(1))
        print(f"wrote the seed-1 shape aperture to {mask_path}")
    else:
        mask_path = Path(args.mask)

    seeds = tuple(int(s) for s in args.seeds.split(","))
    for method, m in (("gi", 2000), ("gics", 1000)):
        for text in harness.aperture_sweep_scenarios(str(mask_path.resolve()), method, m,
                                                     seeds=seeds):
            scenario = harness.parse_scenario_text(text)
            print(f"running {scenario.name} (m={scenario.m})")
            harness.run_scenario(scenario, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
