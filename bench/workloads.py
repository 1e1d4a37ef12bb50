"""The three benchmark workloads and the inputs each one is built from.

Every input is made here from the workload seed: the scenario texts come from
the harness's own recipes and the aperture graymap is drawn in pure Python, so
the program under test receives only generated files.  The campaign master
seeds are ``seed, seed + 1, ...``.
"""
from __future__ import annotations

import math
import random
from pathlib import Path

# Why each workload exists (mirrored in BENCHMARK.json):
#   canonical_slit  the user's canonical run; GPSR-bound in the nearly
#                   unregularised regime (tau 1e-3 ~ 6e-8 * ||A'b||inf).
#   aperture_gi     GI only on a graymap aperture: speckle, forward and
#                   recon_gi dominate and recon_gics never runs, so a solver
#                   change must show no effect here.
#   sparse_slit     the acceptance trend bench's geometry at its widest
#                   coherence length: the same solver in the regularised,
#                   sparse-solution regime (tau 6.0 ~ 3e-4 * ||A'b||inf), so a
#                   solver change that helps one regime and hurts the other
#                   shows.  Its GICS MSE varies least from seed to seed there.
# The full trend experiment (three coherence lengths, two seeds) is one call
# of 40-50 s on a 2-core machine: a single sample per run, too noisy to bound.
WORKLOADS = ("canonical_slit", "aperture_gi", "sparse_slit")

CANONICAL_LC = 68.8e-6
APERTURE_LC = 109.6e-6
SPARSE_LC = 276.7e-6
APERTURE_FILE = "aperture.pgm"
GRID_N = 100


def master_seeds(seed: int, count: int) -> tuple[int, ...]:
    base = seed % 2**32
    return tuple(base + i for i in range(count))


def aperture_pgm(seed: int, n: int = GRID_N) -> bytes:
    """Binary P5 graymap: a disk, a ring and a bar, each shifted by up to 3 px.

    Shifts this small keep the shapes disjoint and inside the field, so every
    seed's mask has the same area and the quality metrics stay comparable.
    """
    rng = random.Random(seed)
    dx1, dy1, dx2, dy2, dx3, dy3 = (rng.randint(-3, 3) for _ in range(6))
    raster = bytearray()
    for y in range(n):
        yy = y - n // 2
        for x in range(n):
            xx = x - n // 2
            disk = math.hypot(xx + 28 - dx1, yy + 18 - dy1) <= 9
            ring = abs(math.hypot(xx - 24 - dx2, yy + 14 - dy2) - 10) <= 3
            bar = abs(xx - dx3) <= 4 and abs(yy - 22 - dy3) <= 14
            inside = math.hypot(xx, yy) < n // 2
            raster.append(255 if (disk or ring or bar) and inside else 0)
    return b"P5\n%d %d\n255\n" % (n, n) + bytes(raster)


def _sparse_text(harness, ioutil, seeds) -> str:
    """The double-slit recipe moved onto the trend bench geometry."""
    text = harness.double_slit_sweep_scenarios(lc_list=(SPARSE_LC,), m=500, seeds=seeds,
                                               tau=6.0)[0]
    pairs = ioutil.parse_kv_text(text)
    pairs["scenario.name"] = "sparse_slit"
    # 3 mm field and a 0.5 mm slit: background limited by estimator noise and
    # a support well below m, so the solve is compressive.
    pairs["scenario.slit_height_m"] = "0.5e-3"
    pairs["optics.pixel_pitch_m"] = "30e-6"
    return ioutil.format_kv_text(pairs)


def write_inputs(workload: str, seed: int, inputs_dir: Path) -> Path:
    """Write the scenario (and graymap) for one workload; returns its path."""
    from ghostbench import harness, ioutil

    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload == "canonical_slit":
        text = harness.double_slit_sweep_scenarios(
            lc_list=(CANONICAL_LC,), m=500, seeds=master_seeds(seed, 1), tau=1e-3)[0]
    elif workload == "aperture_gi":
        (inputs_dir / APERTURE_FILE).write_bytes(aperture_pgm(seed))
        text = harness.aperture_sweep_scenarios(
            APERTURE_FILE, "gi", 2000, lc_list=(APERTURE_LC,), seeds=master_seeds(seed, 3))[0]
    elif workload == "sparse_slit":
        text = _sparse_text(harness, ioutil, master_seeds(seed, 1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    scenario_path = inputs_dir / "scenario.txt"
    scenario_path.write_text(text, encoding="utf-8")
    return scenario_path
