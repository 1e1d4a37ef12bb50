"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Heavy ensembles are shared
through session fixtures; every tolerance is fixed here, not tuned at runtime.
"""
import dataclasses
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ghostbench import forward, harness, metrics, optics, recon_gi, recon_gics, speckle
from ghostbench.forward import run_campaign
from ghostbench.optics import ObjectMask, SlitGeometry
from ghostbench.recon_gics import (GicsParams, SensingSystem, gpsr_solve,
                                   ista_reference, lasso_objective)

ROOT = Path(__file__).resolve().parents[1]

# Fig.-3 bench (criteria 1-4, 8 and 9): the committed slit sweep, whose
# coherence lengths, seeds, grid, slit, m and gics.tau the criteria use.
FIG3 = harness.load_scenario(ROOT / "experiments" / "slit_sweep.scn")
LC_LIST = tuple(config.coherence_length for config in FIG3.configs)
SEEDS = FIG3.seeds
CALIBRATION_SEED = 7


def report(num, description, ok):
    print(f"\n[acceptance] criterion {num} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({description}) failed"


def config_at(lc):
    return dataclasses.replace(FIG3.configs[0], coherence_length=lc)


@pytest.fixture(scope="session")
def speckle_calibration():
    """Per coherence length: (stats, central-pixel ensemble, elapsed seconds)."""
    out = {}
    for lc in LC_LIST:
        cfg = config_at(lc)
        start = time.perf_counter()
        frames = [speckle.synthesize_frame(cfg, CALIBRATION_SEED, i) for i in range(2000)]
        stats = speckle.intensity_stats(frames, cfg.pixel_pitch)
        elapsed = time.perf_counter() - start
        center = np.array([f[50, 50] for f in frames])
        out[lc] = (stats, center, elapsed)
    return out


@pytest.fixture(scope="session")
def fig_slit_runs():
    """Per (lc, seed) at the Fig.3 bench endpoints: images + metrics at its m and tau."""
    mask = FIG3.mask
    runs = {}
    elapsed = {}
    for lc in (LC_LIST[0], LC_LIST[2]):
        cfg = config_at(lc)
        start = time.perf_counter()
        for seed in SEEDS:
            ms, gi_raw = run_campaign(cfg, mask, FIG3.m, seed, fold=recon_gi.gi_from_blocks)
            gics_img, _ = recon_gics.gics_reconstruct(ms, FIG3.gics)
            runs[(lc, seed)] = {
                "gi": gi_raw,
                "gi_mse": metrics.mse(metrics.minmax_normalize(gi_raw), mask),
                "gics_mse": metrics.mse(metrics.minmax_normalize(gics_img), mask),
            }
        elapsed[lc] = time.perf_counter() - start
    return {"mask": mask, "runs": runs, "elapsed": elapsed}


def sparse_solver_instance(rng):
    design = rng.standard_normal((50, 200))
    truth = np.zeros(200)
    truth[rng.choice(200, 10, replace=False)] = rng.standard_normal(10)
    return SensingSystem.from_arrays(design, design @ truth)


def test_criterion_1_speckle_coherence_calibration(speckle_calibration):
    ok = True
    for lc in LC_LIST:
        stats, _, elapsed = speckle_calibration[lc]
        rel_err = abs(stats.measured_lc - lc) / lc
        print(f"  lc={lc*1e6:.1f}um measured={stats.measured_lc*1e6:.2f}um "
              f"err={rel_err:.2%} elapsed={elapsed:.1f}s")
        ok &= rel_err <= 0.10
        ok &= elapsed <= 60.0
    report(1, "speckle coherence calibration", ok)


def test_criterion_2_thermal_statistics(speckle_calibration):
    ok = True
    for lc in LC_LIST:
        stats, center, _ = speckle_calibration[lc]
        median_ratio = np.median(center) / (center.mean() * np.log(2.0))
        print(f"  lc={lc*1e6:.1f}um contrast={stats.contrast:.4f} "
              f"median/(mean*ln2)={median_ratio:.4f}")
        ok &= abs(stats.contrast - 1.0) <= 0.05
        ok &= abs(median_ratio - 1.0) <= 0.03
    report(2, "thermal statistics", ok)


def test_criterion_3_gi_point_spread_function():
    cfg = config_at(LC_LIST[0])
    values = np.zeros((100, 100))
    values[50, 50] = 1.0
    delta = ObjectMask(values)
    accumulated = None
    for seed in SEEDS:
        image = recon_gi.gi_from_blocks(forward.campaign_blocks(cfg, delta, 2000, seed))
        accumulated = image if accumulated is None else accumulated + image
    profile = metrics.minmax_normalize(accumulated)[50, :]
    lag = np.arange(100) - 50
    kernel = np.sinc(lag * cfg.pixel_pitch / LC_LIST[0]) ** 2
    design = np.column_stack([kernel, np.ones_like(kernel)])
    coef, *_ = np.linalg.lstsq(design, profile, rcond=None)
    resid = profile - design @ coef
    r2 = 1.0 - np.sum(resid**2) / np.sum((profile - profile.mean()) ** 2)
    print(f"  sinc^2 fit R^2 = {r2:.4f}")
    report(3, "GI point-spread function", r2 >= 0.95)


def test_criterion_4_double_slit_reproduction(fig_slit_runs):
    mask = fig_slit_runs["mask"]
    runs = fig_slit_runs["runs"]
    wide, narrow = LC_LIST[0], LC_LIST[2]

    mean_gi_wide = sum(runs[(wide, s)]["gi"] for s in SEEDS) / len(SEEDS)
    mean_gi_narrow = sum(runs[(narrow, s)]["gi"] for s in SEEDS) / len(SEEDS)
    pitch = FIG3.configs[0].pixel_pitch
    dip_wide, resolved_wide = metrics.slit_dip(mean_gi_wide, FIG3.slit_geometry, pitch)
    dip_narrow, resolved_narrow = metrics.slit_dip(mean_gi_narrow, FIG3.slit_geometry, pitch)
    gics_wide = np.mean([runs[(wide, s)]["gics_mse"] for s in SEEDS])
    gics_narrow = np.mean([runs[(narrow, s)]["gics_mse"] for s in SEEDS])
    total_elapsed = sum(fig_slit_runs["elapsed"].values())
    print(f"  GI dip at {wide*1e6:.1f}um: {dip_wide:.3f} (resolved={resolved_wide}); "
          f"at {narrow*1e6:.1f}um: {dip_narrow:.3f} (resolved={resolved_narrow})")
    print(f"  GICS MSE {narrow*1e6:.1f}um={gics_narrow:.5f} < {wide*1e6:.1f}um={gics_wide:.5f}; "
          f"elapsed={total_elapsed:.0f}s")
    ok = (dip_wide >= 0.8 and not resolved_wide
          and dip_narrow < 0.8 and resolved_narrow
          and gics_narrow < gics_wide
          and total_elapsed <= 300.0)
    report(4, "double-slit qualitative reproduction", ok)


def test_criterion_5_trend_verdicts(tmp_path):
    scenario = harness.load_scenario(ROOT / "experiments" / "trend_bench.scn")
    assert tuple(config.coherence_length for config in scenario.configs) == LC_LIST
    csv_text = (harness.run_scenario(scenario, tmp_path) / "trend.csv").read_text()
    verdicts = {}
    gi_snr_means = []
    gics_mse_means = []
    for line in csv_text.splitlines()[1:]:
        cells = line.split(",")
        if cells[0] == "verdict":
            verdicts[cells[1]] = cells[2] == "true"
            continue
        if cells[1] == "gi":
            gi_snr_means.append(float(cells[2]))
        else:
            gics_mse_means.append(float(cells[4]))
    print(f"  GI SNR means (lc desc): {['%.3f' % v for v in gi_snr_means]}")
    print(f"  GICS MSE means (lc desc): {['%.5f' % v for v in gics_mse_means]}")
    strict_gi = all(a > b for a, b in zip(gi_snr_means, gi_snr_means[1:]))
    strict_gics = all(a > b for a, b in zip(gics_mse_means, gics_mse_means[1:]))
    ok = (verdicts["monotone_gi_snr"] and verdicts["monotone_gics_mse"]
          and strict_gi and strict_gics
          and len(gi_snr_means) == 3 and len(gics_mse_means) == 3)
    report(5, "coherence-length trend verdicts", ok)


# exact_solve: the KKT gate below is not the stopping rule restated
@pytest.mark.usefixtures("exact_solve")
def test_criterion_6_solver_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    agree = 0
    kkt_ok = 0
    for _ in range(100):
        system = sparse_solver_instance(rng)
        scale = float(np.abs(system.rmatvec(system.rhs)).max())
        tau = 0.01 * scale
        x_gpsr, solve_report = gpsr_solve(system, GicsParams(tau=tau, max_iters=20000))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x_ista = ista_reference(system, tau, kkt_tol=1e-8)
        f_gpsr = lasso_objective(system, x_gpsr, tau)
        f_ista = lasso_objective(system, x_ista, tau)
        agree += abs(f_gpsr - f_ista) <= 1e-6 * max(f_ista, 1e-300)
        kkt_ok += solve_report.kkt_residual <= 1e-6 * scale
    elapsed = time.perf_counter() - start
    print(f"  objective agreement {agree}/100, kkt within gate {kkt_ok}/100, "
          f"elapsed={elapsed:.0f}s")
    report(6, "solver cross-validation",
           agree == 100 and kkt_ok >= 95 and elapsed <= 60.0)


@pytest.mark.usefixtures("exact_solve")
def test_criterion_7_analytic_solver_facts():
    rng = np.random.default_rng(99)
    system = sparse_solver_instance(rng)
    threshold = float(np.abs(system.rmatvec(system.rhs)).max())
    x_zero, _ = gpsr_solve(system, GicsParams(tau=threshold))
    zero_exact = not x_zero.any()

    design = rng.standard_normal((20, 5))
    rhs = design @ rng.standard_normal(5) + 0.1 * rng.standard_normal(20)
    over = SensingSystem.from_arrays(design, rhs)
    expected = np.linalg.solve(design.T @ design, design.T @ rhs)
    x_ls, _ = gpsr_solve(over, GicsParams(tau=0.0, max_iters=20000))
    ls_rel = float(np.linalg.norm(x_ls - expected) / np.linalg.norm(expected))
    print(f"  zero-solution exact: {zero_exact}; tau=0 LS relative error {ls_rel:.2e}")
    report(7, "analytic solver facts", zero_exact and ls_rel <= 1e-6)


def test_criterion_8_determinism(tmp_path, monkeypatch):
    scenario_text = """\
scenario.name = determinism
scenario.m = 20
scenario.seeds = 3,4
scenario.methods = gi,gics
scenario.mask = double_slit
scenario.slit_width_m = 60e-6
scenario.slit_height_m = 240e-6
scenario.slit_separation_m = 120e-6
optics.lc_target_m = 100e-6
optics.grid_n = 48
optics.pixel_pitch_m = 15e-6
gics.max_iters = 200
"""
    scenario = harness.parse_scenario_text(scenario_text, tmp_path)
    trees = []
    for label, workers in (("a", 1), ("b", 1), ("c", 3)):  # frame threads per campaign
        out = tmp_path / label
        monkeypatch.setattr(forward, "_frame_workers", lambda: workers)
        harness.run_scenario(scenario, out)
        trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    rerun_identical = trees[0] == trees[1]
    threads_identical = trees[0] == trees[2]

    cfg = config_at(100e-6)
    mask = optics.make_double_slit(config_at(100e-6), SlitGeometry(60e-6, 240e-6, 120e-6))
    ms = run_campaign(cfg, mask, 10, 5)
    order_independent = True
    for i in reversed(range(10)):
        frame = speckle.synthesize_frame(cfg, 5, i)
        order_independent &= bool(np.array_equal(ms.intensities[i], frame))
        order_independent &= bool(ms.buckets[i] == forward.bucket_measure(frame, mask))
    print(f"  rerun identical: {rerun_identical}; threads identical: {threads_identical}; "
          f"campaign frames order-independent: {order_independent}")
    report(8, "artifact determinism",
           rerun_identical and threads_identical and order_independent)


def test_criterion_9_gics_beats_gi_at_equal_budget(fig_slit_runs):
    runs = fig_slit_runs["runs"]
    narrow = LC_LIST[2]
    pairs = [(runs[(narrow, s)]["gics_mse"], runs[(narrow, s)]["gi_mse"]) for s in SEEDS]
    for gics_mse, gi_mse in pairs:
        print(f"  seed pair: GICS MSE={gics_mse:.5f} vs GI MSE={gi_mse:.5f}")
    report(9, "GICS beats GI at equal budget",
           all(gics_mse < gi_mse for gics_mse, gi_mse in pairs))
