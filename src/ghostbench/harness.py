"""Scenario runner: parse flat key=value scenario files, execute campaigns,
reconstruct with both methods, and emit images plus CSV metrics.

Scenario file keys (prefix.name, ``#`` comments):

  scenario.name            run name; used as the output directory ([A-Za-z0-9._-])
  scenario.m               measurements per seed (>= 2 when gi is requested)
  scenario.seeds           comma list of master seeds
  scenario.methods         subset of gi,gics (default both)
  scenario.noise_sigma     additive bucket noise std (default 0)
  scenario.mask            double_slit | pgm
  scenario.mask_pgm        graymap path, required for mask=pgm (relative to the file)
  scenario.slit_width_m    double-slit geometry (defaults 1e-4 / 1e-3 / 2e-4, centered)
  scenario.slit_height_m
  scenario.slit_separation_m
  scenario.slit_center_x_m
  scenario.slit_center_y_m
  optics.wavelength_m      bench geometry; give exactly one of source_width_m
  optics.z_m               or lc_target_m (source width derived as lambda*z/lc)
  optics.z1_m
  optics.source_width_m
  optics.lc_target_m
  optics.grid_n
  optics.pixel_pitch_m
  optics.source_oversample (optional)
  gics.tau, gics.max_iters, gics.tol_rel_obj, gics.bb_step_min,
  gics.bb_step_max, gics.debias, gics.nonneg   (optional solver knobs)

Outputs land in <out>/<name>/<seed>/: truth.pgm, gi.pgm, gics.pgm,
gi_raw.csv, gics_raw.csv, metrics.csv, solve.csv.  All files are written
atomically and are a pure function of the scenario file bytes.
"""
from __future__ import annotations

import dataclasses
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ioutil, metrics, optics, recon_gi, recon_gics
from .errors import ConfigError
from .forward import MeasurementSet, bucket_measure, run_campaign
from .optics import ObjectMask, OpticalConfig, SlitGeometry
from .recon_gics import GicsParams
from .speckle import synthesize_frame

METRICS_HEADER = "scenario,lc_m,m,method,seed,snr,mse,psnr,dip_ratio,resolved"
TREND_HEADER = "lc_m,method,snr_mean,snr_std,mse_mean,mse_std"

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")

_SCENARIO_KEYS = {
    "scenario.name", "scenario.m", "scenario.seeds", "scenario.methods",
    "scenario.noise_sigma", "scenario.mask", "scenario.mask_pgm",
    "scenario.slit_width_m", "scenario.slit_height_m", "scenario.slit_separation_m",
    "scenario.slit_center_x_m", "scenario.slit_center_y_m",
}
_OPTICS_KEYS = {
    "optics.wavelength_m", "optics.z_m", "optics.z1_m", "optics.source_width_m",
    "optics.lc_target_m", "optics.grid_n", "optics.pixel_pitch_m",
    "optics.source_oversample",
}
_GICS_KEYS = {
    "gics.tau", "gics.max_iters", "gics.tol_rel_obj", "gics.bb_step_min",
    "gics.bb_step_max", "gics.debias", "gics.nonneg",
}


@dataclass(frozen=True)
class Scenario:
    name: str
    config: OpticalConfig
    mask: ObjectMask
    slit_geometry: SlitGeometry | None
    m: int
    methods: tuple[str, ...]
    gics: GicsParams
    seeds: tuple[int, ...]
    noise_sigma: float

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("scenario m must be >= 1")
        if "gi" in self.methods and self.m < 2:
            raise ConfigError("gi reconstruction needs m >= 2")
        if not self.seeds:
            raise ConfigError("scenario needs at least one seed")
        if not self.methods:
            raise ConfigError("scenario needs at least one method")


def _require(pairs: dict[str, str], key: str) -> str:
    if key not in pairs:
        raise ConfigError(f"missing scenario key {key!r}")
    return pairs[key]


def _parse_float(pairs, key, default=None) -> float:
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing scenario key {key!r}")
        return default
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {pairs[key]!r}") from None


def _parse_int(pairs, key, default=None) -> int:
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing scenario key {key!r}")
        return default
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {pairs[key]!r}") from None


def _parse_bool(pairs, key, default: bool) -> bool:
    if key not in pairs:
        return default
    token = pairs[key].lower()
    if token in ("true", "1", "yes", "on"):
        return True
    if token in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {pairs[key]!r}")


def parse_scenario_text(text: str, base_dir: str | Path = ".") -> Scenario:
    pairs = ioutil.parse_kv_text(text)
    known = _SCENARIO_KEYS | _OPTICS_KEYS | _GICS_KEYS
    unknown = set(pairs) - known
    if unknown:
        raise ConfigError(f"unknown scenario key(s): {', '.join(sorted(unknown))}")

    name = _require(pairs, "scenario.name")
    if not _NAME_RE.match(name):
        raise ConfigError(f"scenario.name {name!r} must match [A-Za-z0-9._-]+")

    wavelength = _parse_float(pairs, "optics.wavelength_m")
    z = _parse_float(pairs, "optics.z_m")
    z1 = _parse_float(pairs, "optics.z1_m")
    grid_n = _parse_int(pairs, "optics.grid_n")
    pitch = _parse_float(pairs, "optics.pixel_pitch_m")
    oversample = _parse_int(pairs, "optics.source_oversample", default=4)
    has_width = "optics.source_width_m" in pairs
    has_lc = "optics.lc_target_m" in pairs
    if has_width == has_lc:
        raise ConfigError("give exactly one of optics.source_width_m or optics.lc_target_m")
    if has_lc:
        lc = _parse_float(pairs, "optics.lc_target_m")
        if lc <= 0:
            raise ConfigError("optics.lc_target_m must be positive")
        source_width = wavelength * z / lc
    else:
        source_width = _parse_float(pairs, "optics.source_width_m")
    config = OpticalConfig(wavelength, z, z1, source_width, grid_n, pitch,
                           source_oversample=oversample)

    mask_kind = _require(pairs, "scenario.mask")
    slit_geometry = None
    if mask_kind == "double_slit":
        slit_geometry = SlitGeometry(
            width=_parse_float(pairs, "scenario.slit_width_m", default=1e-4),
            height=_parse_float(pairs, "scenario.slit_height_m", default=1e-3),
            separation=_parse_float(pairs, "scenario.slit_separation_m", default=2e-4),
            center=(_parse_float(pairs, "scenario.slit_center_x_m", default=0.0),
                    _parse_float(pairs, "scenario.slit_center_y_m", default=0.0)),
        )
        mask = optics.make_double_slit(config, slit_geometry.width, slit_geometry.height,
                                       slit_geometry.separation, slit_geometry.center)
    elif mask_kind == "pgm":
        if "scenario.mask_pgm" not in pairs:
            raise ConfigError("mask=pgm requires scenario.mask_pgm")
        pgm_path = Path(base_dir) / pairs["scenario.mask_pgm"]
        if not pgm_path.is_file():
            raise ConfigError(f"mask graymap {pgm_path} does not exist")
        mask = optics.load_mask_pgm(pgm_path, config)
    else:
        raise ConfigError(f"scenario.mask must be double_slit or pgm, got {mask_kind!r}")

    methods_text = pairs.get("scenario.methods", "gi,gics")
    seen = []
    for token in methods_text.split(","):
        token = token.strip().lower()
        if token not in ("gi", "gics"):
            raise ConfigError(f"unknown method {token!r} (want gi or gics)")
        if token not in seen:
            seen.append(token)
    methods = tuple(t for t in ("gi", "gics") if t in seen)

    seed_tokens = [t.strip() for t in _require(pairs, "scenario.seeds").split(",") if t.strip()]
    if not seed_tokens:
        raise ConfigError("scenario.seeds must list at least one seed")
    try:
        seeds = tuple(int(t) for t in seed_tokens)
    except ValueError:
        raise ConfigError("scenario.seeds must be a comma list of integers") from None
    if any(s < 0 for s in seeds):
        raise ConfigError("seeds must be non-negative")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("scenario.seeds contains duplicates")

    gics = GicsParams(
        tau=_parse_float(pairs, "gics.tau", default=1e-3),
        max_iters=_parse_int(pairs, "gics.max_iters", default=2000),
        tol_rel_obj=_parse_float(pairs, "gics.tol_rel_obj", default=1e-8),
        bb_step_min=_parse_float(pairs, "gics.bb_step_min", default=1e-30),
        bb_step_max=_parse_float(pairs, "gics.bb_step_max", default=1e30),
        debias=_parse_bool(pairs, "gics.debias", default=False),
        nonneg=_parse_bool(pairs, "gics.nonneg", default=False),
    )

    noise_sigma = _parse_float(pairs, "scenario.noise_sigma", default=0.0)
    if noise_sigma < 0 or not math.isfinite(noise_sigma):
        raise ConfigError("scenario.noise_sigma must be finite and non-negative")

    return Scenario(name=name, config=config, mask=mask, slit_geometry=slit_geometry,
                    m=_parse_int(pairs, "scenario.m"), methods=methods, gics=gics,
                    seeds=seeds, noise_sigma=noise_sigma)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario_text(text, base_dir=path.parent)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_image_pgm(values: np.ndarray, path: Path) -> None:
    normalized = metrics.minmax_normalize(values)
    ioutil.write_pgm(path, np.rint(normalized * 65535).astype(np.int64), 65535)


def _seed_metrics(scenario: Scenario, seed: int, ms: MeasurementSet) -> tuple[list[dict], dict]:
    """Reconstruct with the requested methods; return metric rows and artifacts."""
    lc = optics.coherence_length(scenario.config)
    rows = []
    artifacts = {}
    for method in scenario.methods:
        if method == "gi":
            image = recon_gi.gi_reconstruct(ms)
            raw = image.values
        else:
            image, report = recon_gics.gics_reconstruct(ms, scenario.gics)
            raw = image.values
            artifacts["solve_report"] = report
        artifacts[method] = raw
        dip_ratio = resolved = None
        if scenario.slit_geometry is not None:
            dip_ratio, resolved = metrics.slit_dip(raw, scenario.slit_geometry,
                                                   scenario.config.pixel_pitch)
        rows.append({
            "scenario": scenario.name,
            "lc_m": lc,
            "m": scenario.m,
            "method": method,
            "seed": seed,
            "snr": metrics.recon_snr(raw, scenario.mask),
            "mse": metrics.mse(metrics.minmax_normalize(raw), scenario.mask),
            "psnr": metrics.psnr(metrics.minmax_normalize(raw), scenario.mask),
            "dip_ratio": dip_ratio,
            "resolved": resolved,
        })
    return rows, artifacts


def _run_seed(scenario: Scenario, seed: int, scenario_dir: Path) -> None:
    seed_dir = scenario_dir / str(seed)
    seed_dir.mkdir(parents=True, exist_ok=True)
    ms = run_campaign(scenario.config, scenario.mask, scenario.m, seed,
                      noise_sigma=scenario.noise_sigma)
    rows, artifacts = _seed_metrics(scenario, seed, ms)
    optics.save_mask_pgm(scenario.mask, seed_dir / "truth.pgm", maxval=65535)
    if "gi" in artifacts:
        _write_image_pgm(artifacts["gi"], seed_dir / "gi.pgm")
        recon_gi.write_image_csv(artifacts["gi"], seed_dir / "gi_raw.csv")
    if "gics" in artifacts:
        _write_image_pgm(artifacts["gics"], seed_dir / "gics.pgm")
        recon_gi.write_image_csv(artifacts["gics"], seed_dir / "gics_raw.csv")
        recon_gics.write_solve_csv(artifacts["solve_report"], seed_dir / "solve.csv")
    lines = [METRICS_HEADER]
    for row in rows:
        lines.append(",".join(_format_cell(row[k]) for k in METRICS_HEADER.split(",")))
    ioutil.atomic_write_text(seed_dir / "metrics.csv", "\n".join(lines) + "\n")


def run_scenario(scenario: Scenario, out_dir: str | Path, threads: int = 1) -> Path:
    """Run every seed; returns the scenario output directory."""
    scenario_dir = Path(out_dir) / scenario.name
    scenario_dir.mkdir(parents=True, exist_ok=True)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda s: _run_seed(scenario, s, scenario_dir), scenario.seeds))
    else:
        for seed in scenario.seeds:
            _run_seed(scenario, seed, scenario_dir)
    return scenario_dir


def trend_experiment(scenario: Scenario, lc_list, seeds, out_dir: str | Path | None = None,
                     threads: int = 1):
    """Mean/std of SNR and MSE per (coherence length, method) over the seeds.

    Coherence lengths are canonicalized to descending order.  Appends one
    machine-checkable verdict row per method: monotone_gi_snr true iff the
    mean GI SNR is non-increasing as l_c decreases, monotone_gics_mse likewise
    for the mean GICS MSE.  Returns (csv_text, verdicts dict); also writes
    <out>/<name>/trend.csv when out_dir is given.
    """
    lc_values = sorted((float(v) for v in lc_list), reverse=True)
    seeds = tuple(int(s) for s in seeds)
    if len(lc_values) < 2:
        raise ConfigError("trend experiment needs at least 2 coherence lengths")
    if len(seeds) < 2:
        raise ConfigError("trend experiment needs at least 2 seeds")
    if any(v <= 0 for v in lc_values):
        raise ConfigError("coherence lengths must be positive")

    jobs = [(lc, seed) for lc in lc_values for seed in seeds]

    def run_one(job):
        lc, seed = job
        cfg = optics.config_for_coherence_length(scenario.config, lc)
        scen = dataclasses.replace(scenario, config=cfg)
        ms = run_campaign(cfg, scen.mask, scen.m, seed, noise_sigma=scen.noise_sigma)
        rows, _ = _seed_metrics(scen, seed, ms)
        return {row["method"]: row for row in rows}

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(job) for job in jobs]
    by_job = dict(zip(jobs, results))

    lines = [TREND_HEADER]
    means: dict[str, list[float]] = {"gi_snr": [], "gics_mse": []}
    for lc in lc_values:
        for method in scenario.methods:
            snrs = np.array([by_job[(lc, s)][method]["snr"] for s in seeds])
            mses = np.array([by_job[(lc, s)][method]["mse"] for s in seeds])
            if method == "gi":
                means["gi_snr"].append(float(snrs.mean()))
            else:
                means["gics_mse"].append(float(mses.mean()))
            lines.append(",".join([
                repr(lc), method, repr(float(snrs.mean())), repr(float(snrs.std())),
                repr(float(mses.mean())), repr(float(mses.std())),
            ]))

    def non_increasing(series):
        return all(a >= b for a, b in zip(series, series[1:]))

    verdicts = {}
    if "gi" in scenario.methods:
        verdicts["monotone_gi_snr"] = non_increasing(means["gi_snr"])
    if "gics" in scenario.methods:
        verdicts["monotone_gics_mse"] = non_increasing(means["gics_mse"])
    for key in sorted(verdicts):
        lines.append(f"verdict,{key},{_format_cell(verdicts[key])},,,")
    csv_text = "\n".join(lines) + "\n"

    if out_dir is not None:
        scenario_dir = Path(out_dir) / scenario.name
        scenario_dir.mkdir(parents=True, exist_ok=True)
        ioutil.atomic_write_text(scenario_dir / "trend.csv", csv_text)
    return csv_text, verdicts


def double_slit_sweep_scenarios(lc_list=(276.7e-6, 135.5e-6, 68.8e-6), m: int = 500,
                                seeds=(1, 2, 3, 4, 5), tau: float = 1e-3) -> list[str]:
    """Built-in recipe: the standard double slit at several coherence lengths."""
    texts = []
    for lc in lc_list:
        texts.append(
            f"scenario.name = slit_lc{round(lc * 1e6)}um\n"
            f"scenario.m = {m}\n"
            f"scenario.seeds = {','.join(str(s) for s in seeds)}\n"
            "scenario.methods = gi,gics\n"
            "scenario.mask = double_slit\n"
            "scenario.slit_width_m = 1e-4\n"
            "scenario.slit_height_m = 1e-3\n"
            "scenario.slit_separation_m = 2e-4\n"
            "optics.wavelength_m = 650e-9\n"
            "optics.z_m = 0.4\n"
            "optics.z1_m = 0.5\n"
            f"optics.lc_target_m = {lc!r}\n"
            "optics.grid_n = 100\n"
            "optics.pixel_pitch_m = 15e-6\n"
            f"gics.tau = {tau!r}\n")
    return texts


def aperture_sweep_scenarios(mask_pgm: str, method: str, m: int,
                             lc_list=(272.2e-6, 193.5e-6, 109.6e-6),
                             seeds=(1, 2, 3, 4, 5), tau: float = 1e-3) -> list[str]:
    """Built-in recipe: a graymap aperture at several coherence lengths.

    The two reconstruction methods historically use different budgets, so the
    recipe is per-method (a scenario carries a single m).
    """
    if method not in ("gi", "gics"):
        raise ConfigError("method must be gi or gics")
    texts = []
    for lc in lc_list:
        texts.append(
            f"scenario.name = aperture_{method}_lc{round(lc * 1e6)}um\n"
            f"scenario.m = {m}\n"
            f"scenario.seeds = {','.join(str(s) for s in seeds)}\n"
            f"scenario.methods = {method}\n"
            "scenario.mask = pgm\n"
            f"scenario.mask_pgm = {mask_pgm}\n"
            "optics.wavelength_m = 650e-9\n"
            "optics.z_m = 0.4\n"
            "optics.z1_m = 0.5\n"
            f"optics.lc_target_m = {lc!r}\n"
            "optics.grid_n = 100\n"
            "optics.pixel_pitch_m = 15e-6\n"
            f"gics.tau = {tau!r}\n")
    return texts


def selftest(verbose: bool = True) -> bool:
    """Quick oracle checks of the core numerics; returns True when all pass."""
    checks = []

    def record(name, ok):
        checks.append(ok)
        if verbose:
            print(f"selftest {name}: {'ok' if ok else 'FAIL'}")

    config = OpticalConfig(650e-9, 0.4, 0.5, 9.397e-4, 100, 15e-6)
    mask = optics.make_double_slit(config, 1e-4, 1e-3, 2e-4)
    per_slit_cols = 7
    rows_tall = 67
    record("double-slit raster counts",
           int(mask.values.sum()) == 2 * per_slit_cols * rows_tall)

    frame = synthesize_frame(config, 11, 0)
    brute = 0.0
    for i in range(config.grid_n):
        for j in range(config.grid_n):
            brute += frame[i, j] * mask.values[i, j]
    record("bucket two-loop oracle",
           abs(bucket_measure(frame, mask) - brute) <= 1e-9 * max(brute, 1.0))

    again = synthesize_frame(config, 11, 0)
    record("speckle determinism", np.array_equal(frame, again))

    rng = np.random.default_rng(42)
    design = rng.standard_normal((30, 80))
    truth = np.zeros(80)
    truth[rng.choice(80, 5, replace=False)] = rng.standard_normal(5)
    sensing = recon_gics.SensingSystem.from_arrays(design, design @ truth)
    tau = 0.01 * float(np.abs(sensing.rows.T @ sensing.rhs).max())
    x_gpsr, report = recon_gics.gpsr_solve(sensing, GicsParams(tau=tau))
    x_ista = recon_gics.ista_reference(sensing, tau, kkt_tol=1e-9)
    f_gpsr = recon_gics.lasso_objective(sensing.rows, sensing.rhs, x_gpsr, tau)
    f_ista = recon_gics.lasso_objective(sensing.rows, sensing.rhs, x_ista, tau)
    record("solver cross-check", abs(f_gpsr - f_ista) <= 1e-6 * max(f_ista, 1e-300))

    big_tau = float(np.abs(sensing.rows.T @ sensing.rhs).max())
    x_zero, _ = recon_gics.gpsr_solve(sensing, GicsParams(tau=big_tau))
    record("l1 zero-solution threshold", not x_zero.any())

    return all(checks)
