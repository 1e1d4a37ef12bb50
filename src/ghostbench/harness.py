"""Scenario runner: parse flat key=value scenario files, run campaigns,
reconstruct with both methods, and emit images plus CSV metrics.

A scenario file is ``prefix.name = value`` lines with ``#`` comments.  Its keys,
their defaults and one line of documentation each are the rows of ``SCHEMA``;
any other key is rejected.  Of the GICS solver a scenario sets only
``gics.tau`` and ``gics.max_iters``.  The source is given by its coherence
length on the object plane, ``optics.lc_target_m``; a physical setup converts
with l_c = lambda * z / D.  Give ``scenario.mask_pgm`` (relative to the file)
when ``scenario.mask = pgm``.  A source aperture spanning fewer than
``speckle.MIN_APERTURE_SAMPLES`` source samples is a parse error, and so is a
seed list that ``Scenario`` rejects (empty, outside [0, 2**64) or repeated);
``run`` and ``trend`` both use ``scenario.seeds``.

Outputs land in <out>/<name>/<seed>/: truth.pgm, gi.pgm, gics.pgm,
gi_raw.csv, gics_raw.csv, metrics.csv, solve.csv.  All files are written
atomically and are a pure function of the scenario file bytes and of the BLAS
thread count the process inherits; that count matters for the GICS files only
(``recon_gics.SensingSystem.matvec`` sums in the order of OpenBLAS's threads).

Seeds (and a trend's (l_c, seed) jobs) run one at a time, in order.  Each
campaign is made in blocks of ``forward._BLOCK_FRAMES`` (8) frames, and each
block's frames on the usable CPUs (``parallel_frames``, see
``forward.campaign_blocks``); that is safe here because no other thread uses
BLAS meanwhile, and it adds one set of synthesis temporaries per frame
thread.  A run with gics holds its campaign as one pixel-major (grid_n**2, m)
stack, which GICS solves on, plus one block while the stack is filled; a
GI-only run folds the campaign block by block and holds O(grid_n**2) plus one
block, whatever m is.
"""
from __future__ import annotations

import dataclasses
import logging
import math
import re
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ioutil, metrics, optics, recon_gi, recon_gics
from .errors import ConfigError
from .forward import _make_frames, bucket_measure, campaign_blocks, run_campaign
from .optics import ObjectMask, OpticalConfig, SlitGeometry
from .recon_gics import GicsParams
from .speckle import SEED_LIMIT, checked_aperture_samples, synthesize_frame

METRICS_HEADER = "scenario,lc_m,m,method,seed,snr,mse,psnr,dip_ratio,resolved"
TREND_HEADER = "lc_m,method,snr_mean,snr_std,mse_mean,mse_std"

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_log = logging.getLogger("ghostbench")

REQUIRED = object()  # default of a key the scenario file must give


@dataclass(frozen=True)
class Key:
    """One scenario key: parser of its text value, default (or REQUIRED), doc line."""

    parse: Callable[[str], object]
    default: object
    doc: str


def _name(text: str) -> str:
    if not _NAME_RE.match(text):
        raise ValueError("must match [A-Za-z0-9._-]+")
    return text


def _comma_list(text: str) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _methods(text: str) -> tuple[str, ...]:
    tokens = {token.lower() for token in _comma_list(text)}
    unknown = tokens - {"gi", "gics"}
    if unknown:
        raise ValueError(f"unknown method(s) {', '.join(sorted(unknown))} (want gi or gics)")
    return tuple(method for method in ("gi", "gics") if method in tokens)


def _length(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("must be a positive finite length")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _seeds(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in _comma_list(text))


_PARSER_BY_TYPE = {int: int, float: float}
_GICS_DOCS = {
    "tau": "l1 weight of the convex program",
    "max_iters": "iteration cap of the GPSR-BB solve",
}

SCHEMA: dict[str, Key] = {
    "scenario.name": Key(_name, REQUIRED, "run name and output directory, [A-Za-z0-9._-]+"),
    "scenario.m": Key(int, REQUIRED, "measurements per seed (>= 2 when gi is requested)"),
    "scenario.seeds": Key(_seeds, REQUIRED, "comma list of distinct master seeds in [0, 2**64)"),
    "scenario.methods": Key(_methods, ("gi", "gics"), "comma list, subset of gi,gics"),
    "scenario.noise_sigma": Key(float, 0.0, "std of additive Gaussian bucket noise"),
    "scenario.mask": Key(str, REQUIRED, "double_slit or pgm"),
    "scenario.mask_pgm": Key(str, None, "graymap path relative to the file; needed for mask=pgm"),
    "scenario.slit_width_m": Key(_length, 1e-4, "width of each slit"),
    "scenario.slit_height_m": Key(_length, 1e-3, "height of each slit"),
    "scenario.slit_separation_m": Key(_length, 2e-4, "distance between the slit centers"),
    "scenario.slit_center_x_m": Key(_finite, 0.0, "x of the midpoint between the slits"),
    "scenario.slit_center_y_m": Key(_finite, 0.0, "y of the slit centers"),
    "optics.lc_target_m": Key(_length, REQUIRED, "coherence length l_c on the object plane"),
    "optics.grid_n": Key(int, REQUIRED, "pixels per side of the object and reference grids"),
    "optics.pixel_pitch_m": Key(_length, REQUIRED, "pixel pitch on both grids"),
    "optics.source_oversample": Key(int, OpticalConfig.source_oversample,
                                    "source-plane samples per grid pixel"),
    **{f"gics.{field.name}": Key(_PARSER_BY_TYPE[type(field.default)], field.default,
                                 _GICS_DOCS[field.name])
       for field in dataclasses.fields(GicsParams)},
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
        if not all(0 <= seed < SEED_LIMIT for seed in self.seeds):
            raise ConfigError("scenario seeds must lie in [0, 2**64)")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("scenario seed list contains duplicates")
        if not self.methods:
            raise ConfigError("scenario needs at least one method")


def parse_scenario_text(text: str, base_dir: str | Path = ".") -> Scenario:
    pairs = ioutil.parse_kv_text(text)
    unknown = set(pairs) - set(SCHEMA)
    if unknown:
        raise ConfigError(f"unknown scenario key(s): {', '.join(sorted(unknown))}")
    values = {}
    for key, row in SCHEMA.items():
        if key not in pairs:
            if row.default is REQUIRED:
                raise ConfigError(f"missing scenario key {key!r}")
            values[key] = row.default
            continue
        try:
            values[key] = row.parse(pairs[key])
        except ValueError as exc:
            raise ConfigError(f"{key} = {pairs[key]!r}: {exc}") from None

    config = OpticalConfig(values["optics.lc_target_m"], values["optics.grid_n"],
                           values["optics.pixel_pitch_m"], values["optics.source_oversample"])
    checked_aperture_samples(config)

    mask_kind = values["scenario.mask"]
    slit_geometry = None
    if mask_kind == "double_slit":
        slit_geometry = SlitGeometry(
            width=values["scenario.slit_width_m"],
            height=values["scenario.slit_height_m"],
            separation=values["scenario.slit_separation_m"],
            center=(values["scenario.slit_center_x_m"], values["scenario.slit_center_y_m"]),
        )
        mask = optics.make_double_slit(config, slit_geometry)
    elif mask_kind == "pgm":
        if values["scenario.mask_pgm"] is None:
            raise ConfigError("mask=pgm requires scenario.mask_pgm")
        pgm_path = Path(base_dir) / values["scenario.mask_pgm"]
        if not pgm_path.is_file():
            raise ConfigError(f"mask graymap {pgm_path} does not exist")
        mask = optics.load_mask_pgm(pgm_path, config)
    else:
        raise ConfigError(f"scenario.mask must be double_slit or pgm, got {mask_kind!r}")

    noise_sigma = values["scenario.noise_sigma"]
    if noise_sigma < 0 or not math.isfinite(noise_sigma):
        raise ConfigError("scenario.noise_sigma must be finite and non-negative")

    gics = GicsParams(**{field.name: values[f"gics.{field.name}"]
                         for field in dataclasses.fields(GicsParams)})
    return Scenario(name=values["scenario.name"], config=config, mask=mask,
                    slit_geometry=slit_geometry, m=values["scenario.m"],
                    methods=values["scenario.methods"], gics=gics,
                    seeds=values["scenario.seeds"], noise_sigma=noise_sigma)


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
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(_format_cell(item) for item in value)
    return str(value)


def _write_image_pgm(values: np.ndarray, path: Path) -> None:
    normalized = metrics.minmax_normalize(values)
    ioutil.write_pgm(path, np.rint(normalized * 65535).astype(np.int64), 65535)


def _seed_metrics(scenario: Scenario, seed: int) -> tuple[list[dict], dict]:
    """Run the seed's campaign, reconstruct with the requested methods; return
    metric rows and artifacts.

    GICS needs the whole stack, so with "gics" requested the campaign is one
    ``MeasurementSet``, and GI folds its blocks while they are stored.  GI
    alone folds the campaign's blocks as they are made and no stack is
    allocated.  Both give the same GI image.
    """
    lc = scenario.config.coherence_length
    campaign = (scenario.config, scenario.mask, scenario.m, seed, scenario.noise_sigma)
    ms = gi = None
    if "gics" not in scenario.methods:
        gi = recon_gi.gi_from_blocks(campaign_blocks(*campaign, parallel_frames=True))
    elif "gi" in scenario.methods:
        ms, gi = run_campaign(*campaign, fold=recon_gi.gi_from_blocks, parallel_frames=True)
    else:
        ms = run_campaign(*campaign, parallel_frames=True)
    rows = []
    artifacts = {}
    for method in scenario.methods:
        if method == "gi":
            raw = gi
        else:
            raw, report = recon_gics.gics_reconstruct(ms, scenario.gics)
            artifacts["solve_report"] = report
            if not report.converged:
                stop = (f"at its {report.iterations}-iteration cap without converging"
                        if report.iterations == scenario.gics.max_iters else
                        f"after {report.iterations} iterations without meeting its KKT rule")
                _log.warning("%s l_c %.4g m seed %d: GICS solve stopped %s "
                             "(KKT residual %.3g x ||A'b||inf)", scenario.name, lc, seed, stop,
                             report.kkt_residual / report.atb_inf)
        artifacts[method] = raw
        dip_ratio = resolved = None
        if scenario.slit_geometry is not None:
            try:
                dip_ratio, resolved = metrics.slit_dip(raw, scenario.slit_geometry,
                                                       scenario.config.pixel_pitch)
            except metrics.PeaksNotLocatable:  # e.g. the zero GICS image of a large tau
                resolved = False
        normalized = metrics.minmax_normalize(raw)
        rows.append({
            "scenario": scenario.name,
            "lc_m": lc,
            "m": scenario.m,
            "method": method,
            "seed": seed,
            "snr": metrics.recon_snr(raw, scenario.mask),
            "mse": metrics.mse(normalized, scenario.mask),
            "psnr": metrics.psnr(normalized, scenario.mask),
            "dip_ratio": dip_ratio,
            "resolved": resolved,
        })
    return rows, artifacts


def _run_seed(scenario: Scenario, seed: int, scenario_dir: Path) -> None:
    rows, artifacts = _seed_metrics(scenario, seed)
    seed_dir = scenario_dir / str(seed)  # made once the seed's work has succeeded
    seed_dir.mkdir(parents=True, exist_ok=True)
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
    """Run every seed, one at a time; returns the scenario output directory.

    ``threads`` is kept because existing callers (the benchmark among them)
    pass ``threads=1``; any other value is a ``ConfigError``.
    """
    if threads != 1:
        raise ConfigError(f"threads must be 1 (seeds run one at a time), got {threads!r}")
    scenario_dir = Path(out_dir) / scenario.name
    scenario_dir.mkdir(parents=True, exist_ok=True)
    for seed in scenario.seeds:
        _run_seed(scenario, seed, scenario_dir)
    return scenario_dir


def trend_experiment(scenario: Scenario, lc_list, out_dir: str | Path | None = None):
    """Mean/std of SNR and MSE per (coherence length, method) over ``scenario.seeds``.

    Coherence lengths are canonicalized to descending order; they must be
    distinct, and each must give a source aperture of at least
    MIN_APERTURE_SAMPLES source samples.  The scenario needs at least 2 seeds.
    All of this is checked before any campaign runs.  Appends one
    machine-checkable verdict row per method: monotone_gi_snr true iff the
    mean GI SNR is non-increasing as l_c decreases, monotone_gics_mse likewise
    for the mean GICS MSE.  Returns (csv_text, verdicts dict); also writes
    <out>/<name>/trend.csv when out_dir is given.
    """
    lc_values = sorted((float(v) for v in lc_list), reverse=True)
    seeds = scenario.seeds
    if len(lc_values) < 2:
        raise ConfigError("trend experiment needs at least 2 coherence lengths")
    if len(seeds) < 2:
        raise ConfigError("trend experiment needs at least 2 seeds")
    if not all(v > 0 and math.isfinite(v) for v in lc_values):
        raise ConfigError("coherence lengths must be positive and finite")
    if len(set(lc_values)) != len(lc_values):
        raise ConfigError("coherence lengths must be distinct")
    configs = {lc: dataclasses.replace(scenario.config, coherence_length=lc)
               for lc in lc_values}
    for lc, cfg in configs.items():
        try:
            checked_aperture_samples(cfg)
        except ConfigError as exc:
            raise ConfigError(f"coherence length {lc!r}: {exc}") from None

    by_job = {}
    for lc in lc_values:
        for seed in seeds:
            rows, _ = _seed_metrics(dataclasses.replace(scenario, config=configs[lc]), seed)
            by_job[(lc, seed)] = {row["method"]: row for row in rows}

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


# Bench geometry shared by the built-in recipes.
_BENCH_GEOMETRY = {"optics.grid_n": 100, "optics.pixel_pitch_m": 15e-6}


def _recipe_text(values: dict[str, object]) -> str:
    """Scenario text for ``values``, leaving out every key that equals its default."""
    return ioutil.format_kv_text({key: _format_cell(value) for key, value in values.items()
                                  if value != SCHEMA[key].default})


def double_slit_sweep_scenarios(lc_list=(276.7e-6, 135.5e-6, 68.8e-6), m: int = 500,
                                seeds=(1, 2, 3, 4, 5), tau: float = 1e-3) -> list[str]:
    """Built-in recipe: the standard double slit at several coherence lengths."""
    return [_recipe_text({"scenario.name": f"slit_lc{round(lc * 1e6)}um", "scenario.m": m,
                          "scenario.seeds": tuple(seeds), "scenario.mask": "double_slit",
                          **_BENCH_GEOMETRY, "optics.lc_target_m": lc, "gics.tau": tau})
            for lc in lc_list]


def aperture_sweep_scenarios(mask_pgm: str, method: str, m: int,
                             lc_list=(272.2e-6, 193.5e-6, 109.6e-6),
                             seeds=(1, 2, 3, 4, 5), tau: float = 1e-3) -> list[str]:
    """Built-in recipe: a graymap aperture at several coherence lengths.

    The two reconstruction methods historically use different budgets, so the
    recipe is per-method (a scenario carries a single m).
    """
    if method not in ("gi", "gics"):
        raise ConfigError("method must be gi or gics")
    return [_recipe_text({"scenario.name": f"aperture_{method}_lc{round(lc * 1e6)}um",
                          "scenario.m": m, "scenario.seeds": tuple(seeds),
                          "scenario.methods": (method,), "scenario.mask": "pgm",
                          "scenario.mask_pgm": mask_pgm, **_BENCH_GEOMETRY,
                          "optics.lc_target_m": lc, "gics.tau": tau})
            for lc in lc_list]


def selftest(verbose: bool = True) -> bool:
    """Quick oracle checks of the core numerics; returns True when all pass."""
    checks = []

    def record(name, ok):
        checks.append(ok)
        if verbose:
            print(f"selftest {name}: {'ok' if ok else 'FAIL'}")

    config = OpticalConfig(276.7e-6, 100, 15e-6)
    mask = optics.make_double_slit(config, SlitGeometry(1e-4, 1e-3, 2e-4))
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
    buf = np.empty_like(frame)
    record("in-place frame",
           synthesize_frame(config, 11, 0, out=buf) is buf and np.array_equal(buf, frame))
    serial = np.stack([synthesize_frame(config, 11, i) for i in range(16)])
    parallel = np.empty_like(serial)
    with ThreadPoolExecutor(max_workers=1) as pool:  # frames on 2 threads, the caller one
        _make_frames(config, 11, 0, parallel, pool, 2)
    record("parallel frames", np.array_equal(serial, parallel))

    rng = np.random.default_rng(42)
    design = rng.standard_normal((30, 80))
    truth = np.zeros(80)
    truth[rng.choice(80, 5, replace=False)] = rng.standard_normal(5)
    sensing = recon_gics.SensingSystem.from_arrays(design, design @ truth)
    # truth has 5 of 80 non-zeros, so matvec gathers their columns
    record("gathered matvec", np.allclose(sensing.matvec(truth), design @ truth,
                                          rtol=0, atol=1e-12 * np.abs(design @ truth).max()))
    big_tau = float(np.abs(sensing.rmatvec(sensing.rhs)).max())
    tau = 0.01 * big_tau
    x_gpsr, report = recon_gics.gpsr_solve(sensing, GicsParams(tau=tau))
    x_ista = recon_gics.ista_reference(sensing, tau, kkt_tol=1e-9)
    f_gpsr = recon_gics.lasso_objective(sensing, x_gpsr, tau)
    f_ista = recon_gics.lasso_objective(sensing, x_ista, tau)
    record("solver cross-check", abs(f_gpsr - f_ista) <= 1e-6 * max(f_ista, 1e-300))

    x_zero, _ = recon_gics.gpsr_solve(sensing, GicsParams(tau=big_tau))
    record("l1 zero-solution threshold", not x_zero.any())

    return all(checks)
