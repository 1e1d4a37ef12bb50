"""Scenario runner: parse flat key=value scenario files, run campaigns,
reconstruct with both methods, and emit images plus CSV metrics.

A scenario file is ``prefix.name = value`` lines with ``#`` comments.  Its keys,
their defaults and one line of documentation each are the rows of ``SCHEMA``;
any other key is rejected.  Of the GICS solver a scenario sets only
``gics.tau`` and ``gics.max_iters``.  The source is given by its coherence
length on the object plane, ``optics.lc_target_m``; a physical setup converts
with l_c = lambda * z / D.  Give ``scenario.mask_pgm`` (relative to the file)
when ``scenario.mask = pgm``.  Whatever ``Scenario`` rejects is a parse error:
a seed list that is empty, outside [0, 2**64) or repeated, a repeated method,
a repeated coherence length, one whose source aperture spans fewer than
``speckle.MIN_APERTURE_SAMPLES`` source samples, a sweep with one seed, a
name outside [A-Za-z0-9._-]+ or . or .., a mask that ``metrics.truth_support``
refuses, and (in code) a mask on another grid than the configs, a slit
geometry the mask is not the double slit of, and ``gics`` that is not a
``GicsParams``.

``optics.lc_target_m`` is a comma list of distinct coherence lengths.  With
one, ``run_scenario`` writes <out>/<name>/<seed>/: truth.pgm, metrics.csv and
each requested method's files (gi.pgm, gi_raw.csv; gics.pgm, gics_raw.csv,
solve.csv).  With two or more (a sweep, which needs at least 2 seeds) it runs
the same per-seed code into <out>/<name>/lc_<repr(l_c)>/<seed>/ and writes
<out>/<name>/trend.csv.  <out>/<name>/ is exactly what the last successful run
wrote, and a failed run changes nothing: the run is built in a staging
directory that replaces <out>/<name>/ whole once every job has succeeded.  The
PGMs are ``ioutil.write_pgm`` graymaps and the CSVs ``ioutil.write_csv``
tables, each row built here.  All files are a pure function of the scenario
file bytes and of the BLAS thread count the process inherits.  That count
matters for gics_raw.csv, solve.csv and metrics.csv, not for the GI files or
truth.pgm: the dense branch of ``recon_gics.SensingSystem.matvec`` sums in the
order of OpenBLAS's threads, and OpenBLAS threads every dot product longer
than 10 000 elements (the solve's length-grid_n**2 dots, any grid_n > 100).

The (l_c, seed) jobs run one at a time, in order, so no other thread uses BLAS
while a campaign holds it to one thread (see ``forward.campaign_blocks``).
Each campaign is made in blocks of ``forward._BLOCK_FRAMES`` (8) frames, each
on the usable CPUs, with one set of synthesis temporaries per frame thread.  A
run with gics holds its campaign as one pixel-major (grid_n**2, m) stack, on
which GICS solves, plus one block while it is filled; a GI-only run folds the
campaign block by block and holds O(grid_n**2) plus one block, whatever m is.
"""
from __future__ import annotations

import logging
import math
import os
import re
import shutil
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ioutil, metrics, optics, recon_gi, recon_gics
from .errors import ConfigError
from .forward import _check_noise_sigma, campaign_blocks, run_campaign
from .optics import ObjectMask, OpticalConfig, SlitGeometry, _integer
from .recon_gics import GicsParams
from .speckle import _checked_seed, aperture_sample_count

METRICS_HEADER = "scenario,lc_m,m,method,seed,snr,mse,psnr,dip_ratio,resolved"
TREND_HEADER = "lc_m,method,snr_mean,snr_std,mse_mean,mse_std"

_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")
_log = logging.getLogger("ghostbench")

REQUIRED = object()  # default of a key the scenario file must give


@dataclass(frozen=True)
class Key:
    """One scenario key: parser of its text value, default (or REQUIRED), doc line."""

    parse: Callable[[str], object]
    default: object
    doc: str


def _name(text: str) -> str:
    if not isinstance(text, str) or not _NAME_RE.fullmatch(text) or text in (".", ".."):
        raise ValueError("must match [A-Za-z0-9._-]+ and not be . or ..")
    return text


def _comma_list(text: str) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _methods(text: str) -> tuple[str, ...]:
    # sorted is the canonical gi,gics order; Scenario rejects unknown and repeated ones
    return tuple(sorted(token.lower() for token in _comma_list(text)))


def _length(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("must be a positive finite length")
    return value


def _lengths(text: str) -> tuple[float, ...]:
    lengths = tuple(_length(token) for token in _comma_list(text))
    if not lengths:
        raise ValueError("must list at least one length")
    return lengths


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _seeds(text: str) -> tuple[int, ...]:
    return tuple(int(token) for token in _comma_list(text))


SCHEMA: dict[str, Key] = {
    "scenario.name": Key(_name, REQUIRED,
                         "run name and output directory, [A-Za-z0-9._-]+ but not . or .."),
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
    "optics.lc_target_m": Key(_lengths, REQUIRED,
                              "comma list of distinct coherence lengths l_c; 2+ make a sweep"),
    "optics.grid_n": Key(int, REQUIRED, "pixels per side of the object and reference grids"),
    "optics.pixel_pitch_m": Key(_length, REQUIRED, "pixel pitch on both grids"),
    "optics.source_oversample": Key(int, OpticalConfig.source_oversample,
                                    "source-plane samples per grid pixel"),
    "gics.tau": Key(float, GicsParams.tau, "l1 weight of the convex program"),
    "gics.max_iters": Key(int, GicsParams.max_iters, "iteration cap of the GPSR-BB solve"),
}


@dataclass(frozen=True)
class Scenario:
    """A run's inputs, checked when built (from a file or in code) by the rules its run applies.

    ``configs`` holds one ``OpticalConfig`` per coherence length, on one grid,
    stored in descending l_c order; two or more make a sweep.
    """

    name: str
    configs: tuple[OpticalConfig, ...]
    mask: ObjectMask
    slit_geometry: SlitGeometry | None
    m: int
    methods: tuple[str, ...]
    gics: GicsParams
    seeds: tuple[int, ...]
    noise_sigma: float

    def __post_init__(self):
        try:
            _name(self.name)
        except ValueError as exc:
            raise ConfigError(f"scenario name {self.name!r} {exc}") from None
        if _integer(self.m, "scenario m") < 1:
            raise ConfigError("scenario m must be >= 1")
        methods = set(self.methods)
        if not methods or len(methods) != len(self.methods) or not methods <= {"gi", "gics"}:
            raise ConfigError(f"methods {self.methods!r} are not distinct members of gi, gics")
        if "gi" in self.methods and self.m < 2:
            raise ConfigError("gi reconstruction needs m >= 2")
        seeds = tuple(_checked_seed(seed) for seed in self.seeds)
        if not seeds:
            raise ConfigError("scenario needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("scenario seed list contains duplicates")
        _check_noise_sigma(self.noise_sigma)
        configs = tuple(sorted(self.configs, key=lambda c: c.coherence_length, reverse=True))
        if len({(c.grid_n, c.pixel_pitch, c.source_oversample) for c in configs}) != 1:
            raise ConfigError("scenario needs at least one coherence length, all on one grid")
        if self.mask.grid_n != configs[0].grid_n:
            raise ConfigError(f"mask grid {self.mask.grid_n} does not match the configs' grid "
                              f"{configs[0].grid_n}")
        if not isinstance(self.gics, GicsParams):
            raise ConfigError(f"scenario gics must be GicsParams, got {self.gics!r}")
        lcs = [config.coherence_length for config in configs]
        if len(set(lcs)) != len(lcs):
            raise ConfigError(f"coherence lengths {lcs!r} must be distinct")
        for lc, config in zip(lcs, configs):
            try:
                aperture_sample_count(config)
            except ConfigError as exc:
                raise ConfigError(f"coherence length {lc!r}: {exc}") from None
        if len(configs) > 1 and len(seeds) < 2:
            raise ConfigError("a sweep of coherence lengths needs at least 2 seeds")
        metrics.truth_support(self.mask)
        if self.slit_geometry is not None and not np.array_equal(
                self.mask.values, optics.make_double_slit(configs[0], self.slit_geometry).values):
            raise ConfigError("mask is not the double slit of the scenario's slit geometry")
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "configs", configs)


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

    configs = tuple(OpticalConfig(lc, values["optics.grid_n"], values["optics.pixel_pitch_m"],
                                  values["optics.source_oversample"])
                    for lc in values["optics.lc_target_m"])
    config = configs[0]  # the mask depends only on the grid the configs share

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

    gics = GicsParams(tau=values["gics.tau"], max_iters=values["gics.max_iters"])
    return Scenario(name=values["scenario.name"], configs=configs, mask=mask,
                    slit_geometry=slit_geometry, m=values["scenario.m"],
                    methods=values["scenario.methods"], gics=gics,
                    seeds=values["scenario.seeds"], noise_sigma=values["scenario.noise_sigma"])


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return parse_scenario_text(text, base_dir=path.parent)


# Each method's files in a seed directory: its graymap, its raw CSV and gics's solve.csv.
_METHOD_FILES = {"gi": ("gi.pgm", "gi_raw.csv"), "gics": ("gics.pgm", "gics_raw.csv", "solve.csv")}


def _run_seed(scenario: Scenario, config: OpticalConfig, seed: int,
              job_dir: Path) -> list[dict]:
    """Run the seed's campaign at ``config``, reconstruct with the requested
    methods, write the seed's files to <job_dir>/<seed>/ and return its metric rows.

    GICS needs the whole stack, so with "gics" requested the campaign is one
    ``MeasurementSet``, and GI folds its blocks while they are stored.  GI
    alone folds the campaign's blocks as they are made and no stack is
    allocated.  Both give the same GI image.  The seed's directory is made
    once all of its work has succeeded; it must not exist yet.
    """
    lc = config.coherence_length
    campaign = (config, scenario.mask, scenario.m, seed, scenario.noise_sigma)
    ms = gi = None
    if "gics" not in scenario.methods:
        gi = recon_gi.gi_from_blocks(campaign_blocks(*campaign))
    elif "gi" in scenario.methods:
        ms, gi = run_campaign(*campaign, fold=recon_gi.gi_from_blocks)
    else:
        ms = run_campaign(*campaign)
    rows = []
    images = {}
    for method in scenario.methods:
        if method == "gi":
            raw = gi
        else:
            raw, report = recon_gics.gics_reconstruct(ms, scenario.gics)
            if not report.converged:
                stop = (f"at its {report.iterations}-iteration cap without converging"
                        if report.iterations == scenario.gics.max_iters else
                        f"after {report.iterations} iterations without meeting its KKT rule")
                _log.warning("%s l_c %.4g m seed %d: GICS solve stopped %s "
                             "(KKT residual %.3g x ||A'b||inf)", scenario.name, lc, seed, stop,
                             report.kkt_residual / report.atb_inf)
        dip_ratio = resolved = None
        if scenario.slit_geometry is not None:
            dip_ratio, resolved = metrics.slit_dip(raw, scenario.slit_geometry,
                                                   config.pixel_pitch)
        normalized = metrics.minmax_normalize(raw)
        images[method] = raw, normalized
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
    del ms  # free the campaign stack before the files are written

    seed_dir = job_dir / str(seed)
    seed_dir.mkdir(parents=True)
    ioutil.write_pgm(seed_dir / "truth.pgm", scenario.mask.values)
    for method, (raw, normalized) in images.items():
        paths = [seed_dir / name for name in _METHOD_FILES[method]]
        ioutil.write_pgm(paths[0], normalized)
        ioutil.write_csv(paths[1], raw.tolist())
        if method == "gics":
            ioutil.write_csv(paths[2], [("iter", "objective", "kkt_residual"), *report.history])
    columns = METRICS_HEADER.split(",")
    ioutil.write_csv(seed_dir / "metrics.csv",
                     [columns, *([row[key] for key in columns] for row in rows)])
    return rows


def run_scenario(scenario: Scenario, out_dir: str | Path, threads: int = 1) -> Path:
    """Run every (l_c, seed) job, one at a time; returns the scenario output directory.

    A single coherence length writes <out>/<name>/<seed>/.  A sweep writes
    each job to <out>/<name>/lc_<repr(l_c)>/<seed>/ and then trend.csv: the
    mean/std of SNR and MSE per (coherence length, method) over the seeds,
    built from the rows the jobs return, in descending l_c order.  It ends
    with one machine-checkable verdict row per method: monotone_gi_snr true
    iff the mean GI SNR is non-increasing as l_c decreases, monotone_gics_mse
    likewise for the mean GICS MSE.

    Every file is written into the staging directory <out>/.<name>.<hex>,
    which replaces <out>/<name> once every job has succeeded.  A failure
    removes it, and the <out> directories this run made while they are empty.

    ``threads`` is kept because existing callers (the benchmark among them)
    pass ``threads=1``; any other value is a ``ConfigError``.
    """
    if threads != 1:
        raise ConfigError(f"threads must be 1 (seeds run one at a time), got {threads!r}")
    out = Path(out_dir)
    made = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    staging = out / f".{scenario.name}.{os.urandom(8).hex()}"
    scenario_dir = out / scenario.name
    aside = staging.with_name(staging.name + ".old")  # the last run's directory, once swapped
    try:
        os.mkdir(staging, 0o777)  # mkdir's mode under the umask, unlike tempfile.mkdtemp's 0700
        _write_jobs(scenario, staging)
        if os.path.lexists(scenario_dir):
            os.rename(scenario_dir, aside)
        os.rename(staging, scenario_dir)
    except BaseException:
        if os.path.lexists(aside) and not os.path.lexists(scenario_dir):
            os.rename(aside, scenario_dir)
        shutil.rmtree(staging, ignore_errors=True)
        for path in made:
            try:
                path.rmdir()
            except OSError:
                break
        raise
    if aside.is_dir() and not aside.is_symlink():
        shutil.rmtree(aside)
    elif os.path.lexists(aside):  # <out>/<name> was a file or a symlink
        aside.unlink()
    return scenario_dir


def _write_jobs(scenario: Scenario, scenario_dir: Path) -> None:
    """Run every job of ``scenario`` into ``scenario_dir``, then a sweep's trend.csv."""
    sweep = len(scenario.configs) > 1
    rows_of = {}  # (l_c, method) -> one metric row per seed
    for config in scenario.configs:
        lc = config.coherence_length  # distinct l_c values have distinct reprs
        job_dir = scenario_dir / f"lc_{lc!r}" if sweep else scenario_dir
        for seed in scenario.seeds:
            for row in _run_seed(scenario, config, seed, job_dir):
                rows_of.setdefault((lc, row["method"]), []).append(row)
    if not sweep:
        return

    table = [TREND_HEADER.split(",")]
    means = {method: [] for method in scenario.methods}  # per l_c, of the verdict's metric
    for (lc, method), rows in rows_of.items():
        stats = []
        for key in ("snr", "mse"):
            values = np.array([row[key] for row in rows])
            stats += [float(values.mean()), float(values.std())]
        means[method].append(stats[0] if method == "gi" else stats[2])
        table.append((lc, method, *stats))
    verdicts = {("monotone_gi_snr" if method == "gi" else "monotone_gics_mse"):
                all(a >= b for a, b in zip(series, series[1:]))
                for method, series in means.items()}
    table += [("verdict", key, verdicts[key], None, None, None) for key in sorted(verdicts)]
    ioutil.write_csv(scenario_dir / "trend.csv", table)


# Grid of the two recipes below.  They stay because their only callers outside
# their tests are the benchmark's workloads; all three go once bench/ reads the
# committed experiments/*.scn files instead.
_BENCH_GEOMETRY = {"optics.grid_n": 100, "optics.pixel_pitch_m": 15e-6}


def _recipe_text(values: dict[str, object]) -> str:
    """Scenario text for ``values``, leaving out every key that equals its default."""
    return ioutil.format_kv_text({key: ioutil.format_cell(value) for key, value in values.items()
                                  if value != SCHEMA[key].default})


def double_slit_sweep_scenarios(lc_list, m: int = 500,
                                seeds=(1, 2, 3, 4, 5), tau: float = 1e-3) -> list[str]:
    """Built-in recipe: the standard double slit at several coherence lengths."""
    return [_recipe_text({"scenario.name": f"slit_lc{round(lc * 1e6)}um", "scenario.m": m,
                          "scenario.seeds": tuple(seeds), "scenario.mask": "double_slit",
                          **_BENCH_GEOMETRY, "optics.lc_target_m": lc, "gics.tau": tau})
            for lc in lc_list]


def aperture_sweep_scenarios(mask_pgm: str, method: str, m: int, lc_list,
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

