"""The committed experiments: scenario files whose first line is the command that runs them."""
import dataclasses
import shlex
from pathlib import Path

import numpy as np
import pytest

from ghostbench import cli, harness, ioutil
from ghostbench.optics import SlitGeometry
from ghostbench.recon_gics import GicsParams

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = sorted((ROOT / "experiments").glob("*.scn"))
README = (ROOT / "README.md").read_text()


def command_of(path: Path) -> str:
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("# ")
    return first[2:]


def lc_list_of(path: Path) -> list[float]:
    """The coherence lengths the file's ``optics.lc_target_m`` lists, in file order."""
    pairs = ioutil.parse_kv_text(path.read_text(encoding="utf-8"))
    return [float(token) for token in pairs["optics.lc_target_m"].split(",")]


def test_the_three_sweeps_are_committed():
    assert [path.name for path in EXPERIMENTS] == [
        "aperture_gi_sweep.scn", "aperture_gics_sweep.scn", "slit_sweep.scn", "trend_bench.scn"]


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda path: path.name)
def test_first_line_runs_the_file_and_is_in_the_readme(path):
    command = command_of(path)
    argv = shlex.split(command)
    assert argv[:3] == ["ghostbench", "run", path.relative_to(ROOT).as_posix()]
    assert cli.build_parser().parse_args(argv[1:]).command == "run"
    assert command in README


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda path: path.name)
def test_parses_from_its_own_directory(path):
    scenario = harness.load_scenario(path)
    assert scenario.name == path.stem
    # the file's own list is its sweep: three coherence lengths, widest first
    lc_list = lc_list_of(path)
    assert len(lc_list) == 3 and lc_list == sorted(lc_list, reverse=True)
    assert [config.coherence_length for config in scenario.configs] == lc_list


def test_slit_sweep_is_the_fig3_bench():
    scenario = harness.load_scenario(ROOT / "experiments" / "slit_sweep.scn")
    assert {config.grid_n for config in scenario.configs} == {100}
    assert {config.pixel_pitch for config in scenario.configs} == {15e-6}
    assert scenario.slit_geometry == SlitGeometry(1e-4, 1e-3, 2e-4)
    assert scenario.methods == ("gi", "gics")
    assert scenario.m == 500
    assert scenario.seeds == (1, 2, 3, 4, 5)
    assert scenario.gics == GicsParams(tau=1e-3)
    assert lc_list_of(ROOT / "experiments" / "slit_sweep.scn") == [276.7e-6, 135.5e-6, 68.8e-6]


def test_trend_bench_is_criterion_5s_geometry():
    scenario = harness.load_scenario(ROOT / "experiments" / "trend_bench.scn")
    assert {config.grid_n for config in scenario.configs} == {100}
    assert {config.pixel_pitch for config in scenario.configs} == {30e-6}
    assert scenario.slit_geometry == SlitGeometry(1e-4, 0.5e-3, 2e-4)
    assert scenario.methods == ("gi", "gics")
    assert scenario.m == 500
    assert scenario.seeds == (1, 2, 3, 4, 5)
    assert scenario.gics == GicsParams(tau=6.0)
    assert lc_list_of(ROOT / "experiments" / "trend_bench.scn") == [276.7e-6, 135.5e-6, 68.8e-6]


def test_aperture_pgm_is_a_binary_100px_mask():
    for name, method, m in (("aperture_gi_sweep", "gi", 2000),
                            ("aperture_gics_sweep", "gics", 1000)):
        scenario = harness.load_scenario(ROOT / "experiments" / f"{name}.scn")
        assert scenario.methods == (method,)
        assert scenario.m == m
        assert scenario.seeds == (1, 2, 3)
        assert scenario.mask.values.shape == (100, 100)
        assert set(np.unique(scenario.mask.values)) == {0.0, 1.0}


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda path: path.name)
def test_small_trend_writes_every_job(path, tmp_path):
    scenario = dataclasses.replace(harness.load_scenario(path), m=10, seeds=(1, 2))
    lc_list = lc_list_of(path)
    harness.run_scenario(scenario, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [path.stem]
    sweep = tmp_path / path.stem
    assert (sweep / "trend.csv").is_file()
    jobs = sorted(p.relative_to(sweep).as_posix() for p in sweep.glob("lc_*/*"))
    assert jobs == sorted(f"lc_{lc!r}/{seed}" for lc in lc_list for seed in (1, 2))
