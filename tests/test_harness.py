import dataclasses
import logging
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ghostbench
from ghostbench import cli, forward, harness, optics, recon_gics
from ghostbench.errors import ConfigError

SMALL_SCENARIO = """\
scenario.name = smoke
scenario.m = 16
scenario.seeds = 3,4
scenario.methods = gi,gics
scenario.mask = double_slit
scenario.slit_width_m = 60e-6
scenario.slit_height_m = 240e-6
scenario.slit_separation_m = 120e-6
optics.lc_target_m = 100e-6
optics.grid_n = 48
optics.pixel_pitch_m = 15e-6
gics.tau = 1e-3
gics.max_iters = 150
"""


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def tree_bytes(root: Path) -> dict:
    """Every entry under ``root``, hidden ones included: a file's bytes, None for a directory."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def sweep_text(lcs: str, text: str = SMALL_SCENARIO) -> str:
    """``text`` with ``optics.lc_target_m`` set to the comma list ``lcs``."""
    assert "optics.lc_target_m = 100e-6\n" in text
    return text.replace("optics.lc_target_m = 100e-6\n", f"optics.lc_target_m = {lcs}\n")


def at_lcs(scenario, lcs):
    """``scenario``, built in code, at the coherence lengths ``lcs``."""
    return dataclasses.replace(scenario, configs=tuple(
        dataclasses.replace(scenario.configs[0], coherence_length=lc) for lc in lcs))


def gray_mask_text(tmp_path: Path, sample: int) -> str:
    """SMALL_SCENARIO on a uniform 8-bit P5 mask of ``sample``, written into tmp_path."""
    name = f"gray{sample}.pgm"
    (tmp_path / name).write_bytes(b"P5\n48 48\n255\n" + bytes([sample]) * (48 * 48))
    return SMALL_SCENARIO.replace("scenario.mask = double_slit",
                                  f"scenario.mask = pgm\nscenario.mask_pgm = {name}")


def verdict_rows(csv_text: str) -> dict:
    return {cells[1]: cells[2] for cells in (line.split(",") for line in csv_text.splitlines())
            if cells[0] == "verdict"}


class TestParsing:
    def test_minimal_scenario(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        assert scenario.name == "smoke"
        assert scenario.m == 16
        assert scenario.seeds == (3, 4)
        assert scenario.methods == ("gi", "gics")
        assert scenario.gics.max_iters == 150
        assert scenario.slit_geometry is not None

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown"):
            harness.parse_scenario_text(SMALL_SCENARIO + "scenario.bogus = 1\n", tmp_path)

    def test_duplicate_seeds_rejected(self, tmp_path):
        bad = SMALL_SCENARIO.replace("scenario.seeds = 3,4", "scenario.seeds = 3,3")
        with pytest.raises(ConfigError, match="duplicates"):
            harness.parse_scenario_text(bad, tmp_path)

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_noise_sigma_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match="noise_sigma"):
            harness.parse_scenario_text(SMALL_SCENARIO + f"scenario.noise_sigma = {value}\n",
                                        tmp_path)

    def test_gi_needs_two_measurements(self, tmp_path):
        bad = SMALL_SCENARIO.replace("scenario.m = 16", "scenario.m = 1")
        with pytest.raises(ConfigError, match="m >= 2"):
            harness.parse_scenario_text(bad, tmp_path)

    def test_single_method_scenario(self, tmp_path):
        for methods in ("gics", "gics,", " GICS "):
            text = SMALL_SCENARIO.replace("scenario.methods = gi,gics",
                                          f"scenario.methods = {methods}")
            scenario = harness.parse_scenario_text(text, tmp_path)
            assert scenario.methods == ("gics",)

    def test_unknown_method_rejected(self, tmp_path):
        bad = SMALL_SCENARIO.replace("scenario.methods = gi,gics", "scenario.methods = tv")
        with pytest.raises(ConfigError, match="method"):
            harness.parse_scenario_text(bad, tmp_path)

    def test_missing_pgm_rejected(self, tmp_path):
        text = SMALL_SCENARIO.replace("scenario.mask = double_slit",
                                      "scenario.mask = pgm\nscenario.mask_pgm = nope.pgm")
        with pytest.raises(ConfigError, match="does not exist"):
            harness.parse_scenario_text(text, tmp_path)

    def test_bad_name_rejected(self, tmp_path):
        bad = SMALL_SCENARIO.replace("scenario.name = smoke", "scenario.name = a/b")
        with pytest.raises(ConfigError, match="name"):
            harness.parse_scenario_text(bad, tmp_path)

    # 128/255 lies above 0.5 everywhere (no background), 127/255 nowhere (no support)
    @pytest.mark.parametrize("sample,rule", [(128, "no background"), (127, "empty support")])
    def test_mask_without_support_or_background_rejected(self, tmp_path, sample, rule):
        with pytest.raises(ConfigError, match=rule):
            harness.parse_scenario_text(gray_mask_text(tmp_path, sample), tmp_path)
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        with pytest.raises(ConfigError, match=rule):
            dataclasses.replace(scenario, mask=optics.ObjectMask(np.full((48, 48), sample / 255)))

    @pytest.mark.parametrize("key", [k for k, row in harness.SCHEMA.items()
                                     if row.default is harness.REQUIRED])
    def test_missing_required_key_rejected(self, tmp_path, key):
        text = "".join(line + "\n" for line in SMALL_SCENARIO.splitlines()
                       if not line.startswith(key + " "))
        with pytest.raises(ConfigError, match=f"missing scenario key '{re.escape(key)}'"):
            harness.parse_scenario_text(text, tmp_path)

    @pytest.mark.parametrize("line", ["scenario.m = 1.5", "optics.grid_n = x",
                                      "gics.max_iters = 2.5", "scenario.seeds = 1,two",
                                      "optics.lc_target_m = -1e-4", "optics.pixel_pitch_m = 0",
                                      "optics.lc_target_m = inf",
                                      "scenario.slit_separation_m = nan",
                                      "scenario.slit_width_m = inf",
                                      "scenario.slit_height_m = 0",
                                      "scenario.slit_center_x_m = nan",
                                      "scenario.slit_center_y_m = -inf",
                                      "scenario.name = .", "scenario.name = ..",
                                      "optics.lc_target_m = ,"])
    def test_bad_value_names_key_and_value(self, tmp_path, line):
        key, value = (part.strip() for part in line.split("="))
        text = "".join(kv + "\n" for kv in SMALL_SCENARIO.splitlines()
                       if not kv.startswith(key + " ")) + line + "\n"
        with pytest.raises(ConfigError, match=re.escape(f"{key} = {value!r}")):
            harness.parse_scenario_text(text, tmp_path)


class TestRunScenario:
    def test_end_to_end_artifacts(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        out = tmp_path / "out"
        harness.run_scenario(scenario, out)
        for seed in ("3", "4"):
            seed_dir = out / "smoke" / seed
            for name in ("truth.pgm", "gi.pgm", "gics.pgm", "metrics.csv", "solve.csv",
                         "gi_raw.csv", "gics_raw.csv"):
                assert (seed_dir / name).is_file(), name
            raw = np.loadtxt(seed_dir / "gi_raw.csv", delimiter=",")
            assert raw.shape == (48, 48)
            lines = (seed_dir / "metrics.csv").read_text().splitlines()
            assert lines[0] == harness.METRICS_HEADER
            assert len(lines) == 3
            gi_row = lines[1].split(",")
            assert gi_row[0] == "smoke"
            assert gi_row[3] == "gi"
            assert float(gi_row[5]) == float(gi_row[5])  # parses

    def test_solve_csv_is_the_solve_history(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        harness.run_scenario(scenario, tmp_path / "out")
        ms = forward.run_campaign(scenario.configs[0], scenario.mask, scenario.m, 3)
        _, report = recon_gics.gics_reconstruct(ms, scenario.gics)
        lines = (tmp_path / "out" / "smoke" / "3" / "solve.csv").read_text().splitlines()
        assert lines[0] == "iter,objective,kkt_residual"
        assert len(lines) == len(report.history) + 1
        assert lines[1:] == [f"{it},{obj!r},{kkt!r}" for it, obj, kkt in report.history]

    def test_rerun_is_byte_identical(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        harness.run_scenario(scenario, out1)
        harness.run_scenario(scenario, out2)
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_thread_count_changes_nothing(self, tmp_path, monkeypatch):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setattr(forward, "_frame_workers", lambda: 1)
        harness.run_scenario(scenario, out1)
        monkeypatch.setattr(forward, "_frame_workers", lambda: 3)
        harness.run_scenario(scenario, out2)
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_threads_other_than_one_rejected_before_any_work(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="threads must be 1"):
            harness.run_scenario(scenario, out, threads=2)
        assert not out.exists()
        harness.run_scenario(scenario, out, threads=1)  # the benchmark's call still runs
        assert (out / "smoke" / "4" / "metrics.csv").is_file()

    @pytest.mark.parametrize("lcs", ["100e-6", "60e-6,100e-6"])
    def test_failed_first_job_leaves_no_output_directory(self, tmp_path, monkeypatch, lcs):
        def fail(*args, **kwargs):
            raise RuntimeError("campaign failed")

        monkeypatch.setattr(harness, "run_campaign", fail)
        scenario = harness.parse_scenario_text(sweep_text(lcs), tmp_path)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="campaign failed"):
            harness.run_scenario(scenario, out)
        assert not out.exists()

    @pytest.mark.parametrize("first, second", [
        (SMALL_SCENARIO, SMALL_SCENARIO.replace("methods = gi,gics", "methods = gi")),
        (sweep_text("100e-6,60e-6"), sweep_text("100e-6,80e-6")),
        (SMALL_SCENARIO.replace("seeds = 3,4", "seeds = 3,4,5"), SMALL_SCENARIO),
        (sweep_text("100e-6,60e-6"), SMALL_SCENARIO)],
        ids=["drops_a_method", "other_lc_list", "fewer_seeds", "run_after_sweep"])
    def test_rerun_leaves_exactly_the_tree_of_a_fresh_run(self, tmp_path, first, second):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        for text, into in ((first, out), (second, out), (second, fresh)):
            harness.run_scenario(harness.parse_scenario_text(text, tmp_path), into)
        assert tree_bytes(out) == tree_bytes(fresh)
        assert [p.name for p in out.iterdir()] == ["smoke"]

    def test_failed_rerun_changes_nothing(self, tmp_path, monkeypatch):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        out = tmp_path / "out"
        harness.run_scenario(scenario, out)
        before = tree_bytes(out)
        jobs = []

        def fail_second(*args, **kwargs):
            jobs.append(args)
            if len(jobs) == 2:
                raise RuntimeError("second job failed")
            return forward.run_campaign(*args, **kwargs)

        monkeypatch.setattr(harness, "run_campaign", fail_second)
        with pytest.raises(RuntimeError, match="second job failed"):
            harness.run_scenario(dataclasses.replace(scenario, methods=("gics",)), out)
        assert len(jobs) == 2
        assert tree_bytes(out) == before  # no .smoke.* staging or old directory either

    def test_scenario_directory_has_the_mode_of_a_plain_mkdir(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        umask = os.umask(0o027)
        try:
            (tmp_path / "plain").mkdir()
            scenario_dir = harness.run_scenario(scenario, tmp_path / "out")
        finally:
            os.umask(umask)
        modes = {stat.S_IMODE(path.stat().st_mode)
                 for path in (tmp_path / "plain", scenario_dir, scenario_dir / "3")}
        assert modes == {0o750}

    def test_one_seed_at_a_time_makes_its_frames_in_parallel(self, tmp_path, monkeypatch):
        made = []
        synthesize = forward.synthesize_frame
        monkeypatch.setattr(forward, "_frame_workers", lambda: 2)
        monkeypatch.setattr(forward, "synthesize_frame", lambda config, seed, i, out: (
            made.append((config.coherence_length, seed, threading.get_ident())),
            synthesize(config, seed, i, out=out))[1])
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        harness.run_scenario(scenario, tmp_path / "out")
        harness.run_scenario(harness.parse_scenario_text(sweep_text("60e-6,120e-6"), tmp_path),
                             tmp_path)
        jobs = [(lc, seed) for lc in (100e-6, 120e-6, 60e-6) for seed in scenario.seeds]
        # one (l_c, seed) job at a time, in order, each on two frame threads
        assert [(lc, seed) for lc, seed, _ in made] == [job for job in jobs
                                                        for _ in range(scenario.m)]
        for job in jobs:
            assert len({ident for lc, seed, ident in made if (lc, seed) == job}) == 2

    def test_zero_gics_image_writes_every_file(self, tmp_path):
        # at tau >= ||A'b||inf the lasso solution is 0: a flat image resolves nothing
        text = SMALL_SCENARIO.replace("gics.tau = 1e-3", "gics.tau = 1e9")
        scenario = harness.parse_scenario_text(text, tmp_path)
        out = tmp_path / "out"
        harness.run_scenario(scenario, out)
        for seed in ("3", "4"):
            seed_dir = out / "smoke" / seed
            assert len(list(seed_dir.iterdir())) == 7
            assert not np.loadtxt(seed_dir / "gics_raw.csv", delimiter=",").any()
            gi_row, gics_row = (line.split(",") for line in
                                (seed_dir / "metrics.csv").read_text().splitlines()[1:])
            assert gi_row[8] != "" and gi_row[9] in ("true", "false")
            assert gics_row[3] == "gics"
            assert float(gics_row[5]) == 0.0  # no contrast, not an infinite SNR
            assert gics_row[8:] == ["", "false"]

    def test_pgm_mask_scenario(self, tmp_path):
        rng = np.random.default_rng(5)
        samples = rng.integers(1, 255, size=(48, 48))
        (tmp_path / "mask.pgm").write_bytes(b"P5\n48 48\n255\n"
                                            + samples.astype(np.uint8).tobytes())
        text = SMALL_SCENARIO.replace(
            "scenario.mask = double_slit",
            "scenario.mask = pgm\nscenario.mask_pgm = mask.pgm")
        scenario = harness.parse_scenario_text(text, tmp_path)
        out = tmp_path / "out"
        harness.run_scenario(scenario, out)
        lines = (out / "smoke" / "3" / "metrics.csv").read_text().splitlines()
        gi_row = lines[1].split(",")
        assert gi_row[8] == ""  # no slit geometry: dip_ratio empty
        assert gi_row[9] == ""
        # truth.pgm is 16-bit, and 65535 = 255 * 257: an 8-bit mask reloads exactly
        truth = out / "smoke" / "3" / "truth.pgm"
        assert truth.read_bytes().startswith(b"P5\n48 48\n65535\n")
        reloaded = optics.load_mask_pgm(truth, scenario.configs[0])
        assert np.array_equal(reloaded.values, samples / 255.0)


class TestStreamedGi:
    def gi_scenario(self, tmp_path, methods, m):
        text = (SMALL_SCENARIO.replace("scenario.methods = gi,gics",
                                       f"scenario.methods = {methods}")
                .replace("scenario.m = 16", f"scenario.m = {m}")
                .replace("scenario.seeds = 3,4", "scenario.seeds = 3"))
        return harness.parse_scenario_text(text, tmp_path)

    def test_gi_only_image_is_the_gi_image_of_a_gics_run(self, tmp_path):
        m = 150  # eighteen full blocks and a short one
        for methods in ("gi", "gi,gics"):
            harness.run_scenario(self.gi_scenario(tmp_path, methods, m), tmp_path / methods)
        gi_only, both = (np.loadtxt(tmp_path / methods / "smoke" / "3" / "gi_raw.csv",
                                    delimiter=",") for methods in ("gi", "gi,gics"))
        assert np.array_equal(gi_only, both)
        assert not (tmp_path / "gi" / "smoke" / "3" / "gics_raw.csv").exists()

    def test_gi_only_peak_memory_does_not_grow_with_m(self, tmp_path, monkeypatch):
        def traced_peak(m):
            scenario = self.gi_scenario(tmp_path, "gi", m)
            tracemalloc.start()
            try:
                harness.run_scenario(scenario, tmp_path / f"{workers}_{m}")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        harness.run_scenario(self.gi_scenario(tmp_path, "gi", 2), tmp_path / "warm")
        frame_bytes = 48 * 48 * 8  # a stack of 800 frames alone is 800 frames, 14.7 MB
        for workers in sorted({1, forward._frame_workers()}):
            monkeypatch.setattr(forward, "_frame_workers", lambda: workers)
            small, large = traced_peak(200), traced_peak(800)
            if workers == 1:  # how far 2 threads' temporaries overlap depends on scheduling
                assert large < 1.2 * small
            # the campaign's bound in tests/test_forward.py (one block, the three GI sums,
            # 5 frames per frame thread), plus 3 frames for the harness's own arrays
            assert max(small, large) < (forward._BLOCK_FRAMES + 3 + 5 * workers + 3) * frame_bytes


class TestSolveCapWarning:
    def test_capped_solve_warns_once_per_seed(self, tmp_path, caplog):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        with caplog.at_level(logging.WARNING, logger="ghostbench"):
            harness.run_scenario(scenario, tmp_path / "out")
        messages = [r.getMessage() for r in caplog.records if r.name == "ghostbench"]
        assert len(messages) == 2
        for seed, message in zip((3, 4), messages):
            assert f"seed {seed}:" in message
            assert "150-iteration cap" in message and "||A'b||inf" in message
        written = b"".join(filter(None, tree_bytes(tmp_path / "out").values()))
        assert b"iteration cap" not in written

    def test_capped_trend_warns_once_per_lc_and_seed(self, tmp_path, caplog):
        text = SMALL_SCENARIO.replace("gics.max_iters = 150\n", "gics.max_iters = 5\n")
        scenario = harness.parse_scenario_text(sweep_text("60e-6,120e-6", text), tmp_path)
        with caplog.at_level(logging.WARNING, logger="ghostbench"):
            harness.run_scenario(scenario, out_dir=tmp_path / "out")
        messages = [r.getMessage() for r in caplog.records if r.name == "ghostbench"]
        assert len(messages) == 4
        for (lc, seed), message in zip([(lc, s) for lc in ("0.00012", "6e-05") for s in (3, 4)],
                                       messages):
            assert message.startswith(f"smoke l_c {lc} m seed {seed}:")
            assert "5-iteration cap" in message
        written = (tmp_path / "out" / "smoke" / "trend.csv").read_bytes()
        assert b"iteration cap" not in written and b"KKT" not in written

    def test_unconverged_solve_below_cap_names_its_stop(self, tmp_path, caplog, monkeypatch):
        # a solve that leaves its loop early without meeting the KKT rule
        def early_stop(system, params):
            x, report = solve(system, params)
            return x, dataclasses.replace(report, converged=False, history=report.history[:3])

        solve = recon_gics.gpsr_solve
        monkeypatch.setattr(recon_gics, "gpsr_solve", early_stop)
        scenario = harness.parse_scenario_text(
            SMALL_SCENARIO.replace("scenario.seeds = 3,4\n", "scenario.seeds = 3\n"), tmp_path)
        with caplog.at_level(logging.WARNING, logger="ghostbench"):
            harness.run_scenario(scenario, tmp_path / "out")
        messages = [r.getMessage() for r in caplog.records if r.name == "ghostbench"]
        assert len(messages) == 1
        assert "stopped after 2 iterations without meeting its KKT rule" in messages[0]
        assert "cap" not in messages[0]

    def test_converged_solve_is_silent(self, tmp_path, caplog):
        text = (SMALL_SCENARIO.replace("scenario.m = 16\n", "scenario.m = 60\n")
                .replace("scenario.seeds = 3,4\n", "scenario.seeds = 4\n")
                .replace("gics.max_iters = 150\n", ""))
        scenario = harness.parse_scenario_text(text, tmp_path)
        with caplog.at_level(logging.WARNING, logger="ghostbench"):
            harness.run_scenario(scenario, tmp_path / "out")
        solve_rows = (tmp_path / "out" / "smoke" / "4" / "solve.csv").read_text().splitlines()
        assert len(solve_rows) - 2 < scenario.gics.max_iters
        assert not [r for r in caplog.records if r.name == "ghostbench"]


class TestTrend:
    """Sweeps: scenario files whose optics.lc_target_m lists two or more coherence lengths."""

    def run_sweep(self, tmp_path, lcs, out, text=SMALL_SCENARIO):
        scenario = harness.parse_scenario_text(sweep_text(lcs, text), tmp_path)
        csv_text = (harness.run_scenario(scenario, out) / "trend.csv").read_text()
        return scenario, csv_text

    def test_rows_sorted_descending_with_verdicts(self, tmp_path):
        _, csv_text = self.run_sweep(tmp_path, "60e-6,120e-6,90e-6", tmp_path)
        lines = csv_text.splitlines()
        assert lines[0] == harness.TREND_HEADER
        lcs = [float(line.split(",")[0]) for line in lines[1:7]]
        assert lcs == sorted(lcs, reverse=True)
        assert set(verdict_rows(csv_text)) == {"monotone_gi_snr", "monotone_gics_mse"}
        assert lines[-2].startswith("verdict,monotone_gi_snr,")
        assert lines[-1].startswith("verdict,monotone_gics_mse,")

    def test_shuffled_lc_list_gives_identical_csv(self, tmp_path):
        _, a = self.run_sweep(tmp_path, "120e-6,60e-6", tmp_path)
        _, b = self.run_sweep(tmp_path, "60e-6,120e-6", tmp_path)
        assert a == b

    def test_writes_trend_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        _, csv_text = self.run_sweep(tmp_path, "60e-6,120e-6", out)
        assert (out / "smoke" / "trend.csv").read_text() == csv_text
        # the CLI writes the same table and prints its verdict rows
        path = tmp_path / "sweep.txt"
        path.write_text(sweep_text("60e-6,120e-6"))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 0
        assert (tmp_path / "cli" / "smoke" / "trend.csv").read_text() == csv_text
        assert capsys.readouterr().out.splitlines() == [
            f"{key}={value}" for key, value in sorted(verdict_rows(csv_text).items())]

    def test_job_at_the_scenarios_own_lc_writes_the_files_of_run(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        harness.run_scenario(scenario, tmp_path / "run")
        self.run_sweep(tmp_path, "60e-6,100e-6", tmp_path / "trend")
        trend_dir = tmp_path / "trend" / "smoke"
        assert sorted(p.name for p in trend_dir.iterdir()) == ["lc_0.0001", "lc_6e-05",
                                                                "trend.csv"]
        assert tree_bytes(trend_dir / "lc_0.0001") == tree_bytes(tmp_path / "run" / "smoke")

    def test_table_is_mean_and_std_of_the_jobs_metrics(self, tmp_path):
        scenario, csv_text = self.run_sweep(tmp_path, "60e-6,120e-6", tmp_path)
        header = harness.METRICS_HEADER.split(",")
        table = [line.split(",") for line in csv_text.splitlines()[1:-2]]
        assert len(table) == 4
        for lc, method, *stats in table:
            rows = [dict(zip(header, line.split(","))) for seed in scenario.seeds
                    for line in (tmp_path / "smoke" / f"lc_{lc}" / str(seed) /
                                 "metrics.csv").read_text().splitlines()[1:]]
            values = {key: np.array([float(row[key]) for row in rows if row["method"] == method])
                      for key in ("snr", "mse")}
            assert len(values["snr"]) == len(scenario.seeds)
            assert [float(v) for v in stats] == [values["snr"].mean(), values["snr"].std(),
                                                 values["mse"].mean(), values["mse"].std()]

    def test_requires_two_of_each(self, tmp_path):
        # one coherence length is a run, not a sweep: no table, no lc_* directory
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        harness.run_scenario(scenario, tmp_path / "run")
        assert sorted(p.name for p in (tmp_path / "run" / "smoke").iterdir()) == ["3", "4"]
        one_seed_text = SMALL_SCENARIO.replace("scenario.seeds = 3,4", "scenario.seeds = 3")
        with pytest.raises(ConfigError, match="at least 2 seeds"):
            harness.parse_scenario_text(sweep_text("60e-6,120e-6", one_seed_text), tmp_path)
        one_seed = harness.parse_scenario_text(one_seed_text, tmp_path)
        with pytest.raises(ConfigError, match="at least 2 seeds"):
            at_lcs(one_seed, (60e-6, 120e-6))
        assert not (tmp_path / "smoke").exists()

    def test_repeated_lc_verdicts_trivially_true(self, tmp_path):
        # a repeated l_c would run its jobs twice, write its rows twice and make the
        # monotonicity verdicts trivially true, so it is rejected before any job runs
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        for lcs in ("100e-6,100e-6", "60e-6,1e-4,120e-6,100e-6"):
            with pytest.raises(ConfigError, match="coherence lengths"):
                harness.parse_scenario_text(sweep_text(lcs), tmp_path)
            with pytest.raises(ConfigError, match="coherence lengths"):
                at_lcs(scenario, [float(lc) for lc in lcs.split(",")])

    def test_rejects_bad_lc_and_seeds(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        for lcs in ("nan,100e-6", "inf,100e-6", "0.0,100e-6"):
            with pytest.raises(ConfigError, match="optics.lc_target_m"):
                harness.parse_scenario_text(sweep_text(lcs), tmp_path)
            with pytest.raises(ConfigError, match="coherence_length"):
                at_lcs(scenario, [float(lc) for lc in lcs.split(",")])
        # seeds are checked where every scenario is built, for runs and sweeps alike
        for seeds in ((3, 3), (-1, 2), (2**64, 2), (), (True, 2), (1.5, 2), ("1", 2)):
            with pytest.raises(ConfigError, match="seed"):
                dataclasses.replace(scenario, seeds=seeds)

    @pytest.mark.parametrize("change", [
        {"seeds": (True, 2)}, {"seeds": (1.5, 2)}, {"m": 2.5}, {"m": True},
        {"noise_sigma": -1.0}, {"noise_sigma": float("nan")}, {"noise_sigma": float("inf")},
        {"methods": ("gi", "bogus")}, {"methods": ("gics", "gics")}, {"methods": ()},
        {"lcs": (1e-4, 1e-4)}, {"lcs": (-1e-4,)}, {"lcs": (1e-4, 1e-3)}, {"lcs": ()},
        {"lcs": (1e-4, 6e-5), "seeds": (3,)},
        {"mask": optics.ObjectMask(np.kron(np.eye(2), np.ones((8, 8))))},
        {"name": ""}, {"name": "."}, {"name": ".."}, {"name": "a b"}, {"name": "x/y"},
        {"name": "smoke\n"},
        {"slit_geometry": optics.SlitGeometry(30e-6, 120e-6, 90e-6)},
        {"slit_geometry": optics.SlitGeometry(60e-6, 240e-6, 120e-6, center=(5e-3, 0.0))},
        {"gics": None}],
        ids=["bool_seed", "float_seed", "float_m", "bool_m", "negative_noise", "nan_noise",
             "inf_noise", "unknown_method", "repeated_method", "no_method", "repeated_lc",
             "negative_lc", "undersampled_lc", "no_lc", "one_seed_sweep", "mask_on_other_grid",
             "empty_name", "dot_name", "dotdot_name", "space_name", "slash_name",
             "newline_name", "slits_not_in_mask", "slits_off_grid", "no_gics"])
    def test_code_built_scenario_is_checked_before_anything_is_written(self, tmp_path, change,
                                                                        monkeypatch):
        """``lcs`` sets the coherence lengths (see ``at_lcs``); the rest are fields."""
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        monkeypatch.setattr(harness, "_run_seed", lambda *args: pytest.fail("a job ran"))
        change = dict(change)
        lcs = change.pop("lcs", None)
        with pytest.raises(ConfigError):
            scenario = dataclasses.replace(scenario, **change)
            if lcs is not None:
                scenario = at_lcs(scenario, lcs)
            harness.run_scenario(scenario, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_file_with_a_repeated_method_is_refused_before_anything_is_written(
            self, tmp_path):
        # a repeat is refused, not dropped, as it is for a Scenario built in code
        for methods in ("gics,gics", " GICS , gics", "gi,gics,gi"):
            bad = SMALL_SCENARIO.replace("scenario.methods = gi,gics",
                                         f"scenario.methods = {methods}")
            with pytest.raises(ConfigError, match="distinct"):
                harness.parse_scenario_text(bad, tmp_path)
            path = tmp_path / "scenario.txt"
            path.write_text(bad)
            out = tmp_path / "out"
            assert cli.main(["run", str(path), "--out", str(out)]) == 2
            assert not out.exists()

    def test_numpy_seeds_are_stored_as_ints(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        seeds = dataclasses.replace(scenario, seeds=(np.uint64(3), np.int32(4))).seeds
        assert seeds == (3, 4) and all(type(seed) is int for seed in seeds)


class TestCli:
    def write_scenario(self, tmp_path, text=SMALL_SCENARIO) -> Path:
        path = tmp_path / "scenario.txt"
        path.write_text(text)
        return path

    def test_run_ok(self, tmp_path):
        path = self.write_scenario(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "smoke" / "3" / "metrics.csv").is_file()

    def test_unknown_key_exits_2_without_outputs(self, tmp_path):
        too_big_seed = SMALL_SCENARIO.replace("scenario.seeds = 3,4",
                                              f"scenario.seeds = 3,{2**64}")
        # 3 source samples across the aperture, below speckle.MIN_APERTURE_SAMPLES
        undersampled = SMALL_SCENARIO.replace("optics.lc_target_m = 100e-6",
                                              "optics.lc_target_m = 1e-3")
        for text in (SMALL_SCENARIO + "scenario.bogus = 1\n", too_big_seed, undersampled,
                     SMALL_SCENARIO + "optics.z1_m = 0.5\n",
                     SMALL_SCENARIO + "optics.wavelength_m = 650e-9\n",
                     SMALL_SCENARIO + "optics.z_m = 0.4\n",
                     SMALL_SCENARIO + "optics.source_width_m = 1e-3\n",
                     SMALL_SCENARIO + "gics.debias = true\n",
                     SMALL_SCENARIO + "gics.tol_rel_obj = 1e-8\n",
                     # ".." would put the seed directories beside out/, not under it
                     SMALL_SCENARIO.replace("name = smoke", "name = ."),
                     SMALL_SCENARIO.replace("name = smoke", "name = .."),
                     # all pixels above 0.5, then none: no background, no support
                     gray_mask_text(tmp_path, 128), gray_mask_text(tmp_path, 127)):
            path = self.write_scenario(tmp_path, text)
            out = tmp_path / "out"
            assert cli.main(["run", str(path), "--out", str(out)]) == 2
            assert {p.name for p in tmp_path.iterdir()} == {"scenario.txt", "gray128.pgm",
                                                           "gray127.pgm"}

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.txt")]) == 2

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        path = self.write_scenario(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GHOSTBENCH_OUT", str(tmp_path / "envout"))
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "envout" / "smoke").is_dir()

    def test_trend_cli(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, sweep_text("60e-6,120e-6"))
        out = tmp_path / "out"
        code = cli.main(["run", str(path), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "monotone_gi_snr=" in captured.out
        assert (out / "smoke" / "trend.csv").is_file()
        jobs = sorted(p.relative_to(out / "smoke").as_posix() for p in out.glob("smoke/lc_*/*"))
        assert jobs == ["lc_0.00012/3", "lc_0.00012/4", "lc_6e-05/3", "lc_6e-05/4"]
        for job in jobs:
            assert (out / "smoke" / job / "metrics.csv").is_file()

    def test_trend_needs_two_lcs(self, tmp_path, capsys):
        # one coherence length is a run: the run layout, no table and no verdict
        path = self.write_scenario(tmp_path, sweep_text("60e-6"))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "smoke").iterdir()) == ["3", "4"]
        assert capsys.readouterr().out == ""

    def test_trend_command_and_lc_option_are_gone(self, tmp_path):
        path = self.write_scenario(tmp_path)
        out = tmp_path / "out"
        for argv in (["trend", str(path), "--lc", "60e-6,120e-6", "--out", str(out)],
                     ["run", str(path), "--lc", "60e-6,120e-6", "--out", str(out)]):
            with pytest.raises(SystemExit) as exited:
                cli.main(argv)
            assert exited.value.code == 2
        assert not out.exists()
        assert not hasattr(ghostbench, "trend_experiment")

    @pytest.mark.parametrize("lc,seeds", [("60e-6,120e-6", "-1,2"), ("60e-6,120e-6", "3,3"),
                                          ("60e-6,120e-6", "3"), ("nan,1e-4", "3,4"),
                                          ("1e-4,1e-3", "3,4"), ("1e-4,1e-4", "3,4")])
    def test_trend_bad_lc_or_seeds_exits_2(self, tmp_path, lc, seeds):
        """``lc`` is the file's optics.lc_target_m list, ``seeds`` its seed list."""
        path = self.write_scenario(tmp_path, sweep_text(lc, SMALL_SCENARIO.replace(
            "scenario.seeds = 3,4", f"scenario.seeds = {seeds}")))
        out = tmp_path / "out"
        argv = ["run", str(path), "--out", str(out)]
        assert cli.main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1", "2"])
    @pytest.mark.parametrize("command", ["run", "trend"])
    def test_threads_below_one_exits_2(self, tmp_path, command, threads):
        """--threads is gone: argparse rejects it with exit 2 for any value.

        ``command`` "trend" runs a sweep file, "run" a single-l_c one.
        """
        path = self.write_scenario(tmp_path, sweep_text(
            "100e-6" if command == "run" else "60e-6,120e-6"))
        out = tmp_path / "out"
        argv = ["run", str(path), "--out", str(out), "--threads", threads]
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        assert not out.exists()

    def test_zero_gics_image_run_and_trend_exit_0(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, SMALL_SCENARIO.replace("gics.tau = 1e-3",
                                                                    "gics.tau = 1e9"))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        for seed in ("3", "4"):
            assert len(list((out / "smoke" / seed).iterdir())) == 7
        path = self.write_scenario(tmp_path, sweep_text("60e-6,120e-6", SMALL_SCENARIO.replace(
            "gics.tau = 1e-3", "gics.tau = 1e9")))
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert "monotone_gics_mse=true" in capsys.readouterr().out
        assert (out / "smoke" / "trend.csv").is_file()

    @staticmethod
    def run_from_checkout(path, out, **env):
        """``python -m ghostbench run path --out out`` from the checkout's src, in a new
        process whose environment is this one updated by ``env`` (None removes a variable)."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])), **env}
        return subprocess.run([sys.executable, "-m", "ghostbench", "run", str(path),
                               "--out", str(out)], capture_output=True, text=True, timeout=120,
                              env={key: value for key, value in env.items() if value is not None})

    def test_python_dash_m_from_checkout(self, tmp_path):
        path = self.write_scenario(tmp_path, SMALL_SCENARIO + "scenario.bogus = 1\n")
        out = tmp_path / "out"
        done = self.run_from_checkout(path, out)
        assert done.returncode == 2
        assert "unknown scenario key" in done.stderr
        assert not out.exists()

    def test_gi_bytes_equal_at_one_and_the_default_blas_thread_count(self, tmp_path):
        """The GI files and truth.pgm do not depend on the BLAS thread count the
        process inherits (the GICS files may; see the README's determinism
        paragraph).  Only separate processes can run at two counts: the frame
        hold's lock, ``forward._BLAS_PIN``, is not re-entrant."""
        path = self.write_scenario(tmp_path, sweep_text("100e-6,60e-6"))
        for name, threads in (("one", "1"), ("default", None)):
            done = self.run_from_checkout(path, tmp_path / name, OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
        for job in ("lc_0.0001/3", "lc_0.0001/4", "lc_6e-05/3", "lc_6e-05/4"):
            for name in ("gi.pgm", "gi_raw.csv", "truth.pgm"):
                one, default = (tmp_path / run / "smoke" / job / name for run in ("one", "default"))
                assert one.read_bytes() == default.read_bytes(), f"{job}/{name}"


class TestRecipes:
    def test_double_slit_sweep_parses(self, tmp_path):
        texts = harness.double_slit_sweep_scenarios((276.7e-6, 135.5e-6, 68.8e-6))
        assert len(texts) == 3
        names = set()
        for text in texts:
            scenario = harness.parse_scenario_text(text, tmp_path)
            assert scenario.m == 500
            names.add(scenario.name)
        assert len(names) == 3

    def test_ndarray_lc_list_matches_tuple(self, tmp_path):
        from_tuple = harness.double_slit_sweep_scenarios(lc_list=(68.8e-6,))[0]
        from_array = harness.double_slit_sweep_scenarios(lc_list=np.array([68.8e-6]))[0]
        assert from_array == from_tuple
        scenario = harness.parse_scenario_text(from_array, tmp_path)
        assert scenario.configs == harness.parse_scenario_text(from_tuple, tmp_path).configs

    def test_aperture_sweep_parses(self, tmp_path):
        rng = np.random.default_rng(0)
        raster = (rng.integers(0, 2, (100, 100)) * 255).astype(np.uint8).tobytes()
        (tmp_path / "aperture.pgm").write_bytes(b"P5\n100 100\n255\n" + raster)
        for method, m in (("gi", 2000), ("gics", 1000)):
            texts = harness.aperture_sweep_scenarios("aperture.pgm", method, m,
                                                     (272.2e-6, 193.5e-6, 109.6e-6))
            assert len(texts) == 3
            for text in texts:
                scenario = harness.parse_scenario_text(text, tmp_path)
                assert scenario.methods == (method,)
                assert scenario.m == m


# The double-slit recipe as it was written out key by key, every slit and
# bench key explicit.
EXPLICIT_SLIT_RECIPE = """\
scenario.name = slit_lc69um
scenario.m = 500
scenario.seeds = 1,2,3,4,5
scenario.methods = gi,gics
scenario.mask = double_slit
scenario.slit_width_m = 1e-4
scenario.slit_height_m = 1e-3
scenario.slit_separation_m = 2e-4
optics.lc_target_m = 6.88e-05
optics.grid_n = 100
optics.pixel_pitch_m = 15e-6
gics.tau = 0.001
"""


def rows_parsed_by(parse):
    return st.sampled_from([k for k, row in harness.SCHEMA.items() if row.parse is parse])


class TestSchema:
    @given(key=rows_parsed_by(float), value=st.floats(allow_nan=False))
    def test_float_rows_roundtrip(self, key, value):
        assert harness.SCHEMA[key].parse(repr(value)) == value

    @given(key=rows_parsed_by(harness._finite), value=st.floats(allow_nan=False,
                                                               allow_infinity=False))
    def test_finite_rows_roundtrip(self, key, value):
        assert harness.SCHEMA[key].parse(repr(value)) == value

    @given(key=rows_parsed_by(harness._length),
           value=st.floats(min_value=0, exclude_min=True, allow_infinity=False))
    def test_length_rows_roundtrip(self, key, value):
        assert harness.SCHEMA[key].parse(repr(value)) == value

    @given(lengths=st.lists(st.floats(min_value=0, exclude_min=True, allow_infinity=False),
                            min_size=1, max_size=4))
    def test_length_lists_roundtrip(self, lengths):
        text = ",".join(map(repr, lengths))
        assert harness.SCHEMA["optics.lc_target_m"].parse(text) == tuple(lengths)

    def test_comma_lists_skip_empty_items(self):
        assert harness.SCHEMA["optics.lc_target_m"].parse("1e-4,") == (1e-4,)
        assert harness.SCHEMA["optics.lc_target_m"].parse("1e-4, ,5e-5") == (1e-4, 5e-5)
        assert harness.SCHEMA["scenario.seeds"].parse("1,2,") == (1, 2)
        assert harness.SCHEMA["scenario.methods"].parse("gi,") == ("gi",)

    @given(key=rows_parsed_by(int), value=st.integers())
    def test_int_rows_roundtrip(self, key, value):
        assert harness.SCHEMA[key].parse(str(value)) == value

    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8, unique=True))
    def test_seed_lists_roundtrip(self, seeds):
        assert harness.SCHEMA["scenario.seeds"].parse(",".join(map(str, seeds))) == tuple(seeds)

    def assert_canonical_recipe(self, text, tmp_path):
        parsed = harness.parse_scenario_text(text, tmp_path)
        recipe = harness.parse_scenario_text(
            harness.double_slit_sweep_scenarios(lc_list=(68.8e-6,))[0], tmp_path)
        for field in ("name", "configs", "slit_geometry", "m", "methods", "gics", "seeds",
                      "noise_sigma"):
            assert getattr(recipe, field) == getattr(parsed, field), field
        assert np.array_equal(recipe.mask.values, parsed.mask.values)

    def test_recipe_matches_explicit_text(self, tmp_path):
        self.assert_canonical_recipe(EXPLICIT_SLIT_RECIPE, tmp_path)

    def test_readme_lists_every_key(self):
        section = README.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"\b(?:scenario|optics|gics)\.[a-z0-9_]+", section))
        assert named == set(harness.SCHEMA)

    def test_readme_canonical_scenario_parses(self, tmp_path):
        block = README.split("The canonical double slit", 1)[1].split("```\n")[1]
        self.assert_canonical_recipe(block, tmp_path)
