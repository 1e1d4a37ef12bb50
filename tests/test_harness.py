import dataclasses
import logging
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghostbench import cli, forward, harness, recon_gics
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
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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

    def test_gi_needs_two_measurements(self, tmp_path):
        bad = SMALL_SCENARIO.replace("scenario.m = 16", "scenario.m = 1")
        with pytest.raises(ConfigError, match="m >= 2"):
            harness.parse_scenario_text(bad, tmp_path)

    def test_single_method_scenario(self, tmp_path):
        for methods in ("gics", "gics,", " GICS , gics"):
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
                                      "scenario.slit_center_y_m = -inf"])
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

    def test_one_seed_at_a_time_makes_its_frames_in_parallel(self, tmp_path, monkeypatch):
        made = []
        synthesize = forward.synthesize_frame
        monkeypatch.setattr(forward, "_frame_workers", lambda: 2)
        monkeypatch.setattr(forward, "synthesize_frame", lambda config, seed, i, out: (
            made.append((config.coherence_length, seed, threading.get_ident())),
            synthesize(config, seed, i, out=out))[1])
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        harness.run_scenario(scenario, tmp_path / "out")
        harness.trend_experiment(scenario, [60e-6, 120e-6])
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
        from ghostbench import ioutil
        ioutil.write_pgm(tmp_path / "mask.pgm", samples, 255)
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

    def test_gi_only_peak_memory_does_not_grow_with_m(self, tmp_path):
        def traced_peak(m):
            scenario = self.gi_scenario(tmp_path, "gi", m)
            tracemalloc.start()
            try:
                harness.run_scenario(scenario, tmp_path / str(m))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        harness.run_scenario(self.gi_scenario(tmp_path, "gi", 2), tmp_path / "warm")
        small, large = traced_peak(200), traced_peak(800)
        # a 48 x 48 stack of 800 frames alone is 14.7 MB; a block is 0.15 MB
        assert large < 1.2 * small


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
        written = b"".join(tree_bytes(tmp_path / "out").values())
        assert b"iteration cap" not in written

    def test_capped_trend_warns_once_per_lc_and_seed(self, tmp_path, caplog):
        text = SMALL_SCENARIO.replace("gics.max_iters = 150\n", "gics.max_iters = 5\n")
        scenario = harness.parse_scenario_text(text, tmp_path)
        with caplog.at_level(logging.WARNING, logger="ghostbench"):
            harness.trend_experiment(scenario, [60e-6, 120e-6], out_dir=tmp_path / "out")
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
    def test_rows_sorted_descending_with_verdicts(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        csv_text, verdicts = harness.trend_experiment(scenario, [60e-6, 120e-6, 90e-6])
        lines = csv_text.splitlines()
        assert lines[0] == harness.TREND_HEADER
        lcs = [float(line.split(",")[0]) for line in lines[1:7]]
        assert lcs == sorted(lcs, reverse=True)
        assert set(verdicts) == {"monotone_gi_snr", "monotone_gics_mse"}
        assert lines[-2].startswith("verdict,monotone_gi_snr,")
        assert lines[-1].startswith("verdict,monotone_gics_mse,")

    def test_shuffled_lc_list_gives_identical_csv(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        a, _ = harness.trend_experiment(scenario, [120e-6, 60e-6])
        b, _ = harness.trend_experiment(scenario, [60e-6, 120e-6])
        assert a == b

    def test_writes_trend_csv(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        out = tmp_path / "out"
        csv_text, _ = harness.trend_experiment(scenario, [60e-6, 120e-6], out_dir=out)
        assert (out / "smoke" / "trend.csv").read_text() == csv_text

    def test_requires_two_of_each(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        with pytest.raises(ConfigError):
            harness.trend_experiment(scenario, [100e-6])
        one_seed = harness.parse_scenario_text(
            SMALL_SCENARIO.replace("scenario.seeds = 3,4", "scenario.seeds = 3"), tmp_path)
        with pytest.raises(ConfigError, match="at least 2 seeds"):
            harness.trend_experiment(one_seed, [60e-6, 120e-6])

    def test_repeated_lc_verdicts_trivially_true(self, tmp_path):
        # a repeated l_c would run its jobs twice, write its rows twice and make the
        # monotonicity verdicts trivially true, so it is rejected before any job runs
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        out = tmp_path / "out"
        for lc_list in ([100e-6, 100e-6], [60e-6, 1e-4, 120e-6, 100e-6]):
            with pytest.raises(ConfigError, match="coherence lengths"):
                harness.trend_experiment(scenario, lc_list, out_dir=out)
        assert not out.exists()

    def test_rejects_bad_lc_and_seeds(self, tmp_path):
        scenario = harness.parse_scenario_text(SMALL_SCENARIO, tmp_path)
        for lc_list in ([float("nan"), 100e-6], [float("inf"), 100e-6], [0.0, 100e-6]):
            with pytest.raises(ConfigError, match="coherence lengths"):
                harness.trend_experiment(scenario, lc_list)
        # seeds are checked where every scenario is built, for run and trend alike
        for seeds in ((3, 3), (-1, 2), (2**64, 2), ()):
            with pytest.raises(ConfigError, match="seed"):
                dataclasses.replace(scenario, seeds=seeds)


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
                     SMALL_SCENARIO + "gics.tol_rel_obj = 1e-8\n"):
            path = self.write_scenario(tmp_path, text)
            out = tmp_path / "out"
            assert cli.main(["run", str(path), "--out", str(out)]) == 2
            assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.txt")]) == 2

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        path = self.write_scenario(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GHOSTBENCH_OUT", str(tmp_path / "envout"))
        assert cli.main(["run", str(path)]) == 0
        assert (tmp_path / "envout" / "smoke").is_dir()

    def test_trend_cli(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["trend", str(path), "--lc", "60e-6,120e-6", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "monotone_gi_snr=" in captured.out
        assert (out / "smoke" / "trend.csv").is_file()

    def test_trend_needs_two_lcs(self, tmp_path):
        path = self.write_scenario(tmp_path)
        assert cli.main(["trend", str(path), "--lc", "60e-6"]) == 2

    @pytest.mark.parametrize("lc,seeds", [("60e-6,120e-6", "-1,2"), ("60e-6,120e-6", "3,3"),
                                          ("60e-6,120e-6", "3"), ("nan,1e-4", "3,4"),
                                          ("1e-4,1e-3", "3,4"), ("1e-4,1e-4", "3,4")])
    def test_trend_bad_lc_or_seeds_exits_2(self, tmp_path, lc, seeds):
        """``lc`` is the --lc list, ``seeds`` the scenario file's seed list."""
        path = self.write_scenario(tmp_path, SMALL_SCENARIO.replace(
            "scenario.seeds = 3,4", f"scenario.seeds = {seeds}"))
        out = tmp_path / "out"
        argv = ["trend", str(path), f"--lc={lc}", "--out", str(out)]
        assert cli.main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1", "2"])
    @pytest.mark.parametrize("command", ["run", "trend"])
    def test_threads_below_one_exits_2(self, tmp_path, command, threads):
        """--threads is gone: argparse rejects it with exit 2 for any value."""
        path = self.write_scenario(tmp_path)
        out = tmp_path / "out"
        extra = ["--lc", "60e-6,120e-6"] if command == "trend" else []
        argv = [command, str(path), "--out", str(out), "--threads", threads, *extra]
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
        assert cli.main(["trend", str(path), "--lc", "60e-6,120e-6", "--out", str(out)]) == 0
        assert "monotone_gics_mse=true" in capsys.readouterr().out
        assert (out / "smoke" / "trend.csv").is_file()

    def test_selftest_passes(self):
        assert cli.main(["selftest"]) == 0

    def test_python_dash_m_from_checkout(self, tmp_path):
        path = self.write_scenario(tmp_path, SMALL_SCENARIO + "scenario.bogus = 1\n")
        out = tmp_path / "out"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "ghostbench", "run", str(path),
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 2
        assert "unknown scenario key" in done.stderr
        assert not out.exists()


class TestRecipes:
    def test_double_slit_sweep_parses(self, tmp_path):
        texts = harness.double_slit_sweep_scenarios()
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
        assert scenario.config == harness.parse_scenario_text(from_tuple, tmp_path).config

    def test_aperture_sweep_parses(self, tmp_path):
        from ghostbench import ioutil
        rng = np.random.default_rng(0)
        ioutil.write_pgm(tmp_path / "aperture.pgm", rng.integers(0, 2, (100, 100)) * 255, 255)
        for method, m in (("gi", 2000), ("gics", 1000)):
            texts = harness.aperture_sweep_scenarios("aperture.pgm", method, m)
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
        for field in ("name", "config", "slit_geometry", "m", "methods", "gics", "seeds",
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
