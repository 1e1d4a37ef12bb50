"""Smoke runs of the experiment scripts, so a scenario-format change cannot break them silently."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_slit_sweep_writes_trend_table(tmp_path):
    done = run_script("slit_coherence_sweep.py", "--m", "10", "--seeds", "1,2",
                      "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["slit_sweep"]  # no per-l_c scenarios
    sweep = tmp_path / "slit_sweep"
    assert (sweep / "trend.csv").is_file()
    jobs = sorted(p.relative_to(sweep).as_posix() for p in sweep.glob("lc_*/*"))
    assert jobs == sorted(f"lc_{lc!r}/{seed}" for lc in (276.7e-6, 135.5e-6, 68.8e-6)
                          for seed in (1, 2))


def test_aperture_sweep_help():
    done = run_script("aperture_coherence_sweep.py", "--help")
    assert done.returncode == 0, done.stderr
