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
    assert (tmp_path / "slit_lc277um" / "trend.csv").is_file()


def test_aperture_sweep_help():
    done = run_script("aperture_coherence_sweep.py", "--help")
    assert done.returncode == 0, done.stderr
