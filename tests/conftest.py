import sys
from pathlib import Path

import pytest

try:
    import ghostbench  # noqa: F401
except ImportError:  # run from a fresh checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture
def exact_solve(monkeypatch):
    """Run GPSR to a KKT residual of 1e-10 x ||A'b||inf, four decades below the
    default rule, so an accuracy gate checks more than the stopping rule."""
    from ghostbench import recon_gics

    monkeypatch.setattr(recon_gics, "_KKT_REL_TOL", 1e-10)
