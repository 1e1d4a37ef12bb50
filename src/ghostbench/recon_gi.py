"""Ghost-image reconstruction by bucket/reference intensity-fluctuation correlation."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError
from .forward import MeasurementSet
from . import ioutil


def gi_reconstruct(ms: MeasurementSet) -> np.ndarray:
    """Correlation image <B * I(x,y)> - <B><I(x,y)> over the campaign frames.

    Returns a read-only (grid_n, grid_n) array.  Negative estimator noise is
    kept.  The reduction runs over the set's fixed intensity stack, so results
    are reproducible to the last bit for a given measurement set.
    """
    if ms.m < 2:
        raise ConfigError("fluctuation correlation needs at least 2 frames")
    stack = ms.intensities
    buckets = ms.buckets
    values = np.tensordot(buckets, stack, axes=(0, 0)) / ms.m \
        - buckets.mean() * stack.mean(axis=0)
    values.flags.writeable = False
    return values


def write_image_csv(image: np.ndarray, path: str | Path) -> None:
    """Raw (unnormalized) image values as CSV, one grid row per line."""
    lines = [",".join(repr(v) for v in row) for row in image.tolist()]
    ioutil.atomic_write_text(path, "\n".join(lines) + "\n")
