"""Ghost-image reconstruction by bucket/reference intensity-fluctuation correlation.

The estimator needs only three running sums over the frames, so it folds a
campaign block by block: a streamed campaign is imaged in O(grid_n**2)
memory plus one block, whatever m is.
"""
from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .forward import _BLOCK_FRAMES, MeasurementSet
from . import ioutil


def gi_from_blocks(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Correlation image <B * I(x,y)> - <B><I(x,y)> over (frames, buckets) blocks.

    Each block is a (b, n, n) frame stack and its b buckets.  The blocks are
    folded into sum(B * I), sum(I), sum(B) and the frame count, in the order
    given.  Returns a read-only (n, n) array; negative estimator noise is kept.
    """
    weighted = frame_sum = None
    bucket_sum = 0.0
    count = 0
    for frames, buckets in blocks:
        flat = frames.reshape(len(buckets), -1)
        if weighted is None:
            shape = frames.shape[1:]
            weighted = np.zeros(flat.shape[1])
            frame_sum = np.zeros(flat.shape[1])
        weighted += buckets @ flat
        frame_sum += flat.sum(axis=0)
        bucket_sum += float(buckets.sum())
        count += len(buckets)
        del frames, buckets, flat  # let a streamed block go before the next one is made
    if count < 2:
        raise ConfigError("fluctuation correlation needs at least 2 frames")
    values = (weighted / count - (bucket_sum / count) * (frame_sum / count)).reshape(shape)
    values.flags.writeable = False
    return values


def gi_reconstruct(ms: MeasurementSet) -> np.ndarray:
    """``gi_from_blocks`` over the set's stack in ``_BLOCK_FRAMES`` slices.

    The slices are the blocks a streamed campaign yields, so this image is
    bit-identical to the streamed one of the same campaign.
    """
    return gi_from_blocks((ms.intensities[start:start + _BLOCK_FRAMES],
                           ms.buckets[start:start + _BLOCK_FRAMES])
                          for start in range(0, ms.m, _BLOCK_FRAMES))


def write_image_csv(image: np.ndarray, path: str | Path) -> None:
    """Raw (unnormalized) image values as CSV, one grid row per line."""
    lines = [",".join(repr(v) for v in row) for row in image.tolist()]
    ioutil.atomic_write_text(path, "\n".join(lines) + "\n")
