"""Ghost-image reconstruction by bucket/reference intensity-fluctuation correlation.

The estimator needs only three running sums over the frames, so its one
entry point, ``gi_from_blocks``, folds a campaign frame by frame: a streamed
campaign is imaged in O(grid_n**2) memory plus one block, whatever m is.  A
campaign that GICS also needs is imaged while ``recon_gics.run_campaign``
stores it, by ``run_campaign(..., fold=gi_from_blocks)``; a caller's record of
(m, n, n) frames and m buckets by ``gi_from_blocks([(frames, buckets)])``.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import ConfigError


def gi_from_blocks(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Correlation image <B * I(x,y)> - <B><I(x,y)> over (frames, buckets) blocks.

    Each block is a (b, n, n) frame stack and its b buckets.  The frames are
    folded one at a time, in the order given, into sum(B * I), sum(I), sum(B)
    and the frame count; each B * I is formed in one scratch array.  Every sum
    is taken in frame order, so the image's bits depend neither on how the
    frames are split into blocks nor on their memory layout.  Returns a
    read-only (n, n) array; negative estimator noise is kept.
    """
    weighted = frame_sum = scratch = None
    bucket_sum = 0.0
    count = 0
    for frames, buckets in blocks:
        if weighted is None:
            weighted = np.zeros(frames.shape[1:])
            frame_sum = np.zeros(frames.shape[1:])
            scratch = np.empty(frames.shape[1:])
        for frame, bucket in zip(frames, buckets):
            weighted += np.multiply(bucket, frame, out=scratch)
            frame_sum += frame
            bucket_sum += float(bucket)
        count += len(buckets)
        frames = buckets = frame = None  # let a streamed block go before the next one is made
    if count < 2:
        raise ConfigError("fluctuation correlation needs at least 2 frames")
    values = weighted / count - (bucket_sum / count) * (frame_sum / count)
    values.flags.writeable = False
    return values
