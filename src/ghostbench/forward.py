"""Two-arm forward model: bucket detector behind the object, full reference record.

The reference plane sits at the object-plane distance from the source, so the
reference arm records the same frame as the object plane (perfect arm
correlation); no separate reference distance exists.  Detector noise is
modeled as additive Gaussian noise on the bucket only, seeded per frame so
campaigns are reproducible regardless of the order in which frames are
acquired.

A campaign is produced by one generator, ``campaign_blocks``, as checked,
contiguous frame-major blocks of ``_BLOCK_FRAMES`` (8) frames in frame order;
each frame is synthesized in place into its row of the block.  A consumer that
needs only running sums (GI) folds the blocks and never holds more than one.
``run_campaign`` stores them into one read-only pixel-major stack, which GICS
needs whole: row p of the (grid_n**2, m) array holds pixel p's m values, so
the sensing operator reads the pixels it needs as contiguous m-vectors.  The
frames are seen as the stack's (m, grid_n, grid_n) view, whose frames are
strided, so every elementwise pass over a frame (checks, bucket, GI fold)
runs on the contiguous block that is stored, never on the stack.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .optics import ObjectMask, OpticalConfig, _Owned, _frozen
from .speckle import _checked_seed, _integer, synthesize_frame

# Extra entropy word separating the bucket-noise stream from the frame stream.
_NOISE_STREAM = 0x4255434B

# Frames per block of every campaign: a streamed consumer holds one block at a
# time, a stacked campaign one block beside its stack.
_BLOCK_FRAMES = 8


def _finite_min(arr: np.ndarray, what: str) -> float:
    """Minimum of a non-empty array; ConfigError unless every value is finite.

    NaN propagates through min and max and an infinity is one of them, so the
    check needs no full-size boolean temporary.
    """
    lo, hi = float(arr.min()), float(arr.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"{what} must be finite")
    return lo


def _check_measurements(intensities: np.ndarray, buckets: np.ndarray,
                       noise_sigma: float) -> None:
    """ConfigError unless (frames, buckets) are a valid record: every value
    finite, frames non-negative with a positive mean each, and buckets
    non-negative when there is no noise.

    ``intensities`` is a (b, n, n) stack, ``buckets`` its b bucket values.
    The same checks serve a whole ``MeasurementSet`` and each block of a
    streamed campaign.
    """
    bucket_min = _finite_min(buckets, "bucket values")
    if _finite_min(intensities, "frame intensities") < 0:
        raise ConfigError("frame intensities must be non-negative")
    if not (intensities.mean(axis=(1, 2)) > 0).all():
        raise ConfigError("a frame intensity has non-positive mean")
    if noise_sigma == 0 and bucket_min < 0:
        raise ConfigError("noiseless buckets cannot be negative")


def _check_noise_sigma(noise_sigma: float) -> None:
    if not (noise_sigma >= 0 and np.isfinite(noise_sigma)):
        raise ConfigError("noise_sigma must be finite and non-negative")


def _frames_of(stack: np.ndarray, grid_n: int) -> np.ndarray:
    """The (m, grid_n, grid_n) frame view of a pixel-major (grid_n**2, m) stack."""
    return stack.T.reshape(-1, grid_n, grid_n)


def _check_campaign(config: OpticalConfig, mask: ObjectMask, m: int, master_seed: int,
                    noise_sigma: float) -> None:
    if _integer(m, "m") < 1:
        raise ConfigError("a campaign needs m >= 1 measurements")
    if mask.grid_n != config.grid_n:
        raise ConfigError(
            f"mask grid {mask.grid_n} does not match config grid {config.grid_n}")
    _checked_seed(master_seed)
    _check_noise_sigma(noise_sigma)


@dataclass(frozen=True)
class MeasurementSet:
    """One campaign: row i of ``intensities`` is reference frame i, ``buckets[i]`` its bucket.

    ``intensities`` is a read-only (m, grid_n, grid_n) stack and ``buckets`` a
    read-only length-m vector of finite values; ``seed`` is the campaign's
    master seed.  The stack is always the frame view of a pixel-major
    (grid_n**2, m) array (see ``_frames_of``).  A caller's stack is checked
    whole and copied into that layout, and the buckets are copied too.  Only
    the stack that ``run_campaign`` allocates is handed over uncopied; its
    blocks passed the same checks as they were made, so it is not checked
    again.
    """

    intensities: np.ndarray
    buckets: np.ndarray
    config: OpticalConfig
    seed: int
    noise_sigma: float = 0.0

    def __post_init__(self):
        owned = isinstance(self.intensities, _Owned)
        given = self.intensities.array if owned else np.asarray(self.intensities, dtype=float)
        buckets = _frozen(self.buckets)
        if given.ndim != 3 or given.shape[1] != given.shape[2]:
            raise ConfigError(f"intensities must be an (m, n, n) stack, got {given.shape}")
        if given.shape[0] < 1:
            raise ConfigError("a measurement set needs at least one frame")
        if buckets.shape != (given.shape[0],):
            raise ConfigError(
                f"need one bucket per frame: {buckets.shape} buckets for "
                f"{given.shape[0]} frames")
        if given.shape[1] != self.config.grid_n:
            raise ConfigError(
                f"frame grid {given.shape[1]} does not match config grid "
                f"{self.config.grid_n}")
        object.__setattr__(self, "seed", _checked_seed(self.seed))
        _check_noise_sigma(self.noise_sigma)
        if owned:
            intensities = _frozen(self.intensities)
        else:
            _check_measurements(given, buckets, self.noise_sigma)
            stack = np.empty((given.shape[1] * given.shape[2], given.shape[0]))
            intensities = _frames_of(stack, given.shape[1])
            intensities[...] = given
            stack.flags.writeable = False
            intensities.flags.writeable = False
        object.__setattr__(self, "intensities", intensities)
        object.__setattr__(self, "buckets", buckets)

    @property
    def m(self) -> int:
        return self.intensities.shape[0]


def bucket_measure(intensity: np.ndarray, mask: ObjectMask) -> float:
    """Total intensity transmitted by the mask: sum of intensity * transmittance."""
    if intensity.shape != mask.values.shape:
        raise ConfigError(
            f"frame grid {intensity.shape} does not match mask grid {mask.values.shape}")
    return float(np.sum(intensity * mask.values))


def campaign_blocks(config: OpticalConfig, mask: ObjectMask, m: int, master_seed: int,
                    noise_sigma: float = 0.0, out: np.ndarray | None = None):
    """Yield the campaign's m frames and buckets as read-only ``(frames, buckets)`` blocks.

    Blocks hold ``_BLOCK_FRAMES`` frames (the last one may hold fewer), arrive
    in frame order, and are new contiguous (b, grid_n, grid_n) arrays.  Frame
    i is ``synthesize_frame(config, master_seed, i)`` (0-based), written in
    place into its row of the block, and its bucket is ``bucket_measure`` of
    it, plus additive Gaussian noise of std ``noise_sigma``; frame and noise
    draw depend on (master_seed, i) alone.  Each block passes
    ``_check_measurements`` before it is yielded.  With ``out``, a pixel-major
    (grid_n**2, m) array, each checked block is also stored into its columns
    of ``out`` before it is yielded.  ``m`` and ``master_seed`` must be
    integers.
    """
    _check_campaign(config, mask, m, master_seed, noise_sigma)
    for start in range(0, m, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, m)
        frames = np.empty((stop - start, config.grid_n, config.grid_n))
        buckets = np.empty(stop - start)
        for j, i in enumerate(range(start, stop)):
            synthesize_frame(config, master_seed, i, out=frames[j])
            buckets[j] = bucket_measure(frames[j], mask)
            if noise_sigma > 0:
                rng = np.random.default_rng([int(master_seed), i, _NOISE_STREAM])
                buckets[j] += noise_sigma * rng.standard_normal()
        _check_measurements(frames, buckets, noise_sigma)
        if out is not None:
            out[:, start:stop] = frames.reshape(stop - start, -1).T
        frames.flags.writeable = False
        buckets.flags.writeable = False
        yield frames, buckets
        del frames, buckets  # one block alive at a time


def run_campaign(config: OpticalConfig, mask: ObjectMask, m: int, master_seed: int,
                 noise_sigma: float = 0.0, fold=None):
    """The whole campaign of ``campaign_blocks`` as one ``MeasurementSet``.

    The frames are stored straight into the set's pixel-major stack, which is
    handed over uncopied.  ``fold``, a consumer of the block iterator such as
    ``recon_gi.gi_from_blocks``, sees each block while it is still
    contiguous; with it, the result is ``(ms, fold(blocks))``.
    """
    _check_campaign(config, mask, m, master_seed, noise_sigma)
    stack = np.empty((config.grid_n ** 2, m))
    bucket_blocks = []

    def stored_blocks():
        for block in campaign_blocks(config, mask, m, master_seed, noise_sigma, out=stack):
            bucket_blocks.append(block[1])
            yield block
            del block  # the next block is made without this one

    blocks = stored_blocks()
    folded = None if fold is None else fold(blocks)
    deque(blocks, maxlen=0)  # store whatever the fold left unread
    stack.flags.writeable = False
    ms = MeasurementSet(_Owned(_frames_of(stack, config.grid_n)), np.concatenate(bucket_blocks),
                        config, master_seed, noise_sigma)
    return ms if fold is None else (ms, folded)
