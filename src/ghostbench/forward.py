"""Two-arm forward model: bucket detector behind the object, full reference record.

The reference plane sits at the object-plane distance from the source, so the
reference arm records the same frame as the object plane (perfect arm
correlation); no separate reference distance exists.  Detector noise is
modeled as additive Gaussian noise on the bucket only, seeded per frame so
campaigns are reproducible regardless of the order in which frames are
acquired.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .optics import ObjectMask, OpticalConfig, _Owned, _frozen
from .speckle import SEED_LIMIT, synthesize_frame

# Extra entropy word separating the bucket-noise stream from the frame stream.
_NOISE_STREAM = 0x4255434B


def _finite_min(arr: np.ndarray, what: str) -> float:
    """Minimum of a non-empty array; ConfigError unless every value is finite.

    NaN propagates through min and max and an infinity is one of them, so the
    check needs no full-size boolean temporary.
    """
    lo, hi = float(arr.min()), float(arr.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"{what} must be finite")
    return lo


@dataclass(frozen=True)
class MeasurementSet:
    """One campaign: row i of ``intensities`` is reference frame i, ``buckets[i]`` its bucket.

    ``intensities`` is a read-only (m, grid_n, grid_n) stack and ``buckets`` a
    read-only length-m vector of finite values; ``seed`` is the campaign's
    master seed.  Both arrays are copies of what the caller passed, except the
    stack that ``run_campaign`` allocates and hands over.
    """

    intensities: np.ndarray
    buckets: np.ndarray
    config: OpticalConfig
    seed: int
    noise_sigma: float = 0.0

    def __post_init__(self):
        intensities = _frozen(self.intensities)
        buckets = _frozen(self.buckets)
        if intensities.ndim != 3 or intensities.shape[1] != intensities.shape[2]:
            raise ConfigError(f"intensities must be an (m, n, n) stack, got {intensities.shape}")
        if intensities.shape[0] < 1:
            raise ConfigError("a measurement set needs at least one frame")
        if buckets.shape != (intensities.shape[0],):
            raise ConfigError(
                f"need one bucket per frame: {buckets.shape} buckets for "
                f"{intensities.shape[0]} frames")
        bucket_min = _finite_min(buckets, "bucket values")
        if intensities.shape[1] != self.config.grid_n:
            raise ConfigError(
                f"frame grid {intensities.shape[1]} does not match config grid "
                f"{self.config.grid_n}")
        if _finite_min(intensities, "frame intensities") < 0:
            raise ConfigError("frame intensities must be non-negative")
        if not (intensities.mean(axis=(1, 2)) > 0).all():
            raise ConfigError("a frame intensity has non-positive mean")
        if not (0 <= int(self.seed) < SEED_LIMIT):
            raise ConfigError("seed must fit an unsigned 64-bit integer")
        if not (self.noise_sigma >= 0 and np.isfinite(self.noise_sigma)):
            raise ConfigError("noise_sigma must be finite and non-negative")
        if self.noise_sigma == 0 and bucket_min < 0:
            raise ConfigError("noiseless buckets cannot be negative")
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


def run_campaign(config: OpticalConfig, mask: ObjectMask, m: int, master_seed: int,
                 noise_sigma: float = 0.0) -> MeasurementSet:
    """Acquire m frames, their buckets and optional additive Gaussian bucket noise.

    Frame i is ``synthesize_frame(config, master_seed, i)`` (0-based); both it
    and its noise draw depend on (master_seed, i) alone.
    """
    if m < 1:
        raise ConfigError("a campaign needs m >= 1 measurements")
    if mask.grid_n != config.grid_n:
        raise ConfigError(
            f"mask grid {mask.grid_n} does not match config grid {config.grid_n}")
    if not (noise_sigma >= 0 and np.isfinite(noise_sigma)):
        raise ConfigError("noise_sigma must be finite and non-negative")

    intensities = np.empty((m, config.grid_n, config.grid_n))
    buckets = np.empty(m)
    for i in range(m):
        intensities[i] = synthesize_frame(config, master_seed, i)
        buckets[i] = bucket_measure(intensities[i], mask)
        if noise_sigma > 0:
            rng = np.random.default_rng([int(master_seed), i, _NOISE_STREAM])
            buckets[i] += noise_sigma * rng.standard_normal()
    return MeasurementSet(_Owned(intensities), buckets, config, int(master_seed), noise_sigma)
