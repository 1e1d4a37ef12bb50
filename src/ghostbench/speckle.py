"""Pseudo-thermal speckle synthesis with a prescribed transverse coherence length.

A frame is the far-field intensity of spatially incoherent light from a square
aperture: draw i.i.d. circular complex Gaussian samples on a source-plane grid
of n_src = source_oversample * grid_n samples per side, keep only a K x K
block (the aperture), and discrete-Fourier transform to the object plane,
whose output pitch is one detector pixel.  The ensemble field correlation on
the object plane is then separable, ``sinc(K dx / n_src) * sinc(K dy / n_src)``
with dx, dy in pixels, and its first zero sits at the coherence length
l_c = n_src * pixel_pitch / K.  So K = round(n_src * pixel_pitch / l_c), and a
frame depends on the bench only through (grid_n, n_src, K).  Intensity is
|field|^2 scaled to unit ensemble mean.  ``aperture_sample_count`` is the one
place K is computed; it refuses a K below ``MIN_APERTURE_SAMPLES``, so a
scenario and a frame reject the same undersampled sources.

Only the K x K block of source samples is nonzero, so the transform is
evaluated as an explicit (grid_n x K) DFT-matrix product instead of a full
source-grid FFT; the output samples are identical.
The K x K noise block is the frame's entire random stream, derived from
(master_seed, frame_index) alone, so frames can be generated in any order or
concurrently with bit-identical results.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .optics import OpticalConfig, _frozen, _integer

# Minimum source samples across the aperture; below this the rasterized
# aperture is too coarse for the target sinc correlation.  Raise
# OpticalConfig.source_oversample to satisfy it for wide-coherence setups.
MIN_APERTURE_SAMPLES = 8

SEED_LIMIT = 2**64


@dataclass(frozen=True)
class SpeckleStats:
    """Ensemble statistics: mean, contrast, row-lag covariance profile, measured l_c.

    Degenerate (zero-variance) ensembles report contrast 0 with NaN profile
    and NaN measured_lc.
    """

    mean_intensity: float
    contrast: float
    covariance_profile: np.ndarray
    measured_lc: float

    def __post_init__(self):
        object.__setattr__(self, "covariance_profile", _frozen(self.covariance_profile))
        if self.contrast < 0:
            raise ConfigError("contrast cannot be negative")


def aperture_sample_count(config: OpticalConfig) -> int:
    """Source samples K spanned by the aperture, round(n_src * pixel_pitch / l_c).

    Rounding quantizes the realized coherence length to n_src * pixel_pitch / K.
    A K below MIN_APERTURE_SAMPLES is a ConfigError.
    """
    n_src = config.source_oversample * config.grid_n
    k = int(round(n_src * config.pixel_pitch / config.coherence_length))
    if k < MIN_APERTURE_SAMPLES:
        raise ConfigError(
            f"source aperture spans only {k} source samples (need >= "
            f"{MIN_APERTURE_SAMPLES}); increase source_oversample")
    return k


@lru_cache(maxsize=16)
def _dft_factor(grid_n: int, n_src: int, k: int) -> np.ndarray:
    out_idx = np.arange(grid_n, dtype=float)[:, None]
    src_idx = np.arange(k, dtype=float)[None, :]
    w = np.exp((-2j * np.pi / n_src) * (out_idx * src_idx))
    w.flags.writeable = False
    return w


def _checked_seed(seed) -> int:
    """``seed`` as an int; ConfigError unless it is an integer in [0, 2**64)."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError("seed must fit an unsigned 64-bit integer")
    return seed


def synthesize_frame(config: OpticalConfig, master_seed: int, frame_index: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """One (grid_n, grid_n) speckle intensity; pure in (config, master_seed, frame_index).

    With ``out``, a writeable C-contiguous float64 (grid_n, grid_n) array, the
    intensity is written into it and ``out`` is returned; the bits are those of
    the allocating call.
    """
    seed = _checked_seed(master_seed)
    index = _integer(frame_index, "frame_index")
    if index < 0:
        raise ConfigError("frame_index must be non-negative")
    shape = (config.grid_n, config.grid_n)
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
              and out.flags.c_contiguous and out.flags.writeable):
        raise ConfigError(
            f"out must be a writeable C-contiguous float64 {shape} array")
    k = aperture_sample_count(config)
    n_src = config.source_oversample * config.grid_n
    w = _dft_factor(config.grid_n, n_src, k)
    rng = np.random.default_rng([seed, index])
    noise = rng.standard_normal((2, k, k))
    noise *= np.sqrt(0.5)
    amplitudes = np.empty((k, k), dtype=complex)
    amplitudes.real = noise[0]
    amplitudes.imag = noise[1]
    field = (w @ amplitudes) @ w.T
    # (re**2 + im**2) / K**2 in place: the same elementwise operations, so the same bits
    np.square(field.real, out=out)
    np.square(field.imag, out=field.imag)
    out += field.imag
    out /= float(k * k)
    return out


def intensity_stats(frames, pixel_pitch: float) -> SpeckleStats:
    """Ensemble statistics over frames of identical geometry.

    ``frames`` is an (m, n, n) intensity stack or a sequence of (n, n) arrays.

    mean_intensity averages the per-pixel ensemble mean over the central half
    of the field; contrast is std/mean of the central pixel across the
    ensemble; the covariance profile is the ensemble intensity covariance at
    row lags 0..n//2, averaged over rows and base positions and normalized
    to 1 at lag 0; measured_lc interpolates the profile's first zero crossing.
    """
    frames = [np.asarray(f, dtype=float) for f in frames]
    if len(frames) < 2:
        raise ConfigError("need at least 2 frames for ensemble statistics")
    shape = frames[0].shape
    if any(f.shape != shape for f in frames[1:]):
        raise ConfigError("frames have mismatched grids")
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ConfigError(f"frames must be square 2-D, got {shape}")
    if not (pixel_pitch > 0 and np.isfinite(pixel_pitch)):
        raise ConfigError(f"pixel_pitch must be finite and positive, got {pixel_pitch!r}")

    stack = np.stack(frames)
    n = shape[0]
    max_lag = n // 2

    ens_mean = stack.mean(axis=0)
    quarter = n // 4
    central = slice(quarter, quarter + n // 2)
    mean_intensity = float(ens_mean[central, central].mean())

    center_series = stack[:, n // 2, n // 2]
    center_mean = center_series.mean()
    contrast = float(center_series.std() / center_mean) if center_mean > 0 else 0.0

    level = float(stack.mean())
    # np.stack made the function's own copy: turn it into the fluctuations in place
    fluct = stack
    fluct -= ens_mean
    raw = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        if lag == 0:
            raw[0] = np.mean(fluct * fluct)
        else:
            raw[lag] = np.mean(fluct[:, :, :-lag] * fluct[:, :, lag:])

    # fluctuation std below 1e-12 of the mean level is roundoff, not signal
    if raw[0] <= (1e-12 * level) ** 2:
        profile = np.full(max_lag + 1, np.nan)
        return SpeckleStats(mean_intensity, contrast, profile, float("nan"))

    profile = raw / raw[0]
    measured_lc = _first_zero(profile) * pixel_pitch
    return SpeckleStats(mean_intensity, contrast, profile, measured_lc)


def _first_zero(profile: np.ndarray) -> float:
    """Lag (fractional) of the covariance profile's first zero.

    The ideal thermal profile is a squared field correlation: non-negative,
    touching zero at the coherence length rather than crossing it.  When the
    estimate does go negative (dense lag sampling plus estimator noise) the
    zero is the literal sign crossing, linearly interpolated.  Otherwise the
    touch sits between strictly positive samples, so the zero is interpolated
    on the amplitude profile sqrt(C), which is linear in the lag near its zero.
    """
    amp = np.sqrt(np.maximum(profile, 0.0))
    for lag in range(1, len(profile)):
        if profile[lag] < 0.0:
            frac = profile[lag - 1] / (profile[lag - 1] - profile[lag])
            return lag - 1 + frac
        if amp[lag] >= amp[lag - 1]:  # stopped descending: the touch was passed
            m = lag - 1
            if m >= 1 and amp[m - 1] > amp[m]:
                zero = m + amp[m] / (amp[m - 1] - amp[m])
                if zero <= lag:  # segment (m-1, m) lies left of the touch
                    return zero
            if m >= 2 and amp[m - 2] > amp[m - 1]:
                return (m - 1) + amp[m - 1] / (amp[m - 2] - amp[m - 1])
            return float("nan")
    return float("nan")
