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

from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .optics import OpticalConfig, _integer

# Minimum source samples across the aperture; below this the rasterized
# aperture is too coarse for the target sinc correlation.  Raise
# OpticalConfig.source_oversample to satisfy it for wide-coherence setups.
MIN_APERTURE_SAMPLES = 8

SEED_LIMIT = 2**64


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
