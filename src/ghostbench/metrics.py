"""Reconstruction quality metrics: SNR, MSE/PSNR, double-slit resolvability."""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .optics import ObjectMask, SlitGeometry, grid_coords

# Valley-to-peak ratio below which a double slit counts as resolved; near the
# classical two-point criterion for sinc^2-like profiles.
RESOLVED_THRESHOLD = 0.8


def minmax_normalize(image: np.ndarray) -> np.ndarray:
    """Rescale to [0, 1]; a constant image maps to all zeros."""
    lo = image.min()
    span = image.max() - lo
    if span <= 0:
        return np.zeros_like(image)
    return (image - lo) / span


def recon_snr(image: np.ndarray, truth: ObjectMask) -> float:
    """Background-normalized contrast: (mean on support - mean off) / std off.

    Support is truth > 0.5.  Affine-invariant in the image.  A zero-variance
    background yields the +inf sentinel.
    """
    t = truth.values
    if image.shape != t.shape:
        raise ConfigError("image and truth grids differ")
    support = t > 0.5
    background = ~support
    if not support.any():
        raise ConfigError("truth mask has empty support above 0.5")
    if not background.any():
        raise ConfigError("truth mask has no background at or below 0.5")
    bg = image[background]
    bg_std = float(bg.std())
    signal = float(image[support].mean() - bg.mean())
    if bg_std == 0.0:
        return math.inf
    return signal / bg_std


def mse(image: np.ndarray, truth: ObjectMask) -> float:
    """Mean squared difference; callers normalize the image to [0, 1] first."""
    if image.shape != truth.values.shape:
        raise ConfigError("image and truth grids differ")
    return float(np.mean((image - truth.values) ** 2))


def psnr(image: np.ndarray, truth: ObjectMask) -> float:
    err = mse(image, truth)
    if err == 0.0:
        return math.inf
    return -10.0 * math.log10(err)


def slit_dip(image: np.ndarray, geometry: SlitGeometry, pitch: float) -> tuple[float, bool]:
    """Valley-to-peak ratio of the row-averaged profile across the slit band.

    dip_ratio = profile at the midpoint between the slit centers divided by
    the mean of the two per-slit peaks (each searched within half a separation
    of its slit center); resolved iff dip_ratio < RESOLVED_THRESHOLD.
    """
    if image.ndim != 2:
        raise ConfigError("slit_dip expects a 2-D image")
    n = image.shape[0]
    coords = grid_coords(n, pitch)
    tol = 1e-9 * pitch

    cx, cy = geometry.center
    band = np.abs(coords - cy) <= geometry.height / 2.0 + tol
    if not band.any():
        raise ConfigError("slit band lies outside the image grid")
    profile = image[band, :].mean(axis=0)

    span = profile.max() - profile.min()
    if span <= 1e-12 * max(1.0, abs(profile.max())):
        raise ConfigError("flat profile: peaks not locatable")

    half = geometry.separation / 2.0
    peaks = []
    for center_x in geometry.slit_centers_x:
        window = np.abs(coords - center_x) <= half + tol
        if not window.any():
            raise ConfigError("slit peak window lies outside the image grid")
        peaks.append(float(profile[window].max()))
    peak = 0.5 * (peaks[0] + peaks[1])
    if peak <= 0:
        raise ConfigError("non-positive peaks: peaks not locatable")

    mid_index = int(np.argmin(np.abs(coords - cx)))
    dip_ratio = float(profile[mid_index]) / peak
    return dip_ratio, dip_ratio < RESOLVED_THRESHOLD
