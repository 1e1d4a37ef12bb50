"""Reconstruction quality metrics: SNR, MSE/PSNR, double-slit resolvability.

Any image on the truth's grid gets a score.  A flat image has SNR 0, and a
slit image whose peaks cannot be located has no dip ratio and is unresolved.
Only a truth or slit geometry that no image could be scored against is a
``ConfigError`` (see ``truth_support``; slits off the grid).
"""
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


def truth_support(truth: ObjectMask) -> np.ndarray:
    """The support truth > 0.5; ConfigError unless both it and its complement are non-empty."""
    support = truth.values > 0.5
    if not support.any():
        raise ConfigError("truth mask has empty support above 0.5")
    if support.all():
        raise ConfigError("truth mask has no background at or below 0.5")
    return support


def recon_snr(image: np.ndarray, truth: ObjectMask) -> float:
    """Background-normalized contrast: (mean on support - mean off) / std off.

    Support is truth > 0.5.  Affine-invariant in the image.  Over a
    zero-variance background a contrast of either sign yields the signed inf
    sentinel, and a flat image (no contrast) yields 0.
    """
    if image.shape != truth.values.shape:
        raise ConfigError("image and truth grids differ")
    support = truth_support(truth)
    background = ~support
    bg = image[background]
    bg_std = float(bg.std())
    signal = float(image[support].mean() - bg.mean())
    if bg_std == 0.0:
        return math.copysign(math.inf, signal) if signal else 0.0
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


def slit_dip(image: np.ndarray, geometry: SlitGeometry,
             pitch: float) -> tuple[float | None, bool]:
    """Valley-to-peak ratio of the row-averaged profile across the slit band.

    dip_ratio = profile at the midpoint between the slit centers divided by
    the mean of the two per-slit peaks (each searched within half a separation
    of its slit center); resolved iff dip_ratio < RESOLVED_THRESHOLD.  An
    image whose profile is flat or whose peaks are not positive (the zero
    GICS image of a large tau, say) has no peaks to compare: (None, False).
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
        return None, False

    half = geometry.separation / 2.0
    peaks = []
    for center_x in geometry.slit_centers_x:
        window = np.abs(coords - center_x) <= half + tol
        if not window.any():
            raise ConfigError("slit peak window lies outside the image grid")
        peaks.append(float(profile[window].max()))
    peak = 0.5 * (peaks[0] + peaks[1])
    if peak <= 0:
        return None, False

    mid_index = int(np.argmin(np.abs(coords - cx)))
    dip_ratio = float(profile[mid_index]) / peak
    return dip_ratio, dip_ratio < RESOLVED_THRESHOLD
