"""Bench geometry, source configuration, and transmissive object masks.

The source enters the simulation only through its transverse coherence length
on the object plane, l_c.  A physical setup of wavelength lambda, source
distance z and square source width D converts with l_c = lambda * z / D.

Coordinate convention used everywhere: the grid is ``grid_n`` pixels per side
and pixel ``i`` (0-based) has its center at ``(i - grid_n//2) * pixel_pitch``
meters, i.e. physical 0 sits on a pixel center.  Analytic shapes are
rasterized by the pixel-center rule: a pixel is lit iff its center falls
inside the shape (boundary inclusive, with a tiny float guard).

A mask is rasterized (``make_double_slit``) or read from an 8- or 16-bit
graymap (``load_mask_pgm``); a run writes it back with ``ioutil.write_pgm``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from . import ioutil

# Relative slack applied to boundary comparisons so pixel centers that land
# exactly on a shape edge (an exact-arithmetic tie) rasterize deterministically.
_EDGE_TOL = 1e-9


class _Owned:
    """An array this package allocated and hands over: ``_frozen`` adopts it uncopied."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float array that no caller can write through.

    Whoever owns an array can make it writeable again, so anything a caller
    passes is copied.  Only an array wrapped in ``_Owned`` where the package
    allocated it is frozen in place.
    """
    arr = values.array if isinstance(values, _Owned) else np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _integer(value, what: str) -> int:
    """``value`` as an int; ConfigError unless it is a Python or NumPy integer, not a bool.

    A float, a string or a bool is refused rather than truncated to a
    different grid, campaign, seed or frame.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class OpticalConfig:
    """Source and geometry parameters of the two-arm speckle bench.

    ``coherence_length`` is the transverse coherence length l_c of the
    pseudo-thermal source on the object plane.  The two arms are perfectly
    correlated: the reference plane records the same frame as the object.
    ``source_oversample`` sets the source-plane sampling density used by the
    speckle synthesizer (source grid is ``source_oversample * grid_n`` samples
    per side).
    """

    coherence_length: float
    grid_n: int
    pixel_pitch: float
    source_oversample: int = 4

    def __post_init__(self):
        for name in ("coherence_length", "pixel_pitch"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not (math.isfinite(value) and value > 0)):
                raise ConfigError(f"{name} must be a positive finite length, got {value!r}")
        if _integer(self.grid_n, "grid_n") < 8:
            raise ConfigError(f"grid_n must be an integer >= 8, got {self.grid_n!r}")
        if _integer(self.source_oversample, "source_oversample") < 1:
            raise ConfigError("source_oversample must be an integer >= 1")
        if self.coherence_length < 2.0 * self.pixel_pitch:
            raise ConfigError(
                f"coherence length {self.coherence_length:.4g} m is below two pixel pitches "
                f"({2 * self.pixel_pitch:.4g} m); speckle would not be resolvable on the grid")


def grid_coords(grid_n: int, pitch: float) -> np.ndarray:
    """Physical pixel-center coordinates along one axis."""
    return (np.arange(grid_n) - grid_n // 2) * pitch


@dataclass(frozen=True)
class ObjectMask:
    """Discretized intensity transmittance on the object grid, values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ConfigError(f"mask must be a square 2-D array, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ConfigError("mask contains non-finite values")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ConfigError("mask values must lie in [0, 1]")
        if not (values > 0).any():
            raise ConfigError("mask is entirely opaque (no positive transmittance)")
        object.__setattr__(self, "values", _frozen(values))

    @property
    def grid_n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SlitGeometry:
    """Double-slit layout: two vertical slits of width/height, centers `separation` apart."""

    width: float
    height: float
    separation: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        values = (self.width, self.height, self.separation, *self.center)
        if (any(isinstance(v, (bool, np.bool_)) for v in values)
                or not all(map(math.isfinite, values))):
            raise ConfigError(f"slit geometry must be finite numbers, got {values!r}")
        if not (self.width > 0 and self.height > 0):
            raise ConfigError("slit width and height must be positive")
        if self.separation <= self.width:
            raise ConfigError(
                f"slit separation {self.separation!r} must exceed slit width {self.width!r} "
                "(slits may not overlap)")

    @property
    def slit_centers_x(self) -> tuple[float, float]:
        cx = self.center[0]
        return (cx - self.separation / 2.0, cx + self.separation / 2.0)


def make_double_slit(config: OpticalConfig, geometry: SlitGeometry) -> ObjectMask:
    """Binary double-slit mask rasterized by the pixel-center rule."""
    n = config.grid_n
    pitch = config.pixel_pitch
    coords = grid_coords(n, pitch)
    tol = _EDGE_TOL * pitch

    left, right = geometry.slit_centers_x
    x_lo = left - geometry.width / 2.0
    x_hi = right + geometry.width / 2.0
    y_lo = geometry.center[1] - geometry.height / 2.0
    y_hi = geometry.center[1] + geometry.height / 2.0
    lo_edge = coords[0] - pitch / 2.0
    hi_edge = coords[-1] + pitch / 2.0
    if x_lo < lo_edge - tol or x_hi > hi_edge + tol or y_lo < lo_edge - tol or y_hi > hi_edge + tol:
        raise ConfigError("double slit extends outside the grid")

    in_x = np.zeros(n, dtype=bool)
    for cx in geometry.slit_centers_x:
        in_x |= np.abs(coords - cx) <= geometry.width / 2.0 + tol
    in_y = np.abs(coords - geometry.center[1]) <= geometry.height / 2.0 + tol
    values = np.outer(in_y, in_x).astype(float)
    return ObjectMask(values)


def load_mask_pgm(path: str | Path, config: OpticalConfig) -> ObjectMask:
    """Load a P2/P5 graymap as a transmittance mask (samples scaled by 1/maxval).

    The image must be square and match ``config.grid_n`` exactly; no resampling.
    """
    samples, maxval = ioutil.read_pgm(path)
    height, width = samples.shape
    if height != width:
        raise ConfigError(f"mask graymap must be square, got {width}x{height}")
    if height != config.grid_n:
        raise ConfigError(
            f"mask graymap is {width}x{height} but the grid is "
            f"{config.grid_n}x{config.grid_n}")
    if not samples.any():
        raise ConfigError("mask graymap is all zero")
    return ObjectMask(samples / float(maxval))

