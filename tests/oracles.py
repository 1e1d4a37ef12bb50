"""Reference implementations the tests compare the package against.

No run calls these, so they live beside the tests rather than in ``ghostbench``:

- ``ista_reference``, an independent proximal-gradient solver of the same
  l1 least-squares program as ``recon_gics.gpsr_solve``, with
  ``lasso_objective`` to compare their solutions and ``raw_system`` to pose
  the program on a plain matrix;
- ``intensity_stats``, the sampled ensemble statistics of a speckle stack
  (mean, contrast, covariance profile and the coherence length it measures),
  which check ``speckle.synthesize_frame`` against the thermal-light laws;
- ``campaign_record``, a campaign's whole record as one (m, n, n) frame stack
  and its m buckets, joined from ``forward.campaign_blocks``, which the
  stored campaign of ``recon_gics.run_campaign`` is compared against.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ghostbench.errors import ConfigError, SolverError
from ghostbench.forward import campaign_blocks
from ghostbench.optics import _frozen
from ghostbench.recon_gics import SensingSystem, kkt_residual


def raw_system(rows: np.ndarray, rhs: np.ndarray) -> SensingSystem:
    """Raw system A = rows (zero column means, unit column scales)."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1] if rows.ndim == 2 else 0
    return SensingSystem(rows, rhs, np.ones(n), np.zeros(n))


def campaign_record(*campaign, **kwargs) -> tuple[np.ndarray, np.ndarray]:
    """(frames, buckets) of ``campaign_blocks(*campaign, **kwargs)``, joined in frame order."""
    blocks = list(campaign_blocks(*campaign, **kwargs))
    return np.concatenate([f for f, _ in blocks]), np.concatenate([b for _, b in blocks])


def lasso_objective(system: SensingSystem, x: np.ndarray, tau: float) -> float:
    resid = system.matvec(x) - system.rhs
    return float(0.5 * (resid @ resid) + tau * np.abs(x).sum())


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def ista_reference(system: SensingSystem, tau: float, kkt_tol: float,
                   max_iters: int = 100_000, on_iterate=None) -> np.ndarray:
    """Independent proximal-gradient oracle: soft-threshold steps of size 1/L.

    L bounds the largest squared singular value of A (power iteration with a
    small safety margin).  Deterministic from x0 = 0; takes at most
    max_iters steps (on_iterate(i, x) sees each one) and returns the first
    iterate whose KKT residual is within kkt_tol, or the last one with a
    warning, not fatal, when none is.
    """
    if tau < 0:
        raise ConfigError("tau must be non-negative")
    lipschitz = _gram_spectral_bound(system) * 1.02
    if lipschitz <= 0:
        lipschitz = 1.0

    x = np.zeros(system.n_pix)
    for it in range(max_iters + 1):
        grad = system.rmatvec(system.matvec(x) - system.rhs)
        if kkt_residual(x, grad, tau) <= kkt_tol:
            return x
        if it == max_iters:
            break
        x = soft_threshold(x - grad / lipschitz, tau / lipschitz)
        if not np.isfinite(x).all():
            raise SolverError("non-finite iterate in the proximal-gradient oracle")
        if on_iterate is not None:
            on_iterate(it, x)
    warnings.warn(f"proximal-gradient oracle hit the {max_iters}-iteration cap", stacklevel=2)
    return x


def _gram_spectral_bound(system: SensingSystem, iters: int = 500,
                         tol: float = 1e-12) -> float:
    n = system.n_pix
    vec = np.full(n, 1.0 / np.sqrt(n))
    estimate = 0.0
    for _ in range(iters):
        image = system.rmatvec(system.matvec(vec))
        norm = float(np.linalg.norm(image))
        if norm == 0.0:
            return 0.0
        vec = image / norm
        if abs(norm - estimate) <= tol * norm:
            return norm
        estimate = norm
    return estimate


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
