"""Sparse reconstruction from bucket data: l1-regularized least squares.

build_sensing turns a campaign into the linear system A x ~ rhs, where rhs
is the mean-removed buckets and A = (rows - col_mean) / col_scale is the
(m, grid_n**2) reference stack with its column (pixel) means removed and its
columns scaled to unit RMS.  A is never formed: SensingSystem applies it as
an operator (matvec, rmatvec) on the campaign's own read-only stack, which
is pixel-major, so each column of A is one contiguous m-vector.  matvec
reads only the columns where its argument is non-zero when they are few, as
they are for most GPSR steps in the regularised regime.
gpsr_solve minimizes 0.5 ||rhs - A x||^2 + tau ||x||_1 by gradient
projection on the split x = u - v (u, v >= 0) with Barzilai-Borwein step
lengths.  Its one stopping rule is the optimality (KKT) residual within
_KKT_REL_TOL of ||A.T rhs||_inf, and a solve is converged exactly when the
rule is met; ista_reference is an independent proximal-gradient
oracle on the same operator, used to cross-check it.  A run sets only tau
and the iteration cap; the other solver constants are fixed here.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .forward import MeasurementSet, _finite_min
from .optics import _Owned, _frozen

# GPSR converges once its KKT residual is at most this times ||A.T rhs||_inf.
_KKT_REL_TOL = 1e-6
# Clamps of the Barzilai-Borwein step length.
_BB_STEP_MIN = 1e-30
_BB_STEP_MAX = 1e30
# build_sensing centres the stack, and matvec gathers its columns, in blocks
# of about this many bytes; gathering 512 KiB blocks was as fast as 1 MiB
# ones and adds half as much to the peak memory of a solve.
_BLOCK_BYTES = 1 << 19
# matvec gathers the columns on the support of its argument when the support
# is at most this share of the columns, and takes the dense product otherwise;
# at 0.3 both cost about the same on a 500 x 10**4 stack.
_GATHER_SHARE = 0.3


@dataclass(frozen=True)
class GicsParams:
    """What a run sets: tau, the l1 weight of the program, and the GPSR iteration cap."""

    tau: float = 1e-3
    max_iters: int = 2000

    def __post_init__(self):
        if (isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real)
                or not 0 <= self.tau < math.inf):
            raise ConfigError(f"tau must be a finite non-negative number, got {self.tau!r}")
        if (isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 1):
            raise ConfigError(f"max_iters must be a positive integer, got {self.max_iters!r}")


@dataclass(frozen=True)
class SolveReport:
    """Solver diagnostics; history rows are (iteration, objective, kkt_residual).

    The last history row is the returned iterate; atb_inf is ||A.T rhs||_inf,
    the scale of the KKT stopping rule.  The objective is GPSR's split
    objective 0.5 ||r||^2 + tau (sum u + sum v), an upper bound of the
    ``lasso_objective`` of x = u - v, met only once no pixel has both u and v
    positive (canonical slit, seed 1: 1.76295 against 1.54379).
    """

    converged: bool
    history: tuple[tuple[int, float, float], ...]
    atb_inf: float

    @property
    def iterations(self) -> int:
        return self.history[-1][0]

    @property
    def kkt_residual(self) -> float:
        return self.history[-1][2]


@dataclass(frozen=True)
class SensingSystem:
    """Linear model ``A x ~ rhs`` with A = (rows - col_mean) / col_scale, never formed.

    ``rows`` is the (m, n) raw matrix, ``col_mean`` is subtracted from every
    row and ``col_scale`` divides every column; matvec and rmatvec apply A and
    A.T.  A solution x maps to the image x / col_scale.  For a campaign,
    ``rows`` is a read-only view of its pixel-major stack, so ``rows.T`` is
    C-contiguous and a column of ``rows`` is one contiguous m-vector.  Any
    other array is copied in its own layout, where matvec gives the same
    values from strided columns.
    """

    rows: np.ndarray
    rhs: np.ndarray
    col_scale: np.ndarray
    col_mean: np.ndarray

    def __post_init__(self):
        owned = isinstance(self.rows, _Owned)  # a campaign's stack, checked as it was made
        arrays = {name: _frozen(getattr(self, name))
                  for name in ("rows", "rhs", "col_scale", "col_mean")}
        rows = arrays["rows"]
        if rows.ndim != 2 or rows.size < 1:
            raise ConfigError("sensing rows must be a non-empty 2-D matrix")
        if arrays["rhs"].shape != (rows.shape[0],):
            raise ConfigError("rhs length must match the number of rows")
        for name in ("col_scale", "col_mean"):
            if arrays[name].shape != (rows.shape[1],):
                raise ConfigError(f"{name} length must match the number of columns")
        for name, arr in arrays.items():
            if not (owned and name == "rows"):
                _finite_min(arr, f"sensing {name}")
            object.__setattr__(self, name, arr)
        if self.col_scale.min() <= 0:
            raise ConfigError("column scales must be strictly positive")

    @classmethod
    def from_arrays(cls, rows: np.ndarray, rhs: np.ndarray) -> "SensingSystem":
        """Raw system A = rows (zero column means, unit column scales), e.g. for solver tests."""
        rows = np.asarray(rows, dtype=float)
        n = rows.shape[1] if rows.ndim == 2 else 0
        return cls(rows, rhs, np.ones(n), np.zeros(n))

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n_pix(self) -> int:
        return self.rows.shape[1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x, from the columns on the support of x when that is at most _GATHER_SHARE.

        The gathered product reads the columns of ``rows`` where x is
        non-zero, at most _BLOCK_BYTES of them at a time; otherwise it is the
        dense product.
        """
        support = np.flatnonzero(x != 0)
        if support.size > _GATHER_SHARE * self.n_pix:
            y = x / self.col_scale
            return self.rows @ y - self.col_mean @ y
        y = x[support] / self.col_scale[support]
        columns = self.rows.T
        step = max(1, _BLOCK_BYTES // columns[0].nbytes)
        image = np.zeros(self.m)
        for start in range(0, support.size, step):
            image += y[start:start + step] @ columns[support[start:start + step]]
        return image - self.col_mean[support] @ y

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """A.T @ r."""
        return (self.rows.T @ r - self.col_mean * r.sum()) / self.col_scale


def build_sensing(ms: MeasurementSet) -> SensingSystem:
    """The campaign's stack as a centred, unit-RMS-column operator; rhs the centred buckets.

    ``rows`` is the (m, grid_n**2) view of the read-only pixel-major stack
    itself, not a copy.  The column means and scales come from blocks of
    about _BLOCK_BYTES of contiguous pixel rows (columns of ``rows``), so no
    (m, n) temporary exists.  For a noiseless campaign of mask t,
    A @ (col_scale * t) = rhs.  A zero-variance column (dead pixel) keeps
    scale 1 and triggers a warning.
    """
    rows = ms.intensities.reshape(ms.m, -1)
    pixels = rows.T
    n = pixels.shape[0]
    col_mean = np.empty(n)
    sum_sq = np.empty(n)
    step = max(1, _BLOCK_BYTES // pixels[0].nbytes)
    block = np.empty((min(step, n), ms.m))
    for start in range(0, n, step):
        chunk = pixels[start:start + step]
        mean = np.mean(chunk, axis=1, out=col_mean[start:start + step])
        centred = np.subtract(chunk, mean[:, None], out=block[:len(chunk)])
        np.einsum("ij,ij->i", centred, centred, out=sum_sq[start:start + step])
    col_scale = np.sqrt(sum_sq / ms.m)
    dead = col_scale == 0
    if dead.any():
        warnings.warn(f"{int(dead.sum())} zero-variance column(s); scale left at 1",
                      stacklevel=2)
        col_scale[dead] = 1.0

    rhs = np.array(ms.buckets, dtype=float)
    rhs -= rhs.mean()
    return SensingSystem(_Owned(rows), rhs, col_scale, col_mean)


def lasso_objective(system: SensingSystem, x: np.ndarray, tau: float) -> float:
    resid = system.matvec(x) - system.rhs
    return float(0.5 * (resid @ resid) + tau * np.abs(x).sum())


def kkt_residual(x: np.ndarray, grad: np.ndarray, tau: float) -> float:
    """Infinity-norm violation of the l1 least-squares optimality conditions.

    grad + sign(x) * tau must vanish where x != 0 and |grad| <= tau where x == 0.
    """
    violation = np.where(x != 0, np.abs(grad + np.sign(x) * tau), np.abs(grad) - tau)
    return float(violation.max(initial=0.0))


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def gpsr_solve(system: SensingSystem, params: GicsParams) -> tuple[np.ndarray, SolveReport]:
    """Gradient projection with Barzilai-Borwein steps on the split u - v.

    The split objective is quadratic, so the step along the projection arc is
    the exact minimizer clipped to [0, 1] (monotone descent; the final
    objective never exceeds the objective at x = 0).  Stops as soon as the
    KKT residual is at most _KKT_REL_TOL * ||A.T rhs||_inf, after max_iters
    iterations, or when no step can descend: no descent direction along the
    projected step, which includes a zero step (a projected-gradient fixed
    point, where curvature and slope are both zero).  The report is
    converged exactly when the last iterate meets the KKT rule, whichever way
    the loop stopped.
    """
    tau = float(params.tau)
    n = system.n_pix

    u = np.zeros(n)
    v = np.zeros(n)
    resid = -system.rhs  # A @ (u - v) - rhs at the origin
    objective = 0.5 * float(resid @ resid)
    grad = system.rmatvec(resid)
    alpha = 1.0
    atb_inf = float(np.abs(grad).max(initial=0.0))
    kkt_stop = _KKT_REL_TOL * atb_inf

    history = [(0, objective, kkt_residual(u - v, grad, tau))]

    for it in range(1, params.max_iters + 1):
        if history[-1][2] <= kkt_stop:
            break
        grad_u = grad + tau
        grad_v = tau - grad
        du = np.maximum(u - alpha * grad_u, 0.0) - u
        dv = np.maximum(v - alpha * grad_v, 0.0) - v
        dd = float(du @ du + dv @ dv)

        step_image = system.matvec(du - dv)
        curvature = float(step_image @ step_image)
        slope = float(grad_u @ du + grad_v @ dv)
        if curvature > 0.0:
            lam = min(max(-slope / curvature, 0.0), 1.0)
        elif slope < 0.0:
            lam = 1.0
        else:
            break  # no descent along the step

        u = u + lam * du
        v = v + lam * dv
        resid = resid + lam * step_image
        objective = 0.5 * float(resid @ resid) + tau * float(u.sum() + v.sum())
        if not np.isfinite(objective):
            raise SolverError("non-finite objective; check system scaling")

        if curvature <= 0.0:
            alpha = _BB_STEP_MAX
        else:
            alpha = min(max(dd / curvature, _BB_STEP_MIN), _BB_STEP_MAX)

        grad = system.rmatvec(resid)
        history.append((it, objective, kkt_residual(u - v, grad, tau)))

    converged = history[-1][2] <= kkt_stop
    return u - v, SolveReport(converged, tuple(history), atb_inf)


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


def gics_reconstruct(ms: MeasurementSet, params: GicsParams) -> tuple[np.ndarray, SolveReport]:
    """Centred, column-scaled sensing operator, GPSR solve, map back to mask units.

    Returns a read-only image on the frames' (grid_n, grid_n) grid and the solve report.
    Negative transmittance estimates are clamped to zero after the solve (the
    program itself is unconstrained).  Removing the means drops the DC mode
    (the system has rank at most m - 1), so a full-rank inversion needs
    m > n_pix.
    """
    system = build_sensing(ms)
    solution, report = gpsr_solve(system, params)
    physical = (solution / system.col_scale).reshape(ms.intensities.shape[1:])
    image = np.maximum(physical, 0.0)
    image.flags.writeable = False
    return image, report
