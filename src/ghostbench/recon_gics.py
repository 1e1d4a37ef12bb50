"""Sparse reconstruction from bucket data: l1-regularized least squares.

build_sensing turns a campaign into the linear system (rows = flattened
reference intensities, rhs = buckets) with the means removed and the
columns scaled to unit RMS.  gpsr_solve minimizes
0.5 ||rhs - rows @ x||^2 + tau ||x||_1 by gradient projection on the split
x = u - v (u, v >= 0) with Barzilai-Borwein step lengths, stopping once the
optimality (KKT) residual is within _KKT_REL_TOL of ||rows.T @ rhs||_inf;
ista_reference is an independent proximal-gradient oracle used to
cross-check it.  A run sets only tau and the iteration cap; the other solver
constants are fixed here.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, SolverError
from .forward import MeasurementSet, _frozen
from . import ioutil

# GPSR converges once its KKT residual is at most this times ||rows.T @ rhs||_inf,
_KKT_REL_TOL = 1e-6
# or once the objective changes by at most this relative amount in one step.
_TOL_REL_OBJ = 1e-8
# Clamps of the Barzilai-Borwein step length.
_BB_STEP_MIN = 1e-30
_BB_STEP_MAX = 1e30


@dataclass(frozen=True)
class GicsParams:
    """What a run sets: tau, the l1 weight of the program, and the GPSR iteration cap."""

    tau: float = 1e-3
    max_iters: int = 2000

    def __post_init__(self):
        if not (self.tau >= 0 and np.isfinite(self.tau)):
            raise ConfigError("tau must be finite and non-negative")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Solver diagnostics; history rows are (iteration, objective, kkt_residual).

    kkt_residual is that of the returned iterate, history[-1][2]; atb_inf is
    ||rows.T @ rhs||_inf, the scale of the KKT stopping rule.
    """

    iterations: int
    final_objective: float
    kkt_residual: float
    converged: bool
    history: tuple[tuple[int, float, float], ...] = ()
    atb_inf: float = 0.0


@dataclass(frozen=True)
class SensingSystem:
    """Linear model ``rows @ x ~ rhs`` whose solution x maps to the image x / col_scale."""

    rows: np.ndarray
    rhs: np.ndarray
    col_scale: np.ndarray

    def __post_init__(self):
        rows = _frozen(self.rows)
        rhs = _frozen(self.rhs)
        col_scale = _frozen(self.col_scale)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ConfigError("sensing rows must be a non-empty 2-D matrix")
        if rhs.shape != (rows.shape[0],):
            raise ConfigError("rhs length must match the number of rows")
        if col_scale.shape != (rows.shape[1],):
            raise ConfigError("column scale length must match the number of columns")
        if not (col_scale > 0).all():
            raise ConfigError("column scales must be strictly positive")
        for name, arr in (("rows", rows), ("rhs", rhs), ("col_scale", col_scale)):
            if not np.isfinite(arr).all():
                raise ConfigError(f"sensing {name} contains non-finite values")
            object.__setattr__(self, name, arr)

    @classmethod
    def from_arrays(cls, rows: np.ndarray, rhs: np.ndarray) -> "SensingSystem":
        """Raw system (no mean removal, unit column scales), e.g. for solver tests."""
        rows = np.asarray(rows, dtype=float)
        return cls(rows, rhs, np.ones(rows.shape[1] if rows.ndim == 2 else 0))

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n_pix(self) -> int:
        return self.rows.shape[1]


def build_sensing(ms: MeasurementSet) -> SensingSystem:
    """Flatten the campaign into rows/rhs, remove their means and unit-RMS-scale the columns.

    For a noiseless campaign of mask t, rows @ (col_scale * t) = rhs.  A
    zero-variance column (dead pixel) keeps scale 1 and triggers a warning.
    The rows are the one copy of the intensity stack, shifted and scaled in place.
    """
    rows = ms.intensities.reshape(ms.m, -1).astype(float)
    rows -= rows.mean(axis=0)
    rhs = np.array(ms.buckets, dtype=float)
    rhs -= rhs.mean()

    col_scale = np.linalg.norm(rows, axis=0) / np.sqrt(ms.m)
    dead = col_scale == 0
    if dead.any():
        warnings.warn(f"{int(dead.sum())} zero-variance column(s); scale left at 1",
                      stacklevel=2)
        col_scale[dead] = 1.0
    rows /= col_scale

    rows.flags.writeable = False
    return SensingSystem(rows, rhs, col_scale)


def lasso_objective(rows: np.ndarray, rhs: np.ndarray, x: np.ndarray, tau: float) -> float:
    resid = rows @ x - rhs
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
    objective never exceeds the objective at x = 0).  Converges as soon as the
    KKT residual is at most _KKT_REL_TOL * ||rows.T @ rhs||_inf or the
    relative objective change drops to _TOL_REL_OBJ; otherwise stops
    unconverged after max_iters iterations.
    """
    rows = system.rows
    rhs = system.rhs
    tau = float(params.tau)
    n = system.n_pix

    u = np.zeros(n)
    v = np.zeros(n)
    resid = -rhs.copy()  # rows @ (u - v) - rhs at the origin
    objective = 0.5 * float(resid @ resid)
    grad = rows.T @ resid
    alpha = 1.0
    atb_inf = float(np.abs(grad).max(initial=0.0))
    kkt_stop = _KKT_REL_TOL * atb_inf

    history = [(0, objective, kkt_residual(u - v, grad, tau))]
    converged = False
    iterations = 0

    for it in range(1, params.max_iters + 1):
        if history[-1][2] <= kkt_stop:
            converged = True
            break
        grad_u = grad + tau
        grad_v = tau - grad
        du = np.maximum(u - alpha * grad_u, 0.0) - u
        dv = np.maximum(v - alpha * grad_v, 0.0) - v
        dd = float(du @ du + dv @ dv)
        if dd == 0.0:
            converged = True  # projected-gradient fixed point
            break

        step_image = rows @ (du - dv)
        curvature = float(step_image @ step_image)
        slope = float(grad_u @ du + grad_v @ dv)
        if curvature > 0.0:
            lam = min(max(-slope / curvature, 0.0), 1.0)
        elif slope < 0.0:
            lam = 1.0
        else:
            converged = True
            break

        u = u + lam * du
        v = v + lam * dv
        resid = resid + lam * step_image
        new_objective = 0.5 * float(resid @ resid) + tau * float(u.sum() + v.sum())
        if not np.isfinite(new_objective):
            raise SolverError("non-finite objective; check system scaling")

        if curvature <= 0.0:
            alpha = _BB_STEP_MAX
        else:
            alpha = min(max(dd / curvature, _BB_STEP_MIN), _BB_STEP_MAX)

        grad = rows.T @ resid
        iterations = it
        history.append((it, new_objective, kkt_residual(u - v, grad, tau)))
        small_change = abs(objective - new_objective) <= _TOL_REL_OBJ * max(
            abs(objective), 1e-300)
        objective = new_objective
        if small_change:
            converged = True
            break
    else:
        converged = history[-1][2] <= kkt_stop

    report = SolveReport(
        iterations=iterations,
        final_objective=objective,
        kkt_residual=history[-1][2],
        converged=converged,
        history=tuple(history),
        atb_inf=atb_inf,
    )
    return u - v, report


def ista_reference(system: SensingSystem, tau: float, kkt_tol: float,
                   max_iters: int = 100_000, on_iterate=None) -> np.ndarray:
    """Independent proximal-gradient oracle: soft-threshold steps of size 1/L.

    L bounds the largest squared singular value of the rows (power iteration
    with a small safety margin).  Deterministic from x0 = 0; takes at most
    max_iters steps (on_iterate(i, x) sees each one) and returns the first
    iterate whose KKT residual is within kkt_tol, or the last one with a
    warning, not fatal, when none is.
    """
    if tau < 0:
        raise ConfigError("tau must be non-negative")
    rows = system.rows
    rhs = system.rhs
    lipschitz = _gram_spectral_bound(rows) * 1.02
    if lipschitz <= 0:
        lipschitz = 1.0

    x = np.zeros(system.n_pix)
    for it in range(max_iters + 1):
        grad = rows.T @ (rows @ x - rhs)
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


def _gram_spectral_bound(rows: np.ndarray, iters: int = 500, tol: float = 1e-12) -> float:
    n = rows.shape[1]
    vec = np.full(n, 1.0 / np.sqrt(n))
    estimate = 0.0
    for _ in range(iters):
        image = rows.T @ (rows @ vec)
        norm = float(np.linalg.norm(image))
        if norm == 0.0:
            return 0.0
        vec = image / norm
        if abs(norm - estimate) <= tol * norm:
            return norm
        estimate = norm
    return estimate


def gics_reconstruct(ms: MeasurementSet, params: GicsParams) -> tuple[np.ndarray, SolveReport]:
    """Mean-removed, column-scaled sensing build, GPSR solve, map back to mask units.

    Returns a read-only (grid_n, grid_n) image and the solve report.
    Negative transmittance estimates are clamped to zero after the solve (the
    program itself is unconstrained).  Removing the means drops the DC mode
    (the system has rank at most m - 1), so a full-rank inversion needs
    m > n_pix.
    """
    system = build_sensing(ms)
    solution, report = gpsr_solve(system, params)
    physical = (solution / system.col_scale).reshape(ms.config.grid_n, ms.config.grid_n)
    image = np.maximum(physical, 0.0)
    image.flags.writeable = False
    return image, report


def write_solve_csv(report: SolveReport, path: str | Path) -> None:
    """Per-iteration solver diagnostics as ``iter,objective,kkt_residual``."""
    lines = ["iter,objective,kkt_residual"]
    lines += [f"{it},{obj!r},{kkt!r}" for it, obj, kkt in report.history]
    ioutil.atomic_write_text(path, "\n".join(lines) + "\n")
