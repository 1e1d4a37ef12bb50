"""Sparse reconstruction from bucket data: l1-regularized least squares.

GICS solves on the whole reference record, so this module alone stores it:
run_campaign stores a campaign's blocks, and build_sensing copies a caller's
(m, n, n) record, into one read-only pixel-major (n**2, m) stack, row p
holding pixel p of every frame.  build_sensing returns the linear system
A x ~ rhs, where rhs is the mean-removed buckets and A = (rows - col_mean) /
col_scale is the (m, n**2) record with its column (pixel) means removed and
its columns scaled to unit RMS.  A is never formed: SensingSystem applies it
as an operator (matvec, rmatvec) on the stack itself, each column of A one
contiguous m-vector.  matvec reads only the columns where its argument is
non-zero when they are few, as they are for most GPSR steps in the
regularised regime.
gpsr_solve minimizes 0.5 ||rhs - A x||^2 + tau ||x||_1 by gradient
projection on the split x = u - v (u, v >= 0) with Barzilai-Borwein step
lengths.  Its one stopping rule is the optimality (KKT) residual within
_KKT_REL_TOL of ||A.T rhs||_inf, and a solve is converged exactly when the
rule is met; the tests cross-check it against an independent
proximal-gradient oracle on the same operator, ``ista_reference`` in
tests/oracles.py.  A run sets only tau
and the iteration cap; the other solver constants are fixed here.
"""
from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .forward import _check_measurements, _finite_min, campaign_blocks
from .optics import ObjectMask, OpticalConfig, _Owned, _frozen, _integer, _real

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
        object.__setattr__(self, "tau", _real(self.tau, "tau", "non-negative"))
        if _integer(self.max_iters, "max_iters") < 1:
            raise ConfigError(f"max_iters must be a positive integer, got {self.max_iters!r}")


@dataclass(frozen=True)
class SolveReport:
    """Solver diagnostics; history rows are (iteration, objective, kkt_residual).

    The last history row is the returned iterate; atb_inf is ||A.T rhs||_inf,
    the scale of the KKT stopping rule.  The objective is GPSR's split
    objective 0.5 ||r||^2 + tau (sum u + sum v), an upper bound of the lasso
    objective 0.5 ||r||^2 + tau ||x||_1 of x = u - v (``lasso_objective`` in
    tests/oracles.py), met only once no pixel has both u and v positive
    (canonical slit, seed 1: 1.76295 against 1.54379).
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
    A.T.  A solution x maps to the image x / col_scale.  From build_sensing,
    ``rows`` is a read-only view of a pixel-major stack, so ``rows.T`` is
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


def run_campaign(config: OpticalConfig, mask: ObjectMask, m: int, master_seed: int,
                 noise_sigma: float = 0.0, fold=None):
    """The whole campaign of ``forward.campaign_blocks`` as its ``SensingSystem``.

    The only writer of a campaign's stack: each checked block is stored
    straight into its columns of one pixel-major (grid_n**2, m) stack, which
    ``build_sensing`` adopts uncopied.  ``fold``, a consumer of the block
    iterator such as ``recon_gi.gi_from_blocks``, sees each block after it is
    stored, while it is still contiguous; with it, the result is
    ``(system, fold(blocks))``.
    """
    campaign = campaign_blocks(config, mask, m, master_seed, noise_sigma)  # checks the arguments
    stack = np.empty((config.grid_n ** 2, m))
    bucket_blocks = []

    def stored_blocks():
        start = 0
        for frames, buckets in campaign:
            stack[:, start:start + len(frames)] = frames.reshape(len(frames), -1).T
            start += len(frames)
            bucket_blocks.append(buckets)
            yield frames, buckets
            del frames, buckets  # the next block is made without this one

    blocks = stored_blocks()
    folded = None if fold is None else fold(blocks)
    deque(blocks, maxlen=0)  # store whatever the fold left unread
    stack.flags.writeable = False
    system = build_sensing(_Owned(stack), np.concatenate(bucket_blocks))
    return system if fold is None else (system, folded)


def build_sensing(frames, buckets, noise_sigma: float = 0.0) -> SensingSystem:
    """A record's frames as a centred, unit-RMS-column operator; rhs its centred buckets.

    ``frames`` is an (m, n, n) stack, frame i with bucket value ``buckets[i]``,
    which ``forward._check_measurements`` checks whole (buckets may be
    negative only when ``noise_sigma`` is positive) before it is copied into a
    read-only pixel-major (n**2, m) stack.  ``rows`` is the (m, n**2) view of
    that stack.  Only ``run_campaign`` hands over its own stack, wrapped in
    ``_Owned``: it is adopted uncopied, and not checked again, since its
    blocks were checked as they were made.  The column means and scales come
    from blocks of about _BLOCK_BYTES of contiguous pixel rows (columns of
    ``rows``), so no (m, n**2) temporary exists.  For a noiseless record of
    mask t, A @ (col_scale * t) = rhs.  A zero-variance column (dead pixel)
    keeps scale 1 and triggers a warning.
    """
    rhs = np.array(buckets, dtype=float)
    if isinstance(frames, _Owned):
        pixels = frames.array
    else:
        given = np.asarray(frames, dtype=float)
        if given.ndim != 3 or given.shape[1] != given.shape[2]:
            raise ConfigError(f"frames must be an (m, n, n) stack, got {given.shape}")
        if given.shape[0] < 1:
            raise ConfigError("a record needs at least one frame")
        if rhs.shape != (given.shape[0],):
            raise ConfigError(
                f"need one bucket per frame: {rhs.shape} buckets for {given.shape[0]} frames")
        _check_measurements(given, rhs, _real(noise_sigma, "noise_sigma", "non-negative"))
        pixels = np.array(given.reshape(given.shape[0], -1).T, order="C")  # always a copy
        pixels.flags.writeable = False
    n, m = pixels.shape
    col_mean = np.empty(n)
    sum_sq = np.empty(n)
    step = max(1, _BLOCK_BYTES // pixels[0].nbytes)
    block = np.empty((min(step, n), m))
    for start in range(0, n, step):
        chunk = pixels[start:start + step]
        mean = np.mean(chunk, axis=1, out=col_mean[start:start + step])
        centred = np.subtract(chunk, mean[:, None], out=block[:len(chunk)])
        np.einsum("ij,ij->i", centred, centred, out=sum_sq[start:start + step])
    col_scale = np.sqrt(sum_sq / m)
    dead = col_scale == 0
    if dead.any():
        warnings.warn(f"{int(dead.sum())} zero-variance column(s); scale left at 1",
                      stacklevel=2)
        col_scale[dead] = 1.0

    rhs -= rhs.mean()
    return SensingSystem(_Owned(pixels.T), rhs, col_scale, col_mean)


def kkt_residual(x: np.ndarray, grad: np.ndarray, tau: float) -> float:
    """Infinity-norm violation of the l1 least-squares optimality conditions.

    grad + sign(x) * tau must vanish where x != 0 and |grad| <= tau where x == 0.
    """
    violation = np.where(x != 0, np.abs(grad + np.sign(x) * tau), np.abs(grad) - tau)
    return float(violation.max(initial=0.0))


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


def gics_reconstruct(system: SensingSystem,
                     params: GicsParams) -> tuple[np.ndarray, SolveReport]:
    """GPSR solve of ``build_sensing``'s system, mapped back to mask units.

    Returns a read-only square image of side sqrt(n_pix), the frames' grid,
    and the solve report; a system whose column count is not a square is a
    ConfigError.  Negative transmittance estimates are clamped to zero after
    the solve (the program itself is unconstrained).  Removing the means drops
    the DC mode (the system has rank at most m - 1), so a full-rank inversion
    needs m > n_pix.
    """
    side = math.isqrt(system.n_pix)
    if side * side != system.n_pix:
        raise ConfigError(f"{system.n_pix} columns are not the pixels of a square image")
    solution, report = gpsr_solve(system, params)
    physical = (solution / system.col_scale).reshape(side, side)
    image = np.maximum(physical, 0.0)
    image.flags.writeable = False
    return image, report
