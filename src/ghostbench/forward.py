"""Two-arm forward model: bucket detector behind the object, full reference record.

The reference plane sits at the object-plane distance from the source, so the
reference arm records the same frame as the object plane (perfect arm
correlation); no separate reference distance exists.  Detector noise is
modeled as additive Gaussian noise on the bucket only, seeded per frame so
campaigns are reproducible regardless of the order in which frames are
acquired.

A campaign is produced by one generator, ``campaign_blocks``, as checked,
contiguous frame-major blocks of ``_BLOCK_FRAMES`` (8) frames in frame order;
each frame is synthesized in place into its row of the block.  A block's
frames are made on the usable CPUs with the process's OpenBLAS held to one
thread (see ``campaign_blocks``); frames are pure in (seed, index), so the
bytes do not depend on the thread count.  A consumer that needs only running
sums (GI) folds the blocks and never holds more than one.
``run_campaign`` alone stores them, into one read-only pixel-major stack,
which GICS needs whole: row p of the (grid_n**2, m) array holds pixel p's m
values, so the sensing operator reads the pixels it needs as contiguous
m-vectors.  The frames are seen as the stack's (m, grid_n, grid_n) view,
whose frames are strided, so every elementwise pass over a frame (checks,
bucket, GI fold) runs on the contiguous block that is stored, never on the
stack.
"""
from __future__ import annotations

import functools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .optics import ObjectMask, OpticalConfig, _Owned, _frozen, _integer
from .speckle import _checked_seed, synthesize_frame

# Extra entropy word separating the bucket-noise stream from the frame stream.
_NOISE_STREAM = 0x4255434B

# Frames per block of every campaign: a streamed consumer holds one block at a
# time, a stacked campaign one block beside its stack.
_BLOCK_FRAMES = 8

# OpenBLAS thread-count getters, as numpy's scipy-openblas wheels (ILP64 or not)
# and system builds export them; each has a setter of the same name with "set".
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")

# Held while a block's frames are made with OpenBLAS at one thread, so campaigns
# run side by side never save or restore each other's thread count.
_BLAS_PIN = threading.Lock()


def _finite_min(arr: np.ndarray, what: str) -> float:
    """Minimum of a non-empty array; ConfigError unless every value is finite.

    NaN propagates through min and max and an infinity is one of them, so the
    check needs no full-size boolean temporary.
    """
    lo, hi = float(arr.min()), float(arr.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"{what} must be finite")
    return lo


def _check_measurements(intensities: np.ndarray, buckets: np.ndarray,
                       noise_sigma: float) -> None:
    """ConfigError unless (frames, buckets) are a valid record: every value
    finite, frames non-negative with a positive mean each, and buckets
    non-negative when there is no noise.

    ``intensities`` is a (b, n, n) stack, ``buckets`` its b bucket values.
    The same checks serve a whole ``MeasurementSet`` and each block of a
    streamed campaign.
    """
    bucket_min = _finite_min(buckets, "bucket values")
    if _finite_min(intensities, "frame intensities") < 0:
        raise ConfigError("frame intensities must be non-negative")
    if not (intensities.mean(axis=(1, 2)) > 0).all():
        raise ConfigError("a frame intensity has non-positive mean")
    if noise_sigma == 0 and bucket_min < 0:
        raise ConfigError("noiseless buckets cannot be negative")


def _check_noise_sigma(noise_sigma: float) -> None:
    if (isinstance(noise_sigma, (bool, np.bool_))
            or not (noise_sigma >= 0 and np.isfinite(noise_sigma))):
        raise ConfigError(f"noise_sigma must be a finite non-negative number, got {noise_sigma!r}")


def _frames_of(stack: np.ndarray, grid_n: int) -> np.ndarray:
    """The (m, grid_n, grid_n) frame view of a pixel-major (grid_n**2, m) stack."""
    return stack.T.reshape(-1, grid_n, grid_n)


def _check_campaign(config: OpticalConfig, mask: ObjectMask, m: int, master_seed: int,
                    noise_sigma: float) -> None:
    if _integer(m, "m") < 1:
        raise ConfigError("a campaign needs m >= 1 measurements")
    if mask.grid_n != config.grid_n:
        raise ConfigError(
            f"mask grid {mask.grid_n} does not match config grid {config.grid_n}")
    _checked_seed(master_seed)
    _check_noise_sigma(noise_sigma)


@dataclass(frozen=True)
class MeasurementSet:
    """One record: row i of ``intensities`` is reference frame i, ``buckets[i]`` its bucket.

    ``intensities`` is a read-only (m, grid_n, grid_n) stack, the record's only
    grid, and ``buckets`` a read-only length-m vector of finite values, which
    may be negative only when ``noise_sigma`` is positive.  The stack is always
    the frame view of a pixel-major (grid_n**2, m) array (see ``_frames_of``).
    A caller's stack is checked whole and copied into that layout, and the
    buckets are copied too.  Only the stack that ``run_campaign`` allocates is
    handed over uncopied; its blocks passed the same checks as they were made,
    so it is not checked again.
    """

    intensities: np.ndarray
    buckets: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        owned = isinstance(self.intensities, _Owned)
        given = self.intensities.array if owned else np.asarray(self.intensities, dtype=float)
        buckets = _frozen(self.buckets)
        if given.ndim != 3 or given.shape[1] != given.shape[2]:
            raise ConfigError(f"intensities must be an (m, n, n) stack, got {given.shape}")
        if given.shape[0] < 1:
            raise ConfigError("a measurement set needs at least one frame")
        if buckets.shape != (given.shape[0],):
            raise ConfigError(
                f"need one bucket per frame: {buckets.shape} buckets for "
                f"{given.shape[0]} frames")
        _check_noise_sigma(self.noise_sigma)
        if owned:
            intensities = _frozen(self.intensities)
        else:
            _check_measurements(given, buckets, self.noise_sigma)
            stack = np.empty((given.shape[1] * given.shape[2], given.shape[0]))
            intensities = _frames_of(stack, given.shape[1])
            intensities[...] = given
            stack.flags.writeable = False
            intensities.flags.writeable = False
        object.__setattr__(self, "intensities", intensities)
        object.__setattr__(self, "buckets", buckets)

    @property
    def m(self) -> int:
        return self.intensities.shape[0]


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the loaded OpenBLAS's thread count, or None when none is found.

    The library is looked up among the files mapped into this process, so
    only a BLAS that numpy already loaded is used; the lookup runs at the
    first campaign, not at import.
    """
    import ctypes  # here, so that importing ghostbench does not pay for it

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                            and line.split()[-1].startswith("/")})
    except OSError:  # no /proc: not Linux
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            get = getattr(lib, name, None)
            set_ = getattr(lib, name.replace("_get_", "_set_"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _blas_single_threaded():
    """Hold the loaded OpenBLAS at one thread for the body; restore its count after."""
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, set_ = control
    with _BLAS_PIN:
        inherited = get()
        set_(1)
        try:
            yield
        finally:
            set_(inherited)


def _frame_workers() -> int:
    """Frame threads of a campaign: the usable CPUs, at most ``_BLOCK_FRAMES``, when
    OpenBLAS can be held to one thread, else 1 (threads would compete with its pool)."""
    if _openblas_threads() is None:
        return 1
    return min(len(os.sched_getaffinity(0)), _BLOCK_FRAMES)


def _make_frames(config: OpticalConfig, master_seed: int, start: int, frames: np.ndarray,
                 pool: ThreadPoolExecutor, workers: int) -> None:
    """Synthesize frame start + j into row j of ``frames``, on ``workers`` threads.

    Thread w (the caller is thread 0, the others come from ``pool``) makes rows
    w, w + workers, ... while the loaded OpenBLAS is held to one thread.  The
    caller waits for every helper before BLAS is restored, then raises the
    first helper error.
    """
    def rows(first):
        for j in range(first, len(frames), workers):
            synthesize_frame(config, master_seed, start + j, out=frames[j])

    with _blas_single_threaded():
        helpers = [pool.submit(rows, w) for w in range(1, workers)]
        try:
            rows(0)
        finally:
            wait(helpers)
    for helper in helpers:
        helper.result()


def bucket_measure(intensity: np.ndarray, mask: ObjectMask) -> float:
    """Total intensity transmitted by the mask: sum of intensity * transmittance."""
    if intensity.shape != mask.values.shape:
        raise ConfigError(
            f"frame grid {intensity.shape} does not match mask grid {mask.values.shape}")
    return float(np.sum(intensity * mask.values))


def campaign_blocks(config: OpticalConfig, mask: ObjectMask, m: int, master_seed: int,
                    noise_sigma: float = 0.0):
    """Yield the campaign's m frames and buckets as read-only ``(frames, buckets)`` blocks.

    Blocks hold ``_BLOCK_FRAMES`` frames (the last one may hold fewer), arrive
    in frame order, and are new contiguous (b, grid_n, grid_n) arrays.  Frame
    i is ``synthesize_frame(config, master_seed, i)`` (0-based), written in
    place into its row of the block, and its bucket is ``bucket_measure`` of
    it, plus additive Gaussian noise of std ``noise_sigma``; frame and noise
    draw depend on (master_seed, i) alone.  Each block passes
    ``_check_measurements`` before it is yielded.  ``m`` and ``master_seed``
    must be integers.  The blocks are not stored: ``run_campaign`` stores
    them.

    A block's frames are made on ``min(_frame_workers(), m)`` threads, the
    calling thread among them (see ``_make_frames``), with the loaded OpenBLAS
    held to one thread: each frame's two small ``zgemm`` calls would otherwise
    start BLAS pool threads that compete with the frame threads, and they give
    the same bits at one thread.  The hold is process-wide: while a block's
    frames are made, BLAS calls from other threads also run at one thread.
    The inherited count is restored before anything else runs, so the
    generator never suspends while BLAS is held.  Buckets, noise and checks
    are done in the calling thread, in frame order, at the inherited count;
    no output bit depends on how the frames were made.
    """
    _check_campaign(config, mask, m, master_seed, noise_sigma)
    workers = min(_frame_workers(), m)
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:  # no thread until a submit
        for start in range(0, m, _BLOCK_FRAMES):
            stop = min(start + _BLOCK_FRAMES, m)
            frames = np.empty((stop - start, config.grid_n, config.grid_n))
            _make_frames(config, master_seed, start, frames, pool, workers)
            buckets = np.empty(stop - start)
            for j, i in enumerate(range(start, stop)):
                buckets[j] = bucket_measure(frames[j], mask)
                if noise_sigma > 0:
                    rng = np.random.default_rng([int(master_seed), i, _NOISE_STREAM])
                    buckets[j] += noise_sigma * rng.standard_normal()
            _check_measurements(frames, buckets, noise_sigma)
            frames.flags.writeable = False
            buckets.flags.writeable = False
            yield frames, buckets
            del frames, buckets  # one block alive at a time


def run_campaign(config: OpticalConfig, mask: ObjectMask, m: int, master_seed: int,
                 noise_sigma: float = 0.0, fold=None):
    """The whole campaign of ``campaign_blocks`` as one ``MeasurementSet``.

    The only writer of a campaign's stack: each checked block is stored
    straight into its columns of the set's pixel-major stack, which is handed
    over uncopied.  ``fold``, a consumer of the block iterator such as
    ``recon_gi.gi_from_blocks``, sees each block after it is stored, while it
    is still contiguous; with it, the result is ``(ms, fold(blocks))``.
    """
    _check_campaign(config, mask, m, master_seed, noise_sigma)
    stack = np.empty((config.grid_n ** 2, m))
    bucket_blocks = []

    def stored_blocks():
        start = 0
        for frames, buckets in campaign_blocks(config, mask, m, master_seed, noise_sigma):
            stack[:, start:start + len(frames)] = frames.reshape(len(frames), -1).T
            start += len(frames)
            bucket_blocks.append(buckets)
            yield frames, buckets
            del frames, buckets  # the next block is made without this one

    blocks = stored_blocks()
    folded = None if fold is None else fold(blocks)
    deque(blocks, maxlen=0)  # store whatever the fold left unread
    stack.flags.writeable = False
    ms = MeasurementSet(_Owned(_frames_of(stack, config.grid_n)), np.concatenate(bucket_blocks),
                        noise_sigma)
    return ms if fold is None else (ms, folded)
