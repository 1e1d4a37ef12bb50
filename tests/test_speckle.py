import tracemalloc

import numpy as np
import pytest

from ghostbench.errors import ConfigError
from ghostbench.optics import OpticalConfig
from ghostbench.speckle import aperture_sample_count, intensity_stats, synthesize_frame


def config_for(lc, grid_n=64, pitch=15e-6, oversample=4):
    return OpticalConfig(lc, grid_n, pitch, source_oversample=oversample)


SMALL = config_for(60e-6, grid_n=16)  # K = 16


class TestApertureSampleCount:
    # K = round(source_oversample * grid_n * pitch / l_c) of every bench geometry:
    # the canonical, aperture and sparse workloads with the sweep recipes
    # (100 px at 15 or 30 um), and the determinism scenario (48 px at 15 um).
    @pytest.mark.parametrize("grid_n,pitch,lc,k", [
        (100, 15e-6, 68.8e-6, 87), (100, 15e-6, 135.5e-6, 44), (100, 15e-6, 276.7e-6, 22),
        (100, 15e-6, 109.6e-6, 55), (100, 15e-6, 193.5e-6, 31), (100, 15e-6, 272.2e-6, 22),
        (100, 30e-6, 276.7e-6, 43), (100, 30e-6, 135.5e-6, 89), (100, 30e-6, 68.8e-6, 174),
        (48, 15e-6, 100e-6, 29),
    ])
    def test_bench_geometries(self, grid_n, pitch, lc, k):
        assert aperture_sample_count(OpticalConfig(lc, grid_n, pitch)) == k

    def test_below_minimum_raises(self):
        # K = 8 is the floor; K = 7 is refused by the count itself
        assert aperture_sample_count(config_for(16 * 15e-6 / 8, grid_n=16, oversample=1)) == 8
        with pytest.raises(ConfigError, match="7 source samples"):
            aperture_sample_count(config_for(16 * 15e-6 / 7, grid_n=16, oversample=1))


class TestSynthesis:
    def test_deterministic_for_fixed_seed_and_index(self):
        cfg = config_for(150e-6)
        a = synthesize_frame(cfg, 123, 7)
        b = synthesize_frame(cfg, 123, 7)
        assert np.array_equal(a, b)

    def test_distinct_indexes_differ(self):
        cfg = config_for(150e-6)
        a = synthesize_frame(cfg, 123, 0)
        b = synthesize_frame(cfg, 123, 1)
        assert not np.array_equal(a, b)

    def test_nonnegative_with_positive_mean(self):
        frame = synthesize_frame(config_for(150e-6), 5, 0)
        assert frame.min() >= 0
        assert frame.mean() > 0

    def test_mean_intensity_near_unity(self):
        frames = [synthesize_frame(config_for(120e-6), 2, i) for i in range(200)]
        stats = intensity_stats(frames, 15e-6)
        assert stats.mean_intensity == pytest.approx(1.0, abs=0.1)

    def test_degenerate_aperture_rejected(self):
        # 7 source samples across the aperture: below the 8-sample floor
        cfg = config_for(16 * 15e-6 / 7, grid_n=16, oversample=1)
        with pytest.raises(ConfigError, match="source samples"):
            synthesize_frame(cfg, 1, 0)

    def test_cross_frame_independence_at_zero_lag(self):
        cfg = config_for(30.1e-6, grid_n=96)
        a = synthesize_frame(cfg, 9, 0)
        b = synthesize_frame(cfg, 9, 1)
        da, db = a - a.mean(), b - b.mean()
        rho = np.sum(da * db) / np.sqrt(np.sum(da**2) * np.sum(db**2))
        assert abs(rho) <= 3 / np.sqrt(a.size)

    def test_frame_validation(self):
        cfg = config_for(150e-6, grid_n=16)
        with pytest.raises(ConfigError, match="seed"):
            synthesize_frame(cfg, 2**64, 0)
        with pytest.raises(ConfigError, match="seed"):
            synthesize_frame(cfg, -1, 0)
        with pytest.raises(ConfigError, match="frame_index"):
            synthesize_frame(cfg, 0, -1)

    @pytest.mark.parametrize("seed,index", [
        (1.7, 0), (True, 0), (np.float64(1.2), 0), ("1", 0), (1.0, 0),
        (1, 0.9), (1, False), (1, np.float64(0.0)), (1, "0")],
        ids=["seed_float", "seed_bool", "seed_np_float", "seed_str", "seed_integral_float",
             "index_float", "index_bool", "index_np_float", "index_str"])
    def test_seed_and_index_must_be_integers(self, seed, index):
        with pytest.raises(ConfigError, match="must be an integer"):
            synthesize_frame(SMALL, seed, index)

    def test_numpy_integers_are_accepted(self):
        frame = synthesize_frame(SMALL, 1, 2)
        for seed, index in ((np.int64(1), np.int32(2)), (np.uint64(1), np.uint8(2))):
            assert np.array_equal(synthesize_frame(SMALL, seed, index), frame)


class TestInPlace:
    # the aperture K of three bench geometries on the 100-px grid
    @pytest.mark.parametrize("lc,pitch,k", [(276.7e-6, 30e-6, 43), (109.6e-6, 15e-6, 55),
                                            (68.8e-6, 15e-6, 87)])
    def test_in_place_frame_is_the_allocating_frame(self, lc, pitch, k):
        cfg = OpticalConfig(lc, 100, pitch)
        assert aperture_sample_count(cfg) == k
        buf = np.full((100, 100), np.nan)
        for i in range(3):  # a reused buffer is overwritten whole
            assert synthesize_frame(cfg, 17, i, out=buf) is buf
            assert np.array_equal(buf, synthesize_frame(cfg, 17, i))

    @pytest.mark.parametrize("out", [
        np.empty((16, 17)), np.empty((16, 16), dtype=np.float32),
        np.empty((16, 32))[:, ::2], np.asfortranarray(np.empty((16, 16))),
        np.empty((16, 16)).tolist(), np.frombuffer(bytes(16 * 16 * 8)).reshape(16, 16)],
        ids=["shape", "dtype", "strided", "fortran", "list", "read_only"])
    def test_rejects_a_bad_out(self, out):
        with pytest.raises(ConfigError, match="out"):
            synthesize_frame(SMALL, 1, 0, out=out)


class TestStats:
    def test_duplicated_frame_has_zero_contrast(self):
        frame = synthesize_frame(config_for(150e-6), 3, 0)
        stats = intensity_stats(np.stack([frame] * 10), 15e-6)
        assert stats.contrast == 0.0
        assert np.isnan(stats.measured_lc)

    def test_peak_memory_below_two_and_a_half_stacks(self):
        # one working copy of the stack plus one lag product, not a third copy
        cfg = config_for(120e-6)
        stack = np.stack([synthesize_frame(cfg, 3, i) for i in range(200)])
        before = stack.copy()
        intensity_stats(stack[:2], 15e-6)  # warm up outside the trace
        tracemalloc.start()
        try:
            intensity_stats(stack, 15e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * stack.nbytes
        assert np.array_equal(stack, before)

    def test_profile_starts_at_unity(self):
        frames = [synthesize_frame(config_for(120e-6), 4, i) for i in range(80)]
        stats = intensity_stats(frames, 15e-6)
        assert stats.covariance_profile[0] == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_frames(self):
        frame = synthesize_frame(config_for(150e-6), 3, 0)
        with pytest.raises(ConfigError):
            intensity_stats([frame], 15e-6)

    @pytest.mark.parametrize("pitch", [np.nan, np.inf, -np.inf, 0.0, -15e-6])
    def test_rejects_a_pitch_that_is_not_finite_and_positive(self, pitch):
        frames = [synthesize_frame(SMALL, 3, i) for i in range(2)]
        with pytest.raises(ConfigError, match="pixel_pitch"):
            intensity_stats(frames, pitch)

    def test_rejects_mismatched_grids(self):
        a = synthesize_frame(config_for(150e-6, grid_n=64), 3, 0)
        b = synthesize_frame(config_for(150e-6, grid_n=32), 3, 0)
        with pytest.raises(ConfigError, match="mismatched"):
            intensity_stats([a, b], 15e-6)

    def test_thermal_contrast_and_median_smoke(self):
        cfg = config_for(120e-6)
        frames = [synthesize_frame(cfg, 11, i) for i in range(600)]
        stats = intensity_stats(frames, 15e-6)
        assert stats.contrast == pytest.approx(1.0, abs=0.12)
        center = np.array([f[32, 32] for f in frames])
        # negative-exponential law: median = mean * ln 2
        assert np.median(center) / (center.mean() * np.log(2)) == pytest.approx(1.0, abs=0.1)
        # independent histogram check: P(I > mean) = 1/e
        assert np.mean(center > center.mean()) == pytest.approx(np.exp(-1), abs=0.06)

    def test_measured_lc_scales_inversely_with_source_width(self):
        cfg_narrow = config_for(240e-6, grid_n=96)
        cfg_wide = config_for(120e-6, grid_n=96)
        frames_n = [synthesize_frame(cfg_narrow, 5, i) for i in range(600)]
        frames_w = [synthesize_frame(cfg_wide, 5, i) for i in range(600)]
        ratio = (intensity_stats(frames_n, 15e-6).measured_lc
                 / intensity_stats(frames_w, 15e-6).measured_lc)
        assert ratio == pytest.approx(2.0, rel=0.1)

