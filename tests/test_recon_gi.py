from itertools import chain, islice

import numpy as np
import pytest

from ghostbench import optics
from ghostbench.errors import ConfigError
from ghostbench.forward import _BLOCK_FRAMES, campaign_blocks
from ghostbench.metrics import minmax_normalize, recon_snr
from ghostbench.optics import ObjectMask, OpticalConfig, SlitGeometry
from ghostbench.recon_gi import gi_from_blocks
from ghostbench.recon_gics import run_campaign
from ghostbench.speckle import synthesize_frame

from oracles import campaign_record

CFG = OpticalConfig(120e-6, 64, 15e-6)


def record(frames, buckets):
    """A caller's record as one block: the frames stacked, the buckets as an array."""
    return np.stack(frames), np.asarray(buckets, dtype=float)


class TestGiReconstruct:
    def test_identical_frames_give_zero_image(self):
        frame = synthesize_frame(CFG, 1, 0)
        image = gi_from_blocks([record([frame] * 5, [3.0] * 5)])
        assert np.max(np.abs(image)) <= 1e-12 * frame.max() ** 2

    def test_needs_two_records(self):
        frame = synthesize_frame(CFG, 1, 0)
        with pytest.raises(ConfigError):
            gi_from_blocks([record([frame], [1.0])])

    def test_needs_two_streamed_frames(self):
        mask = ObjectMask(np.ones((64, 64)))
        with pytest.raises(ConfigError, match="at least 2 frames"):
            gi_from_blocks(campaign_blocks(CFG, mask, 1, 1))

    def test_streamed_image_is_the_stacked_image(self):
        mask = optics.make_double_slit(CFG, SlitGeometry(6e-5, 3e-4, 1.2e-4))
        m = 2 * _BLOCK_FRAMES + 22
        streamed = gi_from_blocks(campaign_blocks(CFG, mask, m, 9))
        frames, buckets = campaign_record(CFG, mask, m, 9)
        assert np.array_equal(streamed, gi_from_blocks([(frames, buckets)]))
        assert not streamed.flags.writeable
        # the closed-form estimator over the whole stack, to rounding
        oracle = np.tensordot(buckets, frames, axes=(0, 0)) / m \
            - buckets.mean() * frames.mean(axis=0)
        assert np.allclose(streamed, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())

    def test_image_folded_while_stacking_is_the_streamed_image(self):
        mask = optics.make_double_slit(CFG, SlitGeometry(6e-5, 3e-4, 1.2e-4))
        m = _BLOCK_FRAMES + 13
        system, folded = run_campaign(CFG, mask, m, 5, noise_sigma=0.3, fold=gi_from_blocks)
        streamed = gi_from_blocks(campaign_blocks(CFG, mask, m, 5, noise_sigma=0.3))
        assert np.array_equal(folded, streamed)
        # the frames as stored, whose pixel-major layout makes each frame strided
        _, buckets = campaign_record(CFG, mask, m, 5, noise_sigma=0.3)
        stored = system.rows.reshape(m, CFG.grid_n, CFG.grid_n)
        assert np.array_equal(folded, gi_from_blocks([(stored, buckets)]))

    def test_bits_do_not_depend_on_block_size(self):
        rng = np.random.default_rng(8)
        frames = rng.uniform(0.5, 1.5, (23, 64, 64))
        buckets = rng.uniform(1.0, 2.0, 23)
        whole = gi_from_blocks([(frames, buckets)])
        for size in (1, 5, 22):
            blocks = [(frames[s:s + size], buckets[s:s + size]) for s in range(0, 23, size)]
            assert np.array_equal(gi_from_blocks(blocks), whole)
        assert np.array_equal(gi_from_blocks([(np.asfortranarray(frames), buckets)]), whole)

    def test_bilinear_in_the_mask(self):
        rng = np.random.default_rng(3)
        mask_a = ObjectMask(rng.uniform(0, 1, (64, 64)))
        mask_b = ObjectMask(rng.uniform(0, 1, (64, 64)))
        frames = [synthesize_frame(CFG, 2, i) for i in range(20)]
        buckets_a = [float(np.sum(f * mask_a.values)) for f in frames]
        buckets_b = [float(np.sum(f * mask_b.values)) for f in frames]
        alpha, beta = 0.6, 0.3
        combo = [alpha * a + beta * b for a, b in zip(buckets_a, buckets_b)]
        img_a, img_b, img_c = (gi_from_blocks([record(frames, b)])
                               for b in (buckets_a, buckets_b, combo))
        assert np.allclose(img_c, alpha * img_a + beta * img_b, rtol=1e-10, atol=1e-12)

    def test_background_mean_vanishes_at_large_m(self):
        mask = optics.make_double_slit(CFG, SlitGeometry(6e-5, 3e-4, 1.2e-4))
        image = gi_from_blocks(campaign_blocks(CFG, mask, 2000, 4))
        background = image[mask.values <= 0.5]
        assert abs(background.mean()) <= 3 * background.std()

    def test_normalize_flag(self):
        mask = optics.make_double_slit(CFG, SlitGeometry(6e-5, 3e-4, 1.2e-4))
        image = gi_from_blocks(campaign_blocks(CFG, mask, 50, 4))
        normalized = minmax_normalize(image)
        assert normalized.min() == 0.0
        assert normalized.max() == 1.0

    def test_delta_mask_psf_fits_sinc_squared(self):
        # coarse version of the point-spread check: R^2 of the analytic kernel fit
        values = np.zeros((64, 64))
        values[32, 32] = 1.0
        mask = ObjectMask(values)
        avg = None
        for seed in (1, 2):
            img = gi_from_blocks(campaign_blocks(CFG, mask, 800, seed))
            avg = img if avg is None else avg + img
        profile = avg[32, :] / avg.max()
        x = np.arange(64)
        lc_px = 120e-6 / CFG.pixel_pitch
        kernel = np.sinc((x - 32) / lc_px) ** 2
        design = np.column_stack([kernel, np.ones_like(kernel)])
        coef, *_ = np.linalg.lstsq(design, profile, rcond=None)
        resid = profile - design @ coef
        r2 = 1 - np.sum(resid**2) / np.sum((profile - profile.mean()) ** 2)
        assert r2 >= 0.9


class TestNoiseLaw:
    """GI SNR grows as sqrt(m) where the image is limited by estimator noise.

    Trend-bench geometry (100-px grid, 30 um pitch, 0.5 mm slit), GI only,
    streamed, seeds 1-3, m = 200 and 4m = 800.  On seeds 4-13 the per-seed
    ratio SNR(4m) / SNR(m) had mean 2.00, std 0.096 at 68.8 um and mean 1.35,
    std 0.112 at 276.7 um; the tolerance is 4 standard deviations of a
    3-seed mean, 4 * 0.112 / sqrt(3) = 0.26.
    """

    GEOMETRY = SlitGeometry(1e-4, 0.5e-3, 2e-4)
    SEEDS = (1, 2, 3)
    M = 25 * _BLOCK_FRAMES  # 200: the first m frames are whole blocks
    TOL = 0.26

    def snr_ratio(self, lc):
        """Mean recon_snr over the seeds after all 4m frames, over the mean after the first m."""
        config = OpticalConfig(lc, 100, 30e-6)
        mask = optics.make_double_slit(config, self.GEOMETRY)
        at_m, at_4m = [], []
        for seed in self.SEEDS:
            # the first m frames of the 4m campaign are the m campaign
            blocks = campaign_blocks(config, mask, 4 * self.M, seed)
            first = list(islice(blocks, self.M // _BLOCK_FRAMES))
            at_m.append(recon_snr(gi_from_blocks(first), mask))
            at_4m.append(recon_snr(gi_from_blocks(chain(first, blocks)), mask))
        return np.mean(at_4m) / np.mean(at_m)

    def test_snr_doubles_at_four_times_m_when_noise_limited(self):
        assert abs(self.snr_ratio(68.8e-6) - 2.0) <= self.TOL

    def test_snr_grows_slower_when_resolution_limited(self):
        # the speckle blur, not estimator noise, limits the image at 276.7 um
        assert abs(self.snr_ratio(276.7e-6) - 1.35) <= self.TOL
