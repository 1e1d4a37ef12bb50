import numpy as np
import pytest

from ghostbench import optics
from ghostbench.errors import ConfigError
from ghostbench.forward import _BLOCK_FRAMES, MeasurementSet, campaign_blocks, run_campaign
from ghostbench.metrics import minmax_normalize
from ghostbench.optics import ObjectMask, OpticalConfig, SlitGeometry
from ghostbench.recon_gi import gi_from_blocks, gi_reconstruct
from ghostbench.speckle import synthesize_frame

CFG = OpticalConfig(120e-6, 64, 15e-6)


def measurement_set_from(frames, buckets):
    return MeasurementSet(np.stack(frames), buckets, CFG, 1)


class TestGiReconstruct:
    def test_identical_frames_give_zero_image(self):
        frame = synthesize_frame(CFG, 1, 0)
        ms = measurement_set_from([frame] * 5, [3.0] * 5)
        image = gi_reconstruct(ms)
        assert np.max(np.abs(image)) <= 1e-12 * frame.max() ** 2

    def test_needs_two_records(self):
        frame = synthesize_frame(CFG, 1, 0)
        ms = measurement_set_from([frame], [1.0])
        with pytest.raises(ConfigError):
            gi_reconstruct(ms)

    def test_needs_two_streamed_frames(self):
        mask = ObjectMask(np.ones((64, 64)))
        with pytest.raises(ConfigError, match="at least 2 frames"):
            gi_from_blocks(campaign_blocks(CFG, mask, 1, 1))

    def test_streamed_image_is_the_stacked_image(self):
        mask = optics.make_double_slit(CFG, SlitGeometry(6e-5, 3e-4, 1.2e-4))
        m = 2 * _BLOCK_FRAMES + 22
        streamed = gi_from_blocks(campaign_blocks(CFG, mask, m, 9))
        ms = run_campaign(CFG, mask, m, 9)
        assert np.array_equal(streamed, gi_reconstruct(ms))
        assert not streamed.flags.writeable
        # the closed-form estimator over the whole stack, to rounding
        oracle = np.tensordot(ms.buckets, ms.intensities, axes=(0, 0)) / m \
            - ms.buckets.mean() * ms.intensities.mean(axis=0)
        assert np.allclose(streamed, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())

    def test_bilinear_in_the_mask(self):
        rng = np.random.default_rng(3)
        mask_a = ObjectMask(rng.uniform(0, 1, (64, 64)))
        mask_b = ObjectMask(rng.uniform(0, 1, (64, 64)))
        frames = [synthesize_frame(CFG, 2, i) for i in range(20)]
        buckets_a = [float(np.sum(f * mask_a.values)) for f in frames]
        buckets_b = [float(np.sum(f * mask_b.values)) for f in frames]
        alpha, beta = 0.6, 0.3
        combo = [alpha * a + beta * b for a, b in zip(buckets_a, buckets_b)]
        img_a = gi_reconstruct(measurement_set_from(frames, buckets_a))
        img_b = gi_reconstruct(measurement_set_from(frames, buckets_b))
        img_c = gi_reconstruct(measurement_set_from(frames, combo))
        assert np.allclose(img_c, alpha * img_a + beta * img_b, rtol=1e-10, atol=1e-12)

    def test_background_mean_vanishes_at_large_m(self):
        mask = optics.make_double_slit(CFG, SlitGeometry(6e-5, 3e-4, 1.2e-4))
        ms = run_campaign(CFG, mask, 2000, 4)
        image = gi_reconstruct(ms)
        background = image[mask.values <= 0.5]
        assert abs(background.mean()) <= 3 * background.std()

    def test_normalize_flag(self):
        mask = optics.make_double_slit(CFG, SlitGeometry(6e-5, 3e-4, 1.2e-4))
        ms = run_campaign(CFG, mask, 50, 4)
        image = gi_reconstruct(ms)
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
            ms = run_campaign(CFG, mask, 800, seed)
            img = gi_reconstruct(ms)
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
