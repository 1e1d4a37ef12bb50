import math

import numpy as np
import pytest

from ghostbench import metrics
from ghostbench.errors import ConfigError
from ghostbench.forward import run_campaign
from ghostbench.metrics import minmax_normalize, mse, psnr, recon_snr, slit_dip
from ghostbench.optics import ObjectMask, OpticalConfig, SlitGeometry, make_double_slit
from ghostbench.recon_gi import gi_from_blocks
from ghostbench.recon_gics import GicsParams, gics_reconstruct

PITCH = 15e-6


def double_slit_truth(n=64):
    geom = SlitGeometry(6e-5, 3e-4, 1.2e-4)
    coords = (np.arange(n) - n // 2) * PITCH
    in_x = np.zeros(n, dtype=bool)
    for cx in geom.slit_centers_x:
        in_x |= np.abs(coords - cx) <= geom.width / 2 + 1e-9 * PITCH
    in_y = np.abs(coords) <= geom.height / 2 + 1e-9 * PITCH
    return ObjectMask(np.outer(in_y, in_x).astype(float)), geom


class TestSnr:
    def test_degenerate_background_yields_inf_sentinel(self):
        truth, _ = double_slit_truth()
        assert recon_snr(truth.values, truth) == math.inf
        assert recon_snr(-truth.values, truth) == -math.inf
        # a flat image has no contrast, however flat its background is
        for flat in (np.zeros_like(truth.values), np.full_like(truth.values, 0.7)):
            assert recon_snr(flat, truth) == 0.0

    def test_unit_noise_oracle(self):
        truth, _ = double_slit_truth(n=200)
        rng = np.random.default_rng(0)
        img = truth.values + rng.standard_normal((200, 200))
        # support-minus-background difference is 1, background std is 1
        assert recon_snr(img, truth) == pytest.approx(1.0, rel=0.1)

    def test_background_permutation_invariance(self):
        truth, _ = double_slit_truth()
        rng = np.random.default_rng(1)
        img = truth.values * 3.0 + rng.uniform(0, 1, truth.values.shape)
        baseline = recon_snr(img, truth)
        background = truth.values <= 0.5
        shuffled = img.copy()
        values = shuffled[background]
        shuffled[background] = rng.permutation(values)
        assert recon_snr(shuffled, truth) == pytest.approx(baseline, rel=1e-12)

    def test_affine_invariance(self):
        truth, _ = double_slit_truth()
        rng = np.random.default_rng(2)
        img = truth.values + 0.3 * rng.standard_normal(truth.values.shape)
        assert recon_snr(2.7 * img + 5.0, truth) == pytest.approx(
            recon_snr(img, truth), rel=1e-9)

    def test_requires_support_and_background(self):
        full = ObjectMask(np.ones((8, 8)))
        faint = ObjectMask(np.full((8, 8), 0.2))
        for truth, rule in ((full, "no background"), (faint, "empty support")):
            for check in (metrics.truth_support, lambda t: recon_snr(np.ones((8, 8)), t)):
                with pytest.raises(ConfigError, match=rule):
                    check(truth)


class TestMseAndPsnr:
    def test_exact_match(self):
        truth, _ = double_slit_truth()
        assert mse(truth.values, truth) == 0.0
        assert psnr(truth.values, truth) == math.inf

    def test_complement_of_binary_truth(self):
        truth, _ = double_slit_truth()
        assert mse(1.0 - truth.values, truth) == pytest.approx(1.0)

    def test_checkerboard_against_constant_half(self):
        checker = np.indices((8, 8)).sum(axis=0) % 2
        truth = ObjectMask(checker.astype(float))
        assert mse(np.full((8, 8), 0.5), truth) == pytest.approx(0.25)
        assert psnr(np.full((8, 8), 0.5), truth) == pytest.approx(-10 * math.log10(0.25))

    def test_normalized_mse_is_affine_invariant(self):
        truth, _ = double_slit_truth()
        rng = np.random.default_rng(3)
        img = truth.values + 0.2 * rng.standard_normal(truth.values.shape)
        a = mse(minmax_normalize(img), truth)
        b = mse(minmax_normalize(4.2 * img - 1.3), truth)
        assert a == pytest.approx(b, rel=1e-9)

    def test_constant_image_normalizes_to_zero(self):
        assert not minmax_normalize(np.full((4, 4), 3.3)).any()


class TestSlitDip:
    def test_truth_mask_fully_resolved(self):
        truth, geom = double_slit_truth()
        dip, resolved = slit_dip(truth.values, geom, PITCH)
        assert dip == 0.0
        assert resolved

    def test_flat_profile_rejected(self):
        _, geom = double_slit_truth()
        assert slit_dip(np.full((64, 64), 0.7), geom, PITCH) == (None, False)

    def test_non_positive_peaks_not_locatable(self):
        truth, geom = double_slit_truth()
        assert slit_dip(-truth.values, geom, PITCH) == (None, False)

    def test_merged_blob_not_resolved(self):
        truth, geom = double_slit_truth()
        coords = (np.arange(64) - 32) * PITCH
        blob = np.exp(-(coords / 4e-4) ** 2)
        img = np.outer(np.exp(-(coords / 4e-4) ** 2), blob)
        dip, resolved = slit_dip(img, geom, PITCH)
        assert dip > 0.9
        assert not resolved

    def test_geometry_outside_grid_rejected(self):
        _, geom = double_slit_truth()
        offset = SlitGeometry(geom.width, geom.height, geom.separation, center=(0.0, 1.0))
        with pytest.raises(ConfigError):
            slit_dip(np.random.default_rng(0).uniform(0, 1, (64, 64)), offset, PITCH)


class TestReconstructions:
    def test_both_methods_return_read_only_arrays(self):
        cfg = OpticalConfig(90e-6, 16, 15e-6)
        mask = make_double_slit(cfg, SlitGeometry(6e-5, 1.5e-4, 1.2e-4))
        ms, gi = run_campaign(cfg, mask, 12, 3, fold=gi_from_blocks)
        gics, _ = gics_reconstruct(ms, GicsParams(max_iters=20))
        for image in (gi, gics):
            assert type(image) is np.ndarray
            assert image.shape == (16, 16) and image.dtype == float
            with pytest.raises(ValueError):
                image[0, 0] = 2.0
