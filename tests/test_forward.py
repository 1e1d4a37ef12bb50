import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostbench import forward, optics
from ghostbench.errors import ConfigError
from ghostbench.forward import (_BLOCK_FRAMES, MeasurementSet, bucket_measure, campaign_blocks,
                                run_campaign)
from ghostbench.optics import ObjectMask, OpticalConfig, SlitGeometry
from ghostbench.speckle import synthesize_frame

CFG = OpticalConfig(120e-6, 32, 15e-6)
FRAME = synthesize_frame(CFG, 42, 0)
N = CFG.grid_n


def two_loop_bucket(frame, mask):
    total = 0.0
    for i in range(frame.shape[0]):
        for j in range(frame.shape[1]):
            total += frame[i, j] * mask.values[i, j]
    return total


class TestBucket:
    def test_identity_mask_gives_total_intensity(self):
        mask = ObjectMask(np.ones((32, 32)))
        assert bucket_measure(FRAME, mask) == pytest.approx(FRAME.sum(), rel=1e-12)

    def test_delta_mask_gives_single_pixel(self):
        values = np.zeros((32, 32))
        values[5, 9] = 1.0
        mask = ObjectMask(values)
        assert bucket_measure(FRAME, mask) == pytest.approx(FRAME[5, 9], rel=1e-12)

    def test_matches_two_loop_oracle(self):
        mask = optics.make_double_slit(CFG, SlitGeometry(6e-5, 3e-4, 1.2e-4))
        expected = two_loop_bucket(FRAME, mask)
        assert bucket_measure(FRAME, mask) == pytest.approx(expected, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        mask = ObjectMask(np.ones((16, 16)))
        with pytest.raises(ConfigError, match="grid"):
            bucket_measure(FRAME, mask)

    @given(alpha=st.floats(0.05, 0.95), beta=st.floats(0.01, 0.5))
    @settings(max_examples=30)
    def test_linearity(self, alpha, beta):
        beta = min(beta, 1.0 - alpha)
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, (32, 32))
        b = rng.uniform(0, 1, (32, 32))
        mask_a = ObjectMask(a)
        mask_b = ObjectMask(b)
        combo = ObjectMask(alpha * a + beta * b)
        expected = alpha * bucket_measure(FRAME, mask_a) + beta * bucket_measure(FRAME, mask_b)
        assert bucket_measure(FRAME, combo) == pytest.approx(expected, rel=1e-10)

    def test_enlarging_support_never_decreases(self):
        small = np.zeros((32, 32))
        small[10:14, 10:14] = 1.0
        big = small.copy()
        big[10:20, 10:20] = 1.0
        b_small = bucket_measure(FRAME, ObjectMask(small))
        b_big = bucket_measure(FRAME, ObjectMask(big))
        assert b_big >= b_small


class TestCampaign:
    MASK = optics.make_double_slit(CFG, SlitGeometry(6e-5, 3e-4, 1.2e-4))

    def test_single_record_composition(self):
        ms = run_campaign(CFG, self.MASK, 1, 42)
        assert ms.m == 1
        frame = synthesize_frame(CFG, 42, 0)
        assert ms.buckets[0] == pytest.approx(bucket_measure(frame, self.MASK))

    def test_frames_depend_only_on_seed_and_index(self):
        ms = run_campaign(CFG, self.MASK, 12, 3)
        for i in reversed(range(12)):
            frame = synthesize_frame(CFG, 3, i)
            assert np.array_equal(ms.intensities[i], frame)
            assert ms.buckets[i] == bucket_measure(frame, self.MASK)

    def test_noise_is_deterministic_and_additive(self):
        clean = run_campaign(CFG, self.MASK, 6, 3)
        noisy1 = run_campaign(CFG, self.MASK, 6, 3, noise_sigma=2.5)
        noisy2 = run_campaign(CFG, self.MASK, 6, 3, noise_sigma=2.5)
        assert np.array_equal(noisy1.buckets, noisy2.buckets)
        assert not np.array_equal(noisy1.buckets, clean.buckets)
        # noise draw is independent of sigma magnitude: residuals scale exactly
        noisy_half = run_campaign(CFG, self.MASK, 6, 3, noise_sigma=1.25)
        resid_full = noisy1.buckets - clean.buckets
        resid_half = noisy_half.buckets - clean.buckets
        assert np.allclose(resid_full, 2.0 * resid_half, rtol=1e-12)

    def test_noiseless_buckets_nonnegative(self):
        ms = run_campaign(CFG, self.MASK, 8, 1)
        assert (ms.buckets >= 0).all()

    def test_three_hundred_observation_campaign(self):
        ms = run_campaign(CFG, self.MASK, 300, 2)
        assert ms.m == 300
        assert ms.intensities.shape == (300, 32, 32)
        assert ms.buckets.shape == (300,)

    def test_rejects_bad_m(self):
        with pytest.raises(ConfigError):
            run_campaign(CFG, self.MASK, 0, 1)

    def test_rejects_mask_grid_mismatch(self):
        mask = ObjectMask(np.ones((16, 16)))
        with pytest.raises(ConfigError, match="grid"):
            run_campaign(CFG, mask, 4, 1)

    def test_measurement_set_validation(self):
        stack = FRAME[None]
        with pytest.raises(ConfigError, match="negative"):
            MeasurementSet(stack, [-1.0], CFG, 0, noise_sigma=0.0)
        # negative buckets fine under noise
        MeasurementSet(stack, [-1.0], CFG, 0, noise_sigma=1.0)
        with pytest.raises(ConfigError):
            MeasurementSet(np.empty((0, 32, 32)), [], CFG, 0)
        with pytest.raises(ConfigError):
            MeasurementSet(stack, [1.0], CFG, 0, noise_sigma=-1.0)
        with pytest.raises(ConfigError, match="grid"):
            MeasurementSet(np.ones((4, 8, 8)), [1.0] * 4, CFG, 0)

    @pytest.mark.parametrize("frame,bucket", [
        (np.full((N, N), -1.0), 1.0), (np.zeros((N, N)), 1.0),
        (np.full((N, N), np.nan), 1.0), (np.full((N, N), np.inf), 1.0),
        (np.ones((N, N)), np.nan), (np.ones((N, N)), np.inf)],
        ids=["negative", "zero_mean", "nan", "inf", "nan_bucket", "inf_bucket"])
    def test_rejects_bad_frame_values(self, frame, bucket):
        stack = np.stack([np.ones((N, N)), frame])
        with pytest.raises(ConfigError):
            MeasurementSet(stack, [1.0, bucket], CFG, 0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError, match="stack"):
            MeasurementSet(np.ones((8, 8)), [1.0] * 8, CFG, 0)
        with pytest.raises(ConfigError, match="stack"):
            MeasurementSet(np.ones((2, 8, 6)), [1.0, 1.0], CFG, 0)
        with pytest.raises(ConfigError, match="one bucket per frame"):
            MeasurementSet(np.ones((3, 8, 8)), [1.0, 1.0], CFG, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            MeasurementSet(np.ones((1, N, N)), [1.0], CFG, seed)

    def test_caller_mutation_does_not_leak(self):
        stack = np.ones((2, N, N))
        buckets = np.array([1.0, 2.0])
        ms = MeasurementSet(stack, buckets, CFG, 0)
        stack[0, 0, 0] = 5.0
        buckets[0] = 5.0
        assert ms.intensities[0, 0, 0] == 1.0
        assert ms.buckets[0] == 1.0
        assert not ms.intensities.flags.writeable
        assert not ms.buckets.flags.writeable

    def test_read_only_view_of_writeable_base_is_copied(self):
        base = np.ones((2, N, N))
        view = base[:]
        view.flags.writeable = False
        ms = MeasurementSet(view, [1.0, 2.0], CFG, 0)
        base[0, 0, 0] = 5.0
        assert ms.intensities[0, 0, 0] == 1.0

    def test_read_only_owner_made_writeable_does_not_leak(self):
        # whoever owns an array can switch writes back on, so read-only is no promise
        owner = np.ones((2, N, N))
        owner.flags.writeable = False
        ms = MeasurementSet(owner, [64.0, 64.0], CFG, 0)
        owner.flags.writeable = True
        owner[0, 0, 0] = -5.0
        assert ms.intensities[0, 0, 0] == 1.0

    def test_campaign_stack_is_not_copied(self):
        # the stack run_campaign allocates is handed over: peak is one stack, not two
        m = 40
        synthesize_frame(CFG, 11, 0)  # warm the DFT-factor cache outside the trace
        tracemalloc.start()
        try:
            ms = run_campaign(CFG, self.MASK, m, 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ms.intensities.nbytes


class TestCampaignBlocks:
    MASK = TestCampaign.MASK

    def test_blocks_arrive_in_frame_order_with_a_short_last_block(self):
        m = 2 * _BLOCK_FRAMES + 5
        blocks = list(campaign_blocks(CFG, self.MASK, m, 3, noise_sigma=0.5))
        assert [len(buckets) for _, buckets in blocks] == [_BLOCK_FRAMES, _BLOCK_FRAMES, 5]
        assert all(not f.flags.writeable and not b.flags.writeable for f, b in blocks)
        frames = np.concatenate([f for f, _ in blocks])
        buckets = np.concatenate([b for _, b in blocks])
        for i in (0, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, m - 1):
            assert np.array_equal(frames[i], synthesize_frame(CFG, 3, i))
        ms = run_campaign(CFG, self.MASK, m, 3, noise_sigma=0.5)
        assert np.array_equal(frames, ms.intensities)
        assert np.array_equal(buckets, ms.buckets)

    @pytest.mark.parametrize("bad", ["nan_frame", "negative_frame", "negative_bucket"])
    def test_streamed_checks_raise_what_measurement_set_raises(self, monkeypatch, bad):
        frame = {"nan_frame": np.full((N, N), np.nan), "negative_frame": -1.0 - FRAME}.get(
            bad, FRAME)
        bucket = -1.0 if bad == "negative_bucket" else 1.0
        with pytest.raises(ConfigError) as stacked:
            MeasurementSet(np.stack([FRAME, frame]), [1.0, bucket], CFG, 0)
        bad_index = _BLOCK_FRAMES + 6  # in the second block: the first one passes
        monkeypatch.setattr(forward, "synthesize_frame",
                            lambda config, seed, i: frame if i == bad_index else FRAME)
        monkeypatch.setattr(forward, "bucket_measure", lambda f, mask: bucket)
        passed = []
        with pytest.raises(ConfigError) as streamed:
            for block in campaign_blocks(CFG, self.MASK, 2 * _BLOCK_FRAMES, 0):
                passed.append(block)
        assert str(streamed.value) == str(stacked.value)
        assert len(passed) == (0 if bad == "negative_bucket" else 1)
