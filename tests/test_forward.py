import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostbench import forward, harness, optics, recon_gics, speckle
from ghostbench.errors import ConfigError
from ghostbench.forward import (_BLOCK_FRAMES, MeasurementSet, bucket_measure, campaign_blocks,
                                run_campaign)
from ghostbench.recon_gi import gi_from_blocks
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
            MeasurementSet(stack, [-1.0], noise_sigma=0.0)
        # negative buckets fine under noise
        MeasurementSet(stack, [-1.0], noise_sigma=1.0)
        with pytest.raises(ConfigError):
            MeasurementSet(np.empty((0, 32, 32)), [])
        with pytest.raises(ConfigError):
            MeasurementSet(stack, [1.0], noise_sigma=-1.0)
        for flag in (True, np.bool_(False)):
            with pytest.raises(ConfigError, match="noise_sigma"):
                MeasurementSet(np.ones((2, 4, 4)), [1.0, 1.0], noise_sigma=flag)

    @pytest.mark.parametrize("frame,bucket", [
        (np.full((N, N), -1.0), 1.0), (np.zeros((N, N)), 1.0),
        (np.full((N, N), np.nan), 1.0), (np.full((N, N), np.inf), 1.0),
        (np.ones((N, N)), np.nan), (np.ones((N, N)), np.inf)],
        ids=["negative", "zero_mean", "nan", "inf", "nan_bucket", "inf_bucket"])
    def test_rejects_bad_frame_values(self, frame, bucket):
        stack = np.stack([np.ones((N, N)), frame])
        with pytest.raises(ConfigError):
            MeasurementSet(stack, [1.0, bucket])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError, match="stack"):
            MeasurementSet(np.ones((8, 8)), [1.0] * 8)
        with pytest.raises(ConfigError, match="stack"):
            MeasurementSet(np.ones((2, 8, 6)), [1.0, 1.0])
        with pytest.raises(ConfigError, match="one bucket per frame"):
            MeasurementSet(np.ones((3, 8, 8)), [1.0, 1.0])

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.7, 2.9, True, np.float64(1.2), "1"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            run_campaign(CFG, self.MASK, 4, seed)
        with pytest.raises(ConfigError, match="seed"):
            next(campaign_blocks(CFG, self.MASK, 4, seed))

    @pytest.mark.parametrize("m", [4.5, 4.0, True, "4"])
    def test_rejects_an_m_that_is_not_an_integer(self, m):
        with pytest.raises(ConfigError, match="m must be an integer"):
            run_campaign(CFG, self.MASK, m, 1)
        with pytest.raises(ConfigError, match="m must be an integer"):
            next(campaign_blocks(CFG, self.MASK, m, 1))

    def test_numpy_integers_are_accepted(self):
        ms = run_campaign(CFG, self.MASK, np.int32(3), np.uint64(5))
        assert np.array_equal(ms.intensities, run_campaign(CFG, self.MASK, 3, 5).intensities)

    def test_caller_mutation_does_not_leak(self):
        stack = np.ones((2, N, N))
        buckets = np.array([1.0, 2.0])
        ms = MeasurementSet(stack, buckets)
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
        ms = MeasurementSet(view, [1.0, 2.0])
        base[0, 0, 0] = 5.0
        assert ms.intensities[0, 0, 0] == 1.0

    def test_read_only_owner_made_writeable_does_not_leak(self):
        # whoever owns an array can switch writes back on, so read-only is no promise
        owner = np.ones((2, N, N))
        owner.flags.writeable = False
        ms = MeasurementSet(owner, [64.0, 64.0])
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

    @pytest.mark.parametrize("fold", [None, gi_from_blocks], ids=["stack", "stack_and_fold"])
    def test_each_frame_is_checked_once(self, monkeypatch, fold):
        checked = []
        check = forward._check_measurements
        monkeypatch.setattr(forward, "_check_measurements",
                            lambda frames, buckets, sigma: (checked.append(len(frames)),
                                                            check(frames, buckets, sigma)))
        m = 2 * _BLOCK_FRAMES + 3
        run_campaign(CFG, self.MASK, m, 6, fold=fold)
        assert sum(checked) == m
        assert len(checked) == 3  # block by block, never the whole stack again

    def test_stack_is_pixel_major(self):
        # row p of the stack holds pixel p of every frame, contiguously
        for ms in (run_campaign(CFG, self.MASK, 11, 2),
                   MeasurementSet(np.ones((3, N, N)), [1.0] * 3)):
            pixels = ms.intensities.reshape(ms.m, -1).T
            assert pixels.flags.c_contiguous
            assert np.shares_memory(pixels, ms.intensities)
            assert not pixels.base.flags.writeable

    def test_fold_sees_contiguous_blocks_in_frame_order(self):
        m = 2 * _BLOCK_FRAMES + 3

        def fold(blocks):
            return [(np.array(frames), frames.flags.c_contiguous) for frames, _ in blocks]

        ms, seen = run_campaign(CFG, self.MASK, m, 4, fold=fold)
        assert all(contiguous for _, contiguous in seen)
        assert np.array_equal(np.concatenate([frames for frames, _ in seen]), ms.intensities)

    def test_fold_that_stops_early_still_gets_a_whole_stack(self):
        ms, first = run_campaign(CFG, self.MASK, 20, 4, fold=lambda blocks: next(iter(blocks)))
        assert len(first[1]) == _BLOCK_FRAMES
        assert np.array_equal(ms.intensities, run_campaign(CFG, self.MASK, 20, 4).intensities)


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

    def test_streamed_and_stacked_campaigns_share_block_sizes(self):
        m = 2 * _BLOCK_FRAMES + 3
        streamed = [len(b) for _, b in campaign_blocks(CFG, self.MASK, m, 2)]
        _, stacked = run_campaign(CFG, self.MASK, m, 2, fold=lambda blocks: [len(b) for _, b in blocks])
        assert streamed == stacked == [_BLOCK_FRAMES, _BLOCK_FRAMES, 3]

    def test_streamed_gi_memory_does_not_grow_with_m(self, monkeypatch):
        # the aperture_gi geometry: 100-px grid, K = 55
        config = OpticalConfig(109.6e-6, 100, 15e-6)
        mask = optics.make_double_slit(config, SlitGeometry(1e-4, 1e-3, 2e-4))
        gi_from_blocks(campaign_blocks(config, mask, 2, 1))  # warm the DFT-factor cache
        frame_bytes = config.grid_n ** 2 * 8
        for workers in (1, 2):
            monkeypatch.setattr(forward, "_frame_workers", lambda: workers)
            peaks = []
            for m in (200, 800):
                tracemalloc.start()
                try:
                    gi_from_blocks(campaign_blocks(config, mask, m, 1))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            if workers == 1:  # how far 2 threads' temporaries overlap depends on scheduling
                assert abs(peaks[1] - peaks[0]) < frame_bytes / 4
            # one block, plus the three GI sums and each frame thread's synthesis
            # temporaries (noise, amplitudes, half and whole complex field: under 5 frames)
            assert max(peaks) < (_BLOCK_FRAMES + 3 + 5 * workers) * frame_bytes

    @pytest.mark.parametrize("bad", ["nan_frame", "negative_frame", "negative_bucket"])
    def test_streamed_checks_raise_what_measurement_set_raises(self, monkeypatch, bad):
        frame = {"nan_frame": np.full((N, N), np.nan), "negative_frame": -1.0 - FRAME}.get(
            bad, FRAME)
        bucket = -1.0 if bad == "negative_bucket" else 1.0
        with pytest.raises(ConfigError) as stacked:
            MeasurementSet(np.stack([FRAME, frame]), [1.0, bucket])
        bad_index = _BLOCK_FRAMES + 6  # in the second block: the first one passes
        monkeypatch.setattr(forward, "synthesize_frame",
                            lambda config, seed, i, out: np.copyto(
                                out, frame if i == bad_index else FRAME) or out)
        monkeypatch.setattr(forward, "bucket_measure", lambda f, mask: bucket)
        passed = []
        with pytest.raises(ConfigError) as streamed:
            for block in campaign_blocks(CFG, self.MASK, 2 * _BLOCK_FRAMES, 0):
                passed.append(block)
        assert str(streamed.value) == str(stacked.value)
        assert len(passed) == (0 if bad == "negative_bucket" else 1)


@pytest.fixture
def blas_threads():
    """The loaded OpenBLAS's thread-count getter, with the count set to 2 for the
    test so that holding it to one thread is seen; the count is put back after."""
    control = forward._openblas_threads()
    if control is None:
        pytest.skip("no OpenBLAS thread control found")
    get, set_ = control
    inherited = get()
    set_(2)
    try:
        yield get
    finally:
        set_(inherited)


def frame_workers(monkeypatch, workers):
    """Make every campaign use ``workers`` frame threads."""
    monkeypatch.setattr(forward, "_frame_workers", lambda: workers)


class TestFrameWorkers:
    MASK = TestCampaign.MASK

    def test_worker_count_changes_no_bit(self, monkeypatch):
        m = 2 * _BLOCK_FRAMES + 5
        frame_workers(monkeypatch, 1)
        serial, serial_gi = run_campaign(CFG, self.MASK, m, 7, noise_sigma=0.5,
                                         fold=gi_from_blocks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for workers in (1, 2, 3):
                frame_workers(monkeypatch, workers)
                ms, gi = run_campaign(CFG, self.MASK, m, 7, noise_sigma=0.5,
                                      fold=gi_from_blocks)
                streamed = gi_from_blocks(campaign_blocks(CFG, self.MASK, m, 7, noise_sigma=0.5))
                assert np.array_equal(ms.intensities, serial.intensities)
                assert np.array_equal(ms.buckets, serial.buckets)
                assert np.array_equal(gi, serial_gi)
                assert np.array_equal(streamed, serial_gi)
        finally:
            sys.setswitchinterval(interval)

    def test_gics_solve_is_unchanged_after_a_parallel_campaign(self, monkeypatch):
        params = recon_gics.GicsParams(tau=1e-3, max_iters=100)
        frame_workers(monkeypatch, 1)
        serial = recon_gics.gics_reconstruct(run_campaign(CFG, self.MASK, 40, 8), params)
        frame_workers(monkeypatch, 2)
        parallel = recon_gics.gics_reconstruct(run_campaign(CFG, self.MASK, 40, 8), params)
        assert np.array_equal(parallel[0], serial[0])
        assert parallel[1].history == serial[1].history

    def test_worker_count_sets_the_frame_threads(self, monkeypatch):
        made = []
        synthesize = forward.synthesize_frame
        monkeypatch.setattr(forward, "synthesize_frame", lambda *args, **kwargs: (
            made.append(threading.get_ident()), synthesize(*args, **kwargs))[1])
        frame_workers(monkeypatch, 1)
        run_campaign(CFG, self.MASK, _BLOCK_FRAMES, 1)
        assert set(made) == {threading.get_ident()}
        made.clear()
        frame_workers(monkeypatch, 2)
        run_campaign(CFG, self.MASK, _BLOCK_FRAMES, 1)
        assert len(set(made)) == 2

    def test_blas_is_held_to_one_thread_only_while_frames_are_made(self, monkeypatch,
                                                                    blas_threads):
        seen = []
        synthesize = forward.synthesize_frame
        monkeypatch.setattr(forward, "synthesize_frame",
                            lambda *args, **kwargs: (seen.append(blas_threads()),
                                                     synthesize(*args, **kwargs))[1])
        folded = []

        def fold(blocks):
            for _ in blocks:
                folded.append(blas_threads())

        for workers in (1, 2):  # one frame thread makes its frames on the same held path
            frame_workers(monkeypatch, workers)
            seen.clear()
            folded.clear()
            run_campaign(CFG, self.MASK, 2 * _BLOCK_FRAMES, 1, fold=fold)
            assert seen == [1] * 2 * _BLOCK_FRAMES, f"{workers} frame threads"
            assert folded == [2, 2]
            assert blas_threads() == 2

    def test_blas_count_is_restored_when_a_block_check_raises(self, monkeypatch, blas_threads):
        frame_workers(monkeypatch, 2)
        monkeypatch.setattr(forward, "synthesize_frame",
                            lambda config, seed, i, out: out.fill(np.nan if i == 3 else 1.0))
        with pytest.raises(ConfigError, match="finite"):
            list(campaign_blocks(CFG, self.MASK, 2 * _BLOCK_FRAMES, 0))
        assert blas_threads() == 2

    def test_blas_count_is_restored_when_a_frame_thread_raises(self, monkeypatch, blas_threads):
        frame_workers(monkeypatch, 2)
        caller = threading.get_ident()

        def synthesize(config, seed, i, out):
            if threading.get_ident() != caller:
                raise ConfigError("frame failed")
            out.fill(1.0)

        monkeypatch.setattr(forward, "synthesize_frame", synthesize)
        with pytest.raises(ConfigError, match="frame failed"):
            list(campaign_blocks(CFG, self.MASK, _BLOCK_FRAMES, 0))
        assert blas_threads() == 2

    def test_blas_count_is_restored_when_the_consumer_stops_early(self, monkeypatch,
                                                                   blas_threads):
        frame_workers(monkeypatch, 2)
        blocks = campaign_blocks(CFG, self.MASK, 3 * _BLOCK_FRAMES, 0)
        next(blocks)
        assert blas_threads() == 2  # suspended at a yield, never while held
        blocks.close()
        assert blas_threads() == 2


class TestBlasThreadCount:
    """What a block's frames and the GICS operator compute at 1 and 2 BLAS threads.

    Each test computes once with OpenBLAS held to one thread and once at the
    two threads the ``blas_threads`` fixture sets, which it restores after.
    """

    @pytest.mark.parametrize("lc,pitch,k", [(276.7e-6, 30e-6, 43), (109.6e-6, 15e-6, 55),
                                            (68.8e-6, 15e-6, 87)])
    def test_frames_are_the_same_bits_at_one_and_two_threads(self, blas_threads, lc, pitch, k):
        """K 43, 55 and 87 are the apertures of the three benchmark workloads."""
        config = OpticalConfig(lc, 100, pitch)
        assert speckle.aperture_sample_count(config) == k
        with forward._blas_single_threaded():
            one = [synthesize_frame(config, 1, i) for i in range(3)]
        assert blas_threads() == 2
        for i, frame in enumerate(one):
            assert np.array_equal(synthesize_frame(config, 1, i), frame)

    def test_rmatvec_and_gathered_matvec_are_the_same_bits_at_one_and_two_threads(
            self, blas_threads):
        """On the trend bench's widest-l_c campaign (seed 1, m 500).  The dense
        matvec sums in the order of OpenBLAS's threads, so it is left out."""
        scenario = harness.load_scenario(
            Path(__file__).resolve().parents[1] / "experiments" / "trend_bench.scn")
        system = recon_gics.build_sensing(
            run_campaign(scenario.configs[0], scenario.mask, scenario.m, 1))
        rng = np.random.default_rng(0)
        r = rng.standard_normal(system.m)
        x = np.zeros(system.n_pix)
        x[rng.choice(system.n_pix, 932, replace=False)] = rng.standard_normal(932)
        assert np.count_nonzero(x) <= recon_gics._GATHER_SHARE * system.n_pix  # gathered
        with forward._blas_single_threaded():
            one = system.rmatvec(r), system.matvec(x)
        assert blas_threads() == 2
        assert np.array_equal(system.rmatvec(r), one[0])
        assert np.array_equal(system.matvec(x), one[1])
