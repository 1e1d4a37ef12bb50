import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghostbench import optics, recon_gics
from ghostbench.errors import ConfigError
from ghostbench.forward import MeasurementSet, run_campaign
from ghostbench.optics import OpticalConfig, SlitGeometry
from ghostbench.recon_gi import gi_from_blocks
from ghostbench.recon_gics import (GicsParams, SensingSystem, build_sensing,
                                   gics_reconstruct, gpsr_solve, ista_reference,
                                   kkt_residual, lasso_objective)

CFG = OpticalConfig(90e-6, 16, 15e-6)
SLIT = SlitGeometry(6e-5, 1.5e-4, 1.2e-4)
# Large enough that tau = 1e-3 leaves the program nearly unregularised, as on
# the canonical bench, where GPSR meets the default KKT rule within ~100 steps.
SLIT_CFG = OpticalConfig(100e-6, 48, 15e-6)


def sparse_instance(seed, m=50, n=200, k=10):
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((m, n))
    truth = np.zeros(n)
    truth[rng.choice(n, k, replace=False)] = rng.standard_normal(k)
    return SensingSystem.from_arrays(design, design @ truth), truth


def synthetic_measurements(rng, m, grid_n, truth):
    intensities = rng.uniform(0.5, 1.5, size=(m, grid_n, grid_n))
    buckets = [float(np.sum(intensity * truth)) for intensity in intensities]
    return MeasurementSet(intensities, buckets)


def dense_operator(system):
    """A = (rows - col_mean) / col_scale, formed explicitly."""
    return (system.rows - system.col_mean) / system.col_scale


class TestBuildSensing:
    def test_centered_columns_have_zero_mean(self):
        ms = run_campaign(CFG, optics.make_double_slit(CFG, SLIT), 12, 3)
        system = build_sensing(ms)
        column_means = system.rmatvec(np.ones(ms.m)) / ms.m
        assert np.max(np.abs(column_means)) <= 1e-12
        assert abs(system.rhs.mean()) <= 1e-9 * abs(np.mean(ms.buckets))

    def test_forward_consistency_noiseless(self):
        # for the true mask t, the centered, scaled system satisfies
        # A @ (col_scale * t) = rhs
        mask = optics.make_double_slit(CFG, SLIT)
        ms = run_campaign(CFG, mask, 10, 5)
        system = build_sensing(ms)
        predicted = system.matvec(system.col_scale * mask.values.ravel())
        assert np.allclose(predicted, system.rhs, rtol=1e-12)

    def test_uncentering_and_unscaling_reproduce_original(self):
        ms = run_campaign(CFG, optics.make_double_slit(CFG, SLIT), 9, 7)
        system = build_sensing(ms)
        original = ms.intensities.reshape(ms.m, -1)
        operator = np.array([system.rmatvec(e) for e in np.eye(ms.m)])
        restored = operator * system.col_scale + original.mean(axis=0)
        assert np.allclose(restored, original, rtol=1e-12, atol=1e-15)
        assert np.allclose(system.rhs + np.mean(ms.buckets), ms.buckets, rtol=1e-12)

    def test_columns_have_unit_rms(self, monkeypatch):
        # blocks of 68 pixel rows: 256 pixels make three full blocks and a short one
        monkeypatch.setattr(recon_gics, "_BLOCK_BYTES", 4 * CFG.grid_n**2 * 8)
        ms = run_campaign(CFG, optics.make_double_slit(CFG, SLIT), 15, 8)
        rms = np.sqrt(np.mean(dense_operator(build_sensing(ms)) ** 2, axis=0))
        assert np.allclose(rms, 1.0, rtol=1e-12)

    def test_operator_matches_dense_matrix(self):
        ms = run_campaign(CFG, optics.make_double_slit(CFG, SLIT), 11, 4)
        system = build_sensing(ms)
        dense = dense_operator(system)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(system.n_pix)
        r = rng.standard_normal(system.m)
        assert np.max(np.abs(system.matvec(x) - dense @ x)) <= 1e-12 * np.max(np.abs(dense @ x))
        assert np.max(np.abs(system.rmatvec(r) - dense.T @ r)) <= 1e-12 * np.max(
            np.abs(dense.T @ r))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.5, 1.5, (7, 13))
        system = SensingSystem(rows, np.zeros(7), rng.uniform(0.1, 3.0, 13),
                               rows.mean(axis=0))
        x = rng.standard_normal(13)
        r = rng.standard_normal(7)
        bound = np.abs(r) @ np.abs(dense_operator(system)) @ np.abs(x)
        assert abs(system.matvec(x) @ r - x @ system.rmatvec(r)) <= 1e-12 * bound

    def test_rows_are_the_campaign_stack(self):
        ms = run_campaign(CFG, optics.make_double_slit(CFG, SLIT), 5, 2)
        system = build_sensing(ms)
        assert np.shares_memory(system.rows, ms.intensities)
        assert system.rows.shape == (ms.m, CFG.grid_n**2)
        assert not system.rows.flags.writeable

    def test_read_only_rows_made_writeable_do_not_leak(self):
        rows = np.ones((3, 4))
        rows.flags.writeable = False
        system = SensingSystem(rows, np.zeros(3), np.ones(4), np.zeros(4))
        rows.flags.writeable = True
        rows[0, 0] = np.nan
        assert np.isfinite(system.rows).all()

    def test_dead_pixel_scale_left_at_one(self):
        rng = np.random.default_rng(0)
        intensities = rng.uniform(0.5, 1.5, (6, 16, 16))
        intensities[:, 3, 4] = 0.5  # constant column (binary-exact): zero variance after centering
        ms = MeasurementSet(intensities, [float(v.sum()) for v in intensities])
        with pytest.warns(UserWarning, match="zero-variance"):
            system = build_sensing(ms)
        dead_col = 3 * 16 + 4
        assert system.col_scale[dead_col] == 1.0

    def test_validation(self):
        ones = np.ones(4)
        with pytest.raises(ConfigError):
            SensingSystem(np.ones((3, 4)), np.ones(2), ones, ones)
        with pytest.raises(ConfigError):
            SensingSystem(np.ones((3, 4)), np.ones(3), np.zeros(4), ones)
        with pytest.raises(ConfigError, match="col_mean"):
            SensingSystem(np.ones((3, 4)), np.ones(3), ones, np.ones(3))
        with pytest.raises(ConfigError, match="non-empty"):
            SensingSystem(np.ones((3, 0)), np.ones(3), np.ones(0), np.ones(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rows", "rhs", "col_scale", "col_mean"])
    def test_non_finite_arrays_rejected(self, name, bad):
        arrays = {"rows": np.ones((3, 4)), "rhs": np.ones(3),
                  "col_scale": np.ones(4), "col_mean": np.zeros(4)}
        arrays[name].flat[1] = bad
        with pytest.raises(ConfigError, match=f"sensing {name} must be finite"):
            SensingSystem(**arrays)

    def test_raw_rows_from_arrays_checked(self):
        with pytest.raises(ConfigError, match="sensing rows must be finite"):
            SensingSystem.from_arrays(np.array([[1.0, np.nan]]), np.ones(1))

    def test_campaign_stack_not_rescanned(self, monkeypatch):
        # run_campaign checked the stack block by block as it was made
        ms = run_campaign(CFG, optics.make_double_slit(CFG, SLIT), 5, 2)
        scanned = []
        monkeypatch.setattr(recon_gics, "_finite_min",
                            lambda arr, what: scanned.append(what) or 0.0)
        build_sensing(ms)
        assert scanned == ["sensing rhs", "sensing col_scale", "sensing col_mean"]

    def test_columns_are_contiguous_pixel_rows(self):
        ms = run_campaign(CFG, optics.make_double_slit(CFG, SLIT), 5, 2)
        system = build_sensing(ms)
        assert system.rows.T.flags.c_contiguous
        assert np.shares_memory(system.rows.T, ms.intensities)

    def test_raw_system_operator_is_the_matrix(self):
        rng = np.random.default_rng(12)
        design = rng.standard_normal((6, 9))
        system = SensingSystem.from_arrays(design, np.ones(6))
        x = rng.standard_normal(9)
        r = rng.standard_normal(6)
        assert np.array_equal(system.matvec(x), design @ x)
        assert np.array_equal(system.rmatvec(r), design.T @ r)


class TestGatheredMatvec:
    M = 40
    CHUNK = 6  # columns per gathered block

    @pytest.fixture
    def system(self, monkeypatch):
        monkeypatch.setattr(recon_gics, "_BLOCK_BYTES", self.CHUNK * self.M * 8)
        return build_sensing(run_campaign(CFG, optics.make_double_slit(CFG, SLIT), self.M, 3))

    @staticmethod
    def sparse_vector(n, size, seed=0):
        rng = np.random.default_rng(seed)
        x = np.zeros(n)
        x[rng.choice(n, size, replace=False)] = rng.standard_normal(size)
        return x

    @pytest.mark.parametrize("size", ["empty", "one", "chunk", "chunk_plus_one", "share",
                                      "full"])
    @pytest.mark.parametrize("share", [None, 1.0], ids=["dispatched", "always_gathered"])
    def test_equals_dense_product(self, system, monkeypatch, size, share):
        n = system.n_pix
        count = {"empty": 0, "one": 1, "chunk": self.CHUNK, "chunk_plus_one": self.CHUNK + 1,
                 "share": int(recon_gics._GATHER_SHARE * n), "full": n}[size]
        if share is not None:
            monkeypatch.setattr(recon_gics, "_GATHER_SHARE", share)
        x = self.sparse_vector(n, count)
        expected = dense_operator(system) @ x
        scale = max(np.abs(dense_operator(system)) @ np.abs(x)) or 1.0
        assert np.max(np.abs(system.matvec(x) - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("size", [3, 200])
    def test_adjoint_identity_on_a_campaign_system(self, system, size):
        x = self.sparse_vector(system.n_pix, size, seed=size)
        r = np.random.default_rng(4).standard_normal(system.m)
        bound = np.abs(r) @ np.abs(dense_operator(system)) @ np.abs(x)
        assert abs(system.matvec(x) @ r - x @ system.rmatvec(r)) <= 1e-12 * bound

    def test_gathered_peak_memory_is_one_block(self, monkeypatch):
        m, chunk = 200, 8
        monkeypatch.setattr(recon_gics, "_BLOCK_BYTES", chunk * m * 8)
        system = build_sensing(run_campaign(CFG, optics.make_double_slit(CFG, SLIT), m, 3))
        x = self.sparse_vector(system.n_pix, 60)  # 60 columns: 96 kB if gathered at once
        tracemalloc.start()
        try:
            system.matvec(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < recon_gics._BLOCK_BYTES + 4 * 8 * (m + system.n_pix)


class TestGicsParams:
    @pytest.mark.parametrize("bad", [2.5, True, "3", None, 0, -1, 3.0],
                             ids=["fraction", "bool", "str", "none", "zero", "negative", "float"])
    def test_bad_max_iters_rejected(self, bad):
        with pytest.raises(ConfigError, match="max_iters must be a positive integer"):
            GicsParams(max_iters=bad)

    @pytest.mark.parametrize("bad", [True, "1", None, 1j, -1.0, np.nan, np.inf],
                             ids=["bool", "str", "none", "complex", "negative", "nan", "inf"])
    def test_bad_tau_rejected(self, bad):
        with pytest.raises(ConfigError, match="tau must be a finite non-negative number"):
            GicsParams(tau=bad)

    @pytest.mark.parametrize("tau,max_iters", [(0, 1), (np.float64(2.5), np.int64(7)),
                                               (np.float32(1e-3), 2000), (Fraction(1, 2), 3)])
    def test_real_tau_and_integer_cap_accepted(self, tau, max_iters):
        params = GicsParams(tau=tau, max_iters=max_iters)
        assert (params.tau, params.max_iters) == (tau, max_iters)


class TestGpsr:
    def test_large_tau_gives_exact_zero(self):
        system, _ = sparse_instance(1)
        threshold = float(np.abs(system.rmatvec(system.rhs)).max())
        x, report = gpsr_solve(system, GicsParams(tau=threshold))
        assert not x.any()
        assert report.converged

    @pytest.mark.usefixtures("exact_solve")
    def test_tau_zero_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        design = rng.standard_normal((20, 5))
        rhs = design @ rng.standard_normal(5) + 0.1 * rng.standard_normal(20)
        system = SensingSystem.from_arrays(design, rhs)
        expected = np.linalg.solve(design.T @ design, design.T @ rhs)
        x, report = gpsr_solve(system, GicsParams(tau=0.0, max_iters=20000))
        assert np.linalg.norm(x - expected) / np.linalg.norm(expected) <= 1e-6
        assert report.converged

    @pytest.mark.usefixtures("exact_solve")
    def test_agrees_with_ista_oracle(self):
        for seed in (3, 4, 5):
            system, _ = sparse_instance(seed)
            tau = 0.01 * float(np.abs(system.rmatvec(system.rhs)).max())
            x_g, _ = gpsr_solve(system, GicsParams(tau=tau, max_iters=20000))
            x_i = ista_reference(system, tau, kkt_tol=1e-8)
            f_g = lasso_objective(system, x_g, tau)
            f_i = lasso_objective(system, x_i, tau)
            assert abs(f_g - f_i) <= 1e-6 * f_i

    @pytest.mark.usefixtures("exact_solve")
    def test_kkt_optimality_of_accepted_solutions(self):
        system, _ = sparse_instance(6)
        scale = float(np.abs(system.rmatvec(system.rhs)).max())
        _, report = gpsr_solve(system, GicsParams(tau=0.01 * scale, max_iters=20000))
        assert report.converged
        assert report.kkt_residual <= 1e-6 * scale

    def test_objective_never_exceeds_origin_value(self):
        for seed, tau_rel in ((7, 0.0), (8, 0.01), (9, 0.3)):
            system, _ = sparse_instance(seed)
            tau = tau_rel * float(np.abs(system.rmatvec(system.rhs)).max())
            _, report = gpsr_solve(system, GicsParams(tau=tau))
            origin = 0.5 * float(system.rhs @ system.rhs)
            assert report.history[-1][1] <= origin * (1 + 1e-12)

    @pytest.mark.parametrize("c", [2.0, 3.7, 0.25])
    def test_scaling_equivariance(self, c):
        system, _ = sparse_instance(10, m=30, n=60, k=6)
        tau = 0.02 * float(np.abs(system.rmatvec(system.rhs)).max())
        x1, _ = gpsr_solve(system, GicsParams(tau=tau))
        scaled = SensingSystem.from_arrays(c * system.rows, c * system.rhs)
        x2, _ = gpsr_solve(scaled, GicsParams(tau=c * c * tau))
        denom = max(np.max(np.abs(x1)), 1e-300)
        assert np.max(np.abs(x1 - x2)) / denom <= 1e-8

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError):
            GicsParams(tau=-1.0)

    def test_history_matches_report(self):
        system, _ = sparse_instance(13)
        tau = 0.05 * float(np.abs(system.rmatvec(system.rhs)).max())
        _, report = gpsr_solve(system, GicsParams(tau=tau))
        assert report.history[0][0] == 0
        assert report.history[-1][0] == report.iterations
        assert report.kkt_residual == report.history[-1][2]
        objectives = [row[1] for row in report.history]
        assert all(a >= b - 1e-12 * abs(a) for a, b in zip(objectives, objectives[1:]))


class TestKktStop:
    @pytest.fixture(scope="class")
    def slit_system(self):
        mask = optics.make_double_slit(SLIT_CFG, SlitGeometry(1e-4, 240e-6, 2e-4))
        return build_sensing(run_campaign(SLIT_CFG, mask, 60, 1))

    def test_default_converges_on_kkt_residual(self, slit_system):
        params = GicsParams(tau=1e-3)
        _, report = gpsr_solve(slit_system, params)
        atb_inf = float(np.abs(slit_system.rmatvec(slit_system.rhs)).max())
        assert report.atb_inf == atb_inf
        assert report.converged
        assert report.iterations < params.max_iters
        assert report.kkt_residual <= recon_gics._KKT_REL_TOL * atb_inf

    def test_kkt_rule_only_truncates_the_trajectory(self, slit_system, monkeypatch):
        params = GicsParams(tau=1e-3)
        _, stopped = gpsr_solve(slit_system, params)
        monkeypatch.setattr(recon_gics, "_KKT_REL_TOL", 0.0)
        _, full = gpsr_solve(slit_system, params)
        assert len(stopped.history) < len(full.history)
        assert full.history[:len(stopped.history)] == stopped.history


def gaussian_30x80_k5():
    """A 30 x 80 standard-Gaussian design with 5 non-zeros in its truth, seed 42."""
    rng = np.random.default_rng(42)
    design = rng.standard_normal((30, 80))
    truth = np.zeros(80)
    truth[rng.choice(80, 5, replace=False)] = rng.standard_normal(5)
    return SensingSystem.from_arrays(design, design @ truth)


class TestConvergedIsTheKktRule:
    """A report is converged exactly when its last iterate meets the KKT rule."""

    @staticmethod
    def meets_rule(report):
        return report.kkt_residual <= recon_gics._KKT_REL_TOL * report.atb_inf

    # Slow tails: the objective changes by under 1e-8 (relative) per step
    # while the KKT residual is still 5x to 18x above the rule.
    @pytest.mark.parametrize("system,tau_rel", [
        (sparse_instance(13)[0], 0.05),
        (sparse_instance(10, m=30, n=60, k=6)[0], 0.02),
        (gaussian_30x80_k5(), 0.01),
    ], ids=["history", "scaling", "gaussian_30x80_k5"])
    def test_slow_tail_meets_rule_before_cap(self, system, tau_rel):
        tau = tau_rel * float(np.abs(system.rmatvec(system.rhs)).max())
        params = GicsParams(tau=tau)
        _, report = gpsr_solve(system, params)
        assert report.converged == self.meets_rule(report)
        assert report.converged
        assert report.iterations < params.max_iters

    @pytest.mark.parametrize("max_iters", [1, 5, 2000])
    @pytest.mark.parametrize("tau_rel", [0.0, 0.01, 0.3, 1.0])
    def test_every_report_is_the_rule(self, tau_rel, max_iters):
        system, _ = sparse_instance(14)
        tau = tau_rel * float(np.abs(system.rmatvec(system.rhs)).max())
        _, report = gpsr_solve(system, GicsParams(tau=tau, max_iters=max_iters))
        assert report.converged == self.meets_rule(report)


class TestIsta:
    def test_large_tau_returns_zero_immediately(self):
        system, _ = sparse_instance(20)
        threshold = float(np.abs(system.rmatvec(system.rhs)).max())
        x = ista_reference(system, threshold, kkt_tol=1e-12, max_iters=5)
        assert not x.any()

    def test_objective_non_increasing(self):
        system, _ = sparse_instance(21)
        tau = 0.02 * float(np.abs(system.rmatvec(system.rhs)).max())
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ista_reference(system, tau, kkt_tol=1e-8, max_iters=2000,
                           on_iterate=lambda it, x: trace.append(
                               lasso_objective(system, x, tau)))
        assert len(trace) > 50
        assert all(a >= b - 1e-10 * abs(a) for a, b in zip(trace, trace[1:]))

    def test_iteration_cap_warns(self):
        system, _ = sparse_instance(22)
        tau = 0.01 * float(np.abs(system.rmatvec(system.rhs)).max())
        steps = []
        with pytest.warns(UserWarning, match="iteration cap"):
            ista_reference(system, tau, kkt_tol=1e-14, max_iters=3,
                           on_iterate=lambda it, x: steps.append(it))
        assert steps == [0, 1, 2]


class TestKktResidual:
    def test_zero_at_exact_optimum_of_trivial_problem(self):
        # minimize 0.5*(x - 2)^2 + tau*|x|: optimum x = 2 - tau for tau < 2
        design = np.array([[1.0]])
        rhs = np.array([2.0])
        tau = 0.5
        x = np.array([1.5])
        grad = design.T @ (design @ x - rhs)
        assert kkt_residual(x, grad, tau) <= 1e-15

    def test_positive_away_from_optimum(self):
        design = np.array([[1.0]])
        rhs = np.array([2.0])
        x = np.array([1.0])
        grad = design.T @ (design @ x - rhs)
        assert kkt_residual(x, grad, 0.5) == pytest.approx(0.5)

    @given(data=st.data(), tau=st.floats(0.0, 1e3))
    def test_matches_per_entry_loop(self, data, tau):
        finite = st.floats(-1e6, 1e6)
        n = data.draw(st.integers(0, 12))
        x = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0]) | finite,
                                        min_size=n, max_size=n)), dtype=float)
        grad = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)), dtype=float)
        worst = 0.0
        for xi, gi in zip(x, grad):
            if xi > 0:
                worst = max(worst, abs(gi + tau))
            elif xi < 0:
                worst = max(worst, abs(gi - tau))
            else:
                worst = max(worst, abs(gi) - tau)
        assert kkt_residual(x, grad, tau) == worst


class TestGicsReconstruct:
    def test_invertible_system_recovers_truth(self):
        # centering drops the DC mode (rank <= m - 1), so m = 2 * n_pix
        # synthetic frames keep the centered system full column rank
        grid_n = 8
        truth = np.zeros((grid_n, grid_n))
        truth[2, 3], truth[5, 1], truth[6, 6] = 1.0, 0.7, 0.4
        ms = synthetic_measurements(np.random.default_rng(77), 2 * grid_n**2, grid_n, truth)
        system = build_sensing(ms)
        tau = 1e-10 * float(np.abs(system.rmatvec(system.rhs)).max())
        image, report = gics_reconstruct(ms, GicsParams(tau=tau))
        assert report.converged
        assert np.max(np.abs(image - truth)) <= 1e-4

    def test_dead_pixel_reconstructs_to_zero(self):
        grid_n = 8
        truth = np.zeros((grid_n, grid_n))
        truth[2, 3], truth[5, 1] = 1.0, 0.7
        rng = np.random.default_rng(78)
        intensities = rng.uniform(0.5, 1.5, (2 * grid_n**2, grid_n, grid_n))
        intensities[:, 4, 4] = 0.75  # binary-exact constant: zero variance after centering
        buckets = [float(np.sum(intensity * truth)) for intensity in intensities]
        ms = MeasurementSet(intensities, buckets)
        with pytest.warns(UserWarning, match="zero-variance"):
            image, _ = gics_reconstruct(ms, GicsParams(tau=1e-3))
        assert image[4, 4] == 0.0
        assert image[2, 3] > 0.5

    def test_peak_memory_below_one_stack(self):
        ms = synthetic_measurements(np.random.default_rng(79), 200, 32, np.eye(32))
        tracemalloc.start()
        try:
            gics_reconstruct(ms, GicsParams(tau=1e-3, max_iters=20))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ms.intensities.nbytes

    def test_record_without_optics_is_imaged_at_its_frame_grid(self):
        # a recorded experiment's frames and buckets, with no OpticalConfig anywhere
        truth = np.zeros((12, 12))
        truth[3:9, 4] = truth[3:9, 7] = 1.0
        ms = synthetic_measurements(np.random.default_rng(80), 60, 12, truth)
        gi = gi_from_blocks([(ms.intensities, ms.buckets)])
        gics, _ = gics_reconstruct(ms, GicsParams())
        assert gi.shape == gics.shape == (12, 12)

    def test_all_zero_buckets_give_zero_image(self):
        rng = np.random.default_rng(30)
        ms = MeasurementSet(rng.uniform(0.5, 1.5, (10, 16, 16)), np.zeros(10))
        image, _ = gics_reconstruct(ms, GicsParams(tau=1e-3))
        assert not image.any()

    def test_output_is_clamped_nonnegative(self):
        mask = optics.make_double_slit(CFG, SLIT)
        ms = run_campaign(CFG, mask, 40, 2)
        image, report = gics_reconstruct(ms, GicsParams(tau=1e-3, max_iters=200))
        assert image.min() >= 0.0
        assert report.history[-1][1] >= 0.0

    def test_history_objective_bounds_the_lasso_objective(self):
        # the history's objective is the split objective 0.5 ||r||^2 + tau (sum u + sum v),
        # which exceeds that of x = u - v while some pixel has both u and v positive
        system, _ = sparse_instance(0)
        x, report = gpsr_solve(system, GicsParams(tau=1e-3, max_iters=100))
        assert report.history[-1][1] > 1.05 * lasso_objective(system, x, 1e-3)
