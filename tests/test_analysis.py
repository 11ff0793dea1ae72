"""Analysis tests: Markov-MSE budget, bias prediction, Monte-Carlo harness."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from lagdelay import analysis, estimators
from lagdelay.analysis import (
    BenchmarkConfig,
    markov_mse,
    predict_bias_tau,
    run_monte_carlo,
)
from lagdelay.basis import DEFAULT_COND_THRESHOLD, BasisConfig, build_phi, eval_basis_matrix
from lagdelay.delay_ops import build_toeplitz, markov_params
from lagdelay.errors import DegenerateBError, IllConditionedError
from lagdelay.estimators import ESTIMATORS, DelayEstimate, build_replicate_tables
from lagdelay.simulate import Dataset, InputDesign, default_tau_max, sample_delayed

from conftest import qr_solve_spectrum, state_space_basis

TAU = 1.33e-3
REF72 = json.loads(
    (Path(__file__).resolve().parents[1] / "lagbench" / "inputs" / "design72_ref.json").read_text()
)


def substitution_markov_mse(design, k_model, noise_var, tau_check):
    """The error budget by forward substitution with T(U): the Markov
    estimate of a simulated noise-free output for the bias, T^{-1}(U) R^{-1}
    for the covariance factor.  Returns (bias, cov_factor, covariance, mse)."""
    n = design.n_samples
    phi = build_phi(BasisConfig(p=design.p, num_funcs=k_model + 1), design.delta, n)
    clean = Dataset(
        z=sample_delayed(design, tau_check, n), delta=design.delta, n_samples=n,
        noise_var=0.0, seed=None,
    )
    y_hat = qr_solve_spectrum(clean.z, phi)
    t_u = build_toeplitz(design.u, k_model + 1)
    h_hat = solve_triangular(t_u, y_hat, lower=True)
    bias = h_hat - markov_params(2.0 * design.p * tau_check, k_model + 1)
    r_inv = solve_triangular(phi.r, np.eye(k_model + 1), lower=False)
    cov_factor = np.sqrt(noise_var) * solve_triangular(t_u, r_inv, lower=True)
    covariance = cov_factor @ cov_factor.T
    return bias, cov_factor, covariance, float(bias @ bias + np.trace(covariance))


class TestMarkovMse:
    def test_mse_is_bias_plus_trace(self, bench_design):
        acc = markov_mse(bench_design, 12, 0.01, TAU)
        expected = acc.bias_vec @ acc.bias_vec + np.trace(acc.covariance)
        assert acc.mse == pytest.approx(expected, rel=1e-10)

    def test_covariance_symmetric_psd(self, bench_design):
        acc = markov_mse(bench_design, 12, 0.01, TAU)
        assert_allclose(acc.covariance, acc.covariance.T, atol=1e-18)
        eigs = np.linalg.eigvalsh(acc.covariance)
        assert eigs.min() > -1e-18

    def test_zero_noise_zero_delay_gives_zero_mse(self, bench_design):
        # tau = 0 keeps the output spectrum inside the model class
        acc = markov_mse(bench_design, 12, 0.0, 0.0)
        assert acc.mse < 1e-20

    def test_bias_grows_with_delta(self, bench_design):
        vals = []
        for delta in [1e-4, 3e-4]:
            d = InputDesign(
                p=bench_design.p,
                u=bench_design.u,
                energy_bound=bench_design.energy_bound,
                horizon=0.5,
                delta=delta,
                tau_guess=delta,
            )
            acc = markov_mse(d, 12, 0.0, TAU)
            vals.append(acc.mse)
            assert acc.mse > 0
        assert vals[0] < vals[1]

    def test_trace_matches_monte_carlo(self, bench_design):
        lam = 0.01
        acc = markov_mse(bench_design, 12, lam, TAU)
        # oracle: normal-equations route applied to 1e4 noisy replicates
        phi = build_phi(BasisConfig(bench_design.p, 13), bench_design.delta, bench_design.n_samples)
        pinv = np.linalg.solve(phi.matrix.T @ phi.matrix, phi.matrix.T)
        t_u = build_toeplitz(bench_design.u, 13)
        rng = np.random.default_rng(314)
        reps = 10_000
        h_all = np.empty((reps, 13))
        for start in range(0, reps, 1000):
            noise = np.sqrt(lam) * rng.standard_normal((bench_design.n_samples, 1000))
            y_hat = pinv @ noise
            h_all[start : start + 1000] = solve_triangular(t_u, y_hat, lower=True).T
        sample_trace = np.trace(np.cov(h_all.T))
        assert sample_trace == pytest.approx(np.trace(acc.covariance), rel=0.05)

    def test_variance_term_scales_inverse_square(self, bench_design):
        # halving the input amplitude quadruples the covariance term and
        # leaves the deterministic bias unchanged
        half = InputDesign(
            p=bench_design.p,
            u=bench_design.u / 2,
            energy_bound=bench_design.energy_bound,
            horizon=bench_design.horizon,
            delta=bench_design.delta,
            tau_guess=bench_design.tau_guess,
        )
        full = markov_mse(bench_design, 12, 0.01, TAU)
        scaled = markov_mse(half, 12, 0.01, TAU)
        assert np.trace(scaled.covariance) == pytest.approx(4 * np.trace(full.covariance), rel=1e-9)
        assert_allclose(scaled.bias_vec, full.bias_vec, rtol=1e-8, atol=1e-12)


    @pytest.mark.parametrize("k_model", [3, 6, 12])
    @pytest.mark.parametrize("tau", [1e-4, 3e-4, TAU, 5e-3])
    @pytest.mark.parametrize("noise_var", [0.0, 0.01, 1.0])
    def test_matches_substitution_route(self, bench_design, sec72_design, k_model, tau, noise_var):
        for design in (bench_design, sec72_design):
            acc = markov_mse(design, k_model, noise_var, tau)
            bias, cov_factor, covariance, mse = substitution_markov_mse(
                design, k_model, noise_var, tau
            )
            assert np.max(np.abs(acc.bias_vec - bias)) <= 1e-14
            for got, want in ((acc.covariance, covariance), (acc.cov_factor, cov_factor)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            # plus the first-order effect of the bias tolerance on |bias|^2,
            # which dominates where the mse is small (tau = 1e-4, no noise)
            assert abs(acc.mse - mse) <= 1e-12 * mse + 2e-14 * np.sum(np.abs(bias))

    @pytest.mark.parametrize("p", [20.0, REF72["p"], 50.0, 80.0])
    def test_agrees_with_state_space_basis(self, p, monkeypatch):
        # markov_mse and bias-predict of the section 7.2 reference input
        # with the basis built from the state-space oracle; the worst
        # relative differences were 5.8e-13 (mse) and 8.9e-13 (predicted
        # bias), 2.4e-14 and 1.2e-14 at the reference p
        design = InputDesign.from_dict({**REF72, "p": p})

        def run():
            mse = markov_mse(design, 12, 0.01, TAU).mse
            bias = predict_bias_tau(design, 0.01, TAU, 12, mc_samples=20_000, seed=0)
            return mse, bias.predicted_bias

        got = run()
        monkeypatch.setattr(analysis, "build_phi", state_space_basis)
        want = run()
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("noise_var", [-0.01, float("nan"), float("inf")])
    def test_negative_noise_variance_rejected(self, bench_design, noise_var):
        with pytest.raises(ValueError, match="noise_var must be finite and nonnegative"):
            markov_mse(bench_design, 12, noise_var, TAU)

    def test_negative_tau_check_rejected(self, bench_design):
        with pytest.raises(ValueError, match="tau_check must be finite and nonnegative"):
            markov_mse(bench_design, 12, 0.01, -1e-4)

    @pytest.mark.parametrize("tau_check", [float("nan"), float("inf")])
    def test_non_finite_tau_check_rejected(self, bench_design, tau_check):
        # a NaN tau_check once passed the nonnegativity test
        with pytest.raises(ValueError, match="tau_check must be finite and nonnegative"):
            markov_mse(bench_design, 12, 0.01, tau_check)

    def test_flagged_basis_raises(self):
        # p = 0.05 cannot separate 13 functions over 200 samples
        p = 0.05
        design = InputDesign(
            p=p, u=np.array([0.8, 0.4, -0.4, -0.8]), energy_bound=2.0,
            horizon=199 * 3e-4, delta=3e-4, tau_guess=3e-4,
        )
        with pytest.raises(IllConditionedError):
            markov_mse(design, 12, 0.01, TAU)


class TestMarkovErrorModel:
    def test_flagged_basis_raises(self):
        # p = 0.05 cannot separate 13 functions over 200 samples
        with pytest.raises(IllConditionedError) as exc:
            analysis.MarkovErrorModel(0.05, 12, 3e-4, 200, 3e-4, 3)
        assert exc.value.cond > exc.value.threshold == DEFAULT_COND_THRESHOLD

    @pytest.mark.parametrize("delta,n,k_model", [(3e-4, 1667, 12), (1e-4, 5001, 6)])
    def test_solve_within_1e13_of_triangular_solve(self, delta, n, k_model):
        # the projector R^{-1} Q^T D and R^{-1} against the triangular solve
        # that np.linalg.solve replaced, over the usable part of the design
        # optimizer's default p grid
        checked = 0
        for p in np.geomspace(1.0, 200.0, 40):
            try:
                model = analysis.MarkovErrorModel(float(p), k_model, delta, n, 3e-4, 3)
            except IllConditionedError:
                continue
            phi = build_phi(BasisConfig(p=float(p), num_funcs=k_model + 1), delta, n)
            delayed = eval_basis_matrix(
                BasisConfig(p=float(p), num_funcs=4), np.arange(n) * delta - 3e-4
            )
            for got, want in [
                (model.projector, solve_triangular(phi.r, phi.q.T @ delayed, lower=False)),
                (model.r_inv, solve_triangular(phi.r, np.eye(k_model + 1), lower=False)),
            ]:
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            checked += 1
        assert checked >= 20


class TestPredictBias:
    def test_zero_noise_no_truncation_is_zero(self, bench_design):
        pred = predict_bias_tau(
            bench_design, 0.0, TAU, 12, mc_samples=2000, include_truncation_bias=False
        )
        assert pred.predicted_bias == 0.0
        assert pred.eps1_mean == 0.0
        assert pred.eps2_mean == 0.0

    def test_reproducible_given_seed(self, bench_design):
        a = predict_bias_tau(bench_design, 0.01, TAU, 12, mc_samples=5000, seed=3)
        b = predict_bias_tau(bench_design, 0.01, TAU, 12, mc_samples=5000, seed=3)
        assert a.predicted_bias == b.predicted_bias
        c = predict_bias_tau(bench_design, 0.01, TAU, 12, mc_samples=5000, seed=4)
        assert c.predicted_bias != a.predicted_bias

    def test_small_noise_approaches_truncation_only_bias(self, bench_design):
        base = predict_bias_tau(bench_design, 0.0, TAU, 12, mc_samples=2000, seed=0)
        gaps = []
        for lam in [1e-3, 1e-5, 1e-7]:
            pred = predict_bias_tau(bench_design, lam, TAU, 12, mc_samples=200_000, seed=0)
            gaps.append(abs(pred.predicted_bias - base.predicted_bias))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_degenerate_b(self, bench_design):
        # kappa = 2 p tau = 150 pushes the Markov energy below the tolerance
        with pytest.raises(DegenerateBError):
            predict_bias_tau(bench_design, 0.01, 1.5, 12, mc_samples=2000)

    def test_prediction_matches_full_pipeline(self, bench_design):
        # the prediction (truncation shift + ratio perturbation) must agree
        # with the bias actually realized by the complete estimator chain
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.01, k_model=12, tau_max=0.01
        )
        stats = run_monte_carlo(cfg, methods=("proposed",), replicates=400, seed=17)
        s = stats.per_method["proposed"]
        se = np.sqrt(s.var / s.n_used)
        pred = predict_bias_tau(bench_design, 0.01, TAU, 12, mc_samples=400_000, seed=1)
        assert abs(pred.predicted_bias - s.bias) <= 3 * se


class TestMonteCarlo:
    def test_zero_noise_zero_variance(self, bench_design):
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.0, k_model=12, tau_max=0.01
        )
        stats = run_monte_carlo(cfg, methods=("proposed", "freq_interp"), replicates=3, seed=0)
        for s in stats.per_method.values():
            assert s.var == 0.0
            assert s.failures == 0

    def test_moment_identity(self, bench_design):
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.01, k_model=12, tau_max=0.01
        )
        stats = run_monte_carlo(cfg, methods=("proposed",), replicates=50, seed=5)
        s = stats.per_method["proposed"]
        n = s.n_used
        assert s.mse_raw == pytest.approx(s.bias**2 + s.var * (n - 1) / n, rel=1e-10)
        assert s.mse_normalized == pytest.approx(
            np.sqrt(bench_design.n_samples) * s.mse_raw, rel=1e-12
        )

    def test_histogram_mass(self, bench_design):
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.01, k_model=12, tau_max=0.01
        )
        stats = run_monte_carlo(cfg, methods=("proposed", "ml"), replicates=40, seed=9)
        for method, s in stats.per_method.items():
            assert stats.histogram[method]["counts"].sum() == stats.replicates - s.failures

    def test_failures_recorded_not_fatal(self, bench_design):
        # delay beyond the horizon yields identically zero data: the
        # Laguerre-domain and correlation methods fail, ML degenerates to
        # the grid origin but still returns
        cfg = BenchmarkConfig(
            design=bench_design,
            true_tau=2 * bench_design.horizon,
            noise_var=0.0,
            k_model=12,
            tau_max=0.01,
        )
        stats = run_monte_carlo(
            cfg, methods=("proposed", "lag_spline", "freq_interp"), replicates=2, seed=0
        )
        for method in ("proposed", "lag_spline", "freq_interp"):
            assert stats.per_method[method].failures == 2
            assert np.isnan(stats.per_method[method].bias)

    def test_single_success_moments(self, bench_design, monkeypatch):
        # only the first replicate's estimate succeeds: bias = v - tau, no
        # spread, MSE = bias^2
        calls = []

        def first_only(data, tables):
            calls.append(1)
            if len(calls) > 1:
                raise DegenerateBError("patched failure")
            return DelayEstimate(method="proposed", tau_hat=2e-3, diagnostics={})

        monkeypatch.setattr(estimators, "estimate_delay_proposed", first_only)
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.01, k_model=12, tau_max=0.01
        )
        stats = run_monte_carlo(cfg, methods=("proposed",), replicates=3, seed=0)
        s = stats.per_method["proposed"]
        assert (s.failures, s.n_used) == (2, 1)
        assert s.bias == 2e-3 - TAU
        assert s.var == 0.0
        assert s.mse_raw == s.bias**2

    def test_workers_bit_identical(self, bench_design):
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.01, k_model=12, tau_max=0.01
        )
        serial = run_monte_carlo(cfg, methods=("proposed", "freq_interp"), replicates=8, seed=21, workers=1)
        parallel = run_monte_carlo(cfg, methods=("proposed", "freq_interp"), replicates=8, seed=21, workers=2)
        for method in ("proposed", "freq_interp"):
            assert np.array_equal(serial.estimates[method], parallel.estimates[method])
            assert serial.per_method[method] == parallel.per_method[method]
            assert np.array_equal(
                serial.histogram[method]["edges"], parallel.histogram[method]["edges"]
            )

    @pytest.mark.parametrize("replicates, workers", [(8, 2), (6, 3)])
    def test_workers_bit_identical_resolved_defaults(self, bench_design, replicates, workers):
        # the pool receives the config itself, with tau_max and n_samples
        # resolved at construction; (6, 3) gives one replicate per chunk
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.01, k_model=12, m_markov=4
        )
        serial = run_monte_carlo(cfg, replicates=replicates, seed=4, workers=1)
        parallel = run_monte_carlo(cfg, replicates=replicates, seed=4, workers=workers)
        for method in ESTIMATORS:
            assert serial.estimates[method].tobytes() == parallel.estimates[method].tobytes()
            assert serial.per_method[method] == parallel.per_method[method]
            for key in ("edges", "counts"):
                assert (
                    serial.histogram[method][key].tobytes()
                    == parallel.histogram[method][key].tobytes()
                )

    def test_tables_built_once_in_process(self, bench_design, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return build_replicate_tables(*args, **kwargs)

        monkeypatch.setattr(analysis, "build_replicate_tables", counting)
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.01, k_model=12, tau_max=0.01
        )
        run_monte_carlo(cfg, methods=("proposed", "ml"), replicates=5, seed=0, workers=1)
        assert len(calls) == 1

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_refused(self, bench_design, workers):
        # once ran serially without a word
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.01, k_model=12, tau_max=0.01
        )
        with pytest.raises(ValueError, match="workers"):
            run_monte_carlo(cfg, methods=("proposed",), replicates=4, seed=0, workers=workers)

    def test_config_defaults_resolved_at_construction(self):
        design = InputDesign.from_dict(REF72)
        cfg = BenchmarkConfig(design=design, true_tau=TAU, noise_var=0.01, k_model=12)
        assert cfg.tau_max == default_tau_max(design)
        assert cfg.n_samples == design.n_samples
        # the dict the config hash of a benchmark report is taken over
        assert cfg.to_dict() == {
            "design": {
                "p": 37.313866137469375,
                "u": [0.9999999999999999, 1.6759090805528649e-13,
                      -1.6759090805528649e-13, -0.9999999999999999],
                "eta": 2.0, "delta": 0.0003, "horizon": 0.49979999999999997,
                "tau_guess": 0.0003,
            },
            "true_tau": 0.00133, "noise_var": 0.01, "k_model": 12, "m_markov": None,
            "tau_max": 0.23249999999999998, "n_samples": 1667,
        }

    def test_config_default_tau_max_follows_n_samples(self):
        design = InputDesign.from_dict(REF72)
        full = BenchmarkConfig(
            design=design, true_tau=TAU, noise_var=0.01, k_model=12, n_samples=design.n_samples
        )
        assert full.tau_max == 0.23249999999999998
        # once the horizon's default, past the 0.1497 s span of 500 samples
        short = BenchmarkConfig(design=design, true_tau=TAU, noise_var=0.01, k_model=12,
                                n_samples=500)
        assert short.tau_max == default_tau_max(design, 500)
        assert short.tau_max <= 499 * design.delta

    def test_replicate_floor(self, bench_design):
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=0.01, k_model=12, tau_max=0.01
        )
        with pytest.raises(ValueError):
            run_monte_carlo(cfg, replicates=1, seed=0)
