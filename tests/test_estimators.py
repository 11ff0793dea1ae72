"""Estimator tests: LS spectrum, Markov solve, all four delay methods, CRLB."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import CubicSpline

from lagdelay.basis import BasisConfig, build_phi
from lagdelay.delay_ops import Spectrum, build_toeplitz, markov_params
from lagdelay.errors import (
    FlatCorrelationError,
    IllConditionedError,
    InvalidDatasetError,
    NoImprovementWarning,
    ZeroInformationError,
)
from lagdelay.estimators import (
    ESTIMATORS,
    ReplicateTables,
    crlb,
    estimate_delay,
    estimate_delay_freq_interp,
    estimate_delay_lag_spline,
    estimate_delay_ml,
    estimate_delay_proposed,
    estimate_markov,
    estimate_spectrum_ls,
    ml_gradient,
    ml_negloglik,
    project_spectrum_spline,
)
from lagdelay.simulate import (
    Dataset,
    InputDesign,
    add_noise,
    make_dataset,
    sample_delayed,
    synthesize_input,
)

TAU = 1.33e-3


@pytest.fixture(scope="module")
def bench_phi(bench_design):
    return build_phi(BasisConfig(bench_design.p, 13), bench_design.delta, bench_design.n_samples)


@pytest.fixture(scope="module")
def wide_design():
    """Long-horizon variant where even K = 25 stays well conditioned."""
    p = 50.0
    u = Spectrum(np.array([0.8, 0.4, -0.4, -0.8]), p)
    return InputDesign(p=p, u=u, energy_bound=2.0, horizon=1.0, delta=3e-4, tau_guess=3e-4)


class TestSpectrumLS:
    def test_exact_recovery_in_model_class(self, bench_design, bench_phi):
        rng = np.random.default_rng(0)
        y_true = rng.normal(size=13)
        z = bench_phi.matrix @ y_true
        ds = Dataset(z=z, delta=bench_design.delta, n_samples=z.size, noise_var=0.0, seed=0)
        y_hat = estimate_spectrum_ls(ds, bench_phi)
        assert_allclose(y_hat.coeffs, y_true, rtol=1e-10, atol=1e-12)

    def test_matches_normal_equations_oracle(self, bench_design, bench_phi):
        ds = make_dataset(bench_design, TAU, 0.01, (8, 0))
        y_hat = estimate_spectrum_ls(ds, bench_phi).coeffs
        phi = bench_phi.matrix
        oracle = np.linalg.solve(phi.T @ phi, phi.T @ ds.z)
        assert_allclose(y_hat, oracle, rtol=1e-9, atol=1e-12)

    def test_matches_lstsq_oracle(self, bench_design):
        for p in [20.0, 50.0, 120.0]:
            design = InputDesign(
                p=p, u=Spectrum(bench_design.u.coeffs, p), energy_bound=2.0,
                horizon=bench_design.horizon, delta=bench_design.delta, tau_guess=3e-4,
            )
            phi = build_phi(BasisConfig(p, 13), design.delta, design.n_samples)
            for seed in range(3):
                ds = make_dataset(design, TAU, 0.01, (seed, 0))
                y_hat = estimate_spectrum_ls(ds, phi).coeffs
                oracle, *_ = np.linalg.lstsq(phi.matrix, ds.z, rcond=None)
                assert np.linalg.norm(y_hat - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_perturbation_strictly_increases_residual(self, bench_design, bench_phi):
        ds = make_dataset(bench_design, TAU, 0.01, (9, 0))
        y_hat = estimate_spectrum_ls(ds, bench_phi).coeffs
        base = np.linalg.norm(ds.z - bench_phi.matrix @ y_hat)
        rng = np.random.default_rng(1)
        for _ in range(20):
            delta = rng.normal(size=13)
            delta *= 1e-6 / np.linalg.norm(delta)
            perturbed = np.linalg.norm(ds.z - bench_phi.matrix @ (y_hat + delta))
            assert perturbed > base

    def test_noise_free_truncation_bias_nonzero(self, bench_design, bench_phi):
        # with a real delay the output spectrum never fits in K coefficients
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        y_hat = estimate_spectrum_ls(ds, bench_phi).coeffs
        y_ref = np.asarray(
            [synthesize_input(bench_design, float(tn) - TAU) for tn in ds.t]
        )
        # bias exists but is small relative to the spectrum scale
        h_true = markov_params(2 * bench_design.p * TAU, 13).values
        y_model = build_toeplitz(bench_design.u, 13) @ h_true
        bias = y_hat - y_model
        assert 0 < np.linalg.norm(bias) < 1e-2 * np.linalg.norm(y_model)
        assert_allclose(ds.z, y_ref, rtol=1e-13, atol=1e-14)

    def test_covariance_and_unbiasedness_monte_carlo(self, bench_design, bench_phi):
        lam = 0.01
        reps = 10_000
        h_true = markov_params(2 * bench_design.p * TAU, 13).values
        y_true = build_toeplitz(bench_design.u, 13) @ h_true
        clean = bench_phi.matrix @ y_true  # spectrum exactly inside K
        y_samples = np.empty((reps, 13))
        h_samples = np.empty((reps, 13))
        for r in range(reps):
            ds = add_noise(clean, lam, (77, r), delta=bench_design.delta)
            spec = estimate_spectrum_ls(ds, bench_phi)
            y_samples[r] = spec.coeffs
            h_samples[r] = estimate_markov(spec, bench_design.u)
        target = lam * np.linalg.inv(bench_phi.matrix.T @ bench_phi.matrix)
        sample_cov = np.cov(y_samples.T)
        assert np.linalg.norm(sample_cov - target) < 0.05 * np.linalg.norm(target)
        # Markov estimate inherits unbiasedness from the spectrum estimate
        h_se = h_samples.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(h_samples.mean(axis=0) - h_true) < 5 * h_se)

    def test_sample_count_mismatch(self, bench_design, bench_phi):
        ds = Dataset(z=np.zeros(10), delta=bench_design.delta, n_samples=10, noise_var=0.0, seed=0)
        with pytest.raises(ValueError):
            estimate_spectrum_ls(ds, bench_phi)

    def test_flagged_basis_refused(self, bench_design):
        with pytest.warns(Warning):
            phi = build_phi(
                BasisConfig(bench_design.p, 13),
                bench_design.delta,
                bench_design.n_samples,
                cond_threshold=1.0,
            )
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        with pytest.raises(IllConditionedError):
            estimate_spectrum_ls(ds, phi)


class TestEstimateMarkov:
    def test_exact_triangular_inverse(self, bench_design):
        h = markov_params(0.4, 13).values
        y = Spectrum(build_toeplitz(bench_design.u, 13) @ h, bench_design.p)
        got = estimate_markov(y, bench_design.u)
        assert_allclose(got, h, rtol=1e-12, atol=1e-14)

    def test_identity_input_passes_through(self):
        y = Spectrum(np.array([0.3, -0.1, 0.7]), 1.0)
        got = estimate_markov(y, Spectrum(np.array([1.0]), 1.0))
        assert_allclose(got, y.coeffs)


class TestProposed:
    def test_noise_free_small_bias(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        est = estimate_delay_proposed(ds, bench_design, k_model=12)
        assert est.tau_hat == pytest.approx(TAU, abs=5e-5)
        assert est.method == "proposed"
        assert est.diagnostics["y_hat"].shape == (13,)
        assert est.diagnostics["h_hat"].shape == (13,)

    def test_zero_delay(self, bench_design):
        ds = make_dataset(bench_design, 0.0, 0.0, 0)
        est = estimate_delay_proposed(ds, bench_design, k_model=12)
        assert abs(est.tau_hat) < 1e-12

    def test_bias_shrinks_with_delta(self, bench_design):
        errs = []
        for delta in [3e-4, 1e-4, 3e-5]:
            d = InputDesign(
                p=bench_design.p,
                u=bench_design.u,
                energy_bound=bench_design.energy_bound,
                horizon=0.5,
                delta=delta,
                tau_guess=delta,
            )
            ds = make_dataset(d, TAU, 0.0, 0)
            est = estimate_delay_proposed(ds, d, k_model=12)
            errs.append(abs(est.tau_hat - TAU))
        assert errs[2] < errs[0]

    def test_model_order_must_cover_input(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        with pytest.raises(ValueError):
            estimate_delay_proposed(ds, bench_design, k_model=2)

    def test_seeded_regression(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (42, 0))
        est = estimate_delay_proposed(ds, bench_design, k_model=12)
        assert est.tau_hat == pytest.approx(0.0013134434430821947, rel=1e-9)


class TestML:
    def test_negloglik_zero_at_truth(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        assert ml_negloglik(ds, bench_design, TAU) == 0.0
        assert ml_negloglik(ds, bench_design, TAU + bench_design.delta) > 0
        assert ml_negloglik(ds, bench_design, TAU - bench_design.delta) > 0

    def test_gradient_matches_finite_differences(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (1, 0))
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            tau = float(rng.uniform(0, 0.01))
            frac = tau / ds.delta % 1.0
            if frac < 0.02 or frac > 0.98:
                continue  # too close to a sample-instant kink
            h = 1e-9
            fd = (
                ml_negloglik(ds, bench_design, tau + h)
                - ml_negloglik(ds, bench_design, tau - h)
            ) / (2 * h)
            grad = ml_gradient(ds, bench_design, tau)
            assert grad == pytest.approx(fd, rel=1e-5)
            checked += 1

    def test_noise_free_recovery(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        est = estimate_delay_ml(ds, bench_design, tau_max=0.01)
        assert est.tau_hat == pytest.approx(TAU, abs=1e-9)
        assert est.diagnostics["converged"]

    def test_seeded_regression(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (42, 0))
        est = estimate_delay_ml(ds, bench_design, tau_max=0.01)
        assert est.tau_hat == pytest.approx(0.0013242661834311942, rel=1e-9)

    def test_rejects_nonpositive_tau_max(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        with pytest.raises(ValueError):
            estimate_delay_ml(ds, bench_design, tau_max=0.0)

    def test_boundary_hit_when_delay_beyond_tau_max(self, sec72_design):
        # without the flag the grid edge reads as a valid estimate
        ds = make_dataset(sec72_design, 5e-3, 0.01, 3)
        with pytest.warns(NoImprovementWarning):
            est = estimate_delay_ml(ds, sec72_design, tau_max=2e-3)
        assert est.tau_hat == 2e-3
        assert est.diagnostics["boundary_hit"] is True

    def test_no_boundary_hit_in_range(self, sec72_design):
        ds = make_dataset(sec72_design, TAU, 0.01, 3)
        est = estimate_delay_ml(ds, sec72_design, tau_max=0.01)
        assert est.diagnostics["boundary_hit"] is False
        assert est.diagnostics["converged"]


class TestCrlb:
    def test_linear_in_noise_variance(self, bench_design):
        a = crlb(bench_design, TAU, 0.01)
        b = crlb(bench_design, TAU, 0.02)
        assert b.bound == pytest.approx(2 * a.bound, rel=1e-12)

    def test_halving_delta_roughly_halves_bound(self, bench_design):
        fine = InputDesign(
            p=bench_design.p,
            u=bench_design.u,
            energy_bound=bench_design.energy_bound,
            horizon=bench_design.horizon,
            delta=bench_design.delta / 2,
            tau_guess=bench_design.tau_guess,
        )
        a = crlb(bench_design, TAU, 0.01)
        b = crlb(fine, TAU, 0.01)
        assert b.bound == pytest.approx(a.bound / 2, rel=0.05)

    def test_window_starts_at_delay(self, bench_design):
        rep = crlb(bench_design, TAU, 0.01)
        assert rep.window[0] == int(np.floor(TAU / bench_design.delta))
        assert rep.window[0] <= rep.window[1] < bench_design.n_samples
        assert rep.bound > 0

    def test_zero_information(self, bench_design):
        with pytest.raises(ZeroInformationError):
            crlb(bench_design, bench_design.horizon + 1.0, 0.01)


class TestLagSpline:
    def test_noise_free_small_bias(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        est = estimate_delay_lag_spline(ds, bench_design, k_model=12)
        assert est.tau_hat == pytest.approx(TAU, abs=5e-6)

    def test_spline_interior_error_scales_like_delta_4(self, bench_design):
        maxerr = {}
        for delta in [3e-4, 1.5e-4]:
            d = InputDesign(
                p=bench_design.p,
                u=bench_design.u,
                energy_bound=bench_design.energy_bound,
                horizon=0.5,
                delta=delta,
                tau_guess=delta,
            )
            n = d.n_samples
            y = sample_delayed(d, TAU, n)
            spline = CubicSpline(np.arange(n) * delta, y)
            # interior probe grid, away from the data ends and the kink
            t = np.linspace(0.05, 0.3, 2000)
            err = np.abs(spline(t) - np.asarray(synthesize_input(d, t - TAU)))
            maxerr[delta] = err.max()
        ratio = maxerr[3e-4] / maxerr[1.5e-4]
        assert 8 < ratio < 32  # fourth-order convergence, with slack

    def test_seeded_regression(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (42, 0))
        est = estimate_delay_lag_spline(ds, bench_design, k_model=12)
        assert est.tau_hat == pytest.approx(0.001294002397126887, rel=1e-9)

    def test_needs_four_samples(self, bench_design):
        ds = Dataset(z=np.zeros(3), delta=1e-3, n_samples=3, noise_var=0.0, seed=0)
        with pytest.raises(ValueError):
            project_spectrum_spline(ds, bench_design.p, 4)


class TestFreqInterp:
    def test_integer_delay_exact(self, bench_design):
        tau = 4 * bench_design.delta
        ds = make_dataset(bench_design, tau, 0.0, 0)
        est = estimate_delay_freq_interp(ds, bench_design)
        assert est.diagnostics["k_star"] == 4
        assert est.tau_hat == pytest.approx(tau, abs=1e-9)

    def test_subsample_delay_within_leakage(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        est = estimate_delay_freq_interp(ds, bench_design)
        assert est.tau_hat == pytest.approx(TAU, abs=1e-6)

    def test_flat_correlation_raises(self, bench_design):
        ds = Dataset(
            z=np.zeros(bench_design.n_samples),
            delta=bench_design.delta,
            n_samples=bench_design.n_samples,
            noise_var=0.0,
            seed=0,
        )
        with pytest.raises(FlatCorrelationError):
            estimate_delay_freq_interp(ds, bench_design)

    def test_seeded_regression(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (42, 0))
        est = estimate_delay_freq_interp(ds, bench_design)
        assert est.tau_hat == pytest.approx(0.0013137942309796246, rel=1e-9)

    def test_even_sample_count(self, bench_design):
        # even N puts a Nyquist bin in the spectrum; it must stay excluded
        ds = make_dataset(bench_design, TAU, 0.0, 0, n_samples=1666)
        est = estimate_delay_freq_interp(ds, bench_design)
        assert est.tau_hat == pytest.approx(TAU, abs=1e-6)


class TestCrossMethod:
    def test_all_methods_recover_noise_free(self, wide_design):
        ds = make_dataset(wide_design, TAU, 0.0, 0)
        proposed = estimate_delay_proposed(ds, wide_design, k_model=25)
        ml = estimate_delay_ml(ds, wide_design, tau_max=0.01)
        spline = estimate_delay_lag_spline(ds, wide_design, k_model=25)
        freq = estimate_delay_freq_interp(ds, wide_design)
        assert ml.tau_hat == pytest.approx(TAU, abs=1e-9)
        assert proposed.tau_hat == pytest.approx(TAU, abs=1e-5)
        assert spline.tau_hat == pytest.approx(TAU, abs=5e-6)
        assert freq.tau_hat == pytest.approx(TAU, abs=1e-6)

    def test_integer_shift_equivariance(self, wide_design):
        # shifting the true delay by c*delta shifts every estimate by the
        # same amount; the unbiased methods are exact, the Laguerre-domain
        # methods are limited by the tau-dependence of their own bias
        c = 3
        shift = c * wide_design.delta
        tolerances = {"proposed": 5e-5, "ml": 1e-8, "lag_spline": 1e-6, "freq_interp": 1e-8}
        runners = {
            "proposed": lambda d: estimate_delay_proposed(d, wide_design, 25),
            "ml": lambda d: estimate_delay_ml(d, wide_design, 0.01),
            "lag_spline": lambda d: estimate_delay_lag_spline(d, wide_design, 25),
            "freq_interp": lambda d: estimate_delay_freq_interp(d, wide_design),
        }
        for name, run in runners.items():
            base = run(make_dataset(wide_design, TAU, 0.0, 0)).tau_hat
            moved = run(make_dataset(wide_design, TAU + shift, 0.0, 0)).tau_hat
            assert moved - base == pytest.approx(shift, abs=tolerances[name]), name

    def test_estimate_serialization(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        est = estimate_delay_proposed(ds, bench_design, k_model=12)
        d = est.to_dict()
        assert d["method"] == "proposed"
        assert isinstance(d["diagnostics"]["y_hat"], list)
        assert isinstance(d["tau_hat"], float)


class TestRegistry:
    def test_dispatch_matches_direct_call(self, bench_design, bench_phi):
        ds = make_dataset(bench_design, TAU, 0.01, (4, 2))
        direct = {
            "proposed": estimate_delay_proposed(ds, bench_design, 12, 9, phi=bench_phi),
            "ml": estimate_delay_ml(ds, bench_design, 0.01),
            "lag_spline": estimate_delay_lag_spline(ds, bench_design, 12, 9),
            "freq_interp": estimate_delay_freq_interp(ds, bench_design),
        }
        assert set(direct) == set(ESTIMATORS)
        for method in ESTIMATORS:
            est = estimate_delay(
                method, ds, bench_design, k_model=12, m_markov=9, tau_max=0.01,
                tables=ReplicateTables(phi=bench_phi),
            )
            assert est.method == method
            assert est.tau_hat == direct[method].tau_hat, method

    def test_unknown_method_rejected(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        with pytest.raises(ValueError):
            estimate_delay("nope", ds, bench_design, k_model=12, m_markov=None, tau_max=0.01)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("method", ["ml", "proposed", "lag_spline"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_bad_sample_is_rejected(self, bench_design, method, bad):
        # without the check, ml returns a finite wrong delay and the
        # Laguerre-domain methods a bare ValueError that the Monte-Carlo
        # harness does not catch
        z = make_dataset(bench_design, TAU, 0.01, (6, 0)).z.copy()
        z[500] = bad
        with pytest.raises(InvalidDatasetError):
            estimate_delay(
                method,
                Dataset(z=z, delta=bench_design.delta, n_samples=z.size, noise_var=0.01, seed=0),
                bench_design, k_model=12, m_markov=None, tau_max=0.01,
            )

    def test_add_noise_rejects_non_finite_signal(self):
        with pytest.raises(InvalidDatasetError):
            add_noise(np.array([0.0, np.nan, 1.0]), 0.1, 0, delta=0.1)
