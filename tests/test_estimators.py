"""Estimator tests: LS spectrum, Markov solve, all four delay methods, CRLB."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad_vec
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_triangular

from lagdelay import estimators
from lagdelay.analysis import predict_bias_tau
from lagdelay.basis import COND_THRESHOLD, BasisConfig, build_phi, eval_basis_matrix
from lagdelay.cli import _sanitize
from lagdelay.delay_ops import (
    assemble_ab,
    build_toeplitz,
    closed_form_delay,
    markov_params,
    reciprocal_series,
)
from lagdelay.errors import (
    DelayOutOfRangeError,
    FlatCorrelationError,
    IllConditionedError,
    InvalidDatasetError,
    LagDelayError,
    ZeroInformationError,
)
from lagdelay.estimators import (
    ESTIMATORS,
    crlb,
    estimate_delay,
    estimate_delay_freq_interp,
    estimate_delay_lag_spline,
    estimate_delay_ml,
    estimate_delay_proposed,
    estimate_markov,
    estimate_spectrum_ls,
    ml_negloglik,
    ml_table,
    spline_table,
)
from lagdelay.simulate import (
    Dataset,
    InputDesign,
    add_noise,
    make_dataset,
    sample_delayed,
    synthesize_input,
)

from conftest import (
    OUT_OF_RECORD,
    delay_spectrum,
    ml_gradient,
    qr_solve_spectrum,
    state_space_basis,
    tables_for,
)

TAU = 1.33e-3
INPUTS = Path(__file__).resolve().parents[1] / "lagbench" / "inputs"


def golden_section(fn, a: float, b: float, xtol: float = 0.0, rtol: float = 0.0):
    """Golden-section minimum of fn on [a, b]; returns (x, fn(x), evals).

    The search the ML and design refinements used before bounded Brent,
    kept as the oracle.  Stops once b - a <= xtol + rtol * max(|a|, |b|, 1e-12).
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    evals = 2
    while b - a > xtol + rtol * max(abs(a), abs(b), 1e-12):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
        evals += 1
    return (x1, f1, evals) if f1 <= f2 else (x2, f2, evals)


@pytest.fixture(scope="module")
def bench_phi(bench_design):
    return build_phi(BasisConfig(bench_design.p, 13), bench_design.delta, bench_design.n_samples)


@pytest.fixture(scope="module")
def bench_map(bench_design):
    """``proposed``'s spectrum map R^{-1} Q^T at the basis of ``bench_phi``."""
    return tables_for(bench_design, ("proposed",)).spectrum["proposed"]


@pytest.fixture(scope="module")
def wide_design():
    """Long-horizon variant where even K = 25 stays well conditioned."""
    p = 50.0
    u = np.array([0.8, 0.4, -0.4, -0.8])
    return InputDesign(p=p, u=u, energy_bound=2.0, horizon=1.0, delta=3e-4, tau_guess=3e-4)


@pytest.fixture(scope="module")
def sec72_ref():
    """The committed section 7.2 reference design and its tables for every
    method at tau_max = 0.01."""
    design = InputDesign.from_dict(json.loads((INPUTS / "design72_ref.json").read_text()))
    return design, tables_for(design)


@functools.cache
def _sec72_bias(noise_var: float, tau: float):
    """predict_bias_tau on the section 7.2 reference design at 1e4 draws,
    the unscaled side of the scale properties."""
    design = InputDesign.from_dict(json.loads((INPUTS / "design72_ref.json").read_text()))
    return predict_bias_tau(design, noise_var, tau, 12, mc_samples=10_000)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the class of the LagDelayError that it raised."""
    try:
        return fn(*args, **kwargs)
    except LagDelayError as exc:
        return type(exc)


class TestSpectrumLS:
    def test_exact_recovery_in_model_class(self, bench_design, bench_phi, bench_map):
        rng = np.random.default_rng(0)
        y_true = rng.normal(size=13)
        z = bench_phi.matrix @ y_true
        ds = Dataset(z=z, delta=bench_design.delta, n_samples=z.size, noise_var=0.0, seed=0)
        y_hat = estimate_spectrum_ls(ds, bench_map)
        assert_allclose(y_hat, y_true, rtol=1e-10, atol=1e-12)

    def test_matches_normal_equations_oracle(self, bench_design, bench_phi, bench_map):
        ds = make_dataset(bench_design, TAU, 0.01, (8, 0))
        y_hat = estimate_spectrum_ls(ds, bench_map)
        phi = bench_phi.matrix
        oracle = np.linalg.solve(phi.T @ phi, phi.T @ ds.z)
        assert_allclose(y_hat, oracle, rtol=1e-9, atol=1e-12)

    def test_matches_lstsq_oracle(self, bench_design):
        for p in [20.0, 50.0, 120.0]:
            design = InputDesign(
                p=p, u=bench_design.u, energy_bound=2.0,
                horizon=bench_design.horizon, delta=bench_design.delta, tau_guess=3e-4,
            )
            tables = tables_for(design, ("proposed",))
            phi = tables.phi
            for seed in range(3):
                ds = make_dataset(design, TAU, 0.01, (seed, 0))
                y_hat = estimate_spectrum_ls(ds, tables.spectrum["proposed"])
                oracle, *_ = np.linalg.lstsq(phi.matrix, ds.z, rcond=None)
                assert np.linalg.norm(y_hat - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_perturbation_strictly_increases_residual(self, bench_design, bench_phi, bench_map):
        ds = make_dataset(bench_design, TAU, 0.01, (9, 0))
        y_hat = estimate_spectrum_ls(ds, bench_map)
        base = np.linalg.norm(ds.z - bench_phi.matrix @ y_hat)
        rng = np.random.default_rng(1)
        for _ in range(20):
            delta = rng.normal(size=13)
            delta *= 1e-6 / np.linalg.norm(delta)
            perturbed = np.linalg.norm(ds.z - bench_phi.matrix @ (y_hat + delta))
            assert perturbed > base

    def test_noise_free_truncation_bias_nonzero(self, bench_design, bench_map):
        # with a real delay the output spectrum never fits in K coefficients
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        y_hat = estimate_spectrum_ls(ds, bench_map)
        y_ref = np.asarray(
            [synthesize_input(bench_design, float(tn) - TAU) for tn in ds.t]
        )
        # bias exists but is small relative to the spectrum scale
        h_true = markov_params(2 * bench_design.p * TAU, 13)
        y_model = build_toeplitz(bench_design.u, 13) @ h_true
        bias = y_hat - y_model
        assert 0 < np.linalg.norm(bias) < 1e-2 * np.linalg.norm(y_model)
        assert_allclose(ds.z, y_ref, rtol=1e-13, atol=1e-14)

    def test_covariance_and_unbiasedness_monte_carlo(self, bench_design, bench_phi, bench_map):
        lam = 0.01
        reps = 10_000
        h_true = markov_params(2 * bench_design.p * TAU, 13)
        y_true = build_toeplitz(bench_design.u, 13) @ h_true
        clean = bench_phi.matrix @ y_true  # spectrum exactly inside K
        y_samples = np.empty((reps, 13))
        h_samples = np.empty((reps, 13))
        v = reciprocal_series(bench_design.u, 13)
        for r in range(reps):
            ds = add_noise(clean, lam, (77, r), delta=bench_design.delta)
            spec = estimate_spectrum_ls(ds, bench_map)
            y_samples[r] = spec
            h_samples[r] = estimate_markov(spec, v)
        target = lam * np.linalg.inv(bench_phi.matrix.T @ bench_phi.matrix)
        sample_cov = np.cov(y_samples.T)
        assert np.linalg.norm(sample_cov - target) < 0.05 * np.linalg.norm(target)
        # Markov estimate inherits unbiasedness from the spectrum estimate
        h_se = h_samples.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(h_samples.mean(axis=0) - h_true) < 5 * h_se)

    def test_flagged_basis_refused(self, bench_design):
        # R^{-1}, from which proposed's map is built, is refused; p = 2
        # cannot separate 13 functions over the 1667 samples (cond 1.8e15)
        phi = build_phi(BasisConfig(2.0, 13), bench_design.delta, bench_design.n_samples)
        with pytest.raises(IllConditionedError) as exc:
            phi.r_inv()
        assert exc.value.cond == phi.cond and exc.value.threshold == COND_THRESHOLD

    # the worst ratio was 0.90 over 5500 random unflagged bases, 0.71 over
    # 3000 examples of this property steered toward it
    MAP_VS_SOLVE = 4.0

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(1.0, 1000.0),
        p_delta=st.floats(1e-4, 1.0),
        k_model=st.integers(2, 20),
        n_samples=st.integers(21, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=37.31, p_delta=37.31 * 3e-4, k_model=12, n_samples=1667, seed=0)
    def test_map_within_cond_eps_of_qr_solve(self, p, p_delta, k_model, n_samples, seed):
        # L z against the per-dataset solve R y = Q^T z, over unflagged bases
        # of any p, K, delta and N: R^{-1} and the solve are backward stable
        # for R, so the two differ by a multiple of cond(Phi) eps |L| |z|,
        # |L| = |R^{-1}|, the rounding of the length-N product L z included
        delta = p_delta / p
        design = InputDesign(p=p, u=[1.0, -1.0], energy_bound=2.0,
                             horizon=(n_samples - 1) * delta, delta=delta, tau_guess=0.0)
        tables = tables_for(design, ("proposed",), k_model=k_model, tau_max=delta)
        phi = tables.phi
        assume(not phi.ill_conditioned)
        z = np.random.default_rng(seed).normal(size=n_samples)
        ds = Dataset(z=z, delta=delta, n_samples=n_samples, noise_var=1.0, seed=seed)
        got = estimate_spectrum_ls(ds, tables.spectrum["proposed"])
        want = qr_solve_spectrum(z, phi)
        scale = phi.cond * np.finfo(float).eps * np.linalg.norm(phi.r_inv(), 2) * np.linalg.norm(z)
        assert np.linalg.norm(got - want) <= self.MAP_VS_SOLVE * scale


class TestEstimateMarkov:
    def test_exact_triangular_inverse(self, bench_design):
        h = markov_params(0.4, 13)
        y = build_toeplitz(bench_design.u, 13) @ h
        got = estimate_markov(y, reciprocal_series(bench_design.u, 13))
        assert_allclose(got, h, rtol=1e-12, atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(
        u0=st.floats(0.1, 10.0).flatmap(lambda a: st.sampled_from([a, -a])),
        tail=st.lists(st.floats(-10.0, 10.0), max_size=7),
        kappa=st.floats(0.0, 40.0),
        size=st.integers(1, 16),
    )
    @example(u0=1.0, tail=[0.0, 0.0, -1.0], kappa=30.0, size=13)  # the section 7.2 input
    def test_recovers_markov_parameters_of_a_delay(self, u0, tail, kappa, size):
        u = np.array([u0, *tail])
        h = markov_params(kappa, size)
        got = estimate_markov(delay_spectrum(u, kappa, size), reciprocal_series(u, size))
        # the convolution and the forward substitution are componentwise
        # backward stable, so the error is bounded relative to
        # |T(v)| |T(u)| |h| with T(v) = T(u)^-1; the floor covers subnormals
        t_u = build_toeplitz(u, size)
        t_v = build_toeplitz(reciprocal_series(u, size), size)
        scale = np.abs(t_v) @ np.abs(t_u) @ np.abs(h) + np.finfo(float).tiny
        assert np.all(np.abs(got - h) <= 1e-12 * scale)

    def test_identity_input_passes_through(self):
        y = np.array([0.3, -0.1, 0.7])
        got = estimate_markov(y, reciprocal_series(np.array([1.0]), 3))
        assert_allclose(got, y)


class TestProposed:
    def test_noise_free_small_bias(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        est = estimate_delay_proposed(ds, tables_for(bench_design, ("proposed",)))
        assert est.tau_hat == pytest.approx(TAU, abs=5e-5)
        assert est.method == "proposed"
        assert est.diagnostics["y_hat"].shape == (13,)
        assert est.diagnostics["h_hat"].shape == (13,)

    def test_zero_delay(self, bench_design):
        ds = make_dataset(bench_design, 0.0, 0.0, 0)
        est = estimate_delay_proposed(ds, tables_for(bench_design, ("proposed",)))
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
            est = estimate_delay_proposed(ds, tables_for(d, ("proposed",)))
            errs.append(abs(est.tau_hat - TAU))
        assert errs[2] < errs[0]

    def test_sample_count_mismatch(self, bench_design):
        # a dataset of another length than the tables' map is refused
        ds = Dataset(z=np.zeros(10), delta=bench_design.delta, n_samples=10, noise_var=0.0, seed=0)
        with pytest.raises(ValueError, match="dataset has n_samples = 10"):
            estimate_delay("proposed", ds, tables_for(bench_design, ("proposed",)))

    def test_flagged_basis_fails_from_tables(self):
        # at K = 60 the section 7.2 basis has cond(Phi) ~ 1e16: proposed is
        # refused while the tables are built, lag_spline, which needs no
        # least squares, still estimates
        design = InputDesign.from_dict(json.loads((INPUTS / "design72_ref.json").read_text()))
        tables = tables_for(design, ("proposed", "lag_spline"), k_model=60)
        assert tables.phi.ill_conditioned and tables.phi.cond > 1e15
        assert set(tables.errors) == {"proposed"} and set(tables.spectrum) == {"lag_spline"}
        ds = make_dataset(design, TAU, 0.01, (0, 0))
        with pytest.raises(IllConditionedError):
            estimate_delay("proposed", ds, tables)
        assert np.isfinite(estimate_delay("lag_spline", ds, tables).tau_hat)

    def test_model_order_must_cover_input(self, bench_design):
        with pytest.raises(ValueError):
            tables_for(bench_design, ("proposed",), k_model=2)

    def test_seeded_regression(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (42, 0))
        est = estimate_delay_proposed(ds, tables_for(bench_design, ("proposed",)))
        assert est.tau_hat == pytest.approx(0.0013134434430821947, rel=1e-9)

    def test_agrees_with_state_space_substitution_route(self, sec72_ref):
        # oracle: Phi from the state-space realization and the Markov
        # parameters by forward substitution on T(U) H = Y; the worst
        # |dtau| over these replicates was 2.0e-17 s (proposed) and
        # 3.3e-18 s (lag_spline)
        design = sec72_ref[0]
        cfg = BasisConfig(design.p, 13)
        phi = build_phi(cfg, design.delta, design.n_samples)
        oracle_phi = state_space_basis(cfg, design.delta, design.n_samples)
        tables = tables_for(design, ("proposed", "lag_spline"))
        assert tables.phi.matrix.tobytes() == phi.matrix.tobytes()
        t_u = build_toeplitz(design.u, 13)

        def oracle_tau(y_hat):
            h_hat = solve_triangular(t_u, y_hat, lower=True)
            return closed_form_delay(*assemble_ab(h_hat), design.p)

        for r in range(300):
            ds = make_dataset(design, TAU, 0.01, (0, r))
            est = estimate_delay_proposed(ds, tables)
            oracle = oracle_tau(qr_solve_spectrum(ds.z, oracle_phi))
            assert abs(est.tau_hat - oracle) <= 1e-15
            est = estimate_delay_lag_spline(ds, tables)
            assert abs(est.tau_hat - oracle_tau(est.diagnostics["y_hat"])) <= 1e-15


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
        est = estimate_delay_ml(ds, tables_for(bench_design, ("ml",)))
        assert est.tau_hat == pytest.approx(TAU, abs=1e-9)
        assert est.diagnostics["converged"]

    def test_seeded_regression(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (42, 0))
        est = estimate_delay_ml(ds, tables_for(bench_design, ("ml",)))
        assert est.tau_hat == pytest.approx(0.0013242661978195103, rel=1e-9)
        # the golden-section refine with its 1e-10 s bracket gave this value;
        # the negative log-likelihood cannot tell the two apart
        assert abs(est.tau_hat - 0.0013242661834311942) <= 1e-10

    def test_rejects_nonpositive_tau_max(self, bench_design):
        with pytest.raises(ValueError):
            tables_for(bench_design, ("ml",), tau_max=0.0)

    def test_boundary_hit_when_delay_beyond_tau_max(self, sec72_design):
        # without the flag the grid edge reads as a valid estimate
        ds = make_dataset(sec72_design, 5e-3, 0.01, 3)
        est = estimate_delay_ml(ds, tables_for(sec72_design, ("ml",), tau_max=2e-3))
        assert est.tau_hat == 2e-3
        assert est.diagnostics["boundary_hit"] is True
        assert est.diagnostics["converged"] is False

    def test_boundary_hit_at_zero_delay(self, sec72_ref):
        # with the true delay at 0 the likelihood minimum often lies below
        # 0; the search then ends on the first grid point, which must be
        # flagged like the last one (104 of these 200 seeds end at 0.0)
        design, tables = sec72_ref
        ests = [
            estimate_delay_ml(make_dataset(design, 0.0, 1e-2, seed), tables)
            for seed in range(200)
        ]
        clamped = [est for est in ests if est.tau_hat == 0.0]
        assert len(clamped) >= 100
        assert all(est.diagnostics["boundary_hit"] is True for est in clamped)
        assert all(
            est.diagnostics["boundary_hit"] is True
            for est in ests if est.diagnostics["grid_best_tau"] == 0.0
        )

    @pytest.mark.parametrize("tau_max", [np.nan, np.inf, -np.inf, -1e-3, 1e9, 49.5e-3])
    def test_tau_max_outside_data_span_refused(self, bench_design, tau_max):
        # NaN once died in np.arange, 1e9 asked for a 97 TiB model bank;
        # 50 samples at 1 ms span 49 ms
        with pytest.raises(ValueError, match="tau_max"):
            ml_table(bench_design, 1e-3, 50, tau_max)

    def test_tau_max_at_data_span_accepted(self, bench_design):
        table = ml_table(bench_design, 1e-3, 50, 49e-3)
        assert table.grid[-1] == 49e-3 and table.model.shape == (197, 50)

    def test_no_boundary_hit_in_range(self, sec72_design):
        ds = make_dataset(sec72_design, TAU, 0.01, 3)
        est = estimate_delay_ml(ds, tables_for(sec72_design, ("ml",)))
        assert est.diagnostics["boundary_hit"] is False
        assert est.diagnostics["converged"]


class TestMlRefine:
    def test_agrees_with_golden_section_oracle(self, monkeypatch):
        # 200 replicates of the section 7.2 Monte-Carlo configuration; the
        # golden-section refine stopped at a 1e-10 s bracket
        design = InputDesign.from_dict(json.loads((INPUTS / "design72_ref.json").read_text()))
        tables = tables_for(design, ("ml",))
        datasets = [make_dataset(design, TAU, 0.01, (0, r)) for r in range(200)]
        brent = [estimate_delay_ml(ds, tables) for ds in datasets]
        monkeypatch.setattr(
            estimators, "minimize_bounded",
            lambda fn, a, b, xatol: golden_section(fn, a, b, xtol=1e-10),
        )
        for ds, new in zip(datasets, brent):
            old = estimate_delay_ml(ds, tables)
            assert abs(new.tau_hat - old.tau_hat) <= 1e-10
            assert new.diagnostics["refine_evals"] <= 12
            assert new.diagnostics["converged"] and old.diagnostics["converged"]


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

    @pytest.mark.parametrize("noise_var", [np.nan, 0.0, -0.01, np.inf])
    def test_noise_variance_must_be_positive(self, bench_design, noise_var):
        # NaN once gave bound = nan without a word
        with pytest.raises(ValueError, match="noise_var must be finite and positive"):
            crlb(bench_design, TAU, noise_var)

    def test_zero_information(self, bench_design):
        with pytest.raises(ZeroInformationError):
            crlb(bench_design, bench_design.horizon + 1.0, 0.01)


class TestLagSpline:
    def test_noise_free_small_bias(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        est = estimate_delay_lag_spline(ds, tables_for(bench_design, ("lag_spline",)))
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

    def test_projection_error_scales_like_delta_4(self, bench_design):
        # the package's own spline: spline_table's P applied to the smooth
        # undelayed input, against its exact projection over the same data
        # support (ratio 11.3 measured)
        cfg = BasisConfig(bench_design.p, 13)
        maxerr = {}
        for delta, n in [(3e-4, 1667), (1.5e-4, 3333)]:
            span = (n - 1) * delta
            exact, _ = quad_vec(
                lambda s: synthesize_input(bench_design, np.array([s]))[0]
                * eval_basis_matrix(cfg, s)[0],
                0.0, span, epsabs=1e-15, epsrel=1e-13,
            )
            samples = synthesize_input(bench_design, np.arange(n) * delta)
            got = spline_table(cfg.p, cfg.num_funcs, delta, n) @ samples
            maxerr[delta] = np.max(np.abs(got - exact))
        ratio = maxerr[3e-4] / maxerr[1.5e-4]
        assert 8 < ratio < 32  # fourth-order convergence, with slack

    def test_seeded_regression(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (42, 0))
        est = estimate_delay_lag_spline(ds, tables_for(bench_design, ("lag_spline",)))
        assert est.tau_hat == pytest.approx(0.001294002397126887, rel=1e-9)

    def test_needs_four_samples(self, bench_design):
        ds = Dataset(z=np.zeros(3), delta=1e-3, n_samples=3, noise_var=0.0, seed=0)
        with pytest.raises(ValueError):
            tables_for(bench_design, ("lag_spline",), ds, k_model=3)


class TestFreqInterp:
    def test_integer_delay_exact(self, bench_design):
        tau = 4 * bench_design.delta
        ds = make_dataset(bench_design, tau, 0.0, 0)
        est = estimate_delay_freq_interp(ds, tables_for(bench_design, ("freq_interp",), ds))
        assert est.diagnostics["k_star"] == 4
        assert est.tau_hat == pytest.approx(tau, abs=1e-9)

    def test_subsample_delay_within_leakage(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        est = estimate_delay_freq_interp(ds, tables_for(bench_design, ("freq_interp",), ds))
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
            estimate_delay_freq_interp(ds, tables_for(bench_design, ("freq_interp",)))

    def test_constant_data_refused(self, sec72_design):
        # once gave tau_hat = 0.0722 s from a spectrum whose largest bin off
        # DC, 1.8e-11, is 1.4e-17 of the DC bin: FFT rounding only
        n = sec72_design.n_samples
        ds = Dataset(z=np.full(n, 0.5), delta=sec72_design.delta, n_samples=n, noise_var=0.0,
                     seed=0)
        with pytest.raises(FlatCorrelationError):
            estimate_delay("freq_interp", ds, tables_for(sec72_design, ("freq_interp",)))

    def test_seeded_regression(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (42, 0))
        est = estimate_delay_freq_interp(ds, tables_for(bench_design, ("freq_interp",), ds))
        assert est.tau_hat == pytest.approx(0.0013137942309796246, rel=1e-9)

    def test_even_sample_count(self, bench_design):
        # even N puts a Nyquist bin in the spectrum; it must stay excluded
        ds = make_dataset(bench_design, TAU, 0.0, 0, n_samples=1666)
        est = estimate_delay_freq_interp(ds, tables_for(bench_design, ("freq_interp",), ds))
        assert est.tau_hat == pytest.approx(TAU, abs=1e-6)


class TestCrossMethod:
    def test_all_methods_recover_noise_free(self, wide_design):
        ds = make_dataset(wide_design, TAU, 0.0, 0)
        tables = tables_for(wide_design, k_model=25)
        proposed = estimate_delay_proposed(ds, tables)
        ml = estimate_delay_ml(ds, tables)
        spline = estimate_delay_lag_spline(ds, tables)
        freq = estimate_delay_freq_interp(ds, tables)
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
        tables = tables_for(wide_design, k_model=25)
        runners = {
            "proposed": lambda d: estimate_delay_proposed(d, tables),
            "ml": lambda d: estimate_delay_ml(d, tables),
            "lag_spline": lambda d: estimate_delay_lag_spline(d, tables),
            "freq_interp": lambda d: estimate_delay_freq_interp(d, tables),
        }
        for name, run in runners.items():
            base = run(make_dataset(wide_design, TAU, 0.0, 0)).tau_hat
            moved = run(make_dataset(wide_design, TAU + shift, 0.0, 0)).tau_hat
            assert moved - base == pytest.approx(shift, abs=tolerances[name]), name

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 10),
        tau_steps=st.floats(0.0, 4.0),
        noise_var=st.sampled_from([0.0, 1e-4, 1e-2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_integer_shift_property(self, sec72_ref, k, tau_steps, noise_var, seed):
        # data shifted by k samples (k zeros in front, the last k samples
        # dropped) shift the ml estimate by k * delta up to the refine
        # tolerance (worst 2.0e-10 s in 200 draws), and the noise-free
        # freq_interp estimate up to its phase fit (worst 1.55e-7 s); noisy
        # freq_interp is not equivariant, because its circular spectrum
        # wraps the noise tail round (errors up to 1.9e-5 s)
        design, tables = sec72_ref
        delta = design.delta
        data = make_dataset(design, tau_steps * delta, noise_var, seed)
        moved = Dataset(
            z=np.concatenate([np.zeros(k), data.z[:-k]]), delta=delta,
            n_samples=data.n_samples, noise_var=noise_var, seed=seed,
        )
        base = estimate_delay_ml(data, tables)
        # with noise, the ML minimum of a delay near 0 can lie below 0,
        # where the unshifted search stops and the shifted one does not
        assume(noise_var == 0.0 or base.tau_hat >= delta / 4)
        shifted = estimate_delay_ml(moved, tables)
        assert (abs(shifted.tau_hat - base.tau_hat - k * delta)
                <= 10 * estimators.ML_TAU_XATOL_FRACTION * delta)
        if noise_var == 0.0:
            base = estimate_delay_freq_interp(data, tables)
            shifted = estimate_delay_freq_interp(moved, tables)
            assert abs(shifted.tau_hat - base.tau_hat - k * delta) <= 5e-7

    @settings(max_examples=40, deadline=None)
    @given(
        j=st.integers(-20, 20),
        tau=st.floats(0.0, 9e-3),
        noise_var=st.sampled_from([0.0, 1e-2]),
        # drawn apart from tau: a subnormal tau times 4^-1 rounds
        bias_tau=st.sampled_from([3e-4, 1.33e-3, 4e-3, 9e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ml_time_scale_property(self, sec72_ref, j, tau, noise_var, bias_tau, seed):
        # time scaled by a = 4^j: delta, horizon, tau_max and tau_guess by a,
        # p by 1 / a, z by a^(-1/2) and noise_var by 1 / a, all exact in
        # floating point.  Every method's tau_hat / a is its value at a = 1
        # bitwise, or both raise the same error, and so is predict_bias_tau's
        # predicted_bias / a at 1e4 draws.  The ml refine tolerance is a
        # fraction of delta; an absolute 5e-11 s moved ml's tau_hat / a by
        # 9.3e-6 s at a = 4^-10 and by 1.8e-8 s at a = 4^-8
        design, tables = sec72_ref
        data = make_dataset(design, tau, noise_var, seed)
        a = 4.0**j
        scaled = InputDesign(p=design.p / a, u=design.u, energy_bound=design.energy_bound,
                             horizon=design.horizon * a, delta=design.delta * a,
                             tau_guess=design.tau_guess * a)
        moved = Dataset(z=data.z / 2.0**j, delta=data.delta * a, n_samples=data.n_samples,
                        noise_var=noise_var / a, seed=seed)
        scaled_tables = tables_for(scaled, tau_max=0.01 * a)
        for method in ESTIMATORS:
            want = _outcome(estimate_delay, method, data, tables)
            got = _outcome(estimate_delay, method, moved, scaled_tables)
            if isinstance(want, type):
                assert got is want, method
                continue
            assert got.tau_hat / a == want.tau_hat, method
            if method == "ml":
                assert got.diagnostics["converged"] == want.diagnostics["converged"]
                assert got.diagnostics["refine_evals"] == want.diagnostics["refine_evals"]
        got = predict_bias_tau(scaled, noise_var / a, bias_tau * a, 12, mc_samples=10_000)
        assert got.predicted_bias / a == _sec72_bias(noise_var, bias_tau).predicted_bias

    def test_estimate_serialization(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        est = estimate_delay_proposed(ds, tables_for(bench_design, ("proposed",)))
        d = _sanitize(est)
        assert d["method"] == "proposed"
        assert isinstance(d["diagnostics"]["y_hat"], list)
        assert isinstance(d["tau_hat"], float)


class TestAmplitudeScale:
    # Bounds on the move of each output when u and z are scaled by c, and
    # eta and noise_var by c^2.  Worst seen in two runs of 400 draws of c
    # from 1e-30 to 1e30: proposed and lag_spline 4.0e-17 s, freq_interp
    # 5.2e-18 s, ml 3.7e-11 s, predicted_bias 6.8e-18 s.  The bias is not held
    # relative to itself: at tau = 3e-4 without noise it is -7.3e-7 s, a
    # cancellation, and moved by 1.3e-12 of that.
    CLOSED_FORM_ATOL = 1e-15  # s, the golden files' bound on these delays

    @staticmethod
    def ml_atol(tau_hat: float, delta: float) -> float:
        """Two Brent runs on objectives that differ by rounding each stop
        within 2 tol1 of the minimum, tol1 = sqrt(eps) |x| + xatol / 3."""
        xatol = estimators.ML_TAU_XATOL_FRACTION * delta
        return 4.0 * (math.sqrt(2.2e-16) * abs(tau_hat) + xatol / 3.0)

    @settings(max_examples=30, deadline=None)
    @given(
        log_c=st.floats(-30.0, 30.0),
        tau=st.floats(0.0, 9e-3),
        noise_var=st.sampled_from([0.0, 1e-2]),
        bias_tau=st.sampled_from([3e-4, 1.33e-3, 4e-3, 9e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_amplitude_scale_property(self, sec72_ref, log_c, tau, noise_var, bias_tau, seed):
        design, tables = sec72_ref
        c = 10.0**log_c
        scaled = InputDesign(p=design.p, u=c * design.u, energy_bound=c * c * design.energy_bound,
                             horizon=design.horizon, delta=design.delta,
                             tau_guess=design.tau_guess)
        scaled_tables = tables_for(scaled)
        data = make_dataset(design, tau, noise_var, seed)
        # the constant dataset is compared by refusals only: its ml likelihood
        # is flat, and tau_hat moved by 4.5e-10 s between c = 1 and 1e-30
        constant = Dataset(z=np.full(data.n_samples, 0.5), delta=data.delta,
                           n_samples=data.n_samples, noise_var=noise_var, seed=0)
        for ds in (data, constant):
            moved = Dataset(z=c * ds.z, delta=ds.delta, n_samples=ds.n_samples,
                            noise_var=c * c * noise_var, seed=ds.seed)
            for method in ESTIMATORS:
                want = _outcome(estimate_delay, method, ds, tables)
                got = _outcome(estimate_delay, method, moved, scaled_tables)
                if isinstance(want, type) or isinstance(got, type):
                    assert got is want, method
                elif ds is data:
                    tol = (self.ml_atol(want.tau_hat, ds.delta) if method == "ml"
                           else self.CLOSED_FORM_ATOL)
                    assert abs(got.tau_hat - want.tau_hat) <= tol, method
        assert _outcome(estimate_delay, "freq_interp", constant, tables) is FlatCorrelationError
        got = predict_bias_tau(scaled, c * c * noise_var, bias_tau, 12, mc_samples=10_000)
        want = _sec72_bias(noise_var, bias_tau)
        assert abs(got.predicted_bias - want.predicted_bias) <= self.CLOSED_FORM_ATOL


class TestOutOfRecordDelay:
    @pytest.mark.parametrize("n_samples, k_model, method", OUT_OF_RECORD)
    def test_delay_beyond_record_raises(self, sec72_ref, n_samples, k_model, method):
        design = sec72_ref[0]
        ds = make_dataset(design, TAU, 0.0, 0, n_samples)
        tables = tables_for(design, (method,), ds, k_model=k_model)
        with pytest.raises(DelayOutOfRangeError, match="outside the record"):
            estimate_delay(method, ds, tables)

    @pytest.mark.parametrize("method", ["proposed", "lag_spline"])
    @pytest.mark.parametrize("factor, refused", [
        (-1.0, False), (1.0, False), (-1.001, True), (1.001, True), (np.nan, True),
    ])
    def test_only_the_record_span_passes(self, bench_design, monkeypatch, method, factor, refused):
        # the ratio patched to factor * (N - 1) delta
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        tables = tables_for(bench_design, (method,))
        span = (ds.n_samples - 1) * ds.delta
        monkeypatch.setattr(estimators, "closed_form_delay", lambda a, b, p: factor * span)
        if refused:
            with pytest.raises(DelayOutOfRangeError):
                estimate_delay(method, ds, tables)
        else:
            assert estimate_delay(method, ds, tables).tau_hat == factor * span


class TestRegistry:
    def test_dispatch_matches_direct_call(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.01, (4, 2))
        tables = tables_for(bench_design, m_markov=9)
        direct = {
            "proposed": estimate_delay_proposed(ds, tables),
            "ml": estimate_delay_ml(ds, tables),
            "lag_spline": estimate_delay_lag_spline(ds, tables),
            "freq_interp": estimate_delay_freq_interp(ds, tables),
        }
        assert set(direct) == set(ESTIMATORS)
        assert direct["proposed"].diagnostics["m_markov"] == 9
        for method in ESTIMATORS:
            est = estimate_delay(method, ds, tables)
            assert est.method == method
            assert est.tau_hat == direct[method].tau_hat, method

    def test_unknown_method_rejected(self, bench_design):
        ds = make_dataset(bench_design, TAU, 0.0, 0)
        with pytest.raises(ValueError):
            estimate_delay("nope", ds, tables_for(bench_design, ("ml",)))
        with pytest.raises(ValueError, match="unknown method"):
            tables_for(bench_design, ("ml", "nope"))


class TestNonFiniteSamples:
    @pytest.mark.parametrize("method", ["ml", "proposed", "lag_spline"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_one_bad_sample_is_rejected(self, bench_design, method, bad):
        # without the check, ml returns a finite wrong delay and the
        # Laguerre-domain methods a bare ValueError that the Monte-Carlo
        # harness does not catch
        z = make_dataset(bench_design, TAU, 0.01, (6, 0)).z.copy()
        z[500] = bad
        tables = tables_for(bench_design, (method,))
        with pytest.raises(InvalidDatasetError):
            estimate_delay(
                method,
                Dataset(z=z, delta=bench_design.delta, n_samples=z.size, noise_var=0.01, seed=0),
                tables,
            )

    def test_add_noise_rejects_non_finite_signal(self):
        with pytest.raises(InvalidDatasetError):
            add_noise(np.array([0.0, np.nan, 1.0]), 0.1, 0, delta=0.1)
