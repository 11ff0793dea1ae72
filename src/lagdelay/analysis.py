"""Accuracy analytics: Markov-estimate MSE, delay-bias prediction, and the
seeded Monte-Carlo benchmark harness.

The two-step estimator's accuracy decomposes into a deterministic part
(spectrum truncation plus sampling, evaluated by a noise-free simulation)
and a stochastic part (closed-form covariance of the Markov estimate).  The
delay estimate itself is a ratio of correlated noisy quantities, so its bias
is predicted by Monte-Carlo averaging of the ratio perturbation terms.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .basis import DEFAULT_COND_THRESHOLD, BasisConfig, build_phi
from .delay_ops import (
    BTB_TOLERANCE,
    assemble_ab,
    build_toeplitz,
    markov_params,
)
from .errors import DegenerateBError, LagDelayError
from .estimators import (
    estimate_delay_freq_interp,
    estimate_delay_lag_spline,
    estimate_delay_ml,
    estimate_delay_proposed,
    estimate_spectrum_ls,
)
from .simulate import Dataset, InputDesign, add_noise, default_tau_max, sample_delayed


@dataclass(frozen=True, eq=False)
class MarkovAccuracy:
    """Error budget of the Markov-parameter estimate at a given delay guess."""

    bias_vec: np.ndarray
    covariance: np.ndarray
    mse: float
    cov_factor: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BiasPrediction:
    """Monte-Carlo prediction of the delay estimator's ratio bias."""

    predicted_bias: float
    mc_samples: int
    eps1_mean: float
    eps2_mean: float
    seed: object


@dataclass(frozen=True)
class MethodStats:
    bias: float
    variance: float
    mse_raw: float
    mse_normalized: float
    failures: int
    n_used: int


@dataclass(frozen=True, eq=False)
class McStats:
    """Per-method moments and histograms over seeded replicates."""

    per_method: dict
    histogram: dict
    replicates: int
    seed: object
    true_tau: float
    estimates: dict = field(repr=False)


@dataclass(frozen=True, eq=False)
class BenchmarkConfig:
    """Everything one replicate needs, minus the noise realization."""

    design: InputDesign
    true_tau: float
    noise_var: float
    k_model: int
    m_markov: int | None = None
    tau_max: float | None = None
    n_samples: int | None = None
    hist_bins: int = 40

    def resolved_tau_max(self) -> float:
        return default_tau_max(self.design) if self.tau_max is None else self.tau_max

    def resolved_n_samples(self) -> int:
        return self.design.n_samples if self.n_samples is None else self.n_samples

    def to_dict(self) -> dict:
        return {
            "design": self.design.to_dict(),
            "true_tau": self.true_tau,
            "noise_var": self.noise_var,
            "k_model": self.k_model,
            "m_markov": self.m_markov,
            "tau_max": self.resolved_tau_max(),
            "n_samples": self.resolved_n_samples(),
            "hist_bins": self.hist_bins,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkConfig":
        return cls(
            design=InputDesign.from_dict(d["design"]),
            true_tau=float(d["true_tau"]),
            noise_var=float(d["noise_var"]),
            k_model=int(d["k_model"]),
            m_markov=None if d.get("m_markov") is None else int(d["m_markov"]),
            tau_max=None if d.get("tau_max") is None else float(d["tau_max"]),
            n_samples=None if d.get("n_samples") is None else int(d["n_samples"]),
            hist_bins=int(d.get("hist_bins", 40)),
        )


def markov_mse(
    design: InputDesign,
    k_model: int,
    noise_var: float,
    tau_check: float,
    n_samples: int | None = None,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> MarkovAccuracy:
    """Mean-square error of the Markov-parameter estimate.

    The variance term is the closed-form covariance
    noise_var * T^{-1}(U) (Phi^T Phi)^{-1} T^{-T}(U).  The bias term cannot
    be evaluated in closed form (the spectrum tail is infinite), so it is
    obtained by simulating a noise-free output at ``tau_check``, projecting
    it, solving for the Markov parameters and subtracting the exact ones.
    """
    if tau_check < 0:
        raise ValueError("tau_check must be nonnegative")
    n = design.n_samples if n_samples is None else n_samples
    cfg = BasisConfig(p=design.p, num_funcs=k_model + 1)
    phi = build_phi(cfg, design.delta, n, cond_threshold)
    clean = Dataset(
        z=sample_delayed(design, tau_check, n),
        delta=design.delta,
        n_samples=n,
        noise_var=0.0,
        seed=None,
    )
    y_hat = estimate_spectrum_ls(clean, phi)
    t_u = build_toeplitz(design.u, k_model + 1)
    h_hat = solve_triangular(t_u, y_hat.coeffs, lower=True)
    h_true = markov_params(2.0 * design.p * tau_check, k_model + 1).values
    bias_vec = h_hat - h_true

    r_inv = solve_triangular(phi.r, np.eye(k_model + 1), lower=False)
    g = solve_triangular(t_u, r_inv, lower=True)
    cov_factor = np.sqrt(noise_var) * g
    covariance = cov_factor @ cov_factor.T
    mse = float(bias_vec @ bias_vec + np.trace(covariance))
    return MarkovAccuracy(
        bias_vec=bias_vec, covariance=covariance, mse=mse, cov_factor=cov_factor
    )


def predict_bias_tau(
    design: InputDesign,
    noise_var: float,
    tau_check: float,
    k_model: int,
    m_markov: int | None = None,
    mc_samples: int = 100_000,
    seed=0,
    include_truncation_bias: bool = True,
    n_samples: int | None = None,
) -> BiasPrediction:
    """Predict the delay estimator's bias at a known delay ``tau_check``.

    Markov-estimate errors are drawn from their Gaussian model (exact under
    Gaussian measurement noise and an unbiased spectrum estimate, with the
    deterministic truncation bias as mean shift) and pushed through the
    perturbation expansion of the delay ratio:

        bias = E[eps1 / (B'B + eps2)] / (2p) - tau * E[eps2 / (B'B + eps2)]

    with eps1 = E_B'A + E_A'B + E_B'E_A and eps2 = 2 E_B'B + E_B'E_B.
    """
    if mc_samples < 1000:
        raise ValueError("need at least 1000 Monte-Carlo samples")
    m = k_model + 1 if m_markov is None else m_markov
    if not 3 <= m <= k_model + 1:
        raise ValueError(f"m_markov must lie in [3, {k_model + 1}], got {m}")
    h_true = markov_params(2.0 * design.p * tau_check, k_model + 1).values
    system = assemble_ab(h_true[:m])
    omega, vec_a, vec_b = system.omega, system.vec_a, system.vec_b
    btb = float(vec_b @ vec_b)
    if btb < BTB_TOLERANCE:
        raise DegenerateBError("true Markov parameters vanish at tau_check")

    acc = markov_mse(design, k_model, noise_var, tau_check, n_samples=n_samples)
    mean_shift = acc.bias_vec if include_truncation_bias else np.zeros(k_model + 1)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((mc_samples, k_model + 1))
    err = mean_shift + draws @ acc.cov_factor.T

    err_b = err[:, : m - 1]
    err_a = err_b @ omega.T
    err_a[:, -1] -= (m - 1.0) * err[:, m - 1]
    eps1 = err_b @ vec_a + err_a @ vec_b + np.einsum("ij,ij->i", err_b, err_a)
    eps2 = 2.0 * (err_b @ vec_b) + np.einsum("ij,ij->i", err_b, err_b)
    denom = btb + eps2
    predicted = float(
        np.mean(eps1 / denom) / (2.0 * design.p) - tau_check * np.mean(eps2 / denom)
    )
    return BiasPrediction(
        predicted_bias=predicted,
        mc_samples=mc_samples,
        eps1_mean=float(eps1.mean()),
        eps2_mean=float(eps2.mean()),
        seed=seed,
    )


def _run_single_replicate(context, replicate: int) -> dict:
    """One noise draw, every requested estimator; errors become None."""
    cfg: BenchmarkConfig = context["config"]
    clean = context["clean"]
    ds = add_noise(
        clean,
        cfg.noise_var,
        (context["seed"], replicate),
        delta=cfg.design.delta,
        true_tau=cfg.true_tau,
    )
    out = {}
    for method in context["methods"]:
        try:
            if method == "proposed":
                est = estimate_delay_proposed(
                    ds, cfg.design, cfg.k_model, cfg.m_markov, phi=context["phi"]
                )
            elif method == "ml":
                est = estimate_delay_ml(ds, cfg.design, context["tau_max"])
            elif method == "lag_spline":
                est = estimate_delay_lag_spline(ds, cfg.design, cfg.k_model, cfg.m_markov)
            elif method == "freq_interp":
                est = estimate_delay_freq_interp(ds, cfg.design)
            else:
                raise ValueError(f"unknown method {method!r}")
            out[method] = est.tau_hat
        except LagDelayError:
            out[method] = None
    return out


def _build_context(config: BenchmarkConfig, methods, seed) -> dict:
    n = config.resolved_n_samples()
    phi = None
    if "proposed" in methods:
        phi = build_phi(
            BasisConfig(p=config.design.p, num_funcs=config.k_model + 1),
            config.design.delta,
            n,
        )
    return {
        "config": config,
        "methods": tuple(methods),
        "seed": seed,
        "clean": sample_delayed(config.design, config.true_tau, n),
        "phi": phi,
        "tau_max": config.resolved_tau_max(),
    }


def _worker(payload) -> list[tuple[int, dict]]:
    config = BenchmarkConfig.from_dict(payload["config"])
    context = _build_context(config, payload["methods"], payload["seed"])
    return [(r, _run_single_replicate(context, r)) for r in payload["replicates"]]


def run_monte_carlo(
    config: BenchmarkConfig,
    methods=("proposed", "ml", "lag_spline", "freq_interp"),
    replicates: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> McStats:
    """Seeded Monte-Carlo benchmark over independent noise realizations.

    Per-replicate noise comes from a stream keyed by (seed, replicate), so
    results are bit-identical for any worker count.  Failed replicates are
    excluded from the moments and counted per method.
    """
    if replicates < 2:
        raise ValueError("need at least two replicates")
    methods = tuple(methods)
    results: dict[int, dict] = {}
    if workers <= 1:
        context = _build_context(config, methods, seed)
        for r in range(replicates):
            results[r] = _run_single_replicate(context, r)
    else:
        chunks = np.array_split(np.arange(replicates), min(workers * 4, replicates))
        payloads = [
            {
                "config": config.to_dict(),
                "methods": methods,
                "seed": seed,
                "replicates": chunk.tolist(),
            }
            for chunk in chunks
            if chunk.size
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk_result in pool.map(_worker, payloads):
                for r, vals in chunk_result:
                    results[r] = vals

    n_per_dataset = config.resolved_n_samples()
    per_method = {}
    histogram = {}
    estimates = {}
    for method in methods:
        vals = np.asarray(
            [results[r][method] for r in range(replicates) if results[r][method] is not None],
            dtype=float,
        )
        failures = replicates - vals.size
        estimates[method] = vals
        if vals.size >= 2:
            bias = float(vals.mean() - config.true_tau)
            variance = float(vals.var(ddof=1))
            mse_raw = float(np.mean((vals - config.true_tau) ** 2))
        elif vals.size == 1:
            bias = float(vals[0] - config.true_tau)
            variance = 0.0
            mse_raw = bias**2
        else:
            bias = variance = mse_raw = float("nan")
        per_method[method] = MethodStats(
            bias=bias,
            variance=variance,
            mse_raw=mse_raw,
            mse_normalized=float(np.sqrt(n_per_dataset) * mse_raw),
            failures=failures,
            n_used=int(vals.size),
        )
        if vals.size:
            counts, edges = np.histogram(vals, bins=config.hist_bins)
        else:
            counts, edges = np.zeros(config.hist_bins, dtype=int), np.linspace(0, 1, config.hist_bins + 1)
        histogram[method] = {"edges": edges, "counts": counts}
    return McStats(
        per_method=per_method,
        histogram=histogram,
        replicates=replicates,
        seed=seed,
        true_tau=config.true_tau,
        estimates=estimates,
    )
