"""Accuracy analytics: Markov-estimate MSE, delay-bias prediction, and the
seeded Monte-Carlo benchmark harness.

The two-step estimator's accuracy decomposes into a deterministic part
(spectrum truncation plus sampling, evaluated by a noise-free simulation)
and a stochastic part (closed-form covariance of the Markov estimate).  The
delay estimate itself is a ratio of correlated noisy quantities, so its bias
is predicted by Monte-Carlo averaging of the ratio perturbation terms.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .basis import BasisConfig, build_phi, eval_basis_matrix
from .delay_ops import (
    BTB_TOLERANCE,
    assemble_ab,
    build_toeplitz,
    markov_params,
    reciprocal_series,
)
from .errors import DegenerateBError, IllConditionedError, LagDelayError
from .estimators import ESTIMATORS, build_replicate_tables, estimate_delay, markov_order
from .simulate import InputDesign, add_noise, default_tau_max, sample_delayed


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


class MarkovErrorModel:
    """Error budget of the Markov-parameter estimate at one (p, K, delta, N,
    tau) for inputs of order I; scores a whole batch of inputs at once.

    With the basis factors Phi = QR, the noise-free spectrum estimate of the
    delayed input is linear in u: P u with the projector P = R^{-1} Q^T D, D
    the order-I basis sampled at t_n - tau.  The Markov estimate is
    T^{-1}(U) P u, with covariance noise_var G G^T for G = T^{-1}(U) R^{-1}.
    T^{-1}(U) is applied as T(v), v the reciprocal power series of u.  Only
    cond(Phi) and its threshold are kept from the basis, not the basis.
    """

    def __init__(self, p: float, k_model: int, delta: float, n_samples: int,
                 tau: float, i_order: int):
        k1 = k_model + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            phi = build_phi(BasisConfig(p=p, num_funcs=k1), delta, n_samples)
        self.cond = phi.cond
        self.cond_threshold = phi.cond_threshold
        self.usable = not phi.ill_conditioned
        if not self.usable:
            return
        t = np.arange(n_samples) * delta
        delayed = eval_basis_matrix(BasisConfig(p=p, num_funcs=i_order + 1), t - tau)
        self.projector = solve_triangular(phi.r, phi.q.T @ delayed, lower=False)
        self.r_inv = solve_triangular(phi.r, np.eye(k1), lower=False)
        self.h_true = markov_params(2.0 * p * tau, k1).values
        self.k1 = k1

    def errors(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bias of the Markov estimate and the covariance factor
        G = T(v) R^{-1} of each input; u has shape (..., I + 1)."""
        t_inv = build_toeplitz(reciprocal_series(u, self.k1), self.k1)
        bias = np.einsum("...ij,...j->...i", t_inv, u @ self.projector.T) - self.h_true
        return bias, t_inv @ self.r_inv

    def mse(self, u: np.ndarray, noise_var: float) -> np.ndarray:
        """Markov-estimate MSE of each input; u has shape (..., I + 1)."""
        bias, g = self.errors(u)
        return np.einsum("...i,...i->...", bias, bias) + noise_var * np.einsum(
            "...ij,...ij->...", g, g
        )


def markov_mse(
    design: InputDesign,
    k_model: int,
    noise_var: float,
    tau_check: float,
    n_samples: int | None = None,
) -> MarkovAccuracy:
    """Mean-square error of the Markov-parameter estimate.

    The variance term is the closed-form covariance
    noise_var * T^{-1}(U) (Phi^T Phi)^{-1} T^{-T}(U).  The bias term is the
    Markov estimate from the noise-free output at ``tau_check`` minus the
    exact Markov parameters; the spectrum tail beyond K makes it nonzero.
    Both come from one ``MarkovErrorModel``.  Raises IllConditionedError
    when the sampled basis is flagged.
    """
    if tau_check < 0:
        raise ValueError("tau_check must be nonnegative")
    if not noise_var >= 0:  # NaN too
        raise ValueError(f"noise variance must be nonnegative, got {noise_var}")
    n = design.n_samples if n_samples is None else n_samples
    model = MarkovErrorModel(design.p, k_model, design.delta, n, tau_check, len(design.u) - 1)
    if not model.usable:
        raise IllConditionedError(model.cond, model.cond_threshold)
    bias_vec, g = model.errors(design.u.coeffs)
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
    m = markov_order(k_model, m_markov)
    h_true = markov_params(2.0 * design.p * tau_check, k_model + 1).values
    system = assemble_ab(h_true[:m])
    omega, vec_a, vec_b = system.omega, system.vec_a, system.vec_b
    btb = float(vec_b @ vec_b)
    if btb < BTB_TOLERANCE:
        raise DegenerateBError("true Markov parameters vanish at tau_check")

    acc = markov_mse(design, k_model, noise_var, tau_check)
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
            out[method] = estimate_delay(
                method, ds, cfg.design, k_model=cfg.k_model, m_markov=cfg.m_markov,
                tau_max=context["tau_max"], tables=context["tables"],
            ).tau_hat
        except LagDelayError:
            out[method] = None
    return out


def _build_context(config: BenchmarkConfig, methods, seed) -> dict:
    """Everything the replicates share: the clean signal and the estimator
    tables, built once per run (or once per chunk in a worker)."""
    n = config.resolved_n_samples()
    tau_max = config.resolved_tau_max()
    return {
        "config": config,
        "methods": tuple(methods),
        "seed": seed,
        "clean": sample_delayed(config.design, config.true_tau, n),
        "tables": build_replicate_tables(
            methods, config.design, n_samples=n, k_model=config.k_model, tau_max=tau_max
        ),
        "tau_max": tau_max,
    }


def _worker(payload) -> list[tuple[int, dict]]:
    config = BenchmarkConfig.from_dict(payload["config"])
    context = _build_context(config, payload["methods"], payload["seed"])
    return [(r, _run_single_replicate(context, r)) for r in payload["replicates"]]


def run_monte_carlo(
    config: BenchmarkConfig,
    methods=ESTIMATORS,
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
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    methods = tuple(methods)
    results: dict[int, dict] = {}
    if workers == 1:
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
