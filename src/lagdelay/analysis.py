"""Accuracy analytics: Markov-estimate MSE, delay-bias prediction, and the
seeded Monte-Carlo benchmark harness.

The two-step estimator's accuracy decomposes into a deterministic part
(spectrum truncation plus sampling, evaluated by a noise-free simulation)
and a stochastic part (closed-form covariance of the Markov estimate).  The
delay estimate itself is a ratio of correlated noisy quantities, so its bias
is predicted by Monte-Carlo averaging of the ratio perturbation terms.

The benchmark runs its replicates through one function, over all of them
in-process or over chunks in a process pool, one method at a time over a
block of them; noise streams keyed by (seed, replicate) make the
statistics identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .basis import BasisConfig, build_phi, eval_basis_matrix
from .delay_ops import BTB_TOLERANCE, assemble_ab, inverse_toeplitz, markov_params
from .errors import DegenerateBError, LagDelayError, _require
from .estimators import (
    ESTIMATORS, _block_stage, _check_scan_range, build_replicate_tables, estimate_delay,
    markov_order,
)
from .simulate import (
    InputDesign, _json_int, _json_number, add_noise, default_tau_max, sample_delayed,
)

# Draws of _ratio_bias pushed through the ratio terms at a time; the
# generator fills in C order, so blocks give the stream of one full draw.
_BIAS_BLOCK_ROWS = 8192

# Replicates that _run_replicates estimates one method at a time, with that
# method's tables in cache; the FFT stage holds ~0.1 MB per replicate, and
# blocks of 32 ran no faster than 16
_REPLICATE_BLOCK = 16

# Bins of each method's histogram of estimates in a benchmark report.
_HIST_BINS = 40


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
    var: float
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
    """Everything one replicate needs, minus the noise realization.

    ``n_samples`` and ``tau_max`` left at None are resolved at construction,
    in that order, to ``design.n_samples`` and ``default_tau_max(design,
    n_samples)``.  true_tau and noise_var must be finite and nonnegative,
    K and M pass ``markov_order`` for the design's input order.  N must be
    at least 1 and reach max(K + 1, 4), what the basis and the spline need,
    for every method; these rules run before tau_max is resolved.  tau_max
    then passes the ML scan's rule, tau_max in (0, (N - 1) delta].
    """

    design: InputDesign
    true_tau: float
    noise_var: float
    k_model: int
    m_markov: int | None = None
    tau_max: float | None = None
    n_samples: int | None = None

    def __post_init__(self):
        _require("nonnegative", true_tau=self.true_tau, noise_var=self.noise_var)
        markov_order(self.k_model, self.m_markov, len(self.design.u) - 1)
        if self.n_samples is None:
            object.__setattr__(self, "n_samples", self.design.n_samples)
        # the N rules come first: the tau_max default is read from N, and a
        # default made from too few samples would be refused in its place
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {self.n_samples!r}")
        if self.n_samples < max(self.k_model + 1, 4):
            raise ValueError(
                f"n_samples must be at least max(k_model + 1, 4) = "
                f"{max(self.k_model + 1, 4)}, got {self.n_samples}"
            )
        if self.tau_max is None:
            object.__setattr__(self, "tau_max", default_tau_max(self.design, self.n_samples))
        _check_scan_range(self.tau_max, self.design.delta, self.n_samples)

    def to_dict(self) -> dict:
        return {**vars(self), "design": self.design.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkConfig":
        # besides the fields, the benchmark command reads these keys
        known = {f.name for f in fields(cls)} | {"design_path", "seed", "replicates", "methods"}
        if unknown := sorted(set(d) - known):
            raise ValueError(f"unknown benchmark config key(s) {unknown}")
        return cls(
            design=InputDesign.from_dict(d["design"]),
            true_tau=_json_number(d, "true_tau"),
            noise_var=_json_number(d, "noise_var"),
            k_model=_json_int(d, "k_model"),
            m_markov=None if d.get("m_markov") is None else _json_int(d, "m_markov"),
            tau_max=None if d.get("tau_max") is None else _json_number(d, "tau_max"),
            n_samples=None if d.get("n_samples") is None else _json_int(d, "n_samples"),
        )


class MarkovErrorModel:
    """Error budget of the Markov-parameter estimate at one (p, K, delta, N,
    tau) for inputs of order I; scores a whole batch of inputs at once.

    With the basis factors Phi = QR, the noise-free spectrum estimate of the
    delayed input is linear in u: P u with the projector P = R^{-1} Q^T D, D
    the order-I basis sampled at t_n - tau.  The Markov estimate is
    T^{-1}(U) P u, with covariance noise_var G G^T for G = T^{-1}(U) R^{-1}.
    T^{-1}(U) is applied as T(v) = ``inverse_toeplitz(u, k1)``, v the
    reciprocal power series of u, which the caller passes in: v depends on u
    alone, so one T(v) serves every p.
    R^{-1} comes from ``SampledBasis.r_inv`` and serves both P and G; of the
    basis only it and cond(Phi) are kept.  A flagged basis raises
    IllConditionedError from ``r_inv``.
    """

    def __init__(self, p: float, k_model: int, delta: float, n_samples: int,
                 tau: float, i_order: int):
        k1 = k_model + 1
        phi = build_phi(BasisConfig(p=p, num_funcs=k1), delta, n_samples)
        self.r_inv = phi.r_inv()
        self.cond = phi.cond
        t = np.arange(n_samples) * delta
        delayed = eval_basis_matrix(BasisConfig(p=p, num_funcs=i_order + 1), t - tau)
        self.projector = self.r_inv @ (phi.q.T @ delayed)
        self.h_true = markov_params(2.0 * p * tau, k1)
        self.k1 = k1

    def errors(self, u: np.ndarray, t_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bias of the Markov estimate and the covariance factor
        G = T(v) R^{-1} of each input; u has shape (..., I + 1) and t_inv,
        T(v) = ``inverse_toeplitz(u, k1)``, shape (..., k1, k1)."""
        bias = np.einsum("...ij,...j->...i", t_inv, u @ self.projector.T) - self.h_true
        return bias, t_inv @ self.r_inv

    def mse(self, u: np.ndarray, t_inv: np.ndarray, noise_var: float) -> np.ndarray:
        """Markov-estimate MSE of each input, t_inv as for ``errors``."""
        bias, g = self.errors(u, t_inv)
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
    Both come from one ``MarkovErrorModel``, and ``mse`` is its ``mse``, the
    objective that ``optimize_design`` minimizes.  Raises
    IllConditionedError when the sampled basis is flagged.
    """
    _require("nonnegative", tau_check=tau_check, noise_var=noise_var)
    n = design.n_samples if n_samples is None else n_samples
    model = MarkovErrorModel(design.p, k_model, design.delta, n, tau_check, len(design.u) - 1)
    t_inv = inverse_toeplitz(design.u, model.k1)
    bias_vec, g = model.errors(design.u, t_inv)
    cov_factor = np.sqrt(noise_var) * g
    return MarkovAccuracy(
        bias_vec=bias_vec, covariance=cov_factor @ cov_factor.T,
        mse=float(model.mse(design.u, t_inv, noise_var)), cov_factor=cov_factor,
    )


def predict_bias_tau(
    design: InputDesign,
    noise_var: float,
    tau_check: float,
    k_model: int,
    m_markov: int | None = None,
    mc_samples: int = 100_000,
    seed=0,
) -> BiasPrediction:
    """``_ratio_bias`` at the first M rows of ``markov_mse`` at ``tau_check``."""
    _require("nonnegative", tau_check=tau_check)
    m = markov_order(k_model, m_markov, len(design.u) - 1)
    acc = markov_mse(design, k_model, noise_var, tau_check)
    h_true = markov_params(2.0 * design.p * tau_check, m)
    return _ratio_bias(design.p, tau_check, h_true, acc.bias_vec[:m], acc.cov_factor[:m],
                       mc_samples, seed)


def _ratio_bias(p: float, tau: float, h_true: np.ndarray, mean: np.ndarray,
                factor: np.ndarray, mc_samples: int, seed) -> BiasPrediction:
    """Bias of the delay ratio at the M = ``h_true.size`` true Markov
    parameters, for Markov errors mean + factor X, X one standard normal per
    column of ``factor`` (exact under Gaussian measurement noise; the mean is
    the truncation bias), pushed through the perturbation expansion:

        bias = E[eps1 / (B'B + eps2)] / (2p) - tau * E[eps2 / (B'B + eps2)]

    with eps1 = E_B'A + E_A'B + E_B'E_A and eps2 = 2 E_B'B + E_B'E_B.
    """
    if mc_samples < 1000:
        raise ValueError("need at least 1000 Monte-Carlo samples")
    m = h_true.size
    vec_a, vec_b = assemble_ab(h_true)
    btb = float(vec_b @ vec_b)
    if btb < BTB_TOLERANCE:
        raise DegenerateBError("true Markov parameters vanish at tau_check")
    # [E_A | E_B] is linear in the Markov errors, so each block of draws
    # needs one small product with the stacked map of assemble_ab
    ab_map = np.hstack(assemble_ab(np.eye(m)))
    weights = factor.T @ ab_map
    shift = mean @ ab_map
    rng = np.random.default_rng(seed)
    eps1, eps2 = np.empty(mc_samples), np.empty(mc_samples)
    for lo in range(0, mc_samples, _BIAS_BLOCK_ROWS):
        hi = min(lo + _BIAS_BLOCK_ROWS, mc_samples)
        err = rng.standard_normal((hi - lo, factor.shape[1])) @ weights + shift
        err_a, err_b = err[:, : m - 1], err[:, m - 1 :]
        eps1[lo:hi] = err_b @ vec_a + err_a @ vec_b + np.einsum("ij,ij->i", err_b, err_a)
        eps2[lo:hi] = 2.0 * (err_b @ vec_b) + np.einsum("ij,ij->i", err_b, err_b)
    denom = btb + eps2
    predicted = float(np.mean(eps1 / denom) / (2.0 * p) - tau * np.mean(eps2 / denom))
    return BiasPrediction(
        predicted_bias=predicted, mc_samples=mc_samples, eps1_mean=float(eps1.mean()),
        eps2_mean=float(eps2.mean()), seed=seed,
    )


def _run_replicates(config: BenchmarkConfig, methods: tuple, seed, replicates) -> list[dict]:
    """Each replicate's estimates, in the order of ``replicates``, a failed
    estimate as None.  Per block: one noise draw per replicate, then each
    method over the block: its block stage in one batched pass (the ML scan,
    the ``freq_interp`` FFT stage), then ``estimate_delay`` per row.  The
    clean signal and the tables are built once per call; a method whose
    tables failed to build fails on every replicate."""
    design = config.design
    clean = sample_delayed(design, config.true_tau, config.n_samples)
    tables = build_replicate_tables(
        methods, design, delta=design.delta, n_samples=config.n_samples,
        k_model=config.k_model, tau_max=config.tau_max, m_markov=config.m_markov,
    )
    draw = partial(add_noise, clean, config.noise_var, delta=design.delta,
                   true_tau=config.true_tau)
    results = [{} for _ in replicates]
    for lo in range(0, len(results), _REPLICATE_BLOCK):
        block = [draw((seed, r)) for r in replicates[lo : lo + _REPLICATE_BLOCK]]
        z = np.stack([ds.z for ds in block])
        for method in methods:
            stages = _block_stage(method, z, tables)
            for estimates, ds, stage in zip(results[lo:], block, stages):
                try:
                    estimates[method] = estimate_delay(method, ds, tables, stage).tau_hat
                except LagDelayError:
                    estimates[method] = None
    return results


def run_monte_carlo(
    config: BenchmarkConfig,
    methods=ESTIMATORS,
    replicates: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> McStats:
    """Seeded Monte-Carlo benchmark over independent noise realizations.

    Per-replicate noise comes from a stream keyed by (seed, replicate), so
    results are bit-identical for any worker count.  One worker runs every
    replicate in-process; more split them into ``np.array_split`` chunks that
    a process pool runs, each chunk building its own tables.  Failed
    replicates are excluded from the moments and counted per method.
    """
    if replicates < 2:
        raise ValueError("need at least two replicates")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    methods = tuple(methods)
    run = partial(_run_replicates, config, methods, seed)
    if workers == 1:
        results = run(range(replicates))
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunks = np.array_split(np.arange(replicates), min(workers * 4, replicates))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [
                est for chunk in pool.map(run, [c.tolist() for c in chunks]) for est in chunk
            ]

    per_method = {}
    histogram = {}
    estimates = {}
    for method in methods:
        vals = np.asarray(
            [est[method] for est in results if est[method] is not None], dtype=float
        )
        failures = replicates - vals.size
        estimates[method] = vals
        if vals.size >= 2:
            bias = float(vals.mean() - config.true_tau)
            var = float(vals.var(ddof=1))
            mse_raw = float(np.mean((vals - config.true_tau) ** 2))
        elif vals.size == 1:
            bias = float(vals[0] - config.true_tau)
            var = 0.0
            mse_raw = bias**2
        else:
            bias = var = mse_raw = float("nan")
        per_method[method] = MethodStats(
            bias=bias,
            var=var,
            mse_raw=mse_raw,
            mse_normalized=float(np.sqrt(config.n_samples) * mse_raw),
            failures=failures,
            n_used=int(vals.size),
        )
        if vals.size:
            counts, edges = np.histogram(vals, bins=_HIST_BINS)
        else:
            counts, edges = np.zeros(_HIST_BINS, dtype=int), np.linspace(0, 1, _HIST_BINS + 1)
        histogram[method] = {"edges": edges, "counts": counts}
    return McStats(
        per_method=per_method,
        histogram=histogram,
        replicates=replicates,
        seed=seed,
        true_tau=config.true_tau,
        estimates=estimates,
    )
