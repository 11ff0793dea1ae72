"""Shared fixtures and independent oracles for the test suite."""

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.interpolate import CubicSpline
from scipy.linalg import expm, qr

from lagdelay.analysis import BiasPrediction, markov_mse
from lagdelay.basis import COND_THRESHOLD, BasisConfig, SampledBasis, eval_basis_matrix
from lagdelay.delay_ops import BTB_TOLERANCE, assemble_ab, markov_params
from lagdelay.design import DesignProblem, optimize_design
from lagdelay.errors import DegenerateBError
from lagdelay.estimators import ESTIMATORS, build_replicate_tables, markov_order
from lagdelay.simulate import InputDesign, input_derivative, synthesize_input


def exact_assoc_laguerre(m: int, xi: float) -> float:
    """Shifted-index Laguerre polynomial by the explicit sum in exact
    rational arithmetic; immune to cancellation, usable as oracle for any m."""
    if m == 0:
        return 1.0
    x = Fraction(xi)
    acc = Fraction(0)
    for n in range(1, m + 1):
        acc += Fraction(math.comb(m - 1, n - 1), math.factorial(n)) * (-x) ** n
    return float(acc)


def std_laguerre_table(x: np.ndarray, j_max: int) -> np.ndarray:
    """Standard Laguerre polynomials L_j(x), j = 0..j_max, shape
    (len(x), j_max+1), by the upward recurrence (j+1) L_{j+1} =
    (2j + 1 - x) L_j - j L_{j-1}, written one strided column per function:
    the table ``eval_basis_matrix`` took before its row-per-function one."""
    x = np.asarray(x, dtype=float)
    table = np.empty(x.shape + (j_max + 1,))
    table[..., 0] = 1.0
    if j_max >= 1:
        table[..., 1] = 1.0 - x
    for j in range(1, j_max):
        table[..., j + 1] = ((2 * j + 1 - x) * table[..., j] - j * table[..., j - 1]) / (j + 1)
    return table


def column_basis_matrix(cfg: BasisConfig, t: np.ndarray) -> np.ndarray:
    """``eval_basis_matrix`` on ``std_laguerre_table``, as it was before the
    row-per-function table: the bitwise oracle of the closed-form basis."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    pos = t >= 0
    t = np.where(pos, t, 0.0)
    envelope = np.where(pos, np.sqrt(2.0 * cfg.p) * np.exp(-cfg.p * t), 0.0)
    table = std_laguerre_table(np.where(envelope != 0, 2.0 * cfg.p * t, 0.0), cfg.k_max)
    return envelope[..., None] * table


def numpy_reciprocal_series(input_spec: np.ndarray, size: int) -> np.ndarray:
    """``reciprocal_series`` as it was before its scalar recurrence: forward
    substitution with one ``np.add.reduce`` per coefficient over the whole
    batch, and no u_0 check.  The bitwise oracle of the summation order."""
    u = np.asarray(input_spec, dtype=float)
    v = np.zeros(u.shape[:-1] + (size,))
    v[..., 0] = 1.0 / u[..., 0]
    for n in range(1, size):
        k = min(n, u.shape[-1] - 1)
        acc = np.add.reduce(u[..., 1 : k + 1] * v[..., n - k : n][..., ::-1], axis=-1)
        v[..., n] = -acc / u[..., 0]
    return v


def sequential_reciprocal_series(input_spec: np.ndarray, size: int) -> np.ndarray:
    """``numpy_reciprocal_series`` with each sum taken left to right:
    ``0.0`` plus the last running sum of ``np.cumsum``, which adds one
    product at a time at any length.  The bitwise oracle of the summation
    order past 7 products, where ``np.add.reduce`` turns pairwise."""
    u = np.asarray(input_spec, dtype=float)
    v = np.zeros(u.shape[:-1] + (size,))
    v[..., 0] = 1.0 / u[..., 0]
    for n in range(1, size):
        k = min(n, u.shape[-1] - 1)
        products = u[..., 1 : k + 1] * v[..., n - k : n][..., ::-1]
        acc = 0.0 + np.cumsum(products, axis=-1)[..., -1] if k else 0.0
        v[..., n] = -acc / u[..., 0]
    return v


def where_toeplitz(input_spec: np.ndarray, size: int) -> np.ndarray:
    """``build_toeplitz`` as it was before its cached gather index: the lag
    table rebuilt per call and the upper triangle masked by ``np.where``,
    no u_0 check."""
    u = np.asarray(input_spec, dtype=float)
    col = np.zeros(u.shape[:-1] + (size,))
    n = min(size, u.shape[-1])
    col[..., :n] = u[..., :n]
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    return np.where(lag >= 0, col[..., np.maximum(lag, 0)], 0.0)


def state_space_realization(cfg: BasisConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower-triangular realization (A_c, b_c) of the basis: diagonal -p,
    strictly lower entries -2p, input vector all sqrt(2p).  State j of
    exp(A_c t) b_c equals ell_j(t)."""
    n = cfg.num_funcs
    a_c = np.tril(np.full((n, n), -2.0 * cfg.p), -1) + np.diag(np.full(n, -cfg.p))
    return a_c, np.full(n, np.sqrt(2.0 * cfg.p))


def impulse_invariant(
    a_c: np.ndarray, b_c: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Impulse-invariant discrete pair: A_d = expm(A_c delta), B_d = A_d b_c."""
    a_d = expm(a_c * delta)
    return a_d, a_d @ b_c


def state_space_phi(cfg: BasisConfig, delta: float, n_samples: int) -> np.ndarray:
    """Sampled basis matrix from the impulse-invariant discrete system: rows
    A_d^n b_c, n = 0..n_samples-1, computed by doubling.  Independent of the
    closed form that ``build_phi`` tabulates."""
    a_c, b_c = state_space_realization(cfg)
    a_d, _ = impulse_invariant(a_c, b_c, delta)
    states = b_c[:, None]
    power = a_d
    while states.shape[1] < n_samples:
        states = np.hstack([states, power @ states])
        power = power @ power
    return states[:, :n_samples].T


def state_space_basis(cfg: BasisConfig, delta: float, n_samples: int) -> SampledBasis:
    """``build_phi`` on the state-space matrix: the same thin QR, cond read
    from R and threshold flag (no warning).  Stands in for ``build_phi`` to
    compare a downstream result with the one the state-space Phi gives."""
    matrix = state_space_phi(cfg, delta, n_samples)
    q, r = qr(matrix, mode="economic", check_finite=False)
    cond = float(np.linalg.cond(r))
    return SampledBasis(
        matrix=matrix, cond=cond,
        ill_conditioned=not np.isfinite(cond) or cond > COND_THRESHOLD, q=q, r=r,
    )


def qr_solve_spectrum(z: np.ndarray, phi: SampledBasis) -> np.ndarray:
    """Least-squares spectrum of the samples z by a solve with the stored QR
    factors, R Y = Q^T z, one general LU per dataset and no flag check: the
    route ``proposed`` took before it applied its prebuilt map R^{-1} Q^T."""
    return np.linalg.solve(phi.r, phi.q.T @ z)


def cubic_spline_projection(z: np.ndarray, p: float, num_funcs: int, delta: float) -> np.ndarray:
    """Spline projection by its definition: scipy's not-a-knot CubicSpline
    through the samples, evaluated at composite 6-point Gauss-Legendre nodes
    (one panel per sample interval) and integrated against the basis.  The
    route ``project_spectrum_spline`` took before its projection matrix."""
    nodes, weights = np.polynomial.legendre.leggauss(6)
    t = np.arange(z.size) * delta
    half = delta / 2.0
    at = (t[:-1, None] + half * (nodes[None, :] + 1.0)).ravel()
    values = CubicSpline(t, z)(at) * np.tile(half * weights, z.size - 1)
    return eval_basis_matrix(BasisConfig(p=p, num_funcs=num_funcs), at).T @ values


def quadrature_delay_projection(u: np.ndarray, p: float, tau: float, num_out: int) -> np.ndarray:
    """Projection of the analytically delayed signal with coefficients u at
    Laguerre parameter p onto the basis by adaptive quadrature; independent
    of the Markov-parameter path."""
    cfg_in = BasisConfig(p=p, num_funcs=len(u))
    cfg_out = BasisConfig(p=p, num_funcs=num_out)

    def integrand(s):
        val = eval_basis_matrix(cfg_in, s - tau)[0] @ u
        return val * eval_basis_matrix(cfg_out, s)[0]

    hi = tau + 60.0 / p
    out, _ = quad_vec(integrand, tau, hi, epsabs=1e-13, epsrel=1e-11)
    return out


def delay_spectrum(u: np.ndarray, kappa: float, out_len: int) -> np.ndarray:
    """Spectrum of the delayed signal: causal convolution of the input
    coefficients u with the Markov parameters, truncated to out_len.  The
    forward model that the estimators invert through T(v)."""
    return np.convolve(markov_params(kappa, out_len), u)[:out_len]


def ml_gradient(data, design: InputDesign, tau: float) -> float:
    """d/dtau of ``ml_negloglik`` from the closed-form input derivative: the
    model's derivative w.r.t. tau is -u'(t_n - tau), zero for t_n < tau."""
    model = synthesize_input(design, data.t - tau)
    slope = input_derivative(design, data.t - tau)
    return float(2.0 * data.delta * ((data.z - model) @ slope))


def per_point_ml_bank(design: InputDesign, delta: float, n_samples: int, tau_max: float):
    """The ML scan grid and model bank by their definition, one closed-form
    evaluation of u(t_n - tau_i) per (grid point, sample), a row at a time
    to keep the memory small; the route ``ml_table`` took before it gathered
    the bank from one delta / 4 lattice.  Returns (grid, model)."""
    step = delta / 4.0
    grid = np.arange(0.0, tau_max + step / 2.0, step)
    grid[-1] = min(grid[-1], tau_max)
    t = np.arange(n_samples) * delta
    cfg = design.basis_config
    return grid, np.array([eval_basis_matrix(cfg, t - tau) @ design.u for tau in grid])


def ratio_bias_inputs(
    design: InputDesign, noise_var: float, tau_check: float, k_model: int,
    m_markov: int | None = None,
) -> tuple:
    """(p, tau, h_true, mean, factor) that ``predict_bias_tau`` hands its
    ratio step: the first M Markov parameters at ``tau_check`` and the first
    M rows of ``markov_mse``'s bias and covariance factor."""
    m = markov_order(k_model, m_markov, len(design.u) - 1)
    acc = markov_mse(design, k_model, noise_var, tau_check)
    h_true = markov_params(2.0 * design.p * tau_check, m)
    return design.p, tau_check, h_true, acc.bias_vec[:m], acc.cov_factor[:m]


def full_draw_bias_prediction(
    p: float, tau: float, h_true: np.ndarray, mean: np.ndarray, factor: np.ndarray,
    mc_samples: int = 100_000, seed=0,
) -> tuple[BiasPrediction, dict]:
    """``analysis._ratio_bias`` as it was before its blocked pass: every
    draw at once, the Markov errors formed in full and (E_A, E_B) assembled
    from them by ``assemble_ab``.  Also returns, per averaged field, the mean
    absolute summand: the scale of the rounding error of that average, at
    least the field itself and far above it where the summands cancel."""
    vec_a, vec_b = assemble_ab(h_true)
    btb = float(vec_b @ vec_b)
    if btb < BTB_TOLERANCE:
        raise DegenerateBError("true Markov parameters vanish at tau_check")
    draws = np.random.default_rng(seed).standard_normal((mc_samples, factor.shape[1]))
    err = mean + draws @ factor.T
    err_a, err_b = assemble_ab(err)
    eps1 = err_b @ vec_a + err_a @ vec_b + np.einsum("ij,ij->i", err_b, err_a)
    eps2 = 2.0 * (err_b @ vec_b) + np.einsum("ij,ij->i", err_b, err_b)
    denom = btb + eps2
    predicted = float(np.mean(eps1 / denom) / (2.0 * p) - tau * np.mean(eps2 / denom))
    scales = {
        "predicted_bias": float(
            np.mean(np.abs(eps1 / denom)) / (2.0 * p) + tau * np.mean(np.abs(eps2 / denom))
        ),
        "eps1_mean": float(np.mean(np.abs(eps1))),
        "eps2_mean": float(np.mean(np.abs(eps2))),
    }
    return BiasPrediction(
        predicted_bias=predicted, mc_samples=mc_samples, eps1_mean=float(eps1.mean()),
        eps2_mean=float(eps2.mean()), seed=seed,
    ), scales


def csv_writer_save_dataset(ds, csv_path, extra_meta: dict | None = None) -> None:
    """``save_dataset`` as it was before its one-block write: a
    ``csv.writer`` row per sample, then the JSON sidecar."""
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t", "z"])
        for n in range(ds.n_samples):
            writer.writerow([f"{n * ds.delta:.17g}", f"{ds.z[n]:.17g}"])
    meta = {
        "delta": ds.delta,
        "n_samples": ds.n_samples,
        "noise_var": ds.noise_var,
        "seed": list(ds.seed) if isinstance(ds.seed, (tuple, list)) else ds.seed,
    }
    if ds.true_tau is not None:
        meta["true_tau"] = ds.true_tau
    if extra_meta:
        meta.update(extra_meta)
    with open(csv_path.with_suffix(".json"), "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")


# (N, K, method) at which noise-free data from the committed section 7.2
# design at tau = 1.33e-3 s once gave a delay longer than the record:
# 0.351 s of 0.1497 s, 0.705 s of 0.4998 s and 0.170 s of 0.0897 s
OUT_OF_RECORD = [(500, 12, "proposed"), (1667, 20, "proposed"), (300, 12, "lag_spline")]


def tables_for(design, methods=ESTIMATORS, data=None, *, k_model=12, tau_max=0.01, m_markov=None):
    """``build_replicate_tables`` for ``methods`` at the sampling of
    ``data``, or at the design's own when no data are given."""
    return build_replicate_tables(
        methods, design,
        delta=design.delta if data is None else data.delta,
        n_samples=design.n_samples if data is None else data.n_samples,
        k_model=k_model, tau_max=tau_max, m_markov=m_markov,
    )


def convolution_oracle(u: np.ndarray, h: np.ndarray, out_len: int) -> np.ndarray:
    """Brute-force double sum y_j = sum_k h_{j-k} u_k, independent of both
    the FFT-free convolution path and the Toeplitz matrix path."""
    y = np.zeros(out_len)
    for j in range(out_len):
        for k in range(min(j + 1, u.size)):
            if j - k < h.size:
                y[j] += h[j - k] * u[k]
    return y


@pytest.fixture(scope="session")
def bench_design() -> InputDesign:
    """Hand-built valid design matching the benchmark sampling context."""
    p = 50.0
    u = np.array([0.8, 0.4, -0.4, -0.8])
    return InputDesign(
        p=p, u=u, energy_bound=2.0, horizon=0.5, delta=3e-4, tau_guess=3e-4
    )


@pytest.fixture(scope="session")
def slow_design() -> InputDesign:
    """Lower-rate design used where a coarser grid keeps tests fast."""
    p = 20.0
    u = np.array([1.0, 0.5, -0.5, -1.0])
    return InputDesign(
        p=p, u=u, energy_bound=4.0, horizon=0.5, delta=1e-4, tau_guess=1e-4
    )


@pytest.fixture(scope="session")
def sec72_design() -> InputDesign:
    """Benchmark design: delta 3e-4, horizon 0.5, 13 model functions."""
    problem = DesignProblem(
        delta=3e-4, n_samples=1667, i_order=3, energy_bound=2.0,
        tau_guess=3e-4, noise_var=0.01, k_model=12,
    )
    return optimize_design(problem)
