"""Delay estimators and the variance lower bound.

Four estimators share the Dataset/InputDesign interface:

* ``proposed``    -- two-step Laguerre-domain estimator: least-squares output
                     spectrum, triangular Markov-parameter solve, closed-form
                     delay ratio.
* ``ml``          -- time-domain maximum likelihood by grid scan plus
                     golden-section refinement.
* ``lag_spline``  -- baseline: cubic-spline interpolation of the samples,
                     quadrature projection onto the basis, then the same
                     Laguerre-domain delay step.
* ``freq_interp`` -- baseline: integer-lag cross-correlation peak plus
                     power-weighted phase-slope interpolation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_triangular

from .basis import (
    DEFAULT_COND_THRESHOLD,
    BasisConfig,
    SampledBasis,
    build_phi,
    eval_basis_matrix,
)
from .delay_ops import Spectrum, assemble_ab, build_toeplitz, closed_form_delay
from .errors import (
    FlatCorrelationError,
    IllConditionedError,
    NoImprovementWarning,
    ZeroInformationError,
)
from .simulate import Dataset, InputDesign, input_derivative, synthesize_input

GOLDEN_XTOL = 1e-10

# Cross-correlation bins participating in the phase fit must carry at least
# this fraction of the peak spectral amplitude; weaker bins are treated as
# noise-dominated.
FREQ_AMP_THRESHOLD = 0.1


@dataclass(frozen=True, eq=False)
class DelayEstimate:
    """Delay estimate with method tag and method-specific diagnostics."""

    tau_hat: float
    method: str
    diagnostics: dict

    def to_dict(self) -> dict:
        diag = {}
        for key, val in self.diagnostics.items():
            if isinstance(val, np.ndarray):
                diag[key] = val.tolist()
            elif isinstance(val, (np.floating, np.integer)):
                diag[key] = val.item()
            else:
                diag[key] = val
        return {"method": self.method, "tau_hat": self.tau_hat, "diagnostics": diag}


@dataclass(frozen=True)
class CrlbReport:
    """Variance lower bound and the sample-index window that contributes."""

    bound: float
    window: tuple[int, int]


def estimate_spectrum_ls(data: Dataset, phi: SampledBasis) -> Spectrum:
    """Least-squares output spectrum: argmin_Y ||Z - Phi Y||_2.

    Solved with the thin QR factors stored on the basis (never the normal
    equations).  Refuses a basis flagged as ill-conditioned.
    """
    if data.n_samples != phi.n_samples:
        raise ValueError(
            f"dataset has {data.n_samples} samples but basis was built for {phi.n_samples}"
        )
    if phi.ill_conditioned:
        raise IllConditionedError(phi.cond, phi.cond_threshold)
    coeffs = solve_triangular(phi.r, phi.q.T @ data.z, lower=False)
    return Spectrum(coeffs=coeffs, p=phi.p)


def estimate_markov(y_hat: Spectrum, input_spec: Spectrum) -> np.ndarray:
    """Markov parameters from spectra: forward substitution on T(U) H = Y."""
    t_u = build_toeplitz(input_spec, len(y_hat))
    return solve_triangular(t_u, y_hat.coeffs, lower=True)


def estimate_delay_proposed(
    data: Dataset,
    design: InputDesign,
    k_model: int,
    m_markov: int | None = None,
    phi: SampledBasis | None = None,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> DelayEstimate:
    """Two-step Laguerre-domain delay estimate.

    Chains the sampled basis, the least-squares spectrum, the triangular
    Markov solve and the closed-form ratio.  ``m_markov`` defaults to using
    every estimated Markov parameter (K + 1).
    """
    if k_model < len(design.u) - 1:
        raise ValueError("model order must cover the input spectrum length")
    m = k_model + 1 if m_markov is None else m_markov
    if not 3 <= m <= k_model + 1:
        raise ValueError(f"m_markov must lie in [3, {k_model + 1}], got {m}")
    if phi is None:
        cfg = BasisConfig(p=design.p, num_funcs=k_model + 1)
        phi = build_phi(cfg, data.delta, data.n_samples, cond_threshold)
    y_hat = estimate_spectrum_ls(data, phi)
    h_hat = estimate_markov(y_hat, design.u)
    system = assemble_ab(h_hat[:m])
    tau_hat = closed_form_delay(system, design.p)
    residual = float(np.linalg.norm(data.z - phi.matrix @ y_hat.coeffs))
    return DelayEstimate(
        tau_hat=tau_hat,
        method="proposed",
        diagnostics={
            "y_hat": y_hat.coeffs,
            "h_hat": h_hat,
            "residual_norm": residual,
            "m_markov": m,
            "cond_phi": phi.cond,
        },
    )


def ml_negloglik(data: Dataset, design: InputDesign, tau: float) -> float:
    """Negative log-likelihood up to constants: delta * sum (z_n - u(t_n - tau))^2."""
    model = synthesize_input(design, data.t - tau)
    resid = data.z - model
    return float(data.delta * (resid @ resid))


def ml_gradient(data: Dataset, design: InputDesign, tau: float) -> float:
    """d/dtau of ml_negloglik, using the closed-form input derivative.

    The derivative of the model w.r.t. tau is -u'(t_n - tau), zero for
    t_n < tau.
    """
    model = synthesize_input(design, data.t - tau)
    slope = input_derivative(design, data.t - tau)
    return float(2.0 * data.delta * ((data.z - model) @ slope))


def _golden_minimize(fn, a: float, b: float, xtol: float):
    """Golden-section minimum of fn on [a, b]; returns (x, fn(x), evals)."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    evals = 2
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
        evals += 1
    x = x1 if f1 <= f2 else x2
    return x, min(f1, f2), evals


def estimate_delay_ml(
    data: Dataset,
    design: InputDesign,
    tau_max: float,
    grid_step: float | None = None,
    xtol: float = GOLDEN_XTOL,
) -> DelayEstimate:
    """Time-domain maximum likelihood.

    The objective is non-convex, so a coarse scan at ``grid_step`` (default
    delta / 4) brackets the global minimum before golden-section refinement
    down to ``xtol`` seconds.
    """
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    step = data.delta / 4.0 if grid_step is None else grid_step
    grid = np.arange(0.0, tau_max + step / 2.0, step)
    grid[-1] = min(grid[-1], tau_max)
    shifted = data.t[None, :] - grid[:, None]
    model = eval_basis_matrix(design.basis_config, shifted) @ design.u.coeffs
    resid = data.z[None, :] - model
    objective = data.delta * np.einsum("ij,ij->i", resid, resid)
    best = int(np.argmin(objective))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    fn = lambda tau: ml_negloglik(data, design, tau)
    tau_ref, f_ref, evals = _golden_minimize(fn, lo, hi, xtol)
    converged = True
    if f_ref > objective[best]:
        warnings.warn(
            NoImprovementWarning(
                "golden-section refinement did not improve on the grid minimum"
            )
        )
        tau_ref, f_ref = grid[best], float(objective[best])
        converged = False
    return DelayEstimate(
        tau_hat=float(tau_ref),
        method="ml",
        diagnostics={
            "grid_step": step,
            "grid_points": grid.size,
            "grid_best_tau": float(grid[best]),
            "refine_evals": evals,
            "converged": converged,
            "negloglik": float(f_ref),
        },
    )


def crlb(
    design: InputDesign,
    tau: float,
    noise_var: float,
    n_samples: int | None = None,
) -> CrlbReport:
    """Variance lower bound for unbiased delay estimators:
    noise_var / sum_n u'(t_n - tau)^2."""
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    n = design.n_samples if n_samples is None else n_samples
    t = np.arange(n) * design.delta
    d = input_derivative(design, t - tau)
    info = float(d @ d)
    if info == 0.0:
        raise ZeroInformationError("input derivative has no energy at the sample instants")
    contributing = np.nonzero(np.abs(d) > 1e-9 * np.max(np.abs(d)))[0]
    window = (int(np.floor(tau / design.delta)), int(contributing[-1]))
    return CrlbReport(bound=noise_var / info, window=window)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


def project_spectrum_spline(data: Dataset, p: float, num_funcs: int) -> Spectrum:
    """Output spectrum via interpolation: cubic spline through the samples,
    then quadrature of spline(t) * ell_j(t) over the data support.

    The quadrature is composite Gauss-Legendre with one panel per sample
    interval, which integrates the piecewise-cubic factor exactly and the
    smooth basis factor to machine precision for p * delta << 1.
    """
    if data.n_samples < 4:
        raise ValueError("cubic spline interpolation needs at least 4 samples")
    cfg = BasisConfig(p=p, num_funcs=num_funcs)
    spline = CubicSpline(data.t, data.z)
    half = data.delta / 2.0
    # quadrature nodes for every panel [t_i, t_{i+1}], flattened
    nodes = (data.t[:-1, None] + half * (_GL_NODES[None, :] + 1.0)).ravel()
    weights = np.tile(half * _GL_WEIGHTS, data.n_samples - 1)
    values = spline(nodes) * weights
    coeffs = eval_basis_matrix(cfg, nodes).T @ values
    return Spectrum(coeffs=coeffs, p=p)


def estimate_delay_lag_spline(
    data: Dataset,
    design: InputDesign,
    k_model: int,
    m_markov: int | None = None,
) -> DelayEstimate:
    """Interpolation baseline: spline-projected output spectrum, then the
    Laguerre-domain Markov solve and closed-form delay ratio."""
    if k_model < len(design.u) - 1:
        raise ValueError("model order must cover the input spectrum length")
    m = k_model + 1 if m_markov is None else m_markov
    if not 3 <= m <= k_model + 1:
        raise ValueError(f"m_markov must lie in [3, {k_model + 1}], got {m}")
    y_hat = project_spectrum_spline(data, design.p, k_model + 1)
    h_hat = estimate_markov(y_hat, design.u)
    system = assemble_ab(h_hat[:m])
    tau_hat = closed_form_delay(system, design.p)
    return DelayEstimate(
        tau_hat=tau_hat,
        method="lag_spline",
        diagnostics={"y_hat": y_hat.coeffs, "h_hat": h_hat, "m_markov": m},
    )


def estimate_delay_freq_interp(
    data: Dataset,
    design: InputDesign,
    amp_threshold: float = FREQ_AMP_THRESHOLD,
) -> DelayEstimate:
    """Cross-correlation baseline with frequency-domain interpolation.

    The integer part is the first maximizer of the linear cross-correlation
    r(k) = sum_n z_{n+k} u(t_n); the subsample part is a power-weighted
    phase-slope fit on the circular cross-power spectrum after removing the
    integer shift.
    """
    if data.n_samples < 2:
        raise ValueError("need at least two samples")
    n = data.n_samples
    u_samples = synthesize_input(design, data.t)
    r = np.correlate(data.z, u_samples, mode="full")[n - 1 :]
    if np.ptp(r) == 0.0:
        raise FlatCorrelationError("cross-correlation is constant; data carry no alignment")
    k_star = int(np.argmax(r))

    # circular cross-correlation spectrum; unlike the one-sided linear
    # correlation it keeps both flanks of the correlation peak, which the
    # phase fit needs
    spectrum = np.fft.rfft(data.z) * np.conj(np.fft.rfft(u_samples))
    m = np.arange(spectrum.size)
    # undo the integer-lag shift so only the subsample phase slope remains
    shifted = spectrum * np.exp(2j * np.pi * m * k_star / n)
    amp = np.abs(shifted)
    usable = np.zeros(spectrum.size, dtype=bool)
    usable[1 : (n - 1) // 2 + 1] = True
    if usable.any():
        usable &= amp >= amp_threshold * amp[usable].max()
    if not usable.any():
        raise FlatCorrelationError("no spectral bins above the amplitude threshold")
    omega = 2.0 * np.pi * m[usable] / (n * data.delta)
    weights = amp[usable] ** 2
    # forward DFT kernel e^{-i omega t} makes a positive residual delay show
    # up as a negative phase slope
    per_bin = -np.angle(shifted[usable]) / omega
    delta_tau = float(weights @ per_bin / weights.sum())
    return DelayEstimate(
        tau_hat=k_star * data.delta + delta_tau,
        method="freq_interp",
        diagnostics={
            "k_star": k_star,
            "delta_tau": delta_tau,
            "n_bins": int(usable.sum()),
        },
    )


ESTIMATORS = ("proposed", "ml", "lag_spline", "freq_interp")
