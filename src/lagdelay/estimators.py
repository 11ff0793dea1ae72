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

What an estimator needs besides the data -- the sampled basis Phi, the ML
scan grid and model bank, the spline quadrature table, the reference input
and its FFT -- depends only on the design, the sampling (N, delta), K and
tau_max.  ``build_replicate_tables`` builds it once for many datasets; an
estimator given no table builds its own with the same helper, and refuses
a table built for anything else.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_triangular

from .basis import BasisConfig, SampledBasis, build_phi, eval_basis_matrix
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


def _check_table(table, **expected) -> None:
    """Refuse a table built for another design, sampling, K or tau_max."""
    for name, want in expected.items():
        got = getattr(table, name)
        if got != want:
            raise ValueError(f"{type(table).__name__} was built for {name} = {got!r}, not {want!r}")


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


def markov_order(k_model: int, m_markov: int | None) -> int:
    """Number M of Markov parameters entering the delay ratio: K + 1 unless
    ``m_markov`` is given, and always within [3, K + 1]."""
    m = k_model + 1 if m_markov is None else m_markov
    if not 3 <= m <= k_model + 1:
        raise ValueError(f"m_markov must lie in [3, {k_model + 1}], got {m}")
    return m


def _delay_step_order(design: InputDesign, k_model: int, m_markov: int | None) -> int:
    """Check K >= I and return M for the Laguerre-domain delay step."""
    if k_model < len(design.u) - 1:
        raise ValueError("model order must cover the input spectrum length")
    return markov_order(k_model, m_markov)


def _laguerre_delay(y_hat: Spectrum, design: InputDesign, m: int) -> tuple[np.ndarray, float]:
    """Laguerre-domain delay step shared by ``proposed`` and ``lag_spline``:
    Markov parameters from the output spectrum, then the closed-form ratio
    on the first m of them.  Returns (h_hat, tau_hat)."""
    h_hat = estimate_markov(y_hat, design.u)
    return h_hat, closed_form_delay(assemble_ab(h_hat[:m]), design.p)


def estimate_delay_proposed(
    data: Dataset,
    design: InputDesign,
    k_model: int,
    m_markov: int | None = None,
    phi: SampledBasis | None = None,
) -> DelayEstimate:
    """Two-step Laguerre-domain delay estimate.

    Chains the sampled basis, the least-squares spectrum, the triangular
    Markov solve and the closed-form ratio.  ``m_markov`` defaults to using
    every estimated Markov parameter (K + 1).  ``phi`` is a prebuilt basis
    for this design's p, K and the data's sampling; without it the basis is
    built here.
    """
    m = _delay_step_order(design, k_model, m_markov)
    if phi is None:
        phi = build_phi(BasisConfig(p=design.p, num_funcs=k_model + 1), data.delta, data.n_samples)
    else:
        _check_table(phi, p=design.p, k_max=k_model, delta=data.delta, n_samples=data.n_samples)
    y_hat = estimate_spectrum_ls(data, phi)
    h_hat, tau_hat = _laguerre_delay(y_hat, design, m)
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


def golden_section(fn, a: float, b: float, xtol: float = 0.0, rtol: float = 0.0):
    """Golden-section minimum of fn on [a, b]; returns (x, fn(x), evals).

    Stops once b - a <= xtol + rtol * max(|a|, |b|, 1e-12).
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


@dataclass(frozen=True, eq=False)
class MlTable:
    """ML grid scan: the grid at delta / 4 on [0, tau_max] and the noise-free
    model u(t_n - tau_i), one row per grid point."""

    p: float
    u: tuple
    delta: float
    n_samples: int
    tau_max: float
    grid: np.ndarray
    model: np.ndarray = field(repr=False)


def ml_table(design: InputDesign, delta: float, n_samples: int, tau_max: float) -> MlTable:
    """Scan grid and model bank of ``estimate_delay_ml`` for one sampling."""
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    step = delta / 4.0
    grid = np.arange(0.0, tau_max + step / 2.0, step)
    grid[-1] = min(grid[-1], tau_max)
    shifted = (np.arange(n_samples) * delta)[None, :] - grid[:, None]
    model = eval_basis_matrix(design.basis_config, shifted) @ design.u.coeffs
    return MlTable(
        p=design.p, u=tuple(design.u.coeffs.tolist()), delta=delta,
        n_samples=n_samples, tau_max=tau_max, grid=grid, model=model,
    )


def estimate_delay_ml(
    data: Dataset,
    design: InputDesign,
    tau_max: float,
    table: MlTable | None = None,
) -> DelayEstimate:
    """Time-domain maximum likelihood.

    The objective is non-convex, so a coarse scan at delta / 4 brackets the
    global minimum before golden-section refinement down to GOLDEN_XTOL
    seconds.  ``table`` is a prebuilt ``ml_table`` for this design, sampling
    and tau_max; without it the table is built here.  ``boundary_hit`` is
    true when the scan minimum is the last grid point, tau_max: the true
    delay may then lie beyond the search range.
    """
    if table is None:
        table = ml_table(design, data.delta, data.n_samples, tau_max)
    else:
        _check_table(
            table, p=design.p, u=tuple(design.u.coeffs.tolist()), delta=data.delta,
            n_samples=data.n_samples, tau_max=tau_max,
        )
    grid = table.grid
    resid = data.z[None, :] - table.model
    objective = data.delta * np.einsum("ij,ij->i", resid, resid)
    best = int(np.argmin(objective))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    fn = lambda tau: ml_negloglik(data, design, tau)
    tau_ref, f_ref, evals = golden_section(fn, lo, hi, xtol=GOLDEN_XTOL)
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
            "grid_step": data.delta / 4.0,
            "grid_points": grid.size,
            "grid_best_tau": float(grid[best]),
            "refine_evals": evals,
            "converged": converged,
            "negloglik": float(f_ref),
            "boundary_hit": best == grid.size - 1,
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


@dataclass(frozen=True, eq=False)
class SplineTable:
    """Quadrature of the spline projection: composite Gauss-Legendre nodes
    (one 6-point panel per sample interval), their weights and the basis
    values at the nodes."""

    p: float
    num_funcs: int
    delta: float
    n_samples: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)


def spline_table(p: float, num_funcs: int, delta: float, n_samples: int) -> SplineTable:
    """Quadrature table of ``project_spectrum_spline`` for one sampling."""
    if n_samples < 4:
        raise ValueError("cubic spline interpolation needs at least 4 samples")
    half = delta / 2.0
    t = np.arange(n_samples) * delta
    # quadrature nodes for every panel [t_i, t_{i+1}], flattened
    nodes = (t[:-1, None] + half * (_GL_NODES[None, :] + 1.0)).ravel()
    weights = np.tile(half * _GL_WEIGHTS, n_samples - 1)
    basis = eval_basis_matrix(BasisConfig(p=p, num_funcs=num_funcs), nodes)
    return SplineTable(
        p=p, num_funcs=num_funcs, delta=delta, n_samples=n_samples,
        nodes=nodes, weights=weights, basis=basis,
    )


def project_spectrum_spline(
    data: Dataset, p: float, num_funcs: int, table: SplineTable | None = None
) -> Spectrum:
    """Output spectrum via interpolation: cubic spline through the samples,
    then quadrature of spline(t) * ell_j(t) over the data support.

    The quadrature is composite Gauss-Legendre with one panel per sample
    interval, which integrates the piecewise-cubic factor exactly and the
    smooth basis factor to machine precision for p * delta << 1.  ``table``
    is a prebuilt ``spline_table``; without it the table is built here.
    """
    if table is None:
        table = spline_table(p, num_funcs, data.delta, data.n_samples)
    else:
        _check_table(table, p=p, num_funcs=num_funcs, delta=data.delta, n_samples=data.n_samples)
    spline = CubicSpline(data.t, data.z)
    values = spline(table.nodes) * table.weights
    coeffs = table.basis.T @ values
    return Spectrum(coeffs=coeffs, p=p)


def estimate_delay_lag_spline(
    data: Dataset,
    design: InputDesign,
    k_model: int,
    m_markov: int | None = None,
    table: SplineTable | None = None,
) -> DelayEstimate:
    """Interpolation baseline: spline-projected output spectrum, then the
    Laguerre-domain Markov solve and closed-form delay ratio.  ``table`` is
    passed on to ``project_spectrum_spline``."""
    m = _delay_step_order(design, k_model, m_markov)
    y_hat = project_spectrum_spline(data, design.p, k_model + 1, table)
    h_hat, tau_hat = _laguerre_delay(y_hat, design, m)
    return DelayEstimate(
        tau_hat=tau_hat,
        method="lag_spline",
        diagnostics={"y_hat": y_hat.coeffs, "h_hat": h_hat, "m_markov": m},
    )


@dataclass(frozen=True, eq=False)
class CorrTable:
    """Reference input of the correlation baseline: u(t_n) and the
    conjugate of its real FFT."""

    p: float
    u: tuple
    delta: float
    n_samples: int
    u_samples: np.ndarray = field(repr=False)
    u_spectrum_conj: np.ndarray = field(repr=False)


def corr_table(design: InputDesign, delta: float, n_samples: int) -> CorrTable:
    """Reference table of ``estimate_delay_freq_interp`` for one sampling."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    u_samples = synthesize_input(design, np.arange(n_samples) * delta)
    return CorrTable(
        p=design.p, u=tuple(design.u.coeffs.tolist()), delta=delta, n_samples=n_samples,
        u_samples=u_samples, u_spectrum_conj=np.conj(np.fft.rfft(u_samples)),
    )


def estimate_delay_freq_interp(
    data: Dataset, design: InputDesign, table: CorrTable | None = None
) -> DelayEstimate:
    """Cross-correlation baseline with frequency-domain interpolation.

    The integer part is the first maximizer of the linear cross-correlation
    r(k) = sum_n z_{n+k} u(t_n); the subsample part is a power-weighted
    phase-slope fit on the circular cross-power spectrum after removing the
    integer shift.  ``table`` is a prebuilt ``corr_table``; without it the
    table is built here.
    """
    if table is None:
        table = corr_table(design, data.delta, data.n_samples)
    else:
        _check_table(
            table, p=design.p, u=tuple(design.u.coeffs.tolist()), delta=data.delta,
            n_samples=data.n_samples,
        )
    n = data.n_samples
    r = np.correlate(data.z, table.u_samples, mode="full")[n - 1 :]
    if np.ptp(r) == 0.0:
        raise FlatCorrelationError("cross-correlation is constant; data carry no alignment")
    k_star = int(np.argmax(r))

    # circular cross-correlation spectrum; unlike the one-sided linear
    # correlation it keeps both flanks of the correlation peak, which the
    # phase fit needs
    spectrum = np.fft.rfft(data.z) * table.u_spectrum_conj
    m = np.arange(spectrum.size)
    # undo the integer-lag shift so only the subsample phase slope remains
    shifted = spectrum * np.exp(2j * np.pi * m * k_star / n)
    amp = np.abs(shifted)
    usable = np.zeros(spectrum.size, dtype=bool)
    usable[1 : (n - 1) // 2 + 1] = True
    if usable.any():
        usable &= amp >= FREQ_AMP_THRESHOLD * amp[usable].max()
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


@dataclass(frozen=True, eq=False)
class ReplicateTables:
    """Per-estimator tables that depend only on the design, the sampling
    (N, delta), K and tau_max, never on the data.  A part is None when its
    estimator is not run; the estimator then builds it itself."""

    phi: SampledBasis | None = None
    ml: MlTable | None = None
    spline: SplineTable | None = None
    corr: CorrTable | None = None


def build_replicate_tables(
    methods, design: InputDesign, *, n_samples: int, k_model: int, tau_max: float
) -> ReplicateTables:
    """The tables ``methods`` need for data sampled at design.delta, built
    with the same helpers each estimator uses when it gets none."""
    delta = design.delta
    phi = ml = spline = corr = None
    if "proposed" in methods:
        phi = build_phi(BasisConfig(p=design.p, num_funcs=k_model + 1), delta, n_samples)
    if "ml" in methods:
        ml = ml_table(design, delta, n_samples, tau_max)
    if "lag_spline" in methods:
        spline = spline_table(design.p, k_model + 1, delta, n_samples)
    if "freq_interp" in methods:
        corr = corr_table(design, delta, n_samples)
    return ReplicateTables(phi=phi, ml=ml, spline=spline, corr=corr)


def estimate_delay(
    method: str,
    data: Dataset,
    design: InputDesign,
    *,
    k_model: int,
    m_markov: int | None,
    tau_max: float,
    tables: ReplicateTables | None = None,
) -> DelayEstimate:
    """Run the estimator named ``method`` (one of ESTIMATORS).

    ``tables`` holds prebuilt tables; each estimator takes only its own part
    and the arguments it needs.  The estimators are looked up by their
    module-global names at call time, so a patched estimator is the one
    that runs.
    """
    if tables is None:
        tables = ReplicateTables()
    if method == "proposed":
        return estimate_delay_proposed(data, design, k_model, m_markov, phi=tables.phi)
    if method == "ml":
        return estimate_delay_ml(data, design, tau_max, table=tables.ml)
    if method == "lag_spline":
        return estimate_delay_lag_spline(data, design, k_model, m_markov, table=tables.spline)
    if method == "freq_interp":
        return estimate_delay_freq_interp(data, design, table=tables.corr)
    raise ValueError(f"unknown method {method!r}; choose from {ESTIMATORS}")
