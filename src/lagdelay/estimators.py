"""Delay estimators and the variance lower bound.

Four estimators share the Dataset/InputDesign interface:

* ``proposed``    -- two-step Laguerre-domain estimator: least-squares output
                     spectrum, Markov parameters through the reciprocal input
                     series, closed-form delay ratio.
* ``ml``          -- time-domain maximum likelihood by grid scan plus
                     bounded-Brent refinement; the refine shifts the input
                     in the Laguerre domain by the Laguerre addition
                     formula (DLMF sec. 18.18), without a pass over the samples
                     per evaluation.
* ``lag_spline``  -- baseline: cubic-spline interpolation of the samples,
                     quadrature projection onto the basis, then the same
                     Laguerre-domain delay step.
* ``freq_interp`` -- baseline: integer-lag cross-correlation peak plus
                     power-weighted phase-slope interpolation.

What an estimator needs besides the data depends only on the design, the
sampling (N, delta), K and tau_max: the sampled basis Phi, the reciprocal
input series v (T(v) = T(U)^{-1}), the ML scan grid, model bank and row
norms, the spline projection matrix (spline and quadrature are both linear
in the samples), and the reference input with its plain and zero-padded
FFTs.  ``build_replicate_tables`` builds it once for many datasets; an
estimator given no table builds its own with the same helper, and refuses
a table built for anything else.  Per dataset only the data-dependent work
runs: a QR solve, a matrix-vector product or an FFT, the ML refine's one
pass over the samples, and the scalar steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import hankel, solve_triangular, solveh_banded
from scipy.optimize import minimize_scalar

from .basis import (
    BasisConfig,
    SampledBasis,
    assoc_laguerre_sequence,
    build_phi,
    eval_basis_matrix,
)
from .delay_ops import Spectrum, assemble_ab, closed_form_delay, reciprocal_series
from .errors import (
    FlatCorrelationError,
    IllConditionedError,
    NoImprovementWarning,
    ZeroInformationError,
)
from .simulate import Dataset, InputDesign, input_derivative, synthesize_input

# Absolute tolerance, in seconds, of the ML refinement of tau.
ML_TAU_XATOL = 5e-11

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


@dataclass(frozen=True, eq=False)
class MarkovTable:
    """Reciprocal series v of the input spectrum u to ``num_funcs`` terms:
    T(v) = T(U)^{-1} for a Markov solve of that size."""

    u: tuple
    num_funcs: int
    v: np.ndarray = field(repr=False)


def markov_table(input_spec: Spectrum, num_funcs: int) -> MarkovTable:
    """Reciprocal-series table of ``estimate_markov`` for one input and K."""
    return MarkovTable(
        u=tuple(input_spec.coeffs.tolist()), num_funcs=num_funcs,
        v=reciprocal_series(input_spec, num_funcs),
    )


def estimate_markov(
    y_hat: Spectrum, input_spec: Spectrum, table: MarkovTable | None = None
) -> np.ndarray:
    """Markov parameters from spectra: H = T(U)^{-1} Y = T(v) Y, applied as
    the truncated convolution of Y with v, the reciprocal series of u.
    ``table`` is a prebuilt ``markov_table``; without it v is computed here."""
    size = len(y_hat)
    if table is None:
        table = markov_table(input_spec, size)
    else:
        _check_table(table, u=tuple(input_spec.coeffs.tolist()), num_funcs=size)
    return np.convolve(table.v, y_hat.coeffs)[:size]


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


def _laguerre_delay(
    y_hat: Spectrum, design: InputDesign, m: int, markov: MarkovTable | None
) -> tuple[np.ndarray, float]:
    """Laguerre-domain delay step shared by ``proposed`` and ``lag_spline``:
    Markov parameters from the output spectrum, then the closed-form ratio
    on the first m of them.  Returns (h_hat, tau_hat)."""
    h_hat = estimate_markov(y_hat, design.u, markov)
    return h_hat, closed_form_delay(assemble_ab(h_hat[:m]), design.p)


def estimate_delay_proposed(
    data: Dataset,
    design: InputDesign,
    k_model: int,
    m_markov: int | None = None,
    phi: SampledBasis | None = None,
    markov: MarkovTable | None = None,
) -> DelayEstimate:
    """Two-step Laguerre-domain delay estimate.

    Chains the sampled basis, the least-squares spectrum, the Markov
    parameters T(U)^{-1} Y and the closed-form ratio.  ``m_markov`` defaults
    to using every estimated Markov parameter (K + 1).  ``phi`` is a prebuilt
    basis for this design's p, K and the data's sampling, ``markov`` a
    prebuilt ``markov_table`` for its u and K; without them both are built
    here.
    """
    m = _delay_step_order(design, k_model, m_markov)
    if phi is None:
        phi = build_phi(BasisConfig(p=design.p, num_funcs=k_model + 1), data.delta, data.n_samples)
    else:
        _check_table(phi, p=design.p, k_max=k_model, delta=data.delta, n_samples=data.n_samples)
    y_hat = estimate_spectrum_ls(data, phi)
    h_hat, tau_hat = _laguerre_delay(y_hat, design, m, markov)
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
    """Negative log-likelihood up to constants: delta * sum (z_n - u(t_n - tau))^2.

    The direct sum over the samples; the ML refine evaluates the same
    objective through ``_refine_objective``."""
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


def _refine_objective(data: Dataset, design: InputDesign, lo: float):
    """``ml_negloglik`` as a function of tau >= lo, evaluated in the Laguerre
    domain around the bracket's low end: one pass over the samples here,
    O(I^2) per evaluation after it.

    Write tau = lo + d.  For t_n >= tau the addition formula
    L_k(x - s) = sum_{i<=k} L_i(x) L^{(-1)}_{k-i}(-s) (DLMF sec. 18.18) gives
    u(t_n - tau) = sum_i (u_i + a_i(d)) ell_i(t_n - lo), with
    a(d) = e^{pd} H L^{(-1)}(-2pd) - u, H_ij = u_{i+j}.  B = ell(t_n - lo)
    and q = z - B u are tabulated once, on the rows t_n >= lo.  With
    n0 = #{t_n < tau}, the same t_n >= tau cutoff as ``ml_negloglik``,
    the objective is
    delta (sum_{n<n0} z_n^2 + |q'|^2 - 2 a.B'^T q' + a.B'^T B' a)
    over the rows n >= n0 (primed).  Expanding about the residual q keeps
    the sum free of the |z|^2 cancellation.  n0 takes at most two values in
    a bracket narrower than delta, and its sums are cached.
    """
    p, u = design.p, design.u.coeffs
    t, z = data.t, data.z
    n_lo = int(t.searchsorted(lo))
    basis = eval_basis_matrix(design.basis_config, t[n_lo:] - lo)
    resid = z[n_lo:] - basis @ u
    hankel_u = hankel(u)
    sums = {}

    def negloglik(tau: float) -> float:
        n0 = int(t.searchsorted(tau))
        if n0 not in sums:
            b, q = basis[n0 - n_lo :], resid[n0 - n_lo :]
            sums[n0] = (z[:n0] @ z[:n0] + q @ q, b.T @ q, b.T @ b)
        head, cross, gram = sums[n0]
        shift = tau - lo
        w = hankel_u @ assoc_laguerre_sequence(-2.0 * p * shift, u.size)
        a = np.expm1(p * shift) * w + (w - u)
        return float(data.delta * (head - 2.0 * (a @ cross) + a @ gram @ a))

    return negloglik


def minimize_bounded(fn, a: float, b: float, xatol: float):
    """Minimum of fn inside [a, b] by bounded Brent: parabolic interpolation,
    safeguarded by golden-mean steps.  Returns (x, fn(x), evals).

    Brent never evaluates fn at a or b.  Stops once x is known to within
    about xatol plus sqrt(eps) |x|.
    """
    res = minimize_scalar(fn, bounds=(a, b), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun), int(res.nfev)


@dataclass(frozen=True, eq=False)
class MlTable:
    """ML grid scan: the grid at delta / 4 on [0, tau_max], the noise-free
    model u(t_n - tau_i), one row per grid point, and the squared row norms
    ||u(t_n - tau_i)||^2."""

    p: float
    u: tuple
    delta: float
    n_samples: int
    tau_max: float
    grid: np.ndarray
    model: np.ndarray = field(repr=False)
    model_sq: np.ndarray = field(repr=False)


def ml_table(design: InputDesign, delta: float, n_samples: int, tau_max: float) -> MlTable:
    """Scan grid and model bank of ``estimate_delay_ml`` for one sampling.

    tau_max must lie in (0, (N - 1) delta], the span of the data; NaN and
    infinity are refused with it.
    """
    span = (n_samples - 1) * delta
    if not 0.0 < tau_max <= span:
        raise ValueError(
            f"tau_max must lie in (0, (N - 1) * delta] = (0, {span:g}] s, got {tau_max!r}"
        )
    step = delta / 4.0
    grid = np.arange(0.0, tau_max + step / 2.0, step)
    grid[-1] = min(grid[-1], tau_max)
    shifted = (np.arange(n_samples) * delta)[None, :] - grid[:, None]
    model = eval_basis_matrix(design.basis_config, shifted) @ design.u.coeffs
    return MlTable(
        p=design.p, u=tuple(design.u.coeffs.tolist()), delta=delta,
        n_samples=n_samples, tau_max=tau_max, grid=grid, model=model,
        model_sq=np.einsum("ij,ij->i", model, model),
    )


def _scan_minimum(table: MlTable, data: Dataset) -> tuple[int, float]:
    """Grid index of the least negative log-likelihood and its value.

    The grid is ranked by ||m_i||^2 - 2 m_i . z, which is the residual
    ||z - m_i||^2 less the constant ||z||^2, with one matrix-vector
    product; only the winning row's objective is then evaluated.
    """
    best = int(np.argmin(table.model_sq - 2.0 * (table.model @ data.z)))
    resid = data.z[None, :] - table.model[best : best + 1]
    return best, float(data.delta * np.einsum("ij,ij->i", resid, resid)[0])


def estimate_delay_ml(
    data: Dataset,
    design: InputDesign,
    tau_max: float,
    table: MlTable | None = None,
) -> DelayEstimate:
    """Time-domain maximum likelihood.

    The objective ``ml_negloglik`` is non-convex, so a coarse scan at
    delta / 4 brackets the global minimum before ``minimize_bounded``
    refines it to ML_TAU_XATOL seconds.  The refine evaluates the same
    objective in the Laguerre domain (``_refine_objective``): a shift of the
    delay recombines the input's basis functions exactly, so after one pass
    over the samples each evaluation costs O(I^2).  ``table`` is a prebuilt
    ``ml_table`` for this design, sampling and tau_max; without it the table
    is built here.  ``boundary_hit`` is true when the scan minimum is an end
    of the grid, tau = 0 or tau = tau_max: the estimate is then clamped to
    the search range, and the unconstrained minimum may lie outside it.
    """
    if table is None:
        table = ml_table(design, data.delta, data.n_samples, tau_max)
    else:
        _check_table(
            table, p=design.p, u=tuple(design.u.coeffs.tolist()), delta=data.delta,
            n_samples=data.n_samples, tau_max=tau_max,
        )
    grid = table.grid
    best, f_best = _scan_minimum(table, data)
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    fn = _refine_objective(data, design, lo)
    tau_ref, f_ref, evals = minimize_bounded(fn, lo, hi, ML_TAU_XATOL)
    converged = True
    if f_ref > f_best:
        warnings.warn(
            NoImprovementWarning("refinement did not improve on the grid minimum")
        )
        tau_ref, f_ref = grid[best], f_best
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
            "boundary_hit": best in (0, grid.size - 1),
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
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var!r}")
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

# cubic Hermite weights of (z_i, delta s_i, z_{i+1}, delta s_{i+1}) at the
# Gauss-Legendre nodes x in [0, 1] of a sample interval [t_i, t_{i+1}]
_GL_X = (_GL_NODES + 1.0) / 2.0
_GL_HERMITE = np.stack([
    (1.0 + 2.0 * _GL_X) * (1.0 - _GL_X) ** 2,
    _GL_X * (1.0 - _GL_X) ** 2,
    _GL_X**2 * (3.0 - 2.0 * _GL_X),
    _GL_X**2 * (_GL_X - 1.0),
])


@dataclass(frozen=True, eq=False)
class SplineTable:
    """Spline projection as one (K + 1) x N matrix: projection @ z is the
    quadrature of the not-a-knot cubic spline through z against the basis."""

    p: float
    num_funcs: int
    delta: float
    n_samples: int
    projection: np.ndarray = field(repr=False)


def spline_table(p: float, num_funcs: int, delta: float, n_samples: int) -> SplineTable:
    """Projection matrix of ``project_spectrum_spline`` for one sampling.

    On [t_i, t_{i+1}] the spline is the cubic Hermite interpolant of z_i,
    z_{i+1} and the knot slopes s_i, s_{i+1}, so at the quadrature nodes it
    is G_z z + G_s s.  The not-a-knot slopes solve the tridiagonal system
    A s = R z, with R a three-point difference stencil.  Halving A's first
    and last rows makes it symmetric positive definite, S = D A, so
    P = G_z + (S^{-1} G_s^T)^T D R: one banded solve with K + 1 right-hand
    sides, O(K N) in all.
    """
    if n_samples < 4:
        raise ValueError("cubic spline interpolation needs at least 4 samples")
    half = delta / 2.0
    t = np.arange(n_samples) * delta
    # quadrature nodes of every panel [t_i, t_{i+1}], shape (6, N - 1)
    nodes = half * (_GL_NODES[:, None] + 1.0) + t[None, :-1]
    basis = eval_basis_matrix(BasisConfig(p=p, num_funcs=num_funcs), nodes)
    # quadrature of each Hermite weight times each basis function per panel,
    # shape (4, N - 1, K + 1)
    weights = _GL_HERMITE * (half * _GL_WEIGHTS)
    moments = (weights @ basis.reshape(_GL_NODES.size, -1)).reshape(4, n_samples - 1, num_funcs)
    # the transposes G_z^T and G_s^T, one row per sample
    g_z = np.zeros((n_samples, num_funcs))
    g_z[:-1] += moments[0]
    g_z[1:] += moments[2]
    g_s = np.zeros((n_samples, num_funcs))
    g_s[:-1] += delta * moments[1]
    g_s[1:] += delta * moments[3]
    # S = D A in upper banded form: A's rows are (1, 2), (1, 4, 1) ...
    # (1, 4, 1), (2, 1), and D halves the first and the last
    s_banded = np.ones((2, n_samples))
    s_banded[1] = 4.0
    s_banded[1, [0, -1]] = 0.5
    y = solveh_banded(s_banded, g_s)
    # P^T = G_z^T + R^T D y: R's rows are 3 (z_{i+1} - z_{i-1}) / delta
    # inside and the one-sided stencils (-5, 4, 1) and (-1, -4, 5) / (2 delta)
    # at the ends, which D halves
    p_t = g_z
    p_t[2:] += (3.0 / delta) * y[1:-1]
    p_t[:-2] -= (3.0 / delta) * y[1:-1]
    p_t[:3] += np.outer([-5.0, 4.0, 1.0], y[0]) / (4.0 * delta)
    p_t[-3:] += np.outer([-1.0, -4.0, 5.0], y[-1]) / (4.0 * delta)
    return SplineTable(
        p=p, num_funcs=num_funcs, delta=delta, n_samples=n_samples,
        projection=np.ascontiguousarray(p_t.T),
    )


def project_spectrum_spline(
    data: Dataset, p: float, num_funcs: int, table: SplineTable | None = None
) -> Spectrum:
    """Output spectrum via interpolation: cubic spline (not-a-knot) through
    the samples, then quadrature of spline(t) * ell_j(t) over the data
    support.

    The quadrature is composite Gauss-Legendre with one 6-point panel per
    sample interval, which integrates the piecewise-cubic factor exactly and
    the smooth basis factor to machine precision for p * delta << 1.  Both
    steps are linear in z, so the spectrum is one matrix-vector product
    with the projection matrix of ``spline_table``.  ``table`` is a prebuilt
    ``spline_table``; without it the table is built here.
    """
    if table is None:
        table = spline_table(p, num_funcs, data.delta, data.n_samples)
    else:
        _check_table(table, p=p, num_funcs=num_funcs, delta=data.delta, n_samples=data.n_samples)
    return Spectrum(coeffs=table.projection @ data.z, p=p)


def estimate_delay_lag_spline(
    data: Dataset,
    design: InputDesign,
    k_model: int,
    m_markov: int | None = None,
    table: SplineTable | None = None,
    markov: MarkovTable | None = None,
) -> DelayEstimate:
    """Interpolation baseline: spline-projected output spectrum, then the
    Laguerre-domain Markov solve and closed-form delay ratio.  ``table`` is
    passed on to ``project_spectrum_spline``, ``markov`` to
    ``estimate_markov``."""
    m = _delay_step_order(design, k_model, m_markov)
    y_hat = project_spectrum_spline(data, design.p, k_model + 1, table)
    h_hat, tau_hat = _laguerre_delay(y_hat, design, m, markov)
    return DelayEstimate(
        tau_hat=tau_hat,
        method="lag_spline",
        diagnostics={"y_hat": y_hat.coeffs, "h_hat": h_hat, "m_markov": m},
    )


@dataclass(frozen=True, eq=False)
class CorrTable:
    """Reference input u(t_n) of the correlation baseline as the conjugates
    of two real FFTs: plain, and zero-padded to ``padded_len`` >= 2N - 1
    for the linear correlation."""

    p: float
    u: tuple
    delta: float
    n_samples: int
    padded_len: int
    u_spectrum_conj: np.ndarray = field(repr=False)
    u_padded_conj: np.ndarray = field(repr=False)


def corr_table(design: InputDesign, delta: float, n_samples: int) -> CorrTable:
    """Reference table of ``estimate_delay_freq_interp`` for one sampling."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    u_samples = synthesize_input(design, np.arange(n_samples) * delta)
    padded_len = next_fast_len(2 * n_samples - 1, real=True)
    return CorrTable(
        p=design.p, u=tuple(design.u.coeffs.tolist()), delta=delta, n_samples=n_samples,
        padded_len=padded_len, u_spectrum_conj=np.conj(rfft(u_samples)),
        u_padded_conj=np.conj(rfft(u_samples, padded_len)),
    )


def _linear_correlation(z: np.ndarray, table: CorrTable) -> np.ndarray:
    """r(k) = sum_n z_{n+k} u(t_n), k = 0..N-1, by FFT: both signals are
    zero-padded to ``padded_len`` >= 2N - 1, so the circular product does
    not wrap."""
    size = table.padded_len
    return irfft(rfft(z, size) * table.u_padded_conj, size)[: z.size]


def estimate_delay_freq_interp(
    data: Dataset, design: InputDesign, table: CorrTable | None = None
) -> DelayEstimate:
    """Cross-correlation baseline with frequency-domain interpolation.

    The integer part is the first maximizer of the linear cross-correlation
    r(k) = sum_n z_{n+k} u(t_n), k >= 0, computed by zero-padded FFT; the
    subsample part is a power-weighted phase-slope fit on the circular
    cross-power spectrum after removing the integer shift.  ``table`` is a
    prebuilt ``corr_table``; without it the table is built here.
    """
    if table is None:
        table = corr_table(design, data.delta, data.n_samples)
    else:
        _check_table(
            table, p=design.p, u=tuple(design.u.coeffs.tolist()), delta=data.delta,
            n_samples=data.n_samples,
        )
    n = data.n_samples
    r = _linear_correlation(data.z, table)
    if np.ptp(r) == 0.0:
        raise FlatCorrelationError("cross-correlation is constant; data carry no alignment")
    k_star = int(np.argmax(r))

    # circular cross-correlation spectrum; unlike the one-sided linear
    # correlation it keeps both flanks of the correlation peak, which the
    # phase fit needs
    spectrum = rfft(data.z) * table.u_spectrum_conj
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
    markov: MarkovTable | None = None
    ml: MlTable | None = None
    spline: SplineTable | None = None
    corr: CorrTable | None = None


def build_replicate_tables(
    methods, design: InputDesign, *, n_samples: int, k_model: int, tau_max: float
) -> ReplicateTables:
    """The tables ``methods`` need for data sampled at design.delta, built
    with the same helpers each estimator uses when it gets none."""
    delta = design.delta
    phi = markov = ml = spline = corr = None
    if "proposed" in methods:
        phi = build_phi(BasisConfig(p=design.p, num_funcs=k_model + 1), delta, n_samples)
    if "proposed" in methods or "lag_spline" in methods:
        markov = markov_table(design.u, k_model + 1)
    if "ml" in methods:
        ml = ml_table(design, delta, n_samples, tau_max)
    if "lag_spline" in methods:
        spline = spline_table(design.p, k_model + 1, delta, n_samples)
    if "freq_interp" in methods:
        corr = corr_table(design, delta, n_samples)
    return ReplicateTables(phi=phi, markov=markov, ml=ml, spline=spline, corr=corr)


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
        return estimate_delay_proposed(
            data, design, k_model, m_markov, phi=tables.phi, markov=tables.markov
        )
    if method == "ml":
        return estimate_delay_ml(data, design, tau_max, table=tables.ml)
    if method == "lag_spline":
        return estimate_delay_lag_spline(
            data, design, k_model, m_markov, table=tables.spline, markov=tables.markov
        )
    if method == "freq_interp":
        return estimate_delay_freq_interp(data, design, table=tables.corr)
    raise ValueError(f"unknown method {method!r}; choose from {ESTIMATORS}")
