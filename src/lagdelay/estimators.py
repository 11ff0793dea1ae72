"""Delay estimators and the variance lower bound.

Four estimators share one interface, ``(Dataset, ReplicateTables)``:

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
sampling (N, delta), K, M and tau_max: the sampled basis Phi, the spectrum
map L of each Laguerre-domain method (its output spectrum is linear in the
samples, y = L z: L = R^{-1} Q^T for the least squares of ``proposed``,
the spline projection matrix for ``lag_spline``), the reciprocal input
series v (T(v) = T(U)^{-1}), the ML scan grid, model bank and row norms,
and the reference input with its plain and zero-padded FFTs.
``build_replicate_tables`` is the only place these are built, once for one
dataset or for many; every estimator takes the resulting
``ReplicateTables`` and reads the design, K, M and tau_max from it, and
``estimate_delay`` checks that the data are sampled as the tables were
built.  Per dataset only the data-dependent work runs: the product L z or
an FFT, the ML refine's one pass over the samples, and the scalar steps.
The ML scan and the FFT stage of ``freq_interp`` also run over a block of
datasets at once, as the benchmark does (``_block_stage``), and each row
equals the single row bitwise.

Nothing here imports scipy: the FFTs are numpy's, and the spline slope
system is solved through the Green's function of its tridiagonal matrix,
so no command pays for loading scipy (a test dependency only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import (
    BasisConfig,
    SampledBasis,
    assoc_laguerre_sequence,
    build_phi,
    eval_basis_matrix,
)
from .delay_ops import assemble_ab, closed_form_delay, reciprocal_series
from .errors import (
    DelayOutOfRangeError,
    FlatCorrelationError,
    LagDelayError,
    ZeroInformationError,
    _require,
)
from .simulate import Dataset, InputDesign, input_derivative, synthesize_input

# Tolerance of the ML refinement of tau, as a fraction of delta: 5e-11 s
# at delta = 3e-4 s, and the same fraction of the step at any time scale.
ML_TAU_XATOL_FRACTION = 5e-11 / 3e-4

# Cross-correlation bins participating in the phase fit must carry at least
# this fraction of the peak spectral amplitude; weaker bins are treated as
# noise-dominated.
FREQ_AMP_THRESHOLD = 0.1
# ``_freq_interp_delay`` shifts only the bins whose unshifted amplitude
# reaches this level, just under the threshold
_FREQ_CANDIDATE_LEVEL = FREQ_AMP_THRESHOLD * (1.0 - 1e-9)
# Bins 0 < m < N / 2 that all stay below this fraction of the largest
# amplitude on any bin hold only FFT rounding, as for constant data (1e-17
# there, 0.2 or more on every tested replicate), and carry no phase slope
_FREQ_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class DelayEstimate:
    """Delay estimate with method tag and method-specific diagnostics."""

    method: str
    tau_hat: float
    diagnostics: dict


@dataclass(frozen=True)
class CrlbReport:
    """Variance lower bound and the sample-index window that contributes."""

    bound: float
    window: tuple[int, int]


def estimate_spectrum_ls(data: Dataset, spectrum_map: np.ndarray) -> np.ndarray:
    """Output spectrum Y = L z of one dataset, for a (K + 1) x N spectrum map
    L from ``ReplicateTables.spectrum``; the one place a map is applied.

    For ``proposed`` L = R^{-1} Q^T = Phi^+ from the thin QR factors of the
    basis (never the normal equations), so Y = argmin_Y ||z - Phi Y||_2;
    for ``lag_spline`` L is the spline projection of ``spline_table``.  One
    dataset at a time: a batched product rounds differently by block size.
    """
    return spectrum_map @ data.z


def estimate_markov(y_hat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Markov parameters from spectra: H = T(U)^{-1} Y = T(v) Y, applied as
    the truncated convolution of Y with v, the reciprocal series of u to at
    least len(Y) terms."""
    return np.convolve(v, y_hat)[: len(y_hat)]


def markov_order(k_model: int, m_markov: int | None, i_order: int) -> int:
    """Number M of Markov parameters entering the delay ratio: K + 1 unless
    ``m_markov`` is given, and always within [3, K + 1]; K >= input order I."""
    if k_model < i_order:
        raise ValueError(
            f"model order must cover the input spectrum length: k_model = {k_model} < I = {i_order}"
        )
    m = k_model + 1 if m_markov is None else m_markov
    if not 3 <= m <= k_model + 1:
        raise ValueError(f"m_markov must lie in [3, {k_model + 1}], got {m}")
    return m


def _laguerre_delay(y_hat: np.ndarray, tables: ReplicateTables) -> tuple[np.ndarray, float]:
    """Laguerre-domain delay step shared by ``proposed`` and ``lag_spline``:
    Markov parameters from the output spectrum, then the closed-form ratio
    on the first M of them.  Returns (h_hat, tau_hat); a tau_hat beyond
    the record span (N - 1) delta raises DelayOutOfRangeError."""
    h_hat = estimate_markov(y_hat, tables.markov)
    tau_hat = closed_form_delay(*assemble_ab(h_hat[: tables.m_markov]), tables.design.p)
    span = (tables.n_samples - 1) * tables.delta
    if not -span <= tau_hat <= span:  # NaN too
        raise DelayOutOfRangeError(
            f"delay estimate {tau_hat:.6g} s lies outside the record, [-{span:.6g}, {span:.6g}] s"
        )
    return h_hat, tau_hat


def estimate_delay_proposed(data: Dataset, tables: ReplicateTables) -> DelayEstimate:
    """Two-step Laguerre-domain delay estimate.

    Chains the least-squares spectrum Y = Phi^+ z, the Markov parameters
    T(U)^{-1} Y and the closed-form ratio on the first M of them, with
    Phi^+, Phi, v and M from ``tables``.
    """
    phi = tables.phi
    y_hat = estimate_spectrum_ls(data, tables.spectrum["proposed"])
    h_hat, tau_hat = _laguerre_delay(y_hat, tables)
    residual = float(np.linalg.norm(data.z - phi.matrix @ y_hat))
    return DelayEstimate(
        tau_hat=tau_hat,
        method="proposed",
        diagnostics={
            "y_hat": y_hat,
            "h_hat": h_hat,
            "residual_norm": residual,
            "m_markov": tables.m_markov,
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


def _refine_objective(data: Dataset, table: MlTable, i_lo: int):
    """``ml_negloglik`` as a function of tau in a refine bracket [lo, hi]
    with lo = ``table.grid[i_lo]``, hi < lo + delta, evaluated in the
    Laguerre domain around lo: a slice of the scan's tables here, O(I^2)
    per evaluation after it.

    Write tau = lo + d.  For t_n >= tau the addition formula
    L_k(x - s) = sum_{i<=k} L_i(x) L^{(-1)}_{k-i}(-s) (DLMF sec. 18.18) gives
    u(t_n - tau) = sum_i (u_i + a_i(d)) ell_i(t_n - lo), with
    a(d) = e^{pd} H L^{(-1)}(-2pd) - u, H_ij = u_{i+j}.  On the rows
    t_n >= lo, B = ell(t_n - lo) and q = z - B u are read from the scan's
    delta / 4 lattice: lo = i_lo delta / 4 (only the last grid point can be
    clamped off the lattice, and lo lies below it), so t_n - lo is lattice
    point 4n - i_lo and B u is the bank row of lo.  With n0 = #{t_n < tau},
    the same t_n >= tau cutoff as ``ml_negloglik``, the objective is
    delta (sum_{n<n0} z_n^2 + |q'|^2 - 2 a.B'^T q' + a.B'^T B' a)
    over the rows n >= n0 (primed).  Expanding about the residual q keeps
    the sum free of the |z|^2 cancellation.  In a bracket narrower than
    delta, n0 is n_lo = #{t_n < lo} or n_lo + 1, and its sums are cached.
    """
    p, hankel = table.p, table.hankel
    u = hankel[0]
    z, delta = data.z, data.delta
    lo = table.grid[i_lo]
    n_lo = -(-i_lo // 4)
    t_lo = n_lo * delta
    basis = table.basis[4 * n_lo - i_lo : 4 * z.size - 3 - i_lo : 4]
    resid = z[n_lo:] - table.model[i_lo, n_lo:]
    sums = {}

    def negloglik(tau: float) -> float:
        n0 = n_lo + (t_lo < tau)
        if n0 not in sums:
            b, q = basis[n0 - n_lo :], resid[n0 - n_lo :]
            sums[n0] = (z[:n0] @ z[:n0] + q @ q, b.T @ q, b.T @ b)
        head, cross, gram = sums[n0]
        shift = tau - lo
        w = hankel @ assoc_laguerre_sequence(-2.0 * p * shift, u.size)
        a = np.expm1(p * shift) * w + (w - u)
        return float(delta * (head - 2.0 * (a @ cross) + a @ gram @ a))

    return negloglik


def minimize_bounded(fn, a: float, b: float, xatol: float):
    """Minimum of fn inside [a, b] by bounded Brent (Brent 1973; ``fmin`` in
    Forsythe, Malcolm & Moler 1977): parabolic interpolation, safeguarded by
    golden-mean steps.  Returns (x, fn(x), evals).

    Brent never evaluates fn at a or b.  Stops once x is known to within
    about xatol plus sqrt(eps) |x|, or after 500 evaluations.  Step for step
    the bounded method of scipy's ``minimize_scalar``, in plain floats; the
    tests pin the two to the same (x, fn(x), evals).
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"bounds must be finite with a <= b, got ({a!r}, {b!r})")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    # xf is the best point so far, nfc the second best, fulc the previous nfc
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fn(xf)
    evals = 1
    fnfc = ffulc = fx
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three points, accepted when its step is
            # less than half the step before last and stays inside (a, b)
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm < xf else tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = fn(x)
        evals += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evals >= 500:
            break
    return xf, float(fx), evals


@dataclass(frozen=True, eq=False)
class MlTable:
    """ML scan and refine tables for one sampling: the grid at delta / 4 on
    [0, tau_max]; the basis ell_i(k delta / 4) on the delta / 4 lattice,
    k = 0 .. 4(N - 1), shape (4N - 3, I + 1); the noise-free model
    u(t_n - tau_i), one row per grid point, gathered from that lattice; the
    squared row norms ||u(t_n - tau_i)||^2; and the refine's p and Hankel
    matrix H_ij = u_{i+j} (zero past the end of u; its first row is u)."""

    grid: np.ndarray
    model: np.ndarray = field(repr=False)
    model_sq: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)
    hankel: np.ndarray = field(repr=False)
    p: float


def _check_scan_range(tau_max: float, delta: float, n_samples: int) -> None:
    """Refuse n_samples below 1, and tau_max outside (0, (N - 1) delta], the
    span of the data; NaN and infinity with it."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    span = (n_samples - 1) * delta
    if not 0.0 < tau_max <= span:
        raise ValueError(
            f"tau_max must lie in (0, (N - 1) * delta] = (0, {span:g}] s, got {tau_max!r}"
        )


def ml_table(design: InputDesign, delta: float, n_samples: int, tau_max: float) -> MlTable:
    """Scan grid, model bank and refine lattice of ``estimate_delay_ml`` for
    one sampling.

    With tau_i = i delta / 4 and t_n = n delta, u(t_n - tau_i) = u((4n - i)
    delta / 4): the basis is evaluated once on that lattice, for
    0 <= 4n - i <= 4(N - 1), u with it, zero below by causality, and the
    G x N bank gathered from it.  Only a last grid point clamped to tau_max
    lies off the lattice; its row is evaluated directly.  tau_max must lie
    in (0, (N - 1) delta], the span of the data; NaN and infinity are
    refused with it.
    """
    _check_scan_range(tau_max, delta, n_samples)
    step = delta / 4.0
    grid = np.arange(0.0, tau_max + step / 2.0, step)
    g = grid.size
    grid[-1] = min(grid[-1], tau_max)
    cfg, u = design.basis_config, design.u
    basis = eval_basis_matrix(cfg, np.arange(4 * n_samples - 3) * step)
    # row i, column n is lattice point 4n - i of u, shifted by the g - 1 zeros
    lattice = np.concatenate([np.zeros(g - 1), basis @ u])
    model = np.ascontiguousarray(sliding_window_view(lattice, 4 * n_samples - 3)[::-1, ::4])
    if grid[-1] != (g - 1) * step:
        model[-1] = eval_basis_matrix(cfg, np.arange(n_samples) * delta - grid[-1]) @ u
    index = np.add.outer(np.arange(u.size), np.arange(u.size))
    return MlTable(
        grid=grid, model=model, model_sq=np.einsum("ij,ij->i", model, model), basis=basis,
        hankel=np.concatenate([u, np.zeros(u.size - 1)])[index], p=design.p,
    )


def _ml_scan(table: MlTable, z: np.ndarray, delta: float) -> list[tuple[int, float]]:
    """Grid index of the least negative log-likelihood and its value, for
    each row of z, shape (b, N).

    The grid is ranked by s_i = ||m_i||^2 - 2 m_i . z, which is the residual
    ||z - m_i||^2 less the constant ||z||^2, with one matrix product of the
    block against the bank.  The product's rows change bits with the block
    size, so s only picks the rows that can win: each row whose s lies within
    8 N eps (||z|| + max_i ||m_i||)^2 of the least s is scored again as
    delta ||z - m_i||^2, the ``einsum`` over that one row, and the first
    least of these wins.  In any summation order s is off by at most about
    (N + 1) eps / 2 (||z|| + ||m_i||)^2 and the exact score's sum by
    (N + 3) eps / 2 ||z - m_i||^2, so the exact grid minimum lies within
    (2N + 5) eps (||z|| + max_i ||m_i||)^2 of the least s, which the bound
    covers about four times over.  So the result equals the first least of
    the exact objective over the whole grid bitwise, for any block size.
    """
    scores = table.model_sq - 2.0 * (z @ table.model.T)
    reach = np.linalg.norm(z, axis=-1) + math.sqrt(table.model_sq.max())
    bound = 8.0 * z.shape[-1] * np.finfo(float).eps * reach**2
    out = []
    for row, score, tol in zip(z, scores, bound):
        near = np.flatnonzero(score <= score.min() + tol)
        resid = row - table.model[near]
        objective = delta * np.einsum("ij,ij->i", resid, resid)
        k = int(np.argmin(objective))
        out.append((int(near[k]), float(objective[k])))
    return out


def estimate_delay_ml(
    data: Dataset, tables: ReplicateTables, stage: tuple[int, float] | None = None
) -> DelayEstimate:
    """Time-domain maximum likelihood.

    The objective ``ml_negloglik`` is non-convex, so a coarse scan at
    delta / 4 brackets the global minimum before ``minimize_bounded``
    refines it to ML_TAU_XATOL_FRACTION delta.  The refine evaluates the same
    objective in the Laguerre domain (``_refine_objective``): a shift of the
    delay recombines the input's basis functions exactly, so after one pass
    over the samples each evaluation costs O(I^2).  The scan grid and model
    bank are ``tables.ml``; ``stage`` is this row's scan minimum from
    ``_ml_scan``, which a block of replicates computes at once, and is
    computed here when None.  ``boundary_hit`` is true when the scan minimum
    is an end of the grid, tau = 0 or tau = tau_max: the estimate is then
    clamped to the search range, and the unconstrained minimum may lie
    outside it.
    There the refine first evaluates the objective that tolerance inside the
    end; unless that beats the scan, the estimate stays on the grid end
    without Brent.  A refine that does not beat the scan minimum leaves the
    estimate on that grid point with ``converged`` false.  ``refine_evals``
    counts every refine evaluation.
    """
    table = tables.ml
    grid = table.grid
    best, f_best = _ml_scan(table, data.z[None], data.delta)[0] if stage is None else stage
    boundary_hit = best in (0, grid.size - 1)
    i_lo = max(best - 1, 0)
    lo = grid[i_lo]
    hi = grid[min(best + 1, grid.size - 1)]
    fn = _refine_objective(data, table, i_lo)
    xatol = ML_TAU_XATOL_FRACTION * data.delta
    evals = 0
    converged = True
    if boundary_hit:
        # Brent takes up to 31 evaluations to close in on a grid end; one
        # just inside it tells whether the refine can beat the scan at all
        evals = 1
        converged = fn(grid[best] + (xatol if best == 0 else -xatol)) < f_best
    if converged:
        tau_ref, f_ref, brent_evals = minimize_bounded(fn, lo, hi, xatol)
        evals += brent_evals
        converged = f_ref <= f_best
    if not converged:
        tau_ref, f_ref = grid[best], f_best
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
            "boundary_hit": boundary_hit,
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
    _require("positive", noise_var=noise_var)
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

# The spline slope system S y = b, S = tridiag(1, 4, 1) with its first and
# last rows halved to (0.5, 1) and (1, 0.5).  Inside, 4 = 1/r + r with
# r = 2 - sqrt(3), so the bi-infinite (1, 4, 1) operator has the Green's
# function g_k = (-r)^|k| / sqrt(12) and the homogeneous solutions (-r)^i,
# (-r)^(-i).  g falls below 1e-18 past 32 taps, so the convolution with g
# is three products of 32 x 32 blocks: with the diagonal block, the one
# before and the one after.
_SPLINE_R = 2.0 - math.sqrt(3.0)
_SPLINE_TAPS = 32
_SPLINE_GREEN = [
    (-_SPLINE_R) ** np.abs(np.arange(_SPLINE_TAPS)[:, None] - np.arange(_SPLINE_TAPS) + shift)
    / math.sqrt(12.0)
    for shift in (0, _SPLINE_TAPS, -_SPLINE_TAPS)
]
_SPLINE_DECAY = (-_SPLINE_R) ** np.arange(2 * _SPLINE_TAPS)


def _solve_spline_system(rhs: np.ndarray) -> np.ndarray:
    """y with S y = rhs for each column of rhs, shape (N, m), N >= 4.

    A particular solution convolves the interior right-hand sides with g,
    which solves every interior row; then alpha (-r)^i + beta
    (-r)^(N - 1 - i) is added per column, with alpha and beta from the two
    end rows by one 2 x 2 solve.  Within about 1e-15 of a banded Cholesky
    solve, relative to the largest |y|.
    """
    n, m = rhs.shape
    taps, r = _SPLINE_TAPS, _SPLINE_R
    blocks = -(-n // taps)
    # one zero block on either side, rows 0 and N - 1 left out
    padded = np.zeros(((blocks + 2) * taps, m))
    padded[taps + 1 : taps + n - 1] = rhs[1:-1]
    padded = padded.reshape(blocks + 2, taps, m)
    diagonal, before, after = _SPLINE_GREEN
    y = diagonal @ padded[1:-1] + before @ padded[:-2] + after @ padded[2:]
    y = y.reshape(-1, m)[:n]
    # the end rows' residuals against (alpha, beta); the matrix is
    # [[a, c], [c, a]], a = 0.5 - r from 0.5 * 1 + (-r), and c the same rows
    # on the far solution, (-r)^(N - 2) (1 - r / 2)
    first = rhs[0] - (0.5 * y[0] + y[1])
    last = rhs[-1] - (y[-2] + 0.5 * y[-1])
    a = 0.5 - r
    c = (-r) ** (n - 2) * (1.0 - 0.5 * r)
    det = a * a - c * c
    # (-r)^i is below 1e-36 past the tabulated 64 rows
    rows = min(n, _SPLINE_DECAY.size)
    decay = _SPLINE_DECAY[:rows, None]
    y[:rows] += decay * ((a * first - c * last) / det)
    y[n - rows :] += decay[::-1] * ((a * last - c * first) / det)
    return y


def spline_table(p: float, num_funcs: int, delta: float, n_samples: int) -> np.ndarray:
    """Projection matrix of ``project_spectrum_spline`` for one sampling, one
    (K + 1) x N matrix P: P z is the quadrature of the not-a-knot cubic
    spline through z against the basis.

    On [t_i, t_{i+1}] the spline is the cubic Hermite interpolant of z_i,
    z_{i+1} and the knot slopes s_i, s_{i+1}, so at the quadrature nodes it
    is G_z z + G_s s.  The not-a-knot slopes solve the tridiagonal system
    A s = R z, with R a three-point difference stencil.  Halving A's first
    and last rows makes it symmetric positive definite, S = D A, so
    P = G_z + (S^{-1} G_s^T)^T D R: one tridiagonal solve with K + 1
    right-hand sides (``_solve_spline_system``), O(K N) in all.
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
    # A's rows are (1, 2), (1, 4, 1) ... (1, 4, 1), (2, 1), and D halves
    # the first and the last
    y = _solve_spline_system(g_s)
    # P^T = G_z^T + R^T D y: R's rows are 3 (z_{i+1} - z_{i-1}) / delta
    # inside and the one-sided stencils (-5, 4, 1) and (-1, -4, 5) / (2 delta)
    # at the ends, which D halves
    p_t = g_z
    p_t[2:] += (3.0 / delta) * y[1:-1]
    p_t[:-2] -= (3.0 / delta) * y[1:-1]
    p_t[:3] += np.outer([-5.0, 4.0, 1.0], y[0]) / (4.0 * delta)
    p_t[-3:] += np.outer([-1.0, -4.0, 5.0], y[-1]) / (4.0 * delta)
    return np.ascontiguousarray(p_t.T)


def project_spectrum_spline(data: Dataset, tables: ReplicateTables) -> np.ndarray:
    """Output spectrum via interpolation: cubic spline (not-a-knot) through
    the samples, then quadrature of spline(t) * ell_j(t) over the data
    support.

    The quadrature is composite Gauss-Legendre with one 6-point panel per
    sample interval, which integrates the piecewise-cubic factor exactly and
    the smooth basis factor to machine precision for p * delta << 1.  Both
    steps are linear in z, so the spectrum is one matrix-vector product
    with the projection matrix of ``spline_table``,
    ``tables.spectrum["lag_spline"]``.
    """
    return estimate_spectrum_ls(data, tables.spectrum["lag_spline"])


def estimate_delay_lag_spline(data: Dataset, tables: ReplicateTables) -> DelayEstimate:
    """Interpolation baseline: spline-projected output spectrum, then the
    Laguerre-domain Markov solve and closed-form delay ratio, as in
    ``proposed``."""
    y_hat = project_spectrum_spline(data, tables)
    h_hat, tau_hat = _laguerre_delay(y_hat, tables)
    return DelayEstimate(
        tau_hat=tau_hat,
        method="lag_spline",
        diagnostics={"y_hat": y_hat, "h_hat": h_hat, "m_markov": tables.m_markov},
    )


@dataclass(frozen=True, eq=False)
class CorrTable:
    """Reference input u(t_n) of the correlation baseline as the conjugates
    of two real FFTs: plain, and zero-padded to ``padded_len`` >= 2N - 1
    for the linear correlation."""

    padded_len: int
    u_spectrum_conj: np.ndarray = field(repr=False)
    u_padded_conj: np.ndarray = field(repr=False)


def _next_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, n >= 1: a length the real FFT factors
    into its fastest radices (``scipy.fft.next_fast_len(n, real=True)``)."""
    best = 1 << (n - 1).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5
        while odd < best:
            # the least power of two times odd that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        power5 *= 5
    return best


def corr_table(design: InputDesign, delta: float, n_samples: int) -> CorrTable:
    """Reference table of ``estimate_delay_freq_interp`` for one sampling."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    u_samples = synthesize_input(design, np.arange(n_samples) * delta)
    padded_len = _next_fast_len(2 * n_samples - 1)
    return CorrTable(
        padded_len=padded_len, u_spectrum_conj=np.conj(np.fft.rfft(u_samples)),
        u_padded_conj=np.conj(np.fft.rfft(u_samples, padded_len)),
    )


def _linear_correlation(z: np.ndarray, table: CorrTable) -> np.ndarray:
    """r(k) = sum_n z_{n+k} u(t_n), k = 0..N-1, for each row of z, shape
    (..., N), by FFT along the last axis: both signals are zero-padded to
    ``padded_len`` >= 2N - 1, so the circular product does not wrap."""
    size = table.padded_len
    return np.fft.irfft(np.fft.rfft(z, size) * table.u_padded_conj, size)[..., : z.shape[-1]]


def _freq_interp_spectra(z: np.ndarray, table: CorrTable) -> tuple[np.ndarray, np.ndarray]:
    """The FFT stage of ``estimate_delay_freq_interp`` for each row of z,
    shape (..., N): the linear cross-correlation and the circular
    cross-power spectrum.  Batched rows equal single rows bitwise."""
    # the circular spectrum, unlike the one-sided linear correlation, keeps
    # both flanks of the correlation peak, which the phase fit needs
    return _linear_correlation(z, table), np.fft.rfft(z) * table.u_spectrum_conj


def _freq_interp_stage(r: np.ndarray, spectrum: np.ndarray) -> list[tuple]:
    """The stage of ``estimate_delay_freq_interp`` for each row of a block
    of ``_freq_interp_spectra``, shape (b, ...): per row the spectrum, its
    amplitude on the bins 0 < m < N / 2, and the row reductions ptp(r), the
    first argmax of r and the largest amplitude on those bins (0 when there
    are none) and on every bin.  Each reduction is exact, so a row of a
    block equals the single row bitwise."""
    n = r.shape[-1]
    amp = np.abs(spectrum)
    level = amp[:, 1 : (n - 1) // 2 + 1]
    return list(zip(
        spectrum, level, np.ptp(r, axis=-1), np.argmax(r, axis=-1).tolist(),
        level.max(axis=-1, initial=0.0), amp.max(axis=-1),
    ))


def _freq_interp_delay(stage: tuple, n: int, delta: float) -> DelayEstimate:
    """The per-row tail of ``estimate_delay_freq_interp`` for N = n samples:
    correlation peak, then the phase-slope fit, from one row of
    ``_freq_interp_stage``."""
    spectrum, level, ptp, k_star, level_max, amp_max = stage
    if ptp == 0.0:
        raise FlatCorrelationError("cross-correlation is constant; data carry no alignment")
    # the fit uses the bins 0 < m < N / 2 whose shifted amplitude reaches the
    # threshold times the largest.  The shift leaves each amplitude within a
    # few ulp, so a bin below a hair under the threshold on |spectrum| cannot
    # reach it and the largest is never left out: the shift is formed only
    # on the other bins, and the bins kept are the same
    if level_max <= _FREQ_FLOOR * amp_max:
        raise FlatCorrelationError("no spectral bins above the amplitude threshold")
    m = 1 + np.flatnonzero(level >= _FREQ_CANDIDATE_LEVEL * level_max)
    # undo the integer-lag shift so only the subsample phase slope remains
    shifted = spectrum[m] * np.exp(2j * np.pi * m * k_star / n)
    amp = np.abs(shifted)
    usable = amp >= FREQ_AMP_THRESHOLD * amp.max()
    omega = 2.0 * np.pi * m[usable] / (n * delta)
    weights = amp[usable] ** 2
    # forward DFT kernel e^{-i omega t} makes a positive residual delay show
    # up as a negative phase slope
    per_bin = -np.angle(shifted[usable]) / omega
    delta_tau = float(weights @ per_bin / weights.sum())
    return DelayEstimate(
        tau_hat=k_star * delta + delta_tau,
        method="freq_interp",
        diagnostics={
            "k_star": k_star,
            "delta_tau": delta_tau,
            "n_bins": int(usable.sum()),
        },
    )


def estimate_delay_freq_interp(
    data: Dataset, tables: ReplicateTables, stage: tuple | None = None
) -> DelayEstimate:
    """Cross-correlation baseline with frequency-domain interpolation.

    The integer part is the first maximizer of the linear cross-correlation
    r(k) = sum_n z_{n+k} u(t_n), k >= 0, computed by zero-padded FFT; the
    subsample part is a power-weighted phase-slope fit on the circular
    cross-power spectrum after removing the integer shift.  The reference
    FFTs are ``tables.corr``.  ``stage`` is this row's FFT stage from
    ``_freq_interp_stage``, which a block of replicates computes at once,
    and is computed here when None.
    """
    if stage is None:
        r, spectrum = _freq_interp_spectra(data.z, tables.corr)
        stage = _freq_interp_stage(r[None], spectrum[None])[0]
    return _freq_interp_delay(stage, data.n_samples, data.delta)


ESTIMATORS = ("proposed", "ml", "lag_spline", "freq_interp")


@dataclass(frozen=True, eq=False)
class ReplicateTables:
    """Everything an estimate needs besides the data, for ``methods``: the
    design, the sampling (delta, N), the Markov order M (None unless
    ``proposed`` or ``lag_spline`` is among them) and each method's tables,
    which carry K and tau_max; ``markov`` is the reciprocal series v of u to
    K + 1 terms and ``spectrum`` maps ``proposed`` and ``lag_spline`` to
    their (K + 1) x N spectrum maps, R^{-1} Q^T and the projection matrix
    of ``spline_table``.  A part is None, and a map absent, when no method
    needs it or it failed to build.  ``errors`` maps a method to the
    LagDelayError that building one of its parts raised, IllConditionedError
    for ``proposed`` on a flagged basis among them."""

    methods: tuple
    design: InputDesign
    delta: float
    n_samples: int
    m_markov: int | None
    phi: SampledBasis | None
    markov: np.ndarray | None
    ml: MlTable | None
    spectrum: dict
    corr: CorrTable | None
    errors: dict


def build_replicate_tables(
    methods,
    design: InputDesign,
    *,
    delta: float,
    n_samples: int,
    k_model: int,
    tau_max: float,
    m_markov: int | None = None,
) -> ReplicateTables:
    """The tables ``methods`` need for data sampled at (delta, N), and the
    only place a table is built.

    Arguments no estimate could use raise ValueError here: an unknown
    method, K below the input order, M outside [3, K + 1], tau_max outside
    the data span.  A LagDelayError raised while building a part fails only
    the methods that need that part: it goes into ``errors``, and
    ``estimate_delay`` raises it for them.
    """
    methods = tuple(methods)
    for method in methods:
        if method not in ESTIMATORS:
            raise ValueError(f"unknown method {method!r}; choose from {ESTIMATORS}")
    m = None
    if "proposed" in methods or "lag_spline" in methods:
        m = markov_order(k_model, m_markov, len(design.u) - 1)
    errors = {}

    def part(needed_by, build, *args):
        users = [method for method in needed_by if method in methods]
        if not users:
            return None
        try:
            return build(*args)
        except LagDelayError as exc:
            for method in users:
                errors.setdefault(method, exc)
            return None

    k1 = k_model + 1
    phi = part(("proposed",), build_phi, BasisConfig(p=design.p, num_funcs=k1), delta, n_samples)
    markov = part(("proposed", "lag_spline"), reciprocal_series, design.u, k1)
    # L = R^{-1} Q^T is one small product; a general solve of R against Q^T
    # gives the same map to about 3e-16 relative at about eight times the cost
    # (0.34 against 0.04 ms at K = 12, N = 1667), and estimate builds per call
    spectrum = {
        "proposed": part(("proposed",), lambda: phi.r_inv() @ phi.q.T),
        "lag_spline": part(("lag_spline",), spline_table, design.p, k1, delta, n_samples),
    }
    return ReplicateTables(
        methods=methods, design=design, delta=delta, n_samples=n_samples, m_markov=m, phi=phi,
        markov=markov, ml=part(("ml",), ml_table, design, delta, n_samples, tau_max),
        spectrum={method: mat for method, mat in spectrum.items() if mat is not None},
        corr=part(("freq_interp",), corr_table, design, delta, n_samples),
        errors=errors,
    )


def _block_stage(method: str, z: np.ndarray, tables: ReplicateTables) -> list:
    """The stage of ``method`` for each row of z, shape (b, N), from one
    batched pass over the block: for ``ml`` the scan minimum of
    ``_ml_scan``, for ``freq_interp`` the FFT stage of
    ``_freq_interp_stage``.  None per row for a method with no stage, and
    for a method without tables, which ``estimate_delay`` then refuses.
    Each row equals the 1-row stage of that row bitwise."""
    if method in tables.methods and method not in tables.errors:
        if method == "ml":
            return _ml_scan(tables.ml, z, tables.delta)
        if method == "freq_interp":
            return _freq_interp_stage(*_freq_interp_spectra(z, tables.corr))
    return [None] * len(z)


def estimate_delay(
    method: str, data: Dataset, tables: ReplicateTables, stage=None
) -> DelayEstimate:
    """Run the estimator named ``method`` on ``data`` with ``tables`` from
    ``build_replicate_tables``.

    The data must be sampled as the tables were built, at the same delta
    and N; everything else is read from the tables.  A method whose tables
    failed to build raises the LagDelayError kept in ``tables.errors``.
    ``stage`` is the data's row of ``_block_stage``, from a block of
    replicates; when None, the estimator computes the 1-row stage itself.
    The estimators are looked up by their module-global names at call time, so a patched
    estimator is the one that runs.
    """
    if method not in tables.methods:
        raise ValueError(f"no tables for method {method!r}; they were built for {tables.methods}")
    for name in ("delta", "n_samples"):
        got, want = getattr(data, name), getattr(tables, name)
        if got != want:
            raise ValueError(f"dataset has {name} = {got!r}, but the tables were built for {want!r}")
    if method in tables.errors:
        raise tables.errors[method].with_traceback(None)
    if method == "proposed":
        return estimate_delay_proposed(data, tables)
    if method == "ml":
        return estimate_delay_ml(data, tables, stage)
    if method == "lag_spline":
        return estimate_delay_lag_spline(data, tables)
    return estimate_delay_freq_interp(data, tables, stage)
