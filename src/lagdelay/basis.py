"""Continuous Laguerre basis functions and their sampled realization.

Provides closed-form evaluation of the basis functions ell_j(t), the
shifted-index Laguerre polynomials used by the delay operator, the
continuous LTI state-space realization of the basis, its impulse-invariant
discretization, and the sampled basis matrix Phi used for spectrum
estimation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, qr

from .errors import IllConditionedWarning

# Sign convention used throughout the package: every basis function starts
# positive, ell_j(0) = +sqrt(2p) for all j.  Closed forms, state-space
# matrices and delay Markov parameters are mutually consistent under it.
SIGN_CONVENTION = "ell_j(0) = +sqrt(2p) for all j"

# Largest polynomial order evaluated by the explicit finite sum with exact
# binomials; above it the three-term recurrence takes over.
DIRECT_SUM_MAX_ORDER = 12

# Default ceiling on cond(Phi) before the basis is flagged as unusable for
# least squares.
DEFAULT_COND_THRESHOLD = 1e8


@dataclass(frozen=True)
class BasisConfig:
    """Continuous Laguerre basis: pole location p and number of functions."""

    p: float
    num_funcs: int
    sign_convention: str = SIGN_CONVENTION

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"Laguerre parameter must be positive, got {self.p}")
        if self.num_funcs < 1:
            raise ValueError(f"need at least one basis function, got {self.num_funcs}")

    @property
    def k_max(self) -> int:
        """Highest basis index K (num_funcs = K + 1)."""
        return self.num_funcs - 1


@dataclass(frozen=True, eq=False)
class ContinuousRealization:
    """State-space realization whose impulse response stacks the basis
    functions: state j of exp(A_c t) B_c equals ell_j(t)."""

    a_c: np.ndarray
    b_c: np.ndarray
    p: float
    k_max: int


@dataclass(frozen=True, eq=False)
class SampledBasis:
    """Basis functions tabulated at the sample instants t_n = n*delta.

    matrix[n, j] = ell_j(n*delta); row 0 equals b_c (all sqrt(2p)).
    ``q`` and ``r`` are the thin QR factors of ``matrix``; every least-squares
    solve against this basis reuses them.
    """

    p: float
    k_max: int
    delta: float
    n_samples: int
    matrix: np.ndarray
    cond: float
    ill_conditioned: bool
    cond_threshold: float
    q: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)


def assoc_laguerre_poly(m: int, xi: float) -> float:
    """Shifted-index associated Laguerre polynomial L_m(xi).

    These are the alpha = -1 members of the generalized Laguerre family:
    L_0 = 1, L_1 = -xi, L_2 = xi^2/2 - xi, ...  Orders up to
    DIRECT_SUM_MAX_ORDER use the explicit finite sum with exact binomial
    coefficients; higher orders use the three-term recurrence.
    """
    if m < 0:
        raise ValueError("polynomial order must be nonnegative")
    if m == 0:
        return 1.0
    if m <= DIRECT_SUM_MAX_ORDER:
        # sum_{n=1}^{m} binom(m-1, n-1) (-xi)^n / n! ; the n = 0 term
        # vanishes for m >= 1.
        acc = 0.0
        for n in range(1, m + 1):
            acc += math.comb(m - 1, n - 1) * (-xi) ** n / math.factorial(n)
        return acc
    l_prev = 1.0
    l_curr = -xi
    for mm in range(1, m):
        l_prev, l_curr = l_curr, assoc_laguerre_recurrence(l_prev, l_curr, mm, xi)
    return l_curr


def assoc_laguerre_recurrence(l_prev: float, l_curr: float, m: int, xi: float) -> float:
    """Advance the shifted-index polynomials one order: given L_{m-1} and
    L_m at xi, return L_{m+1}(xi) = ((2m - xi) L_m - (m - 1) L_{m-1}) / (m + 1).
    """
    if m < 1:
        raise ValueError("recurrence starts at m = 1")
    return ((2.0 * m - xi) * l_curr - (m - 1.0) * l_prev) / (m + 1.0)


def assoc_laguerre_sequence(xi: float, count: int) -> np.ndarray:
    """L_0(xi) ... L_{count-1}(xi) by the stable upward recurrence."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty(count)
    out[0] = 1.0
    if count == 1:
        return out
    out[1] = -xi
    for m in range(1, count - 1):
        out[m + 1] = assoc_laguerre_recurrence(out[m - 1], out[m], m, xi)
    return out


def _std_laguerre_table(x: np.ndarray, j_max: int) -> np.ndarray:
    """Standard Laguerre polynomials L_j(x), j = 0..j_max, shape (len(x), j_max+1).

    Upward recurrence (j+1) L_{j+1} = (2j + 1 - x) L_j - j L_{j-1}.
    """
    x = np.asarray(x, dtype=float)
    table = np.empty(x.shape + (j_max + 1,))
    table[..., 0] = 1.0
    if j_max >= 1:
        table[..., 1] = 1.0 - x
    for j in range(1, j_max):
        table[..., j + 1] = ((2 * j + 1 - x) * table[..., j] - j * table[..., j - 1]) / (j + 1)
    return table


def eval_basis_matrix(cfg: BasisConfig, t: np.ndarray) -> np.ndarray:
    """Analytic basis values ell_j(t) for j = 0..K, shape (len(t), K+1).

    ell_j(t) = sqrt(2p) e^{-pt} L_j(2pt) for t >= 0 and 0 for t < 0, with
    L_j the standard Laguerre polynomial.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    pos = t >= 0
    x = np.where(pos, 2.0 * cfg.p * t, 0.0)
    table = _std_laguerre_table(x, cfg.k_max)
    envelope = np.where(pos, np.sqrt(2.0 * cfg.p) * np.exp(-cfg.p * t), 0.0)
    return envelope[..., None] * table


def eval_basis_time(cfg: BasisConfig, j: int, t) -> float | np.ndarray:
    """Single analytic basis function ell_j at time(s) t."""
    if not 0 <= j <= cfg.k_max:
        raise ValueError(f"basis index {j} outside 0..{cfg.k_max}")
    vals = eval_basis_matrix(cfg, np.atleast_1d(t))[:, j]
    return float(vals[0]) if np.isscalar(t) else vals


def eval_basis_derivative_matrix(cfg: BasisConfig, t: np.ndarray) -> np.ndarray:
    """Time derivatives d ell_j / dt, shape (len(t), K+1); 0 for t < 0.

    Uses L_j'(x) = -sum_{i<j} L_i(x), so
    ell_j'(t) = sqrt(2p) e^{-pt} (-p L_j(2pt) - 2p sum_{i<j} L_i(2pt)).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    pos = t >= 0
    x = np.where(pos, 2.0 * cfg.p * t, 0.0)
    table = _std_laguerre_table(x, cfg.k_max)
    partial = np.zeros_like(table)
    if cfg.k_max >= 1:
        partial[..., 1:] = np.cumsum(table[..., :-1], axis=-1)
    envelope = np.where(pos, np.sqrt(2.0 * cfg.p) * np.exp(-cfg.p * t), 0.0)
    return envelope[..., None] * (-cfg.p * table - 2.0 * cfg.p * partial)


def build_continuous_ss(cfg: BasisConfig) -> ContinuousRealization:
    """Lower-triangular realization of the basis: diagonal -p, strictly
    lower entries -2p, input vector all sqrt(2p)."""
    n = cfg.num_funcs
    a_c = np.tril(np.full((n, n), -2.0 * cfg.p), -1) + np.diag(np.full(n, -cfg.p))
    b_c = np.full(n, np.sqrt(2.0 * cfg.p))
    return ContinuousRealization(a_c=a_c, b_c=b_c, p=cfg.p, k_max=cfg.k_max)


def discretize_impulse_invariant(
    real: ContinuousRealization, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Impulse-invariant discrete pair: A_d = expm(A_c delta), B_d = A_d B_c."""
    if delta < 0:
        raise ValueError("sampling time must be nonnegative")
    a_d = expm(real.a_c * delta)
    return a_d, a_d @ real.b_c


def _impulse_state_sequence(a_d: np.ndarray, b_c: np.ndarray, n: int) -> np.ndarray:
    """Rows A_d^0 B_c ... A_d^{n-1} B_c, computed by doubling, shape (n, dim)."""
    states = b_c[:, None]
    power = a_d
    while states.shape[1] < n:
        states = np.hstack([states, power @ states])
        power = power @ power
    return states[:, :n].T


def build_phi(
    cfg: BasisConfig,
    delta: float,
    n_samples: int,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> SampledBasis:
    """Sampled basis matrix Phi with rows ell(t_n) = A_d^n B_c, and its thin
    QR factorization.

    cond(Phi) is read from R, which has the same singular values.  A
    condition number above ``cond_threshold`` flags the basis and emits
    an IllConditionedWarning; downstream least squares refuses flagged
    bases, signalling that delta, n_samples or p must be revised.
    """
    if delta <= 0:
        raise ValueError("sampling time must be positive")
    if n_samples < cfg.num_funcs:
        raise ValueError(
            f"need at least {cfg.num_funcs} samples for {cfg.num_funcs} basis functions"
        )
    real = build_continuous_ss(cfg)
    a_d, _ = discretize_impulse_invariant(real, delta)
    matrix = _impulse_state_sequence(a_d, real.b_c, n_samples)
    q, r = qr(matrix, mode="economic", check_finite=False)
    cond = float(np.linalg.cond(r))
    flagged = not np.isfinite(cond) or cond > cond_threshold
    if flagged:
        warnings.warn(
            IllConditionedWarning(
                f"cond(Phi) = {cond:.3e} exceeds {cond_threshold:.3e}; "
                "revise delta, n_samples or p"
            )
        )
    return SampledBasis(
        p=cfg.p,
        k_max=cfg.k_max,
        delta=delta,
        n_samples=n_samples,
        matrix=matrix,
        cond=cond,
        ill_conditioned=flagged,
        cond_threshold=cond_threshold,
        q=q,
        r=r,
    )
