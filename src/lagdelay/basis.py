"""Continuous Laguerre basis functions and their sampled matrix.

Provides closed-form evaluation of the basis functions ell_j(t), the
shifted-index Laguerre polynomials used by the delay operator, and the
sampled basis matrix Phi, tabulated from the same closed form, used for
spectrum estimation.

Sign convention used throughout the package: every basis function starts
positive, ell_j(0) = +sqrt(2p) for all j.  Closed forms and delay Markov
parameters are mutually consistent under it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedWarning

# Default ceiling on cond(Phi) before the basis is flagged as unusable for
# least squares.
DEFAULT_COND_THRESHOLD = 1e8


@dataclass(frozen=True)
class BasisConfig:
    """Continuous Laguerre basis: pole location p and number of functions."""

    p: float
    num_funcs: int

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
class SampledBasis:
    """Basis functions tabulated at the sample instants t_n = n*delta.

    matrix[n, j] = ell_j(n*delta); row 0 is all sqrt(2p).
    ``q`` and ``r`` are the thin QR factors of ``matrix``; every least-squares
    solve against this basis reuses them.
    """

    n_samples: int
    matrix: np.ndarray
    cond: float
    ill_conditioned: bool
    cond_threshold: float
    q: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)


def assoc_laguerre_sequence(xi: float, count: int) -> np.ndarray:
    """Shifted-index associated Laguerre polynomials L_0(xi) ... L_{count-1}(xi)
    by the stable upward recurrence
    L_{m+1}(xi) = ((2m - xi) L_m - (m - 1) L_{m-1}) / (m + 1).

    These are the alpha = -1 members of the generalized Laguerre family:
    L_0 = 1, L_1 = -xi, L_2 = xi^2/2 - xi, ...
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out = np.empty(count)
    out[0] = 1.0
    if count == 1:
        return out
    out[1] = -xi
    for m in range(1, count - 1):
        out[m + 1] = ((2.0 * m - xi) * out[m] - (m - 1.0) * out[m - 1]) / (m + 1.0)
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


def _causal_times(t) -> tuple[np.ndarray, np.ndarray]:
    """The mask t >= 0 and t with the rest set to 0, so that e^{-pt} is never
    taken at a negative time, where it can overflow."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    pos = t >= 0
    return pos, np.where(pos, t, 0.0)


def eval_basis_matrix(cfg: BasisConfig, t: np.ndarray) -> np.ndarray:
    """Analytic basis values ell_j(t) for j = 0..K, shape (len(t), K+1).

    ell_j(t) = sqrt(2p) e^{-pt} L_j(2pt) for t >= 0 and 0 for t < 0, with
    L_j the standard Laguerre polynomial.
    """
    pos, t = _causal_times(t)
    table = _std_laguerre_table(2.0 * cfg.p * t, cfg.k_max)
    envelope = np.where(pos, np.sqrt(2.0 * cfg.p) * np.exp(-cfg.p * t), 0.0)
    return envelope[..., None] * table


def eval_basis_derivative_matrix(cfg: BasisConfig, t: np.ndarray) -> np.ndarray:
    """Time derivatives d ell_j / dt, shape (len(t), K+1); 0 for t < 0.

    Uses L_j'(x) = -sum_{i<j} L_i(x), so
    ell_j'(t) = sqrt(2p) e^{-pt} (-p L_j(2pt) - 2p sum_{i<j} L_i(2pt)).
    """
    pos, t = _causal_times(t)
    table = _std_laguerre_table(2.0 * cfg.p * t, cfg.k_max)
    partial = np.zeros_like(table)
    if cfg.k_max >= 1:
        partial[..., 1:] = np.cumsum(table[..., :-1], axis=-1)
    envelope = np.where(pos, np.sqrt(2.0 * cfg.p) * np.exp(-cfg.p * t), 0.0)
    return envelope[..., None] * (-cfg.p * table - 2.0 * cfg.p * partial)


def build_phi(
    cfg: BasisConfig,
    delta: float,
    n_samples: int,
    cond_threshold: float = DEFAULT_COND_THRESHOLD,
) -> SampledBasis:
    """Sampled basis matrix Phi with rows ell(t_n), t_n = n*delta, from the
    closed form, and its thin QR factorization.

    cond(Phi) is read from R, which has the same singular values.  A
    condition number above ``cond_threshold`` flags the basis and emits
    an IllConditionedWarning; downstream least squares refuses flagged
    bases, signalling that delta, n_samples or p must be revised.
    """
    if not 0 < delta < np.inf:  # NaN too
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if not cond_threshold > 0:  # NaN too
        raise ValueError(f"cond_threshold must be positive, got {cond_threshold!r}")
    if n_samples < cfg.num_funcs:
        raise ValueError(
            f"need at least {cfg.num_funcs} samples for {cfg.num_funcs} basis functions"
        )
    matrix = eval_basis_matrix(cfg, np.arange(n_samples) * delta)
    q, r = np.linalg.qr(matrix, mode="reduced")
    # a BLAS product such as Q^T z rounds differently by memory layout, so Q
    # is kept in the Fortran order that LAPACK itself returns it in
    q = np.asfortranarray(q)
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
        n_samples=n_samples,
        matrix=matrix,
        cond=cond,
        ill_conditioned=flagged,
        cond_threshold=cond_threshold,
        q=q,
        r=r,
    )
