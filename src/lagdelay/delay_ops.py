"""Laguerre-domain model of a pure time delay.

The delay acts on Laguerre spectra as a causal convolution with Markov
parameters h_m(kappa) = e^{-kappa/2} L_m(kappa), kappa = 2 p tau.  Three
consecutive Markov parameters satisfy a linear relation in kappa, which
stacks into the vector identity A = kappa B and yields a closed-form delay
estimate from any (noisy) Markov sequence.
"""

from __future__ import annotations

import numpy as np

from .basis import assoc_laguerre_sequence
from .errors import DegenerateBError, SingularInputError, _require

# |u_0| below this is treated as a singular input operator.
U0_TOLERANCE = 1e-12

# B^T B below this means every usable Markov parameter is numerically zero.
BTB_TOLERANCE = 1e-20


def markov_params(kappa: float, m_count: int) -> np.ndarray:
    """First m_count Markov parameters h_0 ... h_{M-1} of a delay with
    normalized value kappa = 2 p tau."""
    _require("nonnegative", kappa=kappa)
    if m_count < 1:
        raise ValueError("need at least one Markov parameter")
    return np.exp(-kappa / 2.0) * assoc_laguerre_sequence(kappa, m_count)


def _leading_coefficients(u: np.ndarray) -> np.ndarray:
    """A (batch of) coefficient rows as a float array, after checking every
    leading coefficient against U0_TOLERANCE."""
    coeffs = np.asarray(u, dtype=float)
    u0 = np.asarray(coeffs[..., 0])
    small = np.abs(u0) < U0_TOLERANCE
    if np.any(small):
        raise SingularInputError(
            f"leading input coefficient u_0 = {u0[small].flat[0]:.3e} is below "
            f"{U0_TOLERANCE:.0e}; the input design must satisfy u_0 != 0"
        )
    return coeffs


def build_toeplitz(input_spec: np.ndarray, size: int) -> np.ndarray:
    """Lower-triangular Toeplitz operator T(U) with (j, k) entry u_{j-k}.

    The last axis of ``input_spec`` holds the coefficients; leading axes
    are a batch and give a stack of operators of shape (..., size, size).
    Coefficients beyond the stored spectrum are zero.  Raises
    SingularInputError when any u_0 is numerically zero.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    u = _leading_coefficients(input_spec)
    col = np.zeros(u.shape[:-1] + (size,))
    n = min(size, u.shape[-1])
    col[..., :n] = u[..., :n]
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    return np.where(lag >= 0, col[..., np.maximum(lag, 0)], 0.0)


def reciprocal_series(input_spec: np.ndarray, size: int) -> np.ndarray:
    """First ``size`` coefficients v of the power series 1 / u(z), per row.

    The inverse of a lower-triangular Toeplitz matrix is lower-triangular
    Toeplitz, so T(v) = T(U)^{-1} (Commenges & Monsion, IEEE TAC 1984).
    v solves T(U) v = e_0 by forward substitution.  Accepts the same
    shapes as build_toeplitz and raises SingularInputError under the same
    u_0 rule.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    u = _leading_coefficients(input_spec)
    v = np.zeros(u.shape[:-1] + (size,))
    v[..., 0] = 1.0 / u[..., 0]
    for n in range(1, size):
        k = min(n, u.shape[-1] - 1)
        acc = np.add.reduce(u[..., 1 : k + 1] * v[..., n - k : n][..., ::-1], axis=-1)
        v[..., n] = -acc / u[..., 0]
    return v


def assemble_ab(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack the delay relations kappa h_m = 2m h_m - (m+1) h_{m+1} -
    (m-1) h_{m-1}, rows m = 0..M-2, as A = kappa B with B = h_{0..M-2}.
    Returns (A, B).

    The Markov index is the last axis of ``h``; leading axes are a batch,
    applied elementwise, so a batch row is bitwise the same row alone.  B is
    a view of ``h``.  For exact Markov sequences A = kappa B holds entrywise.
    """
    values = np.asarray(h, dtype=float)
    m_count = values.shape[-1]
    if m_count < 3:
        raise ValueError("need at least three Markov parameters")
    m = np.arange(m_count - 1, dtype=float)
    vec_b = values[..., :-1]
    vec_a = 2.0 * m * vec_b - (m + 1.0) * values[..., 1:]
    # row 0 has no h_{-1} term
    vec_a[..., 1:] -= (m[1:] - 1.0) * vec_b[..., :-1]
    return vec_a, vec_b


def closed_form_delay(vec_a: np.ndarray, vec_b: np.ndarray, p: float) -> float:
    """Delay from the vector identity A = 2 p tau B:
    tau = (B^T A) / (2 p B^T B)."""
    btb = float(vec_b @ vec_b)
    if btb < BTB_TOLERANCE:
        raise DegenerateBError(
            f"B^T B = {btb:.3e} is numerically zero; all usable Markov "
            "parameters vanished, kappa cannot be estimated"
        )
    return float(vec_b @ vec_a) / (2.0 * p * btb)
