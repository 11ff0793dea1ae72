"""Laguerre-domain model of a pure time delay.

The delay acts on Laguerre spectra as a causal convolution with Markov
parameters h_m(kappa) = e^{-kappa/2} L_m(kappa), kappa = 2 p tau.  Three
consecutive Markov parameters satisfy a linear relation in kappa, which
stacks into the vector identity A = kappa B and yields a closed-form delay
estimate from any (noisy) Markov sequence.
"""

from __future__ import annotations

import functools

import numpy as np

from .basis import assoc_laguerre_sequence
from .errors import DegenerateBError, SingularInputError, _require

# |u_0| at or below this times the row's largest |u_k| is treated as a
# singular input operator; the rule reads the same on u and on c u.
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


@functools.lru_cache(maxsize=8)
def _toeplitz_index(size: int) -> np.ndarray:
    """Gather index of a size x size lower-triangular Toeplitz operator over
    a column padded with one zero: j - k on and below the diagonal, the
    padding slot ``size`` above it.  Read-only, since every call shares it."""
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    index = np.where(lag >= 0, lag, size)
    index.flags.writeable = False
    return index


def build_toeplitz(input_spec: np.ndarray, size: int) -> np.ndarray:
    """Lower-triangular Toeplitz operator T(U) with (j, k) entry u_{j-k}.

    The last axis of ``input_spec`` holds the coefficients; leading axes
    are a batch and give a stack of operators of shape (..., size, size).
    Coefficients beyond the stored spectrum are zero.  Only lays the
    coefficients out; ``reciprocal_series`` owns the u_0 rule.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    u = np.asarray(input_spec, dtype=float)
    col = np.zeros(u.shape[:-1] + (size + 1,))
    n = min(size, u.shape[-1])
    col[..., :n] = u[..., :n]
    return col[..., _toeplitz_index(size)]


def reciprocal_series(input_spec: np.ndarray, size: int) -> np.ndarray:
    """First ``size`` coefficients v of the power series 1 / u(z), per row.

    The inverse of a lower-triangular Toeplitz matrix is lower-triangular
    Toeplitz, so T(v) = T(U)^{-1} (Commenges & Monsion, IEEE TAC 1984).
    v solves T(U) v = e_0 by forward substitution,
    v_n = -(u_1 v_{n-1} + ... + u_k v_{n-k}) / u_0 with k = min(n, I), the
    products summed left to right from 0.0.  One row runs on Python floats,
    a batch on its coefficient columns; each step is the same IEEE
    operation on every element, so a batch row is bitwise the row alone.
    Accepts the same shapes as build_toeplitz.  Raises SingularInputError
    when any row has |u_0| <= U0_TOLERANCE max_k |u_k|.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    u = np.asarray(input_spec, dtype=float)
    largest = np.abs(u).max(axis=-1, keepdims=True)
    small = np.abs(u[..., :1]) <= U0_TOLERANCE * largest
    if small.any():
        raise SingularInputError(
            f"leading input coefficient u_0 = {u[..., :1][small][0]:.3e} is not above "
            f"{U0_TOLERANCE:.0e} times the row's largest |u_k| = {largest[small][0]:.3e}; "
            "the input design must satisfy u_0 != 0"
        )
    u0, *tail = u.tolist() if u.ndim == 1 else np.moveaxis(u, -1, 0)
    v = [1.0 / u0]
    for _ in range(1, size):
        acc = 0.0
        # u_i pairs with v_{n-i}; zip stops after min(n, I) products
        for a, b in zip(tail, v[::-1]):
            acc += a * b
        v.append(-acc / u0)
    return np.array(v) if u.ndim == 1 else np.stack(v, axis=-1)


def inverse_toeplitz(input_spec: np.ndarray, size: int) -> np.ndarray:
    """T(U)^{-1} = T(v) of each coefficient row, shape (..., size, size);
    raises SingularInputError under the u_0 rule of ``reciprocal_series``."""
    return build_toeplitz(reciprocal_series(input_spec, size), size)


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
