"""Shared fixtures and independent oracles for the test suite."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.interpolate import CubicSpline
from scipy.linalg import expm, qr

from lagdelay.basis import DEFAULT_COND_THRESHOLD, BasisConfig, SampledBasis, eval_basis_matrix
from lagdelay.delay_ops import Spectrum
from lagdelay.design import DesignProblem, optimize_design
from lagdelay.simulate import InputDesign


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


def state_space_basis(
    cfg: BasisConfig, delta: float, n_samples: int, cond_threshold: float = DEFAULT_COND_THRESHOLD
) -> SampledBasis:
    """``build_phi`` on the state-space matrix: the same thin QR, cond read
    from R and threshold flag (no warning).  Stands in for ``build_phi`` to
    compare a downstream result with the one the state-space Phi gives."""
    matrix = state_space_phi(cfg, delta, n_samples)
    q, r = qr(matrix, mode="economic", check_finite=False)
    cond = float(np.linalg.cond(r))
    return SampledBasis(
        p=cfg.p, k_max=cfg.k_max, delta=delta, n_samples=n_samples, matrix=matrix, cond=cond,
        ill_conditioned=not np.isfinite(cond) or cond > cond_threshold,
        cond_threshold=cond_threshold, q=q, r=r,
    )


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


def quadrature_delay_projection(u: Spectrum, tau: float, num_out: int) -> np.ndarray:
    """Projection of the analytically delayed signal onto the basis by
    adaptive quadrature; independent of the Markov-parameter path."""
    cfg_in = BasisConfig(p=u.p, num_funcs=len(u))
    cfg_out = BasisConfig(p=u.p, num_funcs=num_out)

    def integrand(s):
        val = eval_basis_matrix(cfg_in, s - tau)[0] @ u.coeffs
        return val * eval_basis_matrix(cfg_out, s)[0]

    hi = tau + 60.0 / u.p
    out, _ = quad_vec(integrand, tau, hi, epsabs=1e-13, epsrel=1e-11)
    return out


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
    u = Spectrum(np.array([0.8, 0.4, -0.4, -0.8]), p)
    return InputDesign(
        p=p, u=u, energy_bound=2.0, horizon=0.5, delta=3e-4, tau_guess=3e-4
    )


@pytest.fixture(scope="session")
def slow_design() -> InputDesign:
    """Lower-rate design used where a coarser grid keeps tests fast."""
    p = 20.0
    u = Spectrum(np.array([1.0, 0.5, -0.5, -1.0]), p)
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
