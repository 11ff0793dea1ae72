"""Shared fixtures and independent oracles for the test suite."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad_vec

from lagdelay.basis import BasisConfig, eval_basis_matrix
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
