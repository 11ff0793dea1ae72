"""Basis-layer tests: polynomials, closed forms, state space, sampling."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lagdelay.basis import (
    DEFAULT_COND_THRESHOLD,
    BasisConfig,
    assoc_laguerre_recurrence,
    assoc_laguerre_sequence,
    build_continuous_ss,
    build_phi,
    discretize_impulse_invariant,
    eval_basis_derivative_matrix,
    eval_basis_matrix,
)
from lagdelay.errors import IllConditionedWarning

from conftest import exact_assoc_laguerre


def _poly(m: int, xi: float) -> float:
    """L_m(xi) read off the recurrence-generated sequence."""
    return assoc_laguerre_sequence(xi, m + 1)[m]


class TestAssocLaguerrePoly:
    def test_order_zero_is_one(self):
        for xi in [-3.0, 0.0, 1.7, 50.0]:
            assert _poly(0, xi) == 1.0

    def test_order_one(self):
        for xi in [0.0, 0.3, 11.0]:
            assert_allclose(_poly(1, xi), -xi, rtol=1e-15)

    def test_order_two_root_at_two(self):
        # L_2 = xi^2/2 - xi vanishes at xi = 2
        assert _poly(2, 2.0) == pytest.approx(0.0, abs=1e-15)
        for xi in [0.5, 4.0]:
            assert_allclose(_poly(2, xi), xi**2 / 2 - xi, rtol=1e-14)

    def test_order_three_hand_expansion(self):
        for xi in [0.25, 1.0, 6.0]:
            expected = -(xi**3) / 6 + xi**2 - xi
            assert_allclose(_poly(3, xi), expected, rtol=1e-13)

    def test_against_exact_rational_sum(self):
        for m in range(0, 31):
            for xi in [0.1, 1.0, 5.0, 20.0, 50.0]:
                exact = exact_assoc_laguerre(m, xi)
                got = _poly(m, xi)
                assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_negative_order_rejected(self):
        # L_{-1} is requested as an empty sequence
        with pytest.raises(ValueError):
            assoc_laguerre_sequence(1.0, 0)


class TestRecurrence:
    def test_reproduces_order_two(self):
        for xi in [0.0, 0.7, 2.0, 13.0]:
            got = assoc_laguerre_recurrence(1.0, -xi, 1, xi)
            assert_allclose(got, xi**2 / 2 - xi, rtol=1e-14, atol=1e-15)

    def test_zero_argument(self):
        assert assoc_laguerre_recurrence(1.0, 0.0, 1, 0.0) == 0.0

    def test_order_three_at_one(self):
        l2 = assoc_laguerre_recurrence(1.0, -1.0, 1, 1.0)
        l3 = assoc_laguerre_recurrence(-1.0, l2, 2, 1.0)
        assert_allclose(l3, -1.0 / 6.0, rtol=1e-14)

    def test_consistent_with_direct_evaluation(self):
        # recurrence-generated sequence vs exact rational direct sum
        for xi in np.linspace(0.0, 50.0, 11):
            seq = assoc_laguerre_sequence(float(xi), 31)
            for m in range(31):
                exact = exact_assoc_laguerre(m, float(xi))
                assert seq[m] == pytest.approx(exact, rel=1e-8, abs=1e-10)


class TestClosedForms:
    def test_zeroth_function_is_pure_exponential(self):
        cfg = BasisConfig(p=3.0, num_funcs=1)
        t = np.linspace(0, 2, 57)
        assert_allclose(
            eval_basis_matrix(cfg, t)[:, 0], np.sqrt(6.0) * np.exp(-3.0 * t), rtol=1e-14
        )

    def test_value_at_zero_is_sqrt_2p(self):
        cfg = BasisConfig(p=7.5, num_funcs=6)
        row = eval_basis_matrix(cfg, np.array([0.0]))[0]
        assert_allclose(row, np.sqrt(15.0), rtol=1e-15)

    def test_scalar_p_half(self):
        cfg = BasisConfig(p=0.5, num_funcs=1)
        assert eval_basis_matrix(cfg, 0.0)[0, 0] == pytest.approx(1.0)

    def test_first_function_form(self):
        cfg = BasisConfig(p=2.0, num_funcs=2)
        t = np.linspace(0, 3, 40)
        expected = 2.0 * np.exp(-2.0 * t) * (1 - 4.0 * t)
        assert_allclose(eval_basis_matrix(cfg, t)[:, 1], expected, rtol=1e-13, atol=1e-15)

    def test_zero_before_time_origin(self):
        cfg = BasisConfig(p=2.0, num_funcs=3)
        assert np.all(eval_basis_matrix(cfg, np.array([-0.5, -1e-12])) == 0.0)

    def test_derivative_matches_finite_differences(self):
        cfg = BasisConfig(p=4.0, num_funcs=8)
        t = np.linspace(0.05, 2.0, 23)
        h = 1e-7
        fd = (eval_basis_matrix(cfg, t + h) - eval_basis_matrix(cfg, t - h)) / (2 * h)
        assert_allclose(eval_basis_derivative_matrix(cfg, t), fd, rtol=1e-6, atol=1e-8)


class TestStateSpace:
    def test_pattern_p1_k1(self):
        real = build_continuous_ss(BasisConfig(p=1.0, num_funcs=2))
        assert_allclose(real.a_c, [[-1.0, 0.0], [-2.0, -1.0]])
        assert_allclose(real.b_c, [np.sqrt(2.0)] * 2)

    def test_scalar_case(self):
        real = build_continuous_ss(BasisConfig(p=1.0, num_funcs=1))
        assert_allclose(real.a_c, [[-1.0]])
        assert_allclose(real.b_c, [np.sqrt(2.0)])

    def test_structure_p20_k6(self):
        real = build_continuous_ss(BasisConfig(p=20.0, num_funcs=7))
        assert real.a_c.shape == (7, 7)
        assert_allclose(np.diag(real.a_c), -20.0)
        low = real.a_c[np.tril_indices(7, -1)]
        assert_allclose(low, -40.0)
        assert np.all(real.a_c[np.triu_indices(7, 1)] == 0.0)

    def test_discretize_scalar(self):
        real = build_continuous_ss(BasisConfig(p=1.0, num_funcs=1))
        a_d, b_d = discretize_impulse_invariant(real, 1.0)
        assert_allclose(a_d, [[np.exp(-1.0)]], rtol=1e-15)
        assert_allclose(b_d, [np.sqrt(2.0) * np.exp(-1.0)], rtol=1e-15)

    def test_discretize_zero_step(self):
        real = build_continuous_ss(BasisConfig(p=1.0, num_funcs=2))
        a_d, b_d = discretize_impulse_invariant(real, 0.0)
        assert_allclose(a_d, np.eye(2))
        assert_allclose(b_d, real.b_c)

    def test_state_sequence_matches_analytic(self):
        cfg = BasisConfig(p=20.0, num_funcs=7)
        real = build_continuous_ss(cfg)
        a_d, _ = discretize_impulse_invariant(real, 1e-4)
        n = 2000
        state = real.b_c.copy()
        seq = np.empty((n, 7))
        for i in range(n):
            seq[i] = state
            state = a_d @ state
        t = np.arange(n) * 1e-4
        analytic = eval_basis_matrix(cfg, t)
        scale = np.sqrt(2 * cfg.p)
        assert np.max(np.abs(seq - analytic)) < 1e-9 * scale


class TestBuildPhi:
    def test_row_zero_is_b_c(self):
        cfg = BasisConfig(p=11.0, num_funcs=5)
        phi = build_phi(cfg, 1e-3, 10)
        assert_allclose(phi.matrix[0], np.sqrt(22.0), rtol=1e-15)

    def test_matches_analytic_to_1e9(self):
        cfg = BasisConfig(p=20.0, num_funcs=7)
        phi = build_phi(cfg, 1e-4, 5001)
        analytic = eval_basis_matrix(cfg, np.arange(5001) * 1e-4)
        scale = np.sqrt(2 * cfg.p)
        mixed = np.abs(phi.matrix - analytic) / np.maximum(np.abs(analytic), scale)
        assert mixed.max() < 1e-9

    def test_full_rank_at_minimal_samples(self):
        cfg = BasisConfig(p=5.0, num_funcs=4)
        phi = build_phi(cfg, 0.01, 4)
        assert np.linalg.matrix_rank(phi.matrix) == 4

    def test_gram_approaches_identity(self):
        cfg = BasisConfig(p=20.0, num_funcs=7)
        for delta, bound in [(1e-4, 1e-2), (1e-5, 1e-3)]:
            n = int(round(2.0 / delta)) + 1
            phi = build_phi(cfg, delta, n)
            gram = delta * phi.matrix.T @ phi.matrix
            assert np.abs(gram - np.eye(7)).max() < bound

    def test_gram_regression_short_horizon(self):
        # At T = 0.5 the 6th function keeps a third of its energy beyond the
        # horizon, so the Gram deviation saturates; measured value frozen.
        cfg = BasisConfig(p=20.0, num_funcs=7)
        phi = build_phi(cfg, 1e-4, 5001)
        gram = 1e-4 * phi.matrix.T @ phi.matrix
        dev = np.abs(gram - np.eye(7)).max()
        assert dev == pytest.approx(0.32973, rel=1e-3)

    def test_ill_conditioned_flag_and_warning(self):
        cfg = BasisConfig(p=20.0, num_funcs=7)
        with pytest.warns(IllConditionedWarning):
            phi = build_phi(cfg, 1e-4, 5001, cond_threshold=1.0)
        assert phi.ill_conditioned
        assert phi.cond > 1.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            build_phi(BasisConfig(p=1.0, num_funcs=4), 0.1, 3)


# (delta, n_samples, num_funcs) of the section 7.2 and 7.1 design problems,
# scanned over the design optimizer's default p grid
SECTION7_SAMPLINGS = [(3e-4, 1667, 13), (1e-4, 5001, 7)]
SECTION7_P_GRID = np.geomspace(1.0, 200.0, 40)


class TestBasisFactors:
    @pytest.mark.parametrize("delta,n,k1", SECTION7_SAMPLINGS)
    def test_thin_qr_reproduces_phi(self, delta, n, k1):
        for p in [20.0, 37.3, 150.0]:
            phi = build_phi(BasisConfig(p=p, num_funcs=k1), delta, n)
            assert phi.q.shape == (n, k1) and phi.r.shape == (k1, k1)
            assert_allclose(phi.q.T @ phi.q, np.eye(k1), rtol=0, atol=1e-13)
            assert np.array_equal(phi.r, np.triu(phi.r))
            scale = np.abs(phi.matrix).max()
            assert_allclose(phi.q @ phi.r, phi.matrix, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("delta,n,k1", SECTION7_SAMPLINGS)
    def test_cond_and_flag_match_svd(self, delta, n, k1):
        for p in SECTION7_P_GRID:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IllConditionedWarning)
                phi = build_phi(BasisConfig(p=float(p), num_funcs=k1), delta, n)
            svd_cond = np.linalg.cond(phi.matrix)
            assert phi.cond == pytest.approx(svd_cond, rel=1e-12)
            assert phi.ill_conditioned == (svd_cond > DEFAULT_COND_THRESHOLD)

    def test_flag_just_above_threshold(self):
        # section 7.2 grid point p ~ 7.674 has cond(Phi) ~ 1.0106e8, about 1%
        # above the default threshold
        p = float(SECTION7_P_GRID[15])
        assert p == pytest.approx(7.674, rel=1e-4)
        with pytest.warns(IllConditionedWarning):
            phi = build_phi(BasisConfig(p=p, num_funcs=13), 3e-4, 1667)
        assert phi.ill_conditioned
        assert phi.cond == pytest.approx(1.0106e8, rel=1e-4)


class TestConfigValidation:
    def test_p_must_be_positive(self):
        with pytest.raises(ValueError):
            BasisConfig(p=0.0, num_funcs=3)
        with pytest.raises(ValueError):
            BasisConfig(p=-2.0, num_funcs=3)

    def test_num_funcs_floor(self):
        with pytest.raises(ValueError):
            BasisConfig(p=1.0, num_funcs=0)
