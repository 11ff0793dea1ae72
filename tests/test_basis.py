"""Basis-layer tests: polynomials, closed forms, sampling.

The sampled basis is tabulated from the closed form; the state-space
construction in ``conftest`` (impulse-invariant discretization of the
lower-triangular realization) is the independent oracle it is checked
against."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lagdelay.basis import (
    COND_THRESHOLD,
    BasisConfig,
    assoc_laguerre_sequence,
    build_phi,
    eval_basis_matrix,
)
from lagdelay.errors import ZeroInformationError
from lagdelay.estimators import crlb
from lagdelay.simulate import InputDesign, input_derivative, sample_delayed

from conftest import (
    column_basis_matrix,
    exact_assoc_laguerre,
    impulse_invariant,
    state_space_phi,
    state_space_realization,
)

INPUTS = Path(__file__).resolve().parents[1] / "lagbench" / "inputs"


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


def _recurrence_step(l_prev, l_curr, m, xi):
    """One step of the upward recurrence as the package's former one-step
    helper evaluated it: L_{m+1} = ((2m - xi) L_m - (m - 1) L_{m-1}) / (m + 1)."""
    return ((2.0 * m - xi) * l_curr - (m - 1.0) * l_prev) / (m + 1.0)


class TestRecurrence:
    def test_reproduces_order_two(self):
        for xi in [0.0, 0.7, 2.0, 13.0]:
            got = assoc_laguerre_sequence(xi, 3)[2]
            assert_allclose(got, xi**2 / 2 - xi, rtol=1e-14, atol=1e-15)

    def test_zero_argument(self):
        assert assoc_laguerre_sequence(0.0, 3)[2] == 0.0

    def test_order_three_at_one(self):
        assert_allclose(assoc_laguerre_sequence(1.0, 4)[3], -1.0 / 6.0, rtol=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(xi=st.floats(-50.0, 50.0), count=st.integers(1, 31))
    @example(xi=0.0, count=31)
    @example(xi=50.0, count=31)
    @example(xi=-50.0, count=31)
    def test_bitwise_equals_one_step_helper(self, xi, count):
        want = [1.0, -xi][:count]
        for m in range(1, count - 1):
            want.append(_recurrence_step(want[m - 1], want[m], m, xi))
        assert assoc_laguerre_sequence(xi, count).tobytes() == np.array(want).tobytes()

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

    def test_no_overflow_far_before_time_origin(self):
        # e^{-pt} overflows below t = -709 / p; it must never be taken there
        design = InputDesign.from_dict(json.loads((INPUTS / "design72_ref.json").read_text()))
        cfg = BasisConfig(p=1000.0, num_funcs=6)
        t = np.array([-1e300, -1e3, -1.0, -1e-12])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # p tau = 746 on the section 7.2 design
            assert not sample_delayed(design, 20.0, 1667).any()
            with pytest.raises(ZeroInformationError):
                crlb(design, 20.0, 0.01, n_samples=1667)
            assert not eval_basis_matrix(cfg, t).any()
            assert not input_derivative(design, t).any()

    @pytest.mark.parametrize("p, k1, delta, n", [(1e300, 3, 1e-3, 100), (1e27, 13, 3e-4, 1667)])
    def test_zero_where_the_envelope_underflows(self, p, k1, delta, n):
        # L_j(2pt) overflows where e^{-pt} has underflowed, and inf * 0 once
        # gave NaN rows, two RuntimeWarnings and "SVD did not converge"
        cfg = BasisConfig(p=p, num_funcs=k1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = eval_basis_matrix(cfg, np.arange(n) * delta)
            phi = build_phi(cfg, delta, n)
        assert np.array_equal(matrix[0], np.full(k1, np.sqrt(2.0 * p)))
        assert not matrix[1:].any()
        assert phi.ill_conditioned

    def test_derivative_matches_finite_differences(self):
        # ell' = A_c ell: the derivative of each basis function is a finite
        # combination of the basis, which input_derivative relies on
        cfg = BasisConfig(p=4.0, num_funcs=8)
        a_c, _ = state_space_realization(cfg)
        t = np.linspace(0.05, 2.0, 23)
        h = 1e-7
        fd = (eval_basis_matrix(cfg, t + h) - eval_basis_matrix(cfg, t - h)) / (2 * h)
        assert_allclose(eval_basis_matrix(cfg, t) @ a_c.T, fd, rtol=1e-6, atol=1e-8)


class TestStateSpace:
    def test_pattern_p1_k1(self):
        a_c, b_c = state_space_realization(BasisConfig(p=1.0, num_funcs=2))
        assert_allclose(a_c, [[-1.0, 0.0], [-2.0, -1.0]])
        assert_allclose(b_c, [np.sqrt(2.0)] * 2)

    def test_scalar_case(self):
        a_c, b_c = state_space_realization(BasisConfig(p=1.0, num_funcs=1))
        assert_allclose(a_c, [[-1.0]])
        assert_allclose(b_c, [np.sqrt(2.0)])

    def test_structure_p20_k6(self):
        a_c, _ = state_space_realization(BasisConfig(p=20.0, num_funcs=7))
        assert a_c.shape == (7, 7)
        assert_allclose(np.diag(a_c), -20.0)
        assert_allclose(a_c[np.tril_indices(7, -1)], -40.0)
        assert np.all(a_c[np.triu_indices(7, 1)] == 0.0)

    def test_discretize_scalar(self):
        a_c, b_c = state_space_realization(BasisConfig(p=1.0, num_funcs=1))
        a_d, b_d = impulse_invariant(a_c, b_c, 1.0)
        assert_allclose(a_d, [[np.exp(-1.0)]], rtol=1e-15)
        assert_allclose(b_d, [np.sqrt(2.0) * np.exp(-1.0)], rtol=1e-15)

    def test_discretize_zero_step(self):
        a_c, b_c = state_space_realization(BasisConfig(p=1.0, num_funcs=2))
        a_d, b_d = impulse_invariant(a_c, b_c, 0.0)
        assert_allclose(a_d, np.eye(2))
        assert_allclose(b_d, b_c)

    def test_state_sequence_matches_analytic(self):
        # one A_d step per sample, against the closed-form build_phi
        cfg = BasisConfig(p=20.0, num_funcs=7)
        a_c, state = state_space_realization(cfg)
        a_d, _ = impulse_invariant(a_c, state, 1e-4)
        n = 2000
        seq = np.empty((n, 7))
        for i in range(n):
            seq[i] = state
            state = a_d @ state
        scale = np.sqrt(2 * cfg.p)
        assert np.max(np.abs(seq - build_phi(cfg, 1e-4, n).matrix)) < 1e-9 * scale


class TestBuildPhi:
    def test_row_zero_is_b_c(self):
        cfg = BasisConfig(p=11.0, num_funcs=5)
        phi = build_phi(cfg, 1e-3, 10)
        _, b_c = state_space_realization(cfg)
        assert_allclose(phi.matrix[0], b_c, rtol=1e-15)
        assert_allclose(phi.matrix[0], np.sqrt(22.0), rtol=1e-15)

    def test_matches_analytic_to_1e9(self):
        # the closed-form Phi against the state-space oracle
        cfg = BasisConfig(p=20.0, num_funcs=7)
        phi = build_phi(cfg, 1e-4, 5001)
        oracle = state_space_phi(cfg, 1e-4, 5001)
        scale = np.sqrt(2 * cfg.p)
        mixed = np.abs(phi.matrix - oracle) / np.maximum(np.abs(oracle), scale)
        assert mixed.max() < 1e-9

    @pytest.mark.parametrize("p,delta,n,k1", [(20.0, 1e-4, 5001, 7), (37.3, 3e-4, 1667, 13)])
    def test_matrix_is_the_closed_form(self, p, delta, n, k1):
        cfg = BasisConfig(p=p, num_funcs=k1)
        expected = eval_basis_matrix(cfg, np.arange(n) * delta)
        assert np.array_equal(build_phi(cfg, delta, n).matrix, expected)

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
        # the flag is the basis's only signal: nothing is warned; p = 2 cannot
        # separate 13 functions over 0.5 s (cond(Phi) 1.8e15)
        cfg = BasisConfig(p=2.0, num_funcs=13)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            phi = build_phi(cfg, 3e-4, 1667)
        assert not caught
        assert phi.ill_conditioned
        assert phi.cond > COND_THRESHOLD

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            build_phi(BasisConfig(p=1.0, num_funcs=4), 0.1, 3)

    @pytest.mark.parametrize("delta", [0.0, -1e-4, np.inf, np.nan])
    def test_unusable_delta_rejected(self, delta):
        # an infinite delta once ended in "SVD did not converge" and a NaN
        # one gave a basis full of NaN
        with pytest.raises(ValueError, match="delta must be finite and positive"):
            build_phi(BasisConfig(p=20.0, num_funcs=7), delta, 5001)


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
            phi = build_phi(BasisConfig(p=float(p), num_funcs=k1), delta, n)
            svd_cond = np.linalg.cond(phi.matrix)
            assert phi.cond == pytest.approx(svd_cond, rel=1e-12)
            assert phi.ill_conditioned == (svd_cond > COND_THRESHOLD)

    @pytest.mark.parametrize("delta,n,k1", SECTION7_SAMPLINGS)
    def test_cond_and_flag_match_state_space_oracle(self, delta, n, k1):
        # cond is compared up to the threshold (worst 6.4e-10 relative);
        # above ~1e9 it is rounding noise in either construction
        for p in SECTION7_P_GRID:
            cfg = BasisConfig(p=float(p), num_funcs=k1)
            phi = build_phi(cfg, delta, n)
            oracle_cond = np.linalg.cond(state_space_phi(cfg, delta, n))
            assert phi.ill_conditioned == (oracle_cond > COND_THRESHOLD)
            if oracle_cond <= COND_THRESHOLD:
                assert phi.cond == pytest.approx(oracle_cond, rel=1e-9)

    @pytest.mark.parametrize("delta,n", [(3e-4, 1667), (1e-4, 5000)])
    @pytest.mark.parametrize("k1", [7, 13, 21])
    def test_factors_bitwise_equal_scipy_economic_qr(self, delta, n, k1):
        """numpy's reduced QR and scipy's economic QR run the same LAPACK
        routines and give bitwise the same Q and R.  They differ in memory
        layout: numpy returns C-ordered arrays, scipy a Fortran-ordered Q.
        A BLAS product such as Q^T z sums in another order for another
        layout, which moved ``design`` output at 1e-11 relative, so
        ``build_phi`` stores Q Fortran-ordered and R as LAPACK's R comes
        back from scipy; the layouts are pinned along with the values."""
        from scipy.linalg import qr

        for p in [1.0, 20.0, 29.63, 37.3, 200.0]:
            phi = build_phi(BasisConfig(p=p, num_funcs=k1), delta, n)
            q, r = qr(phi.matrix, mode="economic", check_finite=False)
            for got, want in [(phi.q, q), (phi.r, r)]:
                assert got.tobytes() == want.tobytes()
                assert got.flags.f_contiguous == want.flags.f_contiguous
                assert got.flags.c_contiguous == want.flags.c_contiguous
            assert phi.q.flags.f_contiguous

    def test_flag_just_above_threshold(self):
        # section 7.2 grid point p ~ 7.674 has cond(Phi) ~ 1.0106e8, about 1%
        # above the default threshold
        p = float(SECTION7_P_GRID[15])
        assert p == pytest.approx(7.674, rel=1e-4)
        phi = build_phi(BasisConfig(p=p, num_funcs=13), 3e-4, 1667)
        assert phi.ill_conditioned
        assert phi.cond == pytest.approx(1.0106e8, rel=1e-4)


class TestRowTable:
    """The recurrence is written one contiguous row per function; the
    column-per-function table it replaced is the bitwise oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(1e-3, 1e30),
        k_max=st.integers(0, 40),
        t=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
    )
    @example(p=37.3, k_max=12, t=[-1e-3, -0.0, 0.0, 3e-4, 0.5])
    # every row after the first has an underflowed envelope
    @example(p=1e27, k_max=40, t=[0.0, 3e-4, 0.5, -3e-4])
    def test_matrix_bitwise_equals_column_table(self, p, k_max, t):
        cfg = BasisConfig(p=p, num_funcs=k_max + 1)
        got = eval_basis_matrix(cfg, np.array(t))
        want = column_basis_matrix(cfg, np.array(t))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("delta,n,k1", [*SECTION7_SAMPLINGS, (1e-3, 60, 41)])
    def test_factors_equal_a_qr_of_the_c_ordered_matrix(self, delta, n, k1):
        # build_phi hands LAPACK the Fortran-ordered transpose of its row
        # table; the factors and cond are those of the C-ordered Phi
        for p in [1.0, 7.674, 37.3, 200.0]:
            phi = build_phi(BasisConfig(p=p, num_funcs=k1), delta, n)
            matrix = column_basis_matrix(BasisConfig(p=p, num_funcs=k1), np.arange(n) * delta)
            assert phi.matrix.flags.c_contiguous
            assert phi.matrix.tobytes() == matrix.tobytes()
            q, r = np.linalg.qr(matrix, mode="reduced")
            assert phi.q.tobytes() == q.tobytes() and phi.q.flags.f_contiguous
            assert phi.r.tobytes() == r.tobytes()
            assert phi.r.flags.c_contiguous == r.flags.c_contiguous
            assert phi.cond == float(np.linalg.cond(r))


class TestConfigValidation:
    def test_p_must_be_positive(self):
        # an infinite p once reached the QR and ended in "SVD did not converge"
        for p in [0.0, -2.0, np.inf, np.nan]:
            with pytest.raises(ValueError, match=f"p must be finite and positive, got {p!r}"):
                BasisConfig(p=p, num_funcs=3)

    def test_p_whose_double_overflows_rejected(self):
        for p in [1e308, float(np.finfo(float).max)]:
            with pytest.raises(ValueError, match=re.escape(f"p = {p!r} is too large")):
                BasisConfig(p=p, num_funcs=3)
        BasisConfig(p=float(np.finfo(float).max) / 2, num_funcs=3)

    def test_num_funcs_floor(self):
        with pytest.raises(ValueError):
            BasisConfig(p=1.0, num_funcs=0)
