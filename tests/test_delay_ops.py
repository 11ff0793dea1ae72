"""Delay-operator tests: Markov parameters, convolution, Omega system."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import toeplitz

from lagdelay.delay_ops import (
    U0_TOLERANCE,
    assemble_ab,
    build_omega,
    build_toeplitz,
    closed_form_delay,
    markov_params,
    reciprocal_series,
)
from lagdelay.errors import DegenerateBError, SingularInputError

from conftest import (
    convolution_oracle,
    delay_spectrum,
    exact_assoc_laguerre,
    quadrature_delay_projection,
)


class TestMarkovParams:
    def test_zero_delay_is_identity_sequence(self):
        h = markov_params(0.0, 4)
        assert_allclose(h, [1.0, 0.0, 0.0, 0.0])

    def test_leading_value(self):
        for kappa in [0.3, 1.0, 7.0]:
            h = markov_params(kappa, 1)
            assert_allclose(h[0], np.exp(-kappa / 2), rtol=1e-15)

    def test_second_value_kappa_one(self):
        h = markov_params(1.0, 2)
        assert_allclose(h[1], -np.exp(-0.5), rtol=1e-15)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            markov_params(-0.1, 3)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_kappa_rejected(self, kappa):
        # NaN slipped past the sign test, and the closed form mapped NaN
        # and -inf to an all-zero sequence
        with pytest.raises(ValueError, match=str(kappa)):
            markov_params(kappa, 3)


class TestDelaySpectrum:
    def test_zero_delay_pads_input(self):
        u = np.array([1.0, -0.5, 0.2])
        y = delay_spectrum(u, 0.0, 6)
        assert_allclose(y, [1.0, -0.5, 0.2, 0.0, 0.0, 0.0], atol=1e-16)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            nu = rng.integers(1, 8)
            kappa = float(rng.uniform(0, 10))
            out_len = int(rng.integers(1, 15))
            u = rng.normal(size=nu)
            h = markov_params(kappa, out_len)
            got = delay_spectrum(u, kappa, out_len)
            assert_allclose(got, convolution_oracle(u, h, out_len), rtol=1e-12, atol=1e-14)

    def test_matches_toeplitz_route(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            nu = int(rng.integers(1, 6))
            u = rng.normal(size=nu)
            if abs(u[0]) < 1e-6:
                u[0] = 1.0
            kappa = float(rng.uniform(0, 15))
            size = int(rng.integers(nu, 12))
            via_matrix = build_toeplitz(u, size) @ markov_params(kappa, size)
            got = delay_spectrum(u, kappa, size)
            assert_allclose(got, via_matrix, rtol=1e-12, atol=1e-13)

    def test_matches_quadrature_projection(self, bench_design):
        # independent oracle: project the analytically delayed signal
        u, p = bench_design.u, bench_design.p
        tau = 0.004
        kappa = 2 * p * tau
        got = delay_spectrum(u, kappa, 10)
        oracle = quadrature_delay_projection(u, p, tau, 10)
        assert_allclose(got, oracle, atol=1e-6, rtol=1e-6)

    def test_energy_never_exceeds_input(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=5)
        partial = []
        for out_len in [50, 200, 1000]:
            y = delay_spectrum(u, 2.5, out_len)
            partial.append(y @ y)
            assert y @ y <= (u @ u) * (1 + 1e-12)
        # partial sums increase toward the input energy (delay is an isometry)
        assert partial[0] <= partial[1] <= partial[2]

    def test_energy_equality_in_the_limit(self):
        # a continuous input (coefficients sum to zero) has a fast-decaying
        # output spectrum, so the isometry shows at moderate truncation
        u = np.array([0.8, 0.4, -0.4, -0.8])
        y = delay_spectrum(u, 2.5, 10000)
        assert y @ y == pytest.approx(u @ u, rel=1e-5)


class TestToeplitz:
    def test_scalar_spectrum_gives_identity(self):
        t = build_toeplitz(np.array([1.0]), 3)
        assert_allclose(t, np.eye(3))

    def test_two_by_two_pattern(self):
        t = build_toeplitz(np.array([2.0, -3.0]), 2)
        assert_allclose(t, [[2.0, 0.0], [-3.0, 2.0]])

    def test_singular_input_raises(self):
        with pytest.raises(SingularInputError):
            build_toeplitz(np.array([0.0, 1.0]), 2)

    def test_matches_scipy_toeplitz(self):
        u = np.array([0.9, -0.3, 0.3, -0.9])
        for size in [1, 3, 4, 13]:
            col = np.zeros(size)
            col[: min(size, u.size)] = u[:size]
            expected = toeplitz(col, np.r_[col[0], np.zeros(size - 1)])
            assert np.array_equal(build_toeplitz(u, size), expected)

    def test_batch_stacks_single_operators(self):
        rows = np.random.default_rng(3).uniform(0.2, 1.0, size=(2, 3, 4))
        stack = build_toeplitz(rows, 6)
        assert stack.shape == (2, 3, 6, 6)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(stack[idx], build_toeplitz(rows[idx], 6))

    def test_singular_row_in_batch_raises(self):
        rows = np.array([[1.0, 0.5], [0.1 * U0_TOLERANCE, 0.5], [2.0, -1.0]])
        with pytest.raises(SingularInputError):
            build_toeplitz(rows, 3)


class TestReciprocalSeries:
    def test_geometric_series(self):
        # 1 / (2 - 3z) = sum (1/2) (3/2)^n z^n
        v = reciprocal_series(np.array([2.0, -3.0]), 5)
        assert_allclose(v, 0.5 * 1.5 ** np.arange(5), rtol=1e-15)

    def test_scalar_input(self):
        assert_allclose(reciprocal_series(np.array([4.0]), 3), [0.25, 0.0, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(
        u0=st.floats(0.1, 10.0).flatmap(lambda a: st.sampled_from([a, -a])),
        tail=st.lists(st.floats(-10.0, 10.0), max_size=7),
        size=st.integers(1, 16),
    )
    @example(u0=4.0, tail=[3.7049321676788305e-78], size=5)
    def test_inverts_toeplitz(self, u0, tail, size):
        u = np.array([u0, *tail])
        t_u = build_toeplitz(u, size)
        t_v = build_toeplitz(reciprocal_series(u, size), size)
        # forward substitution is componentwise backward stable, so the
        # residual is bounded relative to |T(v)| |T(u)|, which is 1 on the
        # diagonal and grows with the series when |u_0| is small; the floor
        # covers products that underflow into the subnormal range
        scale = np.abs(t_v) @ np.abs(t_u) + np.finfo(float).tiny
        assert np.all(np.abs(t_v @ t_u - np.eye(size)) <= 1e-12 * scale)

    def test_batch_rows_match_single_rows(self):
        rows = np.random.default_rng(5).uniform(0.1, 1.0, size=(7, 4))
        batch = reciprocal_series(rows, 13)
        for row, v in zip(rows, batch):
            assert np.array_equal(v, reciprocal_series(row, 13))

    def test_singular_row_in_batch_raises(self):
        rows = np.array([[1.0, 0.5], [2.0, -1.0], [-0.5 * U0_TOLERANCE, 1.0]])
        with pytest.raises(SingularInputError):
            reciprocal_series(rows, 4)
        reciprocal_series(rows[:2], 4)  # the regular rows alone are fine


class TestOmegaSystem:
    def test_m3_matrix(self):
        assert_allclose(build_omega(3), [[0.0, -1.0], [0.0, 2.0]])

    def test_m4_row2(self):
        omega = build_omega(4)
        assert_allclose(omega[2], [0.0, -1.0, 4.0])

    def test_identity_against_analytic_markov(self):
        for kappa in [0.1, 1.0, 5.0]:
            for m_count in [3, 7, 20]:
                vec_a, vec_b = assemble_ab(markov_params(kappa, m_count))
                assert_allclose(vec_a, kappa * vec_b, rtol=1e-10, atol=1e-14)

    def test_zero_delay_system(self):
        vec_a, vec_b = assemble_ab(markov_params(0.0, 5))
        assert_allclose(vec_a, 0.0, atol=1e-16)
        assert_allclose(vec_b, [1.0, 0.0, 0.0, 0.0])

    def test_hand_values_m3_kappa1(self):
        vec_a, vec_b = assemble_ab(markov_params(1.0, 3))
        e = np.exp(-0.5)
        assert_allclose(vec_b, [e, -e], rtol=1e-14)
        assert_allclose(vec_a, [e, -e], rtol=1e-13)

    def test_needs_three_parameters(self):
        with pytest.raises(ValueError):
            assemble_ab(markov_params(1.0, 2))
        with pytest.raises(ValueError):
            build_omega(2)

    def test_batch_rows_match_single_calls(self):
        # numpy runs a batch as one GEMM and one sequence as a GEMV, which
        # round the three-term sums of A differently: rows agree to within
        # the worst-case rounding of two such sums (3 eps of the sum of the
        # terms' magnitudes; worst seen 1.7 eps), B bitwise
        rng = np.random.default_rng(0)
        for m_count in range(3, 30):
            h = rng.standard_normal((200, m_count))
            batch_a, batch_b = assemble_ab(h)
            scale = np.abs(h[:, :-1]) @ np.abs(build_omega(m_count)).T
            scale[:, -1] += (m_count - 1.0) * np.abs(h[:, -1])
            for i, row in enumerate(h):
                single_a, single_b = assemble_ab(row)
                assert np.array_equal(batch_b[i], single_b)
                assert np.all(
                    np.abs(batch_a[i] - single_a) <= 3 * np.finfo(float).eps * scale[i]
                )
        stacked_a, stacked_b = assemble_ab(rng.standard_normal((2, 5, 7)))
        assert stacked_a.shape == stacked_b.shape == (2, 5, 6)

    def test_stencil_matches_loop_reference(self):
        for m_count in range(3, 21):
            n = m_count - 1
            reference = np.zeros((n, n))
            for m in range(n):
                reference[m, m] = 2.0 * m
                if m >= 1:
                    reference[m, m - 1] = -(m - 1.0)
                if m + 1 <= n - 1:
                    reference[m, m + 1] = -(m + 1.0)
            omega = build_omega(m_count)
            assert np.array_equal(omega, reference)
            assert np.array_equal(np.signbit(omega), np.signbit(reference))


class TestClosedFormDelay:
    @settings(max_examples=300, deadline=None)
    @given(
        kappa=st.floats(0.0, 40.0),
        m_count=st.integers(3, 25),
        p=st.floats(1.0, 1e3),
    )
    @example(kappa=2 * 1.0 * 0.0, m_count=8, p=1.0)
    @example(kappa=2 * 1.0 * 1e-5, m_count=8, p=1.0)
    @example(kappa=2 * 1.0 * 1e-3, m_count=8, p=1.0)
    @example(kappa=2 * 1.0 * 0.1, m_count=8, p=1.0)
    @example(kappa=2 * 20.0 * 0.0, m_count=8, p=20.0)
    @example(kappa=2 * 20.0 * 1e-5, m_count=8, p=20.0)
    @example(kappa=2 * 20.0 * 1e-3, m_count=8, p=20.0)
    @example(kappa=2 * 20.0 * 0.1, m_count=8, p=20.0)
    @example(kappa=2 * 50.0 * 0.0, m_count=8, p=50.0)
    @example(kappa=2 * 50.0 * 1e-5, m_count=8, p=50.0)
    @example(kappa=2 * 50.0 * 1e-3, m_count=8, p=50.0)
    @example(kappa=2 * 50.0 * 0.1, m_count=8, p=50.0)
    def test_recovers_tau_exactly(self, kappa, m_count, p):
        got = closed_form_delay(*assemble_ab(markov_params(kappa, m_count)), p)
        assert abs(2 * p * got - kappa) <= 1e-13 * max(kappa, 1.0)
        assert got == pytest.approx(kappa / (2 * p), rel=1e-10, abs=1e-16)

    def test_specific_case(self):
        h = markov_params(2 * 1.0 * 0.5, 8)
        assert closed_form_delay(*assemble_ab(h), 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_degenerate_b(self):
        vec_a, vec_b = assemble_ab(np.array([0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateBError):
            closed_form_delay(vec_a, vec_b, 1.0)


class TestSpectrumType:
    def test_markov_consistency_invariant(self):
        # h_m = exp(-kappa/2) L_m(kappa), cross-checked with the exact
        # rational-arithmetic polynomial
        kappa = 2.7
        h = markov_params(kappa, 10)
        for m in range(10):
            expected = np.exp(-kappa / 2) * exact_assoc_laguerre(m, kappa)
            assert h[m] == pytest.approx(expected, rel=1e-12, abs=1e-15)
