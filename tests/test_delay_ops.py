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
    build_toeplitz,
    closed_form_delay,
    inverse_toeplitz,
    markov_params,
    reciprocal_series,
)
from lagdelay.errors import DegenerateBError, SingularInputError

from conftest import (
    convolution_oracle,
    delay_spectrum,
    exact_assoc_laguerre,
    numpy_reciprocal_series,
    quadrature_delay_projection,
    sequential_reciprocal_series,
    where_toeplitz,
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
            inverse_toeplitz(np.array([0.0, 1.0]), 2)

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
            inverse_toeplitz(rows, 3)


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
        tail=st.lists(st.floats(-10.0, 10.0), max_size=40),
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

    # |v(c u) - v(u) / c| against w / c, w = reciprocal_series(|u_0|, -|u_1|,
    # ...), which bounds |v| termwise; the worst seen was 2.9e-15 (13 eps)
    # over 20000 random rows with c in [1e-30, 1e30] and size <= 16
    SCALE_RTOL = 1e-13

    @settings(max_examples=300, deadline=None)
    @given(
        lead=st.one_of(st.floats(0.1, 10.0), st.just(0.0), st.floats(1e-20, 1e-14))
        .flatmap(lambda a: st.sampled_from([a, -a])),
        big=st.floats(0.1, 10.0).flatmap(lambda a: st.sampled_from([a, -a])),
        rest=st.lists(st.floats(-10.0, 10.0), max_size=5),
        c=st.floats(1e-30, 1e30),
        size=st.integers(1, 16),
    )
    # the warm-up design's u_0 at energy bound 2e-26, 3.5e-14, which the
    # absolute rule |u_0| < 1e-12 refused
    @example(lead=0.3535533905932738, big=0.7071067811865476, rest=[], c=1e-13, size=13)
    @example(lead=0.0, big=1.0, rest=[], c=1e30, size=4)
    def test_scale_free(self, lead, big, rest, c, size):
        # the u_0 rule compares u_0 with the row's own largest |u_k|, so c u
        # is refused exactly when u is: a lead at or below 1e-14 against a
        # coefficient of at least 0.1 is refused, one of 0.1 or more is not
        u = np.array([lead, big, *rest])
        if abs(lead) < 0.1:
            for row in (u, c * u):
                with pytest.raises(SingularInputError, match="largest"):
                    reciprocal_series(row, size)
            return
        v = reciprocal_series(u, size)
        w = reciprocal_series(np.r_[abs(lead), -np.abs(u[1:])], size)
        assert np.all(np.abs(reciprocal_series(c * u, size) - v / c) <= self.SCALE_RTOL * w / c)


@st.composite
def coefficient_rows(draw, orders):
    """One row (1-D) or a batch of up to 5 rows of an input of order I drawn
    from ``orders``: u_0 away from zero, the rest often exactly +-0.0."""
    i_order = draw(st.sampled_from(orders))
    lead = st.floats(0.1, 10.0).flatmap(lambda a: st.sampled_from([a, -a]))
    rest = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0]))
    row = st.tuples(lead, *[rest] * i_order)
    n_rows = draw(st.integers(0, 5))
    return np.array(draw(row) if n_rows == 0 else draw(st.lists(row, min_size=n_rows,
                                                               max_size=n_rows)))


def _strides(a):
    """Strides of the axes longer than 1, the ones that order memory."""
    return [stride for stride, dim in zip(a.strides, a.shape) if dim > 1]


class TestBitwiseOracles:
    """The scalar recurrence of ``reciprocal_series`` sums left to right,
    as numpy's reduce does below 8 products, and ``build_toeplitz`` gathers
    from a cached index; the numpy loop and the masked table they replaced
    are bitwise oracles, and a cumsum loop is one past 7 products."""

    @settings(max_examples=300, deadline=None)
    @given(u=coefficient_rows([1, 3, 5, 7]), size=st.integers(1, 41))
    # a product of -0.0 alone sums to +0.0, since the reduce starts at 0.0
    @example(u=np.array([2.0, -0.0, 0.0, -0.0]), size=6)
    def test_reciprocal_series_bitwise(self, u, size):
        got, want = reciprocal_series(u, size), numpy_reciprocal_series(u, size)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(u=coefficient_rows([9, 15, 40]), size=st.integers(1, 60))
    # at n = 9 all nine products are -0.0, which sum to +0.0 from 0.0
    @example(u=np.array([1.0, *[0.0] * 8, -0.0]), size=12)
    def test_reciprocal_series_bitwise_past_eight_terms(self, u, size):
        # from 8 products on, numpy's reduce adds 8 interleaved partial sums
        # and is no longer an oracle of the left-to-right sum
        got, want = reciprocal_series(u, size), sequential_reciprocal_series(u, size)
        assert got.tobytes() == want.tobytes()

    def test_reciprocal_series_bitwise_past_128_terms(self):
        # above 128 products numpy's reduce would split the run in two
        rng = np.random.default_rng(2)
        u = rng.uniform(-1e-3, 1e-3, (3, 301))
        u[:, 0] = 1.0
        u[:, 1::7] = -0.0
        want = sequential_reciprocal_series(u, 320)
        assert reciprocal_series(u, 320).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(u=coefficient_rows([1, 3, 5, 7]), size=st.integers(1, 41))
    def test_build_toeplitz_bitwise(self, u, size):
        got, want = build_toeplitz(u, size), where_toeplitz(u, size)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert _strides(got) == _strides(want)

    def test_writing_an_operator_leaves_the_next_one_alone(self):
        # every size reuses one cached index; an operator is a fresh array
        u = np.array([1.0, 2.0])
        build_toeplitz(u, 4)[...] = 7.0
        assert build_toeplitz(u, 4).tobytes() == where_toeplitz(u, 4).tobytes()


def _omega(m_count):
    """Coefficient matrix of the delay relations kappa h_m = -(m-1) h_{m-1} +
    2m h_m - (m+1) h_{m+1}, rows m = 0..M-2, without the h_{M-1} column: the
    route ``assemble_ab`` took before its stencil, A = Omega B - (M-1)
    h_{M-1} e."""
    n = m_count - 1
    m = np.arange(n, dtype=float)
    i = np.arange(n)
    omega = np.zeros((n, n))
    omega[i, i] = 2.0 * m
    omega[i[1:], i[:-1]] = -(m[1:] - 1.0)
    omega[i[:-1], i[1:]] = -(m[:-1] + 1.0)
    return omega


def _omega_ab(h):
    """``assemble_ab`` by the Omega product, the oracle of its stencil."""
    m_count = h.shape[-1]
    vec_a = h[..., :-1] @ _omega(m_count).T
    vec_a[..., -1] -= (m_count - 1.0) * h[..., -1]
    return vec_a


def _stencil_scale(h):
    """Sum of the magnitudes of the (up to) three terms of each entry of A."""
    m_count = h.shape[-1]
    scale = np.abs(h[..., :-1]) @ np.abs(_omega(m_count)).T
    scale[..., -1] += (m_count - 1.0) * np.abs(h[..., -1])
    return scale


# Each entry of A is at most three products with exact integer weights and
# two sums; the stencil and the Omega product each round it within about
# 1.5 eps of the sum of the terms' magnitudes, so they differ by at most
# 3 eps of it (worst seen 1.86 eps over 56 000 random rows, M = 3..30)
STENCIL_BOUND = 3 * np.finfo(float).eps


class TestOmegaSystem:
    def test_m3_matrix(self):
        # rows of the map h -> A: A_0 = -h_1, A_1 = 2 h_1 - 2 h_2
        vec_a, vec_b = assemble_ab(np.eye(3))
        assert np.array_equal(vec_a.T, [[0.0, -1.0, 0.0], [0.0, 2.0, -2.0]])
        assert np.array_equal(vec_b.T, np.eye(3)[:2])

    def test_m4_row2(self):
        vec_a, _ = assemble_ab(np.eye(4))
        assert np.array_equal(vec_a[:, 2], [0.0, -1.0, 4.0, -3.0])

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
            assemble_ab(np.ones((4, 2)))

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(0)
        for m_count in range(3, 30):
            h = rng.standard_normal((200, m_count))
            batch_a, batch_b = assemble_ab(h)
            for i, row in enumerate(h):
                single_a, single_b = assemble_ab(row)
                assert batch_a[i].tobytes() == single_a.tobytes()
                assert batch_b[i].tobytes() == single_b.tobytes()
        stacked_a, stacked_b = assemble_ab(rng.standard_normal((2, 5, 7)))
        assert stacked_a.shape == stacked_b.shape == (2, 5, 6)

    def test_stencil_matches_loop_reference(self):
        # the map h -> A, applied to the unit vectors, is Omega with the
        # tail column -(M-1) e appended, entry by entry
        for m_count in range(3, 21):
            n = m_count - 1
            reference = np.zeros((n, m_count))
            for m in range(n):
                reference[m, m] = 2.0 * m
                if m >= 1:
                    reference[m, m - 1] = -(m - 1.0)
                reference[m, m + 1] = -(m + 1.0)
            vec_a, _ = assemble_ab(np.eye(m_count))
            assert np.array_equal(vec_a.T, reference)
            assert np.array_equal(reference[:, :n], _omega(m_count))

    @settings(max_examples=200, deadline=None)
    @given(
        m_count=st.integers(3, 30),
        rows=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-200.0, 200.0),
    )
    @example(m_count=13, rows=32, seed=0, log_scale=0.0)
    def test_stencil_property(self, m_count, rows, seed, log_scale):
        # batch rows are single rows bitwise, and within STENCIL_BOUND of
        # the Omega product
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((rows, m_count)) * np.exp(
            rng.uniform(-3.0, 3.0, (rows, m_count)) + log_scale
        )
        batch_a, batch_b = assemble_ab(h)
        for i in range(rows):
            single_a, single_b = assemble_ab(h[i])
            assert batch_a[i].tobytes() == single_a.tobytes()
            assert batch_b[i].tobytes() == single_b.tobytes()
        assert batch_b.tobytes() == h[:, :-1].tobytes()
        assert np.all(np.abs(batch_a - _omega_ab(h)) <= STENCIL_BOUND * _stencil_scale(h))


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
