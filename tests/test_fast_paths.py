"""Each replicate fast path against the route it replaced.

The replicate tables reduce the spline projection to one matrix, the
linear correlation to a zero-padded FFT, the ML scan to one matrix product
of a block of replicates with a model bank gathered from one delta / 4
lattice of the input, and the reciprocal input series to a table entry;
the ML refine shifts the input in the Laguerre domain, with its basis read
from the same lattice.  The old routes are the oracles here:
CubicSpline plus quadrature, ``np.correlate`` and ``np.fft``, the residual
``einsum`` over the whole grid, the bank evaluated point by point,
``reciprocal_series`` per call and bounded Brent on ``ml_negloglik``
itself.  Where the arithmetic is unchanged the estimates must be bitwise
equal; the spline projection sums in another order and is held to 5e-14
of its summands, and its delay to 1e-15 s; the spline slope system, once
scipy's banded Cholesky solve, is held to 5e-15 of each column's largest
solution entry, the projection matrix to 4e-15 of each row's largest
entry and the benchmark's ``lag_spline`` estimates to 1e-15 s; the numpy
FFT stage and its 5-smooth padded length equal scipy.fft's bitwise, and
the phase fit that shifts only the candidate bins equals the fit over
every bin bitwise; the gathered bank rounds its
time arguments once instead of three times and is held to 2e-14 of its
largest entry on the section 7 designs, with ML estimates bitwise equal
but for ``negloglik``; the block scan equals the ``einsum`` scan bitwise
for any block size; the ML refine objective is held to 1e-12 relative of
``ml_negloglik`` and to GATHER_RTOL of the objective set up by evaluating
the basis directly, and its delay to 1e-10 s.
The blocked bias pass is held to the full draw of the old
``predict_bias_tau``: its eps2 mean bitwise, the eps1 mean and the
predicted bias to 1e-14 of their mean absolute summand.
The in-house bounded Brent is held bitwise to scipy's, and the LS spectrum
by ``np.linalg.solve`` on R to 1e-14 relative of the triangular solve.
"""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lagdelay import analysis, estimators
from lagdelay.analysis import BenchmarkConfig, run_monte_carlo
from lagdelay.basis import assoc_laguerre_sequence, eval_basis_matrix
from lagdelay.delay_ops import assemble_ab, closed_form_delay, reciprocal_series
from lagdelay.errors import FlatCorrelationError
from lagdelay.estimators import (
    ESTIMATORS,
    FREQ_AMP_THRESHOLD,
    CorrTable,
    build_replicate_tables,
    corr_table,
    estimate_delay_freq_interp,
    estimate_delay_lag_spline,
    estimate_delay_ml,
    estimate_markov,
    estimate_spectrum_ls,
    ml_negloglik,
    ml_table,
    spline_table,
)
from lagdelay.simulate import (
    InputDesign,
    add_noise,
    default_tau_max,
    make_dataset,
    sample_delayed,
    synthesize_input,
)

from conftest import (
    cubic_spline_projection, full_draw_bias_prediction, per_point_ml_bank, ratio_bias_inputs,
)

INPUTS = Path(__file__).resolve().parents[1] / "lagbench" / "inputs"
K = 12
TAU_MAX = 0.01
NOISE_VAR = 0.01
# (true tau, noise seed): the section 7.2 delay, a delay at 0, one sample
# and a delay past the input's first lobe
CASES = [(1.33e-3, 1), (0.0, 2), (3e-4, 3), (4e-3, 4)]
# relative bound of the refine objective read from the delta / 4 lattice
# against the objective set up by evaluating the basis directly
GATHER_RTOL = 2e-13


def _bits(value):
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _assert_bitwise_equal(a, b):
    assert _bits(a.tau_hat) == _bits(b.tau_hat), a.method
    assert list(a.diagnostics) == list(b.diagnostics)
    for key, val in a.diagnostics.items():
        assert _bits(val) == _bits(b.diagnostics[key]), (a.method, key)


@pytest.fixture(scope="module")
def ref():
    """The committed section 7.2 design, its tables and 50 noisy
    replicates at each of CASES."""
    design = InputDesign.from_dict(json.loads((INPUTS / "design72_ref.json").read_text()))
    n = design.n_samples
    tables = build_replicate_tables(
        ESTIMATORS, design, delta=design.delta, n_samples=n, k_model=K, tau_max=TAU_MAX
    )
    data = []
    for tau, seed in CASES:
        clean = sample_delayed(design, tau, n)
        data += [
            add_noise(clean, NOISE_VAR, (seed, r), delta=design.delta, true_tau=tau)
            for r in range(50)
        ]
    return design, tables, data


def _banded_spline_solve(rhs):
    """The spline slope system solved as ``spline_table`` once did, by
    scipy's banded Cholesky solve of S = tridiag(1, 4, 1) with halved end
    rows."""
    from scipy.linalg import solveh_banded

    s_banded = np.ones((2, rhs.shape[0]))
    s_banded[1] = 4.0
    s_banded[1, [0, -1]] = 0.5
    return solveh_banded(s_banded, rhs)


def _banded_spline_table(p, num_funcs, delta, n):
    """``spline_table`` through ``_banded_spline_solve``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimators, "_solve_spline_system", _banded_spline_solve)
        return spline_table(p, num_funcs, delta, n)


class TestSplineProjection:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 60),
        k=st.integers(0, 15),
        p=st.floats(1.0, 200.0),
        delta=st.sampled_from([3e-4, 1e-3, 1e-2]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=4, k=0, p=20.0, delta=1e-2, seed=0)
    @example(n=5, k=15, p=20.0, delta=1e-2, seed=0)
    # summands of size 0.085 cancel to a coefficient of 3.3e-5
    @example(n=50, k=0, p=64.5, delta=3e-4, seed=530033)
    def test_matrix_matches_cubic_spline_quadrature(self, n, k, p, delta, seed):
        # a dot product's rounding error scales with its summands |P| |z|,
        # not with its result, which cancellation can make small; worst
        # seen 4.7e-15 of |P| |z| over 4000 random draws
        z = np.random.default_rng(seed).standard_normal(n)
        table = spline_table(p, k + 1, delta, n)
        got = table @ z
        want = cubic_spline_projection(z, p, k + 1, delta)
        assert np.all(np.abs(got - want) <= 5e-14 * (np.abs(table) @ np.abs(z)))

    @pytest.mark.parametrize("n", [*range(4, 131), 1667, 5001])
    def test_system_solve_matches_banded_cholesky(self, n):
        # worst seen 1.7e-15 over 5 draws per n, columns scaled by up to e^20
        rng = np.random.default_rng(n)
        rhs = rng.standard_normal((n, 7)) * np.exp(rng.uniform(-20.0, 20.0, 7))
        want = _banded_spline_solve(rhs)
        got = estimators._solve_spline_system(rhs)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 5e-15 * np.max(np.abs(want), axis=0))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 200),
        k=st.integers(0, 15),
        p=st.floats(1.0, 200.0),
        delta=st.sampled_from([3e-4, 1e-3, 1e-2]),
    )
    @example(n=1667, k=12, p=37.313866137469375, delta=3e-4)
    def test_matrix_matches_banded_cholesky_route(self, n, k, p, delta):
        # worst seen 1.1e-15 of the row's largest entry over 3000 draws
        got = spline_table(p, k + 1, delta, n)
        want = _banded_spline_table(p, k + 1, delta, n)
        assert np.all(np.abs(got - want) <= 4e-15 * np.max(np.abs(want), axis=1, keepdims=True))

    def test_benchmark_estimates_within_1e15_of_banded_cholesky_route(self, ref):
        # 200 replicates at the section 7.2 delay: worst seen 5.2e-18 s per
        # estimate; bias, variance and MSE move in their last digits only
        design = ref[0]
        config = BenchmarkConfig(
            design=design, true_tau=1.33e-3, noise_var=NOISE_VAR, k_model=K, tau_max=TAU_MAX
        )
        new = run_monte_carlo(config, ("lag_spline",), replicates=200, seed=19)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "_solve_spline_system", _banded_spline_solve)
            old = run_monte_carlo(config, ("lag_spline",), replicates=200, seed=19)
        got, want = new.estimates["lag_spline"], old.estimates["lag_spline"]
        assert np.all(np.abs(got - want) <= 1e-15)
        got, want = new.per_method["lag_spline"], old.per_method["lag_spline"]
        assert (got.failures, got.n_used) == (want.failures, want.n_used) == (0, 200)
        assert abs(got.bias - want.bias) <= 1e-15
        for name in ("var", "mse_raw", "mse_normalized"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0)

    def test_sec72_spectrum_and_delay(self, ref):
        # worst over 1600 replicates: 9.5e-15 relative in y_hat, 1.7e-16 s
        # in tau_hat
        design, tables, data = ref
        for ds in data:
            est = estimate_delay_lag_spline(ds, tables)
            want = cubic_spline_projection(ds.z, design.p, K + 1, ds.delta)
            got = est.diagnostics["y_hat"]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            h_hat = estimate_markov(want, tables.markov)
            assert abs(est.tau_hat - closed_form_delay(*assemble_ab(h_hat), design.p)) <= 1e-15


def _scipy_corr_table(design, delta, n):
    """``corr_table`` as it was built through scipy.fft."""
    from scipy.fft import next_fast_len, rfft

    u_samples = synthesize_input(design, np.arange(n) * delta)
    size = next_fast_len(2 * n - 1, real=True)
    return CorrTable(
        padded_len=size, u_spectrum_conj=np.conj(rfft(u_samples)),
        u_padded_conj=np.conj(rfft(u_samples, size)),
    )


def _scipy_freq_interp_spectra(z, table):
    """``_freq_interp_spectra`` as it ran through scipy.fft."""
    from scipy.fft import irfft, rfft

    size = table.padded_len
    corr = irfft(rfft(z, size) * table.u_padded_conj, size)[..., : z.shape[-1]]
    return corr, rfft(z) * table.u_spectrum_conj


def _all_bins_freq_interp_delay(r, spectrum, delta):
    """``_freq_interp_delay`` as it was: the shift, its amplitude and the
    threshold over every bin."""
    n = r.size
    if np.ptp(r) == 0.0:
        raise FlatCorrelationError("cross-correlation is constant; data carry no alignment")
    k_star = int(np.argmax(r))
    m = np.arange(spectrum.size)
    shifted = spectrum * np.exp(2j * np.pi * m * k_star / n)
    amp = np.abs(shifted)
    usable = np.zeros(spectrum.size, dtype=bool)
    usable[1 : (n - 1) // 2 + 1] = True
    if usable.any():
        usable &= amp >= FREQ_AMP_THRESHOLD * amp[usable].max()
    if not usable.any():
        raise FlatCorrelationError("no spectral bins above the amplitude threshold")
    omega = 2.0 * np.pi * m[usable] / (n * delta)
    weights = amp[usable] ** 2
    per_bin = -np.angle(shifted[usable]) / omega
    delta_tau = float(weights @ per_bin / weights.sum())
    return estimators.DelayEstimate(
        tau_hat=k_star * delta + delta_tau,
        method="freq_interp",
        diagnostics={"k_star": k_star, "delta_tau": delta_tau, "n_bins": int(usable.sum())},
    )


def _tail(r, spectrum, delta):
    """``_freq_interp_delay`` on one row (r, spectrum) of the FFT stage."""
    stage = estimators._freq_interp_stage(r[None], spectrum[None])[0]
    return estimators._freq_interp_delay(stage, r.size, delta)


def _direct_correlation(z, design):
    u_samples = synthesize_input(design, np.arange(z.size) * design.delta)
    return np.correlate(z, u_samples, mode="full")[z.size - 1 :]


class TestCorrelation:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1))
    @example(n=2, seed=0)
    def test_fft_matches_direct_correlation(self, bench_design, n, seed):
        table = corr_table(bench_design, bench_design.delta, n)
        z = np.random.default_rng(seed).standard_normal(n)
        got = estimators._linear_correlation(z, table)
        want = _direct_correlation(z, bench_design)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 2000), rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @example(n=1667, rows=32, seed=0)
    def test_batched_rows_bitwise_equal_single_rows(self, bench_design, n, rows, seed):
        # the benchmark transforms a block of replicates at once and each
        # row must be the one ``estimate`` gets from its dataset alone
        table = corr_table(bench_design, bench_design.delta, n)
        z = np.random.default_rng(seed).standard_normal((rows, n))
        corr, spectra = estimators._freq_interp_spectra(z, table)
        assert corr.shape == (rows, n)
        assert np.array_equal(corr, estimators._linear_correlation(z, table))
        stages = estimators._freq_interp_stage(corr, spectra)
        for i in range(rows):
            single = estimators._freq_interp_spectra(z[i], table)
            assert corr[i].tobytes() == single[0].tobytes()
            assert spectra[i].tobytes() == single[1].tobytes()
            # the stage's row reductions, as ``estimate`` forms them alone
            # and as the per-row tail once formed them
            alone = estimators._freq_interp_stage(single[0][None], single[1][None])[0]
            assert [_bits(a) for a in stages[i]] == [_bits(a) for a in alone]
            spectrum, level, ptp, k_star, level_max, amp_max = stages[i]
            assert _bits(spectrum) == _bits(single[1])
            assert _bits(level) == _bits(np.abs(single[1][1 : (n - 1) // 2 + 1]))
            assert _bits(ptp) == _bits(np.ptp(single[0]))
            assert k_star == int(np.argmax(single[0]))
            assert _bits(level_max) == _bits(level.max() if level.size else 0.0)
            assert _bits(amp_max) == _bits(np.abs(single[1]).max())

    def test_estimate_bitwise_equals_direct_route(self, ref, monkeypatch):
        design, tables, data = ref
        fast = [estimate_delay_freq_interp(ds, tables) for ds in data]
        monkeypatch.setattr(
            estimators, "_linear_correlation", lambda z, table: _direct_correlation(z, design)
        )
        for ds, new in zip(data, fast):
            old = estimate_delay_freq_interp(ds, tables)
            _assert_bitwise_equal(new, old)

    def test_scipy_fft_bitwise_equals_numpy_fft(self, ref):
        # 1667 is prime and pads to 3375, 5001 pads to 10125; the oracle
        # builds the table and the FFT stage through scipy.fft
        design = ref[0]
        for n in (1667, 5001):
            table = corr_table(design, design.delta, n)
            want = _scipy_corr_table(design, design.delta, n)
            assert table.padded_len == want.padded_len
            assert _bits(table.u_spectrum_conj) == _bits(want.u_spectrum_conj)
            assert _bits(table.u_padded_conj) == _bits(want.u_padded_conj)
            clean = sample_delayed(design, 1.33e-3, n)
            z = np.stack([
                add_noise(clean, NOISE_VAR, (6, r), delta=design.delta, true_tau=1.33e-3).z
                for r in range(16)
            ])
            for rows in (z, z[0], z[7]):
                got = estimators._freq_interp_spectra(rows, table)
                oracle = _scipy_freq_interp_spectra(rows, table)
                assert [_bits(a) for a in got] == [_bits(a) for a in oracle], n

    def test_next_fast_len_equals_scipy(self):
        from scipy.fft import next_fast_len

        got = [estimators._next_fast_len(n) for n in range(1, 20000)]
        assert got == [next_fast_len(n, real=True) for n in range(1, 20000)]

    def test_delay_tail_bitwise_equals_all_bins_route(self, ref):
        # 200 replicates of the section 7.2 configuration
        design, tables, _ = ref
        for r in range(200):
            ds = make_dataset(design, 1.33e-3, NOISE_VAR, (5, r))
            corr, spectrum = estimators._freq_interp_spectra(ds.z, tables.corr)
            _assert_bitwise_equal(
                _tail(corr, spectrum, ds.delta),
                _all_bins_freq_interp_delay(corr, spectrum, ds.delta),
            )

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        levels=st.lists(
            st.sampled_from([
                0.0, FREQ_AMP_THRESHOLD, FREQ_AMP_THRESHOLD * (1.0 + 2.0**-52),
                FREQ_AMP_THRESHOLD * (1.0 - 2.0**-53), FREQ_AMP_THRESHOLD * (1.0 - 1e-9),
            ]),
            max_size=8,
        ),
    )
    @example(n=2, seed=0, levels=[])
    @example(n=3, seed=0, levels=[])
    def test_delay_tail_property(self, n, seed, levels):
        # random rows; one bin is made the largest and others are set at, or
        # within an ulp or a hair of, the threshold times its amplitude
        rng = np.random.default_rng(seed)
        corr = rng.standard_normal(n)
        spectrum = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        spectrum *= np.exp(rng.uniform(-5.0, 5.0, spectrum.size))
        bins = rng.permutation(np.arange(1, (n - 1) // 2 + 1))[: len(levels) + 1]
        peak = 2.0 * np.max(np.abs(spectrum))
        for m, level in zip(bins, [1.0, *levels]):
            spectrum[m] = level * peak * np.exp(1j * rng.uniform(-np.pi, np.pi))
        try:
            want = _all_bins_freq_interp_delay(corr, spectrum, 3e-4)
        except FlatCorrelationError as exc:
            with pytest.raises(FlatCorrelationError, match=str(exc)):
                _tail(corr, spectrum, 3e-4)
            return
        _assert_bitwise_equal(_tail(corr, spectrum, 3e-4), want)


def _einsum_scan(table, z, delta):
    """The scan as it was: delta ||z - m_i||^2 over the whole grid by one
    ``einsum``, and its first least."""
    resid = z[None, :] - table.model
    objective = delta * np.einsum("ij,ij->i", resid, resid)
    best = int(np.argmin(objective))
    return best, float(objective[best])


# delays of the block-scan test: at the grid origin, on the grid, between
# grid points, past the input's first lobe and past tau_max = 0.01, where
# the minimum is the clamped grid end
SCAN_TAUS = (0.0, 3e-4, 1.33e-3, 4e-3, 1.05e-2, 1.2e-2)


class TestMlScan:
    def test_estimate_bitwise_equals_einsum_scan(self, ref, monkeypatch):
        # the tau = 0 replicates end on the grid point (converged false), so
        # the fallback to the scan's own objective is exercised as well
        design, tables, data = ref
        fast = [estimate_delay_ml(ds, tables) for ds in data]
        assert not all(est.diagnostics["converged"] for est in fast)
        monkeypatch.setattr(estimators, "_ml_scan", lambda table, z, delta: [
            _einsum_scan(table, row, delta) for row in z
        ])
        for ds, new in zip(data, fast):
            _assert_bitwise_equal(new, estimate_delay_ml(ds, tables))

    def test_scan_argmin_and_objective(self, ref):
        design, tables, data = ref
        for ds in data:
            got = estimators._ml_scan(tables.ml, ds.z[None], ds.delta)
            assert got == [_einsum_scan(tables.ml, ds.z, ds.delta)]

    def test_block_scan_bitwise_equals_einsum_scan(self, ref):
        # 840 replicates at each of SCAN_TAUS (5040 rows), scanned in blocks
        # of 1, 7 and 16 rows, the last block of each size partial
        design, tables, _ = ref
        z = np.stack([
            add_noise(sample_delayed(design, tau, design.n_samples), NOISE_VAR, (1, r),
                      delta=design.delta, true_tau=tau).z
            for tau in SCAN_TAUS for r in range(840)
        ])
        want = [_einsum_scan(tables.ml, row, design.delta) for row in z]
        for size in (1, 7, 16):
            got = [
                best for lo in range(0, len(z), size)
                for best in estimators._ml_scan(tables.ml, z[lo : lo + size], design.delta)
            ]
            assert got == want, size

    def test_near_ties_are_scored_exactly(self, ref):
        # z halfway between two neighbouring bank rows (the last one clamped
        # to tau_max) is equally far from both and nearer to them than to
        # any other row, so both rows' scores lie within the rounding bound
        # of the least, and the exact scores decide.  Ranked by the matrix
        # product alone, 66 to 76 of these 153 rows per block size picked
        # the wrong row
        design, tables, data = ref
        table, n = tables.ml, design.n_samples
        ties = 0.5 * (table.model[:-1] + table.model[1:])
        scores = table.model_sq - 2.0 * (ties @ table.model.T)
        reach = np.linalg.norm(ties, axis=1) + math.sqrt(table.model_sq.max())
        bound = 8.0 * n * np.finfo(float).eps * reach**2
        near = scores <= scores.min(axis=1)[:, None] + bound[:, None]
        pairs = np.arange(len(ties))
        assert near[pairs, pairs].all() and near[pairs, pairs + 1].all()
        # the ties among noisy rows, in blocks that mix them
        z = np.concatenate([ties, [ds.z for ds in data[:20]]])[
            np.random.default_rng(0).permutation(len(ties) + 20)
        ]
        want = [_einsum_scan(table, row, design.delta) for row in z]
        for size in (1, 4, 7, 16):
            got = [
                best for lo in range(0, len(z), size)
                for best in estimators._ml_scan(table, z[lo : lo + size], design.delta)
            ]
            assert got == want, size


def _design(name):
    return InputDesign.from_dict(json.loads((INPUTS / name).read_text()))


def _index_gather_bank(design, delta, n_samples, tau_max):
    """The ML model bank as ``ml_table`` gathered it before it took a
    strided window of the lattice: through a (G, N) int64 index array into
    the delta / 4 lattice of u, the last row evaluated directly when
    tau_max clamps it off the lattice."""
    step = delta / 4.0
    grid = np.arange(0.0, tau_max + step / 2.0, step)
    g = grid.size
    grid[-1] = min(grid[-1], tau_max)
    cfg, u = design.basis_config, design.u
    basis = eval_basis_matrix(cfg, np.arange(4 * n_samples - 3) * step)
    model = np.concatenate([np.zeros(g - 1), basis @ u])[
        4 * np.arange(n_samples) - np.arange(g)[:, None] + g - 1
    ]
    if grid[-1] != (g - 1) * step:
        model[-1] = eval_basis_matrix(cfg, np.arange(n_samples) * delta - grid[-1]) @ u
    return model


class TestMlBank:
    # section 7.2 at the benchmark's tau_max, the default one (3101 grid
    # points), a clamped last row, the data span and below delta / 8, which
    # leaves the one grid point tau = 0; section 7.1 (N = 5001) at 0.01 and
    # a clamped last row, where the per-point oracle stays small in memory.
    # Worst seen 1.08e-14 of max |u| at the 7.2 data span, 5.4e-15 at its
    # default tau_max
    @pytest.mark.parametrize("name, tau_max", [
        ("design72_ref.json", 0.01), ("design72_ref.json", "default"),
        ("design72_ref.json", 0.01003), ("design72_ref.json", "span"),
        ("design72_ref.json", 3e-5),
        ("design71_ref.json", 0.01), ("design71_ref.json", 0.010015),
    ])
    def test_gathered_bank_matches_per_point_oracle(self, name, tau_max):
        design = _design(name)
        n = design.n_samples
        tau_max = {"default": default_tau_max(design), "span": (n - 1) * design.delta}.get(
            tau_max, tau_max
        )
        table = ml_table(design, design.delta, n, tau_max)
        grid, model = per_point_ml_bank(design, design.delta, n, tau_max)
        assert _bits(table.grid) == _bits(grid)
        assert table.model.shape == model.shape
        assert np.max(np.abs(table.model - model)) <= 2e-14 * np.max(np.abs(model))

    @settings(max_examples=100, deadline=None)
    @given(
        rest=st.lists(st.floats(-1.0, 1.0), max_size=5),
        lead=st.floats(0.05, 1.0),
        p=st.floats(0.5, 1000.0),
        log_delta=st.floats(-4.5, -2.0),
        n=st.integers(2, 400),
        frac=st.floats(1e-6, 1.0),
    )
    @example(rest=[0.0, 0.0, -1.0], lead=1.0, p=37.3, log_delta=math.log10(3e-4), n=1667,
             frac=1.0)
    @example(rest=[], lead=1.0, p=5.0, log_delta=-3.0, n=2, frac=0.01)
    def test_gathered_bank_property(self, rest, lead, p, log_delta, n, frac):
        # the oracle forms t_n - tau_i by a subtraction, off by up to about
        # eps (N - 1) delta, where u changes at a small multiple of p S per
        # second; S = sqrt(2p) sum |u_k| bounds the terms of u.  Worst seen
        # 4.2 eps S (1 + p (N - 1) delta) over 7000 random cases
        coeffs = np.array([lead, *rest])
        delta = 10.0**log_delta
        span = (n - 1) * delta
        design = InputDesign(
            p=p, u=coeffs, energy_bound=float(coeffs @ coeffs) + 1.0,
            horizon=span, delta=delta, tau_guess=delta,
        )
        table = ml_table(design, delta, n, frac * span)
        grid, model = per_point_ml_bank(design, delta, n, frac * span)
        assert _bits(table.grid) == _bits(grid)
        scale = math.sqrt(2.0 * p) * np.abs(coeffs).sum() * (1.0 + p * span)
        assert np.max(np.abs(table.model - model)) <= 16 * np.finfo(float).eps * scale

    # N up to 600 keeps the bank and its oracle near 10 MB each
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 600), frac=st.floats(1e-6, 1.0))
    # the benchmark's tau_max, 0.01 (G = 134), a last grid point clamped off
    # the delta / 4 lattice, the data span, and the one grid point tau = 0
    @example(n=1667, frac=0.01 / (1666 * 3e-4))
    @example(n=1667, frac=0.01003 / (1666 * 3e-4))
    @example(n=600, frac=1.0)
    @example(n=2, frac=1e-6)
    def test_strided_bank_equals_index_gather(self, n, frac):
        design = _design("design72_ref.json")
        tau_max = frac * (n - 1) * design.delta
        table = ml_table(design, design.delta, n, tau_max)
        assert _bits(table.model) == _bits(_index_gather_bank(design, design.delta, n, tau_max))
        assert table.model.flags.c_contiguous and table.model.flags.writeable

    def test_estimates_bitwise_equal_per_point_bank_but_negloglik(self, ref, monkeypatch):
        # 200 replicates of CASES, scanned on either bank; the refine reads
        # the lattice in both runs, since it takes B u from the bank row of
        # its bracket.  negloglik is the scan's value wherever Brent does
        # not improve on it: equal here, within 5.2e-16 relative on the
        # benchmark's 1600 seed-1 replicates of CASES' delays
        design, tables, data = ref
        grid, model = per_point_ml_bank(design, design.delta, design.n_samples, TAU_MAX)
        oracle = dataclasses.replace(
            tables.ml, grid=grid, model=model, model_sq=np.einsum("ij,ij->i", model, model)
        )
        scan = estimators._ml_scan
        fast = [estimate_delay_ml(ds, tables) for ds in data]
        monkeypatch.setattr(
            estimators, "_ml_scan", lambda table, z, delta: scan(oracle, z, delta)
        )
        for ds, new in zip(data, fast):
            old = estimate_delay_ml(ds, tables)
            assert _bits(new.tau_hat) == _bits(old.tau_hat)
            f_new, f_old = new.diagnostics.pop("negloglik"), old.diagnostics.pop("negloglik")
            assert abs(f_new - f_old) <= 1e-14 * f_old
            assert list(new.diagnostics) == list(old.diagnostics)
            for key, val in new.diagnostics.items():
                assert _bits(val) == _bits(old.diagnostics[key]), key

    def test_basis_rows_evaluated(self, monkeypatch):
        # the per-point bank evaluated G N = 3101 x 1667 = 5.2M points at
        # the default tau_max; the lattice needs 4 (N - 1) + 1, and the
        # clamped last row N more
        design = _design("design72_ref.json")
        rows = []

        def counting(cfg, t):
            out = eval_basis_matrix(cfg, t)
            rows.append(out.size // out.shape[-1])
            return out

        monkeypatch.setattr(estimators, "eval_basis_matrix", counting)
        n = design.n_samples
        table = ml_table(design, design.delta, n, default_tau_max(design))
        assert 0 < sum(rows) <= 4 * (n - 1) + table.grid.size + n


def _time_domain_ml(data, design, table):
    """The ML route before the Laguerre-domain refine: bounded Brent on
    ``ml_negloglik`` itself.  Returns tau_hat and the diagnostics it shares
    with ``estimate_delay_ml``."""
    grid = table.grid
    best, f_best = estimators._ml_scan(table, data.z[None], data.delta)[0]
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    tau, f_ref, _ = estimators.minimize_bounded(
        lambda x: ml_negloglik(data, design, x), lo, hi,
        estimators.ML_TAU_XATOL_FRACTION * data.delta,
    )
    converged = f_ref <= f_best
    return (tau if converged else float(grid[best])), {
        "grid_best_tau": float(grid[best]),
        "converged": converged,
        "boundary_hit": best in (0, grid.size - 1),
    }


def _direct_refine_objective(data, design, lo):
    """The refine objective as it was set up before the lattice gather: the
    basis ell(t_n - lo) evaluated on the rows t_n >= lo, q = z - B u, and
    the sample cutoff n0 by ``searchsorted``."""
    p, u = design.p, design.u
    t, z = data.t, data.z
    n_lo = int(t.searchsorted(lo))
    basis = eval_basis_matrix(design.basis_config, t[n_lo:] - lo)
    resid = z[n_lo:] - basis @ u
    index = np.add.outer(np.arange(u.size), np.arange(u.size))
    hankel_u = np.concatenate([u, np.zeros(u.size - 1)])[index]

    def negloglik(tau):
        n0 = int(t.searchsorted(tau))
        b, q = basis[n0 - n_lo :], resid[n0 - n_lo :]
        head, cross, gram = z[:n0] @ z[:n0] + q @ q, b.T @ q, b.T @ b
        shift = tau - lo
        w = hankel_u @ assoc_laguerre_sequence(-2.0 * p * shift, u.size)
        a = np.expm1(p * shift) * w + (w - u)
        return float(data.delta * (head - 2.0 * (a @ cross) + a @ gram @ a))

    return negloglik


def _brent_refine_ml(data, design, table):
    """The refine before the grid-end probe: bounded Brent on the
    Laguerre-domain objective over every bracket, the grid point kept when
    Brent does not improve on the scan.  Returns tau_hat, negloglik,
    converged and Brent's evaluation count."""
    grid = table.grid
    best, f_best = estimators._ml_scan(table, data.z[None], data.delta)[0]
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    fn = estimators._refine_objective(data, table, max(best - 1, 0))
    tau, f_ref, evals = estimators.minimize_bounded(
        fn, lo, hi, estimators.ML_TAU_XATOL_FRACTION * data.delta
    )
    if f_ref > f_best:
        return float(grid[best]), f_best, False, evals
    return tau, f_ref, True, evals


class TestMlRefineLaguerre:
    def test_grid_end_probe_agrees_with_brent(self, ref):
        # the benchmark's seed-1 streams at tau = 0, where 105 of 200 clamp
        # at the grid origin (Brent took 31 evaluations on each), and past
        # tau_max, where every replicate clamps at the top end (26)
        design, tables, _ = ref
        clamped = 0
        for tau, count in [(0.0, 200), (1.2 * TAU_MAX, 20)]:
            for r in range(count):
                ds = make_dataset(design, tau, NOISE_VAR, (1, r))
                est = estimate_delay_ml(ds, tables)
                diag = est.diagnostics
                tau_old, f_old, converged_old, evals_old = _brent_refine_ml(ds, design, tables.ml)
                assert _bits(est.tau_hat) == _bits(tau_old)
                assert _bits(diag["negloglik"]) == _bits(f_old)
                assert diag["converged"] == converged_old
                if not diag["boundary_hit"]:
                    assert diag["refine_evals"] == evals_old
                elif converged_old:
                    assert diag["refine_evals"] == 1 + evals_old
                else:
                    assert diag["refine_evals"] == 1
                    clamped += 1
        assert clamped > 20

    def test_estimate_agrees_with_time_domain_refine(self, ref):
        # the benchmark's seed-1 noise streams: 1000 replicates at the
        # section 7.2 delay and 200 at each other delay of CASES; worst
        # |d tau_hat| 3.7e-11 s, worst negloglik 1.4e-15 relative
        design, tables, _ = ref
        for tau, count in [(1.33e-3, 1000), (0.0, 200), (3e-4, 200), (4e-3, 200)]:
            for r in range(count):
                ds = make_dataset(design, tau, NOISE_VAR, (1, r))
                est = estimate_delay_ml(ds, tables)
                diag = est.diagnostics
                tau_old, diag_old = _time_domain_ml(ds, design, tables.ml)
                assert abs(est.tau_hat - tau_old) <= 1e-10
                f_direct = ml_negloglik(ds, design, est.tau_hat)
                assert abs(diag["negloglik"] - f_direct) <= 1e-12 * f_direct
                assert {key: diag[key] for key in diag_old} == diag_old
                # only for interior, converged minima: a minimum at a bracket
                # end (clamped, or no improvement on the scan) takes Brent
                # 13-31 steps on either route, on 117 of these replicates
                if diag["converged"] and not diag["boundary_hit"]:
                    assert diag["refine_evals"] <= 12

    @settings(max_examples=150, deadline=None)
    @given(
        rest=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
        lead=st.floats(0.05, 1.0),
        p=st.floats(5.0, 200.0),
        best=st.integers(0, 160),
        frac=st.floats(0.0, 1.0),
        on_sample=st.booleans(),
        continuous=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # a sample instant at the bracket centre, at each grid end, and a
    # discontinuous input (sum u != 0)
    @example(rest=[0.5, -0.5, -1.0], lead=1.0, p=37.3, best=20, frac=0.5, on_sample=True,
             continuous=True, seed=0)
    @example(rest=[0.3], lead=0.8, p=5.0, best=0, frac=0.9, on_sample=False,
             continuous=False, seed=1)
    @example(rest=[-0.2] * 6, lead=0.6, p=200.0, best=160, frac=0.1, on_sample=False,
             continuous=False, seed=2)
    @example(rest=[0.4, -0.1], lead=0.5, p=120.0, best=0, frac=0.0, on_sample=True,
             continuous=False, seed=3)
    def test_objective_matches_negloglik(
        self, rest, lead, p, best, frac, on_sample, continuous, seed
    ):
        # the shift identity against the direct sum over the samples, and
        # the basis and residual read from the lattice against the direct
        # route that evaluates them, for any tau of a refine bracket; worst
        # seen 4.5e-14 and 4.1e-14 relative over 3000 random cases of seven
        # delays each
        coeffs = np.array([lead, *rest])
        if continuous:
            coeffs[-1] -= coeffs.sum()
        delta, tau_max = 3e-4, 40 * 3e-4
        design = InputDesign(
            p=p, u=coeffs, energy_bound=float(coeffs @ coeffs) + 1.0,
            horizon=0.15, delta=delta, tau_guess=delta,
        )
        table = ml_table(design, delta, design.n_samples, tau_max)
        grid = table.grid
        assert grid.size == 161
        i_lo = max(best - 1, 0)
        lo, hi = grid[i_lo], grid[min(best + 1, grid.size - 1)]
        tau = lo + frac * (hi - lo)
        if on_sample:
            tau = np.ceil(lo / delta) * delta
            assume(tau <= hi)
        data = make_dataset(design, grid[best], 1e-2, seed)
        got = estimators._refine_objective(data, table, i_lo)(tau)
        want = ml_negloglik(data, design, tau)
        assert abs(got - want) <= 1e-12 * want
        direct = _direct_refine_objective(data, design, lo)(tau)
        assert abs(got - direct) <= GATHER_RTOL * direct


def _scipy_bounded(fn, a, b, xatol):
    """scipy's bounded Brent, the routine ``minimize_bounded`` transcribes."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(fn, bounds=(a, b), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun), int(res.nfev)


# objective families (c, s) -> f: smooth, kinked, flat on an interval and
# piecewise constant (ties between evaluations), monotone (the minimum on an
# end of the bracket, as at an ML grid end) and NaN beyond c
SHAPES = {
    "smooth": lambda c, s: lambda x: (x - c) ** 2 + s * math.sin(5.0 * x),
    "abs": lambda c, s: lambda x: abs(x - c),
    "plateau": lambda c, s: lambda x: max(abs(x - c) - abs(s), 0.0),
    "steps": lambda c, s: lambda x: float(math.floor((1.0 + abs(s)) * abs(x - c))),
    "max_of_parabolas": lambda c, s: lambda x: max((x - c) ** 2, abs(s) * (x + c) ** 2 + 0.1),
    "grid_end": lambda c, s: lambda x: s * x + c,
    "nan_above": lambda c, s: lambda x: math.nan if x > c else (x - c) ** 2 + s,
}


class TestMinimizeBounded:
    @settings(max_examples=400, deadline=None)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        a=st.floats(-10.0, 10.0),
        width=st.floats(0.0, 10.0),
        c=st.floats(-12.0, 12.0),
        s=st.floats(-3.0, 3.0),
        log_xatol=st.floats(-14.0, -1.0),
    )
    @example(shape="abs", a=-1.0, width=2.0, c=0.0, s=0.0, log_xatol=-14.0)
    @example(shape="nan_above", a=-1.0, width=3.0, c=-2.0, s=0.0, log_xatol=-5.0)
    def test_bitwise_equals_scipy(self, shape, a, width, c, s, log_xatol):
        fn = SHAPES[shape](c, s)
        b, xatol = a + width, 10.0**log_xatol
        x, f_x, evals = estimators.minimize_bounded(fn, a, b, xatol)
        x_ref, f_ref, evals_ref = _scipy_bounded(fn, a, b, xatol)
        # the byte comparison holds NaN equal to NaN
        assert _bits([x, f_x]) == _bits([x_ref, f_ref])
        assert evals == evals_ref

    def test_evaluation_cap(self):
        # with xatol = 0 and the minimum at 0 the stopping tolerance shrinks
        # with |x|, so only the cap of 500 evaluations ends the search
        got = estimators.minimize_bounded(abs, -1.0, 1.0, 0.0)
        assert got[2] == 500
        assert _bits(list(got[:2])) == _bits(list(_scipy_bounded(abs, -1.0, 1.0, 0.0)[:2]))

    @pytest.mark.parametrize("bounds", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_unusable_bounds_refused(self, bounds):
        with pytest.raises(ValueError, match="bounds"):
            estimators.minimize_bounded(abs, *bounds, 1e-5)


class TestSpectrumSolve:
    def test_solve_within_1e14_of_triangular_solve(self):
        # 300 replicates of the section 7.2 configuration; the triangular
        # solve is the route that np.linalg.solve, and then the prebuilt map
        # R^{-1} Q^T, replaced
        from scipy.linalg import solve_triangular

        design = InputDesign.from_dict(json.loads((INPUTS / "design72_ref.json").read_text()))
        tables = build_replicate_tables(
            ("proposed",), design, delta=design.delta, n_samples=design.n_samples,
            k_model=K, tau_max=TAU_MAX,
        )
        phi = tables.phi
        for r in range(300):
            ds = make_dataset(design, 1.33e-3, NOISE_VAR, (0, r))
            got = estimate_spectrum_ls(ds, tables.spectrum["proposed"])
            want = solve_triangular(phi.r, phi.q.T @ ds.z, lower=False)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestMarkovTable:
    def test_table_v_is_the_per_call_series(self, ref):
        design, tables, data = ref
        assert _bits(tables.markov) == _bits(reciprocal_series(design.u, K + 1))
        y_hat = estimate_spectrum_ls(data[0], tables.spectrum["lag_spline"])
        assert _bits(estimate_markov(y_hat, tables.markov)) == _bits(
            estimate_markov(y_hat, reciprocal_series(design.u, K + 1))
        )


class TestBlockedBiasPass:
    """``_ratio_bias`` draws and reduces its samples a block of rows at a
    time and forms (E_A, E_B) by one product; the oracle draws them all at
    once and assembles (E_A, E_B) from the Markov errors.  The averages are
    taken over the whole vectors in both, so only E_A rounds differently;
    the bound is relative to the mean absolute summand, since the eps1 mean
    and the prediction can cancel to far below it.  Each case runs at the
    Markov error of ``predict_bias_tau`` and at a zero mean."""

    @pytest.mark.parametrize("mc_samples", [1000, 20_000, 100_000, 100_003])
    @pytest.mark.parametrize("k_model", [3, 6, 12])
    def test_matches_full_draw_oracle(self, k_model, mc_samples):
        design = _design("design72_ref.json")
        options = [(None, False), (None, True)]
        if k_model == 12:  # an explicit Markov order below K + 1
            options += [(4, False), (4, True)]
        for tau, (m_markov, zero_mean) in itertools.product((3e-4, 1.33e-3, 4e-3, 9e-3), options):
            p, _, h_true, mean, factor = ratio_bias_inputs(
                design, NOISE_VAR, tau, k_model, m_markov
            )
            if zero_mean:
                mean = np.zeros_like(mean)
                got = analysis._ratio_bias(p, tau, h_true, mean, factor, mc_samples, 7)
            else:
                got = analysis.predict_bias_tau(
                    design, NOISE_VAR, tau, k_model, m_markov, mc_samples=mc_samples, seed=7
                )
            want, scale = full_draw_bias_prediction(p, tau, h_true, mean, factor, mc_samples, 7)
            case = (tau, m_markov, zero_mean)
            assert got.eps2_mean == want.eps2_mean, case
            for name in ("predicted_bias", "eps1_mean"):
                err = abs(getattr(got, name) - getattr(want, name))
                assert err <= 1e-14 * scale[name], (name, case)
            assert (got.mc_samples, got.seed) == (mc_samples, 7)

    def test_blocks_draw_the_full_stream(self):
        # 100_003 rows: whole blocks and a partial last block
        n, block = 100_003, analysis._BIAS_BLOCK_ROWS
        assert block < n and n % block
        rng = np.random.default_rng(11)
        blocks = [rng.standard_normal((min(block, n - lo), 13)) for lo in range(0, n, block)]
        assert np.array_equal(np.vstack(blocks), np.random.default_rng(11).standard_normal((n, 13)))
