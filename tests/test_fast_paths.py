"""Each replicate fast path against the route it replaced.

The replicate tables reduce the spline projection to one matrix, the
linear correlation to a zero-padded FFT, the ML scan to one matrix-vector
product and the reciprocal input series to a table entry; the ML refine
shifts the input in the Laguerre domain.  The old routes are the oracles
here: CubicSpline plus quadrature, ``np.correlate`` and ``np.fft``, the
residual ``einsum`` over the whole grid, ``reciprocal_series`` per call and
bounded Brent on ``ml_negloglik`` itself.  Where the arithmetic is
unchanged the estimates must be bitwise equal; the spline projection sums
in another order and is held to 1e-13 relative, and its delay to 1e-15 s;
the ML refine objective is held to 1e-12 relative and its delay to 1e-10 s.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lagdelay import estimators
from lagdelay.delay_ops import Spectrum, assemble_ab, closed_form_delay, reciprocal_series
from lagdelay.estimators import (
    ESTIMATORS,
    build_replicate_tables,
    corr_table,
    estimate_delay_freq_interp,
    estimate_delay_lag_spline,
    estimate_delay_ml,
    estimate_markov,
    ml_negloglik,
    ml_table,
    spline_table,
)
from lagdelay.simulate import (
    InputDesign,
    add_noise,
    make_dataset,
    sample_delayed,
    synthesize_input,
)

from conftest import cubic_spline_projection

INPUTS = Path(__file__).resolve().parents[1] / "lagbench" / "inputs"
K = 12
TAU_MAX = 0.01
NOISE_VAR = 0.01
# (true tau, noise seed): the section 7.2 delay, a delay at 0, one sample
# and a delay past the input's first lobe
CASES = [(1.33e-3, 1), (0.0, 2), (3e-4, 3), (4e-3, 4)]


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
    tables = build_replicate_tables(ESTIMATORS, design, n_samples=n, k_model=K, tau_max=TAU_MAX)
    data = []
    for tau, seed in CASES:
        clean = sample_delayed(design, tau, n)
        data += [
            add_noise(clean, NOISE_VAR, (seed, r), delta=design.delta, true_tau=tau)
            for r in range(50)
        ]
    return design, tables, data


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
    def test_matrix_matches_cubic_spline_quadrature(self, n, k, p, delta, seed):
        z = np.random.default_rng(seed).standard_normal(n)
        got = spline_table(p, k + 1, delta, n).projection @ z
        want = cubic_spline_projection(z, p, k + 1, delta)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_sec72_spectrum_and_delay(self, ref):
        # worst over 1600 replicates: 9.5e-15 relative in y_hat, 1.7e-16 s
        # in tau_hat
        design, tables, data = ref
        for ds in data:
            est = estimate_delay_lag_spline(ds, design, K, table=tables.spline)
            want = cubic_spline_projection(ds.z, design.p, K + 1, ds.delta)
            got = est.diagnostics["y_hat"]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            h_hat = estimate_markov(Spectrum(want, design.p), design.u)
            assert abs(est.tau_hat - closed_form_delay(assemble_ab(h_hat), design.p)) <= 1e-15


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

    def test_estimate_bitwise_equals_direct_route(self, ref, monkeypatch):
        design, tables, data = ref
        fast = [estimate_delay_freq_interp(ds, design, tables.corr) for ds in data]
        monkeypatch.setattr(
            estimators, "_linear_correlation", lambda z, table: _direct_correlation(z, design)
        )
        for ds, new in zip(data, fast):
            old = estimate_delay_freq_interp(ds, design, tables.corr)
            _assert_bitwise_equal(new, old)

    def test_scipy_fft_bitwise_equals_numpy_fft(self, ref, monkeypatch):
        # 200 replicates of the section 7.2 configuration; N = 1667 is
        # prime, where scipy.fft is the faster of the two
        design, tables, _ = ref
        data = [
            make_dataset(design, 1.33e-3, NOISE_VAR, (5, r)) for r in range(200)
        ]
        fast = [estimate_delay_freq_interp(ds, design, tables.corr) for ds in data]
        monkeypatch.setattr(estimators, "rfft", np.fft.rfft)
        monkeypatch.setattr(estimators, "irfft", np.fft.irfft)
        table = corr_table(design, design.delta, design.n_samples)
        assert _bits(table.u_spectrum_conj) == _bits(tables.corr.u_spectrum_conj)
        assert _bits(table.u_padded_conj) == _bits(tables.corr.u_padded_conj)
        for ds, new in zip(data, fast):
            _assert_bitwise_equal(new, estimate_delay_freq_interp(ds, design, table))


def _einsum_scan(table, data):
    resid = data.z[None, :] - table.model
    objective = data.delta * np.einsum("ij,ij->i", resid, resid)
    best = int(np.argmin(objective))
    return best, float(objective[best])


@pytest.mark.filterwarnings("ignore::lagdelay.errors.NoImprovementWarning")
class TestMlScan:
    def test_estimate_bitwise_equals_einsum_scan(self, ref, monkeypatch):
        # the tau = 0 replicates end on the grid point (converged false), so
        # the fallback to the scan's own objective is exercised as well
        design, tables, data = ref
        fast = [estimate_delay_ml(ds, design, TAU_MAX, table=tables.ml) for ds in data]
        assert not all(est.diagnostics["converged"] for est in fast)
        monkeypatch.setattr(estimators, "_scan_minimum", _einsum_scan)
        for ds, new in zip(data, fast):
            _assert_bitwise_equal(new, estimate_delay_ml(ds, design, TAU_MAX, table=tables.ml))

    def test_scan_argmin_and_objective(self, ref):
        design, tables, data = ref
        for ds in data:
            assert estimators._scan_minimum(tables.ml, ds) == _einsum_scan(tables.ml, ds)


def _time_domain_ml(data, design, table):
    """The ML route before the Laguerre-domain refine: bounded Brent on
    ``ml_negloglik`` itself.  Returns tau_hat and the diagnostics it shares
    with ``estimate_delay_ml``."""
    grid = table.grid
    best, f_best = estimators._scan_minimum(table, data)
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    tau, f_ref, _ = estimators.minimize_bounded(
        lambda x: ml_negloglik(data, design, x), lo, hi, estimators.ML_TAU_XATOL
    )
    converged = f_ref <= f_best
    return (tau if converged else float(grid[best])), {
        "grid_best_tau": float(grid[best]),
        "converged": converged,
        "boundary_hit": best in (0, grid.size - 1),
    }


@pytest.mark.filterwarnings("ignore::lagdelay.errors.NoImprovementWarning")
class TestMlRefineLaguerre:
    def test_estimate_agrees_with_time_domain_refine(self, ref):
        # the benchmark's seed-1 noise streams: 1000 replicates at the
        # section 7.2 delay and 200 at each other delay of CASES; worst
        # |d tau_hat| 3.7e-11 s, worst negloglik 1.4e-15 relative
        design, tables, _ = ref
        for tau, count in [(1.33e-3, 1000), (0.0, 200), (3e-4, 200), (4e-3, 200)]:
            for r in range(count):
                ds = make_dataset(design, tau, NOISE_VAR, (1, r))
                est = estimate_delay_ml(ds, design, TAU_MAX, table=tables.ml)
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
        # the shift identity against the direct sum over the samples,
        # for any tau of a refine bracket; worst seen 2.2e-14 relative over
        # 3000 random cases of seven delays each
        coeffs = np.array([lead, *rest])
        if continuous:
            coeffs[-1] -= coeffs.sum()
        delta, tau_max = 3e-4, 40 * 3e-4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            design = InputDesign(
                p=p, u=Spectrum(coeffs, p), energy_bound=float(coeffs @ coeffs) + 1.0,
                horizon=0.15, delta=delta, tau_guess=delta,
            )
        grid = ml_table(design, delta, design.n_samples, tau_max).grid
        assert grid.size == 161
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        tau = lo + frac * (hi - lo)
        if on_sample:
            tau = np.ceil(lo / delta) * delta
            assume(tau <= hi)
        data = make_dataset(design, grid[best], 1e-2, seed)
        got = estimators._refine_objective(data, design, lo)(tau)
        want = ml_negloglik(data, design, tau)
        assert abs(got - want) <= 1e-12 * want


class TestMarkovTable:
    def test_table_v_is_the_per_call_series(self, ref):
        design, tables, data = ref
        assert _bits(tables.markov.v) == _bits(reciprocal_series(design.u, K + 1))
        y_hat = Spectrum(tables.spline.projection @ data[0].z, design.p)
        assert _bits(estimate_markov(y_hat, design.u, tables.markov)) == _bits(
            estimate_markov(y_hat, design.u)
        )
