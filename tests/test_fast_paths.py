"""Each replicate fast path against the route it replaced.

The replicate tables reduce the spline projection to one matrix, the
linear correlation to a zero-padded FFT, the ML scan to one matrix-vector
product on a model bank gathered from one delta / 4 lattice of the input
and the reciprocal input series to a table entry; the ML refine shifts the
input in the Laguerre domain.  The old routes are the oracles here:
CubicSpline plus quadrature, ``np.correlate`` and ``np.fft``, the residual
``einsum`` over the whole grid, the bank evaluated point by point,
``reciprocal_series`` per call and bounded Brent on ``ml_negloglik``
itself.  Where the arithmetic is unchanged the estimates must be bitwise
equal; the spline projection sums in another order and is held to 5e-14
of its summands, and its delay to 1e-15 s; the gathered bank rounds its
time arguments once instead of three times and is held to 2e-14 of its
largest entry on the section 7 designs, with ML estimates bitwise equal
but for ``negloglik``; the ML refine objective is held to 1e-12 relative
and its delay to 1e-10 s.
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
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lagdelay import analysis, estimators
from lagdelay.basis import eval_basis_matrix
from lagdelay.delay_ops import assemble_ab, closed_form_delay, reciprocal_series
from lagdelay.errors import NoImprovementWarning
from lagdelay.estimators import (
    ESTIMATORS,
    MlTable,
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

from conftest import cubic_spline_projection, full_draw_bias_prediction, per_point_ml_bank

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
        for i in range(rows):
            single = estimators._freq_interp_spectra(z[i], table)
            assert corr[i].tobytes() == single[0].tobytes()
            assert spectra[i].tobytes() == single[1].tobytes()

    def test_estimate_bitwise_equals_direct_route(self, ref, monkeypatch):
        design, tables, data = ref
        fast = [estimate_delay_freq_interp(ds, tables) for ds in data]
        monkeypatch.setattr(
            estimators, "_linear_correlation", lambda z, table: _direct_correlation(z, design)
        )
        for ds, new in zip(data, fast):
            old = estimate_delay_freq_interp(ds, tables)
            _assert_bitwise_equal(new, old)

    def test_scipy_fft_bitwise_equals_numpy_fft(self, ref, monkeypatch):
        # 200 replicates of the section 7.2 configuration; N = 1667 is
        # prime, where scipy.fft is the faster of the two.  The estimators
        # import scipy.fft where they call it, so patching the module's
        # names swaps the transform under every call
        import scipy.fft

        design, tables, _ = ref
        data = [
            make_dataset(design, 1.33e-3, NOISE_VAR, (5, r)) for r in range(200)
        ]
        fast = [estimate_delay_freq_interp(ds, tables) for ds in data]
        monkeypatch.setattr(scipy.fft, "rfft", np.fft.rfft)
        monkeypatch.setattr(scipy.fft, "irfft", np.fft.irfft)
        np_tables = build_replicate_tables(
            ("freq_interp",), design, delta=design.delta, n_samples=design.n_samples,
            k_model=K, tau_max=TAU_MAX,
        )
        assert _bits(np_tables.corr.u_spectrum_conj) == _bits(tables.corr.u_spectrum_conj)
        assert _bits(np_tables.corr.u_padded_conj) == _bits(tables.corr.u_padded_conj)
        for ds, new in zip(data, fast):
            _assert_bitwise_equal(new, estimate_delay_freq_interp(ds, np_tables))


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
        fast = [estimate_delay_ml(ds, tables) for ds in data]
        assert not all(est.diagnostics["converged"] for est in fast)
        monkeypatch.setattr(estimators, "_scan_minimum", _einsum_scan)
        for ds, new in zip(data, fast):
            _assert_bitwise_equal(new, estimate_delay_ml(ds, tables))

    def test_scan_argmin_and_objective(self, ref):
        design, tables, data = ref
        for ds in data:
            assert estimators._scan_minimum(tables.ml, ds) == _einsum_scan(tables.ml, ds)


def _design(name):
    return InputDesign.from_dict(json.loads((INPUTS / name).read_text()))


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            design = InputDesign(
                p=p, u=coeffs, energy_bound=float(coeffs @ coeffs) + 1.0,
                horizon=span, delta=delta, tau_guess=delta,
            )
            table = ml_table(design, delta, n, frac * span)
            grid, model = per_point_ml_bank(design, delta, n, frac * span)
        assert _bits(table.grid) == _bits(grid)
        scale = math.sqrt(2.0 * p) * np.abs(coeffs).sum() * (1.0 + p * span)
        assert np.max(np.abs(table.model - model)) <= 16 * np.finfo(float).eps * scale

    def test_estimates_bitwise_equal_per_point_bank_but_negloglik(self, ref):
        # 200 replicates of CASES.  negloglik is the scan's value wherever
        # Brent does not improve on it: equal here, within 5.2e-16 relative
        # on the benchmark's 1600 seed-1 replicates of CASES' delays
        design, tables, data = ref
        grid, model = per_point_ml_bank(design, design.delta, design.n_samples, TAU_MAX)
        oracle = dataclasses.replace(tables, ml=MlTable(
            grid=grid, model=model, model_sq=np.einsum("ij,ij->i", model, model)
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoImprovementWarning)
            for ds in data:
                new, old = estimate_delay_ml(ds, tables), estimate_delay_ml(ds, oracle)
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


def _brent_refine_ml(data, design, table):
    """The refine before the grid-end probe: bounded Brent on the
    Laguerre-domain objective over every bracket, the grid point kept when
    Brent does not improve on the scan.  Returns tau_hat, negloglik,
    converged and Brent's evaluation count."""
    grid = table.grid
    best, f_best = estimators._scan_minimum(table, data)
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    fn = estimators._refine_objective(data, design, lo)
    tau, f_ref, evals = estimators.minimize_bounded(fn, lo, hi, estimators.ML_TAU_XATOL)
    if f_ref > f_best:
        return float(grid[best]), f_best, False, evals
    return tau, f_ref, True, evals


@pytest.mark.filterwarnings("ignore::lagdelay.errors.NoImprovementWarning")
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
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    est = estimate_delay_ml(ds, tables)
                diag = est.diagnostics
                tau_old, f_old, converged_old, evals_old = _brent_refine_ml(ds, design, tables.ml)
                assert _bits(est.tau_hat) == _bits(tau_old)
                assert _bits(diag["negloglik"]) == _bits(f_old)
                assert diag["converged"] == converged_old
                warned = any(issubclass(w.category, NoImprovementWarning) for w in caught)
                assert warned == (not converged_old)
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
                p=p, u=coeffs, energy_bound=float(coeffs @ coeffs) + 1.0,
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
        # solve is the route np.linalg.solve replaced
        from scipy.linalg import solve_triangular

        design = InputDesign.from_dict(json.loads((INPUTS / "design72_ref.json").read_text()))
        phi = build_replicate_tables(
            ("proposed",), design, delta=design.delta, n_samples=design.n_samples,
            k_model=K, tau_max=TAU_MAX,
        ).phi
        for r in range(300):
            ds = make_dataset(design, 1.33e-3, NOISE_VAR, (0, r))
            got = estimate_spectrum_ls(ds, phi)
            want = solve_triangular(phi.r, phi.q.T @ ds.z, lower=False)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestMarkovTable:
    def test_table_v_is_the_per_call_series(self, ref):
        design, tables, data = ref
        assert _bits(tables.markov) == _bits(reciprocal_series(design.u, K + 1))
        y_hat = tables.spline @ data[0].z
        assert _bits(estimate_markov(y_hat, tables.markov)) == _bits(
            estimate_markov(y_hat, reciprocal_series(design.u, K + 1))
        )


class TestBlockedBiasPass:
    """``predict_bias_tau`` draws and reduces its samples a block of rows at
    a time and forms (E_A, E_B) by one product; the oracle draws them all
    at once and assembles (E_A, E_B) from the Markov errors.  The averages
    are taken over the whole vectors in both, so only E_A rounds
    differently; the bound is relative to the mean absolute summand, since
    the eps1 mean and the prediction can cancel to far below it."""

    @pytest.mark.parametrize("mc_samples", [1000, 20_000, 100_000, 100_003])
    @pytest.mark.parametrize("k_model", [3, 6, 12])
    def test_matches_full_draw_oracle(self, k_model, mc_samples):
        design = _design("design72_ref.json")
        options = [{}, {"include_truncation_bias": False}]
        if k_model == 12:  # an explicit Markov order below K + 1
            options += [{"m_markov": 4}, {"m_markov": 4, "include_truncation_bias": False}]
        for tau, opts in itertools.product((3e-4, 1.33e-3, 4e-3, 9e-3), options):
            args = (design, NOISE_VAR, tau, k_model)
            kw = dict(opts, mc_samples=mc_samples, seed=7)
            got = analysis.predict_bias_tau(*args, **kw)
            want, scale = full_draw_bias_prediction(*args, **kw)
            assert got.eps2_mean == want.eps2_mean, (tau, opts)
            for name in ("predicted_bias", "eps1_mean"):
                err = abs(getattr(got, name) - getattr(want, name))
                assert err <= 1e-14 * scale[name], (name, tau, opts)
            assert (got.mc_samples, got.seed) == (mc_samples, 7)

    def test_blocks_draw_the_full_stream(self):
        # 100_003 rows: whole blocks and a partial last block
        n, block = 100_003, analysis._BIAS_BLOCK_ROWS
        assert block < n and n % block
        rng = np.random.default_rng(11)
        blocks = [rng.standard_normal((min(block, n - lo), 13)) for lo in range(0, n, block)]
        assert np.array_equal(np.vstack(blocks), np.random.default_rng(11).standard_normal((n, 13)))
