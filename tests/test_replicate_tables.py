"""Prebuilt replicate tables against the estimators' own per-call tables.

The Monte-Carlo harness builds every replicate-invariant table once per run
(``build_replicate_tables``) and hands it to ``estimate_delay``; without
tables each estimator builds its own with the same helpers.  Both paths must
give bitwise the same estimate and diagnostics, and a table built for
another design, sampling, K or tau_max must be refused.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagdelay.analysis import BenchmarkConfig, run_monte_carlo
from lagdelay.delay_ops import Spectrum
from lagdelay.errors import LagDelayError
from lagdelay.estimators import ESTIMATORS, build_replicate_tables, estimate_delay, markov_table
from lagdelay.simulate import Dataset, InputDesign, add_noise, make_dataset, sample_delayed

TAU = 1.33e-3
K = 12
TAU_MAX = 0.01
NOISE_VAR = 0.01


def _bits(value):
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _run(method, ds, design, k_model, tau_max, tables=None):
    """The estimate, or the class name of the LagDelayError it raised."""
    try:
        return estimate_delay(
            method, ds, design, k_model=k_model, m_markov=None, tau_max=tau_max, tables=tables
        )
    except LagDelayError as exc:
        return type(exc).__name__


def _assert_bitwise_equal(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert a.method == b.method
    assert _bits(a.tau_hat) == _bits(b.tau_hat), a.method
    assert list(a.diagnostics) == list(b.diagnostics)
    for key, val in a.diagnostics.items():
        assert _bits(val) == _bits(b.diagnostics[key]), (a.method, key)


def _check_replicate(ds, design, k_model, tau_max, tables):
    for method in ESTIMATORS:
        _assert_bitwise_equal(
            _run(method, ds, design, k_model, tau_max, tables),
            _run(method, ds, design, k_model, tau_max),
        )


@pytest.fixture(scope="module")
def sec72_tables(sec72_design):
    return build_replicate_tables(
        ESTIMATORS, sec72_design, n_samples=sec72_design.n_samples, k_model=K, tau_max=TAU_MAX
    )


@pytest.mark.filterwarnings("ignore::lagdelay.errors.NoImprovementWarning")
class TestPrebuiltEqualsPerCall:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2022])
    def test_sec72_replicates(self, sec72_design, sec72_tables, seed):
        clean = sample_delayed(sec72_design, TAU, sec72_design.n_samples)
        for r in range(5):
            ds = add_noise(clean, NOISE_VAR, (seed, r), delta=sec72_design.delta, true_tau=TAU)
            _check_replicate(ds, sec72_design, K, TAU_MAX, sec72_tables)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tau=st.floats(0.5e-3, 5e-3),
        tau_max=st.floats(1e-3, 1e-2),
        k_model=st.sampled_from([3, 6, 12]),
    )
    def test_property_bench_design(self, bench_design, seed, tau, tau_max, k_model):
        tables = build_replicate_tables(
            ESTIMATORS, bench_design, n_samples=bench_design.n_samples,
            k_model=k_model, tau_max=tau_max,
        )
        ds = make_dataset(bench_design, tau, NOISE_VAR, seed)
        _check_replicate(ds, bench_design, k_model, tau_max, tables)

    def test_monte_carlo_equals_replicate_loop(self, bench_design):
        # the replicate loop without tables, as the harness ran it before
        # the tables were hoisted out of it
        seed, replicates = 17, 12
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=NOISE_VAR, k_model=K, tau_max=TAU_MAX
        )
        stats = run_monte_carlo(cfg, replicates=replicates, seed=seed)
        clean = sample_delayed(bench_design, TAU, bench_design.n_samples)
        oracle = {m: [] for m in ESTIMATORS}
        for r in range(replicates):
            ds = add_noise(clean, NOISE_VAR, (seed, r), delta=bench_design.delta, true_tau=TAU)
            for method in ESTIMATORS:
                est = _run(method, ds, bench_design, K, TAU_MAX)
                if not isinstance(est, str):
                    oracle[method].append(est.tau_hat)
        for method in ESTIMATORS:
            assert _bits(stats.estimates[method]) == _bits(np.array(oracle[method])), method


class TestBuilder:
    def test_builds_only_requested_parts(self, bench_design):
        tables = build_replicate_tables(
            ("ml", "freq_interp"), bench_design, n_samples=bench_design.n_samples,
            k_model=K, tau_max=TAU_MAX,
        )
        assert tables.phi is None and tables.spline is None
        assert tables.ml.model.shape == (tables.ml.grid.size, bench_design.n_samples)
        assert tables.markov is None
        assert tables.corr.u_spectrum_conj.shape == (bench_design.n_samples // 2 + 1,)

    def test_rejects_nonpositive_tau_max(self, bench_design):
        with pytest.raises(ValueError):
            build_replicate_tables(
                ("ml",), bench_design, n_samples=bench_design.n_samples, k_model=K, tau_max=0.0
            )


def _other_design(design, p=None, u=None):
    p = design.p if p is None else p
    coeffs = design.u.coeffs if u is None else np.asarray(u)
    return InputDesign(
        p=p, u=Spectrum(coeffs, p), energy_bound=design.energy_bound,
        horizon=design.horizon, delta=design.delta, tau_guess=design.tau_guess,
    )


class TestMismatchRefused:
    """Each case changes one thing the tables were built for; the methods
    whose table depends on it must raise ValueError, the others must run."""

    @pytest.fixture(scope="class")
    def tables(self, bench_design):
        return build_replicate_tables(
            ESTIMATORS, bench_design, n_samples=bench_design.n_samples, k_model=K, tau_max=TAU_MAX
        )

    @pytest.mark.parametrize(
        "case, refused",
        [
            ("n_samples", set(ESTIMATORS)),
            ("delta", set(ESTIMATORS)),
            ("k_model", {"proposed", "lag_spline"}),
            ("tau_max", {"ml"}),
            ("p", set(ESTIMATORS)),
            # the reciprocal series v = 1/u(z) makes the Laguerre-domain
            # methods depend on u as well
            ("u", set(ESTIMATORS)),
            ("markov_u", {"proposed", "lag_spline"}),
            ("markov_k", {"proposed", "lag_spline"}),
        ],
    )
    def test_mismatch(self, bench_design, tables, case, refused):
        design, k_model, tau_max = bench_design, K, TAU_MAX
        ds = make_dataset(bench_design, TAU, NOISE_VAR, 3)
        if case == "n_samples":
            ds = make_dataset(bench_design, TAU, NOISE_VAR, 3, n_samples=ds.n_samples - 1)
        elif case == "delta":
            ds = Dataset(z=ds.z, delta=2 * ds.delta, n_samples=ds.n_samples,
                         noise_var=NOISE_VAR, seed=3)
        elif case == "k_model":
            k_model = 10
        elif case == "tau_max":
            tau_max = 5e-3
        elif case == "p":
            design = _other_design(bench_design, p=2 * bench_design.p)
        elif case == "u":
            design = _other_design(bench_design, u=[0.4, 0.8, -0.8, -0.4])
        elif case == "markov_u":
            # only the v part is wrong: built for another input
            other_u = Spectrum(np.array([0.4, 0.8, -0.8, -0.4]), bench_design.p)
            tables = replace(tables, markov=markov_table(other_u, K + 1))
        else:
            # only the v part is wrong: built for another K
            tables = replace(tables, markov=markov_table(bench_design.u, K))
        for method in ESTIMATORS:
            if method in refused:
                with pytest.raises(ValueError, match="was built for"):
                    _run(method, ds, design, k_model, tau_max, tables)
            else:
                _assert_bitwise_equal(
                    _run(method, ds, design, k_model, tau_max, tables),
                    _run(method, ds, design, k_model, tau_max),
                )
