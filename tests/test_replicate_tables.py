"""Replicate tables: the one route from a design to an estimate.

``build_replicate_tables`` is the only place an estimator table is built,
and every estimator takes its tables as a required argument.  ``benchmark``
builds them once per run (per chunk with a process pool), ``estimate`` once
per call at the dataset's sampling.  Tables built once and reused over many
datasets must give bitwise the same estimates as tables built for each
dataset, and the tables of one method must not depend on which other
methods were requested.  A dataset sampled at another delta or N than the
tables is refused; a LagDelayError while building a part fails only the
methods that need that part.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagdelay import analysis, estimators
from lagdelay.analysis import BenchmarkConfig, run_monte_carlo
from lagdelay.errors import LagDelayError, SingularInputError
from lagdelay.estimators import ESTIMATORS, estimate_delay
from lagdelay.simulate import Dataset, InputDesign, add_noise, make_dataset, sample_delayed

from conftest import tables_for

TAU = 1.33e-3
K = 12
TAU_MAX = 0.01
NOISE_VAR = 0.01


def _bits(value):
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _run(method, ds, tables):
    """The estimate, or the class name of the LagDelayError it raised."""
    try:
        return estimate_delay(method, ds, tables)
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


@pytest.fixture(scope="module")
def sec72_tables(sec72_design):
    return tables_for(sec72_design, k_model=K, tau_max=TAU_MAX)


class TestPrebuiltEqualsPerCall:
    """"Prebuilt" tables serve a whole run, as in ``benchmark``; "per call"
    tables are built for each dataset at its own sampling, as in
    ``estimate``."""

    @pytest.mark.parametrize("seed", [0, 1, 42, 2022])
    def test_sec72_replicates(self, sec72_design, sec72_tables, seed):
        clean = sample_delayed(sec72_design, TAU, sec72_design.n_samples)
        for r in range(5):
            ds = add_noise(clean, NOISE_VAR, (seed, r), delta=sec72_design.delta, true_tau=TAU)
            per_call = tables_for(sec72_design, data=ds, k_model=K, tau_max=TAU_MAX)
            for method in ESTIMATORS:
                _assert_bitwise_equal(_run(method, ds, sec72_tables), _run(method, ds, per_call))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tau=st.floats(0.5e-3, 5e-3),
        tau_max=st.floats(1e-3, 1e-2),
        k_model=st.sampled_from([3, 6, 12]),
    )
    def test_property_bench_design(self, bench_design, seed, tau, tau_max, k_model):
        # the tables of all four methods against those of each method alone,
        # as ``estimate --methods all`` against ``--methods <one>``
        tables = tables_for(bench_design, k_model=k_model, tau_max=tau_max)
        ds = make_dataset(bench_design, tau, NOISE_VAR, seed)
        for method in ESTIMATORS:
            alone = tables_for(bench_design, (method,), k_model=k_model, tau_max=tau_max)
            _assert_bitwise_equal(_run(method, ds, tables), _run(method, ds, alone))

    def test_monte_carlo_equals_replicate_loop(self, bench_design):
        # the harness against a plain replicate loop that builds the tables
        # for each replicate, as ``estimate`` does for each dataset
        seed, replicates = 17, 12
        cfg = BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=NOISE_VAR, k_model=K, tau_max=TAU_MAX
        )
        stats = run_monte_carlo(cfg, replicates=replicates, seed=seed)
        clean = sample_delayed(bench_design, TAU, bench_design.n_samples)
        oracle = {m: [] for m in ESTIMATORS}
        for r in range(replicates):
            ds = add_noise(clean, NOISE_VAR, (seed, r), delta=bench_design.delta, true_tau=TAU)
            tables = tables_for(bench_design, data=ds, k_model=K, tau_max=TAU_MAX)
            for method in ESTIMATORS:
                est = _run(method, ds, tables)
                if not isinstance(est, str):
                    oracle[method].append(est.tau_hat)
        for method in ESTIMATORS:
            assert _bits(stats.estimates[method]) == _bits(np.array(oracle[method])), method


class TestReplicateBlocks:
    """``_run_replicates`` draws a block of replicates and then runs one
    method at a time over it, the ``ml`` scan and the ``freq_interp`` FFT
    stage once for the whole block.  69 replicates are several full blocks
    and a partial one."""

    SEED, REPLICATES = 5, 69

    @pytest.fixture(scope="class")
    def cfg(self, bench_design):
        return BenchmarkConfig(
            design=bench_design, true_tau=TAU, noise_var=NOISE_VAR, k_model=K, tau_max=TAU_MAX
        )

    @pytest.fixture(scope="class")
    def serial(self, cfg):
        return run_monte_carlo(cfg, replicates=self.REPLICATES, seed=self.SEED)

    def test_full_blocks_and_a_partial_one(self):
        assert self.REPLICATES > 2 * analysis._REPLICATE_BLOCK
        assert self.REPLICATES % analysis._REPLICATE_BLOCK

    def test_blocks_equal_replicate_loop(self, bench_design, serial):
        # the replicate-major loop the harness ran before blocks, with the
        # same prebuilt tables
        tables = tables_for(bench_design, k_model=K, tau_max=TAU_MAX)
        clean = sample_delayed(bench_design, TAU, bench_design.n_samples)
        oracle = {m: [] for m in ESTIMATORS}
        for r in range(self.REPLICATES):
            ds = add_noise(clean, NOISE_VAR, (self.SEED, r), delta=bench_design.delta,
                           true_tau=TAU)
            for method in ESTIMATORS:
                est = _run(method, ds, tables)
                if not isinstance(est, str):
                    oracle[method].append(est.tau_hat)
        for method in ESTIMATORS:
            assert _bits(serial.estimates[method]) == _bits(np.array(oracle[method])), method

    @pytest.mark.parametrize("workers", [2, 3])
    def test_chunks_cutting_blocks_equal_one_worker(self, cfg, serial, workers):
        # the pool's chunks of 5 to 9 replicates cut across the blocks
        pooled = run_monte_carlo(cfg, replicates=self.REPLICATES, seed=self.SEED, workers=workers)
        for method in ESTIMATORS:
            assert _bits(pooled.estimates[method]) == _bits(serial.estimates[method]), method
            assert pooled.per_method[method] == serial.per_method[method]

    def test_every_row_enters_its_estimator(self, cfg, monkeypatch):
        # through estimate_delay, so a tracer of the four estimators sees
        # every replicate; ml and freq_interp get their row of the block
        # stage
        calls = Counter()
        for method in ESTIMATORS:
            name = f"estimate_delay_{method}"

            def counting(data, tables, *stage, _run=getattr(estimators, name), _name=name):
                calls[_name, bool(stage) and stage[0] is not None] += 1
                return _run(data, tables, *stage)

            monkeypatch.setattr(estimators, name, counting)
        run_monte_carlo(cfg, replicates=20, seed=self.SEED)
        assert calls == {
            ("estimate_delay_proposed", False): 20, ("estimate_delay_ml", True): 20,
            ("estimate_delay_lag_spline", False): 20, ("estimate_delay_freq_interp", True): 20,
        }

    def _row_40_fails_alone(self, cfg, serial, monkeypatch, level):
        # replicate 40, inside a block, measures nothing: it is the constant
        # ``level`` with no noise
        def noise_but_constant_40(y, noise_var, seed, **kwargs):
            if seed[1] == 40:
                return add_noise(np.full_like(y, level), 0.0, seed, **kwargs)
            return add_noise(y, noise_var, seed, **kwargs)

        monkeypatch.setattr(analysis, "add_noise", noise_but_constant_40)
        stats = run_monte_carlo(cfg, methods=("freq_interp",), replicates=self.REPLICATES,
                                seed=self.SEED)
        assert stats.per_method["freq_interp"].failures == 1
        want = np.delete(serial.estimates["freq_interp"], 40)
        assert _bits(stats.estimates["freq_interp"]) == _bits(want)

    def test_flat_row_fails_only_its_replicate(self, cfg, serial, monkeypatch):
        # zeros: the correlation is flat
        self._row_40_fails_alone(cfg, serial, monkeypatch, 0.0)

    def test_constant_row_fails_only_its_replicate(self, cfg, serial, monkeypatch):
        # a nonzero constant: the correlation varies, but the spectrum off
        # DC is FFT rounding only
        self._row_40_fails_alone(cfg, serial, monkeypatch, 0.5)


def _other_design(design, u):
    return InputDesign(
        p=design.p, u=u, energy_bound=design.energy_bound,
        horizon=design.horizon, delta=design.delta, tau_guess=design.tau_guess,
    )


class TestBuilder:
    def test_builds_only_requested_parts(self, bench_design):
        tables = tables_for(bench_design, ("ml", "freq_interp"), k_model=K, tau_max=TAU_MAX)
        assert tables.phi is None and tables.spectrum == {}
        assert tables.ml.model.shape == (tables.ml.grid.size, bench_design.n_samples)
        assert tables.markov is None and tables.m_markov is None
        assert tables.corr.u_spectrum_conj.shape == (bench_design.n_samples // 2 + 1,)

    def test_rejects_nonpositive_tau_max(self, bench_design):
        with pytest.raises(ValueError):
            tables_for(bench_design, ("ml",), k_model=K, tau_max=0.0)

    @pytest.mark.parametrize(
        "methods, m_markov, want",
        [(("proposed",), None, K + 1), (("lag_spline", "ml"), 4, 4), (("ml",), 99, None)],
    )
    def test_markov_order_resolved_once(self, bench_design, methods, m_markov, want):
        # M only matters to the Laguerre-domain methods, and only they check it
        tables = tables_for(bench_design, methods, k_model=K, m_markov=m_markov)
        assert tables.m_markov == want

    @pytest.mark.parametrize("m_markov", [2, K + 2])
    def test_markov_order_outside_range_refused(self, bench_design, m_markov):
        with pytest.raises(ValueError, match="m_markov"):
            tables_for(bench_design, ("proposed",), k_model=K, m_markov=m_markov)

    def test_build_failure_fails_only_its_methods(self, bench_design):
        # u_0 = 1e-13 makes the reciprocal series v = 1/u(z) singular; only
        # the Laguerre-domain methods need it
        design = _other_design(bench_design, [1e-13, 0.5, -0.5, -1e-13])
        tables = tables_for(design, k_model=K, tau_max=TAU_MAX)
        assert tables.markov is None and tables.phi is not None
        assert set(tables.errors) == {"proposed", "lag_spline"}
        ds = make_dataset(design, TAU, NOISE_VAR, 5)
        for method in ("proposed", "lag_spline"):
            for _ in range(2):
                with pytest.raises(SingularInputError, match="u_0"):
                    estimate_delay(method, ds, tables)
        for method in ("ml", "freq_interp"):
            alone = tables_for(design, (method,), k_model=K, tau_max=TAU_MAX)
            assert alone.errors == {}
            _assert_bitwise_equal(_run(method, ds, tables), _run(method, ds, alone))

    def test_method_without_tables_refused(self, bench_design):
        tables = tables_for(bench_design, ("ml",), k_model=K, tau_max=TAU_MAX)
        ds = make_dataset(bench_design, TAU, NOISE_VAR, 3)
        with pytest.raises(ValueError, match="no tables for method 'proposed'"):
            estimate_delay("proposed", ds, tables)


class TestMismatchRefused:
    """A dataset sampled at another N or delta than the tables were built
    for must be refused by every method, with the field named."""

    @pytest.fixture(scope="class")
    def tables(self, bench_design):
        return tables_for(bench_design, k_model=K, tau_max=TAU_MAX)

    @pytest.mark.parametrize(
        "case, refused",
        [
            ("n_samples", set(ESTIMATORS)),
            ("delta", set(ESTIMATORS)),
        ],
    )
    def test_mismatch(self, bench_design, tables, case, refused):
        ds = make_dataset(bench_design, TAU, NOISE_VAR, 3)
        if case == "n_samples":
            ds = make_dataset(bench_design, TAU, NOISE_VAR, 3, n_samples=ds.n_samples - 1)
        else:
            ds = Dataset(z=ds.z, delta=2 * ds.delta, n_samples=ds.n_samples,
                         noise_var=NOISE_VAR, seed=3)
        for method in refused:
            with pytest.raises(ValueError, match=f"dataset has {case} = "):
                _run(method, ds, tables)
