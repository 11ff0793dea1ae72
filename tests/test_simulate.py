"""Signal synthesis tests: closed-form input, exact delay, noise, file I/O."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from lagdelay.basis import BasisConfig, eval_basis_matrix
from lagdelay.delay_ops import Spectrum
from lagdelay.errors import InvalidDatasetError
from lagdelay.simulate import (
    Dataset,
    InputDesign,
    add_noise,
    continuity_defect,
    default_tau_max,
    load_dataset,
    make_dataset,
    sample_delayed,
    save_dataset,
    support_time,
    synthesize_input,
)


def _fine_grid_shift_oracle(design, tau, n_samples, grid_step=1e-7):
    """Delay by shifting a fine grid and picking the sample instants."""
    t_needed = np.arange(n_samples) * design.delta
    out = np.empty(n_samples)
    for i, tn in enumerate(t_needed):
        s = tn - tau
        if s < 0:
            out[i] = 0.0
            continue
        # evaluate on the two neighbouring fine-grid points and interpolate
        j = int(np.floor(s / grid_step))
        s0, s1 = j * grid_step, (j + 1) * grid_step
        u0 = synthesize_input(design, s0)
        u1 = synthesize_input(design, s1)
        out[i] = u0 + (u1 - u0) * (s - s0) / grid_step
    return out


class TestSynthesize:
    def test_single_basis_function(self):
        p = 4.0
        design = InputDesign(
            p=p,
            u=Spectrum(np.array([1.0, 0.0, 0.0, -1.0]), p),
            energy_bound=3.0,
            horizon=2.0,
            delta=1e-3,
            tau_guess=0.0,
        )
        t = np.linspace(0, 1.5, 31)
        cfg = BasisConfig(p=p, num_funcs=4)
        basis = eval_basis_matrix(cfg, t)
        assert_allclose(synthesize_input(design, t), basis[:, 0] - basis[:, 3], rtol=1e-14)

    def test_parseval(self, bench_design):
        total, _ = quad(
            lambda t: synthesize_input(bench_design, t) ** 2,
            0.0,
            bench_design.horizon,
            limit=300,
        )
        assert total == pytest.approx(bench_design.u.energy, rel=1e-6)

    def test_decay_beyond_time_scale(self, bench_design):
        tail = synthesize_input(bench_design, 40.0 / bench_design.p)
        assert abs(tail) < 1e-8 * np.sqrt(bench_design.u.energy)

    def test_continuity_defect_zero_for_balanced_design(self, bench_design):
        assert continuity_defect(bench_design) < 1e-10

    def test_unbalanced_design_warns(self):
        with pytest.warns(UserWarning, match="vanish"):
            InputDesign(
                p=2.0,
                u=Spectrum(np.array([1.0, 0.5]), 2.0),
                energy_bound=2.0,
                horizon=1.0,
                delta=1e-3,
                tau_guess=0.0,
            )


class TestSampleDelayed:
    def test_zero_delay(self, bench_design):
        y = sample_delayed(bench_design, 0.0, 50)
        t = np.arange(50) * bench_design.delta
        assert_allclose(y, synthesize_input(bench_design, t), rtol=1e-15)

    def test_integer_delay_is_shift(self, bench_design):
        y0 = sample_delayed(bench_design, 0.0, 50)
        y1 = sample_delayed(bench_design, bench_design.delta, 51)
        assert y1[0] == 0.0
        assert_allclose(y1[1:], y0, rtol=1e-15)

    def test_subsample_delay_matches_fine_grid(self, bench_design):
        tau = 1.33e-3
        got = sample_delayed(bench_design, tau, 120)
        oracle = _fine_grid_shift_oracle(bench_design, tau, 120)
        assert_allclose(got, oracle, atol=2e-10)

    def test_exactly_zero_before_delay(self, bench_design):
        tau = 2.5 * bench_design.delta
        y = sample_delayed(bench_design, tau, 10)
        assert np.all(y[:3] == 0.0)
        assert y[3] != 0.0


class TestNoise:
    def test_zero_variance_is_exact(self):
        y = np.arange(5.0)
        ds = add_noise(y, 0.0, 123, delta=0.1)
        assert np.array_equal(ds.z, y)

    def test_deterministic_given_seed(self):
        y = np.zeros(100)
        a = add_noise(y, 0.5, 99, delta=0.1)
        b = add_noise(y, 0.5, 99, delta=0.1)
        assert np.array_equal(a.z, b.z)
        c = add_noise(y, 0.5, 100, delta=0.1)
        assert not np.array_equal(a.z, c.z)

    def test_tuple_seed_streams_differ(self):
        y = np.zeros(10)
        a = add_noise(y, 1.0, (7, 0), delta=0.1)
        b = add_noise(y, 1.0, (7, 1), delta=0.1)
        assert not np.array_equal(a.z, b.z)

    def test_variance_law_of_large_numbers(self):
        lam = 0.37
        ds = add_noise(np.zeros(1_000_000), lam, 2024, delta=1.0)
        assert ds.z.var() == pytest.approx(lam, rel=0.01)


class TestDatasetIO:
    def test_round_trip_bit_exact(self, tmp_path, bench_design):
        ds = make_dataset(bench_design, 1.33e-3, 0.01, (5, 3))
        csv_path = tmp_path / "data.csv"
        save_dataset(ds, csv_path)
        back = load_dataset(csv_path)
        assert np.array_equal(back.z, ds.z)
        assert back.delta == ds.delta
        assert back.n_samples == ds.n_samples
        assert back.noise_var == ds.noise_var
        assert back.seed == (5, 3)
        assert back.true_tau == ds.true_tau

    def test_true_tau_optional(self, tmp_path):
        ds = Dataset(z=np.zeros(3), delta=0.1, n_samples=3, noise_var=0.0, seed=1)
        save_dataset(ds, tmp_path / "d.csv")
        back = load_dataset(tmp_path / "d.csv")
        assert back.true_tau is None

    def test_off_grid_time_column_rejected(self, tmp_path, bench_design):
        ds = make_dataset(bench_design, 1.33e-3, 0.01, 4)
        save_dataset(ds, tmp_path / "good.csv")
        assert np.array_equal(load_dataset(tmp_path / "good.csv").z, ds.z)
        # the same samples with every time stamp doubled
        rows = (tmp_path / "good.csv").read_text().splitlines()
        doubled = [rows[0]] + [
            f"{2 * float(t):.17g},{z}" for t, z in (row.split(",") for row in rows[1:])
        ]
        (tmp_path / "bad.csv").write_text("\n".join(doubled) + "\n")
        (tmp_path / "bad.json").write_bytes((tmp_path / "good.json").read_bytes())
        with pytest.raises(InvalidDatasetError, match=r"t\[1\]"):
            load_dataset(tmp_path / "bad.csv")

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidDatasetError, match="3 samples"):
            Dataset(z=[0.0] * 3, delta=0.1, n_samples=4, noise_var=0.0, seed=1)

    def test_csv_truncated_against_sidecar_rejected(self, tmp_path, bench_design):
        save_dataset(make_dataset(bench_design, 1.33e-3, 0.01, 4), tmp_path / "d.csv")
        rows = (tmp_path / "d.csv").read_text().splitlines()
        (tmp_path / "d.csv").write_text("\n".join(rows[:-10]) + "\n")
        with pytest.raises(InvalidDatasetError, match="n_samples"):
            load_dataset(tmp_path / "d.csv")


class TestSupport:
    def test_support_time_scales_with_p(self):
        def design(p):
            return InputDesign(
                p=p,
                u=Spectrum(np.array([0.8, 0.4, -0.4, -0.8]), p),
                energy_bound=2.0,
                horizon=100.0 / p,
                delta=0.01 / p,
                tau_guess=0.0,
            )

        t_slow = support_time(design(5.0))
        t_fast = support_time(design(50.0))
        assert t_slow == pytest.approx(10 * t_fast, rel=0.05)

    def test_default_tau_max_within_bounds(self, bench_design):
        tmax = default_tau_max(bench_design)
        assert 10 * bench_design.delta <= tmax <= bench_design.horizon
