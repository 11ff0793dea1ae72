"""Signal synthesis tests: closed-form input, exact delay, noise, file I/O."""

import csv
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.integrate import quad

from lagdelay import simulate
from lagdelay.basis import BasisConfig, _std_laguerre_table, eval_basis_matrix
from lagdelay.cli import main
from lagdelay.errors import InvalidDatasetError
from lagdelay.simulate import (
    Dataset,
    InputDesign,
    add_noise,
    continuity_defect,
    default_tau_max,
    input_derivative,
    load_dataset,
    make_dataset,
    sample_delayed,
    save_dataset,
    support_time,
    synthesize_input,
)

from conftest import csv_writer_save_dataset

INPUTS = Path(__file__).resolve().parents[1] / "lagbench" / "inputs"


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _saved_bytes(save, ds, directory, extra_meta=None):
    """CSV and sidecar bytes that ``save`` writes for ``ds``."""
    csv_path = Path(directory) / f"{save.__name__}.csv"
    save(ds, csv_path, extra_meta)
    return csv_path.read_bytes(), csv_path.with_suffix(".json").read_bytes()


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
            u=np.array([1.0, 0.0, 0.0, -1.0]),
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
        assert total == pytest.approx(bench_design.u @ bench_design.u, rel=1e-6)

    def test_decay_beyond_time_scale(self, bench_design):
        tail = synthesize_input(bench_design, 40.0 / bench_design.p)
        assert abs(tail) < 1e-8 * np.sqrt(bench_design.u @ bench_design.u)

    def test_continuity_defect_zero_for_balanced_design(self, bench_design):
        assert continuity_defect(bench_design) < 1e-10

    @pytest.mark.parametrize("u0", [0.0, -0.5])
    def test_nonpositive_leading_coefficient_refused(self, u0):
        with pytest.raises(ValueError, match="leading input coefficient must be positive"):
            InputDesign(
                p=50.0, u=np.array([u0, 0.4, -0.4, -u0]), energy_bound=2.0,
                horizon=0.5, delta=3e-4, tau_guess=3e-4,
            )

    def test_energy_above_bound_refused(self):
        # energy 2.5 against eta = 2
        with pytest.raises(ValueError, match="input energy 2.5 exceeds bound 2"):
            InputDesign(
                p=50.0, u=np.array([1.0, 0.5, -0.5, -1.0]), energy_bound=2.0,
                horizon=0.5, delta=3e-4, tau_guess=3e-4,
            )

    @pytest.mark.parametrize("name", ["design72_ref.json", "design71_ref.json"])
    def test_committed_design_loads_unchanged(self, name):
        # a design report: the design's keys plus config_hash, objective
        # and constraints, which the reader skips
        d = json.loads((INPUTS / name).read_text())
        assert {"config_hash", "objective", "constraints"} <= set(d)
        got = InputDesign.from_dict(d).to_dict()
        assert got == {key: d[key] for key in got}

    @pytest.mark.parametrize("bad, named", [
        # each was once coerced: "37.31" read as p = 37.31, true as delta = 1
        ({"p": "37.31"}, "p must be a number, got '37.31'"),
        ({"delta": True}, "delta must be a number, got True"),
        ({"eta": None}, "eta must be a number, got None"),
        ({"horizon": [0.5]}, "horizon must be a number, got [0.5]"),
        ({"tau_guess": "3e-4"}, "tau_guess must be a number, got '3e-4'"),
        ({"u": ["1", "0", "0", "-1"]}, "u must be an array of numbers, got ['1'"),
        ({"u": [1.0, False, 0.0, -1.0]}, "u must be an array of numbers, got [1.0, False"),
        ({"u": 1.0}, "u must be an array of numbers, got 1.0"),
        ({"u": [[1.0, -1.0]]}, "u must be an array of numbers, got [[1.0, -1.0]]"),
    ])
    def test_wrong_json_type_refused(self, bad, named):
        d = json.loads((INPUTS / "design72_ref.json").read_text())
        with pytest.raises(ValueError, match=re.escape(named)):
            InputDesign.from_dict({**d, **bad})

    def test_unbalanced_design_warns(self):
        with pytest.warns(UserWarning, match="vanish"):
            InputDesign(
                p=2.0,
                u=np.array([1.0, 0.5]),
                energy_bound=2.0,
                horizon=1.0,
                delta=1e-3,
                tau_guess=0.0,
            )


def _basis_derivative_matrix(cfg, t):
    """ell_j'(t) = sqrt(2p) e^{-pt} (-p L_j(2pt) - 2p sum_{i<j} L_i(2pt)), 0
    for t < 0: the closed-form derivative table that input_derivative
    replaced with the spectrum A_c^T u."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    pos = t >= 0
    t = np.where(pos, t, 0.0)
    table = _std_laguerre_table(2.0 * cfg.p * t, cfg.k_max)
    partial = np.zeros_like(table)
    partial[..., 1:] = np.cumsum(table[..., :-1], axis=-1)
    envelope = np.where(pos, np.sqrt(2.0 * cfg.p) * np.exp(-cfg.p * t), 0.0)
    return envelope[..., None] * (-cfg.p * table - 2.0 * cfg.p * partial)


def _k12_design():
    u = np.random.default_rng(5).uniform(-1.0, 1.0, 13)
    u[0] = 1.0
    u[-1] -= u.sum()  # u(0) = 0
    return InputDesign(p=20.0, u=u, energy_bound=float(u @ u), horizon=1.0,
                       delta=1e-3, tau_guess=0.0)


# input_derivative against the removed closed-form table, relative to max|u'|
# (4.5e-13 of 1.9e3, i.e. 2.4e-16, on the section 7.2 design)
DERIVATIVE_BOUND = 1e-12


class TestInputDerivative:
    @pytest.fixture(params=["design72_ref", "design71_ref", "k12"])
    def design(self, request):
        if request.param == "k12":
            return _k12_design()
        return InputDesign.from_dict(json.loads((INPUTS / f"{request.param}.json").read_text()))

    def test_matches_central_differences(self, design):
        t = np.linspace(0.2, 8.0, 40) / design.p
        h = 1e-6 / design.p
        fd = (synthesize_input(design, t + h) - synthesize_input(design, t - h)) / (2 * h)
        slope = input_derivative(design, t)
        assert_allclose(slope, fd, rtol=0, atol=1e-6 * np.abs(slope).max())

    def test_matches_removed_closed_form(self, design):
        t = np.arange(design.n_samples) * design.delta - 1.33e-3
        slope = input_derivative(design, t)
        oracle = _basis_derivative_matrix(design.basis_config, t) @ design.u
        assert np.abs(slope - oracle).max() <= DERIVATIVE_BOUND * np.abs(oracle).max()

    def test_scalar_and_one_sided_at_origin(self, design):
        assert isinstance(input_derivative(design, 0.0), float)
        assert input_derivative(design, 0.0) == pytest.approx(
            float(_basis_derivative_matrix(design.basis_config, 0.0)[0] @ design.u), rel=1e-12
        )

    def test_zero_before_origin_without_warning(self, design):
        t = np.array([-1e300, -1e3, -1.0, -1e-12])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not input_derivative(design, t).any()
            assert input_derivative(design, -1e300) == 0.0


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

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delay_rejected(self, bench_design, tau):
        # NaN slipped past the sign test and gave all-zero samples
        with pytest.raises(ValueError, match=str(tau)):
            sample_delayed(bench_design, tau, 10)

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

    @pytest.mark.parametrize("noise_var", [-0.01, float("nan"), float("inf")])
    def test_negative_or_nan_variance_rejected(self, noise_var):
        with pytest.raises(ValueError, match="noise_var must be finite and nonnegative"):
            add_noise(np.zeros(3), noise_var, 1, delta=0.1)
        with pytest.raises(ValueError, match="noise_var must be a finite number >= 0"):
            Dataset(z=np.zeros(3), delta=0.1, n_samples=3, noise_var=noise_var, seed=1)

    @pytest.mark.parametrize("true_tau", [-0.2, -np.inf, np.nan, np.inf])
    def test_negative_or_non_finite_delay_rejected(self, true_tau):
        # a negative delay was once written to a sidecar that load_dataset refuses
        rule = re.escape(f"true_tau must be null or a finite number >= 0, got {true_tau!r}")
        with pytest.raises(ValueError, match=rule):
            add_noise(np.zeros(3), 0.01, 1, delta=0.1, true_tau=true_tau)
        with pytest.raises(ValueError, match=rule):
            Dataset(z=np.zeros(3), delta=0.1, n_samples=3, noise_var=0.0, seed=1,
                    true_tau=true_tau)

    def test_variance_law_of_large_numbers(self):
        lam = 0.37
        ds = add_noise(np.zeros(1_000_000), lam, 2024, delta=1.0)
        assert ds.z.var() == pytest.approx(lam, rel=0.01)


class TestDatasetIO:
    @settings(max_examples=100, deadline=None)
    @given(
        z=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
        delta=st.floats(0.0, exclude_min=True, allow_infinity=False),
        seed=st.integers() | st.tuples(st.integers(), st.integers()),
        true_tau=st.none() | st.floats(0.0, 1e3),
    )
    @example(z=[0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308],
             delta=3e-4, seed=(5, 3), true_tau=1.33e-3)
    # the least and the largest delta, and the largest span (N - 1) delta
    @example(z=[1.0, -0.0, 2.5], delta=5e-324, seed=0, true_tau=None)
    @example(z=[1.0, 2.0], delta=1.7976931348623157e308, seed=0, true_tau=None)
    @example(z=[1.0, 2.0, 3.0], delta=8.988465674311579e307, seed=0, true_tau=0.0)
    def test_round_trip_bit_exact(self, z, delta, seed, true_tau):
        # a span (N - 1) delta that overflows is refused (tests/test_input_rules.py)
        assume((len(z) - 1) * delta < math.inf)
        ds = Dataset(z=z, delta=delta, n_samples=len(z), noise_var=0.01, seed=seed,
                     true_tau=true_tau)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = Path(tmp) / "data.csv"
            save_dataset(ds, csv_path)
            back = load_dataset(csv_path)
        assert np.array_equal(back.z, ds.z)
        assert np.array_equal(np.signbit(back.z), np.signbit(ds.z))
        assert back.delta == ds.delta
        assert back.n_samples == ds.n_samples
        assert back.noise_var == ds.noise_var
        assert back.seed == seed
        assert back.true_tau == true_tau

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.lists(st.floats(), min_size=1),
        delta=st.floats(),
        noise_var=st.floats(),
        seed=st.none() | st.integers() | st.tuples(st.integers(), st.integers()),
        true_tau=st.none() | st.floats(),
    )
    @example(z=[0.5, -1.0, 2.0], delta=1e-3, noise_var=0.0, seed=0, true_tau=-0.2)
    # each once saved a sidecar that load_dataset refused
    @example(z=[0.0] * 3, delta=-1e-3, noise_var=0.0, seed=0, true_tau=None)
    @example(z=[0.0] * 3, delta=1e308, noise_var=0.0, seed=0, true_tau=None)
    def test_every_constructed_dataset_loads_back(self, z, delta, noise_var, seed, true_tau):
        # whatever the values, the files of a Dataset that constructs load
        # back to it
        try:
            ds = Dataset(z=z, delta=delta, n_samples=len(z), noise_var=noise_var, seed=seed,
                         true_tau=true_tau)
        except (ValueError, InvalidDatasetError):
            return
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(ds, Path(tmp) / "data.csv")
            back = load_dataset(Path(tmp) / "data.csv")
        assert _bits(back.z) == _bits(ds.z)
        assert (back.delta, back.n_samples, back.noise_var, back.seed, back.true_tau) == (
            delta, len(z), noise_var, seed, true_tau
        )

    @settings(max_examples=100, deadline=None)
    @given(
        # the 1667-row case draws a few elements over a fill value: a list
        # of 1667 floats drawn one by one overran hypothesis's entropy budget
        z=st.integers(1, 50).flatmap(
            lambda n: st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=n, max_size=n)
        ) | arrays(
            np.float64, 1667, elements=st.floats(allow_nan=False, allow_infinity=False),
            fill=st.floats(allow_nan=False, allow_infinity=False),
        ),
        delta=st.floats(1e-9, 1e2),
        seed=st.integers() | st.tuples(st.integers(), st.integers()),
        true_tau=st.none() | st.floats(0.0, 1e3),
    )
    @example(z=[-0.0], delta=3e-4, seed=0, true_tau=None)
    @example(z=[-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300],
             delta=1e-4, seed=(5, 3), true_tau=1.33e-3)
    def test_bytes_match_csv_writer(self, z, delta, seed, true_tau):
        ds = Dataset(z=z, delta=delta, n_samples=len(z), noise_var=0.01, seed=seed,
                     true_tau=true_tau)
        with tempfile.TemporaryDirectory() as tmp:
            got = _saved_bytes(save_dataset, ds, tmp, {"config_hash": "0123abcd"})
            want = _saved_bytes(csv_writer_save_dataset, ds, tmp, {"config_hash": "0123abcd"})
        assert got == want
        assert got[0].startswith(b"t,z\r\n") and got[0].count(b"\r\n") == ds.n_samples + 1

    def test_simulate_writes_csv_writer_bytes(self, tmp_path):
        # the section 7.2 dataset as the simulate command writes it
        design_path = INPUTS / "design72_ref.json"
        rc = main(["simulate", "--design", str(design_path), "--tau", "1.33e-3",
                   "--noise-var", "0.01", "--seed", "1", "--out", str(tmp_path / "sim")])
        assert rc == 0
        got = tuple((tmp_path / "sim" / n).read_bytes() for n in ("dataset.csv", "dataset.json"))
        design = InputDesign.from_dict(json.loads(design_path.read_text()))
        ds = make_dataset(design, 1.33e-3, 0.01, 1)
        config_hash = json.loads(got[1])["config_hash"]
        assert got == _saved_bytes(csv_writer_save_dataset, ds, tmp_path,
                                   {"config_hash": config_hash})

    def test_sample_times_computed_once(self):
        ds = Dataset(z=np.zeros(1667), delta=3e-4, n_samples=1667, noise_var=0.0, seed=1)
        assert ds.t is ds.t
        assert np.array_equal(ds.t, np.arange(1667) * 3e-4)
        assert not ds.t.flags.writeable

    @pytest.mark.parametrize("bad_row", ["", "0.0003", "0.0004,abc"])
    def test_malformed_row_rejected(self, tmp_path, bad_row):
        ds = Dataset(z=np.arange(10.0), delta=1e-4, n_samples=10, noise_var=0.0, seed=1)
        save_dataset(ds, tmp_path / "d.csv")
        rows = (tmp_path / "d.csv").read_text().splitlines()
        rows[4] = bad_row
        (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(InvalidDatasetError, match="CSV line 5") as info:
            load_dataset(tmp_path / "d.csv")
        assert str(tmp_path / "d.csv") in str(info.value)

    @pytest.mark.parametrize("text", ["time,value\n0,0.5\n", ""], ids=["wrong", "empty"])
    def test_header_checked(self, tmp_path, text):
        ds = Dataset(z=np.zeros(1), delta=1e-4, n_samples=1, noise_var=0.0, seed=1)
        save_dataset(ds, tmp_path / "d.csv")
        (tmp_path / "d.csv").write_text(text)
        with pytest.raises(InvalidDatasetError, match="CSV line 1 ") as info:
            load_dataset(tmp_path / "d.csv")
        assert str(tmp_path / "d.csv") in str(info.value)

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

    @pytest.mark.parametrize(
        "field,value,match",
        [
            (1, "nan", r"z\[3\] = nan"),
            (1, "-inf", r"z\[3\] = -inf"),
            (0, "0.5", r"t\[3\] = 0\.5,"),
        ],
        ids=["z-nan", "z-inf", "t-off-grid"],
    )
    def test_bad_value_names_file_and_line(self, tmp_path, bench_design, field, value, match):
        save_dataset(make_dataset(bench_design, 1.33e-3, 0.01, 4), tmp_path / "d.csv")
        rows = (tmp_path / "d.csv").read_text().splitlines()
        cells = rows[4].split(",")
        cells[field] = value
        rows[4] = ",".join(cells)
        (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(InvalidDatasetError, match=match) as info:
            load_dataset(tmp_path / "d.csv")
        assert f"{tmp_path / 'd.csv'}: CSV line 5 " in str(info.value)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidDatasetError, match="3 samples"):
            Dataset(z=[0.0] * 3, delta=0.1, n_samples=4, noise_var=0.0, seed=1)

    def test_csv_truncated_against_sidecar_rejected(self, tmp_path, bench_design):
        save_dataset(make_dataset(bench_design, 1.33e-3, 0.01, 4), tmp_path / "d.csv")
        rows = (tmp_path / "d.csv").read_text().splitlines()
        (tmp_path / "d.csv").write_text("\n".join(rows[:-10]) + "\n")
        with pytest.raises(InvalidDatasetError, match="n_samples"):
            load_dataset(tmp_path / "d.csv")


def _csv_oracle(csv_path):
    """t and z read row by row with csv and float."""
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    return tuple(np.array([float(row[i]) for row in rows]) for i in (0, 1))


class TestLoadFastPath:
    """``load_dataset`` reads the header t,z and rows of numbers in one
    ``np.loadtxt`` pass, and leaves every other file to its csv row loop,
    which accepts the same files and names the first line it refuses."""

    @pytest.fixture
    def saved(self, tmp_path, bench_design):
        save_dataset(make_dataset(bench_design, 1.33e-3, 0.01, 4), tmp_path / "d.csv")
        return tmp_path / "d.csv"

    def _with_line_5(self, csv_path, line):
        rows = csv_path.read_text().splitlines()
        rows[4] = line
        csv_path.write_text("\n".join(rows) + "\n")

    def test_plain_file_skips_the_row_loop(self, saved, monkeypatch):
        t, z = _csv_oracle(saved)

        def no_loop(*args, **kwargs):
            raise AssertionError("the row loop ran")

        monkeypatch.setattr(simulate.csv, "reader", no_loop)
        back = load_dataset(saved)
        assert back.z.tobytes() == z.tobytes()
        assert back.t.tobytes() == (np.arange(z.size) * back.delta).tobytes()
        assert back.z.flags.c_contiguous
        assert np.array_equal(t, back.t)

    @pytest.mark.parametrize("line, message", [
        ("", "CSV line 5 has 0 field(s), expected t and z"),
        ("# a comment", "CSV line 5 has 1 field(s), expected t and z"),
        ("#0.0012,0.5", "CSV line 5 has a field that is not a number: ['#0.0012', '0.5']"),
        ("0.0012", "CSV line 5 has 1 field(s), expected t and z"),
        ("0.0012,abc", "CSV line 5 has a field that is not a number: ['0.0012', 'abc']"),
    ], ids=["blank", "comment", "hash-prefixed", "short", "not-a-number"])
    def test_refused_line_named_by_the_row_loop(self, saved, line, message):
        # np.loadtxt would skip the blank line; the row loop refuses it
        self._with_line_5(saved, line)
        with pytest.raises(InvalidDatasetError, match=re.escape(f"{saved}: {message}")):
            load_dataset(saved)

    def test_blank_last_line_refused(self, saved):
        saved.write_text(saved.read_text() + "\n")
        with pytest.raises(InvalidDatasetError, match="has 0 field"):
            load_dataset(saved)

    @pytest.mark.parametrize("line", ['"{t:.17g}","{z:.17g}"', "{t:.17g},{z:.17g},extra",
                                      " {t:.17g} ,{z:.17g}"],
                             ids=["quoted", "third-field", "spaces"])
    def test_other_accepted_lines_read_as_the_row_loop_reads_them(self, saved, line):
        t, z = _csv_oracle(saved)
        self._with_line_5(saved, line.format(t=t[3], z=z[3]))
        back = load_dataset(saved)
        assert back.z.tobytes() == z.tobytes()
        assert back.t.tobytes() == (np.arange(z.size) * back.delta).tobytes()


class TestSupport:
    def test_support_time_scales_with_p(self):
        def design(p):
            return InputDesign(
                p=p,
                u=np.array([0.8, 0.4, -0.4, -0.8]),
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

    def test_default_tau_max_follows_record_length(self, bench_design):
        # a record of the design's own length keeps the horizon-based value
        # to the bit; a shorter one ends at (N - 1) delta, which the ML scan
        # range must not pass
        n, delta = bench_design.n_samples, bench_design.delta
        assert default_tau_max(bench_design, n) == default_tau_max(bench_design)
        short = default_tau_max(bench_design, 1000)
        assert 10 * delta < short < 998 * delta
        assert short == pytest.approx(999 * delta - support_time(bench_design), abs=1e-15)
        # a record shorter than the input's support gets the 10 delta floor
        assert default_tau_max(bench_design, 500) == pytest.approx(10 * delta, abs=1e-15)
        # a longer record leaves more headroom
        assert default_tau_max(bench_design, 2 * n) > default_tau_max(bench_design)
