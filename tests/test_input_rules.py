"""Each input type's range rules, held by its constructor.

``Dataset``, ``InputDesign``, ``DesignProblem`` and ``BenchmarkConfig``
refuse an out-of-range value when they are constructed, by a ValueError
(or InvalidDatasetError) that names the field, with no numpy warning on the
way (the suite turns a RuntimeWarning into an error).  Their readers check
only JSON types, so the same value in a sidecar or config file is refused
by the constructor and the reader adds the file: ``load_dataset`` as an
InvalidDatasetError naming the sidecar and its key, the CLI as a ValueError
naming the config file.  Whatever constructs goes through its file form and
back unchanged.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagdelay import cli
from lagdelay.analysis import BenchmarkConfig
from lagdelay.cli import main
from lagdelay.design import DesignProblem
from lagdelay.errors import InvalidDatasetError
from lagdelay.simulate import Dataset, InputDesign, load_dataset

INPUTS = Path(__file__).resolve().parents[1] / "lagbench" / "inputs"
DESIGN72 = json.loads((INPUTS / "design72_ref.json").read_text())

POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
NONNEGATIVE = st.floats(0.0, allow_infinity=False)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


class TestDatasetRules:
    # (fields, the message's start): each once saved a sidecar that
    # load_dataset refused, the last after three numpy overflow warnings
    CASES = [
        ({"delta": -1e-3, "n_samples": 3}, "delta must be a finite positive number, got -0.001"),
        ({"delta": 1e-3, "n_samples": 0}, "n_samples must be at least 1, got 0"),
        ({"delta": 1e308, "n_samples": 3}, "(n_samples - 1) * delta overflows"),
    ]

    @pytest.mark.parametrize("fields, message", CASES)
    def test_refused_when_constructed(self, fields, message):
        with pytest.raises(ValueError) as info:
            Dataset(z=np.zeros(fields["n_samples"]), noise_var=0.0, seed=0, **fields)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("fields, message", CASES)
    def test_refused_from_the_sidecar(self, tmp_path, fields, message):
        n = fields["n_samples"]
        rows = "".join(f"{k * fields['delta']!r},0\r\n" for k in range(n))
        (tmp_path / "d.csv").write_text("t,z\r\n" + rows)
        meta = {**fields, "noise_var": 0.0, "seed": 0}
        (tmp_path / "d.json").write_text(json.dumps(meta))
        with pytest.raises(InvalidDatasetError) as info:
            load_dataset(tmp_path / "d.csv")
        assert str(info.value).startswith(f"{tmp_path / 'd.json'}: {message}")

    def test_row_count_names_the_csv(self, tmp_path):
        (tmp_path / "d.csv").write_text("t,z\r\n0,1\r\n0.001,2\r\n")
        (tmp_path / "d.json").write_text(
            json.dumps({"delta": 1e-3, "n_samples": 3, "noise_var": 0.0, "seed": 0})
        )
        with pytest.raises(InvalidDatasetError) as info:
            load_dataset(tmp_path / "d.csv")
        assert str(info.value) == f"{tmp_path / 'd.csv'}: 2 samples given but n_samples is 3"


class TestInputDesignRules:
    @pytest.mark.parametrize("fields, message", [
        # each once constructed: the first two with a numpy warning, the
        # third silently, with NaN samples downstream
        ({"p": 1e308, "u": [1.0, -1.0]}, "p = 1e+308 is too large: 2p overflows"),
        ({"u": [1e200, -1e200], "eta": 1e308}, "input energy inf exceeds bound 1e+308"),
        ({"u": [1.0, float("nan")]}, "u must be a nonempty vector of finite numbers"),
        ({"p": float("nan")}, "p must be finite and positive, got nan"),
    ])
    def test_refused_when_read(self, tmp_path, capsys, fields, message):
        d = {**DESIGN72, **fields}
        with pytest.raises(ValueError) as info:
            InputDesign.from_dict(d)
        assert str(info.value).startswith(message)
        path = tmp_path / "design.json"
        path.write_text(json.dumps(d))
        err = _cli_error(capsys, ["simulate", "--design", str(path), "--tau", "1e-3",
                                  "--out", str(tmp_path / "sim")])
        assert err.startswith(f"error: ValueError: {path}: {message}")
        assert not (tmp_path / "sim").exists()

    @settings(max_examples=200, deadline=None)
    @given(
        p=POSITIVE,
        u=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        eta=POSITIVE,
        delta=POSITIVE,
        horizon=NONNEGATIVE,
        tau_guess=NONNEGATIVE,
    )
    @example(p=37.31, u=[1.0, 0.0, 0.0, -1.0], eta=2.0, delta=3e-4, horizon=0.5, tau_guess=3e-4)
    # an energy that overflows under a bound whose tolerance overflows too
    # once constructed, with a numpy warning
    @example(p=1.0, u=[1.3407807929942597e154], eta=1.7976931330646226e308, delta=1.0,
             horizon=0.0, tau_guess=0.0)
    def test_round_trip(self, p, u, eta, delta, horizon, tau_guess):
        # the JSON text of to_dict reads back to the same design, bitwise
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                design = InputDesign(p=p, u=u, energy_bound=eta, horizon=horizon, delta=delta,
                                     tau_guess=tau_guess)
        except ValueError:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            back = InputDesign.from_dict(json.loads(json.dumps(design.to_dict())))
        assert _bits(back.u) == _bits(design.u)
        assert _bits([back.p, back.energy_bound, back.horizon, back.delta, back.tau_guess]) == (
            _bits([p, eta, horizon, delta, tau_guess])
        )


PROBLEM = {
    "delta": 3e-4, "n_samples": 600, "i_order": 3, "energy_bound": 2.0, "tau_guess": 3e-4,
    "noise_var": 0.01, "k_model": 12,
}


class TestDesignProblemRules:
    @pytest.mark.parametrize("p_grid", [[-1.0, 5.0], [math.nan], [math.inf, 5.0], [],
                                        [[20.0, 35.0]]])
    def test_p_grid_refused_when_constructed(self, p_grid):
        # each once constructed and failed later, in optimize_design
        with pytest.raises(ValueError, match="p_grid must be a nonempty 1-D array of finite "
                                             "positive numbers"):
            DesignProblem(p_grid=p_grid, **PROBLEM)

    @pytest.mark.parametrize("spec, message", [
        ({"min": -1.0}, "p_grid min must be a finite positive number, got -1.0"),
        ({"min": math.nan}, "p_grid min must be a finite positive number, got nan"),
        ({"max": math.inf}, "p_grid max must be a finite positive number, got inf"),
        ({"count": 0}, "p_grid count must be at least 1, got 0"),
    ])
    def test_p_grid_refused_from_the_config(self, tmp_path, capsys, spec, message):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**PROBLEM, "p_grid": spec}))
        out = tmp_path / "d.json"
        err = _cli_error(capsys, ["design", "--config", str(path), "--out", str(out)])
        assert err == f"error: ValueError: {path}: {message}\n"
        assert not out.exists()


BENCH = {"true_tau": 1.33e-3, "noise_var": 0.01, "k_model": 12, "tau_max": 0.01}

# (field, value, the message): each once constructed and failed
# only inside run_monte_carlo, in a worker process when workers > 1
BENCH_CASES = [
    ("true_tau", -1e-3, "true_tau must be finite and nonnegative, got -0.001"),
    ("noise_var", -0.01, "noise_var must be finite and nonnegative, got -0.01"),
    ("k_model", 2, "model order must cover the input spectrum length: k_model = 2 < I = 3"),
    ("m_markov", 99, "m_markov must lie in [3, 13], got 99"),
    ("tau_max", -0.01, "tau_max must lie in (0, (N - 1) * delta] = (0, 0.4998] s, got -0.01"),
    ("tau_max", 1.0, "tau_max must lie in (0, (N - 1) * delta] = (0, 0.4998] s, got 1.0"),
    ("n_samples", 0, "n_samples must be at least 1, got 0"),
]


class TestBenchmarkConfigRules:
    @pytest.mark.parametrize("field, value, message", BENCH_CASES)
    def test_refused_when_constructed(self, field, value, message):
        design = InputDesign.from_dict(DESIGN72)
        with pytest.raises(ValueError) as info:
            BenchmarkConfig(design=design, **{**BENCH, field: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("field, value, message", BENCH_CASES)
    def test_refused_from_the_config_before_any_worker(
        self, tmp_path, capsys, monkeypatch, field, value, message
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("run_monte_carlo ran on a refused config")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run)
        path = tmp_path / "bench.json"
        design_path = str(INPUTS / "design72_ref.json")
        path.write_text(json.dumps({"design_path": design_path, **BENCH, field: value}))
        out = tmp_path / "mc"
        err = _cli_error(capsys, ["benchmark", "--config", str(path), "--seed", "1",
                                  "--replicates", "4", "--workers", "2", "--out", str(out)])
        assert err == f"error: ValueError: {path}: {message}\n"
        assert not out.exists()

    # N below K + 1 (the basis of proposed) or 4 (the spline of lag_spline),
    # with tau_max left to its default, once failed inside run_monte_carlo
    # naming neither the file nor the key; at N = 1 and 2 the default made
    # from N was then refused in its place, naming a key the file leaves out
    @pytest.mark.parametrize("k_model, n_samples, least",
                             [(12, 5, 13), (3, 3, 4), (12, 12, 13), (12, 1, 13), (3, 2, 4)])
    def test_too_few_samples_for_the_tables(self, tmp_path, capsys, monkeypatch, k_model,
                                            n_samples, least):
        fields = {**BENCH, "k_model": k_model, "n_samples": n_samples}
        del fields["tau_max"]
        message = f"n_samples must be at least max(k_model + 1, 4) = {least}, got {n_samples}"
        with pytest.raises(ValueError) as info:
            BenchmarkConfig(design=InputDesign.from_dict(DESIGN72), **fields)
        assert str(info.value) == message

        def no_run(*args, **kwargs):
            raise AssertionError("run_monte_carlo ran on a refused config")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run)
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"design_path": str(INPUTS / "design72_ref.json"), **fields}))
        out = tmp_path / "mc"
        err = _cli_error(capsys, ["benchmark", "--config", str(path), "--seed", "1",
                                  "--replicates", "4", "--out", str(out)])
        assert err == f"error: ValueError: {path}: {message}\n"
        assert not out.exists()

    @settings(max_examples=100, deadline=None)
    @given(
        true_tau=NONNEGATIVE,
        noise_var=NONNEGATIVE,
        k_model=st.integers(0, 30),
        m_markov=st.none() | st.integers(0, 31),
        n_samples=st.none() | st.integers(-1, 3000),
        tau_max=st.none() | st.floats(-1.0, 2.0),
    )
    @example(true_tau=1.33e-3, noise_var=0.01, k_model=12, m_markov=None, n_samples=None,
             tau_max=None)
    def test_round_trip(self, true_tau, noise_var, k_model, m_markov, n_samples, tau_max):
        # the JSON text of to_dict reads back to the same config
        design = InputDesign.from_dict(DESIGN72)
        try:
            config = BenchmarkConfig(design=design, true_tau=true_tau, noise_var=noise_var,
                                     k_model=k_model, m_markov=m_markov, tau_max=tau_max,
                                     n_samples=n_samples)
        except ValueError:
            return
        text = json.dumps(config.to_dict())
        assert json.dumps(BenchmarkConfig.from_dict(json.loads(text)).to_dict()) == text


def _cli_error(capsys, argv) -> str:
    """stderr of a CLI run that must exit 1."""
    assert main(argv) == 1
    return capsys.readouterr().err
