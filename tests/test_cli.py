"""End-to-end CLI tests: subcommands, exit codes, schemas, reproducibility."""

import contextlib
import io
import json
import math
import re
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagdelay import cli, estimators
from lagdelay.analysis import BenchmarkConfig, MarkovErrorModel, predict_bias_tau
from lagdelay.cli import main
from lagdelay.errors import IllConditionedError, NoImprovementWarning
from lagdelay.simulate import InputDesign

from conftest import OUT_OF_RECORD

INPUTS = Path(__file__).resolve().parents[1] / "lagbench" / "inputs"


def _schema(name):
    with resources.files("lagdelay.schemas").joinpath(name).open() as f:
        return json.load(f)


def _validate(payload, schema_name):
    jsonschema.validate(payload, _schema(schema_name))


# a small design problem that the design command solves in well under 1 s
PROBLEM = {
    "delta": 3e-4,
    "horizon": 0.5,
    "i_order": 3,
    "energy_bound": 2.0,
    "tau_guess": 3e-4,
    "noise_var": 0.01,
    "k_model": 6,
    "p_grid": {"min": 20.0, "max": 80.0, "count": 6},
    "u_grid_points": 5,
    "refine": False,
}


@pytest.fixture(scope="module")
def design_file(tmp_path_factory):
    """A small but real design run used by the downstream commands."""
    root = tmp_path_factory.mktemp("designs")
    cfg_path = root / "problem.json"
    cfg_path.write_text(json.dumps(PROBLEM))
    out_path = root / "design.json"
    assert main(["design", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    return out_path


class TestDesignCommand:
    def test_output_schema_and_hash(self, design_file):
        payload = json.loads(design_file.read_text())
        _validate(payload, "design_output.json")
        assert list(payload) == [
            "p", "u", "eta", "delta", "horizon", "tau_guess", "config_hash", "objective",
            "constraints",
        ]
        assert payload["constraints"]["ok"]
        assert len(payload["config_hash"]) == 16

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["design", "--config", str(bad), "--out", str(tmp_path / "o.json")]) == 1
        assert "line" in capsys.readouterr().err

    def test_infeasible_exit_2(self, tmp_path):
        cfg = {
            "delta": 3e-4,
            "n_samples": 200,
            "i_order": 3,
            "energy_bound": 2.0,
            "tau_guess": 3e-4,
            "noise_var": 0.01,
            "k_model": 12,
            "p_grid": {"min": 0.05, "max": 0.05, "count": 1},
            "u_grid_points": 3,
            "refine": False,
        }
        cfg_path = tmp_path / "p.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["design", "--config", str(cfg_path), "--out", str(tmp_path / "d.json")]) == 2

    @pytest.mark.parametrize("field", ["energy_bound", "tau_guess"])
    def test_nan_problem_field_exit_1(self, tmp_path, capsys, field):
        # a NaN energy_bound once exited 2 with an InfeasibleDesignError that
        # asked for more u_grid_points; a NaN tau_guess failed later with
        # "kappa must be finite"
        cfg_path = tmp_path / "p.json"
        cfg_path.write_text(json.dumps({**PROBLEM, field: float("nan")}))
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sampling, message",
        [
            # with the horizon, a zero delta once ended in a ZeroDivisionError
            # traceback and a NaN one in "cannot convert float NaN to integer"
            ({"delta": 0.0}, "delta must be finite and positive"),
            ({"delta": -3e-4}, "delta must be finite and positive"),
            ({"delta": float("nan")}, "delta must be finite and positive"),
            # a subnormal delta made horizon / delta infinite and ended in an
            # OverflowError traceback
            ({"delta": 5e-324}, "horizon / delta overflows"),
            # with n_samples, a NaN delta once exited 2 with an
            # InfeasibleDesignError asking to revise the grids
            ({"delta": float("nan"), "n_samples": 1667}, "delta must be finite and positive"),
            ({"n_samples": 0}, "n_samples must be at least 1"),
            ({"n_samples": -5}, "n_samples must be at least 1"),
        ],
        ids=["delta=0", "delta<0", "delta=nan", "delta=5e-324", "delta=nan,n_samples",
             "n_samples=0", "n_samples<0"],
    )
    def test_unusable_sampling_exit_1(self, tmp_path, capsys, sampling, message):
        cfg = {**PROBLEM, **sampling}
        if "n_samples" in sampling:
            del cfg["horizon"]
        cfg_path = tmp_path / "p.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [-0.5, float("nan")], ids=["horizon<0", "horizon=nan"])
    def test_unusable_horizon_exit_1(self, tmp_path, capsys, horizon):
        cfg_path = tmp_path / "p.json"
        cfg_path.write_text(json.dumps({**PROBLEM, "horizon": horizon}))
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "horizon must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        # "false" was once read as True and the design refined
        ({"refine": "false"}, "refine must be true or false, got 'false'"),
        ({"k_model": 12.9}, "k_model must be an integer, got 12.9"),
        # once exited 2, asking to revise the grids
        ({"p_grid": {"count": 0}}, "p_grid count must be at least 1"),
        # once exited 0 and wrote "objective": null
        ({"noise_var": float("inf")}, "noise_var must be finite and nonnegative, got inf"),
    ], ids=["refine=str", "k_model=12.9", "p_grid.count=0", "noise_var=inf"])
    def test_wrong_problem_value_exit_1(self, tmp_path, capsys, bad, message):
        cfg_path = tmp_path / "p.json"
        cfg_path.write_text(json.dumps({**PROBLEM, **bad}))
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and message in err
        assert not out.exists()

    def test_large_energy_bound_designs(self, tmp_path, capsys):
        # every candidate's u_0 is 1e13 times the warm-up's; the u_0 rule
        # once ran on v = 1/u as well and refused u_0 = 3.5e12 as 2.8e-13
        cfg = json.loads((INPUTS / "design_warmup_problem.json").read_text())
        cfg_path = tmp_path / "p.json"
        cfg_path.write_text(json.dumps({**cfg, "energy_bound": 2e26}))
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["constraints"]["ok"]

    @pytest.mark.parametrize("name", ["design_warmup_problem", "design72_problem"])
    def test_small_energy_bound_designs(self, name, tmp_path, capsys):
        # every candidate is 1e-13 times one at energy bound 2; the absolute
        # rule |u_0| < 1e-12 once refused u_0 = 3.5e-14 (warm-up) and 2.9e-15
        cfg = json.loads((INPUTS / f"{name}.json").read_text())
        cfg_path = tmp_path / "p.json"
        cfg_path.write_text(json.dumps({**cfg, "energy_bound": 2e-26}))
        out = tmp_path / "d.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["constraints"]["ok"]

    def test_missing_config_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        out = tmp_path / "d.json"
        assert main(["design", "--config", str(missing), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert not out.exists()


class TestSimulateCommand:
    @pytest.mark.parametrize("bad, message", [
        ({"p": "37.31"}, "p must be a number, got '37.31'"),
        ({"delta": True}, "delta must be a number, got True"),
        ({"u": ["1", "0", "0", "-1"]}, "u must be an array of numbers"),
    ], ids=["p=str", "delta=true", "u=str"])
    def test_wrong_design_value_exit_1(self, tmp_path, capsys, bad, message):
        design = json.loads((INPUTS / "design72_ref.json").read_text())
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps({**design, **bad}))
        out = tmp_path / "sim"
        rc = main(["simulate", "--design", str(design_path), "--tau", "1e-3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and message in err
        assert not out.exists()

    def test_sample_count_from_horizon(self, design_file, tmp_path):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--design", str(design_file), "--tau", "0.00133",
            "--noise-var", "0.01", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        meta = json.loads((out / "dataset.json").read_text())
        _validate(meta, "dataset_meta.json")
        assert meta["n_samples"] == 1667
        assert meta["true_tau"] == 0.00133

    def test_same_seed_identical_files(self, design_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main([
                "simulate", "--design", str(design_file), "--tau", "1e-3",
                "--noise-var", "0.05", "--seed", "99", "--out", str(out),
            ])
            outs.append((out / "dataset.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_noise_free_idempotent_across_seeds(self, design_file, tmp_path):
        contents = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            main([
                "simulate", "--design", str(design_file), "--tau", "1e-3",
                "--noise-var", "0.0", "--seed", seed, "--out", str(out),
            ])
            contents.append((out / "dataset.csv").read_bytes())
        assert contents[0] == contents[1]

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_delay_exit_1(self, design_file, tmp_path, capsys, tau):
        # once wrote a pure-noise dataset whose sidecar held "true_tau": NaN
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--design", str(design_file), "--tau", tau,
            "--noise-var", "0.01", "--seed", "1", "--out", str(out),
        ])
        assert rc == 1
        assert f"got {tau}" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_noise_variance_exit_1(self, design_file, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--design", str(design_file), "--tau", "1e-3",
            "--noise-var", "nan", "--seed", "1", "--out", str(out),
        ])
        assert rc == 1
        assert "noise_var must be finite and nonnegative, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_noise_variance_exit_1(self, design_file, tmp_path, capsys):
        # once refused only by the dataset, as "sample z[0] = inf is not finite"
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--design", str(design_file), "--tau", "1e-3",
            "--noise-var", "inf", "--seed", "1", "--out", str(out),
        ])
        assert rc == 1
        assert "noise_var must be finite and nonnegative, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("p", 0.0), ("p", float("nan")),
        ("delta", 0.0), ("delta", -3e-4), ("delta", float("nan")), ("delta", float("inf")),
        ("eta", 0.0), ("eta", float("nan")),
        ("horizon", -1.0), ("horizon", float("nan")),
        ("tau_guess", -3e-4), ("tau_guess", float("nan")),
        ("u", []), ("u", [[1.0, -1.0]]),
    ])
    def test_unusable_design_field_exit_1(self, design_file, tmp_path, capsys, field, value):
        # delta = 0 once ended in a ZeroDivisionError traceback and an empty
        # u in an IndexError one, a negative delta or horizon wrote a
        # 0-sample dataset, a NaN delta failed on an integer conversion and
        # a NaN eta passed the energy check
        path = tmp_path / "design.json"
        path.write_text(json.dumps({**json.loads(design_file.read_text()), field: value}))
        out = tmp_path / "sim"
        rc = main(["simulate", "--design", str(path), "--tau", "1e-3", "--out", str(out)])
        assert rc == 1
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_samples", ["0", "-5"])
    def test_nonpositive_n_samples_exit_1(self, design_file, tmp_path, capsys, n_samples):
        # once wrote a dataset.csv with no samples and exited 0
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--design", str(design_file), "--tau", "1e-3",
            "--n-samples", n_samples, "--out", str(out),
        ])
        assert rc == 1
        assert "n_samples" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def dataset_dir(design_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    main([
        "simulate", "--design", str(design_file), "--tau", "0.00133",
        "--noise-var", "0.01", "--seed", "3", "--out", str(out),
    ])
    return out


@pytest.fixture(scope="module")
def bench_config(design_file, tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    cfg = {
        "design_path": str(design_file),
        "true_tau": 0.00133,
        "noise_var": 0.01,
        "k_model": 6,
        "tau_max": 0.01,
        "methods": ["proposed", "freq_interp"],
        "seed": 11,
    }
    path = root / "bench.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def singular_design(tmp_path_factory):
    """The section 7.2 reference design with u_0 = 1e-13: the reciprocal
    input series that the Laguerre-domain methods need cannot be built, and
    ml and freq_interp do not need it."""
    design = json.loads((INPUTS / "design72_ref.json").read_text())
    design["u"] = [1e-13, 0.5, -0.5, -1e-13]
    path = tmp_path_factory.mktemp("singular") / "design.json"
    path.write_text(json.dumps(design))
    return path


TABLE_BUILDERS = ("build_phi", "reciprocal_series", "ml_table", "spline_table", "corr_table")


@pytest.fixture
def table_builds(monkeypatch):
    """Calls of each table builder, counted where the estimators call it."""
    calls = dict.fromkeys(TABLE_BUILDERS, 0)
    for name in TABLE_BUILDERS:
        def counting(*args, _name=name, _orig=getattr(estimators, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(estimators, name, counting)
    return calls


@pytest.fixture
def ml_calls(monkeypatch):
    """Calls of the ML estimator, counted where ``estimate_delay`` looks it up."""
    calls = []

    def counting(*args, _orig=estimators.estimate_delay_ml):
        calls.append(1)
        return _orig(*args)

    monkeypatch.setattr(estimators, "estimate_delay_ml", counting)
    return calls


def test_repeated_method_kept_once():
    assert cli._parse_methods("ml, proposed,ml") == ("ml", "proposed")
    assert cli._parse_methods(["freq_interp", "ml", "freq_interp"]) == ("freq_interp", "ml")


class TestEstimateCommand:
    def test_repeated_method_runs_once(self, design_file, dataset_dir, tmp_path, ml_calls):
        report_path = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(dataset_dir / "dataset.csv"),
            "--design", str(design_file), "--methods", "ml,ml",
            "--k-model", "6", "--tau-max", "0.01", "--out", str(report_path),
        ])
        assert rc == 0
        assert len(ml_calls) == 1
        assert list(json.loads(report_path.read_text())["estimates"]) == ["ml"]

    def test_default_tau_max_fits_short_record(self, tmp_path):
        # the default once came from the design's horizon: 0.2325 s, past
        # the 0.1497 s span of 500 samples, and no method ran
        design_path = INPUTS / "design72_ref.json"
        data = tmp_path / "data"
        assert main([
            "simulate", "--design", str(design_path), "--tau", "1.33e-3",
            "--noise-var", "0.01", "--seed", "1", "--n-samples", "500", "--out", str(data),
        ]) == 0
        report_path = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(data / "dataset.csv"),
            "--design", str(design_path), "--out", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        _validate(report, "estimate_report.json")
        assert list(report["estimates"]) == list(estimators.ESTIMATORS)
        assert report["errors"] == {}
        assert report["estimates"]["ml"]["tau_hat"] == pytest.approx(1.33e-3, abs=1e-4)

    @pytest.mark.parametrize("methods, built", [
        ("all", set(TABLE_BUILDERS)),
        ("ml", {"ml_table"}),
    ])
    def test_each_table_built_once(
        self, design_file, dataset_dir, tmp_path, table_builds, methods, built
    ):
        # the per-call route built the reciprocal series once for proposed
        # and once more for lag_spline; ml needs no Laguerre-domain table
        rc = main([
            "estimate", "--dataset", str(dataset_dir / "dataset.csv"),
            "--design", str(design_file), "--methods", methods,
            "--k-model", "6", "--tau-max", "0.01", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 0
        assert table_builds == {name: int(name in built) for name in TABLE_BUILDERS}

    def test_table_build_failure_fails_only_its_methods(self, singular_design, tmp_path):
        data = tmp_path / "data"
        main([
            "simulate", "--design", str(singular_design), "--tau", "0.00133",
            "--noise-var", "0.01", "--seed", "1", "--out", str(data),
        ])
        report_path = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(data / "dataset.csv"),
            "--design", str(singular_design), "--methods", "all", "--out", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        _validate(report, "estimate_report.json")
        assert list(report["estimates"]) == ["ml", "freq_interp"]
        assert list(report["errors"]) == ["proposed", "lag_spline"]
        assert all(msg.startswith("SingularInputError: ") for msg in report["errors"].values())

    def test_all_methods_report(self, design_file, dataset_dir, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main([
            "estimate", "--dataset", str(dataset_dir / "dataset.csv"),
            "--design", str(design_file), "--methods", "all",
            "--k-model", "6", "--tau-max", "0.01", "--out", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        _validate(report, "estimate_report.json")
        assert list(report) == ["config_hash", "true_tau", "estimates", "errors", "crlb"]
        for est in report["estimates"].values():
            assert list(est) == ["method", "tau_hat", "diagnostics"]
        assert list(report["crlb"]) == ["bound", "window"]
        assert set(report["estimates"]) == {"proposed", "ml", "lag_spline", "freq_interp"}
        assert report["crlb"]["bound"] > 0
        for est in report["estimates"].values():
            assert est["tau_hat"] == pytest.approx(0.00133, abs=5e-4)

    def test_mismatched_delta_exit_1(self, design_file, dataset_dir, tmp_path):
        # clone the dataset with a modified sampling time
        meta = json.loads((dataset_dir / "dataset.json").read_text())
        meta["delta"] = meta["delta"] * 2
        clone = tmp_path / "clone"
        clone.mkdir()
        (clone / "dataset.csv").write_bytes((dataset_dir / "dataset.csv").read_bytes())
        (clone / "dataset.json").write_text(json.dumps(meta))
        rc = main([
            "estimate", "--dataset", str(clone / "dataset.csv"),
            "--design", str(design_file), "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1

    def test_dataset_sampled_at_another_delta_exit_1(self, tmp_path, capsys):
        # a well-formed dataset at delta = 1.5e-4 against a design at 3e-4
        design = json.loads((INPUTS / "design72_ref.json").read_text())
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**design, "delta": 1.5e-4}))
        data = tmp_path / "data"
        main(["simulate", "--design", str(other), "--tau", "1.33e-3", "--out", str(data)])
        capsys.readouterr()
        report = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(data / "dataset.csv"),
            "--design", str(INPUTS / "design72_ref.json"), "--out", str(report),
        ])
        assert rc == 1
        assert "sampling time 0.00015 does not match design 0.0003" in capsys.readouterr().err
        assert not report.exists()

    def test_crlb_failure_reported_not_fatal(self, tmp_path):
        # at tau = 0.6 s the input has left the 0.4998 s record, so the
        # bound has no information; the estimates are still reported
        design = INPUTS / "design72_ref.json"
        data = tmp_path / "data"
        main([
            "simulate", "--design", str(design), "--tau", "0.6", "--noise-var", "0.01",
            "--out", str(data),
        ])
        report_path = tmp_path / "r.json"
        # on pure noise the ML refine ends on its grid point
        with pytest.warns(NoImprovementWarning):
            rc = main([
                "estimate", "--dataset", str(data / "dataset.csv"), "--design", str(design),
                "--methods", "ml", "--out", str(report_path),
            ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["errors"]["crlb"].startswith("ZeroInformationError: ")
        assert report["crlb"] is None
        assert list(report["estimates"]) == ["ml"]

    @pytest.mark.parametrize("n_samples, k_model, method", OUT_OF_RECORD)
    def test_delay_beyond_record_fails_only_its_method(self, tmp_path, n_samples, k_model, method):
        design = INPUTS / "design72_ref.json"
        data = tmp_path / "data"
        main([
            "simulate", "--design", str(design), "--tau", "1.33e-3",
            "--n-samples", str(n_samples), "--out", str(data),
        ])
        report_path = tmp_path / "r.json"
        # a flagged basis is reported as IllConditionedError, never warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "estimate", "--dataset", str(data / "dataset.csv"), "--design", str(design),
                "--k-model", str(k_model), "--out", str(report_path),
            ])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["errors"][method].startswith("DelayOutOfRangeError: ")
        assert method not in report["estimates"]
        if n_samples == 300:
            # too few samples for the K = 12 basis of proposed (cond 5.6e8)
            assert report["errors"]["proposed"].startswith("IllConditionedError: ")
        assert report["estimates"]["ml"]["tau_hat"] == pytest.approx(1.33e-3, abs=1e-6)

    def test_unknown_method_exit_1(self, design_file, dataset_dir, tmp_path):
        rc = main([
            "estimate", "--dataset", str(dataset_dir / "dataset.csv"),
            "--design", str(design_file), "--methods", "nope",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("tau_max", ["nan", "inf", "1e9", "-0.01", "0"])
    def test_bad_tau_max_exit_1(self, design_file, dataset_dir, tmp_path, capsys, tau_max):
        report = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(dataset_dir / "dataset.csv"),
            "--design", str(design_file), "--methods", "ml",
            "--tau-max", tau_max, "--out", str(report),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ValueError" in err and "tau_max" in err
        assert not report.exists()

    def test_non_finite_sample_exit_1(self, design_file, dataset_dir, tmp_path, capsys):
        rows = (dataset_dir / "dataset.csv").read_text().splitlines()
        t, _ = rows[500].split(",")
        rows[500] = f"{t},nan"
        (tmp_path / "dataset.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "dataset.json").write_bytes((dataset_dir / "dataset.json").read_bytes())
        report = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(tmp_path / "dataset.csv"),
            "--design", str(design_file), "--out", str(report),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InvalidDatasetError" in err and "line 501 " in err
        assert str(tmp_path / "dataset.csv") in err
        assert not report.exists()

    @pytest.mark.parametrize("key, value, rule", [
        # "x" once escaped main as a numpy error and [1] wrote a report that
        # its schema refuses
        ("true_tau", "x", "null or a finite number >= 0"),
        ("true_tau", [1], "null or a finite number >= 0"),
        ("true_tau", True, "null or a finite number >= 0"),
        ("true_tau", float("inf"), "null or a finite number >= 0"),
        # -0.2 once exited 0 with a CRLB at the negative delay
        ("true_tau", -1e-3, "null or a finite number >= 0"),
        # null once escaped main as a TypeError
        ("delta", None, "a finite positive number"),
        ("delta", "3e-4", "a finite positive number"),
        ("delta", 0.0, "a finite positive number"),
        ("delta", float("nan"), "a finite positive number"),
        ("n_samples", None, "an integer"),
        ("n_samples", 1666.5, "an integer"),
        ("n_samples", True, "an integer"),
        ("noise_var", None, "a finite number >= 0"),
        ("noise_var", -0.01, "a finite number >= 0"),
        ("noise_var", float("inf"), "a finite number >= 0"),
        # "abc" once loaded, and estimate exited 0
        ("seed", "abc", "an integer, an array of integers or null"),
        ("seed", 1.5, "an integer, an array of integers or null"),
        ("seed", True, "an integer, an array of integers or null"),
        ("seed", [1, "2"], "an integer, an array of integers or null"),
        ("seed", {"a": 1}, "an integer, an array of integers or null"),
    ])
    def test_bad_sidecar_value_exit_1(
        self, design_file, dataset_dir, tmp_path, capsys, key, value, rule
    ):
        (tmp_path / "dataset.csv").write_bytes((dataset_dir / "dataset.csv").read_bytes())
        meta = json.loads((dataset_dir / "dataset.json").read_text())
        (tmp_path / "dataset.json").write_text(json.dumps({**meta, key: value}))
        report = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(tmp_path / "dataset.csv"),
            "--design", str(design_file), "--out", str(report),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InvalidDatasetError" in err and f"{key} must be {rule}, got {value!r}" in err
        assert str(tmp_path / "dataset.json") in err
        assert not report.exists()

    def test_header_only_dataset_exit_1(self, design_file, dataset_dir, tmp_path, capsys):
        # once loaded as an empty dataset, on which ml named a negative tau_max
        (tmp_path / "dataset.csv").write_text("t,z\r\n")
        meta = json.loads((dataset_dir / "dataset.json").read_text())
        (tmp_path / "dataset.json").write_text(json.dumps({**meta, "n_samples": 0}))
        report = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(tmp_path / "dataset.csv"),
            "--design", str(design_file), "--methods", "ml", "--out", str(report),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InvalidDatasetError" in err and "n_samples must be at least 1, got 0" in err
        assert str(tmp_path / "dataset.json") in err
        assert not report.exists()

    def test_truncated_csv_exit_1(self, design_file, dataset_dir, tmp_path, capsys):
        rows = (dataset_dir / "dataset.csv").read_text().splitlines()
        (tmp_path / "dataset.csv").write_text("\n".join(rows[:-10]) + "\n")
        (tmp_path / "dataset.json").write_bytes((dataset_dir / "dataset.json").read_bytes())
        report = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(tmp_path / "dataset.csv"),
            "--design", str(design_file), "--out", str(report),
        ])
        assert rc == 1
        assert "InvalidDatasetError" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("bad_row", ["", "0.0003", "0.0021,abc"])
    def test_malformed_csv_row_exit_1(self, design_file, dataset_dir, tmp_path, capsys, bad_row):
        rows = (dataset_dir / "dataset.csv").read_text().splitlines()
        rows[7] = bad_row
        (tmp_path / "dataset.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "dataset.json").write_bytes((dataset_dir / "dataset.json").read_bytes())
        report = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(tmp_path / "dataset.csv"),
            "--design", str(design_file), "--out", str(report),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InvalidDatasetError" in err and "line 8" in err
        assert str(tmp_path / "dataset.csv") in err
        assert not report.exists()

    @pytest.mark.parametrize("header", ["time,value", None], ids=["wrong", "empty"])
    def test_csv_header_checked_exit_1(self, design_file, dataset_dir, tmp_path, capsys, header):
        rows = (dataset_dir / "dataset.csv").read_text().splitlines()
        text = "" if header is None else "\n".join([header] + rows[1:]) + "\n"
        (tmp_path / "dataset.csv").write_text(text)
        (tmp_path / "dataset.json").write_bytes((dataset_dir / "dataset.json").read_bytes())
        report = tmp_path / "r.json"
        rc = main([
            "estimate", "--dataset", str(tmp_path / "dataset.csv"),
            "--design", str(design_file), "--out", str(report),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "InvalidDatasetError" in err and "line 1 " in err
        assert str(tmp_path / "dataset.csv") in err
        assert not report.exists()

    def test_every_method_failing_exit_3(self, design_file, tmp_path):
        # zero data: the Laguerre-domain ratio degenerates
        out = tmp_path / "zero"
        main([
            "simulate", "--design", str(design_file), "--tau", "2.0",
            "--noise-var", "0.0", "--seed", "1", "--out", str(out),
        ])
        rc = main([
            "estimate", "--dataset", str(out / "dataset.csv"),
            "--design", str(design_file), "--methods", "proposed,freq_interp",
            "--k-model", "6", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 3
        report = json.loads((tmp_path / "r.json").read_text())
        assert set(report["errors"]) == {"proposed", "freq_interp"}
        assert report["estimates"] == {}


class TestBenchmarkCommand:
    def test_repeated_method_runs_once(self, bench_config, tmp_path, ml_calls):
        out = tmp_path / "mc"
        rc = main([
            "benchmark", "--config", str(bench_config), "--replicates", "3",
            "--methods", "ml,ml", "--out", str(out),
        ])
        assert rc == 0
        assert len(ml_calls) == 3
        assert list(json.loads((out / "report.json").read_text())["per_method"]) == ["ml"]

    def test_short_record_default_tau_max(self, tmp_path):
        # a config with n_samples = 500 and no tau_max failed like estimate
        cfg = {
            "design_path": str(INPUTS / "design72_ref.json"), "true_tau": 0.00133,
            "noise_var": 0.01, "k_model": 12, "n_samples": 500, "methods": ["ml"], "seed": 0,
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "mc"
        rc = main(["benchmark", "--config", str(cfg_path), "--replicates", "4", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert 0 < report["config"]["benchmark"]["tau_max"] <= 499 * 3e-4
        assert report["per_method"]["ml"]["failures"] == 0

    def test_zero_information_refused_before_any_replicate(self, tmp_path, capsys,
                                                           monkeypatch):
        # at N = 4 the input derivative has no energy at the samples; the
        # CRLB once ran after every replicate, which warned before the error
        def no_run(*args, **kwargs):
            raise AssertionError("run_monte_carlo ran before the CRLB")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run)
        cfg = {
            "design_path": str(INPUTS / "design72_ref.json"), "true_tau": 0.00133,
            "noise_var": 0.01, "k_model": 3, "n_samples": 4, "seed": 0,
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "mc"
        rc = main(["benchmark", "--config", str(cfg_path), "--replicates", "4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ZeroInformationError: input derivative has no energy at the sample instants\n"
        )
        assert not out.exists()

    # hist_bins included: the histogram has a fixed 40 bins
    @pytest.mark.parametrize("key", ["replicate", "noise_variance", "workers", "hist_bins"])
    def test_unknown_config_key_exit_1(self, bench_config, tmp_path, capsys, key):
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({**json.loads(bench_config.read_text()), key: 1}))
        out = tmp_path / "mc"
        rc = main(["benchmark", "--config", str(cfg_path), "--replicates", "2", "--out", str(out)])
        assert rc == 1
        assert f"unknown benchmark config key(s) ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad, message", [
        # each was once truncated or cast to an integer
        ({"k_model": 12.9}, "k_model must be an integer, got 12.9"),
        ({"k_model": True}, "k_model must be an integer, got True"),
        ({"m_markov": 4.5}, "m_markov must be an integer, got 4.5"),
        ({"n_samples": 1666.5}, "n_samples must be an integer, got 1666.5"),
        ({"true_tau": "1e-3"}, "true_tau must be a number, got '1e-3'"),
        ({"noise_var": None}, "noise_var must be a number, got None"),
        ({"tau_max": False}, "tau_max must be a number, got False"),
    ])
    def test_config_types_checked(self, bad, message):
        cfg = json.loads((INPUTS / "montecarlo.json").read_text())
        cfg["design"] = json.loads((INPUTS / "design72_ref.json").read_text())
        with pytest.raises(ValueError, match=re.escape(message)):
            BenchmarkConfig.from_dict({**cfg, **bad})

    @pytest.mark.parametrize("bad, flags, message", [
        ({"k_model": 6.5}, ["--replicates", "2"], "k_model must be an integer, got 6.5"),
        ({"seed": 1.5}, ["--replicates", "2"], "seed must be an integer, got 1.5"),
        ({"seed": True}, ["--replicates", "2"], "seed must be an integer, got True"),
        ({"seed": "x"}, ["--replicates", "2"], "seed must be an integer, got 'x'"),
        ({"replicates": 2.5}, [], "replicates must be an integer, got 2.5"),
        ({"replicates": "2"}, [], "replicates must be an integer, got '2'"),
        ({"methods": ["bogus"]}, ["--replicates", "2"], "unknown method 'bogus'"),
        ({"noise_var": float("inf")}, ["--replicates", "2"],
         "noise_var must be finite and nonnegative, got inf"),
    ], ids=["k_model", "seed=1.5", "seed=true", "seed=str", "replicates=2.5", "replicates=str",
            "methods=bogus", "noise_var=inf"])
    def test_wrong_config_value_exit_1_without_report(
        self, bench_config, tmp_path, capsys, bad, flags, message
    ):
        # seed, replicates and methods, read outside BenchmarkConfig, were
        # once refused without the file
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps({**json.loads(bench_config.read_text()), **bad}))
        out = tmp_path / "mc"
        rc = main(["benchmark", "--config", str(cfg_path), *flags, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {cfg_path}: {message}")
        assert not out.exists()

    def test_committed_config_keys_known(self):
        cfg = json.loads((INPUTS / "montecarlo.json").read_text())
        cfg["design"] = json.loads((INPUTS / "design72_ref.json").read_text())
        assert BenchmarkConfig.from_dict({**cfg, "replicates": 3, "methods": "all"}).k_model == 12

    def test_report_and_histogram(self, bench_config, tmp_path):
        out = tmp_path / "mc"
        rc = main([
            "benchmark", "--config", str(bench_config),
            "--replicates", "12", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        _validate(report, "benchmark_report.json")
        assert list(report) == [
            "config", "config_hash", "seed", "replicates", "per_method", "histogram", "crlb",
            "runtime_s",
        ]
        assert list(report["config"]["benchmark"]) == [
            "design", "true_tau", "noise_var", "k_model", "m_markov", "tau_max", "n_samples",
        ]
        for stats in report["per_method"].values():
            assert list(stats) == ["bias", "var", "mse_raw", "mse_normalized", "failures", "n_used"]
        for hist in report["histogram"].values():
            assert list(hist) == ["edges", "counts"]
        assert report["replicates"] == 12
        hist = (out / "histogram.csv").read_text().splitlines()
        assert hist[0] == "method,bin_left,bin_right,count"
        counts = sum(int(line.split(",")[3]) for line in hist[1:] if line.startswith("proposed"))
        assert counts == 12

    def test_workers_identical_modulo_runtime(self, bench_config, tmp_path):
        reports = []
        for workers, name in [("1", "w1"), ("2", "w2"), ("4", "w4")]:
            out = tmp_path / name
            main([
                "benchmark", "--config", str(bench_config), "--replicates", "10",
                "--workers", workers, "--out", str(out),
            ])
            payload = json.loads((out / "report.json").read_text())
            # wall-clock time is the only legitimate delta
            payload.pop("runtime_s")
            reports.append(json.dumps(payload, sort_keys=True))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_workers_exit_1_without_report(self, bench_config, tmp_path, capsys, workers):
        out = tmp_path / "mc"
        rc = main([
            "benchmark", "--config", str(bench_config), "--replicates", "4",
            "--workers", workers, "--out", str(out),
        ])
        assert rc == 1
        assert "workers" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("true_tau", [float("nan"), float("inf")])
    def test_non_finite_delay_exit_1_without_report(self, bench_config, tmp_path, capsys, true_tau):
        # once ran every replicate before failing on a misleading error
        cfg = json.loads(bench_config.read_text())
        cfg["true_tau"] = true_tau
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "mc"
        rc = main(["benchmark", "--config", str(path), "--replicates", "4", "--out", str(out)])
        assert rc == 1
        assert f"got {true_tau}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_nonpositive_n_samples_exit_1_without_report(
        self, bench_config, tmp_path, capsys, n_samples
    ):
        cfg = json.loads(bench_config.read_text())
        cfg["n_samples"] = n_samples
        path = tmp_path / "n.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "mc"
        rc = main(["benchmark", "--config", str(path), "--replicates", "4", "--out", str(out)])
        assert rc == 1
        assert "n_samples" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_seed_exit_1(self, design_file, tmp_path):
        cfg = {
            "design_path": str(design_file),
            "true_tau": 0.00133,
            "noise_var": 0.01,
            "k_model": 6,
        }
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(cfg))
        assert main(["benchmark", "--config", str(path), "--replicates", "4",
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("methods", [[], ["proposed", "nope"]])
    def test_config_methods_checked_like_flag(self, bench_config, tmp_path, methods):
        cfg = json.loads(bench_config.read_text())
        cfg["methods"] = methods
        path = tmp_path / "methods.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = main(["benchmark", "--config", str(path), "--replicates", "2", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_zero_noise_zero_variance(self, bench_config, tmp_path):
        out = tmp_path / "clean"
        cfg = json.loads(bench_config.read_text())
        cfg["noise_var"] = 0.0
        path = tmp_path / "clean.json"
        path.write_text(json.dumps(cfg))
        main(["benchmark", "--config", str(path), "--replicates", "2", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        for stats in report["per_method"].values():
            assert stats["var"] == 0.0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_table_build_failure_counted_per_method(self, singular_design, tmp_path, workers):
        # once exited 1 with no report, although ml and freq_interp ran
        cfg = {
            "design_path": str(singular_design), "true_tau": 0.00133, "noise_var": 0.01,
            "k_model": 12, "tau_max": 0.01, "seed": 0,
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "mc"
        rc = main([
            "benchmark", "--config", str(path), "--replicates", "4", "--workers", workers,
            "--out", str(out),
        ])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        _validate(report, "benchmark_report.json")
        failures = {m: s["failures"] for m, s in report["per_method"].items()}
        assert failures == {"proposed": 4, "ml": 0, "lag_spline": 4, "freq_interp": 0}
        assert report["per_method"]["ml"]["n_used"] == 4

    def test_total_failure_exit_3_and_null_stats(self, bench_config, tmp_path):
        # a delay beyond the horizon zeroes the data, so every replicate of
        # the correlation method fails; stats become null in the report
        out = tmp_path / "fail"
        cfg = json.loads(bench_config.read_text())
        cfg["true_tau"] = 2.0
        cfg["noise_var"] = 0.0
        cfg["methods"] = ["freq_interp"]
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(cfg))
        rc = main(["benchmark", "--config", str(path), "--replicates", "2", "--out", str(out)])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        _validate(report, "benchmark_report.json")
        assert report["per_method"]["freq_interp"]["failures"] == 2
        assert report["per_method"]["freq_interp"]["bias"] is None

    @pytest.mark.parametrize("n_samples, k_model, method", OUT_OF_RECORD)
    def test_delay_beyond_record_counted_as_failure(self, tmp_path, n_samples, k_model, method):
        # the N = 500 configuration once exited 0 with a proposed bias of
        # +0.350 s and no failures
        cfg = {
            "design_path": str(INPUTS / "design72_ref.json"), "true_tau": 0.00133,
            "noise_var": 0.01, "k_model": k_model, "n_samples": n_samples, "tau_max": 0.01,
            "methods": [method, "ml"], "seed": 0,
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "mc"
        rc = main(["benchmark", "--config", str(path), "--replicates", "20", "--out", str(out)])
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["per_method"][method]["failures"] == 20
        assert report["per_method"][method]["bias"] is None
        assert report["per_method"]["ml"]["failures"] == 0


class TestBiasPredictCommand:
    def test_prediction_schema(self, design_file, tmp_path):
        out = tmp_path / "bias.json"
        rc = main([
            "bias-predict", "--design", str(design_file), "--tau-check", "3e-4",
            "--noise-var", "1e-4", "--mc-samples", "2000", "--seed", "5",
            "--k-model", "6", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        _validate(payload, "bias_prediction.json")
        assert list(payload) == [
            "predicted_bias", "mc_samples", "eps1_mean", "eps2_mean", "seed", "config_hash",
            "tau_check", "noise_var",
        ]

    def test_model_order_below_input_order_exit_1(self, tmp_path, capsys):
        # K = 2 < I = 3 once printed a finite prediction; estimate refuses it
        design_path = INPUTS / "design72_ref.json"
        out = tmp_path / "b.json"
        rc = main([
            "bias-predict", "--design", str(design_path), "--tau-check", "1.33e-3",
            "--noise-var", "0.01", "--k-model", "2", "--out", str(out),
        ])
        assert rc == 1
        assert not out.exists()
        design = InputDesign.from_dict(json.loads(design_path.read_text()))
        with pytest.raises(ValueError, match="model order must cover") as exc:
            predict_bias_tau(design, 0.01, 1.33e-3, 2)
        assert capsys.readouterr().err == f"error: ValueError: {exc.value}\n"

    def test_scaled_design_predicts(self, tmp_path, capsys):
        # the §7.2 design scaled by 1e13 once exited 1 with
        # "u_0 = 1.000e-13 is below 1e-12", the u_0 of its reciprocal series
        design = json.loads((INPUTS / "design72_ref.json").read_text())
        design.update(u=[1e13 * x for x in design["u"]], eta=1e26 * design["eta"])
        design_path = tmp_path / "scaled.json"
        design_path.write_text(json.dumps(design))
        out = tmp_path / "b.json"
        rc = main([
            "bias-predict", "--design", str(design_path), "--tau-check", "1.33e-3",
            "--noise-var", "0.01", "--out", str(out),
        ])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert math.isfinite(json.loads(out.read_text())["predicted_bias"])

    def test_too_few_mc_samples_exit_1(self, design_file, tmp_path, capsys):
        out = tmp_path / "b.json"
        rc = main([
            "bias-predict", "--design", str(design_file), "--tau-check", "3e-4",
            "--noise-var", "1e-4", "--mc-samples", "999", "--out", str(out),
        ])
        assert rc == 1
        assert "need at least 1000 Monte-Carlo samples" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_exit_2(self, design_file, tmp_path):
        rc = main([
            "bias-predict", "--design", str(design_file), "--tau-check", "3.0",
            "--noise-var", "1e-4", "--mc-samples", "2000",
            "--out", str(tmp_path / "b.json"),
        ])
        assert rc == 2

    # inf once exited 0 after a RuntimeWarning and wrote a null predicted_bias
    @pytest.mark.parametrize("noise_var", ["-0.01", "nan", "inf"])
    def test_negative_noise_variance_exit_1(self, design_file, tmp_path, capsys, noise_var):
        out = tmp_path / "b.json"
        rc = main([
            "bias-predict", "--design", str(design_file), "--tau-check", "3e-4",
            "--noise-var", noise_var, "--mc-samples", "2000", "--out", str(out),
        ])
        assert rc == 1
        assert "ValueError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau_check", ["nan", "inf", "-1"])
    def test_non_finite_delay_exit_1(self, design_file, tmp_path, capsys, tau_check):
        # nan and inf once wrote "predicted_bias": null against its schema;
        # -1 once named kappa = 2 p tau_check, an internal quantity
        out = tmp_path / "b.json"
        rc = main([
            "bias-predict", "--design", str(design_file), "--tau-check", tau_check,
            "--noise-var", "1e-4", "--mc-samples", "2000", "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ValueError: tau_check must be finite and nonnegative" in err
        assert not out.exists()

    def test_fixed_seed_reproducible(self, design_file, tmp_path):
        payloads = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main([
                "bias-predict", "--design", str(design_file), "--tau-check", "3e-4",
                "--noise-var", "1e-4", "--mc-samples", "2000", "--seed", "5",
                "--out", str(out),
            ])
            payloads.append(out.read_text())
        assert payloads[0] == payloads[1]


class TestDispatch:
    def test_parser_built_once(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit):
            main(["bias-predict", "--help"])
        assert "--mc-samples" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["design", "--config", "c.json", "--out", "o.json"],
        ["simulate", "--design", "d.json", "--tau", "1e-3", "--out", "o"],
        ["estimate", "--dataset", "x.csv", "--design", "d.json", "--out", "o.json"],
        ["benchmark", "--config", "c.json", "--out", "o"],
        ["bias-predict", "--design", "d.json", "--tau-check", "1e-3", "--noise-var", "0.01",
         "--out", "o.json"],
        ["basis-check", "--p", "20", "--num-funcs", "3", "--delta", "1e-3", "--n-samples", "10"],
    ], ids=lambda argv: argv[0])
    def test_patched_command_runs(self, monkeypatch, argv):
        # the parser is cached; the command is looked up when it runs
        cli.build_parser()
        seen = []
        name = "cmd_" + argv[0].replace("-", "_")
        monkeypatch.setattr(cli, name, lambda args: seen.append(args.command) or 7)
        assert main(argv) == 7
        assert seen == [argv[0]]


class TestBasisCheck:
    def test_healthy_configuration(self, capsys):
        rc = main([
            "basis-check", "--p", "20", "--num-funcs", "7",
            "--delta", "1e-4", "--n-samples", "5001",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cond(Phi)" in out
        assert "FAIL" not in out

    def test_flagged_configuration_exit_1(self, capsys):
        # the flag is the only signal: no warning, the FAIL line and exit 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([
                "basis-check", "--p", "20", "--num-funcs", "26",
                "--delta", "1e-4", "--n-samples", "5001",
            ])
        assert rc == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[1].endswith("(flagged)")
        assert lines[2] == "  [FAIL] condition number below threshold"
        assert captured.err == ""

    def test_prints_only_what_depends_on_the_arguments(self, capsys):
        # no self-test of the recurrence on fixed inputs, no check of row 0
        # (sqrt(2p) by the closed form itself)
        rc = main([
            "basis-check", "--p", "20", "--num-funcs", "7",
            "--delta", "1e-4", "--n-samples", "5001",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0] == "  [INFO] Gram deviation from identity: 3.297e-01"
        assert lines[1].startswith("  [INFO] cond(Phi) = ")
        assert not lines[1].endswith("(flagged)")
        assert lines[2] == "  [PASS] condition number below threshold"

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(0.5, 500.0),
        k_model=st.integers(3, 24),
        delta=st.floats(1e-5, 1e-2),
        extra=st.integers(0, 2000),
    )
    @example(p=2.0, k_model=12, delta=3e-4, extra=1654)  # cond(Phi) 1.8e15
    @example(p=37.3, k_model=12, delta=3e-4, extra=1654)
    def test_exit_1_exactly_when_estimators_refuse(self, p, k_model, delta, extra):
        # one threshold: basis-check fails the basis that proposed's tables
        # and the Markov error model (markov_mse, design) refuse
        n = k_model + 1 + extra
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["basis-check", "--p", repr(p), "--num-funcs", str(k_model + 1),
                       "--delta", repr(delta), "--n-samples", str(n)])
        design = InputDesign(p=p, u=np.array([0.8, 0.4, -0.4, -0.8]), energy_bound=2.0,
                             horizon=(n - 1) * delta, delta=delta, tau_guess=delta)
        tables = estimators.build_replicate_tables(
            ("proposed",), design, delta=delta, n_samples=n, k_model=k_model,
            tau_max=(n - 1) * delta,
        )
        try:
            MarkovErrorModel(p, k_model, delta, n, delta, 3)
            model_refused = False
        except IllConditionedError:
            model_refused = True
        assert rc in (0, 1)
        table_refused = isinstance(tables.errors.get("proposed"), IllConditionedError)
        assert (rc == 1) == table_refused == model_refused

    @pytest.mark.parametrize("argv", [
        ["--p", "1e300", "--num-funcs", "3", "--delta", "1e-3", "--n-samples", "100"],
        ["--p", "1e27", "--num-funcs", "13", "--delta", "3e-4", "--n-samples", "1667"],
    ], ids=["p=1e300", "p=1e27"])
    def test_huge_p_flagged_exit_1(self, capsys, argv):
        # e^{-pt} underflows past row 0, where L_j(2pt) overflows: these
        # once printed two RuntimeWarnings and ended in "SVD did not converge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["basis-check", *argv])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].endswith("(flagged)")
        assert captured.err == ""

    @pytest.mark.parametrize("flag, message", [
        # an infinite delta once ended in "SVD did not converge", a NaN one
        # printed FAIL lines for a basis full of NaN
        (["--delta", "inf"], "delta must be finite and positive"),
        (["--delta", "nan"], "delta must be finite and positive"),
        # an infinite p ended the same way, after two numpy RuntimeWarnings
        (["--p", "inf"], "p must be finite and positive"),
        (["--p", "1e308"], "p = 1e+308 is too large: 2p overflows"),
    ], ids=["delta=inf", "delta=nan", "p=inf", "p=1e308"])
    def test_unusable_argument_exit_1(self, capsys, flag, message):
        rc = main([
            "basis-check", "--p", "20", "--num-funcs", "26", "--delta", "1e-4",
            "--n-samples", "5001", *flag,
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"ValueError: {message}" in captured.err
        assert captured.out == ""
