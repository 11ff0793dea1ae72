"""End-to-end CLI tests: subcommands, exit codes, schemas, reproducibility."""

import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from lagdelay.cli import main


def _schema(name):
    with resources.files("lagdelay.schemas").joinpath(name).open() as f:
        return json.load(f)


def _validate(payload, schema_name):
    jsonschema.validate(payload, _schema(schema_name))


@pytest.fixture(scope="module")
def design_file(tmp_path_factory):
    """A small but real design run used by the downstream commands."""
    root = tmp_path_factory.mktemp("designs")
    cfg = {
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
    cfg_path = root / "problem.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = root / "design.json"
    assert main(["design", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    return out_path


class TestDesignCommand:
    def test_output_schema_and_hash(self, design_file):
        payload = json.loads(design_file.read_text())
        _validate(payload, "design_output.json")
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


class TestSimulateCommand:
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

    def test_nan_noise_variance_exit_1(self, design_file, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--design", str(design_file), "--tau", "1e-3",
            "--noise-var", "nan", "--seed", "1", "--out", str(out),
        ])
        assert rc == 1
        assert "noise variance" in capsys.readouterr().err
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


class TestEstimateCommand:
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
    def test_report_and_histogram(self, bench_config, tmp_path):
        out = tmp_path / "mc"
        rc = main([
            "benchmark", "--config", str(bench_config),
            "--replicates", "12", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        _validate(report, "benchmark_report.json")
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

    def test_degenerate_exit_2(self, design_file, tmp_path):
        rc = main([
            "bias-predict", "--design", str(design_file), "--tau-check", "3.0",
            "--noise-var", "1e-4", "--mc-samples", "2000",
            "--out", str(tmp_path / "b.json"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("noise_var", ["-0.01", "nan"])
    def test_negative_noise_variance_exit_1(self, design_file, tmp_path, capsys, noise_var):
        out = tmp_path / "b.json"
        rc = main([
            "bias-predict", "--design", str(design_file), "--tau-check", "3e-4",
            "--noise-var", noise_var, "--mc-samples", "2000", "--out", str(out),
        ])
        assert rc == 1
        assert "ValueError" in capsys.readouterr().err
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

    def test_flagged_configuration_exit_1(self):
        with pytest.warns(Warning):
            rc = main([
                "basis-check", "--p", "20", "--num-funcs", "26",
                "--delta", "1e-4", "--n-samples", "5001",
            ])
        assert rc == 1
