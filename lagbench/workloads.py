"""The benchmark's workloads.

Each workload drives the package only through ``lagdelay.cli.main`` and
receives only committed input files or files the benchmark generates from
its seed. One *pass* is the workload's fixed amount of work; the timed phase
repeats passes. Only the CLI calls are timed: output checks run between
them, outside the clock and outside any traced operation.

Failure accounting: a pass *attempts* every CLI call and every estimator
run inside it. A CLI call *fails* when it raises, exits nonzero or its
output fails a check; an estimator run fails when ``report.json`` counts it
under ``failures`` or an estimate report lists it under ``errors``.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

import lagdelay
from lagdelay.analysis import markov_mse
from lagdelay.cli import main as cli_main
from lagdelay.simulate import InputDesign

INPUTS = Path(__file__).resolve().parent / "inputs"
SCHEMAS = Path(lagdelay.__file__).resolve().parent / "schemas"
METHODS = ("proposed", "ml", "lag_spline", "freq_interp")


def _load_json(path):
    with open(path) as f:
        return json.load(f)


def _rel(path) -> str:
    """Path as passed to the CLI: relative to the working directory, so that
    outputs embedding it do not depend on where the checkout lives."""
    return os.path.relpath(path)


def _size(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _schema_errors(payload, schema, what) -> list[str]:
    return [f"{what}: {e.message}" for e in jsonschema.Draft7Validator(schema).iter_errors(payload)]


@dataclass
class PassResult:
    wall: float                 # seconds inside timed CLI calls
    latencies: list[float]      # seconds per operation
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0       # size of every file the CLI calls wrote
    dataset_bytes: int = 0      # size of the simulated datasets (CSV and sidecar)


class Workload:
    name = ""
    workers = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._devnull = open(os.devnull, "w")
        self._next_op = 0

    def close(self) -> None:
        self._devnull.close()

    def load(self) -> None:
        """Read or generate the workload inputs."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def cli(self, argv: list[str]) -> tuple[int | None, str | None]:
        """Run one CLI command; returns (exit code, error) with code None when it raised."""
        try:
            with contextlib.redirect_stdout(self._devnull):
                return cli_main(argv), None
        except Exception:  # the benchmark must count the failure and go on
            return None, traceback.format_exc(limit=3)

    def operation(self, tracer):
        self._next_op += 1
        return tracer.operation(self._next_op) if tracer else contextlib.nullcontext()


class DesignWorkload(Workload):
    """``lagdelay design`` on the §7.2 problem and the §7.1 fine-sampling
    problem at delta = 1e-4. Deterministic: the seed is not used."""

    name = "design"
    PROBLEMS = ("design72", "design71")
    # The refinement stops at a relative bracket of 1e-3 on p and 1e-4 on
    # the coefficients, so a different but equally good optimizer may land
    # anywhere inside those brackets; twice the bracket is the tolerance.
    P_RTOL = 2e-3
    U_ATOL = 2e-4
    OBJECTIVE_RTOL = 1e-12

    def load(self):
        self.problems = {n: _load_json(INPUTS / f"{n}_problem.json") for n in self.PROBLEMS}
        self.refs = {n: _load_json(INPUTS / f"{n}_ref.json") for n in self.PROBLEMS}

    def warm_up(self):
        self.cli(["design", "--config", _rel(INPUTS / "design_warmup_problem.json"),
                  "--out", _rel(self.workdir / "warmup.json")])

    def run_pass(self, tracer=None):
        calls = {}
        with self.operation(tracer):
            start = time.perf_counter()
            for n in self.PROBLEMS:
                out = self.workdir / f"{n}.json"
                calls[n] = (out, *self.cli(["design", "--config", _rel(INPUTS / f"{n}_problem.json"),
                                            "--out", _rel(out)]))
            wall = time.perf_counter() - start
        res = PassResult(wall=wall, latencies=[wall], attempted=len(calls))
        for n, (out, rc, exc) in calls.items():
            problems = [f"{n}: exit {rc} {exc or ''}"] if rc != 0 else self.check(n, out)
            res.failed += bool(problems)
            res.problems += problems
        res.output_bytes = _size(*(out for out, _, _ in calls.values()))
        return res

    def check(self, n, out) -> list[str]:
        problem, ref = self.problems[n], self.refs[n]
        got = _load_json(out)
        problems = []
        if not got["constraints"]["ok"]:
            problems.append(f"{n}: constraints violated {got['constraints']['violations']}")
        recomputed = markov_mse(
            InputDesign.from_dict(got), int(problem["k_model"]), float(problem["noise_var"]),
            float(problem["tau_guess"]), n_samples=int(problem["n_samples"]),
        ).mse
        if abs(got["objective"] - recomputed) > self.OBJECTIVE_RTOL * abs(recomputed):
            problems.append(f"{n}: objective {got['objective']!r} != markov_mse {recomputed!r}")
        if abs(got["p"] - ref["p"]) > self.P_RTOL * ref["p"]:
            problems.append(f"{n}: p {got['p']!r} differs from reference {ref['p']!r}")
        u_dev = np.max(np.abs(np.subtract(got["u"], ref["u"]))) if len(got["u"]) == len(ref["u"]) else np.inf
        if not u_dev <= self.U_ATOL * np.sqrt(ref["eta"]):
            problems.append(f"{n}: u differs from reference by {u_dev:.3e}")
        return problems


class MonteCarloWorkload(Workload):
    """``lagdelay benchmark --workers 1`` on the §7.2 config, all four
    methods, with the benchmark seed as the Monte-Carlo seed."""

    name = "montecarlo"
    # the replicate count of acceptance criterion 7, whose ML variance band
    # is checked: at R=1000 the band is about 3.3 standard errors wide
    REPLICATES = 1000
    ML_BAND = 0.15

    def load(self):
        self.schema = _load_json(SCHEMAS / "benchmark_report.json")

    def _benchmark(self, replicates, out):
        return self.cli(["benchmark", "--config", _rel(INPUTS / "montecarlo.json"),
                         "--replicates", str(replicates), "--workers", str(self.workers),
                         "--seed", str(self.seed), "--out", _rel(out)])

    def warm_up(self):
        self._benchmark(2, self.workdir / "warmup")

    def run_pass(self, tracer=None):
        out = self.workdir / "mc"
        report_path = out / "report.json"
        if report_path.exists():
            report_path.unlink()
        with self.operation(tracer):
            start = time.perf_counter()
            rc, exc = self._benchmark(self.REPLICATES, out)
            wall = time.perf_counter() - start
        res = PassResult(wall=wall, latencies=[wall], attempted=1 + self.REPLICATES * len(METHODS))
        if not report_path.exists():
            res.failed = res.attempted
            res.problems.append(f"benchmark: exit {rc}, no report {exc or ''}")
            return res
        report = _load_json(report_path)
        problems = [] if rc == 0 else [f"benchmark: exit {rc} {exc or ''}"]
        problems += _schema_errors(report, self.schema, "report.json")
        per = report.get("per_method", {})
        res.failed = sum(int(per.get(m, {}).get("failures", self.REPLICATES)) for m in METHODS)
        try:
            ratio = per["ml"]["var"] / report["crlb"]
        except (KeyError, TypeError):
            ratio = float("nan")
        if not abs(ratio - 1.0) <= self.ML_BAND:
            problems.append(f"ML variance / CRLB = {ratio:.4f} outside 1 +- {self.ML_BAND}")
        res.failed += bool(problems)
        res.problems += problems
        res.output_bytes = _size(report_path, out / "histogram.csv")
        return res


class WalkthroughWorkload(Workload):
    """The README flow for D datasets: simulate, estimate with every method,
    bias-predict at 1e5 draws, all on the committed §7.2 design."""

    name = "walkthrough"
    # 120 operations leave 12 samples beyond p90 in every pass
    DATASETS = 120
    TAU_RANGE = (0.5e-3, 5e-3)
    NOISE_VAR = 0.01
    ML_SIGMAS = 6.0
    DESIGN = INPUTS / "design72_ref.json"
    # per dataset: simulate, estimate, bias-predict, four methods and the CRLB
    ATTEMPTS = 3 + len(METHODS) + 1

    def load(self):
        rng = np.random.default_rng(self.seed)
        self.taus = rng.uniform(*self.TAU_RANGE, self.DATASETS)
        self.noise_seeds = rng.integers(0, 2**31 - 1, self.DATASETS)
        self.estimate_schema = _load_json(SCHEMAS / "estimate_report.json")
        self.bias_schema = _load_json(SCHEMAS / "bias_prediction.json")

    def _dataset(self, tau, seed, out):
        design = _rel(self.DESIGN)
        sim = self.cli(["simulate", "--design", design, "--tau", repr(tau),
                        "--noise-var", repr(self.NOISE_VAR), "--seed", str(seed),
                        "--out", _rel(out)])
        if sim[0] != 0:
            return sim, None, None
        est = self.cli(["estimate", "--dataset", _rel(out / "dataset.csv"), "--design", design,
                        "--methods", "all", "--k-model", "12", "--tau-max", "0.01",
                        "--out", _rel(out / "estimate.json")])
        bias = self.cli(["bias-predict", "--design", design, "--tau-check", repr(tau),
                         "--noise-var", repr(self.NOISE_VAR), "--mc-samples", "100000",
                         "--seed", str(seed), "--out", _rel(out / "bias.json")])
        return sim, est, bias

    def warm_up(self):
        self._dataset(1.33e-3, 0, self.workdir / "warmup")

    def run_pass(self, tracer=None):
        res = PassResult(wall=0.0, latencies=[])
        out = self.workdir / "walk"
        files = [out / n for n in ("dataset.csv", "dataset.json", "estimate.json", "bias.json")]
        for i, (tau, seed) in enumerate(zip(self.taus.tolist(), self.noise_seeds.tolist())):
            for f in files:
                if f.exists():
                    f.unlink()
            with self.operation(tracer):
                start = time.perf_counter()
                calls = self._dataset(tau, seed, out)
                latency = time.perf_counter() - start
            res.latencies.append(latency)
            res.wall += latency
            res.attempted += self.ATTEMPTS
            failed, problems = self.check(i, tau, calls, out)
            res.failed += failed
            res.problems += problems
            res.dataset_bytes += _size(*files[:2])
            res.output_bytes += _size(*files)
        return res

    def check(self, i, tau, calls, out) -> tuple[int, list[str]]:
        sim, est, bias = calls
        if sim[0] != 0:
            return self.ATTEMPTS, [f"dataset {i}: simulate exit {sim[0]} {sim[1] or ''}"]
        failed, problems = 0, []
        if est[0] != 0 or not (out / "estimate.json").exists():
            failed += 1 + len(METHODS) + 1
            problems.append(f"dataset {i}: estimate exit {est[0]} {est[1] or ''}")
        else:
            report = _load_json(out / "estimate.json")
            errors = report.get("errors", {})
            failed += len(errors)
            problems += [f"dataset {i}: {m} {msg}" for m, msg in errors.items()]
            bad = _schema_errors(report, self.estimate_schema, f"dataset {i} estimate")
            ml = report.get("estimates", {}).get("ml")
            crlb = report.get("crlb") or {}
            if ml is None or "bound" not in crlb:
                bad.append(f"dataset {i}: no ML estimate or CRLB to check")
            elif not abs(ml["tau_hat"] - tau) <= self.ML_SIGMAS * np.sqrt(crlb["bound"]):
                bad.append(f"dataset {i}: |tau_ml - tau| = {abs(ml['tau_hat'] - tau):.3e} "
                           f"exceeds {self.ML_SIGMAS:g} sqrt(CRLB)")
            failed += bool(bad)
            problems += bad
        if bias[0] != 0 or not (out / "bias.json").exists():
            failed += 1
            problems.append(f"dataset {i}: bias-predict exit {bias[0]} {bias[1] or ''}")
        else:
            bad = _schema_errors(_load_json(out / "bias.json"), self.bias_schema, f"dataset {i} bias")
            failed += bool(bad)
            problems += bad
        return failed, problems


WORKLOADS = {w.name: w for w in (DesignWorkload, MonteCarloWorkload, WalkthroughWorkload)}
