"""Self-test of the benchmark's tracer.

    python3 -m pytest lagbench/selftest.py

Tracing must not change what the program computes: for the same seed the
CLI outputs are byte-identical with the tracer on and off (the wall-clock
``runtime_s`` of report.json aside), and no span's children may cover more
than the span itself. The file is not named ``test_*.py`` so that the
repository's test suite does not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import lagdelay.basis  # noqa: E402
import lagdelay.cli  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import INPUTS, DesignWorkload, MonteCarloWorkload, WalkthroughWorkload  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    # the committed configs name their files relative to the repository root
    monkeypatch.chdir(ROOT)


def _traced_and_untraced(run):
    """Run ``run()`` untraced, then traced inside one operation; returns
    (untraced result, traced result, spans)."""
    plain = run()
    with Tracer() as tracer:
        with tracer.operation(1):
            traced = run()
    return plain, traced, tracer.spans


def _check_span_tree(spans):
    assert spans and all(s is not None for s in spans)
    for s, (own, covered) in zip(spans, self_times(spans)):
        assert covered <= (s.end - s.start) + 1e-9, s
        assert own >= -1e-9, s
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end, s


def test_design_output_identical(tmp_path):
    w = DesignWorkload(0, tmp_path)
    out = tmp_path / "design.json"

    def run():
        rc, exc = w.cli(["design", "--config", str(INPUTS / "design_warmup_problem.json"),
                         "--out", str(out)])
        assert rc == 0, exc
        return out.read_bytes()

    plain, traced, spans = _traced_and_untraced(run)
    w.close()
    assert plain == traced
    _check_span_tree(spans)
    names = {s.name for s in spans}
    assert {"cli.cmd_design", "design.optimize_design", "analysis.markov_mse",
            "basis.build_phi", "delay_ops.build_toeplitz"} <= names
    # build_phi is reached from design (per-p contexts) and from analysis
    # (markov_mse): the wrapper must sit in both namespaces
    parents = {spans[s.parent].name for s in spans if s.name == "basis.build_phi"}
    assert parents == {"design.optimize_design", "analysis.markov_mse"}
    m = layer_metrics(spans, 1)
    assert m["design.p_contexts"]["value"] == 2
    assert m["design.objective_evals"]["value"] > 0


def test_benchmark_report_identical(tmp_path):
    w = MonteCarloWorkload(7, tmp_path)
    out = tmp_path / "mc"

    def run():
        rc, exc = w._benchmark(8, out)
        assert rc == 0, exc
        report = json.loads((out / "report.json").read_text())
        report.pop("runtime_s")
        return json.dumps(report, sort_keys=True), (out / "histogram.csv").read_bytes()

    plain, traced, spans = _traced_and_untraced(run)
    w.close()
    assert plain == traced
    _check_span_tree(spans)
    m = layer_metrics(spans, 1)
    assert m["estimators.estimate_delay_ml.calls"]["value"] == 8
    assert m["simulate.add_noise.calls"]["value"] == 8
    assert m["baseline.proposed_cached_ms"]["value"] > 0


def test_walkthrough_outputs_identical(tmp_path):
    w = WalkthroughWorkload(3, tmp_path)
    w.load()
    out = tmp_path / "walk"

    def run():
        calls = w._dataset(float(w.taus[0]), int(w.noise_seeds[0]), out)
        assert all(rc == 0 for rc, _ in calls), calls
        assert w.check(0, float(w.taus[0]), calls, out) == (0, [])
        return [(out / n).read_bytes() for n in ("dataset.csv", "estimate.json", "bias.json")]

    plain, traced, spans = _traced_and_untraced(run)
    w.close()
    assert plain == traced
    _check_span_tree(spans)
    m = layer_metrics(spans, 1)
    assert m["estimators.ml.grid_points"]["value"] > 0
    assert m["baseline.predict_bias_tau_1e5_ms"]["value"] > 0


def test_uninstall_restores_functions():
    orig = lagdelay.basis.build_phi
    with Tracer():
        assert lagdelay.cli.build_phi is not orig
    assert lagdelay.basis.build_phi is orig and lagdelay.cli.build_phi is orig


def test_self_time_subtracts_children():
    spans = [
        Span("op", 0.0, 10.0, None, 1, None, None),
        Span("a", 1.0, 4.0, 0, 1, None, None),
        Span("b", 2.0, 3.0, 1, 1, None, None),
        Span("c", 5.0, 9.0, 0, 1, "DegenerateBError", None),
    ]
    assert self_times(spans) == [(3.0, 7.0), (2.0, 1.0), (1.0, 0.0), (4.0, 0.0)]
