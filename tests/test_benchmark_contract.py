"""The names the benchmark's tracer patches must exist in the package.

``lagbench/tracing.py`` wraps functions by (module, name) and reads
``predict_bias_tau``'s ``mc_samples`` from positional index 5; a rename
or a reordered signature would silently stop those spans or metrics.
The tracer's own self-test, which checks that tracing leaves the CLI
outputs unchanged and that spans nest, runs here as well.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "lagbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("lagbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    for module, func, _ in _traced():
        assert callable(getattr(importlib.import_module(f"lagdelay.{module}"), func, None)), (
            f"lagdelay.{module}.{func}"
        )


def test_mc_samples_is_positional_index_5():
    from lagdelay.analysis import predict_bias_tau

    assert list(inspect.signature(predict_bias_tau).parameters)[5] == "mc_samples"


def test_tracer_selftest_passes():
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "lagbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
