"""The names the benchmark's tracer patches must exist in the package.

``lagbench/tracing.py`` wraps functions by (module, name) and reads
``predict_bias_tau``'s ``mc_samples`` from positional index 5; a rename
or a reordered signature would silently stop those spans or metrics.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "lagbench" / "tracing.py"


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
