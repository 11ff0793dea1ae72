"""What each CLI command imports: no command loads scipy.

The commands run one after another in one fresh interpreter, and the loaded
modules are read after each.  Modules only accumulate, so a module absent
after a later step was absent after every earlier one.  scipy is a test
dependency only: the ``lag_spline`` and ``freq_interp`` tables and FFTs are
numpy's.  A process pool loads ``concurrent.futures.process`` and
``multiprocessing`` only for more than one worker.  The same commands run
once more with scipy blocked, so that a stray import fails loudly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

STEPS = r"""
import contextlib, io, json, sys

def loaded():
    return sorted(
        m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent", "multiprocessing")
    )

out, after = sys.argv[1], {}
import lagdelay.cli
after["import"] = loaded()
main = lagdelay.cli.main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--help"])
    except SystemExit:
        pass
    after["--help"] = loaded()
    inputs = "lagbench/inputs/"
    commands = {
        "design": ["design", "--config", inputs + "design72_problem.json",
                   "--out", out + "/design.json"],
        "simulate": ["simulate", "--design", inputs + "design72_ref.json", "--tau", "1.33e-3",
                     "--noise-var", "0.01", "--seed", "1", "--out", out + "/sim"],
        "bias-predict": ["bias-predict", "--design", inputs + "design72_ref.json",
                         "--tau-check", "1.33e-3", "--noise-var", "0.01",
                         "--mc-samples", "10000", "--out", out + "/bias.json"],
        "estimate": ["estimate", "--dataset", out + "/sim/dataset.csv",
                     "--design", inputs + "design72_ref.json", "--methods", "proposed,ml",
                     "--k-model", "12", "--tau-max", "0.01", "--out", out + "/est.json"],
        # the defaults: all four methods, the ML scan over the default range
        "estimate all": ["estimate", "--dataset", out + "/sim/dataset.csv",
                         "--design", inputs + "design72_ref.json", "--out", out + "/est4.json"],
        "benchmark proposed,ml": ["benchmark", "--config", inputs + "montecarlo.json",
                                  "--replicates", "4", "--seed", "1", "--workers", "1",
                                  "--methods", "proposed,ml", "--out", out + "/bench2"],
        "benchmark": ["benchmark", "--config", inputs + "montecarlo.json", "--replicates", "4",
                      "--seed", "1", "--workers", "1", "--out", out + "/bench4"],
    }
    for name, argv in commands.items():
        assert main(argv) == 0, name
        after[name] = loaded()
print(json.dumps(after))
"""


def _run_steps(out, prelude=""):
    proc = subprocess.run(
        [sys.executable, "-c", prelude + STEPS, str(out)], cwd=ROOT, env=ENV,
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded_after(tmp_path_factory):
    """Modules of scipy, concurrent and multiprocessing loaded after each step."""
    return _run_steps(tmp_path_factory.mktemp("cold"))


@pytest.mark.parametrize("step", ["import", "--help", "design", "simulate", "bias-predict",
                                  "estimate", "estimate all", "benchmark proposed,ml"])
def test_no_scipy_and_no_process_pool(loaded_after, step):
    assert loaded_after[step] == []


def test_benchmark_with_one_worker_loads_no_optimizer_and_no_pool(loaded_after):
    # all four methods build their tables and run, and none of them loads
    # scipy; one worker starts no pool
    assert loaded_after["benchmark"] == []


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # with None in sys.modules, any import of scipy raises ImportError, which
    # no command catches
    after = _run_steps(tmp_path, 'import sys\nsys.modules["scipy"] = None\n')
    assert list(after) == ["import", "--help", "design", "simulate", "bias-predict", "estimate",
                           "estimate all", "benchmark proposed,ml", "benchmark"]


def test_module_help_imports_no_scipy():
    # the import log of ``python -m lagdelay.cli --help``, one line per module
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "lagdelay.cli", "--help"], cwd=ROOT,
        env=ENV, capture_output=True, text=True, timeout=120, check=True,
    )
    assert "usage: lagdelay" in proc.stdout
    modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "lagdelay.estimators" in modules
    assert not [m for m in modules if m.split(".")[0] in ("scipy", "concurrent")]
