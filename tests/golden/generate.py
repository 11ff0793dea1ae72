"""Write the golden CLI outputs that ``tests/test_golden.py`` compares with.

Run from the root of the repository, with the package importable:

    PYTHONPATH=src python tests/golden/generate.py [--out DIR]

Each case runs ``lagdelay`` in-process on committed inputs and writes the
JSON output it produced to ``DIR/<case>.json`` (default: this directory).
Fields that differ from run to run, or that hash a temporary path, are
stored as null; the test skips them.  Regenerate only when a change means
to move an output past the test's bounds, and list the old and new values
in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from lagdelay.cli import main

HERE = Path(__file__).resolve().parent
INPUTS = HERE.parents[1] / "lagbench" / "inputs"
DESIGN72 = str(INPUTS / "design72_ref.json")

# the noisy datasets of design72_ref.json that estimate runs on: (tau, seed)
DATASETS = {"estimate_tau3e-4": (3e-4, 1), "estimate_tau1.33e-3": (1.33e-3, 2),
            "estimate_tau4e-3": (4e-3, 3)}
NOISE_VAR = "0.01"


def _design(problem: str):
    def run(tmp: Path) -> list[list[str]]:
        return [["design", "--config", str(INPUTS / f"{problem}_problem.json"),
                 "--out", str(tmp / "out.json")]]
    return run


def _estimate(tau: float, seed: int):
    def run(tmp: Path) -> list[list[str]]:
        return [
            ["simulate", "--design", DESIGN72, "--tau", repr(tau), "--noise-var", NOISE_VAR,
             "--seed", str(seed), "--out", str(tmp / "sim")],
            ["estimate", "--dataset", str(tmp / "sim" / "dataset.csv"), "--design", DESIGN72,
             "--methods", "all", "--k-model", "12", "--tau-max", "0.01",
             "--out", str(tmp / "out.json")],
        ]
    return run


def _benchmark(tmp: Path) -> list[list[str]]:
    # the committed config names its design relative to the repository root
    cfg = json.loads((INPUTS / "montecarlo.json").read_text())
    cfg["design_path"] = DESIGN72
    (tmp / "montecarlo.json").write_text(json.dumps(cfg))
    return [["benchmark", "--config", str(tmp / "montecarlo.json"), "--replicates", "70",
             "--seed", "1", "--out", str(tmp / "mc")]]


def _bias(k_model: int):
    def run(tmp: Path) -> list[list[str]]:
        return [["bias-predict", "--design", DESIGN72, "--tau-check", "1.33e-3",
                 "--noise-var", NOISE_VAR, "--k-model", str(k_model), "--seed", "0",
                 "--out", str(tmp / "out.json")]]
    return run


CASES = {
    "design72": _design("design72"),
    "design71": _design("design71"),
    "design_warmup": _design("design_warmup"),
    **{name: _estimate(*args) for name, args in DATASETS.items()},
    "benchmark": _benchmark,
    "bias_k3": _bias(3),
    "bias_k12": _bias(12),
}


def run_case(name: str) -> dict:
    """The output of one case, with its run-dependent fields set to null."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for argv in CASES[name](tmp):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            if rc != 0:
                raise RuntimeError(f"{name}: lagdelay {argv[0]} exited {rc}")
        out = tmp / "mc" / "report.json" if name == "benchmark" else tmp / "out.json"
        payload = json.loads(out.read_text())
    if name == "benchmark":
        payload["runtime_s"] = None
    if name.startswith("estimate"):
        payload["config_hash"] = None  # hashes the dataset path
    return payload


def generate(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=HERE)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        with open(args.out / f"{name}.json", "w") as f:
            json.dump(run_case(name), f, indent=2)
            f.write("\n")
        print(f"wrote {args.out / f'{name}.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(generate())
