"""Write the golden CLI outputs that ``tests/test_golden.py`` compares with,
and hold the rules by which it compares them.

Run from the root of the repository, with the package importable:

    PYTHONPATH=src python tests/golden/generate.py [--out DIR]

Each case runs ``lagdelay`` in-process on committed inputs and writes the
JSON output to ``DIR/<case>.json`` (default: this directory).  Wherever the
rule for a value's path accepts the fresh value against the committed file
in this directory, the committed value is written again, so a regeneration
moves only the values that the test would refuse, and a change that adds a
field writes that field alone.  Fields that differ from run to run, or that
hash a temporary path, are stored as null; the rules skip them.  Regenerate
only when a change means to move an output past the test's bounds, and list
the old and new values in CHANGES.md.

Keys and their order must match exactly.  Values must match exactly unless
a rule in ``RULES`` says otherwise:
- closed-form outputs (the delays of ``proposed``, ``lag_spline`` and
  ``freq_interp``, the spectra, the CRLB, ``bias-predict``) are held at
  rounding level, the ``bias-predict`` averages to ``BIAS_SCALE_RTOL`` of
  the full-draw oracle's mean absolute summand;
- the two optimizer outputs are held at their stopping tolerances, since
  another BLAS may take another Brent path: ``ml`` within twice its refine
  tolerance at the golden delta, design p and u within twice the refine's
  brackets, as the benchmark's design check holds them;
- ``runtime_s`` and the ``estimate`` report's ``config_hash``, which hashes
  the dataset path, are skipped.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from lagdelay.cli import main
from lagdelay.design import REFINE_REL_TOL
from lagdelay.estimators import ML_TAU_XATOL_FRACTION
from lagdelay.simulate import InputDesign

HERE = Path(__file__).resolve().parent
INPUTS = HERE.parents[1] / "lagbench" / "inputs"
DESIGN72 = str(INPUTS / "design72_ref.json")

sys.path.insert(0, str(HERE.parent))  # the oracles of tests/conftest.py
from conftest import full_draw_bias_prediction, ratio_bias_inputs  # noqa: E402

# the noisy datasets of design72_ref.json that estimate runs on: (tau, seed)
DATASETS = {"estimate_tau3e-4": (3e-4, 1), "estimate_tau1.33e-3": (1.33e-3, 2),
            "estimate_tau4e-3": (4e-3, 3)}
NOISE_VAR = "0.01"

# a closed-form delay may move by this much (PR-to-PR rounding moves were
# at most 5.2e-18 s); ml by twice its Brent tolerance at the delta of the
# design that every golden estimate runs on
TAU_ATOL = 1e-15
ML_ATOL = 2.0 * ML_TAU_XATOL_FRACTION * json.loads(Path(DESIGN72).read_text())["delta"]
# spectra y_hat, h_hat are O(1) at cond(Phi) = 2.6, their rounding ~1e-15
SPECTRUM_ATOL = 1e-12
CRLB_RTOL = 1e-14
# bias-predict averages, relative to their mean absolute summand
BIAS_SCALE_RTOL = 1e-14
# the design refine stops at a relative bracket of 1e-3 on p and 1e-4 on
# the coefficients; twice the bracket is the tolerance
DESIGN_P_RTOL = 2e-3
DESIGN_U_ATOL = 2e-4


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


def _method_atol(path) -> float:
    return ML_ATOL if "ml" in path.split("/") else TAU_ATOL


def _absolute(atol):
    def check(got, ref, path):
        tol = atol(path) if callable(atol) else atol
        return np.shape(got) == np.shape(ref) and bool(
            np.all(np.abs(np.subtract(got, ref)) <= tol)
        )
    return check


def _relative(rtol):
    def check(got, ref, path):
        return abs(got - ref) <= rtol * abs(ref)
    return check


def _skip(got, ref, path):
    return True


def _same_type(got, ref, path):
    return type(got) is type(ref)


def _stat(kind):
    """A benchmark statistic of values each within eps of the reference:
    |d bias| <= eps; |d var| <= 6 eps sqrt(var) + 8 eps^2 (deviations from the
    mean move by at most 2 eps, and sum |d_i| <= sqrt(n (n - 1) var));
    |d mse| <= 2 eps sqrt(mse) + eps^2, times sqrt(N) when normalized."""
    def check(got, ref, path):
        eps = _method_atol(path)
        if kind == "bias":
            bound = eps
        elif kind == "var":
            bound = 6.0 * eps * math.sqrt(ref) + 8.0 * eps**2
        elif kind == "mse_raw":
            bound = 2.0 * eps * math.sqrt(ref) + eps**2
        else:  # mse_normalized = sqrt(N) mse_raw, N = 1667
            root_n = math.sqrt(1667)
            bound = root_n * (2.0 * eps * math.sqrt(ref / root_n) + eps**2)
        return abs(got - ref) <= bound
    return check


def _counts(got, ref, path):
    # a value within eps of a bin edge may land in the neighbouring bin; for
    # the closed-form methods (eps 1e-15 against 1e-6 wide bins) that is not
    # expected, so they must match exactly
    if "ml" in path.split("/"):
        return sum(got) == sum(ref) and np.abs(np.cumsum(got) - np.cumsum(ref)).max() <= 1
    return got == ref


RULES = {
    "design*": {
        "p": _relative(DESIGN_P_RTOL),
        "u": _absolute(DESIGN_U_ATOL * math.sqrt(2.0)),  # eta = 2 in every problem
        "objective": _relative(REFINE_REL_TOL),
    },
    "estimate*": {
        "config_hash": _skip,
        "estimates/*/tau_hat": _absolute(_method_atol),
        "estimates/*/diagnostics/y_hat": _absolute(SPECTRUM_ATOL),
        "estimates/*/diagnostics/h_hat": _absolute(SPECTRUM_ATOL),
        "estimates/*/diagnostics/residual_norm": _relative(1e-12),
        "estimates/*/diagnostics/cond_phi": _relative(1e-12),
        "estimates/*/diagnostics/delta_tau": _absolute(TAU_ATOL),
        "estimates/ml/diagnostics/refine_evals": _same_type,
        "estimates/ml/diagnostics/negloglik": _relative(1e-9),
        "crlb/bound": _relative(CRLB_RTOL),
    },
    "benchmark": {
        "runtime_s": _skip,
        "per_method/*/bias": _stat("bias"),
        "per_method/*/var": _stat("var"),
        "per_method/*/mse_raw": _stat("mse_raw"),
        "per_method/*/mse_normalized": _stat("mse_normalized"),
        "histogram/*/edges": _absolute(_method_atol),
        "histogram/*/counts": _counts,
        "crlb": _relative(CRLB_RTOL),
    },
    # predicted_bias, eps1_mean and eps2_mean: see case_rules
    "bias*": {},
}


def case_rules(case: str, committed: dict) -> dict:
    """The rules of ``RULES`` for a case.  A ``bias-predict`` case adds its
    three averages, each held to ``BIAS_SCALE_RTOL`` of the full-draw
    oracle's mean absolute summand at the committed run's inputs."""
    rules = next(r for pattern, r in RULES.items() if fnmatch.fnmatch(case, pattern))
    if case.startswith("bias"):
        design = InputDesign.from_dict(json.loads(Path(DESIGN72).read_text()))
        inputs = ratio_bias_inputs(design, committed["noise_var"], committed["tau_check"],
                                   int(case.removeprefix("bias_k")))
        _, scale = full_draw_bias_prediction(*inputs, committed["mc_samples"], committed["seed"])
        rules = {**rules, **{name: _absolute(BIAS_SCALE_RTOL * s) for name, s in scale.items()}}
    return rules


def merge(case: str, fresh, committed, rejected: list):
    """The output to write for ``case``: at each path, the committed value
    when it has the fresh one's type and the rule for the path accepts the
    fresh one against it (equality where no rule applies), else the fresh
    value, with (path, fresh, committed) appended to ``rejected``.  Dicts
    are merged by key in the fresh order, a differing key list rejected at
    the dict's path; lists of differing length are taken fresh."""
    rules = case_rules(case, committed)

    def walk(got, ref, path):
        check = next((c for pattern, c in rules.items() if fnmatch.fnmatch(path, pattern)), None)
        if check is not None:
            ok = type(got) is type(ref) and check(got, ref, path)
        elif isinstance(got, dict) and isinstance(ref, dict):
            if list(got) != list(ref):
                rejected.append((path, list(got), list(ref)))
            return {key: walk(got[key], ref[key], f"{path}/{key}".lstrip("/"))
                    if key in ref else got[key] for key in got}
        elif isinstance(got, list) and isinstance(ref, list) and len(got) == len(ref):
            return [walk(g, r, f"{path}/{i}".lstrip("/")) for i, (g, r) in enumerate(zip(got, ref))]
        else:
            ok = got == ref and type(got) is type(ref)
        if ok:
            return ref
        rejected.append((path, got, ref))
        return got

    return walk(fresh, committed, "")


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
        payload, moved = run_case(name), []
        if (HERE / f"{name}.json").exists():
            committed = json.loads((HERE / f"{name}.json").read_text())
            payload = merge(name, payload, committed, moved)
        with open(args.out / f"{name}.json", "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote {args.out / f'{name}.json'}, {len(moved)} value(s) from this run")
    return 0


if __name__ == "__main__":
    sys.exit(generate())
