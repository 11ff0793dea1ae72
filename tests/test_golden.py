"""Golden CLI outputs: ``design``, ``estimate``, ``benchmark`` and
``bias-predict`` on committed inputs, against the files under
``tests/golden/`` that ``tests/golden/generate.py`` wrote.

Keys and their order must match exactly.  Values must match exactly
unless a rule below says otherwise:
- closed-form outputs (the delays of ``proposed``, ``lag_spline`` and
  ``freq_interp``, the spectra, the CRLB, ``bias-predict``) are held at
  rounding level;
- the two optimizer outputs are held at their stopping tolerances, since
  another BLAS may take another Brent path: ``ml`` within twice its
  refine tolerance at the golden delta, design p and u within twice the
  refine's brackets, as the benchmark's design check holds them;
- ``runtime_s`` and the ``estimate`` report's ``config_hash``, which hashes
  the dataset path, are skipped (null in the golden files).
"""

import fnmatch
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lagdelay.analysis import markov_mse
from lagdelay.design import REFINE_REL_TOL
from lagdelay.estimators import ML_TAU_XATOL_FRACTION
from lagdelay.simulate import InputDesign

from conftest import full_draw_bias_prediction

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

# a closed-form delay may move by this much (PR-to-PR rounding moves were
# at most 5.2e-18 s); ml by twice its Brent tolerance at the delta of the
# design that every golden estimate runs on
TAU_ATOL = 1e-15
ML_ATOL = 2.0 * ML_TAU_XATOL_FRACTION * json.loads(Path(generate.DESIGN72).read_text())["delta"]
# spectra y_hat, h_hat are O(1) at cond(Phi) = 2.6, their rounding ~1e-15
SPECTRUM_ATOL = 1e-12
CRLB_RTOL = 1e-14
# bias-predict averages, relative to their mean absolute summand
BIAS_SCALE_RTOL = 1e-14
# the design refine stops at a relative bracket of 1e-3 on p and 1e-4 on
# the coefficients; twice the bracket is the tolerance
DESIGN_P_RTOL = 2e-3
DESIGN_U_ATOL = 2e-4


def _method_atol(path) -> float:
    return ML_ATOL if "ml" in path.split("/") else TAU_ATOL


def _absolute(atol):
    def check(got, ref, path):
        tol = atol(path) if callable(atol) else atol
        assert np.shape(got) == np.shape(ref), path
        assert np.all(np.abs(np.subtract(got, ref)) <= tol), (path, got, ref)
    return check


def _relative(rtol):
    def check(got, ref, path):
        assert abs(got - ref) <= rtol * abs(ref), (path, got, ref)
    return check


def _skip(got, ref, path):
    pass


def _same_type(got, ref, path):
    assert type(got) is type(ref), path


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
        assert abs(got - ref) <= bound, (path, got, ref)
    return check


def _counts(got, ref, path):
    # a value within eps of a bin edge may land in the neighbouring bin; for
    # the closed-form methods (eps 1e-15 against 1e-6 wide bins) that is not
    # expected, so they must match exactly
    assert sum(got) == sum(ref), path
    if "ml" in path.split("/"):
        assert np.abs(np.cumsum(got) - np.cumsum(ref)).max() <= 1, (path, got, ref)
    else:
        assert got == ref, path


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
    # predicted_bias, eps1_mean and eps2_mean are checked against the
    # full-draw oracle's scale in the test
    "bias*": {"predicted_bias": _skip, "eps1_mean": _skip, "eps2_mean": _skip},
}


def _rule(case, path):
    rules = next(r for pattern, r in RULES.items() if fnmatch.fnmatch(case, pattern))
    key = "/".join(path)
    return next((check for pattern, check in rules.items() if fnmatch.fnmatch(key, pattern)),
                None)


def _compare(case, got, ref, path=()):
    """Same keys in the same order throughout; each value equal, or within
    the rule for its path."""
    rule = _rule(case, path)
    if rule is not None:
        rule(got, ref, "/".join(path))
    elif isinstance(ref, dict):
        assert isinstance(got, dict) and list(got) == list(ref), (path, list(got), list(ref))
        for key in ref:
            _compare(case, got[key], ref[key], path + (key,))
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), path
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(case, g, r, path + (str(i),))
    else:
        assert got == ref and type(got) is type(ref), (path, got, ref)


@pytest.mark.parametrize("case", list(generate.CASES))
def test_output_matches_golden(case):
    ref = json.loads((GOLDEN / f"{case}.json").read_text())
    got = generate.run_case(case)
    _compare(case, got, ref)
    if case.startswith("design"):
        # the objective is the Markov MSE of the design written
        problem = json.loads((generate.INPUTS / f"{case}_problem.json").read_text())
        recomputed = markov_mse(
            InputDesign.from_dict(got), problem["k_model"], problem["noise_var"],
            problem["tau_guess"], n_samples=problem["n_samples"],
        ).mse
        assert got["objective"] == pytest.approx(recomputed, rel=1e-12, abs=0)
    if case.startswith("bias"):
        design = InputDesign.from_dict(json.loads(Path(generate.DESIGN72).read_text()))
        _, scale = full_draw_bias_prediction(
            design, ref["noise_var"], ref["tau_check"], int(case.removeprefix("bias_k")),
            mc_samples=ref["mc_samples"], seed=ref["seed"],
        )
        for name in ("predicted_bias", "eps1_mean", "eps2_mean"):
            assert abs(got[name] - ref[name]) <= BIAS_SCALE_RTOL * scale[name], name


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(generate.CASES)
