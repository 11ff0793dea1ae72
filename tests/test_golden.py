"""Golden CLI outputs: ``design``, ``estimate``, ``benchmark`` and
``bias-predict`` on committed inputs, against the files under
``tests/golden/`` that ``tests/golden/generate.py`` wrote.

The rules by which a fresh output may differ from its golden file are the
generator's ``RULES``, one table for both: the generator writes a committed
value again wherever its rule accepts the fresh one, so a regeneration at
a commit whose outputs pass writes the committed bytes.
"""

import copy
import functools
import importlib.util
import json
from pathlib import Path

import pytest

from lagdelay.analysis import markov_mse
from lagdelay.design import REFINE_REL_TOL
from lagdelay.simulate import InputDesign

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


@functools.cache
def _fresh(case: str) -> dict:
    """One run of a case, shared by the comparison and the round trip."""
    return generate.run_case(case)


@pytest.mark.parametrize("case", list(generate.CASES))
def test_output_matches_golden(case):
    ref = json.loads((GOLDEN / f"{case}.json").read_text())
    got = _fresh(case)
    rejected = []
    generate.merge(case, got, ref, rejected)
    assert not rejected, rejected
    if case.startswith("design"):
        # the objective is the Markov MSE of the design written
        problem = json.loads((generate.INPUTS / f"{case}_problem.json").read_text())
        recomputed = markov_mse(
            InputDesign.from_dict(got), problem["k_model"], problem["noise_var"],
            problem["tau_guess"], n_samples=problem["n_samples"],
        ).mse
        assert got["objective"] == pytest.approx(recomputed, rel=1e-12, abs=0)


def test_every_case_has_a_golden_file():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(generate.CASES)


def test_regeneration_writes_the_committed_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(generate, "run_case", _fresh)
    assert generate.generate(["--out", str(tmp_path)]) == 0
    for case in generate.CASES:
        name = f"{case}.json"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), case
    assert capsys.readouterr().out.count(", 0 value(s) from this run") == len(generate.CASES)


def test_merge_takes_only_values_past_their_bound():
    ref = json.loads((GOLDEN / "design72.json").read_text())
    fresh = copy.deepcopy(ref)
    fresh["p"] *= 1.0 + 0.5 * generate.DESIGN_P_RTOL  # inside its bound
    fresh["objective"] *= 1.0 + 3.0 * REFINE_REL_TOL  # past it
    fresh["eta"] = 2.5  # no rule: must be equal
    rejected = []
    merged = generate.merge("design72", fresh, ref, rejected)
    assert merged == {**ref, "objective": fresh["objective"], "eta": 2.5}
    assert [path for path, _, _ in rejected] == ["eta", "objective"]

    ref = json.loads((GOLDEN / "estimate_tau1.33e-3.json").read_text())
    fresh = copy.deepcopy(ref)
    fresh["estimates"]["ml"]["tau_hat"] += 0.5 * generate.ML_ATOL
    fresh["estimates"]["proposed"]["tau_hat"] += 3.0 * generate.TAU_ATOL
    fresh["estimates"]["proposed"]["new_field"] = 1.0  # a field that a change adds
    rejected = []
    merged = generate.merge("estimate_tau1.33e-3", fresh, ref, rejected)
    assert merged["estimates"]["ml"] == ref["estimates"]["ml"]
    assert merged["estimates"]["proposed"] == {
        **ref["estimates"]["proposed"], "tau_hat": fresh["estimates"]["proposed"]["tau_hat"],
        "new_field": 1.0,
    }
    assert {path for path, _, _ in rejected} == {"estimates/proposed",
                                                 "estimates/proposed/tau_hat"}


@pytest.mark.parametrize("case", ["bias_k3", "bias_k12"])
def test_bias_means_held_to_the_oracle_scale(case):
    # an average may move by BIAS_SCALE_RTOL of the full-draw oracle's mean
    # absolute summand, which is at least the average itself
    ref = json.loads((GOLDEN / f"{case}.json").read_text())
    names = ("predicted_bias", "eps1_mean", "eps2_mean")
    step = 1.0 + generate.BIAS_SCALE_RTOL / 10.0
    inside = {**ref, **{name: ref[name] * step for name in names}}
    outside = {**ref, **{name: ref[name] + 1.0 for name in names}}
    assert generate.merge(case, inside, ref, []) == ref
    assert generate.merge(case, outside, ref, []) == outside
