"""Design-module tests: constraint checks, grid optimizer contracts."""

import dataclasses
import itertools
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from lagdelay import analysis
from lagdelay import design as design_module
from lagdelay.analysis import markov_mse
from lagdelay.basis import BasisConfig, build_phi, eval_basis_matrix
from lagdelay.cli import main
from lagdelay.delay_ops import build_toeplitz, inverse_toeplitz, markov_params, reciprocal_series
from lagdelay.design import (
    REFINE_REL_TOL,
    DesignProblem,
    _candidates,
    _coefficients,
    _model,
    optimize_design,
    validate_constraints,
)
from lagdelay.errors import IllConditionedError, InfeasibleDesignError
from lagdelay.simulate import continuity_defect, sample_count

from conftest import state_space_basis


def tiny_problem(**overrides):
    base = dict(
        delta=3e-4,
        n_samples=600,
        i_order=3,
        energy_bound=2.0,
        tau_guess=3e-4,
        noise_var=0.01,
        k_model=6,
        p_grid=np.array([20.0, 35.0, 50.0, 80.0]),
        u_grid_points=5,
        refine=False,
    )
    base.update(overrides)
    return DesignProblem(**base)


# the section 7.2 and 7.1 (delta = 1e-4) design problems, with the number
# of default grid points whose basis passes the conditioning screen
SECTION7_PROBLEMS = {
    "7.2": (dict(delta=3e-4, n_samples=1667, k_model=12, tau_guess=3e-4), 24),
    "7.1": (dict(delta=1e-4, n_samples=5001, k_model=6, tau_guess=1e-4), 40),
}


def loop_candidates(problem: DesignProblem) -> np.ndarray:
    """The row-at-a-time grid walk: every k in {0..G-1}^((I-1)/2), the last
    index fastest, kept when sum k^2 < G^2; odds sqrt(eta/2) k / G and u_0
    from the energy sphere, written coefficient by coefficient."""
    g = problem.u_grid_points
    n_pairs = (problem.i_order - 1) // 2
    root = np.sqrt(problem.energy_bound / 2.0)
    rows = []
    for k in itertools.product(range(g), repeat=n_pairs):
        if sum(kj * kj for kj in k) >= g * g:
            continue
        odds = [root * kj / g for kj in k]
        u = np.zeros(problem.i_order + 1)
        u[0] = np.sqrt(problem.energy_bound / 2.0 - sum(o * o for o in odds))
        for j, val in enumerate(odds):
            u[2 * j + 1] = val
            u[2 * j + 2] = -val
        u[problem.i_order] = -u[0]
        rows.append(u)
    return np.array(rows).reshape(-1, problem.i_order + 1)


class ScalarObjective:
    """The candidate-at-a-time objective: its own QR of Phi, forward
    substitution with T(U) for the bias and for T^{-1}(U) R^{-1}."""

    def __init__(self, p: float, problem: DesignProblem):
        self.p = p
        k1 = problem.k_model + 1
        phi = build_phi(BasisConfig(p=p, num_funcs=k1), problem.delta, problem.n_samples)
        t = np.arange(problem.n_samples) * problem.delta
        cfg_in = BasisConfig(p=p, num_funcs=problem.i_order + 1)
        delayed = eval_basis_matrix(cfg_in, t - problem.tau_guess)
        q, r = np.linalg.qr(phi.matrix)
        self.projector = solve_triangular(r, q.T @ delayed, lower=False)
        self.r_inv = solve_triangular(r, np.eye(k1), lower=False)
        self.h_true = markov_params(2.0 * p * problem.tau_guess, k1)
        self.noise_var = problem.noise_var
        self.k1 = k1

    def mse(self, u: np.ndarray) -> float:
        t_u = build_toeplitz(u, self.k1)
        bias = solve_triangular(t_u, self.projector @ u, lower=True) - self.h_true
        g = solve_triangular(t_u, self.r_inv, lower=True)
        return float(bias @ bias + self.noise_var * np.sum(g * g))


class TestValidateConstraints:
    def test_pattern_passes_continuity_flagged(self):
        ok, violations = validate_constraints(np.array([1.0, 0.5, -0.5, 0.0]), eta=2.0)
        assert not ok
        assert violations == ["continuity"]

    def test_negative_leading_coefficient(self):
        ok, violations = validate_constraints(np.array([-1.0, 0.5, -0.5, 1.0]), eta=2.0)
        assert "u0_nonpositive" in violations

    def test_energy_violation(self):
        u = np.array([1.0, 0.5, -0.5, -1.0])
        ok, violations = validate_constraints(u, eta=(u @ u) - 1e-3)
        assert "energy" in violations

    def test_pairing_violation(self):
        ok, violations = validate_constraints(np.array([1.0, 0.5, -0.4, -1.0]), eta=4.0)
        assert any(v.startswith("even_pairing") for v in violations)

    def test_interior_odd_sign_violation(self):
        ok, violations = validate_constraints(
            np.array([1.0, -0.5, 0.5, 0.2, -0.2, -1.0]), eta=4.0
        )
        assert any(v.startswith("odd_sign") for v in violations)

    def test_valid_design_passes(self):
        ok, violations = validate_constraints(np.array([1.0, 0.5, -0.5, -1.0]), eta=4.0)
        assert ok and violations == []

    def test_final_odd_coefficient_exempt_from_sign(self):
        # continuity forces u_I = -u_0 < 0; that is not a violation
        ok, _ = validate_constraints(np.array([1.0, 0.0, 0.0, -1.0]), eta=2.0)
        assert ok

    @pytest.mark.parametrize("u, eta, violations", [
        # the odd sign and the pairing fail at scale 1; an absolute
        # tolerance once passed them at 1e-13
        ([1.0, -0.3, 0.5, -1.2], 10.0, ["odd_sign(k=1)", "even_pairing(k=2)"]),
        (1e-13 * np.array([1.0, -0.3, 0.5, -1.2]), 1e-25,
         ["odd_sign(k=1)", "even_pairing(k=2)"]),
        # 1e16 times over the bound once passed by an absolute 1e-9
        (1e-5 * np.array([1.0, 0.0, 0.0, -1.0]), 2e-26, ["energy"]),
        # a step at t = 0 is discontinuous at any amplitude
        (1e-13 * np.array([1.0, 0.0, 0.0, 0.0]), 2e-26, ["continuity"]),
    ])
    def test_small_amplitudes_judged_as_large(self, u, eta, violations):
        assert validate_constraints(u, eta) == (False, violations)

    @settings(max_examples=200, deadline=None)
    @given(
        # each coefficient 0 or at least 1e-6 in size, so that c u_k stays a
        # normal float for every c
        raw=st.lists(st.just(0.0) | st.floats(-10.0, 10.0).filter(lambda x: abs(x) >= 1e-6),
                     min_size=1, max_size=9),
        paired=st.booleans(),
        continuous=st.booleans(),
        energy_ratio=st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.5, 2.0),
        c=st.floats(1e-30, 1e30),
    )
    def test_verdict_scale_free(self, raw, paired, continuous, energy_ratio, c):
        # (u, eta) and (c u, c^2 eta) get the same verdict and violations
        u = np.array(raw)
        if paired:
            u[2::2] = -u[1::2][: u[2::2].size]
        if continuous:
            u[-1] -= u.sum()
        eta = energy_ratio * (u @ u) or 1.0
        assert validate_constraints(c * u, c * c * eta) == validate_constraints(u, eta)


class TestOptimizeDesign:
    def test_returned_design_passes_constraints(self):
        design = optimize_design(tiny_problem())
        ok, violations = validate_constraints(design.u, design.energy_bound)
        assert ok, violations
        assert continuity_defect(design.u) < 1e-10

    def test_argmin_contract(self):
        problem = tiny_problem()
        design = optimize_design(problem)
        best = markov_mse(
            design, problem.k_model, problem.noise_var, problem.tau_guess,
            n_samples=problem.n_samples,
        ).mse
        # returned objective beats every evaluated grid candidate
        for p in problem.p_grid:
            try:
                model = _model(float(p), problem)
            except IllConditionedError:
                continue
            for u in _candidates(problem):
                t_inv = inverse_toeplitz(u, problem.k_model + 1)
                assert best <= model.mse(u, t_inv, problem.noise_var) * (1 + 1e-9)

    def test_deterministic(self):
        a = optimize_design(tiny_problem())
        b = optimize_design(tiny_problem())
        assert a.p == b.p
        assert np.array_equal(a.u, b.u)

    def test_fast_objective_matches_public_op(self):
        problem = tiny_problem()
        model = _model(35.0, problem)
        u = _coefficients(np.array([0.3]), problem)
        fast = model.mse(u, inverse_toeplitz(u, problem.k_model + 1), problem.noise_var)
        from lagdelay.simulate import InputDesign

        design = InputDesign(
            p=35.0,
            u=u,
            energy_bound=problem.energy_bound,
            horizon=(problem.n_samples - 1) * problem.delta,
            delta=problem.delta,
            tau_guess=problem.tau_guess,
        )
        slow = markov_mse(
            design, problem.k_model, problem.noise_var, problem.tau_guess,
            n_samples=problem.n_samples,
        ).mse
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_infeasible_when_every_p_ill_conditioned(self):
        problem = tiny_problem(p_grid=np.array([0.05]), k_model=12, n_samples=200)
        with pytest.raises(InfeasibleDesignError):
            optimize_design(problem)

    def test_descending_p_grid_returns_the_ascending_design(self):
        # a grid from 200 down to 1 once put the refine's p bracket upside
        # down, and design exited 1 with "bounds must be finite with a <= b"
        ascending = DesignProblem.from_dict({**REQUIRED, "p_grid": {"min": 1, "max": 200}})
        descending = DesignProblem.from_dict({**REQUIRED, "p_grid": {"min": 200, "max": 1}})
        want, got = optimize_design(ascending), optimize_design(descending)
        assert got.p == want.p
        assert np.array_equal(got.u, want.u)
        objective = [markov_mse(d, 12, 0.01, 3e-4, n_samples=1667).mse for d in (got, want)]
        assert objective[0] == objective[1]

    @pytest.mark.parametrize("i_order", [1, 3, 5])
    @pytest.mark.parametrize("eta", [1e-30, 2.0, 1e30])
    def test_design_on_the_energy_sphere(self, i_order, eta):
        # the MSE's bias does not change with the input's scale and its
        # noise term falls as 1 / c^2, so the design spends the whole bound
        design = optimize_design(tiny_problem(i_order=i_order, energy_bound=eta, refine=True))
        assert abs(design.u @ design.u / eta - 1.0) <= 1e-12

    def test_sweep_problem_ends_on_the_sphere(self):
        # a free u_0 once left this problem inside the ball, at u'u = 0.758,
        # where its own copy scaled onto the sphere scores better
        problem = DesignProblem(
            delta=3e-4, n_samples=600, i_order=5, energy_bound=2.0, tau_guess=3e-4,
            noise_var=1e-4, k_model=12, p_grid=np.geomspace(1.0, 200.0, 20), u_grid_points=9,
        )
        design = optimize_design(problem)
        assert abs(design.u @ design.u / 2.0 - 1.0) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_default_p_grid_is_absolute(self, scale):
        # the 7.2 problem on a time scale `scale` times its own: the default
        # grid is in s^-1, so the problem must give its own; the sample power
        # of an input of fixed energy goes as 1 / scale, and so must noise_var
        section72 = dict(delta=3e-4, n_samples=1667, i_order=3, energy_bound=2.0,
                         tau_guess=3e-4, noise_var=0.01, k_model=12)
        scaled = dict(section72, delta=3e-4 * scale, tau_guess=3e-4 * scale,
                      noise_var=0.01 / scale)
        with pytest.raises(InfeasibleDesignError, match=r"^no grid point satisfies .*"
                           r"absolute 1-200 s\^-1, so a problem at another time scale "
                           r"must give p_grid"):
            optimize_design(DesignProblem(**scaled))
        problem = DesignProblem(**section72)
        want = optimize_design(problem)
        got = optimize_design(DesignProblem(**scaled, p_grid=problem.p_grid / scale))
        assert got.p * scale == pytest.approx(want.p, rel=1e-8)
        np.testing.assert_allclose(got.u, want.u, atol=1e-12)

    def test_refinement_does_not_regress(self):
        coarse = optimize_design(tiny_problem(refine=False))
        fine = optimize_design(tiny_problem(refine=True))
        prob = tiny_problem()
        mse_coarse = markov_mse(coarse, prob.k_model, prob.noise_var, prob.tau_guess,
                                n_samples=prob.n_samples).mse
        mse_fine = markov_mse(fine, prob.k_model, prob.noise_var, prob.tau_guess,
                              n_samples=prob.n_samples).mse
        assert mse_fine <= mse_coarse * (1 + 1e-9)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            tiny_problem(i_order=2)
        with pytest.raises(ValueError):
            tiny_problem(energy_bound=0.0)
        with pytest.raises(ValueError):
            tiny_problem(tau_guess=-1e-4)
        for noise_var in (-0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_var must be finite and nonnegative"):
                tiny_problem(noise_var=noise_var)

    @pytest.mark.parametrize("i_order, k_model", [(3, 2), (5, 4), (1, 1)])
    def test_model_order_below_input_order_refused(self, i_order, k_model):
        with pytest.raises(ValueError, match="k_model must cover the input order"):
            tiny_problem(i_order=i_order, k_model=k_model)


# the required keys of a design-problem config, sampling given by horizon
REQUIRED = {
    "delta": 3e-4, "horizon": 0.5, "i_order": 3, "energy_bound": 2.0, "tau_guess": 3e-4,
    "noise_var": 0.01, "k_model": 12,
}


class TestFromDict:
    def test_absent_keys_take_the_defaults(self):
        problem = DesignProblem.from_dict(REQUIRED)
        assert problem.n_samples == sample_count(0.5, 3e-4) == 1667
        assert np.array_equal(problem.p_grid, np.geomspace(1.0, 200.0, 40))
        assert problem.u_grid_points == 25
        assert problem.refine is True

    @pytest.mark.parametrize("spec, grid", [
        ({"min": 20}, (20.0, 200.0, 40)),
        ({"max": 50.0}, (1.0, 50.0, 40)),
        ({"count": 3}, (1.0, 200.0, 3)),
        ({"min": 30.0, "max": 40.0, "count": 2}, (30.0, 40.0, 2)),
    ])
    def test_partial_p_grid_filled_key_by_key(self, spec, grid):
        problem = DesignProblem.from_dict({**REQUIRED, "p_grid": spec})
        assert np.array_equal(problem.p_grid, np.geomspace(*grid))

    def test_given_keys_win(self):
        problem = DesignProblem.from_dict(
            {**REQUIRED, "n_samples": 600, "u_grid_points": 9, "refine": False}
        )
        assert (problem.n_samples, problem.u_grid_points, problem.refine) == (600, 9, False)

    @pytest.mark.parametrize("extra, named", [
        ({"u_grid_point": 3}, "unknown design-problem key(s) ['u_grid_point']"),
        ({"p_grid": {"minimum": 20}}, "unknown p_grid key(s) ['minimum']"),
        ({"Refine": False, "n": 5}, "unknown design-problem key(s) ['Refine', 'n']"),
    ])
    def test_unknown_key_refused(self, extra, named):
        # such a typo once ran the default experiment without notice
        with pytest.raises(ValueError, match=re.escape(named)):
            DesignProblem.from_dict({**REQUIRED, **extra})

    @pytest.mark.parametrize("bad, named", [
        # "false" once refined, as bool("false") is True
        ({"refine": "false"}, "refine must be true or false, got 'false'"),
        ({"refine": 0}, "refine must be true or false, got 0"),
        # fractional integers were once truncated
        ({"k_model": 12.9}, "k_model must be an integer, got 12.9"),
        ({"n_samples": 1666.6}, "n_samples must be an integer, got 1666.6"),
        ({"u_grid_points": 2.7}, "u_grid_points must be an integer, got 2.7"),
        ({"k_model": True}, "k_model must be an integer, got True"),
        ({"i_order": "3"}, "i_order must be an integer, got '3'"),
        ({"noise_var": "0.01"}, "noise_var must be a number, got '0.01'"),
        ({"delta": None}, "delta must be a number, got None"),
        ({"horizon": False}, "horizon must be a number, got False"),
        # a count of 0 once ended in InfeasibleDesignError (exit 2)
        ({"p_grid": {"count": 0}}, "p_grid count must be at least 1, got 0"),
        ({"p_grid": {"count": 2.5}}, "p_grid count must be an integer, got 2.5"),
        ({"p_grid": {"min": 0.0}}, "p_grid min must be a finite positive number, got 0.0"),
        ({"p_grid": {"max": float("inf")}}, "p_grid max must be a finite positive number, got inf"),
        ({"p_grid": {"min": float("nan")}}, "p_grid min must be a finite positive number, got nan"),
        ({"p_grid": {"max": "200"}}, "p_grid max must be a finite positive number, got '200'"),
        # 0 once ended in InfeasibleDesignError (exit 2), -1 in numpy's
        # "Number of samples, -1, must be non-negative." (exit 1)
        ({"u_grid_points": 0}, "u_grid_points must be at least 1, got 0"),
        ({"u_grid_points": -1}, "u_grid_points must be at least 1, got -1"),
    ])
    def test_wrong_json_type_refused(self, bad, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            DesignProblem.from_dict({**REQUIRED, **bad})

    def test_integral_float_read_as_integer(self):
        problem = DesignProblem.from_dict(
            {**REQUIRED, "n_samples": 600.0, "k_model": 12.0, "p_grid": {"count": 3.0}}
        )
        assert (problem.n_samples, problem.k_model, problem.p_grid.size) == (600, 12, 3)
        assert isinstance(problem.n_samples, int) and isinstance(problem.k_model, int)

    @pytest.mark.parametrize("name", ["design71", "design72", "design_warmup"])
    def test_committed_problems(self, name):
        cfg = json.loads((INPUTS / f"{name}_problem.json").read_text())
        problem = DesignProblem.from_dict(cfg)
        for key in ("delta", "n_samples", "i_order", "energy_bound", "tau_guess", "noise_var",
                    "k_model"):
            assert getattr(problem, key) == cfg[key]


INPUTS = Path(__file__).resolve().parents[1] / "lagbench" / "inputs"

# Objective of each committed design problem under the golden-section
# coordinate descent that the bounded-Brent refine replaced.  The warm-up
# problem has no committed reference design, so its design is given here.
GOLDEN_REFINE_OBJECTIVE = {
    "design72": 0.00015541995776297582,
    "design71": 1.2004818266307826e-05,
    "design_warmup": 0.00016029707392130376,
}
WARMUP_REFERENCE = {"p": 40.0, "u": [1.0, 0.0, 0.0, -1.0], "eta": 2.0}


def run_design_cli(config: dict, tmp_path, name: str) -> dict:
    cfg_path = tmp_path / f"{name}_problem.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / f"{name}.json"
    assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == 0
    return json.loads(out.read_text())


class TestRefine:
    @pytest.mark.parametrize("name", sorted(GOLDEN_REFINE_OBJECTIVE))
    def test_committed_problems_agree_with_golden_section_refine(self, name, tmp_path):
        config = json.loads((INPUTS / f"{name}_problem.json").read_text())
        got = run_design_cli(config, tmp_path, name)
        grid = run_design_cli({**config, "refine": False}, tmp_path, f"{name}_grid")
        ref_path = INPUTS / f"{name}_ref.json"
        ref = json.loads(ref_path.read_text()) if ref_path.exists() else WARMUP_REFERENCE
        # twice the refine's stopping brackets (1e-3 on p, 1e-4 on u)
        assert abs(got["p"] - ref["p"]) <= 2e-3 * ref["p"]
        assert np.max(np.abs(np.subtract(got["u"], ref["u"]))) <= 2e-4 * np.sqrt(ref["eta"])
        golden = GOLDEN_REFINE_OBJECTIVE[name]
        assert abs(got["objective"] - golden) <= 1e-7 * golden
        assert got["objective"] <= grid["objective"]

    @pytest.mark.parametrize("name", ["design71", "design72"])
    def test_committed_problems_agree_with_state_space_basis(self, name, monkeypatch):
        # the same search with every basis built from the state-space
        # oracle; the worst differences were 3.5e-10 relative on p and
        # 1.1e-16 on u
        problem = DesignProblem(**json.loads((INPUTS / f"{name}_problem.json").read_text()))
        got = optimize_design(problem)
        monkeypatch.setattr(analysis, "build_phi", state_space_basis)
        want = optimize_design(problem)
        assert abs(got.p - want.p) <= 1e-8 * want.p
        assert np.max(np.abs(got.u - want.u)) <= 1e-12

    @pytest.mark.parametrize("name", ["design71", "design72"])
    def test_committed_problems_agree_with_triangular_solves(self, name, monkeypatch):
        # the error models' R^{-1} Q^T D and R^{-1} by the triangular solves
        # that np.linalg.solve replaced; the differences were 1.5e-11 (7.2)
        # and 2.6e-12 (7.1) relative on p, 7.6e-14 and 5.9e-14 on the
        # objective and none on u
        problem = DesignProblem(**json.loads((INPUTS / f"{name}_problem.json").read_text()))

        def triangular_model(p, problem):
            # a flagged p raises IllConditionedError here, as from _model
            model = _model(p, problem)
            phi = build_phi(BasisConfig(p=p, num_funcs=model.k1), problem.delta,
                            problem.n_samples)
            t = np.arange(problem.n_samples) * problem.delta
            delayed = eval_basis_matrix(
                BasisConfig(p=p, num_funcs=problem.i_order + 1), t - problem.tau_guess
            )
            model.projector = solve_triangular(phi.r, phi.q.T @ delayed, lower=False)
            model.r_inv = solve_triangular(phi.r, np.eye(model.k1), lower=False)
            return model

        def objective(design):
            model = triangular_model(design.p, problem)
            t_inv = inverse_toeplitz(design.u, problem.k_model + 1)
            return float(model.mse(design.u, t_inv, problem.noise_var))

        got = optimize_design(problem)
        monkeypatch.setattr(design_module, "_model", triangular_model)
        want = optimize_design(problem)
        assert abs(got.p - want.p) <= 1e-8 * want.p
        assert np.max(np.abs(got.u - want.u)) <= 1e-12
        got_objective = markov_mse(got, problem.k_model, problem.noise_var, problem.tau_guess,
                                   n_samples=problem.n_samples).mse
        assert abs(got_objective - objective(want)) <= 1e-12 * objective(want)

    def test_unusable_p_inside_the_bracket(self, monkeypatch):
        # the p bracket of the only usable grid point, [1, 1e6], reaches far
        # into the ill-conditioned range, where the objective is infinite
        seen = []

        def recording_model(p, problem):
            try:
                model = _model(p, problem)
            except IllConditionedError:
                seen.append(False)
                raise
            seen.append(True)
            return model

        monkeypatch.setattr(design_module, "_model", recording_model)
        grid_problem = tiny_problem(p_grid=np.array([1e3, 1e6]), refine=False)
        grid = optimize_design(grid_problem)
        n_grid = len(seen)
        refined = optimize_design(tiny_problem(p_grid=np.array([1e3, 1e6]), refine=True))
        refine_models = seen[n_grid + len(grid_problem.p_grid) :]
        assert not all(refine_models)

        def objective(design):
            return markov_mse(design, grid_problem.k_model, grid_problem.noise_var,
                              grid_problem.tau_guess, n_samples=grid_problem.n_samples).mse

        assert np.isfinite(objective(refined))
        assert objective(refined) <= objective(grid)

    @pytest.mark.parametrize("name", ["design71", "design72"])
    def test_error_models_built_per_problem(self, name, monkeypatch):
        # 40 grid models plus the refine's; searches clamped to one grid
        # step either side built 96 (7.2) and 83 (7.1) in all, the
        # full-range coefficient searches 64 and 62
        built = []

        def counting_model(p, problem):
            built.append(p)
            return _model(p, problem)

        monkeypatch.setattr(design_module, "_model", counting_model)
        optimize_design(DesignProblem(**json.loads((INPUTS / f"{name}_problem.json").read_text())))
        assert len(built) <= 70

    @pytest.mark.parametrize("problem", [
        pytest.param(DesignProblem(**json.loads((INPUTS / "design72_problem.json").read_text())),
                     id="design72"),
        pytest.param(DesignProblem(**json.loads((INPUTS / "design71_problem.json").read_text())),
                     id="design71"),
        pytest.param(tiny_problem(refine=True), id="tiny"),
        pytest.param(tiny_problem(refine=True, tau_guess=4e-3, noise_var=1e-4), id="I3-tau4e-3"),
        pytest.param(tiny_problem(refine=True, tau_guess=1e-3, noise_var=1e-4, k_model=12),
                     id="I3-K12"),
        pytest.param(tiny_problem(refine=True, i_order=5, tau_guess=4e-3, noise_var=1e-4),
                     id="I5-tau4e-3"),
        pytest.param(tiny_problem(refine=True, i_order=5, tau_guess=1e-3, noise_var=1e-4,
                                  k_model=12), id="I5-K12"),
    ])
    def test_no_single_grid_step_improves(self, problem):
        # p times or divided by the grid ratio, or one interior odd
        # coefficient plus or minus one coefficient grid step, clipped to
        # its range on the energy sphere; the last three refine to nonzero
        # interior coefficients
        design = optimize_design(problem)
        grid = problem.p_grid
        ratio = (grid[-1] / grid[0]) ** (1.0 / (len(grid) - 1))
        half = problem.energy_bound / 2.0
        step = np.sqrt(half) / problem.u_grid_points

        def objective(p, odds):
            try:
                model = _model(p, problem)
            except IllConditionedError:
                return np.inf
            u = _coefficients(odds, problem)
            return float(model.mse(u, inverse_toeplitz(u, problem.k_model + 1),
                                   problem.noise_var))

        odds = design.u[1:-1:2]
        moves = [(design.p * ratio, odds), (design.p / ratio, odds)]
        for j in range(odds.size):
            rest = np.delete(odds, j)
            # just inside the range's end, as Brent's points are, so that
            # u_0 > 0
            top = np.sqrt(half - rest @ rest) * (1 - 1e-6)
            for sign in (-1.0, 1.0):
                trial = odds.copy()
                trial[j] = np.clip(odds[j] + sign * step, 0.0, top)
                moves.append((design.p, trial))
        refined = objective(design.p, odds)
        assert refined - min(objective(*move) for move in moves) <= REFINE_REL_TOL * refined


class TestScaleOfTheInput:
    MODEL_PROBLEM = tiny_problem()

    @pytest.fixture(scope="class")
    def model(self):
        return _model(35.0, self.MODEL_PROBLEM)

    @settings(max_examples=100, deadline=None)
    @given(
        # the rounding of c u grows through T(v) as o_1 / u_0 does: the
        # bias moved by at most 6.5e-14 relative in 3000 draws up to 0.6,
        # 4.5e-13 between 0.7 and 0.8
        fraction=st.floats(0.0, 0.6),
        # from 1e-30, where c u and its T(v) stay normal floats
        c=st.floats(1e-30, 1.0),
    )
    def test_bias_scale_free_and_noise_falls_as_inverse_square(self, model, fraction, c):
        # mse = bias'bias + noise_var sum(G^2): at c u the bias term is that
        # of u and the noise term is 1 / c^2 times it, so the optimum under
        # an energy bound lies on the sphere u'u = eta
        problem = self.MODEL_PROBLEM
        u = _coefficients(np.array([fraction * np.sqrt(problem.energy_bound / 2.0)]), problem)

        def terms(x):
            bias, g = model.errors(x, inverse_toeplitz(x, model.k1))
            return bias @ bias, np.sum(g * g)

        bias, noise = terms(u)
        bias_c, noise_c = terms(c * u)
        assert abs(bias_c - bias) <= 1e-12 * bias
        assert abs(c * c * noise_c - noise) <= 1e-12 * noise
        assert model.mse(c * u, inverse_toeplitz(c * u, model.k1), 0.01) == pytest.approx(
            bias + 0.01 * noise / (c * c), rel=1e-12)


class TestTimeScale:
    SEC72 = DesignProblem(delta=3e-4, n_samples=1667, i_order=3, energy_bound=2.0,
                          tau_guess=3e-4, noise_var=0.01, k_model=12)

    @pytest.mark.parametrize("j", [-20, -5, 5, 20])
    def test_scaled_problem_gives_the_scaled_design(self, sec72_design, j):
        # the section 7.2 problem with time scaled by a = 4^j: delta and
        # tau_guess by a, the p grid by 1 / a, and noise_var by 1 / a, which
        # holds the noise term of the Markov MSE (R^-1 grows as a^(1/2)); all
        # exact in floating point, so p a, u and the objective are bitwise
        # those at a = 1 (sec72_design is the design of SEC72)
        a = 4.0**j
        base = self.SEC72
        problem = dataclasses.replace(
            base, delta=base.delta * a, tau_guess=base.tau_guess * a,
            noise_var=base.noise_var / a, p_grid=base.p_grid / a,
        )
        got = optimize_design(problem)
        assert got.p * a == sec72_design.p
        assert got.u.tobytes() == sec72_design.u.tobytes()

        def objective(design, pr):
            return markov_mse(design, pr.k_model, pr.noise_var, pr.tau_guess,
                              n_samples=pr.n_samples).mse

        assert objective(got, problem) == objective(sec72_design, base)


class TestBatchedObjective:
    @pytest.mark.parametrize("section", sorted(SECTION7_PROBLEMS))
    def test_matches_scalar_oracle(self, section):
        sampling, usable_expected = SECTION7_PROBLEMS[section]
        problem = DesignProblem(i_order=3, energy_bound=2.0, noise_var=0.01, **sampling)
        cand_u = _candidates(problem)
        assert len(cand_u) == 25
        t_inv = inverse_toeplitz(cand_u, problem.k_model + 1)
        usable = 0
        for p in problem.p_grid:
            try:
                model = _model(float(p), problem)
            except IllConditionedError:
                continue
            usable += 1
            batched = model.mse(cand_u, t_inv, problem.noise_var)
            oracle = ScalarObjective(float(p), problem)
            scalar = np.array([oracle.mse(u) for u in cand_u])
            rel = np.abs(batched - scalar) / np.abs(scalar)
            assert rel.max() <= 1e-10, (p, rel.max())
            assert np.argmin(batched) == np.argmin(scalar)
        assert usable == usable_expected

    @pytest.mark.parametrize("section", sorted(SECTION7_PROBLEMS))
    def test_equals_per_p_route_bitwise(self, section):
        # the route that rebuilt every candidate's T(v) inside each per-p model
        def per_p_mse(model, u, noise_var):
            t_inv = build_toeplitz(reciprocal_series(u, model.k1), model.k1)
            bias = np.einsum("...ij,...j->...i", t_inv, u @ model.projector.T) - model.h_true
            g = t_inv @ model.r_inv
            return np.einsum("...i,...i->...", bias, bias) + noise_var * np.einsum(
                "...ij,...ij->...", g, g
            )

        sampling, usable_expected = SECTION7_PROBLEMS[section]
        problem = DesignProblem(i_order=3, energy_bound=2.0, noise_var=0.01, **sampling)
        cand_u = _candidates(problem)
        t_inv = inverse_toeplitz(cand_u, problem.k_model + 1)
        usable = 0
        for p in problem.p_grid:
            try:
                model = _model(float(p), problem)
            except IllConditionedError:
                continue
            usable += 1
            want = per_p_mse(model, cand_u, problem.noise_var)
            assert np.array_equal(model.mse(cand_u, t_inv, problem.noise_var), want), p
        assert usable == usable_expected

    @pytest.mark.parametrize("section", sorted(SECTION7_PROBLEMS))
    def test_candidates_t_inv_built_once_per_problem(self, section, monkeypatch):
        calls = []

        def counting(u, size):
            calls.append((len(u), size))
            return inverse_toeplitz(u, size)

        monkeypatch.setattr(design_module, "inverse_toeplitz", counting)
        sampling, _ = SECTION7_PROBLEMS[section]
        optimize_design(DesignProblem(i_order=3, energy_bound=2.0, noise_var=0.01,
                                      refine=False, **sampling))
        assert calls == [(25, sampling["k_model"] + 1)]

    def test_single_candidate_matches_its_batch_row(self):
        problem = tiny_problem()
        model = _model(35.0, problem)
        cand_u = _candidates(problem)
        batched = model.mse(cand_u, inverse_toeplitz(cand_u, model.k1), problem.noise_var)
        for i, u in enumerate(cand_u):
            single = model.mse(u, inverse_toeplitz(u, model.k1), problem.noise_var)
            assert single == pytest.approx(batched[i], rel=1e-14)


class TestCandidates:
    @pytest.mark.parametrize("i_order", [1, 3, 5])
    @pytest.mark.parametrize("grid_points", [1, 2, 5, 9, 25])
    @pytest.mark.parametrize("eta", [0.37, 2.0, 11.0])
    def test_equal_to_grid_walk(self, i_order, grid_points, eta):
        problem = tiny_problem(i_order=i_order, u_grid_points=grid_points, energy_bound=eta)
        got = _candidates(problem)
        want = loop_candidates(problem)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("i_order, count", [(1, 1), (3, 25), (5, 510)])
    def test_count_independent_of_energy_bound(self, i_order, count):
        # the grid is in units of sqrt(eta / 2), and its rows are kept by an
        # integer test, so no energy bound merges or drops one
        for eta in [1e-30, 2e-26, 0.37, 2.0, 11.0, 2e13, 2e26, 1e30]:
            problem = tiny_problem(i_order=i_order, k_model=6, u_grid_points=25,
                                   energy_bound=eta)
            assert len(_candidates(problem)) == count, eta

    def test_single_input_order_candidate(self):
        # I = 1 has no free coefficient: the one row sqrt(eta / 2) [1, -1]
        for eta in [1e-30, 2.0, 1e30]:
            problem = tiny_problem(i_order=1, k_model=6, u_grid_points=25, energy_bound=eta)
            np.testing.assert_array_equal(_candidates(problem),
                                          [[np.sqrt(eta / 2.0), -np.sqrt(eta / 2.0)]])

    @settings(max_examples=100, deadline=None)
    @given(i_order=st.sampled_from([1, 3, 5]), eta=st.floats(1e-30, 1e30))
    def test_rows_on_the_energy_sphere(self, i_order, eta):
        problem = tiny_problem(i_order=i_order, k_model=6, u_grid_points=25, energy_bound=eta)
        cand_u = _candidates(problem)
        assert len(cand_u) == {1: 1, 3: 25, 5: 510}[i_order]
        energy = np.einsum("ij,ij->i", cand_u, cand_u)
        assert np.all(np.abs(energy / eta - 1.0) <= 1e-12)
        assert np.all(cand_u[:, 0] > 0)

    def test_coefficients_batch_rows_equal_single_rows(self):
        problem = tiny_problem(i_order=5, energy_bound=0.5)
        rng = np.random.default_rng(8)
        # sum o^2 < 2 * 0.35^2 < eta / 2
        odds = rng.uniform(0.0, 0.35, size=(40, 2))
        batch = _coefficients(odds, problem)
        for i in range(40):
            assert np.array_equal(batch[i], _coefficients(odds[i], problem))


class TestDesignLogging:
    def test_per_p_debug_and_summary_info(self, caplog):
        problem = tiny_problem(p_grid=np.array([0.05, 20.0, 35.0, 50.0, 80.0]), refine=True)
        with caplog.at_level(logging.DEBUG, logger="lagdelay.design"):
            design = optimize_design(problem)
        records = [r for r in caplog.records if r.name == "lagdelay.design"]
        debug = [r.getMessage() for r in records if r.levelno == logging.DEBUG]
        info = [r.getMessage() for r in records if r.levelno == logging.INFO]
        assert len(debug) == len(problem.p_grid)
        assert debug[0].startswith("p=0.05 ") and "usable=False" in debug[0]
        for msg in debug[1:]:
            assert "usable=True" in msg and "best_objective=" in msg and "candidate=" in msg
        assert len(info) == 1
        assert "1 of 5 p unusable" in info[0]
        assert f"refined p={design.p:.6g}" in info[0]
        contexts, rounds = re.search(r"with (\d+) refinement contexts in (\d+) rounds$",
                                     info[0]).groups()
        assert int(contexts) > 0
        assert 1 <= int(rounds) < design_module.REFINE_MAX_ROUNDS

    def test_round_cap_reported(self, caplog, monkeypatch):
        # one round gains more than REFINE_REL_TOL here, so the cap ends it
        monkeypatch.setattr(design_module, "REFINE_MAX_ROUNDS", 1)
        with caplog.at_level(logging.INFO, logger="lagdelay.design"):
            optimize_design(tiny_problem(refine=True))
        info = [r.getMessage() for r in caplog.records
                if r.name == "lagdelay.design" and r.levelno == logging.INFO]
        assert info[0].endswith("in 1 rounds (stopped at the 1-round cap)")
