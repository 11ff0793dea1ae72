"""Design-module tests: constraint checks, grid optimizer contracts."""

import logging
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from lagdelay.analysis import markov_mse
from lagdelay.basis import BasisConfig, build_phi, eval_basis_matrix
from lagdelay.delay_ops import Spectrum, build_toeplitz, markov_params
from lagdelay.design import (
    DesignProblem,
    _ObjectiveContext,
    _assemble_coefficients,
    _candidate_free_vars,
    optimize_design,
    validate_constraints,
)
from lagdelay.errors import InfeasibleDesignError


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


def candidate_matrix(problem: DesignProblem) -> np.ndarray:
    return np.array([
        _assemble_coefficients(u0, odds, problem.i_order)
        for u0, odds in _candidate_free_vars(problem)
    ])


class ScalarObjective:
    """The candidate-at-a-time objective: its own QR of Phi, forward
    substitution with T(U) for the bias and for T^{-1}(U) R^{-1}."""

    def __init__(self, p: float, problem: DesignProblem):
        self.p = p
        k1 = problem.k_model + 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            phi = build_phi(BasisConfig(p=p, num_funcs=k1), problem.delta, problem.n_samples)
        t = np.arange(problem.n_samples) * problem.delta
        cfg_in = BasisConfig(p=p, num_funcs=problem.i_order + 1)
        delayed = eval_basis_matrix(cfg_in, t - problem.tau_guess)
        q, r = np.linalg.qr(phi.matrix)
        self.projector = solve_triangular(r, q.T @ delayed, lower=False)
        self.r_inv = solve_triangular(r, np.eye(k1), lower=False)
        self.h_true = markov_params(2.0 * p * problem.tau_guess, k1).values
        self.noise_var = problem.noise_var
        self.k1 = k1

    def mse(self, u: np.ndarray) -> float:
        t_u = build_toeplitz(Spectrum(u, self.p), self.k1)
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


class TestOptimizeDesign:
    def test_returned_design_passes_constraints(self):
        design = optimize_design(tiny_problem())
        ok, violations = validate_constraints(design.u, design.energy_bound)
        assert ok, violations
        from lagdelay.simulate import continuity_defect

        assert continuity_defect(design) < 1e-10

    def test_argmin_contract(self):
        problem = tiny_problem()
        design = optimize_design(problem)
        best = markov_mse(
            design, problem.k_model, problem.noise_var, problem.tau_guess,
            n_samples=problem.n_samples,
        ).mse
        # returned objective beats every evaluated grid candidate
        for p in problem.p_grid:
            ctx = _ObjectiveContext(float(p), problem)
            if not ctx.usable:
                continue
            for u0, odds in _candidate_free_vars(problem):
                u = _assemble_coefficients(u0, odds, problem.i_order)
                assert best <= ctx.mse(u) * (1 + 1e-9)

    def test_deterministic(self):
        a = optimize_design(tiny_problem())
        b = optimize_design(tiny_problem())
        assert a.p == b.p
        assert np.array_equal(a.u.coeffs, b.u.coeffs)

    def test_fast_objective_matches_public_op(self):
        problem = tiny_problem()
        ctx = _ObjectiveContext(35.0, problem)
        u = _assemble_coefficients(0.9, np.array([0.3]), 3)
        fast = ctx.mse(u)
        from lagdelay.delay_ops import Spectrum
        from lagdelay.simulate import InputDesign

        design = InputDesign(
            p=35.0,
            u=Spectrum(u, 35.0),
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

    def test_infeasible_when_coefficient_grid_is_empty(self):
        # one grid point per axis leaves only u_0 = 0, which the grid drops
        with pytest.raises(InfeasibleDesignError):
            optimize_design(tiny_problem(u_grid_points=1))

    def test_infeasible_when_every_p_ill_conditioned(self):
        problem = tiny_problem(p_grid=np.array([0.05]), k_model=12, n_samples=200)
        with pytest.raises(InfeasibleDesignError):
            optimize_design(problem)

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


class TestBatchedObjective:
    @pytest.mark.parametrize("section", sorted(SECTION7_PROBLEMS))
    def test_matches_scalar_oracle(self, section):
        sampling, usable_expected = SECTION7_PROBLEMS[section]
        problem = DesignProblem(i_order=3, energy_bound=2.0, noise_var=0.01, **sampling)
        cand_u = candidate_matrix(problem)
        assert len(cand_u) == 576
        usable = 0
        for p in problem.p_grid:
            ctx = _ObjectiveContext(float(p), problem)
            if not ctx.usable:
                continue
            usable += 1
            batched = ctx.mse(cand_u)
            oracle = ScalarObjective(float(p), problem)
            scalar = np.array([oracle.mse(u) for u in cand_u])
            rel = np.abs(batched - scalar) / np.abs(scalar)
            assert rel.max() <= 1e-10, (p, rel.max())
            assert np.argmin(batched) == np.argmin(scalar)
        assert usable == usable_expected

    def test_single_candidate_matches_its_batch_row(self):
        problem = tiny_problem()
        ctx = _ObjectiveContext(35.0, problem)
        cand_u = candidate_matrix(problem)
        batched = ctx.mse(cand_u)
        for i, u in enumerate(cand_u):
            assert ctx.mse(u) == pytest.approx(batched[i], rel=1e-14)


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
        contexts = int(info[0].rsplit("with ", 1)[1].split()[0])
        assert contexts > 0
