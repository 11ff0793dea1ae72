"""Offline experiment design: pick the Laguerre parameter and input spectrum.

Minimizes the Markov-estimate MSE at a rough delay guess over a grid of
(p, free input coefficients), subject to the sign-pattern, energy and
continuity constraints.  The continuity condition u(0) = 0 reduces, under
the adopted sign convention, to the coefficients summing to zero; with the
paired structure u_{2j} = -u_{2j-1} this pins the final odd coefficient to
-u_0, so it carries no sign constraint of its own.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .basis import (
    DEFAULT_COND_THRESHOLD,
    BasisConfig,
    build_phi,
    eval_basis_matrix,
)
from .delay_ops import Spectrum, build_toeplitz, markov_params, reciprocal_series
from .errors import InfeasibleDesignError
from .simulate import InputDesign

log = logging.getLogger("lagdelay.design")

CONSTRAINT_ATOL = 1e-9
REFINE_REL_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """Grid-search specification for the experiment design."""

    delta: float
    n_samples: int
    i_order: int
    energy_bound: float
    tau_guess: float
    noise_var: float
    k_model: int
    p_grid: np.ndarray = field(default=None)
    u_grid_points: int = 25
    refine: bool = True
    cond_threshold: float = DEFAULT_COND_THRESHOLD

    def __post_init__(self):
        if self.i_order < 1 or self.i_order % 2 == 0:
            raise ValueError("input order I must be odd and >= 1")
        if self.energy_bound <= 0:
            raise ValueError("energy bound must be positive")
        if self.tau_guess < 0:
            raise ValueError("tau_guess must be nonnegative")
        if self.noise_var < 0:
            raise ValueError("noise variance must be nonnegative")
        if self.k_model < max(2, self.i_order):
            raise ValueError("k_model must cover the input order and allow M >= 3")
        if self.p_grid is None:
            object.__setattr__(self, "p_grid", np.geomspace(1.0, 200.0, 40))
        else:
            object.__setattr__(self, "p_grid", np.asarray(self.p_grid, dtype=float))


def validate_constraints(u, eta: float, atol: float = CONSTRAINT_ATOL):
    """Check the design constraints; returns (ok, violation list).

    Checks: u_0 > 0; u_k >= 0 for paired odd k (< I); u_k = -u_{k-1} for
    even k >= 2; total energy <= eta; continuity sum_k u_k = 0 (the final
    odd coefficient is exempt from the sign check because continuity pins
    it to -u_0).
    """
    coeffs = u.coeffs if isinstance(u, Spectrum) else np.asarray(u, dtype=float)
    i_last = coeffs.size - 1
    scale = max(1.0, float(np.linalg.norm(coeffs)))
    violations = []
    if coeffs[0] <= 0:
        violations.append("u0_nonpositive")
    for k in range(1, i_last, 2):
        if coeffs[k] < -atol:
            violations.append(f"odd_sign(k={k})")
    for k in range(2, i_last + 1, 2):
        if abs(coeffs[k] + coeffs[k - 1]) > atol * scale:
            violations.append(f"even_pairing(k={k})")
    if coeffs @ coeffs > eta * (1 + 1e-12) + atol:
        violations.append("energy")
    if abs(coeffs.sum()) > atol * scale:
        violations.append("continuity")
    return (not violations, violations)


def _assemble_coefficients(u0: float, odds: np.ndarray, i_order: int) -> np.ndarray:
    """Full coefficient vector from the free variables (continuity built in)."""
    u = np.zeros(i_order + 1)
    u[0] = u0
    for j, val in enumerate(odds):
        u[2 * j + 1] = val
        u[2 * j + 2] = -val
    u[i_order] = -u0
    return u


class _ObjectiveContext:
    """Per-p precomputation; scores a whole batch of candidates at once.

    With the basis factors Phi = QR stored on the sampled basis, the
    noise-free spectrum estimate is linear in u (``projector``) and the
    estimate covariance is noise_var T^{-1}(U) R^{-1} R^{-T} T^{-T}(U).
    T^{-1}(U) is applied as T(v), v the reciprocal power series of u.
    """

    def __init__(self, p: float, problem: DesignProblem):
        self.p = p
        k1 = problem.k_model + 1
        cfg = BasisConfig(p=p, num_funcs=k1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            phi = build_phi(cfg, problem.delta, problem.n_samples, problem.cond_threshold)
        self.cond = phi.cond
        self.usable = not phi.ill_conditioned
        if not self.usable:
            return
        t = np.arange(problem.n_samples) * problem.delta
        cfg_in = BasisConfig(p=p, num_funcs=problem.i_order + 1)
        delayed = eval_basis_matrix(cfg_in, t - problem.tau_guess)
        # spectrum of the noise-free delayed input is linear in u
        self.projector = solve_triangular(phi.r, phi.q.T @ delayed, lower=False)
        self.r_inv = solve_triangular(phi.r, np.eye(k1), lower=False)
        self.h_true = markov_params(2.0 * p * problem.tau_guess, k1).values
        self.noise_var = problem.noise_var
        self.k1 = k1

    def mse(self, u: np.ndarray) -> np.ndarray:
        """Markov-estimate MSE of each candidate; u has shape (..., I + 1)."""
        t_inv = build_toeplitz(reciprocal_series(u, self.k1), self.k1)
        bias = np.einsum("...ij,...j->...i", t_inv, u @ self.projector.T) - self.h_true
        g = t_inv @ self.r_inv
        return np.einsum("...i,...i->...", bias, bias) + self.noise_var * np.einsum(
            "...ij,...ij->...", g, g
        )


def _candidate_free_vars(problem: DesignProblem):
    """Deterministic list of (u0, odds) free-variable tuples after the
    continuity and energy-ball projections, duplicates removed."""
    root = np.sqrt(problem.energy_bound)
    axis = np.linspace(0.0, root, problem.u_grid_points)
    n_pairs = (problem.i_order - 1) // 2
    seen = set()
    out = []
    grids = [axis] * (2 + n_pairs)  # u0 raw, uI raw, interior odds
    mesh = np.meshgrid(*grids, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    for row in flat:
        u0 = (row[0] - row[1]) / 2.0  # continuity projection of (u0, uI)
        if u0 <= 0:
            continue
        odds = row[2:]
        u = _assemble_coefficients(u0, odds, problem.i_order)
        energy = u @ u
        if energy > problem.energy_bound:
            u = u * np.sqrt(problem.energy_bound / energy)
        key = tuple(np.round(u, 12))
        if key in seen:
            continue
        seen.add(key)
        out.append((u[0], u[1 : problem.i_order : 2].copy()))
    return out


def _golden_scalar(fn, lo: float, hi: float, rel_tol: float):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while (b - a) > rel_tol * max(abs(a), abs(b), 1e-12):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def optimize_design(problem: DesignProblem) -> InputDesign:
    """Exhaustive grid search over (p, free coefficients), optionally
    refined by coordinate descent; deterministic first-minimum tie-break.

    Grid points whose sampled basis fails the conditioning screen are
    infeasible (the design is free to move p, unlike the estimator).
    """
    candidates = _candidate_free_vars(problem)
    if not candidates:
        raise InfeasibleDesignError(
            "the coefficient grid has no candidate with u_0 > 0; raise u_grid_points"
        )
    cand_u = np.array(
        [_assemble_coefficients(u0, odds, problem.i_order) for u0, odds in candidates]
    )
    best = None  # (objective, cand_index, p, u0, odds)
    unusable = 0
    for p in problem.p_grid:
        ctx = _ObjectiveContext(float(p), problem)
        if not ctx.usable:
            unusable += 1
            log.debug("p=%.6g cond(R)=%.4e usable=False", p, ctx.cond)
            continue
        objs = ctx.mse(cand_u)
        ci = int(np.argmin(objs))
        log.debug(
            "p=%.6g cond(R)=%.4e usable=True best_objective=%.6e candidate=%d",
            p, ctx.cond, objs[ci], ci,
        )
        if best is None or objs[ci] < best[0]:
            u0, odds = candidates[ci]
            best = (float(objs[ci]), ci, float(p), u0, odds)
    if best is None:
        raise InfeasibleDesignError(
            "no grid point satisfies the constraints with a usable basis; "
            "revise the grids, energy bound or conditioning threshold"
        )

    obj, ci, p_star, u0_star, odds_star = best
    grid_obj, grid_p, refine_contexts = obj, p_star, 0
    if problem.refine:
        p_star, u0_star, odds_star, obj, refine_contexts = _refine(
            problem, p_star, u0_star, odds_star, obj
        )
    log.info(
        "design grid: %d of %d p unusable; best grid point p=%.6g candidate=%d "
        "objective=%.6e; refined p=%.6g objective=%.6e with %d refinement contexts",
        unusable, len(problem.p_grid), grid_p, ci, grid_obj,
        p_star, obj, refine_contexts,
    )

    u = _assemble_coefficients(u0_star, odds_star, problem.i_order)
    energy = u @ u
    if energy > problem.energy_bound:
        u = u * np.sqrt(problem.energy_bound / energy)
    ok, violations = validate_constraints(u, problem.energy_bound)
    if not ok:
        raise InfeasibleDesignError(f"optimizer produced invalid design: {violations}")
    return InputDesign(
        p=p_star,
        u=Spectrum(coeffs=u, p=p_star),
        energy_bound=problem.energy_bound,
        horizon=(problem.n_samples - 1) * problem.delta,
        delta=problem.delta,
        tau_guess=problem.tau_guess,
    )


def _refine(problem, p, u0, odds, obj):
    """Coordinate descent around the best grid point; each coordinate is
    minimized by golden section within one grid spacing.  Also returns the
    number of per-p contexts the descent built."""
    p_ratio = (problem.p_grid[-1] / problem.p_grid[0]) ** (1.0 / max(len(problem.p_grid) - 1, 1))
    root = np.sqrt(problem.energy_bound)
    step = root / max(problem.u_grid_points - 1, 1)
    odds = np.asarray(odds, dtype=float).copy()
    contexts: dict[float, _ObjectiveContext] = {}

    def objective(p_val, u0_val, odds_val):
        ctx = contexts.get(p_val)
        if ctx is None:
            ctx = _ObjectiveContext(p_val, problem)
            contexts[p_val] = ctx
        if not ctx.usable:
            return np.inf
        u = _assemble_coefficients(u0_val, odds_val, problem.i_order)
        energy = u @ u
        if energy > problem.energy_bound:
            u = u * np.sqrt(problem.energy_bound / energy)
        return float(ctx.mse(u))

    for _ in range(20):
        prev = obj
        p, obj = _golden_scalar(
            lambda x: objective(x, u0, odds), p / p_ratio, p * p_ratio, 1e-3
        )
        u0, obj = _golden_scalar(
            lambda x: objective(p, x, odds),
            max(u0 - step, 1e-6 * root),
            min(u0 + step, root),
            1e-4,
        )
        for j in range(odds.size):
            def fn(x, j=j):
                trial = odds.copy()
                trial[j] = x
                return objective(p, u0, trial)

            odds[j], obj = _golden_scalar(
                fn, max(odds[j] - step, 0.0), min(odds[j] + step, root), 1e-4
            )
        if prev - obj <= REFINE_REL_TOL * max(abs(prev), 1e-300):
            break
    return p, u0, odds, obj, len(contexts)
