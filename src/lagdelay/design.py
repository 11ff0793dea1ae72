"""Offline experiment design: pick the Laguerre parameter and input spectrum.

Minimizes the Markov-estimate MSE at a rough delay guess over a grid of
(p, free input coefficients), subject to the sign-pattern, energy and
continuity constraints.  The continuity condition u(0) = 0 reduces, under
the adopted sign convention, to the coefficients summing to zero; with the
paired structure u_{2j} = -u_{2j-1} this pins the final odd coefficient to
-u_0, so it carries no sign constraint of its own.  The MSE's bias does not
change with the input's scale and its noise term falls as 1/c^2, so the
optimum lies on the energy sphere u'u = eta, where u_0 follows from the
interior odd coefficients: those are the only free coefficients.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import MarkovErrorModel
from .delay_ops import inverse_toeplitz
from .errors import IllConditionedError, InfeasibleDesignError, _require
from .estimators import minimize_bounded
from .simulate import (
    InputDesign, _json_int, _json_number, continuity_defect, energy_over, sample_count,
)

log = logging.getLogger("lagdelay.design")

# signs, pairings and the continuity defect hold to this, relative to ||u||
CONSTRAINT_RTOL = 1e-9
REFINE_REL_TOL = 1e-4
REFINE_MAX_ROUNDS = 20

# Geometric p grid of a problem that gives none, or gives only some keys.
P_GRID_DEFAULT = {"min": 1.0, "max": 200.0, "count": 40}


def _p_grid(spec: dict) -> np.ndarray:
    if unknown := sorted(set(spec) - set(P_GRID_DEFAULT)):
        raise ValueError(f"unknown p_grid key(s) {unknown}")
    spec = {**P_GRID_DEFAULT, **spec}

    def refuse(msg):
        return ValueError(f"p_grid {msg}")

    lo, hi = (_json_number(spec, key, lambda v: 0 < v < np.inf, "a finite positive number",
                           refuse) for key in ("min", "max"))
    count = _json_int(spec, "count", refuse)
    if count < 1:
        raise refuse(f"count must be at least 1, got {count}")
    return np.geomspace(lo, hi, count)


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """Grid-search specification for the experiment design; ``from_dict``
    reads it from a design-problem config."""

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

    def __post_init__(self):
        _require("positive", delta=self.delta, energy_bound=self.energy_bound)
        _require("nonnegative", tau_guess=self.tau_guess, noise_var=self.noise_var)
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {self.n_samples}")
        if self.i_order < 1 or self.i_order % 2 == 0:
            raise ValueError("input order I must be odd and >= 1")
        if self.k_model < max(2, self.i_order):
            raise ValueError("k_model must cover the input order and allow M >= 3")
        if self.u_grid_points < 1:
            raise ValueError(f"u_grid_points must be at least 1, got {self.u_grid_points}")
        grid = _p_grid({}) if self.p_grid is None else np.asarray(self.p_grid, dtype=float)
        # NaN fails both comparisons
        if grid.ndim != 1 or not grid.size or not np.all((grid > 0) & (grid < np.inf)):
            raise ValueError(
                f"p_grid must be a nonempty 1-D array of finite positive numbers, got {grid}"
            )
        object.__setattr__(self, "p_grid", grid)

    @classmethod
    def from_dict(cls, d: dict) -> "DesignProblem":
        """The problem of a design-problem config: ``n_samples`` or else
        ``horizon``; ``p_grid`` as {min, max, count}, any of them absent.
        An unknown key, at the top or in ``p_grid``, or a value of the wrong
        JSON type (a fractional or boolean integer, a non-boolean
        ``refine``) raises ValueError."""
        if unknown := sorted(set(d) - {f.name for f in fields(cls)} - {"horizon"}):
            raise ValueError(f"unknown design-problem key(s) {unknown}")
        delta = _json_number(d, "delta")
        if "n_samples" in d:
            n_samples = _json_int(d, "n_samples")
        else:
            n_samples = sample_count(_json_number(d, "horizon"), delta)
        optional = {"u_grid_points": _json_int(d, "u_grid_points")} if "u_grid_points" in d else {}
        if "refine" in d:
            if not isinstance(d["refine"], bool):
                raise ValueError(f"refine must be true or false, got {d['refine']!r}")
            optional["refine"] = d["refine"]
        return cls(
            delta=delta, n_samples=n_samples, i_order=_json_int(d, "i_order"),
            energy_bound=_json_number(d, "energy_bound"),
            tau_guess=_json_number(d, "tau_guess"), noise_var=_json_number(d, "noise_var"),
            k_model=_json_int(d, "k_model"), p_grid=_p_grid(d.get("p_grid", {})), **optional,
        )


def validate_constraints(u, eta: float):
    """Check the design constraints; returns (ok, violation list).

    Checks: u_0 > 0; u_k >= 0 for paired odd k (< I); u_k = -u_{k-1} for
    even k >= 2; energy by ``energy_over``; continuity sum_k u_k = 0 by
    ``continuity_defect`` (the final odd coefficient is exempt from the sign
    check because continuity pins it to -u_0).  Signs, pairings and the
    defect hold to CONSTRAINT_RTOL relative to ||u||: scale-free.
    """
    coeffs = np.asarray(u, dtype=float)
    i_last = coeffs.size - 1
    tol = CONSTRAINT_RTOL * float(np.linalg.norm(coeffs))
    violations = []
    if coeffs[0] <= 0:
        violations.append("u0_nonpositive")
    for k in range(1, i_last, 2):
        if coeffs[k] < -tol:
            violations.append(f"odd_sign(k={k})")
    for k in range(2, i_last + 1, 2):
        if abs(coeffs[k] + coeffs[k - 1]) > tol:
            violations.append(f"even_pairing(k={k})")
    if energy_over(coeffs, eta) is not None:
        violations.append("energy")
    if continuity_defect(coeffs) > CONSTRAINT_RTOL:
        violations.append("continuity")
    return (not violations, violations)


def _coefficients(odds, problem: DesignProblem) -> np.ndarray:
    """Coefficient rows on the energy sphere from the interior odd
    coefficients, odds of shape (..., (I-1)/2): [u_0, o_1, -o_1, ..., -u_0]
    with u_0 = sqrt(eta/2 - sum o^2), so that sum u = 0 and u'u = eta."""
    odds = np.asarray(odds, dtype=float)
    u = np.zeros(odds.shape[:-1] + (problem.i_order + 1,))
    u[..., 0] = np.sqrt(problem.energy_bound / 2.0 - np.sum(odds * odds, axis=-1))
    u[..., 1:-1:2] = odds
    u[..., 2:-1:2] = -odds
    u[..., -1] = -u[..., 0]
    return u


def _candidates(problem: DesignProblem) -> np.ndarray:
    """Candidate coefficient rows: each interior odd coefficient on the grid
    sqrt(eta/2) k / G, k = 0..G-1 (G = ``u_grid_points``), at every grid
    point strictly inside the sphere (sum k^2 < G^2, so u_0 > 0), in grid
    order with the last coefficient fastest."""
    g = problem.u_grid_points
    n_odds = (problem.i_order - 1) // 2
    k = np.array(list(itertools.product(range(g), repeat=n_odds)), dtype=np.int64)
    k = k.reshape(g**n_odds, n_odds)
    k = k[np.sum(k * k, axis=1) < g * g]
    return _coefficients(np.sqrt(problem.energy_bound / 2.0) * k / g, problem)


def _model(p: float, problem: DesignProblem) -> MarkovErrorModel:
    return MarkovErrorModel(
        p, problem.k_model, problem.delta, problem.n_samples, problem.tau_guess, problem.i_order
    )


def optimize_design(problem: DesignProblem) -> InputDesign:
    """Exhaustive grid search over (p, free coefficients), optionally
    refined by coordinate descent; deterministic first-minimum tie-break.

    Grid points whose sampled basis fails the conditioning screen are
    infeasible (the design is free to move p, unlike the estimator).
    """
    cand_u = _candidates(problem)
    cand_t_inv = inverse_toeplitz(cand_u, problem.k_model + 1)
    best = None  # (objective, cand_index, p)
    unusable = 0
    for p in problem.p_grid:
        try:
            model = _model(float(p), problem)
        except IllConditionedError as exc:
            unusable += 1
            log.debug("p=%.6g cond(R)=%.4e usable=False", p, exc.cond)
            continue
        objs = model.mse(cand_u, cand_t_inv, problem.noise_var)
        ci = int(np.argmin(objs))
        log.debug(
            "p=%.6g cond(R)=%.4e usable=True best_objective=%.6e candidate=%d",
            p, model.cond, objs[ci], ci,
        )
        if best is None or objs[ci] < best[0]:
            best = (float(objs[ci]), ci, float(p))
    if best is None:
        raise InfeasibleDesignError(
            "no grid point satisfies the constraints with a usable basis; "
            "revise the grids or the energy bound (the default p grid is an absolute "
            "1-200 s^-1, so a problem at another time scale must give p_grid)"
        )

    obj, ci, p_star = best
    odds_star = cand_u[ci, 1 : problem.i_order : 2]
    grid_obj, grid_p = obj, p_star
    refine_contexts = rounds = 0
    capped = False
    if problem.refine:
        p_star, odds_star, obj, refine_contexts, rounds, capped = _refine(
            problem, p_star, odds_star, obj
        )
    log.info(
        "design grid: %d of %d p unusable; best grid point p=%.6g candidate=%d "
        "objective=%.6e; refined p=%.6g objective=%.6e with %d refinement contexts "
        "in %d rounds%s",
        unusable, len(problem.p_grid), grid_p, ci, grid_obj,
        p_star, obj, refine_contexts, rounds,
        f" (stopped at the {REFINE_MAX_ROUNDS}-round cap)" if capped else "",
    )

    u = _coefficients(odds_star, problem)
    ok, violations = validate_constraints(u, problem.energy_bound)
    if not ok:
        raise InfeasibleDesignError(f"optimizer produced invalid design: {violations}")
    return InputDesign(
        p=p_star,
        u=u,
        energy_bound=problem.energy_bound,
        horizon=(problem.n_samples - 1) * problem.delta,
        delta=problem.delta,
        tau_guess=problem.tau_guess,
    )


def _refine(problem, p, odds, obj):
    """Coordinate descent around the best grid point.  Each round moves p by
    bounded Brent within one grid ratio either side, then searches each
    interior odd coefficient over its whole range on the sphere,
    [0, sqrt(eta/2 - sum of the others' squares)], and, when that does not
    beat the current objective, over one grid step either side of it,
    clipped to that range; a coordinate moves only when a search beats the
    current objective.  The p descent keeps u, and so its T(v), fixed.
    Stops once a round gains no more than REFINE_REL_TOL relative, or after
    REFINE_MAX_ROUNDS rounds.  Also returns the number of per-p error models
    built, the number of rounds run and whether the round cap ended it."""
    grid = problem.p_grid
    p_ratio = (grid.max() / grid.min()) ** (1.0 / max(grid.size - 1, 1))
    half = problem.energy_bound / 2.0
    step = np.sqrt(half) / problem.u_grid_points
    odds = np.asarray(odds, dtype=float).copy()
    # a p whose basis is refused is cached as None and scores infinite
    models: dict[float, MarkovErrorModel | None] = {}

    def score(p_val, u, t_inv):
        if p_val not in models:
            try:
                models[p_val] = _model(p_val, problem)
            except IllConditionedError:
                models[p_val] = None
        model = models[p_val]
        if model is None:
            return np.inf
        return float(model.mse(u, t_inv, problem.noise_var))

    def descend(fn, x, f_x, lo, hi, xatol):
        # fn(x) = f_x is known, so keeping x costs no evaluation; Brent
        # evaluates only points at least its tolerance inside (lo, hi)
        x_new, f_new, _ = minimize_bounded(fn, lo, hi, xatol)
        return (x_new, f_new) if f_new < f_x else (x, f_x)

    for rounds in range(1, REFINE_MAX_ROUNDS + 1):
        prev = obj
        u = _coefficients(odds, problem)
        t_inv = inverse_toeplitz(u, problem.k_model + 1)
        p_hi = p * p_ratio
        p, obj = descend(lambda x: score(x, u, t_inv), p, obj, p / p_ratio, p_hi, 1e-3 * p_hi)
        for j in range(odds.size):
            def fn(x, j=j):
                trial = odds.copy()
                trial[j] = x
                u = _coefficients(trial, problem)
                return score(p, u, inverse_toeplitz(u, problem.k_model + 1))

            rest = np.delete(odds, j)
            top = np.sqrt(half - rest @ rest)
            # the tolerance is that of a one-step bracket around odds[j]
            xatol = 1e-4 * (odds[j] + step)
            x, f_x = descend(fn, odds[j], obj, 0.0, top, xatol)
            if f_x == obj:
                x, f_x = descend(fn, odds[j], obj, max(odds[j] - step, 0.0),
                                 min(odds[j] + step, top), xatol)
            odds[j], obj = x, f_x
        if prev - obj <= REFINE_REL_TOL * max(abs(prev), 1e-300):
            return p, odds, obj, len(models), rounds, False
    return p, odds, obj, len(models), rounds, True
