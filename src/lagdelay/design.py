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
from dataclasses import dataclass, field, fields

import numpy as np

from .analysis import MarkovErrorModel
from .delay_ops import build_toeplitz, reciprocal_series
from .errors import IllConditionedError, InfeasibleDesignError, _require
from .estimators import minimize_bounded
from .simulate import InputDesign, _json_int, _json_number, sample_count

log = logging.getLogger("lagdelay.design")

CONSTRAINT_ATOL = 1e-9
REFINE_REL_TOL = 1e-4

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
    even k >= 2; total energy <= eta; continuity sum_k u_k = 0 (the final
    odd coefficient is exempt from the sign check because continuity pins
    it to -u_0).  Equalities and signs hold to CONSTRAINT_ATOL.
    """
    coeffs = np.asarray(u, dtype=float)
    i_last = coeffs.size - 1
    scale = max(1.0, float(np.linalg.norm(coeffs)))
    violations = []
    if coeffs[0] <= 0:
        violations.append("u0_nonpositive")
    for k in range(1, i_last, 2):
        if coeffs[k] < -CONSTRAINT_ATOL:
            violations.append(f"odd_sign(k={k})")
    for k in range(2, i_last + 1, 2):
        if abs(coeffs[k] + coeffs[k - 1]) > CONSTRAINT_ATOL * scale:
            violations.append(f"even_pairing(k={k})")
    if coeffs @ coeffs > eta * (1 + 1e-12) + CONSTRAINT_ATOL:
        violations.append("energy")
    if abs(coeffs.sum()) > CONSTRAINT_ATOL * scale:
        violations.append("continuity")
    return (not violations, violations)


def _coefficients(u0, odds, problem: DesignProblem) -> np.ndarray:
    """Coefficient rows from the free variables, continuity built in, scaled
    back onto the energy ball; u0 has shape (...) and odds (..., (I-1)/2)."""
    u0 = np.asarray(u0, dtype=float)
    odds = np.asarray(odds, dtype=float)
    u = np.zeros(u0.shape + (problem.i_order + 1,))
    u[..., 0] = u0
    u[..., 1:-1:2] = odds
    u[..., 2:-1:2] = -odds
    u[..., -1] = -u0
    # the matmul form rounds each row's energy exactly as u @ u does
    energy = (u[..., None, :] @ u[..., :, None])[..., 0, 0]
    over = energy > problem.energy_bound
    return np.where(over[..., None], u * np.sqrt(problem.energy_bound / energy)[..., None], u)


def _candidates(problem: DesignProblem) -> np.ndarray:
    """Candidate coefficient rows: every grid point of (u_0 raw, u_I raw,
    interior odds) with u_0 > 0 after the continuity projection, put on the
    energy ball, duplicates removed in first-occurrence grid order."""
    axis = np.linspace(0.0, np.sqrt(problem.energy_bound), problem.u_grid_points)
    n_free = 2 + (problem.i_order - 1) // 2  # u0 raw, uI raw, interior odds
    raw = np.stack(np.meshgrid(*[axis] * n_free, indexing="ij"), axis=-1).reshape(-1, n_free)
    u0 = (raw[:, 0] - raw[:, 1]) / 2.0  # continuity projection of (u0, uI)
    keep = u0 > 0
    u = _coefficients(u0[keep], raw[keep, 2:], problem)
    # rows compared by their bytes, so 0.0 and -0.0 differ; the stable sort
    # puts each row's first occurrence at the head of its run of equals
    bits = np.round(u, 12).view(np.int64)
    order = np.lexsort(bits.T[::-1])
    ranked = bits[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return u[np.sort(order[head])]


def _model(p: float, problem: DesignProblem) -> MarkovErrorModel:
    return MarkovErrorModel(
        p, problem.k_model, problem.delta, problem.n_samples, problem.tau_guess, problem.i_order
    )


def _t_inv(u: np.ndarray, problem: DesignProblem) -> np.ndarray:
    """T(U)^{-1} = T(v) of each coefficient row, as the error models take it."""
    k1 = problem.k_model + 1
    return build_toeplitz(reciprocal_series(u, k1), k1)


def optimize_design(problem: DesignProblem) -> InputDesign:
    """Exhaustive grid search over (p, free coefficients), optionally
    refined by coordinate descent; deterministic first-minimum tie-break.

    Grid points whose sampled basis fails the conditioning screen are
    infeasible (the design is free to move p, unlike the estimator).
    """
    cand_u = _candidates(problem)
    if not len(cand_u):
        raise InfeasibleDesignError(
            "the coefficient grid has no candidate with u_0 > 0; raise u_grid_points"
        )
    cand_t_inv = _t_inv(cand_u, problem)
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
            "revise the grids or the energy bound"
        )

    obj, ci, p_star = best
    u0_star, odds_star = cand_u[ci, 0], cand_u[ci, 1 : problem.i_order : 2]
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

    u = _coefficients(u0_star, odds_star, problem)
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


def _refine(problem, p, u0, odds, obj):
    """Coordinate descent around the best grid point; each coordinate is
    minimized by bounded Brent within one grid spacing and moves only when
    that beats the current objective.  The p descent keeps u, and so its
    T(v), fixed.  Also returns the number of per-p error models the descent
    built."""
    p_ratio = (problem.p_grid[-1] / problem.p_grid[0]) ** (1.0 / max(len(problem.p_grid) - 1, 1))
    root = np.sqrt(problem.energy_bound)
    step = root / max(problem.u_grid_points - 1, 1)
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

    def objective(p_val, u0_val, odds_val):
        u = _coefficients(u0_val, odds_val, problem)
        return score(p_val, u, _t_inv(u, problem))

    def descend(fn, x, f_x, lo, hi, rtol):
        # x lies in [lo, hi] and fn(x) = f_x is known, so keeping x costs no
        # evaluation; it may sit on a bound, which Brent never evaluates
        x_new, f_new, _ = minimize_bounded(fn, lo, hi, rtol * max(abs(lo), abs(hi)))
        return (x_new, f_new) if f_new < f_x else (x, f_x)

    for _ in range(20):
        prev = obj
        u = _coefficients(u0, odds, problem)
        t_inv = _t_inv(u, problem)
        p, obj = descend(
            lambda x: score(x, u, t_inv), p, obj, p / p_ratio, p * p_ratio, 1e-3
        )
        u0, obj = descend(
            lambda x: objective(p, x, odds),
            u0, obj, max(u0 - step, 1e-6 * root), min(u0 + step, root), 1e-4,
        )
        for j in range(odds.size):
            def fn(x, j=j):
                trial = odds.copy()
                trial[j] = x
                return objective(p, u0, trial)

            odds[j], obj = descend(
                fn, odds[j], obj, max(odds[j] - step, 0.0), min(odds[j] + step, root), 1e-4
            )
        if prev - obj <= REFINE_REL_TOL * max(abs(prev), 1e-300):
            break
    return p, u0, odds, obj, len(models)
