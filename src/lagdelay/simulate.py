"""Signal synthesis: analytic input construction, exact delay, noisy sampling.

The input has a finite Laguerre spectrum by construction, so its time-domain
values, its delayed values and its derivative are all available in closed
form; no simulation grid is involved.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .basis import BasisConfig, eval_basis_matrix
from .errors import InvalidDatasetError, _require

# Fraction of the input energy that defines its effective support T_u.
SUPPORT_ENERGY_FRACTION = 0.999

# A CSV time stamp t_n may differ from n * delta by this much, relative to
# max(|t_n|, delta).
T_GRID_RTOL = 1e-9


def _json_number(d: dict, key: str, valid=lambda v: True, what="a number",
                 error=ValueError) -> float:
    """d[key] as a float when JSON holds a number there (not a bool) that
    passes ``valid``; else ``error`` names the key."""
    val = d[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not valid(val):
        raise error(f"{key} must be {what}, got {val!r}")
    return float(val)


def _is_json_int(val) -> bool:
    """Whether JSON holds an integer in val: no bool, no fractional part."""
    return not isinstance(val, bool) and (
        isinstance(val, int) or isinstance(val, float) and val.is_integer()
    )


def _json_int(d: dict, key: str, error=ValueError) -> int:
    """d[key] when JSON holds an integer there: no bool, no fractional part."""
    val = d[key]
    if not _is_json_int(val):
        raise error(f"{key} must be an integer, got {val!r}")
    return int(val)


@dataclass(frozen=True, eq=False)
class InputDesign:
    """Designed excitation: coefficient vector u, energy bound, and sampling
    context.  delta and energy_bound (eta in JSON) must be finite and
    positive, horizon and tau_guess finite and nonnegative, u finite and p
    as ``BasisConfig`` requires."""

    p: float
    u: np.ndarray
    energy_bound: float
    horizon: float
    delta: float
    tau_guess: float

    def __post_init__(self):
        _require("positive", delta=self.delta, eta=self.energy_bound)
        _require("nonnegative", horizon=self.horizon, tau_guess=self.tau_guess)
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.u.ndim != 1 or self.u.size == 0 or not np.isfinite(self.u).all():
            raise ValueError(f"u must be a nonempty vector of finite numbers, got {self.u!r}")
        BasisConfig(p=self.p, num_funcs=self.u.size)  # its rules on p
        if self.u[0] <= 0:
            raise ValueError("leading input coefficient must be positive")
        if (energy := energy_over(self.u, self.energy_bound)) is not None:
            raise ValueError(
                f"input energy {energy:.6g} exceeds bound {self.energy_bound:.6g}"
            )

    @property
    def basis_config(self) -> BasisConfig:
        return BasisConfig(p=self.p, num_funcs=len(self.u))

    @property
    def n_samples(self) -> int:
        """Samples on [0, horizon]: ``sample_count(horizon, delta)``."""
        return sample_count(self.horizon, self.delta)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "u": self.u.tolist(),
            "eta": self.energy_bound,
            "delta": self.delta,
            "horizon": self.horizon,
            "tau_guess": self.tau_guess,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "InputDesign":
        """The design of a design file or a ``design`` report (whose
        ``config_hash``, ``objective`` and ``constraints`` are not read).
        A value of the wrong JSON type raises ValueError naming its key:
        ``p``, ``eta``, ``horizon``, ``delta`` and ``tau_guess`` are numbers
        (no string or bool), ``u`` is an array of numbers."""
        u = d["u"]
        if not isinstance(u, list) or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in u
        ):
            raise ValueError(f"u must be an array of numbers, got {u!r}")
        return cls(
            p=_json_number(d, "p"),
            u=u,
            energy_bound=_json_number(d, "eta"),
            horizon=_json_number(d, "horizon"),
            delta=_json_number(d, "delta"),
            tau_guess=_json_number(d, "tau_guess"),
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sampled, possibly noisy measurements of the delayed input.  delta
    must be finite and positive, n_samples at least 1 with a finite span
    (n_samples - 1) * delta, noise_var and a given true_tau finite and
    nonnegative (ValueError), and z n_samples finite values
    (InvalidDatasetError)."""

    z: np.ndarray
    delta: float
    n_samples: int
    noise_var: float
    seed: object
    true_tau: float | None = None

    def __post_init__(self):
        # worded as the sidecar rules of dataset_meta.json; NaN fails each test
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be a finite positive number, got {self.delta!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {self.n_samples!r}")
        # Python floats, so that an overflow gives inf without a numpy warning
        if float(self.n_samples - 1) * float(self.delta) == np.inf:
            raise ValueError(
                f"(n_samples - 1) * delta overflows: n_samples {self.n_samples!r}, "
                f"delta {self.delta!r}"
            )
        if not 0 <= self.noise_var < np.inf:
            raise ValueError(f"noise_var must be a finite number >= 0, got {self.noise_var!r}")
        if self.true_tau is not None and not 0 <= self.true_tau < np.inf:
            raise ValueError(
                f"true_tau must be null or a finite number >= 0, got {self.true_tau!r}"
            )
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        if self.z.size != self.n_samples:
            raise InvalidDatasetError(
                f"{self.z.size} samples given but n_samples is {self.n_samples}"
            )
        bad = np.flatnonzero(~np.isfinite(self.z))
        if bad.size:
            raise InvalidDatasetError(f"sample z[{bad[0]}] = {self.z[bad[0]]} is not finite")

    @cached_property
    def t(self) -> np.ndarray:
        """Sample times n * delta, computed once and read-only."""
        t = np.arange(self.n_samples) * self.delta
        t.flags.writeable = False
        return t


def sample_count(horizon: float, delta: float) -> int:
    """Samples on [0, horizon] at step delta: floor(horizon/delta) + 1.
    delta must be finite and positive, horizon finite and nonnegative."""
    _require("positive", delta=delta)
    _require("nonnegative", horizon=horizon)
    steps = horizon / delta
    if steps == np.inf:
        raise ValueError(f"horizon / delta overflows: horizon {horizon!r}, delta {delta!r}")
    return int(np.floor(steps + 1e-9)) + 1


def energy_over(u, eta: float) -> float | None:
    """u'u when it exceeds eta by more than 1e-9 eta (an overflow is inf),
    else None: the one energy rule of an input."""
    with np.errstate(over="ignore"):
        energy = float(u @ u)
    return energy if energy - eta > 1e-9 * eta else None


def continuity_defect(u) -> float:
    """|sum_k u_k| / ||u|| (0 for u = 0): the jump u(0) = sqrt(2p) sum_k u_k
    relative to the input's size, unchanged when u or time is scaled; taken
    on u / max |u_k|, so finite for every finite u.  A jump makes the delayed
    output's spectrum decay slowly, and the truncation bias grows."""
    u = np.asarray(u, dtype=float)
    if not (top := np.abs(u).max()):
        return 0.0
    v = u / top
    return float(abs(v.sum()) / np.linalg.norm(v))


def synthesize_input(design: InputDesign, t) -> float | np.ndarray:
    """Exact u(t) = sum_k u_k ell_k(t); zero for t < 0."""
    vals = eval_basis_matrix(design.basis_config, np.atleast_1d(t)) @ design.u
    return float(vals[0]) if np.isscalar(t) else vals


def input_derivative(design: InputDesign, t) -> float | np.ndarray:
    """Exact du/dt at t (one-sided at t = 0, zero for t < 0).

    The basis obeys ell_j' = -p ell_j - 2p sum_{i<j} ell_i, so u' has the
    finite spectrum d_i = -p u_i - 2p sum_{j>i} u_j.
    """
    u = design.u
    tail = np.append(np.cumsum(u[:0:-1])[::-1], 0.0)  # sum_{j>i} u_j
    d = -design.p * u - 2.0 * design.p * tail
    vals = eval_basis_matrix(design.basis_config, np.atleast_1d(t)) @ d
    return float(vals[0]) if np.isscalar(t) else vals


def sample_delayed(design: InputDesign, tau: float, n_samples: int) -> np.ndarray:
    """Noise-free samples y_n = u(n*delta - tau), exactly zero before tau."""
    _require("nonnegative", tau=tau)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    t = np.arange(n_samples) * design.delta
    return synthesize_input(design, t - tau)


def add_noise(
    y: np.ndarray,
    noise_var: float,
    seed,
    *,
    delta: float,
    true_tau: float | None = None,
) -> Dataset:
    """Add i.i.d. Gaussian noise of variance noise_var, deterministic in seed.

    ``seed`` may be an int or a tuple (base_seed, replicate) for
    parallel-safe per-replicate streams.
    """
    _require("nonnegative", noise_var=noise_var)
    y = np.asarray(y, dtype=float)
    if noise_var == 0:
        z = y.copy()
    else:
        rng = np.random.default_rng(seed)
        z = y + np.sqrt(noise_var) * rng.standard_normal(y.size)
    return Dataset(
        z=z,
        delta=delta,
        n_samples=y.size,
        noise_var=noise_var,
        seed=seed,
        true_tau=true_tau,
    )


def make_dataset(
    design: InputDesign,
    tau: float,
    noise_var: float,
    seed,
    n_samples: int | None = None,
) -> Dataset:
    """Simulate one dataset from a design: delay, sample, add noise."""
    n = design.n_samples if n_samples is None else n_samples
    y = sample_delayed(design, tau, n)
    return add_noise(y, noise_var, seed, delta=design.delta, true_tau=tau)


def support_time(design: InputDesign) -> float:
    """Time by which the input has delivered SUPPORT_ENERGY_FRACTION of its
    energy.

    Used as the effective end T_u of the excitation when splitting the
    measurement interval into signal support and delay headroom.
    """
    step = min(design.delta, 0.02 / design.p)
    t = np.arange(0.0, design.horizon + step, step)
    u = synthesize_input(design, t)
    cum = np.cumsum(u * u)
    total = cum[-1]
    if total == 0:
        return 0.0
    idx = int(np.searchsorted(cum, SUPPORT_ENERGY_FRACTION * total))
    return float(t[min(idx, t.size - 1)])


def default_tau_max(design: InputDesign, n_samples: int | None = None) -> float:
    """Headroom end - T_u after the input's effective support, within [10 delta,
    end - delta]; a record of N != ``design.n_samples`` samples ends at (N - 1)
    delta instead of the horizon."""
    end = design.horizon
    if n_samples not in (None, design.n_samples):
        end = (n_samples - 1) * design.delta
    t_u = support_time(design)
    lo = 10.0 * design.delta
    hi = end - design.delta
    return float(min(max(end - t_u, lo), hi))


def save_dataset(ds: Dataset, csv_path, extra_meta: dict | None = None) -> None:
    """Write samples as CSV (t, z at 17 significant digits, CRLF line ends)
    plus a JSON sidecar next to it with the same stem."""
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".json")
    rows = tuple(np.column_stack((ds.t, ds.z)).ravel().tolist())
    # one formatted block, in the bytes of a csv.writer row per sample
    with open(csv_path, "w", newline="") as f:
        f.write("t,z\r\n" + ("%.17g,%.17g\r\n" * ds.n_samples) % rows)
    meta = {
        "delta": ds.delta,
        "n_samples": ds.n_samples,
        "noise_var": ds.noise_var,
        "seed": list(ds.seed) if isinstance(ds.seed, (tuple, list)) else ds.seed,
    }
    if ds.true_tau is not None:
        meta["true_tau"] = ds.true_tau
    if extra_meta:
        meta.update(extra_meta)
    with open(meta_path, "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")


def _read_samples(csv_path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The t and z columns of a dataset CSV: one ``np.loadtxt`` pass when
    that reads every line, else the csv row loop, which names bad lines."""
    try:  # a ValueError, UnicodeDecodeError included, leaves it to the loop
        lines = csv_path.read_text().split("\n")
        if lines[-1] == "":
            lines.pop()
        if lines[:1] == ["t,z"] and len(lines) > 1:
            tz = np.loadtxt(lines[1:], delimiter=",", usecols=(0, 1), comments=None, ndmin=2)
            # loadtxt skips blank lines, which the row loop refuses
            if len(tz) == len(lines) - 1:
                return tuple(tz.T.copy())
    except ValueError:
        pass
    t, z = [], []
    with open(csv_path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise InvalidDatasetError(f"{csv_path}: CSV line 1 is missing, expected the header t,z")
        if header[:2] != ["t", "z"]:
            raise InvalidDatasetError(
                f"{csv_path}: CSV line 1 is {header!r}, expected the header t,z"
            )
        for row in reader:
            if len(row) < 2:
                raise InvalidDatasetError(
                    f"{csv_path}: CSV line {reader.line_num} has {len(row)} field(s), "
                    "expected t and z"
                )
            try:
                t.append(float(row[0]))
                z.append(float(row[1]))
            except ValueError:
                raise InvalidDatasetError(
                    f"{csv_path}: CSV line {reader.line_num} has a field that is not a "
                    f"number: {row[:2]!r}"
                ) from None
    return np.asarray(t), np.asarray(z)


def load_dataset(csv_path) -> Dataset:
    """Round-trip counterpart of save_dataset.

    The sidecar's values go to ``Dataset``, which holds their range rules;
    this reader checks only their JSON types (``delta`` and ``noise_var``
    numbers, ``n_samples`` an integer, ``true_tau`` null or a number,
    ``seed`` an integer, an array of integers or null; a type error is
    worded as the rule) and the CSV.  Raises
    InvalidDatasetError naming the sidecar and its key for a value of the
    wrong type or one that ``Dataset`` refuses, and naming the CSV when it
    has another number of rows than the sidecar's n_samples, and its line
    when it is empty or lacks the t,z header, a row lacks its t or z field
    or has one that is not a number, a sample is not finite or a time stamp
    is off the grid n * delta.
    """
    csv_path = Path(csv_path)
    meta_path = csv_path.with_suffix(".json")
    with open(meta_path) as f:
        meta = json.load(f)

    def refuse(msg):
        return InvalidDatasetError(f"{meta_path}: {msg}")

    true_tau = meta.get("true_tau")
    if true_tau is not None:
        true_tau = _json_number(meta, "true_tau", what="null or a finite number >= 0",
                                error=refuse)
    seed = meta.get("seed")
    if not (seed is None or _is_json_int(seed)
            or isinstance(seed, list) and all(map(_is_json_int, seed))):
        raise refuse(f"seed must be an integer, an array of integers or null, got {seed!r}")
    fields = dict(
        delta=_json_number(meta, "delta", what="a finite positive number", error=refuse),
        n_samples=_json_int(meta, "n_samples", refuse),
        noise_var=_json_number(meta, "noise_var", what="a finite number >= 0", error=refuse),
        seed=tuple(seed) if isinstance(seed, list) else seed,
        true_tau=true_tau,
    )
    t, z = _read_samples(csv_path)
    # sample n is on CSV line n + 2, after the header
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        n = bad[0]
        raise InvalidDatasetError(
            f"{csv_path}: CSV line {n + 2} has sample z[{n}] = {z[n]}, which is not finite"
        )
    try:
        ds = Dataset(z=z, **fields)
    except ValueError as exc:
        raise refuse(exc) from None
    except InvalidDatasetError as exc:  # the CSV's row count is not n_samples
        raise InvalidDatasetError(f"{csv_path}: {exc}") from None
    # written as "not within" so that a NaN time stamp is off the grid too
    off = np.flatnonzero(~(np.abs(t - ds.t) <= T_GRID_RTOL * np.maximum(np.abs(t), ds.delta)))
    if off.size:
        n = off[0]
        raise InvalidDatasetError(
            f"{csv_path}: CSV line {n + 2} has time stamp t[{n}] = {t[n]:.17g}, "
            f"not n * delta = {ds.t[n]:.17g}"
        )
    return ds
