"""Signal synthesis: analytic input construction, exact delay, noisy sampling.

The input has a finite Laguerre spectrum by construction, so its time-domain
values, its delayed values and its derivative are all available in closed
form; no simulation grid is involved.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .basis import BasisConfig, eval_basis_derivative_matrix, eval_basis_matrix
from .errors import InvalidDatasetError

# |u(0)| above this (relative to the coefficient norm) triggers the
# discontinuity warning: a jump at t = tau in the delayed output produces a
# slowly decaying spectrum tail and inflates truncation bias.
CONTINUITY_TOLERANCE = 1e-9

# Fraction of the input energy that defines its effective support T_u.
SUPPORT_ENERGY_FRACTION = 0.999

# A CSV time stamp t_n may differ from n * delta by this much, relative to
# max(|t_n|, delta).
T_GRID_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class InputDesign:
    """Designed excitation: coefficient vector u, energy bound, and sampling
    context.  p, delta and energy_bound (eta in JSON) must be finite and
    positive, horizon and tau_guess finite and nonnegative."""

    p: float
    u: np.ndarray
    energy_bound: float
    horizon: float
    delta: float
    tau_guess: float

    def __post_init__(self):
        for name, val in (("p", self.p), ("delta", self.delta), ("eta", self.energy_bound)):
            if not 0 < val < np.inf:  # NaN too
                raise ValueError(f"{name} must be finite and positive, got {val!r}")
        for name, val in (("horizon", self.horizon), ("tau_guess", self.tau_guess)):
            if not 0 <= val < np.inf:  # NaN too
                raise ValueError(f"{name} must be finite and nonnegative, got {val!r}")
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.u.ndim != 1 or self.u.size == 0:
            raise ValueError(f"u must be a nonempty coefficient vector, got shape {self.u.shape}")
        if self.u[0] <= 0:
            raise ValueError("leading input coefficient must be positive")
        energy = self.u @ self.u
        if energy > self.energy_bound * (1 + 1e-9):
            raise ValueError(
                f"input energy {energy:.6g} exceeds bound {self.energy_bound:.6g}"
            )
        defect = continuity_defect(self)
        if defect > CONTINUITY_TOLERANCE * max(1.0, np.linalg.norm(self.u)):
            warnings.warn(
                f"input does not vanish at t = 0 (u(0) = {defect:.3e}); the delayed "
                "output is discontinuous and spectrum truncation bias will grow"
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
        return cls(
            p=float(d["p"]),
            u=d["u"],
            energy_bound=float(d["eta"]),
            horizon=float(d["horizon"]),
            delta=float(d["delta"]),
            tau_guess=float(d["tau_guess"]),
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sampled, possibly noisy measurements of the delayed input."""

    z: np.ndarray
    delta: float
    n_samples: int
    noise_var: float
    seed: object
    true_tau: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        if self.z.size != self.n_samples:
            raise InvalidDatasetError(
                f"{self.z.size} samples given but n_samples is {self.n_samples}"
            )
        if not self.noise_var >= 0:  # NaN too
            raise ValueError(f"noise variance must be nonnegative, got {self.noise_var}")
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
    if not 0 < delta < np.inf:  # NaN too
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if not 0 <= horizon < np.inf:  # NaN too
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon!r}")
    steps = horizon / delta
    if steps == np.inf:
        raise ValueError(f"horizon / delta overflows: horizon {horizon!r}, delta {delta!r}")
    return int(np.floor(steps + 1e-9)) + 1


def continuity_defect(design: InputDesign) -> float:
    """|u(0)| = sqrt(2p) |sum_k u_k| under the adopted sign convention."""
    return float(abs(np.sqrt(2.0 * design.p) * design.u.sum()))


def synthesize_input(design: InputDesign, t) -> float | np.ndarray:
    """Exact u(t) = sum_k u_k ell_k(t); zero for t < 0."""
    vals = eval_basis_matrix(design.basis_config, np.atleast_1d(t)) @ design.u
    return float(vals[0]) if np.isscalar(t) else vals


def input_derivative(design: InputDesign, t) -> float | np.ndarray:
    """Exact du/dt at t (one-sided at t = 0, zero for t < 0)."""
    vals = eval_basis_derivative_matrix(design.basis_config, np.atleast_1d(t)) @ design.u
    return float(vals[0]) if np.isscalar(t) else vals


def sample_delayed(design: InputDesign, tau: float, n_samples: int) -> np.ndarray:
    """Noise-free samples y_n = u(n*delta - tau), exactly zero before tau."""
    if not 0 <= tau < np.inf:  # NaN too
        raise ValueError(f"delay must be finite and nonnegative, got {tau}")
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
    if not noise_var >= 0:  # NaN too
        raise ValueError(f"noise variance must be nonnegative, got {noise_var}")
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

    Raises InvalidDatasetError when the CSV is empty or lacks the t,z
    header, a CSV row lacks its t or z field or has one that is not a
    number, a time stamp is off the grid n * delta, a sample is not finite
    or the CSV has another number of rows than the sidecar's n_samples.
    """
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(".json")) as f:
        meta = json.load(f)
    t, z = _read_samples(csv_path)
    delta = float(meta["delta"])
    grid = np.arange(t.size) * delta
    # sample n is on CSV line n + 2, after the header; the grid test is
    # written as "not within" so that a NaN time stamp is off the grid too
    off = np.flatnonzero(~(np.abs(t - grid) <= T_GRID_RTOL * np.maximum(np.abs(t), delta)))
    if off.size:
        n = off[0]
        raise InvalidDatasetError(
            f"{csv_path}: CSV line {n + 2} has time stamp t[{n}] = {t[n]:.17g}, "
            f"not n * delta = {grid[n]:.17g}"
        )
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        n = bad[0]
        raise InvalidDatasetError(
            f"{csv_path}: CSV line {n + 2} has sample z[{n}] = {z[n]}, which is not finite"
        )
    seed = meta.get("seed")
    if isinstance(seed, list):
        seed = tuple(seed)
    return Dataset(
        z=z,
        delta=delta,
        n_samples=int(meta["n_samples"]),
        noise_var=float(meta["noise_var"]),
        seed=seed,
        true_tau=meta.get("true_tau"),
    )
