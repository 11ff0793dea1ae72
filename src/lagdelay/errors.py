"""Exception types shared across the package, and the range
rule that the constructors of its input types apply."""

import math


def _require(rule: str, **values) -> None:
    """Refuse, by a ValueError naming it, the first of ``values`` that is
    not finite and ``rule``: "positive" (> 0) or "nonnegative" (>= 0); NaN
    is neither."""
    for name, val in values.items():
        if not (0 < val if rule == "positive" else 0 <= val) or not val < math.inf:
            raise ValueError(f"{name} must be finite and {rule}, got {val!r}")


class LagDelayError(Exception):
    """Base class for all estimation-pipeline errors."""


class IllConditionedError(LagDelayError):
    """The sampled basis matrix is too ill-conditioned for least squares.

    Revise the sampling time, the number of samples, or the Laguerre
    parameter before measuring.
    """

    def __init__(self, cond, threshold):
        super().__init__(
            f"sampled basis condition number {cond:.3e} exceeds threshold "
            f"{threshold:.3e}; revise delta, n_samples or p"
        )
        self.cond = cond
        self.threshold = threshold


class SingularInputError(LagDelayError):
    """Input spectrum has u_0 = 0, so the triangular input operator is
    singular and the Markov parameters cannot be recovered."""


class DegenerateBError(LagDelayError):
    """All Markov parameters entering the regressor vector are (near) zero;
    the closed-form delay ratio is undefined."""


class DelayOutOfRangeError(LagDelayError):
    """A Laguerre-domain delay estimate lies outside [-(N-1) delta,
    (N-1) delta], beyond the record it was estimated from, or is NaN."""


class ZeroInformationError(LagDelayError):
    """The input derivative carries no energy at the sample instants, so the
    variance lower bound is infinite."""


class FlatCorrelationError(LagDelayError):
    """Cross-correlation between data and reference input is constant;
    the data carry no alignment information."""


class InvalidDatasetError(LagDelayError):
    """Measurements are unusable: the CSV is empty, lacks its header or has
    a malformed row, a sample is not finite, the sample count does not match
    the data length, or a stored time stamp is off the sampling grid
    n * delta."""


class InfeasibleDesignError(LagDelayError):
    """No candidate in the design grid satisfies every constraint."""
