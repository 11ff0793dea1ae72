"""Exception and warning types shared across the package."""


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


class IllConditionedWarning(UserWarning):
    """Emitted when a freshly built sampled basis crosses the condition
    threshold; the basis is still returned but flagged."""


class SingularInputError(LagDelayError):
    """Input spectrum has u_0 = 0, so the triangular input operator is
    singular and the Markov parameters cannot be recovered."""


class DegenerateBError(LagDelayError):
    """All Markov parameters entering the regressor vector are (near) zero;
    the closed-form delay ratio is undefined."""


class ZeroInformationError(LagDelayError):
    """The input derivative carries no energy at the sample instants, so the
    variance lower bound is infinite."""


class FlatCorrelationError(LagDelayError):
    """Cross-correlation between data and reference input is constant;
    the data carry no alignment information."""


class InvalidDatasetError(LagDelayError):
    """Measurements are unusable: a sample is not finite, the sample count
    does not match the data length, or a stored time stamp is off the
    sampling grid n * delta."""


class InfeasibleDesignError(LagDelayError):
    """No candidate in the design grid satisfies every constraint."""


class NoImprovementWarning(UserWarning):
    """Local refinement failed to improve on the best grid point; the grid
    value is returned instead."""
