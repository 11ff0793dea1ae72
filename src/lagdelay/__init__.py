"""Subsample time-delay estimation from sampled measurements via continuous
Laguerre spectra: two-step Laguerre-domain estimator, time-domain maximum
likelihood, interpolation baselines, variance bounds, bias prediction,
experiment design, and a seeded Monte-Carlo benchmark harness."""

from .analysis import (
    BenchmarkConfig,
    BiasPrediction,
    McStats,
    MarkovAccuracy,
    MethodStats,
    markov_mse,
    predict_bias_tau,
    run_monte_carlo,
)
from .basis import (
    BasisConfig,
    SampledBasis,
    build_phi,
)
from .delay_ops import (
    assemble_ab,
    build_toeplitz,
    closed_form_delay,
    markov_params,
)
from .design import DesignProblem, optimize_design, validate_constraints
from .errors import (
    DegenerateBError,
    DelayOutOfRangeError,
    FlatCorrelationError,
    IllConditionedError,
    InfeasibleDesignError,
    InvalidDatasetError,
    LagDelayError,
    SingularInputError,
    ZeroInformationError,
)
from .estimators import (
    CrlbReport,
    DelayEstimate,
    ReplicateTables,
    build_replicate_tables,
    crlb,
    estimate_delay,
    estimate_delay_freq_interp,
    estimate_delay_lag_spline,
    estimate_delay_ml,
    estimate_delay_proposed,
    estimate_markov,
    estimate_spectrum_ls,
    ml_negloglik,
)
from .simulate import (
    Dataset,
    InputDesign,
    add_noise,
    load_dataset,
    make_dataset,
    sample_delayed,
    save_dataset,
    synthesize_input,
)

__version__ = "0.1.0"
