"""The package's public API: the names ``import lagdelay`` exports."""

import types

import lagdelay

PUBLIC = {
    # analysis
    "BenchmarkConfig", "BiasPrediction", "MarkovAccuracy", "McStats", "MethodStats",
    "markov_mse", "predict_bias_tau", "run_monte_carlo",
    # basis
    "BasisConfig", "SampledBasis", "build_phi",
    # delay_ops: Laguerre-domain quantities are plain arrays
    "assemble_ab", "build_toeplitz", "closed_form_delay", "markov_params",
    # design
    "DesignProblem", "optimize_design", "validate_constraints",
    # errors
    "DegenerateBError", "DelayOutOfRangeError", "FlatCorrelationError", "IllConditionedError",
    "InfeasibleDesignError", "InvalidDatasetError", "LagDelayError", "SingularInputError",
    "ZeroInformationError",
    # estimators
    "CrlbReport", "DelayEstimate", "ReplicateTables", "build_replicate_tables", "crlb",
    "estimate_delay", "estimate_delay_freq_interp", "estimate_delay_lag_spline",
    "estimate_delay_ml", "estimate_delay_proposed", "estimate_markov", "estimate_spectrum_ls",
    "ml_negloglik",
    # simulate
    "Dataset", "InputDesign", "add_noise", "load_dataset", "make_dataset", "sample_delayed",
    "save_dataset", "synthesize_input",
}


def test_public_names_pinned():
    # any name added to or dropped from the package namespace fails here,
    # so an API change shows in the diff of this set; submodules are not
    # names of the API, and which of them are attributes depends on what
    # else has been imported
    exported = {
        name for name, obj in vars(lagdelay).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert exported == PUBLIC
