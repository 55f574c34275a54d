"""The package's public names: everything a user imports from
``kurtdeconv`` itself. A module may move, but no name may disappear."""
import inspect

import kurtdeconv

PUBLIC = {
    "Adapt2dConfig", "AdaptConfig", "AdaptResult", "SurfaceResult", "kurtosis_surface", "run_adapt", "run_adapt2d",
    "DegradeSpec", "apply_degradation", "extract_parameters", "parameter_error", "true_inverse",
    "true_parameters",
    "ContractViolationError", "DegenerateInputError", "DivergenceError", "FormatError", "KurtdeconvError",
    "ExperimentConfig", "ExperimentReport", "SourceSpec", "load_config", "make_source", "parse_config",
    "run_experiment", "write_report_csv",
    "read_image", "read_wav", "rescale_unit", "write_image", "write_wav",
    "FilterTaps1D", "Image2D", "Kernel2D", "Signal1D", "apply_kernel", "apply_taps", "normalize_kernel", "normalize_taps",
    "M2_GUARD", "AlignedCorrelation", "aligned_correlation", "kurtosis_excess", "normalized_correlation",
    "WhitenSpec", "fit_lpc", "highpass_whiten", "highpass_whiten_2d", "whiten",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(kurtdeconv).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(PUBLIC) == 49
    assert exported == PUBLIC
