"""Blind deconvolution by maximum-kurtosis adaptive filtering.

Identifies an unknown LTI degrading system by driving an adaptive inverse
filter to maximize the magnitude of the excess kurtosis of the whitened
observation, for 1-D signals and grayscale images, and ships synthetic
degradation engines plus an experiment harness for parameter-recovery
studies.
"""

from .adapt import (
    Adapt2dConfig,
    AdaptConfig,
    AdaptResult,
    SurfaceResult,
    kurtosis_surface,
    run_adapt,
    run_adapt2d,
)
from .degrade import (
    DegradeSpec,
    apply_degradation,
    extract_parameters,
    parameter_error,
    true_inverse,
    true_parameters,
)
from .errors import (
    ContractViolationError,
    DegenerateInputError,
    DivergenceError,
    FormatError,
    KurtdeconvError,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    SourceSpec,
    load_config,
    make_source,
    parse_config,
    run_experiment,
    write_report_csv,
)
from .fileio import read_image, read_wav, rescale_unit, write_image, write_wav
from .signals import (
    FilterTaps1D,
    Image2D,
    Kernel2D,
    Signal1D,
    apply_kernel,
    apply_taps,
    normalize_kernel,
    normalize_taps,
)
from .stats import (
    M2_GUARD,
    AlignedCorrelation,
    aligned_correlation,
    kurtosis_excess,
    normalized_correlation,
)
from .whitening import WhitenSpec, fit_lpc, highpass_whiten, highpass_whiten_2d, whiten

__version__ = "0.1.0"
