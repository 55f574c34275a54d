"""Exception types shared across the package."""


class KurtdeconvError(Exception):
    """Base class for all package errors."""


class ContractViolationError(KurtdeconvError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(KurtdeconvError, ValueError):
    """Input is too short, constant, or otherwise statistically unusable."""


class DivergenceError(KurtdeconvError, RuntimeError):
    """Adaptive filter coefficients exceeded the divergence guard."""

    def __init__(self, message, pass_index=None, sample_index=None):
        super().__init__(message)
        self.pass_index = pass_index
        self.sample_index = sample_index


class FormatError(KurtdeconvError, ValueError):
    """A file does not conform to the supported WAV/PGM/config format."""
