"""Exception types shared across the package, and the one rule for a count."""
import operator


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


def _count(value, name: str) -> int:
    """The rule every count a spec or a function takes is read through
    before its lower bound: value as an int by operator.index (an int or a
    numpy int, not a float such as 2.0), else a ContractViolationError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ContractViolationError(f"{name} must be a whole number, got {value!r}") from None
