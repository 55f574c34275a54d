"""Exception types shared across the package, and the rules for a count and a real."""
import operator

import numpy as np


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
    numpy int, not a bool or a float), else a ContractViolationError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ContractViolationError(f"{name} must be a whole number, got {value!r}")


def _real(value, name: str):
    """The rule every real-valued spec field is read through before its bound:
    value itself if an int, a float or a numpy real, not a bool, else a
    ContractViolationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ContractViolationError(f"{name} must be a real number, got {value!r}")
    return value
