"""Kurtosis estimation and the warm-up moment seed.

The cost driving everything here is normalized excess kurtosis

    k = E{y^4} / E^2{y^2} - 3

which is 0 for Gaussian data, positive for super-gaussian (peaky) data and
negative for sub-gaussian (flat) data. ``kurtosis_excess`` removes the
sample mean first. The raw-moment batch kurtosis and its exact gradient
live in the tests, as the oracle for the direction of the online update.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .signals import _rms_shift

#: Guard threshold on the running second moment, below which the m2^3
#: denominator of the update is taken as singular and the update skipped.
#: run_adapt reads its regressors from a copy of the signal or image
#: scaled to an RMS near 1, so there the guard is relative to the input
#: power.
M2_GUARD = 1e-8


def kurtosis_excess(samples) -> float:
    """Excess kurtosis of a sample vector, mean removed first."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {x.size}")
    # an exact power-of-two scale keeps the sum and the powers finite and
    # normal at any gain and changes no bit of the ratio
    x = np.ldexp(x, -_rms_shift(x))
    x -= x.mean()
    np.square(x, out=x)
    m2 = x.mean()
    if m2 <= 0.0:
        raise DegenerateInputError("zero-variance input")
    np.square(x, out=x)
    m4 = x.mean()
    return float(m4 / (m2 * m2) - 3.0)


def init_moments(block) -> np.ndarray:
    """[m2, m4]: the batch moments E{y^2} and E{y^4} of a warm-up block,
    zeros for an empty block."""
    y = np.asarray(block, dtype=np.float64).ravel()
    if y.size == 0:
        return np.zeros(2)
    y2 = y * y
    return np.array([y2.mean(), (y2 * y2).mean()])
