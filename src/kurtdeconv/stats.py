"""Kurtosis estimation, the warm-up moment seed, and the batch gradient.

The cost driving everything here is normalized excess kurtosis

    k = E{y^4} / E^2{y^2} - 3

which is 0 for Gaussian data, positive for super-gaussian (peaky) data and
negative for sub-gaussian (flat) data. ``kurtosis_excess`` removes the
sample mean first; ``batch_kurtosis`` evaluates the raw-moment form on
data assumed zero-mean, which is the exact quantity ``batch_gradient``
differentiates.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, DegenerateInputError
from .signals import _rms_shift

#: Guard threshold on the running second moment, below which the m2^3
#: denominator of the update is taken as singular and the update skipped.
#: run_adapt and run_adapt2d scale their regressors to an RMS near 1, so
#: there the guard is relative to the input power.
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


def batch_kurtosis(samples) -> float:
    """Raw-moment excess kurtosis mean(y^4)/mean(y^2)^2 - 3 (no demeaning)."""
    y = np.asarray(samples, dtype=np.float64).ravel()
    if y.size < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {y.size}")
    y2 = y * y
    m2 = y2.mean()
    if m2 <= 0.0:
        raise DegenerateInputError("zero-energy input")
    return float((y2 * y2).mean() / (m2 * m2) - 3.0)


def init_moments(block) -> np.ndarray:
    """[m2, m4]: the batch moments E{y^2} and E{y^4} of a warm-up block,
    zeros for an empty block."""
    y = np.asarray(block, dtype=np.float64).ravel()
    if y.size == 0:
        return np.zeros(2)
    y2 = y * y
    return np.array([y2.mean(), (y2 * y2).mean()])


def batch_gradient(y, windows) -> np.ndarray:
    """Exact batch gradient of the raw-moment kurtosis w.r.t. the taps.

        grad = 4*[E{y^2} E{y^3 x} - E{y^4} E{y x}] / E{y^2}^3

    with every expectation a plain sample average over the batch; y[i] is
    the filter output for regressor window windows[i]. Serves as the
    oracle the online update rule is checked against.
    """
    yv = np.asarray(y, dtype=np.float64).ravel()
    X = np.asarray(windows, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != yv.size:
        raise ContractViolationError(f"windows shape {X.shape} does not match {yv.size} outputs")
    y2 = yv * yv
    m2 = y2.mean()
    if m2 <= 0.0:
        raise DegenerateInputError("zero-energy output batch")
    m4 = (y2 * y2).mean()
    ey3x = (yv * y2) @ X / yv.size
    eyx = yv @ X / yv.size
    return 4.0 * (m2 * ey3x - m4 * eyx) / m2**3
