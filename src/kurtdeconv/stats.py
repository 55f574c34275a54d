"""Kurtosis estimation, recursive moment tracking, and the feedback term.

The cost driving everything here is normalized excess kurtosis

    k = E{y^4} / E^2{y^2} - 3

which is 0 for Gaussian data, positive for super-gaussian (peaky) data and
negative for sub-gaussian (flat) data. ``kurtosis_excess`` removes the
sample mean first; ``batch_kurtosis`` evaluates the raw-moment form on
data assumed zero-mean, which is the exact quantity ``batch_gradient``
differentiates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, NearSingularMomentError

#: Guard threshold on the running second moment, below which the feedback
#: denominator is considered singular and the filter update is skipped.
#: run_adapt and run_adapt2d scale their regressors to an RMS near 1, so
#: there the guard is relative to the input power.
M2_GUARD = 1e-8


def kurtosis_excess(samples) -> float:
    """Excess kurtosis of a sample vector, mean removed first."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {x.size}")
    x = x - x.mean()
    x2 = x * x
    m2 = x2.mean()
    if m2 <= 0.0:
        raise DegenerateInputError("zero-variance input")
    m4 = (x2 * x2).mean()
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


@dataclass(frozen=True)
class MomentState:
    """EWMA estimates of E{y^2} and E{y^4} with smoothing factor beta."""

    m2: float
    m4: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.m2) and np.isfinite(self.m4) and np.isfinite(self.beta)):
            raise ContractViolationError("moment state values must be finite")
        if self.m2 < 0.0 or self.m4 < 0.0:
            raise ContractViolationError("moment estimates must be nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise ContractViolationError(f"beta must lie in [0, 1], got {self.beta}")


def init_moments(block, beta: float) -> MomentState:
    """Moment state seeded with the batch moments of a warm-up block."""
    y = np.asarray(block, dtype=np.float64).ravel()
    if y.size == 0:
        return MomentState(0.0, 0.0, beta)
    y2 = y * y
    return MomentState(float(y2.mean()), float((y2 * y2).mean()), beta)


def update_moments(state: MomentState, y: float) -> MomentState:
    """One EWMA step: m' = beta*m + (1-beta)*y^k for k = 2, 4."""
    y2 = y * y
    b = state.beta
    return MomentState(b * state.m2 + (1.0 - b) * y2, b * state.m4 + (1.0 - b) * y2 * y2, b)


def feedback(state: MomentState, y: float) -> float:
    """Instantaneous kurtosis-gradient feedback 4*[(m2*y^2 - m4)*y] / m2^3.

    Raises NearSingularMomentError when m2 is at or below M2_GUARD; the
    caller is expected to skip the corresponding filter update.
    """
    m2 = state.m2
    if m2 <= M2_GUARD:
        raise NearSingularMomentError(f"second moment {m2!r} at or below guard {M2_GUARD!r}")
    return float(4.0 * ((m2 * y * y - state.m4) * y) / (m2 * m2 * m2))


def batch_gradient(y, windows) -> np.ndarray:
    """Exact batch gradient of the raw-moment kurtosis w.r.t. the taps.

        grad = 4*[E{y^2} E{y^3 x} - E{y^4} E{y x}] / E{y^2}^3

    with every expectation a plain sample average over the batch; y[i] is
    the filter output for regressor window windows[i]. Serves as the
    oracle the online feedback rule is checked against.
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
