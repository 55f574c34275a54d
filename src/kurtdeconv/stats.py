"""Scoring statistics: excess kurtosis, correlations, and the warm-up
moment seed.

The cost driving everything here is normalized excess kurtosis

    k = E{y^4} / E^2{y^2} - 3

which is 0 for Gaussian data, positive for super-gaussian (peaky) data and
negative for sub-gaussian (flat) data. ``kurtosis_excess`` removes the
sample mean first. The raw-moment batch kurtosis and its exact gradient
live in the tests, as the oracle for the direction of the online update.

Restorations are also scored by Pearson correlation, which is blind to the
gain, sign and offset that blind deconvolution cannot recover. Each score
first divides its values by a power of two (``_scaled``), exactly, so it
keeps every bit at any power-of-two gain and no sum overflows.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, DegenerateInputError
from .signals import Image2D, Signal1D, _array, _peak_shift

#: Guard threshold on the running second moment, below which the m2^3
#: denominator of the update is taken as singular and the update skipped.
#: run_adapt reads its regressors from a copy of the signal or image
#: scaled to an RMS near 1, so there the guard is relative to the input
#: power.
M2_GUARD = 1e-8


def _scaled(values, out=None) -> np.ndarray:
    """The values of a Signal1D, an Image2D or an array, flattened and
    divided by 2**_peak_shift into out (by default a new array), so that
    every value lies in (-1, 1); at shift 0 this is a plain copy."""
    v = np.asarray(_array(values) if isinstance(values, (Signal1D, Image2D)) else values, dtype=np.float64).ravel()
    out = np.empty(v.size) if out is None else out
    shift = _peak_shift(v) if v.size else 0
    if shift:
        return np.ldexp(v, -shift, out=out)
    out[...] = v
    return out


def kurtosis_excess(samples) -> float:
    """Excess kurtosis of the flattened values, mean removed first."""
    x = _scaled(samples)
    if x.size < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {x.size}")
    x -= x.mean()
    np.square(x, out=x)
    m2 = x.mean()
    if m2 <= 0.0:
        raise DegenerateInputError("zero-variance input")
    np.square(x, out=x)
    m4 = x.mean()
    return float(m4 / (m2 * m2) - 3.0)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and b scaled; a signal paired with an image, or values of
    different sizes, are a ContractViolationError."""
    if len({type(v) for v in (a, b) if isinstance(v, (Signal1D, Image2D))}) > 1:
        raise ContractViolationError("cannot correlate a Signal1D with an Image2D")
    av, bv = _scaled(a), _scaled(b)
    if av.size != bv.size:
        raise ContractViolationError(f"size mismatch: {av.size} vs {bv.size}")
    if av.size == 0:
        raise DegenerateInputError("empty input")
    return av, bv


def _rho(av: np.ndarray, bv: np.ndarray) -> float:
    """Pearson correlation of two scaled arrays, which it centres in place,
    clipped to [-1, 1]."""
    av -= av.mean()
    bv -= bv.mean()
    den = np.sqrt((av @ av) * (bv @ bv))
    if den <= 0.0:
        raise DegenerateInputError("zero-variance input")
    return float(np.clip(av @ bv / den, -1.0, 1.0))


def normalized_correlation(a, b) -> float:
    """Zero-lag Pearson correlation of mean-removed flattened values."""
    return _rho(*_pair(a, b))


class AlignedCorrelation(NamedTuple):
    rho: float
    lag: int
    sign: int


def aligned_correlation(a, b, max_lag: int) -> AlignedCorrelation:
    """Best Pearson correlation over integer lags in [-max_lag, max_lag].

    Positive lag means b is delayed relative to a (b(n) lines up with
    a(n - lag)). Returns the signed correlation at the lag maximizing
    |rho|, together with that lag and the sign of rho; an overlap of zero
    variance is skipped. max_lag may be at most half the length. A lag
    along an image's raster order has no meaning, so an Image2D is a
    ContractViolationError.
    """
    if any(isinstance(v, Image2D) for v in (a, b)):
        raise ContractViolationError("aligned correlation lags samples; an Image2D has none")
    av, bv = _pair(a, b)
    if not 0 <= 2 * max_lag <= av.size:
        raise ContractViolationError(f"max_lag must lie in [0, {av.size // 2}], half the length, got {max_lag}")
    # each overlap is scaled again into a scratch array and centred there:
    # a plain copy, unless the lag dropped every value of magnitude >= 0.5
    scratch = np.empty(av.size), np.empty(bv.size)
    best = None
    for lag in range(-max_lag, max_lag + 1):
        overlap = (av[: av.size - lag], bv[lag:]) if lag >= 0 else (av[-lag:], bv[: bv.size + lag])
        try:
            rho = _rho(*(_scaled(v, out[: v.size]) for v, out in zip(overlap, scratch)))
        except DegenerateInputError:
            continue
        if best is None or abs(rho) > abs(best[0]):
            best = (rho, lag)
    if best is None:
        raise DegenerateInputError("no lag produced a usable overlap")
    rho, lag = best
    return AlignedCorrelation(rho, lag, 1 if rho >= 0.0 else -1)


def init_moments(block) -> np.ndarray:
    """[m2, m4]: the batch moments E{y^2} and E{y^4} of a warm-up block,
    zeros for an empty block."""
    y = np.asarray(block, dtype=np.float64).ravel()
    if y.size == 0:
        return np.zeros(2)
    y2 = y * y
    return np.array([y2.mean(), (y2 * y2).mean()])
