"""Scoring statistics: excess kurtosis and correlations.

The cost driving everything here is normalized excess kurtosis

    k = E{y^4} / E^2{y^2} - 3

which is 0 for Gaussian data, positive for super-gaussian (peaky) data and
negative for sub-gaussian (flat) data. ``kurtosis_excess`` removes the
sample mean first. The raw-moment batch kurtosis and its exact gradient
live in the tests, as the oracle for the direction of the online update.

Restorations are also scored by Pearson correlation, which is blind to the
gain, sign and offset that blind deconvolution cannot recover. Each score
first divides its values by a power of two (``_centred``), exactly, so it
keeps every bit at any power-of-two gain and no sum overflows. No sum goes
to BLAS, whose sums follow its thread count: a correlation's mean squares
are the pairwise means its kurtosis takes, and its mean product is
signals._dot's.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, _count
from .signals import Image2D, Signal1D, _array, _dot, _finite, _peak_shift, _pow2, _scratch

#: Guard on the running second moment, relative to the input power: at or
#: below it the m2^3 denominator is taken as singular and the update is
#: skipped. run_adapt scales it to the power of the regressors it reads.
M2_GUARD = 1e-8


def _values(values) -> np.ndarray:
    """The flattened float64 values of a Signal1D, an Image2D or an array. A
    container was checked when it was built; a non-finite value in an array
    is a ContractViolationError."""
    if isinstance(values, (Signal1D, Image2D)):
        return _array(values).ravel()
    v = np.asarray(values, dtype=np.float64).ravel()
    if not _finite(v):
        raise ContractViolationError("values contain non-finite values")
    return v


def _centred(v: np.ndarray, out=None) -> np.ndarray:
    """The values v divided by 2**_peak_shift, so that every one lies in
    (-1, 1), with their mean removed, in out (by default a new array)."""
    c = _pow2(v, -_peak_shift(v) if v.size else 0, out)
    if c.size:
        c -= c.mean()
    return c


def _kurtosis(c: np.ndarray, out=None) -> tuple[float, float]:
    """Excess kurtosis and mean square of the centred values c, squared
    into out (by default into c itself)."""
    if c.size < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {c.size}")
    q = np.square(c, out=c if out is None else out)
    m2 = q.mean()
    if m2 <= 0.0:
        raise DegenerateInputError("zero-variance input")
    np.square(q, out=q)
    m4 = q.mean()
    return float(m4 / (m2 * m2) - 3.0), m2


def _rho(ab: float, aa: float, bb: float) -> float:
    """Pearson correlation of two centred value sets from the mean of their
    products ab and their mean squares aa and bb, clipped to [-1, 1]."""
    if aa * bb <= 0.0:
        raise DegenerateInputError("zero-variance input")
    return float(np.clip(ab / np.sqrt(aa * bb), -1.0, 1.0))


def _correlation(a: np.ndarray, b: np.ndarray) -> float:
    """_rho of the centred values a and b, which it then squares in place:
    the mean squares are those _kurtosis takes."""
    return _rho(_dot(a, b) / a.size, np.square(a, out=a).mean(), np.square(b, out=b).mean())


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The values of a and b; a signal paired with an image, or values of
    different sizes, are a ContractViolationError."""
    if len({type(v) for v in (a, b) if isinstance(v, (Signal1D, Image2D))}) > 1:
        raise ContractViolationError("cannot correlate a Signal1D with an Image2D")
    av, bv = _values(a), _values(b)
    if av.size != bv.size:
        raise ContractViolationError(f"size mismatch: {av.size} vs {bv.size}")
    if av.size == 0:
        raise DegenerateInputError("empty input")
    return av, bv


def kurtosis_excess(samples) -> float:
    """Excess kurtosis of the flattened values, mean removed first."""
    return _kurtosis(_centred(_values(samples)))[0]


def normalized_correlation(a, b) -> float:
    """Zero-lag Pearson correlation of mean-removed flattened values."""
    return _correlation(*map(_centred, _pair(a, b)))


def _scores(s, x, s_est) -> tuple[float, float, float, float, float]:
    """The excess kurtoses of s, x and s_est and the correlations of x and
    s_est with s, as kurtosis_excess and normalized_correlation give them,
    from s centred once, in scratch slot 0, and slot 1, where x and then
    s_est are centred, their mean product with s taken, and squared. Each
    mean square is the one its kurtosis takes."""
    v = _values(s)
    cs = _centred(v, out=_scratch(0, v.size))
    scratch = _scratch(1, v.size)
    moments, rho = [_kurtosis(cs, out=scratch)], []
    for v in (x, s_est):
        ab = _dot(cs, _centred(_values(v), out=scratch)) / cs.size
        moments.append(_kurtosis(scratch))
        rho.append(_rho(ab, moments[0][1], moments[-1][1]))
    return (*(kurt for kurt, _ in moments), *rho)


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
    if not 0 <= 2 * _count(max_lag, "max_lag") <= av.size:
        raise ContractViolationError(f"max_lag must lie in [0, {av.size // 2}], half the length, got {max_lag}")
    # each overlap is divided by the power of two above its own peak into a
    # scratch array and centred there, as normalized_correlation centres it
    scratch = np.empty(av.size), np.empty(bv.size)
    best = None
    for lag in range(-max_lag, max_lag + 1):
        overlap = (av[: av.size - lag], bv[lag:]) if lag >= 0 else (av[-lag:], bv[: bv.size + lag])
        try:
            rho = _correlation(*(_centred(v, out[: v.size]) for v, out in zip(overlap, scratch)))
        except DegenerateInputError:
            continue
        if best is None or abs(rho) > abs(best[0]):
            best = (rho, lag)
    if best is None:
        raise DegenerateInputError("no lag produced a usable overlap")
    rho, lag = best
    return AlignedCorrelation(rho, lag, 1 if rho >= 0.0 else -1)
