"""Restoration scoring: correlations and parameter-recovery errors.

Blind deconvolution recovers the source only up to gain, sign, and shift.
Correlation is affine-invariant by construction; parameter comparisons
first scale the estimated filter so the coefficient that is 1 in the
analytic inverse becomes +1: tap 0 of taps, the center of kernels.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .degrade import DegradeSpec, _slots, true_inverse
from .errors import ContractViolationError, DegenerateInputError
from .signals import FilterTaps1D, Image2D, Kernel2D, Signal1D, _array, _origin


def _flat(values) -> np.ndarray:
    if isinstance(values, (Signal1D, Image2D)):
        values = _array(values)
    return np.asarray(values, dtype=np.float64).ravel()


def normalized_correlation(a, b) -> float:
    """Zero-lag Pearson correlation of mean-removed flattened values."""
    av, bv = _flat(a), _flat(b)
    if av.size != bv.size:
        raise ContractViolationError(f"size mismatch: {av.size} vs {bv.size}")
    av = av - av.mean()
    bv = bv - bv.mean()
    den = np.sqrt((av @ av) * (bv @ bv))
    if den <= 0.0:
        raise DegenerateInputError("zero-variance input")
    return float(np.clip(av @ bv / den, -1.0, 1.0))


class AlignedCorrelation(NamedTuple):
    rho: float
    lag: int
    sign: int


def aligned_correlation(a: Signal1D, b: Signal1D, max_lag: int) -> AlignedCorrelation:
    """Best Pearson correlation over integer lags in [-max_lag, max_lag].

    Positive lag means b is delayed relative to a (b(n) lines up with
    a(n - lag)). Returns the signed correlation at the lag maximizing
    |rho|, together with that lag and the sign of rho.
    """
    if max_lag < 0:
        raise ContractViolationError(f"max_lag must be >= 0, got {max_lag}")
    av, bv = _flat(a), _flat(b)
    if av.size != bv.size:
        raise ContractViolationError(f"size mismatch: {av.size} vs {bv.size}")
    best = None
    for lag in range(-max_lag, max_lag + 1):
        if lag >= 0:
            aa, bb = av[: av.size - lag], bv[lag:]
        else:
            aa, bb = av[-lag:], bv[: bv.size + lag]
        if aa.size < 2:
            continue
        aa = aa - aa.mean()
        bb = bb - bb.mean()
        den = np.sqrt((aa @ aa) * (bb @ bb))
        if den <= 0.0:
            continue
        rho = float(np.clip(aa @ bb / den, -1.0, 1.0))
        if best is None or abs(rho) > abs(best[0]):
            best = (rho, lag)
    if best is None:
        raise DegenerateInputError("no lag produced a usable overlap")
    rho, lag = best
    return AlignedCorrelation(rho, lag, 1 if rho >= 0.0 else -1)


def normalize_taps(taps: FilterTaps1D) -> FilterTaps1D:
    """Scale so the largest-magnitude tap becomes exactly +1."""
    t = taps.taps
    peak = t[np.argmax(np.abs(t))]
    if peak == 0.0:
        raise DegenerateInputError("all-zero filter cannot be normalized")
    return FilterTaps1D(t / peak)


def normalize_kernel(kernel: Kernel2D) -> Kernel2D:
    """Scale the largest-|w| weight to +1 and roll it to the center."""
    w = kernel.weights
    r, c = np.unravel_index(np.argmax(np.abs(w)), w.shape)
    peak = w[r, c]
    if peak == 0.0:
        raise DegenerateInputError("all-zero kernel cannot be normalized")
    centered = np.roll(w / peak, tuple(np.subtract(_origin(w), (r, c))), axis=(0, 1))
    return Kernel2D(centered)


def extract_parameters(spec: DegradeSpec, estimated) -> dict[str, float]:
    """Read identified parameters off an estimated filter: sign times the
    coefficient at each parameter slot of the analytic inverse, divided by
    the unit coefficient, tap 0 of taps or the center of a kernel."""
    if not isinstance(estimated, (FilterTaps1D, Kernel2D)):
        raise ContractViolationError(f"unsupported estimate type {type(estimated).__name__}")
    coeffs = _array(estimated)
    origin = _origin(coeffs)
    unit = coeffs[origin]
    if unit == 0.0:
        raise DegenerateInputError("a filter whose unit coefficient is 0 cannot be scaled")
    out = {}
    for name, (pos, sign) in _slots(spec).items():
        index = np.add(origin, pos)
        if np.size(pos) != coeffs.ndim or not np.all((index >= 0) & (index < coeffs.shape)):
            raise ContractViolationError(f"a {coeffs.shape} filter has no {spec.kind} slot at {pos}")
        out[name] = sign * coeffs[tuple(index)] / unit
    return out


def true_parameters(spec: DegradeSpec) -> dict[str, float]:
    """Identification targets: the parameter slots of the analytic inverse."""
    return extract_parameters(spec, true_inverse(spec))


def parameter_error(spec: DegradeSpec, estimated) -> dict[str, float]:
    """Per-coefficient absolute error |est - true| after normalization."""
    true = true_parameters(spec)
    est = extract_parameters(spec, estimated)
    return {name: abs(est[name] - true[name]) for name in true}
