"""Pre-whitening of the observation: differencing and LPC residuals.

Whitening removes sample-to-sample correlation so the central-limit
argument behind kurtosis maximization applies. The highpass choice is the
plain first difference, which commutes exactly with any LTI degradation
under the zero-initial-state convention used throughout. ``whiten`` applies
a WhitenSpec to a signal or an image.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ContractViolationError, DegenerateInputError, _count
from .signals import _FILTERS, FilterTaps1D, Image2D, Signal1D, _array, _dot, _Owned, apply_taps

WHITEN_KINDS = ("none", "highpass", "lpc")


@dataclass(frozen=True)
class WhitenSpec:
    kind: str = "none"
    order: int = 5

    def __post_init__(self):
        if self.kind not in WHITEN_KINDS:
            raise ContractViolationError(f"unknown whitening kind {self.kind!r}")
        if _count(self.order, "order") < 1 and self.kind == "lpc":
            raise ContractViolationError(f"lpc order must be >= 1, got {self.order}")
        if self.kind != "lpc" and self.order != 5:
            raise ContractViolationError(f"order is only meaningful for lpc whitening, got {self.order}")


def highpass_whiten(x: Signal1D | Image2D) -> Signal1D | Image2D:
    """First difference along every axis of a Signal1D or an Image2D, zero
    before the first sample, row and column: y(n) = x(n) - x(n-1), or
    d(x, y) = g(x, y) - g(x-1, y) - g(x, y-1) + g(x-1, y-1). One body reads
    the values as rows, a signal as one column, whose corner term is empty.
    The output keeps x's type; any other x is a ContractViolationError."""
    if type(x) not in _FILTERS.values():
        raise ContractViolationError(f"highpass whitening takes a Signal1D or an Image2D, not {type(x).__name__}")
    v = _array(x)
    if min(v.shape) < 2:
        raise DegenerateInputError(f"need at least 2 values along each axis, got shape {v.shape}")
    g = v.reshape(v.shape[0], -1)
    d = np.empty_like(g)
    d[0] = g[0]
    np.subtract(g[1:], g[:-1], out=d[1:])
    d[:, 1:] -= g[:, :-1]
    d[1:, 1:] += g[:-1, :-1]
    return replace(x, **{fields(x)[0].name: _Owned(d.reshape(v.shape))})


highpass_whiten_2d = highpass_whiten  # the name perfbench and the tests call for images


def fit_lpc(x: Signal1D, order: int) -> np.ndarray:
    """The read-only coefficients a of the order-p linear predictor
    x_hat(n) = sum_k a[k-1] x(n-k), fitted by Levinson-Durbin.

    Uses the biased autocorrelation estimate (divide by the full length),
    which keeps the Toeplitz system positive semidefinite and the
    resulting predictor stable. Every sum of products is signals._dot's,
    not BLAS's, so the coefficients keep their bits at any thread count.
    """
    if _count(order, "order") < 1:
        raise ContractViolationError(f"order must be >= 1, got {order}")
    s = x.samples
    if s.size <= 10 * order:
        raise DegenerateInputError(f"need more than {10 * order} samples for order {order}, got {s.size}")
    r = np.array([_dot(s[: s.size - k], s[k:]) for k in range(order + 1)]) / s.size
    if r[0] <= 0.0:
        raise DegenerateInputError("zero-energy signal")

    # Levinson-Durbin on the normal equations; a[k] are predictor
    # coefficients, e the running prediction-error power.
    a = np.zeros(order)
    e = r[0]
    for i in range(1, order + 1):
        if e <= 0.0:
            break
        k = (r[i] - _dot(a[: i - 1], r[1:i][::-1])) / e
        a[: i - 1] -= k * a[: i - 1][::-1]
        a[i - 1] = k
        e *= 1.0 - k * k
    a.setflags(write=False)
    return a


def whiten(data, spec: WhitenSpec):
    """Whiten a Signal1D or Image2D as spec describes; lpc whitening takes
    only a Signal1D (anything else is a ContractViolationError) and returns
    its residual by the fit_lpc predictor a: x filtered by the taps [1, -a]."""
    if spec.kind == "none":
        return data
    if spec.kind == "highpass":
        return highpass_whiten(data)
    if not isinstance(data, Signal1D):
        raise ContractViolationError(f"lpc whitening takes a Signal1D, not {type(data).__name__}")
    return apply_taps(data, FilterTaps1D(np.concatenate(([1.0], -fit_lpc(data, spec.order)))))
