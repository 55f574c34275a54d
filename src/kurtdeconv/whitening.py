"""Pre-whitening of the observation: differencing and LPC residuals.

Whitening removes sample-to-sample correlation so the central-limit
argument behind kurtosis maximization applies. The highpass choice is the
plain first difference, which commutes exactly with any LTI degradation
under the zero-initial-state convention used throughout. ``whiten`` applies
a WhitenSpec to a signal or an image.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DegenerateInputError
from .signals import Image2D, Signal1D

WHITEN_KINDS = ("none", "highpass", "lpc")


@dataclass(frozen=True)
class WhitenSpec:
    kind: str = "none"
    order: int = 5

    def __post_init__(self):
        if self.kind not in WHITEN_KINDS:
            raise ContractViolationError(f"unknown whitening kind {self.kind!r}")
        if self.kind == "lpc" and self.order < 1:
            raise ContractViolationError(f"lpc order must be >= 1, got {self.order}")


@dataclass(frozen=True, eq=False)
class LpcModel:
    """Linear predictor x_hat(n) = sum_k coeffs[k-1] * x(n-k)."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ContractViolationError("coeffs must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ContractViolationError("coeffs contain non-finite values")
        roots = np.roots(np.concatenate(([1.0], -arr)))
        if roots.size and np.max(np.abs(roots)) >= 1.0:
            raise ContractViolationError("synthesis filter is unstable (root on or outside unit circle)")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size


def highpass_whiten(x: Signal1D) -> Signal1D:
    """First difference y(n) = x(n) - x(n-1) with y(0) = x(0)."""
    if len(x) < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {len(x)}")
    s = x.samples
    y = np.empty_like(s)
    y[0] = s[0]
    np.subtract(s[1:], s[:-1], out=y[1:])
    return Signal1D(y, sample_rate=x.sample_rate)


def fit_lpc(x: Signal1D, order: int) -> LpcModel:
    """Fit an order-p linear predictor by Levinson-Durbin.

    Uses the biased autocorrelation estimate (divide by the full length),
    which keeps the Toeplitz system positive semidefinite and the
    resulting predictor stable.
    """
    if order < 1:
        raise ContractViolationError(f"order must be >= 1, got {order}")
    s = x.samples
    if s.size <= 10 * order:
        raise DegenerateInputError(f"need more than {10 * order} samples for order {order}, got {s.size}")
    r = np.array([s[: s.size - k] @ s[k:] for k in range(order + 1)]) / s.size
    if r[0] <= 0.0:
        raise DegenerateInputError("zero-energy signal")

    # Levinson-Durbin on the normal equations; a[k] are predictor
    # coefficients, e the running prediction-error power.
    a = np.zeros(order)
    e = r[0]
    for i in range(1, order + 1):
        acc = r[i] - a[: i - 1] @ r[1:i][::-1]
        if e <= 0.0:
            break
        k = acc / e
        a[: i - 1] -= k * a[: i - 1][::-1]
        a[i - 1] = k
        e *= 1.0 - k * k
    return LpcModel(a)


def lpc_whiten(x: Signal1D, model: LpcModel) -> Signal1D:
    """Prediction residual e(n) = x(n) - sum_k a_k x(n-k), zero prefix."""
    s = x.samples
    analysis = np.concatenate(([1.0], -model.coeffs))
    from scipy.signal import lfilter

    return Signal1D(lfilter(analysis, [1.0], s), sample_rate=x.sample_rate)


def highpass_whiten_2d(img: Image2D) -> Image2D:
    """Separable first difference along both axes.

    d(x, y) = g(x, y) - g(x-1, y) - g(x, y-1) + g(x-1, y-1) with zero
    padding before the first row and column; output keeps the input shape.
    """
    if img.height < 2 or img.width < 2:
        raise DegenerateInputError(f"need at least 2x2 pixels, got {img.height}x{img.width}")
    g = img.pixels
    d = g.copy()
    d[1:, :] -= g[:-1, :]
    d[:, 1:] -= g[:, :-1]
    d[1:, 1:] += g[:-1, :-1]
    return Image2D(d)


def whiten(data, spec: WhitenSpec):
    """Whiten a Signal1D or Image2D as spec describes.

    Images support only highpass whitening; asking for lpc on an image
    raises ContractViolationError.
    """
    if spec.kind == "none":
        return data
    if isinstance(data, Image2D):
        if spec.kind == "lpc":
            raise ContractViolationError("lpc whitening is not defined for images")
        return highpass_whiten_2d(data)
    if spec.kind == "highpass":
        return highpass_whiten(data)
    return lpc_whiten(data, fit_lpc(data, spec.order))
