"""Sample-sequence and image containers, FIR/kernel filtering, and the
regressor walk the adaptation core reads.

All containers are immutable value objects: construction copies the data
into a read-only float64 array, so instances can be shared freely between
threads. The walk reads every regressor (the tap window of a sample, the
neighborhood of a pixel) from one zero-padded copy of the data, divided by
a power of two, through a table of tap offsets: indices outside the data
read as zero, so the recursion stays well defined from sample 0, and no
row is copied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ContractViolationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ContractViolationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Signal1D:
    """Finite real-valued sample sequence; sample_rate is metadata only."""

    samples: np.ndarray
    sample_rate: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_array(self.samples, "samples", 1))
        if self.sample_rate is not None and int(self.sample_rate) < 1:
            raise ContractViolationError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class Image2D:
    """Row-major real-valued grayscale grid."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _frozen_array(self.pixels, "pixels", 2))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class FilterTaps1D:
    """FIR coefficients; tap 0 multiplies the current sample, tap k the
    sample k steps in the past."""

    taps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "taps", _frozen_array(self.taps, "taps", 1))

    def __len__(self) -> int:
        return self.taps.size


@dataclass(frozen=True, eq=False)
class Kernel2D:
    """Center-anchored 2-D filter weights; both dimensions must be odd."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights, "weights", 2))
        rows, cols = self.weights.shape
        if rows % 2 == 0 or cols % 2 == 0:
            raise ContractViolationError(f"kernel dimensions must be odd, got {rows}x{cols}")

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]


def _rms_shift(values: np.ndarray) -> int:
    """Exponent k of the power of two nearest the RMS of values (0 if all
    are zero); dividing by 2**k is exact. The squares are summed after an
    exact division by the power of two of max|values|, so they neither
    overflow nor underflow at any finite gain."""
    _, e = np.frexp(max(values.max(), -values.min()))
    scaled = np.ldexp(values, -e)
    mantissa, k = np.frexp(np.sqrt(np.vdot(scaled, scaled) / values.size))
    return int(k + e) - int(0.0 < mantissa < np.sqrt(0.5))


def _walk(values: np.ndarray, shape: tuple[int, int], before: tuple[int, int], order: int, shift: int) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """The regressor rows of the adaptation as (P, off, width, stride, n):
    a walk over one zero-padded copy of values, nothing copied per row.

    values is one line of samples (1-D) or lines of pixels (2-D), each
    width long. P is a flat read-only copy of them divided by 2**shift,
    with before[0] zero lines above and before[1] zero elements in front
    of each line, and zeros after, enough for a shape[0] x shape[1] window
    at every position; a padded line is stride = width + shape[1] - 1
    long. Row r of the walk starts at base(r) = (r // width) * stride +
    r % width, the window's top left for the r-th value in raster order,
    and its element j is P[base(r) + off[j]]: off lists the window's
    positions in raster order (order 1) or reversed (order -1). n counts
    the rows, one per value.
    """
    lines = values.reshape(-1, values.shape[-1])
    H, W = lines.shape
    M, N = shape
    stride = W + N - 1
    P = np.zeros((H + M - 1, stride))
    P[before[0] : before[0] + H, before[1] : before[1] + W] = lines
    np.ldexp(P, -shift, out=P)
    P.setflags(write=False)
    off = (np.arange(M)[:, None] * stride + np.arange(N)).ravel()[::order].copy()
    return P.ravel(), off, W, stride, H * W


def _fir(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal FIR filtering y(n) = sum_k h(k) x(n-k) of the sample array x,
    zero initial state, as many outputs as inputs."""
    return np.convolve(h, x)[: x.size]


def apply_taps(x: Signal1D, taps: FilterTaps1D) -> Signal1D:
    """Causal FIR filtering y(n) = sum_k h(k) x(n-k), zero initial state."""
    return Signal1D(_fir(taps.taps, x.samples), sample_rate=x.sample_rate)


def apply_kernel(img: Image2D, kernel: Kernel2D) -> Image2D:
    """Center-anchored 2-D correlation with zero padding at the borders.

    Output pixel (n, m) is the inner product of the kernel with the
    zero-padded rows x cols neighborhood centered at (n, m), summed over
    the kernel in raster order.
    """
    H, W = img.height, img.width
    padded = np.pad(img.pixels, ((kernel.rows // 2,) * 2, (kernel.cols // 2,) * 2))
    out = np.zeros((H, W))
    term = np.empty((H, W))
    for (i, j), w in np.ndenumerate(kernel.weights):
        np.multiply(padded[i : i + H, j : j + W], w, out=term)
        out += term
    return Image2D(out)


def _array(container) -> np.ndarray:
    """The samples, pixels, taps or weights of a Signal1D, Image2D,
    FilterTaps1D or Kernel2D."""
    if isinstance(container, Signal1D):
        return container.samples
    if isinstance(container, Image2D):
        return container.pixels
    if isinstance(container, FilterTaps1D):
        return container.taps
    return container.weights


def _origin(coeffs: np.ndarray) -> tuple[int, ...]:
    """Where a filter's unit coefficient sits: tap 0 of taps, the center
    of a kernel's (odd-sized) weights."""
    return (0,) if coeffs.ndim == 1 else tuple(n // 2 for n in coeffs.shape)


def _apply(x, f):
    """x filtered by f: apply_taps for FilterTaps1D, apply_kernel for Kernel2D."""
    return apply_kernel(x, f) if isinstance(f, Kernel2D) else apply_taps(x, f)
