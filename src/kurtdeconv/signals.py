"""Sample-sequence and image containers, FIR/kernel filtering, and the
regressor matrices the adaptation core reads.

All containers are immutable value objects: construction copies the data
into a read-only float64 array, so instances can be shared freely between
threads. The regressor matrices (one tap window per sample, one flattened
patch per pixel) read indices outside the data as zero, so the recursion
stays well defined from sample 0, and divide the data by a power of two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _tap_windows(x1: Signal1D, L: int, shift: int) -> np.ndarray:
    """Read-only (samples, L) view whose row n is the tap-ordered window
    ending at sample n: element k is x1(n-k) / 2**shift, so it lines up
    with tap k of a FilterTaps1D. Samples before index 0 read as zero."""
    padded = np.concatenate((np.zeros(L - 1), x1.samples))
    np.ldexp(padded, -shift, out=padded)
    return sliding_window_view(padded, L)[:, ::-1]


def _patch_rows(img: Image2D, M: int, N: int, shift: int) -> np.ndarray:
    """Read-only (H*W, M*N) matrix whose row r*W + c is the flattened M x N
    neighborhood centered at pixel (r, c), divided by 2**shift and zero
    outside the image.

    M counts rows and N columns, matching Kernel2D; both must be odd.
    """
    H, W = img.height, img.width
    cM, cN = (M - 1) // 2, (N - 1) // 2
    padded = np.zeros((H + M - 1, W + N - 1))
    padded[cM : cM + H, cN : cN + W] = img.pixels
    np.ldexp(padded, -shift, out=padded)
    rows = sliding_window_view(padded, (M, N)).reshape(H * W, M * N)
    rows.setflags(write=False)
    return rows


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
