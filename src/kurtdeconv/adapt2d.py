"""Maximum-kurtosis adaptive filtering for images.

The 1-D adaptation core with the tap window replaced by the M x N
neighborhood of each pixel: the kernel is adapted as a flattened vector
over one patch row per pixel, pixels visited in raster order (left to
right, top to bottom) with zero-padded patches at the borders, so border
pixels still generate updates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapt1d import FilteredOnRead, _adapt, _check_schedule
from .errors import ContractViolationError, DegenerateInputError
from .signals import Image2D, Kernel2D, _patch_rows, _rms_shift, apply_kernel


@dataclass(frozen=True)
class Adapt2dConfig:
    """Knobs for run_adapt2d; rows/cols are the (odd) kernel dimensions,
    warmup counts pixels in raster order. Scan order is fixed raster."""

    rows: int = 3
    cols: int = 3
    mu: float = -1e-3
    beta: float = 0.99
    warmup: int = 256
    passes: int = 1

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.rows % 2 == 0 or self.cols % 2 == 0:
            raise ContractViolationError(f"kernel dimensions must be odd and positive, got {self.rows}x{self.cols}")
        _check_schedule(self)


@dataclass(frozen=True, eq=False)
class Adapt2dResult(FilteredOnRead):
    input: Image2D
    pass_filters: tuple[Kernel2D, ...]

    @property
    def kernel(self) -> Kernel2D:
        return self.pass_filters[-1]

    def _filtered(self, kernel: Kernel2D) -> Image2D:
        return apply_kernel(self.input, kernel)


def run_adapt2d(img1: Image2D, cfg: Adapt2dConfig) -> Adapt2dResult:
    """Adapt a kernel over a (whitened) image.

    Warmup pixels (raster order) seed the moment estimates under the
    initial identity kernel; every pass then updates over the remaining
    pixels, kernel and moments persisting across passes. As in run_adapt,
    the patches are divided by the power of two nearest the RMS of img1. A
    DivergenceError, raised here, names the pixel by its raster index. The
    result's output, the pure 2-D filtering of img1 with the converged
    kernel, and its kurtosis fields are computed on first read.
    """
    H, W = img1.height, img1.width
    M, N = cfg.rows, cfg.cols
    # >= rather than > so a 1xN image with a 1x1 kernel stays legal (the
    # degenerate case the 1-D equivalence property relies on).
    if H < M or W < N:
        raise DegenerateInputError(f"image {H}x{W} is smaller than the kernel {M}x{N}")
    if cfg.warmup >= H * W:
        raise DegenerateInputError(f"warmup {cfg.warmup} consumes the whole {H}x{W} image")

    w = np.zeros((M, N))
    w[(M - 1) // 2, (N - 1) // 2] = 1.0
    pass_filters = _adapt(_patch_rows(img1, M, N, _rms_shift(img1.pixels)), w.ravel(), cfg)
    return Adapt2dResult(img1, tuple(Kernel2D(h.reshape(M, N)) for h in pass_filters))
