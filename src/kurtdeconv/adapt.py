"""Online gradient-ascent maximum-kurtosis adaptive filtering of signals
and images.

Each step filters the current regressor, advances the running moment
estimates, and nudges the filter along f(n) * regressor:

    y(n)    = h' x(n)
    m2(n)   = beta * m2(n-1) + (1 - beta) * y(n)^2     (m4 likewise, y^4)
    f(n)    = 4 * [(m2(n) * y(n)^2 - m4(n)) * y(n)] / m2(n)^3
    h(n+1)  = h(n) + mu * f(n) * x(n)

with the tap update skipped while m2(n) <= stats.M2_GUARD. The
sign of mu selects whether kurtosis is pushed up (super-gaussian sources)
or down (sub-gaussian sources). run_adapt runs this recursion over one
regressor row per sample: the tap window of a signal, or the M x N
neighborhood of an image's pixel, flattened, pixels visited in raster
order (left to right, top to bottom) with zero-padded neighborhoods at the
borders, so border pixels still generate updates. The rows are read in
place from one zero-padded copy of the input through a table of tap
offsets (signals._walk); no row is copied.

Each pass of the recursion is one _native.adapt_pass: compiled C when a
compiler is available, else its Python twin, bit for bit the same. It
filters nothing: a result keeps each pass's final coefficients, and
filters the input only when its output or kurtosis is first read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from ._native import adapt_pass
from .errors import ContractViolationError, DegenerateInputError, DivergenceError
from .signals import _FILTERS, FilterTaps1D, Image2D, Kernel2D, Signal1D, _apply, _array, _peak_shift, _rms_shift, _unit, _walk
from .stats import M2_GUARD, init_moments, kurtosis_excess

#: Magnitude above which any tap is treated as numeric blow-up.
TAP_LIMIT = 1e6


def _check_schedule(cfg) -> None:
    """Validate the mu/beta/warmup/passes fields shared by both configs."""
    if not np.isfinite(cfg.mu):
        raise ContractViolationError("mu must be finite")
    if not 0.0 < cfg.beta < 1.0:
        raise ContractViolationError(f"beta must lie in (0, 1), got {cfg.beta}")
    if cfg.warmup < 0:
        raise ContractViolationError(f"warmup must be >= 0, got {cfg.warmup}")
    if cfg.passes < 1:
        raise ContractViolationError(f"passes must be >= 1, got {cfg.passes}")


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs for run_adapt over a Signal1D.

    taps: filter length L. mu: signed step size (mu = 0 degenerates to a
    pure filtering pass). beta: moment smoothing. warmup: samples used to
    seed the moment estimates before any tap update. passes: sweeps over
    the signal; taps and moments persist across passes.
    """

    taps: int = 3
    mu: float = 1e-3
    beta: float = 0.99
    warmup: int = 256
    passes: int = 1

    def __post_init__(self):
        if self.taps < 1:
            raise ContractViolationError(f"taps must be >= 1, got {self.taps}")
        _check_schedule(self)

    def identity(self) -> FilterTaps1D:
        """The starting filter: tap 0 is 1, so its output is the input."""
        return FilterTaps1D(_unit(self.taps))


@dataclass(frozen=True)
class Adapt2dConfig:
    """Knobs for run_adapt over an Image2D; rows/cols are the (odd) kernel
    dimensions, warmup counts pixels in raster order. Scan order is fixed
    raster."""

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

    def identity(self) -> Kernel2D:
        """The starting filter: the center weight is 1, so its output is the input."""
        return Kernel2D(_unit((self.rows, self.cols)))


@dataclass(frozen=True, eq=False)
class AdaptResult:
    """What run_adapt returns.

    input is the signal or image the filter was adapted on, pass_filters
    the filter (FilterTaps1D or Kernel2D) at the end of each pass, and
    filter the last of them. output, the input filtered by filter, and its
    excess kurtosis final_kurtosis are computed on first read and kept. So
    is kurtosis_trace, the output's excess kurtosis after each pass, which
    filters the input once for each earlier pass. Errors of that filtering
    (a non-finite output, a zero-variance one) are raised on that read.
    """

    input: Signal1D | Image2D
    pass_filters: tuple[FilterTaps1D, ...] | tuple[Kernel2D, ...]

    @property
    def filter(self) -> FilterTaps1D | Kernel2D:
        return self.pass_filters[-1]

    # kept while perfbench's execute_traced reads it; goes with it (ROADMAP item 2)
    kernel = filter

    @cached_property
    def output(self) -> Signal1D | Image2D:
        return _apply(self.input, self.filter)

    @cached_property
    def final_kurtosis(self) -> float:
        return kurtosis_excess(self.output)

    @cached_property
    def kurtosis_trace(self) -> tuple[float, ...]:
        earlier = tuple(kurtosis_excess(_apply(self.input, f)) for f in self.pass_filters[:-1])
        return earlier + (self.final_kurtosis,)


def _adapt(walk: tuple, h: np.ndarray, y0: np.ndarray, cfg) -> list[np.ndarray]:
    """The adaptation recursion over the regressor walk of either dimension.

    walk is the (P, off, width, stride, n) of signals._walk, whose row r
    is the regressor the filter sees at step r. The first cfg.warmup rows
    only seed the moment estimates with y0, the output of the starting
    filter h over them; every pass then updates the contiguous float64 h
    in place over the remaining rows, moments carried across passes.
    Returns a copy of h at the end of each pass; nothing is filtered here.
    A warm-up block whose second moment is at or below M2_GUARD (silence,
    since the rows are RMS-scaled) is a DegenerateInputError: its zero
    moments would make the first updates divide by a vanishing m2^3.
    """
    m = init_moments(y0)
    if cfg.warmup > 0 and m[0] <= M2_GUARD:
        raise DegenerateInputError(f"the {cfg.warmup}-sample warm-up is silent: second moment {m[0]:g} of the input power")
    pass_filters = []
    for pass_index in range(cfg.passes):
        n = adapt_pass(*walk, h, m, cfg.mu, cfg.beta, cfg.warmup, M2_GUARD, TAP_LIMIT)
        if n >= 0:
            raise DivergenceError(
                f"filter magnitude exceeded {TAP_LIMIT:g} at pass {pass_index}, sample {n}",
                pass_index=pass_index,
                sample_index=n,
            )
        pass_filters.append(h.copy())
    return pass_filters


def run_adapt(x1: Signal1D | Image2D, cfg: AdaptConfig | Adapt2dConfig) -> AdaptResult:
    """Adapt a filter over a (whitened) signal or image.

    An AdaptConfig adapts taps over a Signal1D, one tap window per sample;
    an Adapt2dConfig a kernel over an Image2D, one centred neighborhood
    per pixel. An input of another type is a ContractViolationError. Both
    walk one zero-padded copy of x1 (signals._walk), divided by the power
    of two nearest its RMS, which changes no coefficient but makes the
    moment guard relative to the input power. The first cfg.warmup rows
    only seed the moment estimates under cfg.identity(), whose output is
    the input itself; every pass then updates over the remaining rows,
    filter and moments carried across passes. A DivergenceError, raised
    here, names the sample (the pixel by its raster index). x1 is not
    filtered here; the result's output and its kurtosis fields are
    computed on first read.
    """
    start = cfg.identity()
    kind = _FILTERS[type(start)]
    if not isinstance(x1, kind):
        raise ContractViolationError(f"{type(cfg).__name__} adapts over {kind.__name__}, not {type(x1).__name__}")
    values, h0 = _array(x1), _array(start)
    if kind is Image2D:
        (H, W), (M, N) = values.shape, h0.shape
        # >= rather than > so a 1xN image with a 1x1 kernel stays legal (the
        # degenerate case the 1-D equivalence property relies on).
        if H < M or W < N:
            raise DegenerateInputError(f"image {H}x{W} is smaller than the kernel {M}x{N}")
        if cfg.warmup >= H * W:
            raise DegenerateInputError(f"warmup {cfg.warmup} consumes the whole {H}x{W} image")
    elif len(x1) <= cfg.warmup + cfg.taps:
        raise DegenerateInputError(f"signal length {len(x1)} too short for warmup {cfg.warmup} and {cfg.taps} taps")
    shift = _rms_shift(values)
    y0 = np.ldexp(values.ravel()[: cfg.warmup], -shift)
    pass_filters = _adapt(_walk(values, h0.shape, shift), h0.flatten(), y0, cfg)
    return AdaptResult(x1, tuple(type(start)(h.reshape(h0.shape)) for h in pass_filters))


# kept while perfbench's execute_traced calls it; goes with it (ROADMAP item 2)
run_adapt2d = run_adapt


def _fourth_moment_index() -> np.ndarray:
    """Where kurtosis_surface finds each fourth moment of Q's three rows.

    Its scratch rows hold Q_p Q_q for (p, q) in the order of `rows`, and
    G[i, c] sums Q_i Q_i times row c, so the 18 entries of G hold all 15
    moments. Entry (3p + q, 3r + s) is the index into G.ravel() of one
    that equals N E{Q_p Q_q Q_r Q_s}.
    """
    rows = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    where = {tuple(sorted((i, i) + pq)): 6 * i + c for i in range(3) for c, pq in enumerate(rows)}
    cells = list(product(range(3), repeat=2))
    return np.array([[where[tuple(sorted(pq + rs))] for rs in cells] for pq in cells])


_M4 = _fourth_moment_index()


@dataclass(frozen=True, eq=False)
class SurfaceResult:
    surface: np.ndarray
    argmax: tuple[float, float]


def kurtosis_surface(x1: Signal1D, grid_a1, grid_a2) -> SurfaceResult:
    """|excess kurtosis| of [1, -a1, -a2]-filtered x1 over a parameter grid.

    surface[i, j] corresponds to (grid_a1[i], grid_a2[j]); cells whose
    filtered output is degenerate are NaN and excluded from the argmax.

    The output x - a1 x(n-1) - a2 x(n-2) equals w'C for
    w = [1 - a1 - a2, a1 + 2 a2, -a2] and C the rows of x and of its first
    and second differences (zero before index 0); centering the rows of C
    demeans every output. One O(N) pass factors the centered C = R'Q, Q
    orthonormal rows (Gram-Schmidt, twice), so each cell is O(1): with
    v = Rw, m2 = |v|^2 / N and m4 = (v (x) v)' E (v (x) v), E the 9 x 9
    matrix of fourth moments E{Q_p Q_q Q_r Q_s}. Differences rather than
    delayed copies keep smooth inputs, whose outputs nearly cancel in the
    low-order cells, as accurate as filtering cell by cell. A cell is
    degenerate when v vanishes to rounding, |Rw| <= 16 eps ||R| |w||. An
    x1 that is not a Signal1D is a ContractViolationError.

    x is first divided by the power of two just above max|x|, which is
    exact and changes no bit of any cell, so the surface is the same at any
    power-of-two gain. All O(N) work lives in two arrays: Q, which holds C
    and then is made orthonormal in place, and a scratch array of N samples.
    The scratch holds the Gram-Schmidt product r Q_j, then, one sixth of the
    samples at a time, the six pair products Q_p Q_q as six rows. One matrix
    product per block, of the three squares Q_i Q_i with all six rows, and
    the sum over the blocks give all 15 fourth moments. Those sums run in
    another order than one dot product per moment, so a value may differ
    from such a sum at rounding level.
    """
    if not isinstance(x1, Signal1D):
        raise ContractViolationError(f"the kurtosis surface is taken over a Signal1D, not {type(x1).__name__}")
    g1 = np.asarray(grid_a1, dtype=np.float64)
    g2 = np.asarray(grid_a2, dtype=np.float64)
    if g1.size == 0 or g2.size == 0:
        raise ContractViolationError("grids must be nonempty")
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise ContractViolationError("grids contain non-finite values")
    x = x1.samples
    if x.size < 3:
        raise DegenerateInputError("need at least 3 samples")
    n = x.size
    Q = np.empty((3, n))
    P = np.empty((6, -(-n // 6)))
    np.ldexp(x, -_peak_shift(x), out=Q[0])
    for k in (1, 2):
        Q[k, 0] = Q[k - 1, 0]
        np.subtract(Q[k - 1, 1:], Q[k - 1, :-1], out=Q[k, 1:])
    Q -= Q.mean(axis=1, keepdims=True)
    tmp = P.reshape(-1)[:n]
    R = np.zeros((3, 3))
    for k in range(3):
        for _ in range(2):
            for j in range(k):
                r = Q[j] @ Q[k]
                np.multiply(Q[j], r, out=tmp)
                Q[k] -= tmp
                R[j, k] += r
        R[k, k] = np.sqrt(Q[k] @ Q[k])
        if R[k, k] > 0.0:
            Q[k] /= R[k, k]
    G = np.zeros((3, 6))
    b = P.shape[1]
    for s in range(0, n, b):
        q = Q[:, s:s + b]
        p = P[:, :q.shape[1]]
        np.square(q, out=p[:3])
        np.multiply(q[0], q[1:], out=p[3:5])
        np.multiply(q[1], q[2], out=p[5])
        G += p[:3] @ p.T
    E4 = G.ravel()[_M4] / n
    # freed before the per-cell arrays, so they add nothing to the peak
    del Q, P, tmp, q, p
    a1, a2 = np.broadcast_arrays(g1[:, None], g2)
    W = np.stack(((1.0 - a1) - a2, a1 + 2.0 * a2, -a2)).reshape(3, -1)
    # scaling w changes no kurtosis; a power of two per cell keeps huge
    # grid values from overflowing the fourth powers
    W = np.ldexp(W, -np.frexp(np.abs(W).max(axis=0))[1])
    v = R @ W
    vv = np.einsum("pc,pc->c", v, v)
    bound = np.abs(R) @ np.abs(W)
    ok = vv > (16.0 * np.finfo(np.float64).eps) ** 2 * np.einsum("pc,pc->c", bound, bound)
    if not np.any(ok):
        raise DegenerateInputError("every grid cell produced a degenerate output")
    v = v[:, ok]
    m2 = vv[ok] / n
    V = (v[:, None] * v).reshape(9, -1)
    surface = np.full(vv.size, np.nan)
    surface[ok] = np.abs(np.einsum("ac,ac->c", V, E4 @ V) / (m2 * m2) - 3.0)
    surface = surface.reshape(g1.size, g2.size)
    i, j = np.unravel_index(np.nanargmax(surface), surface.shape)
    return SurfaceResult(surface, (float(g1[i]), float(g2[j])))
