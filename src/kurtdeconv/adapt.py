"""Online gradient-ascent maximum-kurtosis adaptive filtering of signals
and images.

Each step filters the current regressor, advances the running moment
estimates, and nudges the filter along f(n) * regressor:

    y(n)    = h' x(n)
    m2(n)   = beta * m2(n-1) + (1 - beta) * y(n)^2     (m4 likewise, y^4)
    f(n)    = 4 * [(m2(n) * y(n)^2 - m4(n)) * y(n)] / m2(n)^3
    h(n+1)  = h(n) + mu * f(n) * x(n)

with the tap update skipped while m2(n) <= stats.M2_GUARD times the input
power. The sign of mu selects whether kurtosis is pushed up
(super-gaussian sources) or down (sub-gaussian sources). run_adapt runs
this recursion over one regressor row per sample: the tap window of a
signal, or the M x N neighborhood of an image's pixel, flattened, pixels
visited in raster order (left to right, top to bottom) with zero-padded
neighborhoods at the borders, so border pixels still generate updates.
The rows are read in place from one zero-padded copy of the input through
a table of tap offsets (signals._walk); no row is copied.

Each pass of the recursion is one _native.adapt_pass, the compiled C
loop, bit for bit the tests' adapt_step oracle repeated. It filters
nothing: a result keeps each pass's final coefficients, and filters the
input only when its output or kurtosis is first read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from ._native import adapt_pass, surface_moments
from .errors import ContractViolationError, DegenerateInputError, DivergenceError, _count, _real
from .signals import FilterTaps1D, Image2D, Kernel2D, Signal1D, _apply, _array, _dot, _finite, _peak_shift, _pow2, _unit, _walk
from .stats import M2_GUARD, kurtosis_excess

#: Magnitude above which any tap is treated as numeric blow-up.
TAP_LIMIT = 1e6


def _check_schedule(cfg) -> None:
    """Validate the mu/beta/warmup/passes fields shared by both configs."""
    if not np.isfinite(_real(cfg.mu, "mu")):
        raise ContractViolationError("mu must be finite")
    if not 0.0 < _real(cfg.beta, "beta") < 1.0:
        raise ContractViolationError(f"beta must lie in (0, 1), got {cfg.beta}")
    if _count(cfg.warmup, "warmup") < 0:
        raise ContractViolationError(f"warmup must be >= 0, got {cfg.warmup}")
    if _count(cfg.passes, "passes") < 1:
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
        if _count(self.taps, "taps") < 1:
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
        if _count(self.rows, "rows") < 1 or _count(self.cols, "cols") < 1 or self.rows % 2 == 0 or self.cols % 2 == 0:
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

    # kept while perfbench's execute_traced reads it; goes with it (ROADMAP item 1)
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


def run_adapt(x1: Signal1D | Image2D, cfg: AdaptConfig | Adapt2dConfig) -> AdaptResult:
    """Adapt a filter over a (whitened) signal or image.

    An AdaptConfig adapts taps over a Signal1D, one tap window per sample;
    an Adapt2dConfig a kernel over an Image2D, one centred neighborhood
    per pixel. An input of another type is a ContractViolationError. Both
    walk one zero-padded copy of x1 (signals._walk), divided by the power
    of two above its peak, which changes no bit of any coefficient; the
    moment guard is M2_GUARD times the square of the power of two nearest
    the walk's RMS, so relative to the input power. The first cfg.warmup
    rows only seed the moment estimates under cfg.identity(), whose output
    is the input itself; every pass then updates over the remaining rows,
    filter and moments carried across passes. A warm-up whose second
    moment is at or below the guard (silence) is a DegenerateInputError:
    its zero moments would make the first updates divide by a vanishing
    m2^3. A DivergenceError, raised here, names the pass and the sample
    (the pixel by its raster index). x1 is not filtered here; the result's
    output and its kurtosis fields are computed on first read.
    """
    kind = Image2D if isinstance(cfg, Adapt2dConfig) else Signal1D
    if not isinstance(x1, kind):
        raise ContractViolationError(f"{type(cfg).__name__} adapts over {kind.__name__}, not {type(x1).__name__}")
    # the size rules need only x1's shape and the config's fields, so an
    # input too small for the filter is refused before cfg.identity() builds it
    values = _array(x1)
    if kind is Image2D:
        (H, W), M, N = values.shape, cfg.rows, cfg.cols
        # >= rather than > so a 1xN image with a 1x1 kernel stays legal (the
        # degenerate case the 1-D equivalence property relies on).
        if H < M or W < N:
            raise DegenerateInputError(f"image {H}x{W} is smaller than the kernel {M}x{N}")
        if cfg.warmup >= H * W:
            raise DegenerateInputError(f"warmup {cfg.warmup} consumes the whole {H}x{W} image")
    elif len(x1) <= cfg.warmup + cfg.taps:
        raise DegenerateInputError(f"signal length {len(x1)} too short for warmup {cfg.warmup} and {cfg.taps} taps")
    start = cfg.identity()
    h0, shift = _array(start), _peak_shift(values)
    walk, h = _walk(values, h0.shape, shift), h0.flatten()
    # the input power in the walk's scale (the padding adds only zeros)
    mantissa, k = np.frexp(np.sqrt(_dot(walk[0], walk[0]) / values.size))
    power = 4.0 ** (int(k) - int(0.0 < mantissa < np.sqrt(0.5)))
    # the warm-up block's [mean y^2, mean y^4] in the walk's scale; an empty mean warns
    y2 = np.square(_pow2(values.ravel()[: cfg.warmup], -shift))
    m = np.array([y2.mean(), (y2 * y2).mean()]) if y2.size else np.zeros(2)
    if cfg.warmup > 0 and m[0] <= M2_GUARD * power:
        raise DegenerateInputError(f"the {cfg.warmup}-sample warm-up is silent: second moment {m[0] / power:g} of the input power")
    pass_filters = []
    for pass_index in range(cfg.passes):
        n = adapt_pass(*walk, h, m, cfg.mu, cfg.beta, cfg.warmup, M2_GUARD * power, TAP_LIMIT)
        if n >= 0:
            raise DivergenceError(
                f"filter magnitude exceeded {TAP_LIMIT:g} at pass {pass_index}, sample {n}",
                pass_index=pass_index,
                sample_index=n,
            )
        pass_filters.append(type(start)(h.reshape(h0.shape)))
    return AdaptResult(x1, tuple(pass_filters))


# kept while perfbench's execute_traced calls it; goes with it (ROADMAP item 1)
run_adapt2d = run_adapt


#: The products v_p v_q kurtosis_surface forms per cell, and how many of
#: the nine ordered pairs each stands for. With p these products, v'Gv is
#: (G[_G_INDEX] * _COUNT)'p, and the quartic form, the sum over all 81
#: (a, b, c, d) of E{q_a q_b q_c q_d} v_a v_b v_c v_d, is p'Fp for
#: F = sums[_M4] * _COUNT _COUNT' / N, where sums holds the 15 fourth-moment
#: sums of _native.surface_moments, a <= b <= c <= d in lexicographic order.
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_COUNT = np.array([1.0 if p == q else 2.0 for p, q in _PAIRS])
_G_INDEX = tuple(np.array(_PAIRS).T)
_SUMS = list(combinations_with_replacement(range(3), 4))
_M4 = np.array([[_SUMS.index(tuple(sorted(a + b))) for b in _PAIRS] for a in _PAIRS])

#: Grid cells kurtosis_surface evaluates at a time: a block's arrays then
#: hold about 32 KiB, and the call needs no O(N) array but the walk.
_CELLS = 256


@dataclass(frozen=True, eq=False)
class SurfaceResult:
    surface: np.ndarray
    argmax: tuple[float, float]


def kurtosis_surface(x1: Signal1D, grid_a1, grid_a2) -> SurfaceResult:
    """|excess kurtosis| of [1, -a1, -a2]-filtered x1 over a parameter grid.

    surface[i, j] corresponds to (grid_a1[i], grid_a2[j]); cells whose
    filtered output is degenerate are NaN and excluded from the argmax.

    The output x - a1 x(n-1) - a2 x(n-2) equals w'c for
    w = [1 - a1 - a2, a1 + 2 a2, -a2] and c the difference basis of x:
    x itself and its first and second differences (zero before index 0);
    centring c demeans every output. Two compiled passes over the 3-tap
    walk of x (_native.surface_moments) factor it: the first gives the
    means and the Cholesky factor R of the centred basis's Gram, the
    second the Gram G2 of the whitened basis q = R^-T (c - mean), which
    rounding alone keeps from the identity, and the 15 fourth moments of q
    (CholeskyQR2 without forming q). Each cell is then O(1): the output is
    v'q for v = Rw, so m2 = v'G2v / N and m4 is the quartic form of the
    moments E{q_p q_q q_r q_s} in v. Differences rather than delayed copies
    keep smooth inputs, whose outputs nearly cancel in the low-order cells,
    as accurate as filtering cell by cell. A cell is degenerate when its
    output vanishes to rounding, v'G2v <= (16 eps ||R| |w||)^2. An x1 that
    is not a Signal1D, or a grid that is not a nonempty 1-D sequence of
    finite reals, is a ContractViolationError.

    The walk divides x by the power of two just above max|x|, which is
    exact and changes no bit of any cell, so the surface is the same at any
    power-of-two gain. The walk, in the thread's scratch, is the only O(N)
    array; the cells are evaluated _CELLS at a time, by np.einsum, not
    BLAS, whose bits follow its thread count and the CPU.
    """
    if not isinstance(x1, Signal1D):
        raise ContractViolationError(f"the kurtosis surface is taken over a Signal1D, not {type(x1).__name__}")
    g1, g2 = (np.asarray(g, dtype=np.float64) for g in (grid_a1, grid_a2))
    if not all(g.ndim == 1 and g.size > 0 and _finite(g) for g in (g1, g2)):
        raise ContractViolationError(f"grids must be nonempty 1-D sequences with no non-finite value, got shapes {g1.shape} and {g2.shape}")
    x = x1.samples
    if x.size < 3:
        raise DegenerateInputError("need at least 3 samples")
    n = x.size
    R, G2, sums = surface_moments(*_walk(x, (3,), _peak_shift(x)))
    gram = G2[_G_INDEX] * _COUNT / n
    F = sums[_M4] * np.outer(_COUNT, _COUNT) / n
    # m2 <= (bound_R @ |w|)^2 is the degeneracy rule, 1 / N on both sides
    bound_R = np.abs(R) * (16.0 * np.finfo(np.float64).eps / np.sqrt(n))
    # scaling w changes no kurtosis; a power of two per cell, above both
    # its parameters, keeps huge grid values from overflowing the fourth
    # powers; it is exact, so it changes no cell that would not overflow
    e1, e2 = (-np.frexp(np.fmax(np.abs(a), 1.0))[1] for a in (g1, g2))
    twice, minus = 2.0 * g2, -g2
    surface = np.empty((g1.size, g2.size))
    rows = max(1, _CELLS // g2.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, g1.size, rows):
            a1 = g1[i:i + rows, None]
            W = np.empty((3, a1.size, g2.size))
            np.subtract(1.0 - a1, g2, out=W[0])
            np.add(a1, twice, out=W[1])
            W[2] = minus
            W = np.ldexp(W, np.minimum.outer(e1[i:i + rows], e2), out=W).reshape(3, -1)
            v = np.einsum("pq,qc->pc", R, W)
            bound = np.einsum("pq,qc->pc", bound_R, np.abs(W))
            bb = np.einsum("pc,pc->c", bound, bound)
            # each array is dropped once read, so a block holds few at a time
            del W, bound
            p = np.empty((6, v.shape[1]))
            np.multiply(v, v, out=p[:3])
            np.multiply(v[0], v[1:], out=p[3:5])
            np.multiply(v[1], v[2], out=p[5])
            del v
            m2 = np.einsum("a,ac->c", gram, p)
            degenerate = m2 <= bb
            del bb
            cells = surface[i:i + rows].reshape(-1)
            np.abs(np.einsum("ac,ac->c", p, np.einsum("ab,bc->ac", F, p)) / (m2 * m2) - 3.0, out=cells)
            cells[degenerate] = np.nan
            del p, m2, degenerate
    if np.isnan(surface).all():
        raise DegenerateInputError("every grid cell produced a degenerate output")
    i, j = np.unravel_index(np.nanargmax(surface), surface.shape)
    return SurfaceResult(surface, (float(g1[i]), float(g2[j])))
