"""Sample-sequence and image containers, FIR/kernel filtering, filter
normalization, and the regressor walk the adaptation core reads.

All containers are immutable value objects holding a read-only C-ordered
float64 array, shared freely between threads and taken by the compiled
kernels as it is. A caller's data is copied; an array a stage of the
package builds (``_Owned``) is checked and frozen in place, copied only
if not C-ordered. The walk reads every regressor (the tap window of a
sample, the neighborhood of a pixel) from one zero-padded copy of the
data, divided by a power of two, through a table of tap offsets: indices
outside the data read as zero, so the recursion stays well defined from
sample 0, and no row is copied. The walk of run_adapt, like every score,
is divided by 2**_peak_shift: the package's one scaling rule.

The full-length arrays a call only works in live in a scratch of two
flat float64 slots per thread (``_scratch``), kept between calls. A slot
is taken by the function that fills it: slot 0 by _walk (its P, the walk
of run_adapt, of every filter and of kurtosis_surface) and stats._scores
(the centred source), slot 1 by _scores (the other centred values). A
slot is remade only when a request is larger than it, or less than half
of it, so a thread holds about two arrays of its latest input,
and a steady-state run of one shape touches no new memory unless its
walk holds more than twice its input (a 9x9 kernel over 16x16): then
run_experiment's walk and scores remake slot 0 in turn.
The rule that makes this safe: a scratch array never outlives the call
that fills it, but for _walk's P, which its caller holds only until it
next takes slot 0; nothing a public function returns is a view of one,
and no holder of a slot calls code that takes it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from ._native import filter_walk
from .errors import ContractViolationError, DegenerateInputError, _real


@dataclass(frozen=True)
class _Owned:
    """A fresh array a stage has just built and keeps no reference to: the
    container it is handed to adopts it, frozen in place, uncopied."""

    array: np.ndarray


def _finite(values: np.ndarray) -> bool:
    """Whether every value is finite, read off the max and the min, through
    which a NaN propagates, instead of a mask of one byte per value."""
    return values.size == 0 or bool(np.isfinite(values.max()) and np.isfinite(values.min()))


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    """A read-only C-ordered float64 copy of values, or the array of an _Owned
    itself unless it needs one; the wrong ndim, no values, or a non-finite
    one is a ContractViolationError."""
    arr = np.asarray(values.array, dtype=np.float64, order="C") if isinstance(values, _Owned) else np.array(values, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ContractViolationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ContractViolationError(f"{name} must not be empty")
    if not _finite(arr):
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
        if self.sample_rate is not None and not 1 <= _real(self.sample_rate, "sample_rate") < np.inf:
            raise ContractViolationError(f"sample_rate must be finite and >= 1, got {self.sample_rate}")

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


def _pow2(values: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """values * 2**k into out (by default a new array), bit for bit
    np.ldexp(values, k): a product with the double 2.0**k, which is exact
    for k in [-1074, 1023] and several times faster, and np.ldexp outside
    that range."""
    if -1074 <= k <= 1023:
        return np.multiply(values, 2.0**k, out=out)
    return np.ldexp(values, k, out=out)


def _peak_shift(values: np.ndarray) -> int:
    """Exponent e with max|values| in [2**(e-1), 2**e) (0 if all are zero);
    dividing by 2**e is exact and leaves every value in (-1, 1)."""
    return int(np.frexp(max(values.max(), -values.min()))[1])


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of a * b over two 1-D arrays by numpy's own loops, not BLAS,
    whose sums change with its thread count: one sum per block of 1024
    values, the block sums then summed pairwise, which keeps the rounding
    near a pairwise sum's. It makes no array of the products."""
    k = a.size - a.size % 1024
    sums = np.einsum("ij,ij->i", a[:k].reshape(-1, 1024), b[:k].reshape(-1, 1024))
    return float(sums.sum() + np.einsum("i,i->", a[k:], b[k:]))


class _Scratch(threading.local):
    """The calling thread's two scratch slots; each thread starts empty."""

    def __init__(self):
        self.slots = [np.empty(0), np.empty(0)]


_SCRATCH = _Scratch()


def _scratch(slot: int, n: int) -> np.ndarray:
    """n float64 values of the calling thread's scratch slot 0 or 1, flat,
    contents undefined: the slot itself while it holds from n to 2n values,
    else a new slot of n, made after the old one is freed."""
    slots = _SCRATCH.slots
    if not n <= slots[slot].size <= 2 * n:
        slots[slot] = None
        slots[slot] = np.empty(n)
    return slots[slot][:n]


def _walk(values: np.ndarray, shape: tuple[int, ...], shift: int = 0) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """The regressor rows of a filter of coefficient shape `shape` over
    values, as (P, off, width, stride, n): a walk over one zero-padded
    copy of values, nothing copied per row.

    The one anchoring rule: K taps, shape (K,), over a line of samples
    read sample n - k at tap k (K - 1 zeros in front, offsets reversed);
    an M x N kernel over lines of pixels reads the centred neighborhood in
    raster order. P is a flat read-only copy of the width-long lines
    divided by 2**shift, zero-padded to lines of stride = width + N - 1.
    Row r of the walk starts at base(r) = (r // width) * stride + r %
    width, and its element j, the one coefficient j multiplies, is
    P[base(r) + off[j]]. n counts the rows, one per value. P is a view of
    scratch slot 0, which its caller may hold until it next takes slot 0.
    """
    lines = values.reshape(-1, values.shape[-1])
    H, W = lines.shape
    M, N = shape if len(shape) == 2 else (1, *shape)
    top, left, order = (M // 2, N // 2, 1) if len(shape) == 2 else (0, N - 1, -1)
    stride = W + N - 1
    P = _scratch(0, (H + M - 1) * stride).reshape(H + M - 1, stride)
    # zeros in the pad only; the lines are written scaled in one pass
    P[:top] = P[top + H :] = P[:, :left] = P[:, left + W :] = 0.0
    _pow2(lines, -shift, out=P[top : top + H, left : left + W])
    P.setflags(write=False)
    off = (np.arange(M)[:, None] * stride + np.arange(N)).ravel()[::order].copy()
    return P.ravel(), off, W, stride, H * W


def _filtered(h: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The package's one filter: samples or pixels filtered by h, the walk
    filter of _native over the walk the adaptation reads, each output
    summed from 0.0 in the order of h. run_adapt sums its a-priori output
    in four interleaved partial sums instead (one row ahead below 20 taps);
    no filtered output is one of those."""
    return filter_walk(*_walk(values, h.shape), h.ravel()).reshape(values.shape)


def apply_taps(x: Signal1D, taps: FilterTaps1D) -> Signal1D:
    """Causal FIR filtering y(n) = sum_k h(k) x(n-k), zero initial state,
    each output summed from 0.0 over the taps in order."""
    return replace(x, samples=_Owned(_filtered(_coeffs(taps, FilterTaps1D, x), x.samples)))


def apply_kernel(img: Image2D, kernel: Kernel2D) -> Image2D:
    """Center-anchored 2-D correlation with zero padding at the borders.

    Output pixel (n, m) is the inner product of the kernel with the
    zero-padded rows x cols neighborhood centered at (n, m), summed from
    0.0 over the kernel in raster order.
    """
    return replace(img, pixels=_Owned(_filtered(_coeffs(kernel, Kernel2D, img), img.pixels)))


#: The pairing rule: a FilterTaps1D filters a Signal1D, a Kernel2D an Image2D.
_FILTERS = {FilterTaps1D: Signal1D, Kernel2D: Image2D}


def _coeffs(f, kind: type, x=None) -> np.ndarray:
    """f's coefficients. The pairing rule: f must be a kind and x, if given,
    what a kind filters; anything else is a ContractViolationError."""
    if not isinstance(f, kind):
        raise ContractViolationError(f"expected a {kind.__name__}, not {type(f).__name__}")
    if x is not None and not isinstance(x, _FILTERS[kind]):
        raise ContractViolationError(f"a {kind.__name__} filters a {_FILTERS[kind].__name__}, not {type(x).__name__}")
    return _array(f)


def _array(container) -> np.ndarray:
    """The samples, pixels, taps or weights of a Signal1D, Image2D,
    FilterTaps1D or Kernel2D: the first field of each."""
    return getattr(container, fields(container)[0].name)


def _origin(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Where the unit coefficient of a filter of this shape sits: tap 0 of
    taps, the center of a kernel's (odd-sized) weights."""
    return (0,) if len(shape) == 1 else tuple(n // 2 for n in shape)


def normalize_taps(taps: FilterTaps1D) -> FilterTaps1D:
    """Scale so the largest-magnitude tap becomes exactly +1."""
    t = _coeffs(taps, FilterTaps1D)
    peak = t[np.argmax(np.abs(t))]
    if peak == 0.0:
        raise DegenerateInputError("all-zero filter cannot be normalized")
    return FilterTaps1D(t / peak)


def normalize_kernel(kernel: Kernel2D) -> Kernel2D:
    """Scale the largest-|w| weight to +1 and roll it to the center."""
    w = _coeffs(kernel, Kernel2D)
    r, c = np.unravel_index(np.argmax(np.abs(w)), w.shape)
    peak = w[r, c]
    if peak == 0.0:
        raise DegenerateInputError("all-zero kernel cannot be normalized")
    centered = np.roll(w / peak, tuple(np.subtract(_origin(w.shape), (r, c))), axis=(0, 1))
    return Kernel2D(centered)


def _unit(shape) -> np.ndarray:
    """The identity filter's coefficients: 1 at the origin, 0 elsewhere."""
    h = np.zeros(shape)
    h[_origin(h.shape)] = 1.0
    return h


def _apply(x, f):
    """x filtered by f: apply_taps for FilterTaps1D, apply_kernel for Kernel2D."""
    return apply_kernel(x, f) if isinstance(f, Kernel2D) else apply_taps(x, f)
