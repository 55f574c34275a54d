"""Sample-sequence and image containers, FIR/kernel filtering, filter
normalization, and the regressor walk the adaptation core reads.

All containers are immutable value objects holding a read-only float64
array, so instances can be shared freely between threads. A caller's data
is copied; the package's own stages hand over the fresh arrays they build
(``_Owned``), which are checked and frozen in place instead. The walk
reads every regressor (the tap window of a sample, the neighborhood of a
pixel) from one zero-padded copy of the data, divided by a power of two,
through a table of tap offsets: indices outside the data read as zero, so
the recursion stays well defined from sample 0, and no row is copied.

The full-length arrays a call only works in live in a scratch of two
flat float64 slots per thread (``_scratch``), kept between calls, so a
steady-state run of the same shape touches no new memory. Slot 0 holds,
in turn, the scaled copy the RMS is summed over, the walk of run_adapt
or of apply_kernel, and the scores' centred source; slot 1 the scores'
other centred values. A slot is remade only when a request is larger
than it, or less than half of it, so a thread holds about two arrays of
its latest input. The rule that makes this safe for every caller: a
scratch array never outlives the call that fills it, so nothing a public
function returns is a view of one, and no holder of a slot calls code
that takes the same slot.
"""
from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass, fields

import numpy as np

from ._native import filter_walk
from .errors import ContractViolationError, DegenerateInputError


@dataclass(frozen=True)
class _Owned:
    """A fresh array a stage has just built and keeps no reference to: the
    container it is handed to adopts it, frozen in place, uncopied."""

    array: np.ndarray


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    """A read-only float64 copy of values, or the array of an _Owned itself;
    the wrong ndim, no values, or a non-finite one is a ContractViolationError."""
    arr = np.asarray(values.array, dtype=np.float64) if isinstance(values, _Owned) else np.array(values, dtype=np.float64)
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
        if self.sample_rate is not None and not 1 <= self.sample_rate < np.inf:
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


def _rms_shift(values: np.ndarray, out: np.ndarray | None = None) -> int:
    """Exponent k of the power of two nearest the RMS of values (0 if all
    are zero); dividing by 2**k is exact. The squares are summed after an
    exact division by 2**_peak_shift(values), so they neither overflow nor
    underflow at any finite gain; that scaled copy is made in the first
    values.size elements of the flat out, if given."""
    e = _peak_shift(values)
    scaled = _pow2(values, -e, None if out is None else out[: values.size].reshape(values.shape))
    mantissa, k = np.frexp(np.sqrt(np.vdot(scaled, scaled) / values.size))
    return int(k + e) - int(0.0 < mantissa < np.sqrt(0.5))


def _walk_size(values: np.ndarray, shape: tuple[int, ...]) -> int:
    """How many values the P of _walk(values, shape) holds."""
    M, N = shape if len(shape) == 2 else (1, *shape)
    return (values.size // values.shape[-1] + M - 1) * (values.shape[-1] + N - 1)


def _walk(values: np.ndarray, shape: tuple[int, ...], shift: int = 0, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int, int, int]:
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
    P[base(r) + off[j]]. n counts the rows, one per value. P is built in
    the first _walk_size(values, shape) elements of the flat out, if
    given, else in a new array.
    """
    lines = values.reshape(-1, values.shape[-1])
    H, W = lines.shape
    M, N = shape if len(shape) == 2 else (1, *shape)
    top, left, order = (M // 2, N // 2, 1) if len(shape) == 2 else (0, N - 1, -1)
    stride = W + N - 1
    size = (H + M - 1) * stride
    P = (np.empty(size) if out is None else out[:size]).reshape(H + M - 1, stride)
    # zeros in the pad only; the lines are written scaled in one pass
    P[:top] = P[top + H :] = P[:, :left] = P[:, left + W :] = 0.0
    _pow2(lines, -shift, out=P[top : top + H, left : left + W])
    P.setflags(write=False)
    off = (np.arange(M)[:, None] * stride + np.arange(N)).ravel()[::order].copy()
    return P.ravel(), off, W, stride, H * W


def _fir(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal FIR filtering y(n) = sum_k h(k) x(n-k) of the sample array x,
    zero initial state, as many outputs as inputs. np.convolve copies an
    input it cannot write, so a read-only float64 x (a container's) is
    passed as a writable alias of its own memory, which np.convolve only
    reads; x itself stays referenced, and so alive, until the alias is
    gone."""
    alias = x
    if not x.flags.writeable and x.flags.c_contiguous and x.dtype == np.float64:
        alias = np.frombuffer((ctypes.c_double * x.size).from_address(x.ctypes.data))
    return np.convolve(h, alias)[: x.size]


def apply_taps(x: Signal1D, taps: FilterTaps1D) -> Signal1D:
    """Causal FIR filtering y(n) = sum_k h(k) x(n-k), zero initial state."""
    return Signal1D(_Owned(_fir(_coeffs(taps, FilterTaps1D, x), x.samples)), sample_rate=x.sample_rate)


def apply_kernel(img: Image2D, kernel: Kernel2D) -> Image2D:
    """Center-anchored 2-D correlation with zero padding at the borders.

    Output pixel (n, m) is the inner product of the kernel with the
    zero-padded rows x cols neighborhood centered at (n, m), summed from
    0.0 over the kernel in raster order: the walk filter of _native over
    the regressor walk the adaptation reads.
    """
    w = _coeffs(kernel, Kernel2D, img)
    walk = _walk(img.pixels, w.shape, out=_scratch(0, _walk_size(img.pixels, w.shape)))
    out = filter_walk(*walk, w.ravel())
    return Image2D(_Owned(out.reshape(img.pixels.shape)))


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


def _origin(coeffs: np.ndarray) -> tuple[int, ...]:
    """Where a filter's unit coefficient sits: tap 0 of taps, the center
    of a kernel's (odd-sized) weights."""
    return (0,) if coeffs.ndim == 1 else tuple(n // 2 for n in coeffs.shape)


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
    centered = np.roll(w / peak, tuple(np.subtract(_origin(w), (r, c))), axis=(0, 1))
    return Kernel2D(centered)


def _unit(shape) -> np.ndarray:
    """The identity filter's coefficients: 1 at the origin, 0 elsewhere."""
    h = np.zeros(shape)
    h[_origin(h)] = 1.0
    return h


def _apply(x, f):
    """x filtered by f: apply_taps for FilterTaps1D, apply_kernel for Kernel2D."""
    return apply_kernel(x, f) if isinstance(f, Kernel2D) else apply_taps(x, f)
