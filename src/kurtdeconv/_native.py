"""The serial loops of kurtdeconv, adapt_pass (one pass of adapt.run_adapt),
integrate (the running sums of experiment's integrated sources), allpole
(the echo recursion of degrade's 1-D all-pole filters), image_allpole (its
image recursion), filter_walk (every filter of signals) and surface_moments
(the factorization of adapt.kurtosis_surface): each runs its kernel from
_adapt.c.
None converts an input: an array that is not C-contiguous float64 of the
dimensions an entry point needs is a ContractViolationError.

At import, ctypes loads _adapt.c as the cc on PATH built it into
__pycache__, under a name hashing source and flags; a build deletes the
libraries of older sources or flags there. Without cc, or where
the library cannot be built, cached or loaded, the import is an
ImportError that names cc and the library's path.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, _count, _real

_SOURCE = Path(__file__).with_name("_adapt.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _load_library() -> ctypes.CDLL:
    """ctypes handle of _adapt.c, built if need be (by each process to its
    own tmp<pid> file, then replaced) into __pycache__/_adapt-<hash>.so. An
    ImportError naming cc and that path when the source is missing, no cc
    is on PATH, or the library cannot be built, cached or loaded."""
    path = _SOURCE.parent / "__pycache__" / "_adapt-<hash>.so"
    try:
        tag = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        path = path.with_name(f"_adapt-{tag}.so")
        if not path.exists():
            cc = shutil.which("cc")
            if cc is None:
                raise ImportError(f"kurtdeconv builds its kernels into {path} with cc at first import, and no cc is on PATH")
            path.parent.mkdir(exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                subprocess.run([cc, *_CFLAGS, "-o", str(tmp), str(_SOURCE)], check=True, capture_output=True, errors="replace")
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
            # the new build replaces every older one (a process that loaded
            # one keeps it mapped); other builders' tmp files stay
            for old in path.parent.glob("_adapt-*.so"):
                if old != path:
                    old.unlink(missing_ok=True)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError) as exc:
        raise ImportError(f"kurtdeconv cannot build its kernels into {path} with cc, or load them: {getattr(exc, 'stderr', None) or exc}") from exc
    index, double, pointer = ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p
    for name, restype, argtypes in (
        ("kd_adapt_pass", index, (pointer, pointer, index, index, index, index, index, pointer, pointer, double, double, double, double)),
        ("kd_integrate", None, (pointer, pointer, index, index, double)),
        ("kd_allpole", None, (pointer, pointer, index, index, double, double)),
        ("kd_image_allpole", None, (pointer, pointer, index, index, double, double, double)),
        ("kd_filter_walk", None, (pointer, pointer, index, index, index, pointer, index, pointer)),
        ("kd_surface_moments", None, (pointer, pointer, index, index, index, pointer, pointer, pointer)),
    ):
        kernel = getattr(lib, name)
        kernel.restype, kernel.argtypes = restype, argtypes
    return lib


#: The compiled library.
_LIBRARY = _load_library()


def _walk_inside(P: np.ndarray, off: np.ndarray, width: int, stride: int, n: int, k: int) -> bool:
    """Whether (P, off, width, stride, n) is a contiguous float64 walk of
    k >= 1 contiguous intp offsets whose every read falls inside P. With
    1 <= width <= stride the row bases never decrease, so the last row
    bounds every read."""
    return (
        P.dtype == np.float64 and off.dtype == np.intp and P.ndim == 1 and off.shape == (k,) and k > 0
        and P.flags.c_contiguous and off.flags.c_contiguous
        and 1 <= width <= stride and off.min() >= 0
        and (n - 1) // width * stride + (n - 1) % width + off.max() < P.size
    )


def _taps(h: np.ndarray) -> bool:
    """Whether h is a 1-D contiguous float64 array: one coefficient per offset of a walk."""
    return h.dtype == np.float64 and h.ndim == 1 and h.flags.c_contiguous


def adapt_pass(P: np.ndarray, off: np.ndarray, width: int, stride: int, n: int, h: np.ndarray, m: np.ndarray, mu: float, beta: float, warmup: int, guard: float, limit: float) -> int:
    """One pass of the kurtosis-gradient recursion over rows warmup..n-1
    of the walk (P, off, width, stride, n) that signals._walk builds:
    element j of row r is P[(r // width) * stride + r % width + off[j]].
    Updates the contiguous float64 coefficients h and moments m = [m2, m4]
    in place, no update while m2 <= guard. Returns the first row after
    whose update a coefficient exceeds limit in magnitude or is NaN (the
    pass stops there), or -1; h and m are then as that row left them.

    Every output sum takes one order at every tap count: from 0.0, an odd
    count's tap 0 first, then the rest in four interleaved partial sums.
    Below 20 taps each row's output y is formed one row ahead, as p + g c:
    p applies the taps before the previous row's update to the row, and c
    is the product of the previous row with this one, each summed in the
    order of the direct output h'x. Both are summed while that update, g
    times the previous row, is added to the taps, so this sweep runs
    beside the serial path from y through the moments to the next g
    instead of on it. y then equals h'x only up to rounding, and the
    tests' oracle forms it in the same order. From 20 taps y is h'x over
    the updated taps; on a CPU with AVX2, a walk whose offsets descend by
    one, as every 1-D walk's do, is then read row by row as one run of
    memory, four taps a 256-bit load, with h reversed in place during the
    call; any other walk, and any walk on another CPU, is read through
    off. Either way h, m and the result are the same to the bit, as the lanes
    sum the same terms in the same order. The per-tap test for the limit
    runs only when a cheaper screen cannot rule it out: through off, the
    sum of the squares of the taps reaching limit**2; over runs, a
    running bound on the largest tap reaching the limit. The bound grows
    by |g| times the largest magnitude in the part of P the pass reads
    (NaN if any element there is NaN), which the kernel takes itself.

    A walk that would read outside P is a ContractViolationError, raised
    before any read.
    """
    if not (
        _taps(h) and _walk_inside(P, off, width, stride, n, h.size) and 0 <= warmup
        and m.dtype == np.float64 and m.shape == (2,) and m.flags.c_contiguous and h.flags.writeable and m.flags.writeable
    ):
        raise ContractViolationError("the adaptation pass needs a float64 walk inside P, one intp offset per tap, and writable contiguous taps and moments")
    return _LIBRARY.kd_adapt_pass(P.ctypes.data, off.ctypes.data, width, stride, warmup, n, h.size, h.ctypes.data, m.ctypes.data, mu, beta, guard, limit)


def integrate(f: np.ndarray, d: float) -> np.ndarray:
    """The running sums of the row-major field f (a signal is one row): down
    the columns, then along each row, each divided by d, bit for bit
    np.cumsum(np.cumsum(f, axis=0), axis=1) / d; the sums themselves are
    not divided. f must be a writable contiguous float64 array, 1-D or 2-D;
    its draw is used up, as kd_integrate keeps the column sums in it. The
    sums go to a new array: written over f, they left a 256 x 256 pipeline
    one array smaller, and glibc then trimmed the heap top after every run
    (about 256 minor faults each, against none)."""
    if not (f.dtype == np.float64 and f.ndim in (1, 2) and f.size > 0 and f.flags.c_contiguous and f.flags.writeable):
        raise ContractViolationError("the running sums need a nonempty writable contiguous float64 signal or image")
    g = np.empty_like(f)
    _LIBRARY.kd_integrate(f.ctypes.data, g.ctypes.data, f.size // f.shape[-1], f.shape[-1], d)
    return g


def allpole(x: np.ndarray, delay: int, a1: float, a2: float) -> np.ndarray:
    """y(n) = x(n) + a1 y(n - delay) + a2 y(n - 2 delay), zero initial
    state: the echo family, ar2_iir at delay 1. Each output is summed as
    x(n) + ((0.0 + a2 y(n - 2 delay)) + a1 y(n - delay)), a term before
    sample 0 left out: the operations of a direct-form-II-transposed filter
    (scipy's lfilter) but its products 0 * x, so the output is lfilter's
    bit for bit up to the sign of a zero. The delay is read as a count
    (errors._count) and must be at least 1; the coefficients are read as
    reals (errors._real).
    """
    if not (x.dtype == np.float64 and x.ndim == 1 and x.flags.c_contiguous and _count(delay, "the delay") >= 1):
        raise ContractViolationError("the echo recursion needs a contiguous float64 signal and a delay of at least 1")
    y = np.empty_like(x)
    # a delay past the length reads nothing; it is passed as the length
    _LIBRARY.kd_allpole(x.ctypes.data, y.ctypes.data, x.size, min(delay, x.size), _real(a1, "a1"), _real(a2, "a2"))
    return y


def image_allpole(f: np.ndarray, a1: float, a2: float, a3: float) -> np.ndarray:
    """g(x, y) = a1 g(x-1, y) + a2 g(x, y-1) + a3 g(x-1, y-1) + f(x, y)
    over the 2-D f in raster order, zero boundary state, each pixel summed
    as ((f + a1 up) + a3 up_left) + (0.0 + a2 left). An unstable recursion
    may overflow; that is left to the caller."""
    if not (f.dtype == np.float64 and f.ndim == 2 and f.flags.c_contiguous):
        raise ContractViolationError("the image recursion needs a contiguous float64 image")
    g = np.empty_like(f)
    _LIBRARY.kd_image_allpole(f.ctypes.data, g.ctypes.data, f.shape[0], f.shape[1], a1, a2, a3)
    return g


def filter_walk(P: np.ndarray, off: np.ndarray, width: int, stride: int, n: int, h: np.ndarray) -> np.ndarray:
    """The filter h over the walk (P, off, width, stride, n) that
    signals._walk builds: element r of the result is the sum, from 0.0 and
    in the order of the taps, of h[j] * P[(r // width) * stride + r % width
    + off[j]]. adapt_pass sums in four interleaved partial sums instead.
    Neither BLAS nor the CPU changes this order: neighbouring rows of a
    line are summed side by side, one row a vector lane, sixteen rows a
    block on a CPU with AVX2 and eight elsewhere, and every row keeps its
    own sum. The walk must cover whole lines (n a multiple of width) and
    stay inside P; anything else is a ContractViolationError, raised
    before any read."""
    if not (_taps(h) and _walk_inside(P, off, width, stride, n, h.size) and n % width == 0):
        raise ContractViolationError("the walk filter needs a float64 walk of whole lines inside P and one intp offset per float64 tap")
    out = np.empty(n)
    _LIBRARY.kd_filter_walk(P.ctypes.data, off.ctypes.data, width, stride, n, h.ctypes.data, h.size, out.ctypes.data)
    return out


def surface_moments(P: np.ndarray, off: np.ndarray, width: int, stride: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factorization kurtosis_surface evaluates, over the 3-offset walk
    (P, off, width, stride, n) of at least one row that signals._walk
    builds: the difference basis c = (w0, w0 - w1, (w0 - w1) - (w1 - w2))
    of each row, wj its element at off[j], is centred and whitened, q =
    R^-T (c - mean), by the Cholesky factor R of its centred Gram. Returns
    R and the Gram sum(q q') (both 3 x 3) and the 15 sums sum(q_p q_q q_r
    q_s), p <= q <= r <= s in lexicographic order (kd_surface_moments).

    A walk that would read outside P is a ContractViolationError, raised
    before any read.
    """
    if not (_walk_inside(P, off, width, stride, n, 3) and n >= 1):
        raise ContractViolationError("the surface moments need a float64 walk of at least one row inside P and three intp offsets")
    R, G, M = np.empty((3, 3)), np.empty((3, 3)), np.empty(15)
    _LIBRARY.kd_surface_moments(P.ctypes.data, off.ctypes.data, width, stride, n, R.ctypes.data, G.ctypes.data, M.ctypes.data)
    return R, G, M
