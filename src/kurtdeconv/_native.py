"""The recursions of kurtdeconv, adapt_pass (one pass of adapt.run_adapt),
allpole (the 1-D all-pole filters of degrade) and image_allpole (its image
recursion): each runs its kernel from _adapt.c, or its Python twin of the
same operations in the same order.

The cc on PATH compiles _adapt.c on first use into __pycache__, under a
name hashing source and flags, and ctypes loads it; without a compiler,
or where the cache cannot be written, library() is None.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
from pathlib import Path

import numpy as np

from .errors import ContractViolationError

_SOURCE = Path(__file__).with_name("_adapt.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _load_library():
    """ctypes handle of _adapt.c, built on first use into
    __pycache__/_adapt-<hash of source and flags>.so; None when the source
    is missing, no cc is on PATH, or the library cannot be built or loaded."""
    try:
        source = _SOURCE.read_bytes()
        tag = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        path = _SOURCE.parent / "__pycache__" / f"_adapt-{tag}.so"
        if not path.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None
            path.parent.mkdir(exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            try:
                subprocess.run([cc, *_CFLAGS, "-o", str(tmp), str(_SOURCE)], check=True, capture_output=True)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError):
        return None
    index, double, pointer = ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p
    lib.kd_adapt_pass.restype = index
    lib.kd_adapt_pass.argtypes = (pointer, index, index, index, index, index, pointer, pointer, double, double, double, double)
    lib.kd_allpole.restype = None
    lib.kd_allpole.argtypes = (pointer, pointer, index, pointer, pointer, index)
    lib.kd_image_allpole.restype = None
    lib.kd_image_allpole.argtypes = (pointer, pointer, index, index, double, double, double)
    return lib


_UNLOADED = object()
#: The compiled library once library() has loaded it, or None to run the
#: Python twins.
_LIBRARY = _UNLOADED
_LIBRARY_LOCK = threading.Lock()


def library():
    """The compiled library, loaded (and if need be built) on the first call."""
    global _LIBRARY
    if _LIBRARY is not _UNLOADED:
        return _LIBRARY
    with _LIBRARY_LOCK:
        if _LIBRARY is _UNLOADED:
            _LIBRARY = _load_library()
    return _LIBRARY


def adapt_pass(X: np.ndarray, h: np.ndarray, m: np.ndarray, mu: float, beta: float, warmup: int, guard: float, limit: float) -> int:
    """One pass of the kurtosis-gradient recursion over rows warmup.. of
    the float64 matrix X, updating the contiguous float64 coefficients h
    and moments m = [m2, m4] in place, no update while m2 <= guard. Returns
    the first row after whose update a coefficient exceeds limit in
    magnitude or is NaN (the pass stops there), or -1."""
    if not (
        X.dtype == h.dtype == np.float64
        and X.ndim == 2
        and X.shape[1] == h.size
        and h.flags.c_contiguous
        and h.flags.writeable
        and not any(stride % X.itemsize for stride in X.strides)
    ):
        raise ContractViolationError("the adaptation pass needs float64 regressor rows and a writable contiguous filter")
    lib = library()
    if lib is None:
        return _python_pass(X, h, m, mu, beta, warmup, guard, limit)
    s0, s1 = (stride // X.itemsize for stride in X.strides)
    return lib.kd_adapt_pass(X.ctypes.data, s0, s1, warmup, X.shape[0], X.shape[1], h.ctypes.data, m.ctypes.data, mu, beta, guard, limit)


def _python_pass(X, h, m, mu, beta, warmup, guard, limit) -> int:
    """adapt_pass as a Python loop. y is accumulated tap by tap, as
    kd_adapt_pass sums it; h @ w may let BLAS reorder the sum."""
    m2, m4 = m.tolist()
    omb = 1.0 - beta
    failed = -1
    # an update that overflows is caught by the limit check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(warmup, X.shape[0]):
            w = X[n]
            y = float(np.add.accumulate(h * w)[-1])
            y2 = y * y
            m2 = beta * m2 + omb * y2
            m4 = beta * m4 + omb * y2 * y2
            if m2 > guard:
                f = 4.0 * ((m2 * y2 - m4) * y) / (m2 * m2 * m2)
                h += (mu * f) * w
                # negated form so NaN coefficients also trip the check
                if not np.all(np.abs(h) <= limit):
                    failed = n
                    break
    m[:] = m2, m4
    return failed


def allpole(x: np.ndarray, lags: tuple[int, ...], coeffs: tuple[float, ...]) -> np.ndarray:
    """y(n) = x(n) + sum_j coeffs[j] y(n - lags[j]), zero initial state.

    The sum over j runs in the order given and x(n) is added last. With
    lags from the deepest in, those are the operations of a
    direct-form-II-transposed filter (scipy's lfilter), and the output is
    bit-identical to it. Runs kd_allpole when the compiled library is there.
    """
    if x.ndim != 1 or len(lags) != len(coeffs) or min(lags) < 1:
        raise ContractViolationError("the all-pole recursion needs 1-D input and one positive lag per coefficient")
    lib = library()
    if lib is None:
        return _python_allpole(x, lags, coeffs)
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.empty_like(x)
    k = len(lags)
    lib.kd_allpole(x.ctypes.data, y.ctypes.data, x.size, (ctypes.c_ssize_t * k)(*lags), (ctypes.c_double * k)(*coeffs), k)
    return y


def _python_allpole(x: np.ndarray, lags: tuple[int, ...], coeffs: tuple[float, ...]) -> np.ndarray:
    """allpole as a Python loop."""
    y = x.tolist()
    terms = tuple(zip(lags, coeffs))
    for n in range(len(y)):
        acc = 0.0
        for lag, c in terms:
            if n >= lag:
                acc += c * y[n - lag]
        y[n] += acc
    return np.array(y)


def image_allpole(f: np.ndarray, a1: float, a2: float, a3: float) -> np.ndarray:
    """g(x, y) = a1 g(x-1, y) + a2 g(x, y-1) + a3 g(x-1, y-1) + f(x, y)
    over the 2-D f in raster order, zero boundary state, each pixel summed
    as ((f + a1 up) + a3 up_left) + (0.0 + a2 left). Runs kd_image_allpole
    when the compiled library is there. An unstable recursion may
    overflow; that is left to the caller."""
    if f.ndim != 2:
        raise ContractViolationError("the image recursion needs a 2-D input")
    lib = library()
    if lib is None:
        return _python_image_allpole(f, a1, a2, a3)
    f = np.ascontiguousarray(f, dtype=np.float64)
    g = np.empty_like(f)
    lib.kd_image_allpole(f.ctypes.data, g.ctypes.data, f.shape[0], f.shape[1], a1, a2, a3)
    return g


def _python_image_allpole(f: np.ndarray, a1: float, a2: float, a3: float) -> np.ndarray:
    """image_allpole as a loop over rows: within row x, g(x, y) = a2 g(x, y-1)
    + c(y) is a first-order all-pole recursion over y, driven by c from the
    row above."""
    g = np.empty(f.shape)
    prev = np.zeros(f.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for x in range(f.shape[0]):
            c = f[x] + a1 * prev
            c[1:] += a3 * prev[:-1]
            g[x] = prev = _python_allpole(c, (1,), (a2,))
    return g
