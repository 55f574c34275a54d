"""The compiled kernels of _adapt.c: the adaptation pass of adapt1d and the
all-pole recursion of degrade.

The cc on PATH compiles _adapt.c on first use into this package's
__pycache__, under a name hashing its source and flags, and ctypes loads
it. Without a compiler, or where the cache cannot be written, library()
is None and each caller runs its Python loop of the same operations.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
from pathlib import Path

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
    return lib


_UNLOADED = object()
#: The compiled library once library() has loaded it, or None to run the
#: Python loops.
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
