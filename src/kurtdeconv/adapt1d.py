"""Online gradient-ascent maximum-kurtosis adaptive filtering.

Each step filters the current regressor, advances the running moment
estimates, and nudges the filter along f(n) * regressor:

    y(n)    = h' x(n)
    m2(n)   = beta * m2(n-1) + (1 - beta) * y(n)^2     (m4 likewise, y^4)
    f(n)    = 4 * [(m2(n) * y(n)^2 - m4(n)) * y(n)] / m2(n)^3
    h(n+1)  = h(n) + mu * f(n) * x(n)

with the tap update skipped while m2(n) <= stats.M2_GUARD. The
sign of mu selects whether kurtosis is pushed up (super-gaussian sources)
or down (sub-gaussian sources). One core runs this recursion over a
matrix of regressor rows; run_adapt feeds it the tap windows of a signal
and adapt2d.run_adapt2d the flattened patches of an image.

Each pass of the core runs in C (kd_adapt_pass, built and loaded by
_native) when a compiler is available, else as a Python loop. Both run
the same operations in the same order and raise the same DivergenceError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import ContractViolationError, DegenerateInputError, DivergenceError
from .signals import FilterTaps1D, Signal1D, _fir, _rms_shift, _tap_windows
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
    """Knobs for run_adapt.

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


@dataclass(frozen=True, eq=False)
class AdaptResult:
    filter: FilterTaps1D
    output: Signal1D
    final_kurtosis: float
    kurtosis_trace: tuple[float, ...]


def _compiled_pass(X: np.ndarray, h: np.ndarray, m: np.ndarray, cfg) -> int:
    """One pass of the recursion in C; same contract as _python_pass."""
    if not (
        X.dtype == h.dtype == np.float64
        and X.ndim == 2
        and X.shape[1] == h.size
        and h.flags.c_contiguous
        and h.flags.writeable
        and not any(stride % X.itemsize for stride in X.strides)
    ):
        raise ContractViolationError("the compiled pass needs float64 regressor rows and a writable contiguous filter")
    s0, s1 = (stride // X.itemsize for stride in X.strides)
    return _native.library().kd_adapt_pass(
        X.ctypes.data, s0, s1, cfg.warmup, X.shape[0], X.shape[1],
        h.ctypes.data, m.ctypes.data, cfg.mu, cfg.beta, M2_GUARD, TAP_LIMIT,
    )


def _python_pass(X: np.ndarray, h: np.ndarray, m: np.ndarray, cfg) -> int:
    """One pass of the recursion over rows cfg.warmup.. of X, updating the
    coefficients h and the moments m = [m2, m4] in place. Returns the
    first row after whose update a coefficient exceeds TAP_LIMIT in
    magnitude or is NaN (the pass stops there), or -1."""
    m2, m4 = m.tolist()
    mu, beta = cfg.mu, cfg.beta
    omb = 1.0 - beta
    failed = -1
    # an update that overflows is caught by the tap check, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.warmup, X.shape[0]):
            w = X[n]
            y = float(h @ w)
            y2 = y * y
            m2 = beta * m2 + omb * y2
            m4 = beta * m4 + omb * y2 * y2
            if m2 > M2_GUARD:
                f = 4.0 * ((m2 * y2 - m4) * y) / (m2 * m2 * m2)
                h += (mu * f) * w
                # negated form so NaN coefficients also trip the guard
                if not np.all(np.abs(h) <= TAP_LIMIT):
                    failed = n
                    break
    m[:] = m2, m4
    return failed


def _adapt(X: np.ndarray, h: np.ndarray, cfg, filtered) -> tuple[np.ndarray, tuple[float, ...], np.ndarray]:
    """The adaptation recursion shared by run_adapt and run_adapt2d.

    Row n of the read-only float64 matrix X is the regressor the filter
    sees at step n. The first cfg.warmup rows only seed the moment
    estimates with the output of the starting filter h; every pass then
    updates the contiguous float64 h in place over the remaining rows,
    moments carried across passes. filtered(h) is the full filtering of
    the input, whose excess kurtosis is recorded after each pass. Returns h,
    that per-pass trace and the last pass's filtered(h), the output of the
    final filter.
    """
    m = init_moments(X[: cfg.warmup] @ h)
    run_pass = _python_pass if _native.library() is None else _compiled_pass
    trace = []
    for pass_index in range(cfg.passes):
        n = run_pass(X, h, m, cfg)
        if n >= 0:
            raise DivergenceError(
                f"filter magnitude exceeded {TAP_LIMIT:g} at pass {pass_index}, sample {n}",
                pass_index=pass_index,
                sample_index=n,
            )
        y = filtered(h)
        trace.append(kurtosis_excess(y))
    return h, tuple(trace), y


def run_adapt(x1: Signal1D, cfg: AdaptConfig) -> AdaptResult:
    """Adapt over the signal and return the converged filter and output.

    The first cfg.warmup samples only seed the moment estimates (filter
    output under the initial identity taps is the signal itself); every
    pass then updates over samples warmup..end, with taps and moments
    carried across passes. The windows are divided by the power of two
    nearest the RMS of x1, which changes no tap but makes the moment guard
    relative to the input power. The returned output is one pure filtering
    pass of x1 with the final taps; the trace holds its excess kurtosis
    after each pass.
    """
    x = x1.samples
    if x.size <= cfg.warmup + cfg.taps:
        raise DegenerateInputError(f"signal length {x.size} too short for warmup {cfg.warmup} and {cfg.taps} taps")
    h = np.zeros(cfg.taps)
    h[0] = 1.0
    h, trace, y = _adapt(_tap_windows(x1, cfg.taps, _rms_shift(x)), h, cfg, lambda h: _fir(h, x))
    return AdaptResult(FilterTaps1D(h), Signal1D(y, sample_rate=x1.sample_rate), trace[-1], trace)


@dataclass(frozen=True, eq=False)
class SurfaceResult:
    surface: np.ndarray
    argmax: tuple[float, float]


def kurtosis_surface(x1: Signal1D, grid_a1, grid_a2) -> SurfaceResult:
    """|excess kurtosis| of [1, -a1, -a2]-filtered x1 over a parameter grid.

    surface[i, j] corresponds to (grid_a1[i], grid_a2[j]); cells whose
    filtered output is degenerate are NaN and excluded from the argmax.
    """
    g1 = np.asarray(grid_a1, dtype=np.float64)
    g2 = np.asarray(grid_a2, dtype=np.float64)
    if g1.size == 0 or g2.size == 0:
        raise ContractViolationError("grids must be nonempty")
    if not (np.all(np.isfinite(g1)) and np.all(np.isfinite(g2))):
        raise ContractViolationError("grids contain non-finite values")
    x = x1.samples
    if x.size < 3:
        raise DegenerateInputError("need at least 3 samples")
    xm1 = np.concatenate(([0.0], x[:-1]))
    xm2 = np.concatenate(([0.0, 0.0], x[:-2]))
    surface = np.full((g1.size, g2.size), np.nan)
    for i, a1 in enumerate(g1):
        base = x - a1 * xm1
        for j, a2 in enumerate(g2):
            y = base - a2 * xm2
            try:
                surface[i, j] = abs(kurtosis_excess(y))
            except DegenerateInputError:
                continue
    if np.all(np.isnan(surface)):
        raise DegenerateInputError("every grid cell produced a degenerate output")
    i, j = np.unravel_index(np.nanargmax(surface), surface.shape)
    return SurfaceResult(surface, (float(g1[i]), float(g2[j])))
