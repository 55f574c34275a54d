"""Online gradient-ascent maximum-kurtosis adaptive filtering.

Each step filters the current regressor, advances the running moment
estimates, and nudges the filter along feedback * regressor:

    y(n)    = h' x(n)
    h(n+1)  = h(n) + mu * f(n) * x(n)

with f(n) the instantaneous kurtosis-gradient feedback from stats. The
sign of mu selects whether kurtosis is pushed up (super-gaussian sources)
or down (sub-gaussian sources). One core runs this recursion over a
matrix of regressor rows; run_adapt feeds it the tap windows of a signal
and adapt2d.run_adapt2d the flattened patches of an image.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import ContractViolationError, DegenerateInputError, DivergenceError, NearSingularMomentError
from .signals import FilterTaps1D, Signal1D, _tap_windows, apply_taps
from .stats import M2_GUARD, MomentState, feedback, init_moments, kurtosis_excess, update_moments

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

    taps: int
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


def adapt_step(h: FilterTaps1D, state: MomentState, window: np.ndarray, mu: float):
    """One adaptive update; returns (y, new taps, new state).

    The moment state always advances; the tap update is skipped when the
    second moment is still under the singularity guard. This is the
    reference the adaptation core is tested against.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 1 or w.size != len(h):
        raise ContractViolationError(f"window shape {w.shape} does not match {len(h)} taps")
    y = float(h.taps @ w)
    state = update_moments(state, y)
    try:
        f = feedback(state, y)
    except NearSingularMomentError:
        return y, h, state
    return y, FilterTaps1D(h.taps + (mu * f) * w), state


def _adapt(X: np.ndarray, h: np.ndarray, cfg, filtered) -> tuple[np.ndarray, tuple[float, ...]]:
    """The adaptation recursion shared by run_adapt and run_adapt2d.

    Row n of the read-only matrix X is the regressor the filter sees at
    step n. The first cfg.warmup rows only seed the moment estimates with
    the output of the starting filter h; every pass then updates h in
    place over the remaining rows, moments carried across passes.
    filtered(h) is the full filtering of the input, whose excess kurtosis
    is recorded after each pass. Returns h and that per-pass trace.
    """
    state = init_moments(X[: cfg.warmup] @ h, cfg.beta)
    m2, m4 = state.m2, state.m4
    mu, beta = cfg.mu, cfg.beta
    omb = 1.0 - beta
    trace = []
    for pass_index in range(cfg.passes):
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
                    raise DivergenceError(
                        f"filter magnitude exceeded {TAP_LIMIT:g} at pass {pass_index}, sample {n}",
                        pass_index=pass_index,
                        sample_index=n,
                    )
        trace.append(kurtosis_excess(filtered(h)))
    return h, tuple(trace)


def run_adapt(x1: Signal1D, cfg: AdaptConfig) -> AdaptResult:
    """Adapt over the signal and return the converged filter and output.

    The first cfg.warmup samples only seed the moment estimates (filter
    output under the initial identity taps is the signal itself); every
    pass then updates over samples warmup..end, with taps and moments
    carried across passes. The returned output is one pure filtering pass
    of x1 with the final taps; the trace holds its excess kurtosis after
    each pass.
    """
    x = x1.samples
    if x.size <= cfg.warmup + cfg.taps:
        raise DegenerateInputError(f"signal length {x.size} too short for warmup {cfg.warmup} and {cfg.taps} taps")
    h = np.zeros(cfg.taps)
    h[0] = 1.0
    h, trace = _adapt(_tap_windows(x1, cfg.taps), h, cfg, lambda h: lfilter(h, [1.0], x))
    taps = FilterTaps1D(h)
    return AdaptResult(taps, apply_taps(x1, taps), trace[-1], trace)


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
