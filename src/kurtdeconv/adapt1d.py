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

Each pass of the core is one _native.adapt_pass: compiled C when a
compiler is available, else its Python twin, bit for bit the same. The
core filters nothing: a result keeps each pass's final coefficients, and
filters the input only when its output or kurtosis is first read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, permutations

import numpy as np

from ._native import adapt_pass
from .errors import ContractViolationError, DegenerateInputError, DivergenceError
from .metrics import _flat
from .signals import FilterTaps1D, Image2D, Signal1D, _rms_shift, _tap_windows, apply_taps
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
class FilteredOnRead:
    """The fields AdaptResult and Adapt2dResult share.

    input is the signal or image the filter was adapted on, pass_filters
    the filter at the end of each pass (the last is the result). output,
    the input filtered by the final filter, and its excess kurtosis
    final_kurtosis are computed on first read and kept. So is
    kurtosis_trace, the output's excess kurtosis after each pass, which
    filters the input once for each earlier pass. Errors of that filtering
    (a non-finite output, a zero-variance one) are raised on that read.
    A subclass supplies _filtered(coeffs), the input filtered by coeffs.
    """

    input: Signal1D | Image2D
    pass_filters: tuple

    @cached_property
    def output(self):
        return self._filtered(self.pass_filters[-1])

    @cached_property
    def final_kurtosis(self) -> float:
        return kurtosis_excess(_flat(self.output))

    @cached_property
    def kurtosis_trace(self) -> tuple[float, ...]:
        earlier = tuple(kurtosis_excess(_flat(self._filtered(f))) for f in self.pass_filters[:-1])
        return earlier + (self.final_kurtosis,)


@dataclass(frozen=True, eq=False)
class AdaptResult(FilteredOnRead):
    input: Signal1D
    pass_filters: tuple[FilterTaps1D, ...]

    @property
    def filter(self) -> FilterTaps1D:
        return self.pass_filters[-1]

    def _filtered(self, taps: FilterTaps1D) -> Signal1D:
        return apply_taps(self.input, taps)


def _adapt(X: np.ndarray, h: np.ndarray, cfg) -> list[np.ndarray]:
    """The adaptation recursion shared by run_adapt and run_adapt2d.

    Row n of the read-only float64 matrix X is the regressor the filter
    sees at step n. The first cfg.warmup rows only seed the moment
    estimates with the output of the starting filter h; every pass then
    updates the contiguous float64 h in place over the remaining rows,
    moments carried across passes. Returns a copy of h at the end of each
    pass; nothing is filtered here. A warm-up block whose second moment is
    at or below M2_GUARD (silence, since the rows are RMS-scaled) is a
    DegenerateInputError: its zero moments would make the first updates
    divide by a vanishing m2^3.
    """
    m = init_moments(X[: cfg.warmup] @ h)
    if cfg.warmup > 0 and m[0] <= M2_GUARD:
        raise DegenerateInputError(f"the {cfg.warmup}-sample warm-up is silent: second moment {m[0]:g} of the input power")
    pass_filters = []
    for pass_index in range(cfg.passes):
        n = adapt_pass(X, h, m, cfg.mu, cfg.beta, cfg.warmup, M2_GUARD, TAP_LIMIT)
        if n >= 0:
            raise DivergenceError(
                f"filter magnitude exceeded {TAP_LIMIT:g} at pass {pass_index}, sample {n}",
                pass_index=pass_index,
                sample_index=n,
            )
        pass_filters.append(h.copy())
    return pass_filters


def run_adapt(x1: Signal1D, cfg: AdaptConfig) -> AdaptResult:
    """Adapt over the signal and return the converged filter.

    The first cfg.warmup samples only seed the moment estimates (filter
    output under the initial identity taps is the signal itself); every
    pass then updates over samples warmup..end, with taps and moments
    carried across passes. The windows are divided by the power of two
    nearest the RMS of x1, which changes no tap but makes the moment guard
    relative to the input power. A DivergenceError is raised here; x1 is
    not filtered here. The result's output, one pure filtering pass of x1
    with the final taps, and its kurtosis fields are computed on first
    read (see FilteredOnRead).
    """
    x = x1.samples
    if x.size <= cfg.warmup + cfg.taps:
        raise DegenerateInputError(f"signal length {x.size} too short for warmup {cfg.warmup} and {cfg.taps} taps")
    h = np.zeros(cfg.taps)
    h[0] = 1.0
    pass_filters = _adapt(_tap_windows(x1, cfg.taps, _rms_shift(x)), h, cfg)
    return AdaptResult(x1, tuple(map(FilterTaps1D, pass_filters)))


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
    v = Rw, m2 = |v|^2 / N and m4 = sum of E{Q_p Q_q Q_r Q_s} v_p v_q v_r v_s
    over p, q, r, s. Differences rather than delayed copies keep smooth
    inputs, whose outputs nearly cancel in the low-order cells, as accurate
    as filtering cell by cell. A cell is degenerate when v vanishes to
    rounding, |Rw| <= 16 eps ||R| |w||.
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
    Q = np.zeros((3, x.size))
    np.ldexp(x, -_rms_shift(x), out=Q[0])
    Q[1] = np.diff(Q[0], prepend=0.0)
    Q[2] = np.diff(Q[1], prepend=0.0)
    Q -= Q.mean(axis=1, keepdims=True)
    R = np.zeros((3, 3))
    for k in range(3):
        for _ in range(2):
            for j in range(k):
                r = Q[j] @ Q[k]
                Q[k] -= r * Q[j]
                R[j, k] += r
        R[k, k] = np.sqrt(Q[k] @ Q[k])
        if R[k, k] > 0.0:
            Q[k] /= R[k, k]
    E4 = np.empty((3, 3, 3, 3))
    for p, q, r, s in combinations_with_replacement(range(3), 4):
        E4[tuple(zip(*permutations((p, q, r, s))))] = (Q[p] * Q[q]) @ (Q[r] * Q[s]) / x.size
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
    m2 = vv[ok] / x.size
    surface = np.full(vv.size, np.nan)
    surface[ok] = np.abs(np.einsum("pqrs,pc,qc,rc,sc->c", E4, v, v, v, v) / (m2 * m2) - 3.0)
    surface = surface.reshape(g1.size, g2.size)
    i, j = np.unravel_index(np.nanargmax(surface), surface.shape)
    return SurfaceResult(surface, (float(g1[i]), float(g2[j])))
