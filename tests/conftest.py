from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from kurtdeconv import M2_GUARD, ContractViolationError, DegenerateInputError, FilterTaps1D, _native, kurtosis_excess
from kurtdeconv.adapt import TAP_LIMIT
from kurtdeconv.signals import _rms_shift

# The same examples on every run: no random seed, no replay of examples
# saved by earlier runs, and no timing-dependent deadline failures.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def python_core(monkeypatch):
    """Run the Python loops (the adaptation pass and the all-pole recursion)
    in place of the compiled library."""
    monkeypatch.setattr(_native, "_LIBRARY", None)


def laplace_signal(seed, n):
    """Unit-variance i.i.d. Laplace draw, the standard super-gaussian source."""
    return np.random.default_rng(seed).laplace(0.0, 1.0 / np.sqrt(2.0), n)


def window(x, n, L):
    """Tap-ordered window of sample array x ending at n: element k is
    x[n-k], zero before index 0."""
    out = np.zeros(L)
    avail = min(L, n + 1)
    out[:avail] = x[n - avail + 1 : n + 1][::-1]
    return out


def patch(g, r, c, M, N):
    """M x N neighborhood of pixel array g centered at (r, c), zero outside."""
    out = np.zeros((M, N))
    r0, c0 = r - (M - 1) // 2, c - (N - 1) // 2
    rs, re = max(r0, 0), min(r0 + M, g.shape[0])
    cs, ce = max(c0, 0), min(c0 + N, g.shape[1])
    out[rs - r0 : re - r0, cs - c0 : ce - c0] = g[rs:re, cs:ce]
    return out


def batch_kurtosis(samples) -> float:
    """Raw-moment excess kurtosis mean(y^4)/mean(y^2)^2 - 3 (no demeaning)."""
    y = np.asarray(samples, dtype=np.float64).ravel()
    if y.size < 2:
        raise DegenerateInputError(f"need at least 2 samples, got {y.size}")
    y2 = y * y
    m2 = y2.mean()
    if m2 <= 0.0:
        raise DegenerateInputError("zero-energy input")
    return float((y2 * y2).mean() / (m2 * m2) - 3.0)


def rms_scaled_kurtosis(samples) -> float:
    """Excess kurtosis, mean removed, of the samples divided first by the
    power of two nearest their RMS: the reference kurtosis_excess, which
    divides by the power of two above the peak instead, must equal bit for
    bit."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    x = np.ldexp(x, -_rms_shift(x))
    x -= x.mean()
    x2 = x * x
    m2 = x2.mean()
    return float((x2 * x2).mean() / (m2 * m2) - 3.0)


def batch_gradient(y, windows) -> np.ndarray:
    """Exact batch gradient of the raw-moment kurtosis w.r.t. the taps.

        grad = 4*[E{y^2} E{y^3 x} - E{y^4} E{y x}] / E{y^2}^3

    with every expectation a plain sample average over the batch; y[i] is
    the filter output for regressor window windows[i]. Serves as the
    oracle the online update rule is checked against.
    """
    yv = np.asarray(y, dtype=np.float64).ravel()
    X = np.asarray(windows, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != yv.size:
        raise ContractViolationError(f"windows shape {X.shape} does not match {yv.size} outputs")
    y2 = yv * yv
    m2 = y2.mean()
    if m2 <= 0.0:
        raise DegenerateInputError("zero-energy output batch")
    m4 = (y2 * y2).mean()
    ey3x = (yv * y2) @ X / yv.size
    eyx = yv @ X / yv.size
    return 4.0 * (m2 * ey3x - m4 * eyx) / m2**3


class NearSingularMomentError(ArithmeticError):
    """Second-moment estimate is at or below M2_GUARD; the feedback value
    would blow up. Callers skip the corresponding filter update."""


@dataclass(frozen=True)
class MomentState:
    """EWMA estimates of E{y^2} and E{y^4} with smoothing factor beta."""

    m2: float
    m4: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.m2) and np.isfinite(self.m4) and np.isfinite(self.beta)):
            raise ContractViolationError("moment state values must be finite")
        if self.m2 < 0.0 or self.m4 < 0.0:
            raise ContractViolationError("moment estimates must be nonnegative")
        if not 0.0 <= self.beta <= 1.0:
            raise ContractViolationError(f"beta must lie in [0, 1], got {self.beta}")


def update_moments(state: MomentState, y: float) -> MomentState:
    """One EWMA step: m' = beta*m + (1-beta)*y^k for k = 2, 4."""
    y2 = y * y
    b = state.beta
    return MomentState(b * state.m2 + (1.0 - b) * y2, b * state.m4 + (1.0 - b) * y2 * y2, b)


def feedback(state: MomentState, y: float) -> float:
    """Instantaneous kurtosis-gradient feedback 4*[(m2*y^2 - m4)*y] / m2^3.

    Raises NearSingularMomentError when m2 is at or below M2_GUARD.
    """
    m2 = state.m2
    if m2 <= M2_GUARD:
        raise NearSingularMomentError(f"second moment {m2!r} at or below guard {M2_GUARD!r}")
    return float(4.0 * ((m2 * (y * y) - state.m4) * y) / (m2 * m2 * m2))


def adapt_step(h: FilterTaps1D, state: MomentState, window, mu: float):
    """One adaptive update; returns (y, new taps, new state).

    The moment state always advances; the tap update is skipped when the
    second moment is still under the singularity guard. This is the
    reference the adaptation engines are tested against, so y is summed
    tap by tap, in the order the engines sum it.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 1 or w.size != len(h):
        raise ContractViolationError(f"window shape {w.shape} does not match {len(h)} taps")
    y = 0.0
    for tap, value in zip(h.taps.tolist(), w.tolist()):
        y += tap * value
    state = update_moments(state, y)
    try:
        f = feedback(state, y)
    except NearSingularMomentError:
        return y, h, state
    return y, FilterTaps1D(h.taps + (mu * f) * w), state


def oracle_adapt(rows, h, block, cfg):
    """Repeated adapt_step over regressor rows[cfg.warmup:], cfg.passes
    times, from coefficients h and moments seeded with the batch moments
    of the warm-up block (zeros when it is empty).

    Returns the final coefficients and the (pass, row) at which any first
    exceeds TAP_LIMIT (the adaptation stops there), or None.
    """
    h = FilterTaps1D(h)
    y2 = block * block
    state = MomentState(y2.mean(), (y2 * y2).mean(), cfg.beta) if y2.size else MomentState(0.0, 0.0, cfg.beta)
    for p in range(cfg.passes):
        for n in range(cfg.warmup, len(rows)):
            _, h, state = adapt_step(h, state, rows[n], cfg.mu)
            if np.max(np.abs(h.taps)) > TAP_LIMIT:
                return h.taps, (p, n)
    return h.taps, None


def direct_surface(x, grid_a1, grid_a2):
    """|excess kurtosis| of x - a1 x(n-1) - a2 x(n-2) for every (a1, a2) on
    the grids, each cell filtered and measured on its own; NaN where the
    output has zero variance. The reference kurtosis_surface is tested
    against."""
    xm1 = np.concatenate(([0.0], x[:-1]))
    xm2 = np.concatenate(([0.0, 0.0], x[:-2]))
    surface = np.full((len(grid_a1), len(grid_a2)), np.nan)
    for i, a1 in enumerate(grid_a1):
        base = x - a1 * xm1
        for j, a2 in enumerate(grid_a2):
            try:
                surface[i, j] = abs(kurtosis_excess(base - a2 * xm2))
            except DegenerateInputError:
                continue
    return surface
