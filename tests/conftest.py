import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from kurtdeconv import M2_GUARD, ContractViolationError, DegenerateInputError, _native, kurtosis_excess
from kurtdeconv.adapt import TAP_LIMIT
from kurtdeconv.signals import _peak_shift

# The same examples on every run: no random seed, no replay of examples
# saved by earlier runs, and no timing-dependent deadline failures.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


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


def fir(h, x) -> np.ndarray:
    """Causal FIR filtering of the sample array x by the taps h, zero
    initial state: each output summed from 0.0 over the taps in order, the
    order of the walk filter (the TestWalkGuard filter oracle)."""
    y = np.zeros(x.size)
    for k, tap in enumerate(h):
        y = y + tap * np.concatenate((np.zeros(min(k, x.size)), x[: max(x.size - k, 0)]))
    return y


def fir_rounding(h, x) -> np.ndarray:
    """How far two sums of fir's products, in any order, can round apart:
    each is within gamma_K = K eps / 2 (to first order) of the exact sum
    of its K = len(h) products, relative to the sum of their magnitudes,
    so the two within K eps of it; (K + 1) eps covers the rest."""
    return (len(h) + 1) * np.finfo(np.float64).eps * fir(np.abs(h), np.abs(x))


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


def rms_shift(values: np.ndarray) -> int:
    """Exponent k of the power of two nearest the RMS of values (0 if all
    are zero): the reference scale the oracles read their regressors at,
    and the engines, at the peak's scale, must match bit for bit. The
    squares are summed after an exact division by the power of two above
    the peak, so they neither overflow nor underflow at any finite gain."""
    e = _peak_shift(values)
    scaled = np.ldexp(values, -e)
    mantissa, k = np.frexp(np.sqrt(np.vdot(scaled, scaled) / values.size))
    return int(k + e) - int(0.0 < mantissa < np.sqrt(0.5))


def rms_scaled_kurtosis(samples) -> float:
    """Excess kurtosis, mean removed, of the samples divided first by the
    power of two nearest their RMS: the reference kurtosis_excess, which
    divides by the power of two above the peak instead, must equal bit for
    bit."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    x = np.ldexp(x, -rms_shift(x))
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
    """EWMA estimates of E{y^2} and E{y^4} with smoothing factor beta. The
    estimates may have overflowed to inf or NaN, as the engines' do."""

    m2: float
    m4: float
    beta: float

    def __post_init__(self):
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

    Raises NearSingularMomentError unless m2 is above M2_GUARD (so also
    when it is NaN).
    """
    m2 = state.m2
    if not m2 > M2_GUARD:
        raise NearSingularMomentError(f"second moment {m2!r} at or below guard {M2_GUARD!r}")
    return float(4.0 * ((m2 * (y * y) - state.m4) * y) / (m2 * m2 * m2))


# The fewest taps whose output the engines form directly, read from the
# #define of AHEAD_BELOW in _adapt.c; below it, one row ahead (adapt_step).
AHEAD_BELOW = int(re.search(r"^#define AHEAD_BELOW (\d+)$", _native._SOURCE.read_text(), re.M)[1])


def output(h, w) -> float:
    """The a-priori output sum(h[j] * w[j]) in the engines' order: from
    0.0, an odd count's term 0 first; then the rest four at a time into
    lanes a0, a1, c0, c1, a leftover two into a0 and a1, added as
    (a0 + c0) + (a1 + c1), at every tap count."""
    terms = [tap * value for tap, value in zip(h, w)]
    y = 0.0
    if len(terms) % 2:
        y += terms.pop(0)
    lanes = [0.0] * 4
    for j, t in enumerate(terms[: len(terms) - len(terms) % 4]):
        lanes[j % 4] += t
    if len(terms) % 4:
        lanes[0] += terms[-2]
        lanes[1] += terms[-1]
    return y + ((lanes[0] + lanes[2]) + (lanes[1] + lanes[3]))


def adapt_step(h: np.ndarray, state: MomentState, window, mu: float, held=None):
    """One adaptive update of the float64 taps h; returns (y, new taps, new
    state).

    The moment state always advances; the tap update is skipped when the
    second moment is not above the singularity guard. This is the
    reference the adaptation engines are tested against, so y is formed as
    they form it, each sum term by term in their order (output), and an
    update that overflows to inf or NaN is followed, not warned about.

    held is None, or the update that made h: (the taps it updated, its g,
    its window), h = taps + g * window. Below AHEAD_BELOW taps y is then
    formed one row ahead, as output(taps, w) + g * output(window, w), which
    is h'w in exact arithmetic; otherwise y = output(h, w).
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 1 or w.shape != h.shape:
        raise ContractViolationError(f"window shape {w.shape} does not match {h.size} taps")
    if held is not None and h.size < AHEAD_BELOW:
        before, g, last = held
        y = output(before.tolist(), w.tolist()) + g * output(np.asarray(last, dtype=np.float64).tolist(), w.tolist())
    else:
        y = output(h.tolist(), w.tolist())
    state = update_moments(state, y)
    try:
        f = feedback(state, y)
    except NearSingularMomentError:
        return y, h, state
    with np.errstate(over="ignore", invalid="ignore"):
        return y, h + (mu * f) * w, state


def warmup_moments(block) -> tuple[float, float]:
    """The batch moments (mean y^2, mean y^4) of a warm-up block, zeros
    when it is empty: the moments the engines start from."""
    y2 = block * block
    return (y2.mean(), (y2 * y2).mean()) if y2.size else (0.0, 0.0)


def oracle_adapt(rows, h, moments, cfg, limit=TAP_LIMIT, ahead=True):
    """Repeated adapt_step over regressor rows[cfg.warmup:], cfg.passes
    times, from coefficients h and moments (m2, m4).

    Returns the final coefficients, the (pass, row) after whose update a
    coefficient first exceeds limit in magnitude or is NaN (the adaptation
    stops there) or None, and the final moments. Each row is given the
    update of the row before it in the pass, so that below AHEAD_BELOW taps
    its y is formed one row ahead; with ahead false, none (direct_adapt).
    """
    h = np.array(h, dtype=np.float64)
    state = MomentState(*map(float, moments), cfg.beta)
    for p in range(cfg.passes):
        held = None
        for n in range(cfg.warmup, len(rows)):
            y, updated, state = adapt_step(h, state, rows[n], cfg.mu, held)
            # adapt_step returns h itself when the guard skips the update
            if ahead and updated is not h:
                held = (h, cfg.mu * feedback(state, y), rows[n])
            else:
                held = None
            h = updated
            # negated, so NaN coefficients stop it too
            if not np.all(np.abs(h) <= limit):
                return h, (p, n), (state.m2, state.m4)
    return h, None, (state.m2, state.m4)


def direct_adapt(rows, h, moments, cfg, limit=TAP_LIMIT):
    """oracle_adapt with every y = output(h, w) over the taps the row's
    update meets: the paper's recursion, one update at a time, which the
    engines' outputs formed one row ahead stay within rounding of. From
    AHEAD_BELOW taps it is oracle_adapt."""
    return oracle_adapt(rows, h, moments, cfg, limit, ahead=False)


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
