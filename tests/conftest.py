import numpy as np
import pytest

from kurtdeconv import FilterTaps1D, MomentState, adapt_step
from kurtdeconv.adapt1d import TAP_LIMIT


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


def patch(g, r, c, M, N):
    """M x N neighborhood of pixel array g centered at (r, c), zero outside."""
    out = np.zeros((M, N))
    r0, c0 = r - (M - 1) // 2, c - (N - 1) // 2
    rs, re = max(r0, 0), min(r0 + M, g.shape[0])
    cs, ce = max(c0, 0), min(c0 + N, g.shape[1])
    out[rs - r0 : re - r0, cs - c0 : ce - c0] = g[rs:re, cs:ce]
    return out


def oracle_adapt(rows, h, block, cfg):
    """Repeated adapt_step over regressor rows[cfg.warmup:], cfg.passes
    times, from coefficients h and moments seeded by the warm-up block.

    Returns the final coefficients and the (pass, row) at which any first
    exceeds TAP_LIMIT (the adaptation stops there), or None.
    """
    h = FilterTaps1D(h)
    state = MomentState(float((block**2).mean()), float((block**4).mean()), cfg.beta)
    for p in range(cfg.passes):
        for n in range(cfg.warmup, len(rows)):
            _, h, state = adapt_step(h, state, rows[n], cfg.mu)
            if np.max(np.abs(h.taps)) > TAP_LIMIT:
                return h.taps, (p, n)
    return h.taps, None
