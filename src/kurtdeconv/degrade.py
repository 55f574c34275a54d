"""Synthetic degradation systems and their analytic inverses.

Every engine runs with zero initial/boundary state, which makes each
degrade/inverse pair an exact identity on finite data and gives the
identification experiments a machine-precision ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import ContractViolationError, DivergenceError
from .signals import FilterTaps1D, Image2D, Kernel2D, Signal1D

KINDS = ("echo_iir", "ar2_iir", "fir2", "image_iir2", "image_iir3")


def stability_check(a1: float, a2: float) -> bool:
    """True iff both roots of z^2 - a1 z - a2 are strictly inside the unit
    circle (the AR(2) stability triangle)."""
    return abs(a2) < 1.0 and a2 + a1 < 1.0 and a2 - a1 < 1.0


@dataclass(frozen=True)
class DegradeSpec:
    """Parametric description of a degrading system.

    For echo_iir, ``delay`` is the echo spacing D; a3 is meaningful only
    for image_iir3. The 1-D recursive kinds must satisfy the stability
    triangle. The image kinds are only checked at run time because the
    conservative 2-D bound excludes parameter sets that are still usable
    in practice (see image_iir).
    """

    kind: str
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    delay: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractViolationError(f"unknown degradation kind {self.kind!r}, expected one of {KINDS}")
        for name in ("a1", "a2", "a3"):
            if not np.isfinite(getattr(self, name)):
                raise ContractViolationError(f"{name} must be finite")
        if self.kind in ("echo_iir", "ar2_iir") and not stability_check(self.a1, self.a2):
            raise ContractViolationError(f"({self.a1}, {self.a2}) lies outside the stability triangle")
        if self.kind == "fir2" and not (abs(self.a1) < 1.0 and abs(self.a2) < 1.0):
            raise ContractViolationError("fir2 requires |a1| < 1 and |a2| < 1 for an invertible system")
        if self.kind == "echo_iir" and self.delay < 1:
            raise ContractViolationError(f"delay must be >= 1, got {self.delay}")
        if self.kind != "image_iir3" and self.a3 != 0.0:
            raise ContractViolationError(f"a3 is only meaningful for image_iir3, got {self.a3}")


def echo_iir(s: Signal1D, a1: float, a2: float, delay: int) -> Signal1D:
    """x(n) = a1 x(n-D) + a2 x(n-2D) + s(n), zero initial state."""
    if delay < 1:
        raise ContractViolationError(f"delay must be >= 1, got {delay}")
    if not stability_check(a1, a2):
        raise ContractViolationError(f"({a1}, {a2}) lies outside the stability triangle")
    a_poly = np.zeros(2 * delay + 1)
    a_poly[0] = 1.0
    a_poly[delay] = -a1
    a_poly[2 * delay] = -a2
    return Signal1D(lfilter([1.0], a_poly, s.samples), sample_rate=s.sample_rate)


def ar2_iir(s: Signal1D, a1: float, a2: float) -> Signal1D:
    """x(n) = a1 x(n-1) + a2 x(n-2) + s(n), zero initial state."""
    return echo_iir(s, a1, a2, 1)


def fir_degrade(s: Signal1D, a1: float, a2: float) -> Signal1D:
    """FIR degradation with taps [1, a1+a2, a1*a2] = (1 + a1 z^-1)(1 + a2 z^-1)."""
    if not (abs(a1) < 1.0 and abs(a2) < 1.0):
        raise ContractViolationError("need |a1| < 1 and |a2| < 1 so the IIR inverse decays")
    return Signal1D(lfilter([1.0, a1 + a2, a1 * a2], [1.0], s.samples), sample_rate=s.sample_rate)


def inverse_fir_taps(a1: float, a2: float, L: int) -> FilterTaps1D:
    """First L taps of the power-series inverse of [1, a1+a2, a1*a2].

    h(0) = 1, h(k) = -(a1+a2) h(k-1) - a1 a2 h(k-2); converges because
    both roots -a1, -a2 of the degrading polynomial lie inside the unit
    circle.
    """
    if not (abs(a1) < 1.0 and abs(a2) < 1.0):
        raise ContractViolationError("inverse taps diverge unless |a1| < 1 and |a2| < 1")
    if L < 3:
        raise ContractViolationError(f"need L >= 3 taps, got {L}")
    h = np.zeros(L)
    h[0] = 1.0
    h[1] = -(a1 + a2)
    for k in range(2, L):
        h[k] = -(a1 + a2) * h[k - 1] - (a1 * a2) * h[k - 2]
    return FilterTaps1D(h)


def image_iir(img: Image2D, a1: float, a2: float, a3: float = 0.0, *, check_stability: bool = True) -> Image2D:
    """g(x,y) = a1 g(x-1,y) + a2 g(x,y-1) + a3 g(x-1,y-1) + f(x,y).

    Raster-order causal recursion with zero boundary. |a1|+|a2|+|a3| < 1
    is a conservative sufficient bound for a bounded recursion; callers
    that knowingly run outside it (some 3-parameter setups are bounded in
    practice) pass check_stability=False, and an output that overflows or
    peaks above 1e9 then raises DivergenceError.
    """
    if check_stability and abs(a1) + abs(a2) + abs(a3) >= 1.0:
        raise ContractViolationError(
            f"|a1|+|a2|+|a3| = {abs(a1) + abs(a2) + abs(a3):g} >= 1; "
            "pass check_stability=False to run outside the conservative bound"
        )
    f = img.pixels
    g = np.empty_like(f)
    prev = np.zeros(img.width)
    # Row recursion: within a row, g(x, y) = a2 g(x, y-1) + c(y) is a
    # first-order IIR over y with driving term c from the row above. An
    # unstable recursion may overflow; that is reported below, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        for x in range(img.height):
            c = f[x].copy()
            c += a1 * prev
            c[1:] += a3 * prev[:-1]
            g[x] = lfilter([1.0], [1.0, -a2], c)
            prev = g[x]
    if not check_stability:
        peak = float(np.max(np.abs(g)))
        # negated form so NaN output also trips the guard
        if not peak <= 1e9:
            raise DivergenceError(f"degraded image peak {peak:g} indicates an unstable 2-D recursion")
    return Image2D(g)


def inverse_kernel_2d(a1: float, a2: float, a3: float = 0.0) -> Kernel2D:
    """3x3 center-anchored kernel inverting image_iir exactly.

    Correlating with it computes g(x,y) - a1 g(x-1,y) - a2 g(x,y-1)
    - a3 g(x-1,y-1): the 1 sits at the center, -a1 directly above it,
    -a2 directly left, -a3 on the upper-left diagonal.
    """
    w = np.zeros((3, 3))
    w[1, 1] = 1.0
    w[0, 1] = -a1
    w[1, 0] = -a2
    w[0, 0] = -a3
    return Kernel2D(w)


def apply_degradation(spec: DegradeSpec, source):
    """Run the degradation a spec describes on a Signal1D or Image2D."""
    if spec.kind == "echo_iir":
        return echo_iir(source, spec.a1, spec.a2, spec.delay)
    if spec.kind == "ar2_iir":
        return ar2_iir(source, spec.a1, spec.a2)
    if spec.kind == "fir2":
        return fir_degrade(source, spec.a1, spec.a2)
    conservative = abs(spec.a1) + abs(spec.a2) + abs(spec.a3) < 1.0
    return image_iir(source, spec.a1, spec.a2, spec.a3, check_stability=conservative)


def true_inverse_taps(spec: DegradeSpec, L: int) -> FilterTaps1D:
    """Analytic inverse filter of a 1-D spec, truncated/padded to L taps."""
    h = np.zeros(L)
    if spec.kind == "ar2_iir":
        if L < 3:
            raise ContractViolationError("AR(2) inverse needs L >= 3")
        h[0], h[1], h[2] = 1.0, -spec.a1, -spec.a2
    elif spec.kind == "echo_iir":
        if L < 2 * spec.delay + 1:
            raise ContractViolationError(f"echo inverse needs L >= {2 * spec.delay + 1}")
        h[0] = 1.0
        h[spec.delay] = -spec.a1
        h[2 * spec.delay] = -spec.a2
    elif spec.kind == "fir2":
        return inverse_fir_taps(spec.a1, spec.a2, L)
    else:
        raise ContractViolationError(f"{spec.kind} has no 1-D inverse filter")
    return FilterTaps1D(h)


def true_inverse_kernel(spec: DegradeSpec) -> Kernel2D:
    """Analytic 3x3 inverse kernel of an image spec."""
    if spec.kind not in ("image_iir2", "image_iir3"):
        raise ContractViolationError(f"{spec.kind} has no 2-D inverse kernel")
    return inverse_kernel_2d(spec.a1, spec.a2, spec.a3)
