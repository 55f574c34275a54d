"""Synthetic degradation systems and their analytic inverses.

Every engine runs with zero initial/boundary state, which makes each
degrade/inverse pair an exact identity on finite data and gives the
identification experiments a machine-precision ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._native import allpole, image_allpole
from .errors import ContractViolationError, DivergenceError
from .signals import FilterTaps1D, Image2D, Kernel2D, Signal1D, _fir

# Where each kind's identified parameters sit in its analytic inverse,
# {name: (position, sign)}: the parameter is sign times the coefficient at
# that position once the unit coefficient is +1. 1-D positions are tap
# indices counted from the unit tap 0 (echo_iir's in units of its delay
# D); image positions are (row, col) offsets from the unit kernel center.
_SLOTS = {
    "echo_iir": {"a1": (1, -1.0), "a2": (2, -1.0)},
    "ar2_iir": {"a1": (1, -1.0), "a2": (2, -1.0)},
    "fir2": {"h1": (1, 1.0), "h2": (2, 1.0)},
    "image_iir2": {"a1": ((-1, 0), -1.0), "a2": ((0, -1), -1.0)},
    "image_iir3": {"a1": ((-1, 0), -1.0), "a2": ((0, -1), -1.0), "a3": ((-1, -1), -1.0)},
}
KINDS = tuple(_SLOTS)


def stability_check(a1: float, a2: float) -> bool:
    """True iff both roots of z^2 - a1 z - a2 are strictly inside the unit
    circle (the AR(2) stability triangle)."""
    return abs(a2) < 1.0 and a2 + a1 < 1.0 and a2 - a1 < 1.0


@dataclass(frozen=True)
class DegradeSpec:
    """Parametric description of a degrading system.

    For echo_iir, ``delay`` is the echo spacing D; every other kind takes
    the default 1. a3 is meaningful only for image_iir3. The 1-D recursive
    kinds must satisfy the stability triangle. The image kinds are only
    checked at run time, by the peak guard of image_iir, because the
    conservative 2-D bound excludes parameter sets that are still usable in
    practice.
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
        if self.kind != "echo_iir" and self.delay != 1:
            raise ContractViolationError(f"delay is only meaningful for echo_iir, got {self.delay}")
        if self.kind != "image_iir3" and self.a3 != 0.0:
            raise ContractViolationError(f"a3 is only meaningful for image_iir3, got {self.a3}")


def echo_iir(s: Signal1D, a1: float, a2: float, delay: int) -> Signal1D:
    """x(n) = a1 x(n-D) + a2 x(n-2D) + s(n), zero initial state."""
    if delay < 1:
        raise ContractViolationError(f"delay must be >= 1, got {delay}")
    if not stability_check(a1, a2):
        raise ContractViolationError(f"({a1}, {a2}) lies outside the stability triangle")
    return Signal1D(allpole(s.samples, (2 * delay, delay), (a2, a1)), sample_rate=s.sample_rate)


def ar2_iir(s: Signal1D, a1: float, a2: float) -> Signal1D:
    """x(n) = a1 x(n-1) + a2 x(n-2) + s(n), zero initial state."""
    return echo_iir(s, a1, a2, 1)


def fir_degrade(s: Signal1D, a1: float, a2: float) -> Signal1D:
    """FIR degradation with taps [1, a1+a2, a1*a2] = (1 + a1 z^-1)(1 + a2 z^-1)."""
    if not (abs(a1) < 1.0 and abs(a2) < 1.0):
        raise ContractViolationError("need |a1| < 1 and |a2| < 1 so the IIR inverse decays")
    return Signal1D(_fir(np.array([1.0, a1 + a2, a1 * a2]), s.samples), sample_rate=s.sample_rate)


def image_iir(img: Image2D, a1: float, a2: float, a3: float = 0.0) -> Image2D:
    """g(x,y) = a1 g(x-1,y) + a2 g(x,y-1) + a3 g(x-1,y-1) + f(x,y).

    Raster-order causal recursion with zero boundary. |a1|+|a2|+|a3| < 1
    is a conservative sufficient bound for a bounded recursion, but some
    sets outside it are bounded in practice: every set runs, and an output
    that overflows or peaks above 1e9 raises DivergenceError.
    """
    g = image_allpole(img.pixels, a1, a2, a3)
    peak = float(np.max(np.abs(g)))
    # negated form so NaN output also trips the guard
    if not peak <= 1e9:
        raise DivergenceError(f"degraded image peak {peak:g} indicates an unstable 2-D recursion")
    return Image2D(g)


def apply_degradation(spec: DegradeSpec, source):
    """Run the degradation a spec describes on a Signal1D or Image2D."""
    if spec.kind == "echo_iir":
        return echo_iir(source, spec.a1, spec.a2, spec.delay)
    if spec.kind == "ar2_iir":
        return ar2_iir(source, spec.a1, spec.a2)
    if spec.kind == "fir2":
        return fir_degrade(source, spec.a1, spec.a2)
    return image_iir(source, spec.a1, spec.a2, spec.a3)


def _slots(spec: DegradeSpec) -> dict[str, tuple]:
    """The parameter slots of spec's kind, echo_iir's scaled by its delay."""
    if spec.kind != "echo_iir":
        return _SLOTS[spec.kind]
    return {name: (pos * spec.delay, sign) for name, (pos, sign) in _SLOTS[spec.kind].items()}


def true_inverse_taps(spec: DegradeSpec, L: int) -> FilterTaps1D:
    """Analytic inverse filter of a 1-D spec, truncated/padded to L taps.

    Tap 0 is 1 and each parameter sits at its slot; fir2's inverse is the
    power series (impulse response) of 1 / (1 + (a1+a2) z^-1 + a1 a2 z^-2),
    which converges because both roots -a1, -a2 lie inside the unit circle.
    """
    if spec.kind.startswith("image_"):
        raise ContractViolationError(f"{spec.kind} has no 1-D inverse filter")
    slots = _slots(spec)
    need = 1 + max(pos for pos, _ in slots.values())
    if L < need:
        raise ContractViolationError(f"{spec.kind} inverse needs L >= {need}")
    h = np.zeros(L)
    h[0] = 1.0
    if spec.kind == "fir2":
        return FilterTaps1D(allpole(h, (2, 1), (-(spec.a1 * spec.a2), -(spec.a1 + spec.a2))))
    for name, (pos, sign) in slots.items():
        h[pos] = sign * getattr(spec, name)
    return FilterTaps1D(h)


def true_inverse_kernel(spec: DegradeSpec) -> Kernel2D:
    """Analytic 3x3 inverse kernel of an image spec.

    Correlating with it computes g(x,y) - a1 g(x-1,y) - a2 g(x,y-1)
    - a3 g(x-1,y-1): the 1 sits at the center, -a1 directly above it,
    -a2 directly left, -a3 on the upper-left diagonal.
    """
    if not spec.kind.startswith("image_"):
        raise ContractViolationError(f"{spec.kind} has no 2-D inverse kernel")
    w = np.zeros((3, 3))
    w[1, 1] = 1.0
    for name, ((dr, dc), sign) in _SLOTS[spec.kind].items():
        w[1 + dr, 1 + dc] = sign * getattr(spec, name)
    return Kernel2D(w)


def _true_inverse(spec: DegradeSpec):
    """The analytic inverse of spec at the smallest size holding its slots."""
    if spec.kind.startswith("image_"):
        return true_inverse_kernel(spec)
    return true_inverse_taps(spec, 1 + max(pos for pos, _ in _slots(spec).values()))
