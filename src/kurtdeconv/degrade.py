"""Synthetic degradation systems, their analytic inverses, and the
parameter readout of an estimated inverse.

Every engine runs with zero initial/boundary state, which makes each
degrade/inverse pair an exact identity on finite data and gives the
identification experiments a machine-precision ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._native import allpole, image_allpole
from .errors import ContractViolationError, DegenerateInputError, DivergenceError
from .signals import FilterTaps1D, Image2D, Kernel2D, Signal1D, _array, _fir, _origin, _unit

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
    checked at run time, by the peak guard of apply_degradation, because the
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


def apply_degradation(spec: DegradeSpec, source):
    """Run the degradation spec describes, with zero initial and boundary
    state, on a Signal1D for a 1-D kind or an Image2D for an image kind;
    any other source is a ContractViolationError.

    echo_iir:   x(n) = a1 x(n-D) + a2 x(n-2D) + s(n)
    ar2_iir:    x(n) = a1 x(n-1) + a2 x(n-2) + s(n), echo_iir at D = 1
    fir2:       x(n) = s(n) + (a1+a2) s(n-1) + a1 a2 s(n-2), the FIR (1 + a1 z^-1)(1 + a2 z^-1)
    image_iir3: g(x,y) = a1 g(x-1,y) + a2 g(x,y-1) + a3 g(x-1,y-1) + f(x,y) in raster order;
                image_iir2 is the same with a3 = 0

    |a1|+|a2|+|a3| < 1 is a conservative sufficient bound for a bounded
    image recursion, but some sets outside it are bounded in practice:
    every set runs, and an output that overflows or peaks above 1e9 raises
    DivergenceError.
    """
    image = spec.kind.startswith("image_")
    if not isinstance(source, Image2D if image else Signal1D):
        raise ContractViolationError(f"{spec.kind} degrades {'an Image2D' if image else 'a Signal1D'}, got {type(source).__name__}")
    if spec.kind == "fir2":
        return Signal1D(_fir(np.array([1.0, spec.a1 + spec.a2, spec.a1 * spec.a2]), source.samples), sample_rate=source.sample_rate)
    if not image:
        return Signal1D(allpole(source.samples, (2 * spec.delay, spec.delay), (spec.a2, spec.a1)), sample_rate=source.sample_rate)
    g = image_allpole(source.pixels, spec.a1, spec.a2, spec.a3)
    peak = float(np.max(np.abs(g)))
    # negated form so NaN output also trips the guard
    if not peak <= 1e9:
        raise DivergenceError(f"degraded image peak {peak:g} indicates an unstable 2-D recursion")
    return Image2D(g)


def _slots(spec: DegradeSpec) -> dict[str, tuple]:
    """The parameter slots of spec's kind, echo_iir's scaled by its delay."""
    if spec.kind != "echo_iir":
        return _SLOTS[spec.kind]
    return {name: (pos * spec.delay, sign) for name, (pos, sign) in _SLOTS[spec.kind].items()}


def true_inverse(spec: DegradeSpec, taps: int | None = None) -> FilterTaps1D | Kernel2D:
    """The analytic inverse of spec: a 3x3 Kernel2D for an image kind, else
    FilterTaps1D of taps length, by default the fewest that hold every slot.

    The unit coefficient sits at the origin (tap 0, the kernel center) and
    each parameter at its slot: correlating with an image inverse computes
    g(x,y) - a1 g(x-1,y) - a2 g(x,y-1) - a3 g(x-1,y-1). fir2's inverse is
    the power series (impulse response) of 1 / (1 + (a1+a2) z^-1 + a1 a2
    z^-2), which converges because both roots -a1, -a2 lie inside the unit
    circle.
    """
    slots = _slots(spec)
    if spec.kind.startswith("image_"):
        if taps is not None:
            raise ContractViolationError(f"{spec.kind} has a 3x3 inverse kernel, not {taps} taps")
        h = _unit((3, 3))
    else:
        need = 1 + max(pos for pos, _ in slots.values())
        taps = need if taps is None else taps
        if taps < need:
            raise ContractViolationError(f"{spec.kind} inverse needs at least {need} taps, got {taps}")
        h = _unit(taps)
    if spec.kind == "fir2":
        return FilterTaps1D(allpole(h, (2, 1), (-(spec.a1 * spec.a2), -(spec.a1 + spec.a2))))
    for name, (pos, sign) in slots.items():
        h[tuple(np.add(_origin(h), pos))] = sign * getattr(spec, name)
    return Kernel2D(h) if h.ndim == 2 else FilterTaps1D(h)


def extract_parameters(spec: DegradeSpec, estimated) -> dict[str, float]:
    """Read identified parameters off an estimated filter: sign times the
    coefficient at each parameter slot of the analytic inverse, divided by
    the unit coefficient, tap 0 of taps or the center of a kernel."""
    if not isinstance(estimated, (FilterTaps1D, Kernel2D)):
        raise ContractViolationError(f"unsupported estimate type {type(estimated).__name__}")
    coeffs = _array(estimated)
    origin = _origin(coeffs)
    unit = coeffs[origin]
    if unit == 0.0:
        raise DegenerateInputError("a filter whose unit coefficient is 0 cannot be scaled")
    out = {}
    for name, (pos, sign) in _slots(spec).items():
        index = np.add(origin, pos)
        if np.size(pos) != coeffs.ndim or not np.all((index >= 0) & (index < coeffs.shape)):
            raise ContractViolationError(f"a {coeffs.shape} filter has no {spec.kind} slot at {pos}")
        out[name] = sign * coeffs[tuple(index)] / unit
    return out


def true_parameters(spec: DegradeSpec) -> dict[str, float]:
    """Identification targets: the parameter slots of the analytic inverse."""
    return extract_parameters(spec, true_inverse(spec))


def parameter_error(spec: DegradeSpec, estimated) -> dict[str, float]:
    """Per-coefficient absolute error |est - true| after normalization."""
    true = true_parameters(spec)
    est = extract_parameters(spec, estimated)
    return {name: abs(est[name] - true[name]) for name in true}
