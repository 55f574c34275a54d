import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import lfilter

from kurtdeconv import (
    ContractViolationError,
    DegradeSpec,
    DivergenceError,
    Image2D,
    Signal1D,
    apply_degradation,
    apply_kernel,
    apply_taps,
    kurtosis_excess,
    true_inverse,
)
from kurtdeconv import _native
from kurtdeconv._native import allpole
from kurtdeconv.degrade import KINDS
from kurtdeconv.signals import _array
from conftest import fir, fir_rounding, laplace_signal


def fir2_inverse(a1, a2, L):
    return true_inverse(DegradeSpec(kind="fir2", a1=a1, a2=a2), L)


def image_inverse(a1, a2, a3=0.0):
    return true_inverse(DegradeSpec(kind="image_iir3" if a3 else "image_iir2", a1=a1, a2=a2, a3=a3))


class TestStability:
    # the 1-D recursive kinds take (a1, a2) inside the stability triangle only
    @pytest.mark.parametrize("kind", ["ar2_iir", "echo_iir"])
    def test_known_good_pair(self, kind):
        assert DegradeSpec(kind, a1=0.6, a2=0.3).a1 == 0.6

    @pytest.mark.parametrize("kind", ["ar2_iir", "echo_iir"])
    def test_triangle_violation(self, kind):
        with pytest.raises(ContractViolationError, match="stability triangle"):
            DegradeSpec(kind, a1=1.0, a2=0.5)

    @pytest.mark.parametrize("kind", ["ar2_iir", "echo_iir"])
    def test_identity(self, kind):
        assert DegradeSpec(kind).a2 == 0.0

    # each edge of the triangle on its own, just inside and on it: |a2| < 1,
    # a2 + a1 < 1 and a2 - a1 < 1 are each strict
    @pytest.mark.parametrize("inside, on", [((0.0, -0.99), (0.0, -1.0)), ((0.59, 0.4), (0.6, 0.4)), ((-0.59, 0.4), (-0.6, 0.4))])
    def test_each_edge_is_strict(self, inside, on):
        assert DegradeSpec("ar2_iir", *inside).a1 == inside[0]
        with pytest.raises(ContractViolationError, match="stability triangle"):
            DegradeSpec("ar2_iir", *on)


class TestDegradeSpec:
    def test_unknown_kind(self):
        with pytest.raises(ContractViolationError):
            DegradeSpec(kind="fir9")

    def test_unstable_rejected(self):
        with pytest.raises(ContractViolationError):
            DegradeSpec(kind="ar2_iir", a1=1.0, a2=0.5)

    def test_a3_only_for_three_parameter_kind(self):
        with pytest.raises(ContractViolationError):
            DegradeSpec(kind="ar2_iir", a1=0.1, a2=0.1, a3=0.5)

    @pytest.mark.parametrize("kind, delay", [("ar2_iir", 0), ("fir2", -3), ("ar2_iir", 2), ("image_iir2", 5)])
    def test_delay_only_for_echo_kind(self, kind, delay):
        with pytest.raises(ContractViolationError):
            DegradeSpec(kind=kind, a1=0.5, a2=0.2, delay=delay)

    def test_aggressive_image_sets_constructible(self):
        DegradeSpec(kind="image_iir3", a1=0.8, a2=-0.4, a3=0.5)
        DegradeSpec(kind="image_iir3", a1=0.8, a2=-0.3, a3=0.2)


class TestEchoIir:
    def test_identity(self, rng):
        s = Signal1D(rng.standard_normal(100))
        assert np.array_equal(apply_degradation(DegradeSpec("echo_iir", 0.0, 0.0, delay=5), s).samples, s.samples)

    def test_geometric_echo(self):
        impulse = Signal1D([1.0] + [0.0] * 7)
        x = apply_degradation(DegradeSpec("echo_iir", 0.5, 0.0, delay=2), impulse).samples
        assert np.allclose(x, [1, 0, 0.5, 0, 0.25, 0, 0.125, 0], atol=1e-14)

    def test_gaussianizes_speechlike_source(self):
        s = Signal1D(laplace_signal(21, 100_000))
        x = apply_degradation(DegradeSpec("echo_iir", -0.6, 0.3, delay=100), s)
        assert abs(kurtosis_excess(x.samples)) < abs(kurtosis_excess(s.samples))

    def test_unstable_rejected(self):
        with pytest.raises(ContractViolationError):
            apply_degradation(DegradeSpec("echo_iir", 0.9, 0.9, delay=3), Signal1D([1.0, 0.0]))

    def test_delay_one_equals_ar2(self, rng):
        s = Signal1D(rng.standard_normal(500))
        echo = apply_degradation(DegradeSpec("echo_iir", 0.4, -0.2, delay=1), s)
        assert np.array_equal(echo.samples, apply_degradation(DegradeSpec("ar2_iir", 0.4, -0.2), s).samples)


class TestAr2Iir:
    def test_identity(self, rng):
        s = Signal1D(rng.standard_normal(64))
        assert np.array_equal(apply_degradation(DegradeSpec("ar2_iir", 0.0, 0.0), s).samples, s.samples)

    def test_impulse_response_recursion(self):
        impulse = Signal1D([1.0] + [0.0] * 5)
        x = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), impulse).samples
        assert np.allclose(x[:4], [1.0, 0.6, 0.66, 0.576], atol=1e-14)

    def test_inverse_fir_reproduces_source(self, rng):
        s = Signal1D(rng.standard_normal(300))
        x = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), s)
        back = lfilter([1.0, -0.6, -0.3], [1.0], x.samples)
        assert np.max(np.abs(back - s.samples)) < 1e-12


class TestFirDegrade:
    def test_identity(self, rng):
        s = Signal1D(rng.standard_normal(64))
        assert np.array_equal(apply_degradation(DegradeSpec("fir2", 0.0, 0.0), s).samples, s.samples)

    def test_impulse(self):
        impulse = Signal1D([1.0] + [0.0] * 4)
        x = apply_degradation(DegradeSpec("fir2", 0.5, 0.2), impulse).samples
        assert np.allclose(x, [1.0, 0.7, 0.1, 0.0, 0.0], atol=1e-14)

    def test_inverse_first_tap_from_sum(self):
        # a1 + a2 = 0.7 makes the analytic inverse h(1) = -0.7
        taps = fir2_inverse(0.5, 0.2, 8).taps
        assert taps[1] == pytest.approx(-0.7, abs=1e-12)

    def test_precondition(self):
        with pytest.raises(ContractViolationError):
            apply_degradation(DegradeSpec("fir2", 1.2, 0.0), Signal1D([1.0]))


class TestInverseFirTaps:
    def test_first_three_formula(self):
        for a1, a2 in [(0.5, 0.2), (-0.3, 0.6), (0.1, -0.7)]:
            t = fir2_inverse(a1, a2, 5).taps
            assert t[0] == 1.0
            assert t[1] == pytest.approx(-(a1 + a2), abs=1e-14)
            assert t[2] == pytest.approx(a1**2 + a1 * a2 + a2**2, abs=1e-14)

    def test_zero_parameters(self):
        assert fir2_inverse(0.0, 0.0, 6).taps.tolist() == [1, 0, 0, 0, 0, 0]

    def test_convolution_oracle(self):
        # truncated inverse times the degrading FIR is an impulse up to a
        # tail residual that has decayed below 1e-6 by tap 62
        inv = fir2_inverse(0.5, 0.2, 64).taps
        conv = np.convolve(inv, [1.0, 0.7, 0.1])
        assert conv[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(conv[1:62])) < 1e-12
        assert np.max(np.abs(conv[62:])) < 1e-6

    def test_needs_three_taps(self):
        with pytest.raises(ContractViolationError):
            fir2_inverse(0.1, 0.1, 2)


class TestImageIir:
    def test_identity(self, rng):
        img = Image2D(rng.standard_normal((8, 9)))
        assert np.array_equal(apply_degradation(DegradeSpec("image_iir2", 0.0, 0.0), img).pixels, img.pixels)

    def test_impulse_hand_recursion(self):
        f = np.zeros((3, 3))
        f[0, 0] = 1.0
        g = apply_degradation(DegradeSpec("image_iir2", 0.5, 0.4), Image2D(f)).pixels
        assert g[1, 0] == pytest.approx(0.5)
        assert g[0, 1] == pytest.approx(0.4)
        assert g[1, 1] == pytest.approx(0.4, abs=1e-14)  # 0.5*0.4 + 0.4*0.5

    def test_inverse_kernel_round_trip(self, rng):
        img = Image2D(rng.standard_normal((16, 13)))
        g = apply_degradation(DegradeSpec("image_iir2", 0.5, 0.4), img)
        back = apply_kernel(g, image_inverse(0.5, 0.4))
        assert np.max(np.abs(back.pixels - img.pixels)) < 1e-10

    def test_runs_outside_conservative_bound(self, rng):
        # |a1|+|a2| = 1.2: bounded on a small image, and exactly inverted
        img = Image2D(rng.standard_normal((4, 4)))
        back = apply_kernel(apply_degradation(DegradeSpec("image_iir2", 0.8, 0.4), img), image_inverse(0.8, 0.4))
        assert np.max(np.abs(back.pixels - img.pixels)) < 1e-10
        with pytest.raises(DivergenceError):
            apply_degradation(DegradeSpec("image_iir3", 0.99, 0.99, 0.99), Image2D(np.ones((64, 64))))

    @pytest.mark.parametrize("size", [64, 512])
    def test_unstable_recursion_raises_divergence(self, size):
        # 64: finite but far past the peak limit; 512: overflows to inf/nan
        spec = DegradeSpec(kind="image_iir3", a1=0.99, a2=0.99, a3=0.99)
        img = Image2D(np.random.default_rng(1).random((size, size)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                apply_degradation(spec, img)



@pytest.mark.parametrize("spec", [
    DegradeSpec("ar2_iir", 0.6, 0.3), DegradeSpec("echo_iir", 0.6, 0.3, delay=3), DegradeSpec("fir2", 0.6, 0.3),
    DegradeSpec("image_iir2", 0.6, 0.3), DegradeSpec("image_iir3", 0.3, 0.2, 0.1),
])
def test_overflowing_degradation_raises_divergence(spec):
    # the samples are finite; the degraded output is not, and that is the
    # recursion's failure, not the caller's: stable coefficients overflow
    # a signal or image at the top of the float64 range as well
    source = Image2D(np.full((10, 10), 1e308)) if spec.kind.startswith("image_") else Signal1D(np.full(100, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            apply_degradation(spec, source)

@pytest.mark.parametrize("kind", KINDS)
def test_source_of_the_other_dimension_rejected(kind):
    spec = DegradeSpec(kind, 0.1, 0.1)
    source = Signal1D(np.ones(9)) if kind.startswith("image_") else Image2D(np.ones((3, 3)))
    with pytest.raises(ContractViolationError):
        apply_degradation(spec, source)


class TestInverseKernel2d:
    def test_stated_positions(self):
        w = image_inverse(0.5, 0.4).weights
        want = np.zeros((3, 3))
        want[1, 1], want[0, 1], want[1, 0] = 1.0, -0.5, -0.4
        assert np.array_equal(w, want)

    def test_identity(self):
        w = image_inverse(0.0, 0.0).weights
        assert w[1, 1] == 1.0 and np.count_nonzero(w) == 1

    def test_three_parameter_round_trip(self, rng):
        img = Image2D(rng.standard_normal((12, 12)))
        g = apply_degradation(DegradeSpec("image_iir3", 0.3, 0.2, 0.1), img)
        back = apply_kernel(g, image_inverse(0.3, 0.2, 0.1))
        assert np.max(np.abs(back.pixels - img.pixels)) < 1e-10


class TestGaussianization:
    @pytest.mark.parametrize("source_kind", ["laplace", "uniform"])
    def test_degradation_shrinks_kurtosis(self, source_kind):
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            if source_kind == "laplace":
                s = rng.laplace(0.0, 1.0, 100_000)
            else:
                s = rng.uniform(-1.0, 1.0, 100_000)
            x = apply_degradation(DegradeSpec("ar2_iir", 0.6, -0.3), Signal1D(s))
            ks, kx = kurtosis_excess(s), kurtosis_excess(x.samples)
            assert abs(kx) < 0.9 * abs(ks)


class TestTrueInverses:
    def test_ar2_taps(self):
        t = true_inverse(DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3), 5).taps
        assert t.tolist() == [1.0, -0.6, -0.3, 0.0, 0.0]

    def test_echo_taps(self):
        spec = DegradeSpec(kind="echo_iir", a1=-0.6, a2=0.3, delay=3)
        t = true_inverse(spec, 7).taps
        assert t[0] == 1.0 and t[3] == 0.6 and t[6] == -0.3

    def test_image_kernel(self):
        spec = DegradeSpec(kind="image_iir3", a1=0.8, a2=-0.4, a3=0.5)
        w = true_inverse(spec).weights
        assert w[0, 1] == -0.8 and w[1, 0] == 0.4 and w[0, 0] == -0.5

    def test_default_sizes_and_no_taps_for_images(self):
        assert len(true_inverse(DegradeSpec(kind="echo_iir", a1=-0.6, a2=0.3, delay=4))) == 9
        assert len(true_inverse(DegradeSpec(kind="fir2", a1=0.5, a2=0.2))) == 3
        with pytest.raises(ContractViolationError):
            true_inverse(DegradeSpec(kind="image_iir2", a1=0.5, a2=0.4), 3)

    def test_round_trip_via_taps(self, rng):
        spec = DegradeSpec(kind="ar2_iir", a1=0.5, a2=0.4)
        s = Signal1D(rng.standard_normal(400))
        x = apply_degradation(spec, s)
        back = apply_taps(x, true_inverse(spec, 3))
        assert np.max(np.abs(back.samples - s.samples)) < 1e-12


@st.composite
def specs(draw, kind):
    """A DegradeSpec of kind: 1-D recursions inside the stability triangle,
    fir2 roots within 0.9 of the origin, image coefficients within 0.45."""
    if kind in ("ar2_iir", "echo_iir"):
        a2 = draw(st.floats(-0.95, 0.95))
        a1 = draw(st.floats(-0.99, 0.99)) * (1.0 - a2)
        return DegradeSpec(kind, a1, a2, delay=draw(st.integers(1, 40)) if kind == "echo_iir" else 1)
    if kind == "fir2":
        return DegradeSpec(kind, draw(st.floats(-0.9, 0.9)), draw(st.floats(-0.9, 0.9)))
    a1, a2 = draw(st.floats(-0.45, 0.45)), draw(st.floats(-0.45, 0.45))
    return DegradeSpec(kind, a1, a2, draw(st.floats(-0.45, 0.45)) if kind == "image_iir3" else 0.0)


@st.composite
def sources(draw, spec):
    """A Laplace signal of 1-300 samples, or image of up to 12 x 12 pixels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if spec.kind.startswith("image_"):
        return Image2D(rng.laplace(size=(draw(st.integers(1, 12)), draw(st.integers(1, 12)))))
    return Signal1D(rng.laplace(size=draw(st.integers(1, 300))))


def filter_outputs(spec, source):
    """The degradation of source and, for fir2, its 300-tap analytic
    inverse: every output that runs through the all-pole recursion or FIR."""
    x = apply_degradation(spec, source)
    outputs = [x.pixels if isinstance(x, Image2D) else x.samples]
    if spec.kind == "fir2":
        outputs.append(true_inverse(spec, 300).taps)
    return outputs


def lfilter_outputs(spec, source):
    """filter_outputs computed with scipy.signal.lfilter."""
    if spec.kind == "fir2":
        impulse = np.eye(1, 300)[0]
        a = [1.0, spec.a1 + spec.a2, spec.a1 * spec.a2]
        return [lfilter(a, [1.0], source.samples), lfilter([1.0], a, impulse)]
    if isinstance(source, Signal1D):
        a = np.zeros(2 * spec.delay + 1)
        a[0], a[spec.delay], a[2 * spec.delay] = 1.0, -spec.a1, -spec.a2
        return [lfilter([1.0], a, source.samples)]
    f = source.pixels
    g = np.empty_like(f)
    prev = np.zeros(f.shape[1])
    for r in range(f.shape[0]):
        c = f[r] + spec.a1 * prev
        c[1:] += spec.a3 * prev[:-1]
        g[r] = prev = lfilter([1.0], [1.0, -spec.a2], c)
    return [g]


class TestFilterEngines:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_compiled_and_lfilter_agree(self, kind, data):
        # the recursions are lfilter bit for bit; fir2's FIR sums its taps
        # in order from 0.0, bit for bit, and lfilter within rounding
        spec = data.draw(specs(kind))
        source = data.draw(sources(spec))
        outputs, references = filter_outputs(spec, source), lfilter_outputs(spec, source)
        if kind == "fir2":
            h = np.array([1.0, spec.a1 + spec.a2, spec.a1 * spec.a2])
            got, want = outputs.pop(0), references.pop(0)
            assert np.array_equal(got, fir(h, source.samples))
            assert np.all(np.abs(got - want) <= fir_rounding(h, source.samples))
        for got, want in zip(outputs, references, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("delay", [1, 2, 3, 37, 100])
    @given(data=st.data())
    def test_allpole_is_lfilter(self, delay, data):
        # delay 1 is read from a register by the kernel; the lengths run
        # below D and 2D, either coefficient may be 0, and there are -0.0
        # samples (lfilter also adds 0 * x products, which can give a zero
        # output the other sign, so the values are compared, not the bytes)
        n = data.draw(st.integers(0, 2 * delay + 20))
        a1, a2 = (data.draw(st.just(0.0) | st.floats(-0.45, 0.45)) for _ in range(2))
        x = laplace_signal(data.draw(st.integers(0, 2**32 - 1)), n)
        x[data.draw(st.lists(st.integers(0, n - 1), max_size=5) if n else st.just([]))] = -0.0
        a = np.zeros(2 * delay + 1)
        a[[0, delay, 2 * delay]] = 1.0, -a1, -a2
        assert np.array_equal(allpole(x, delay, a1, a2), lfilter([1.0], a, x))

    def test_allpole_delay_past_the_length_reads_nothing(self):
        # each output is x + 0.0, so a -0.0 sample comes out +0.0
        x = np.array([1.5, -0.0, 2.0])
        assert allpole(x, 2**70, 0.5, 0.3).tobytes() == np.array([1.5, 0.0, 2.0]).tobytes()

    @pytest.mark.parametrize("x, delay, a1, a2", [
        (np.zeros(4), 0, 0.5, 0.3),
        (np.zeros(4), -1, 0.5, 0.3),
        (np.zeros((2, 2)), 1, 0.5, 0.3),
        # the delay is a count and each coefficient a real, not a bool
        (np.ones(4), 2.5, 0.1, 0.1),
        (np.ones(4), True, 0.1, 0.1),
        (np.ones(4), 1, 0.1, "a"),
        (np.ones(4), 1, True, 0.1),
    ])
    def test_allpole_rejects_bad_arguments(self, x, delay, a1, a2):
        with pytest.raises(ContractViolationError):
            allpole(x, delay, a1, a2)

    #: Each entry point, the shape of its good input and a shape of the
    #: wrong ndim.
    ENTRY_POINTS = {
        "integrate": (lambda f: _native.integrate(f, 2.0), (4, 6), (2, 2, 6)),
        "allpole": (lambda x: allpole(x, 1, 0.5, 0.3), (12,), (2, 6)),
        "image_allpole": (lambda f: _native.image_allpole(f, 0.3, 0.2, 0.1), (4, 6), (24,)),
    }

    #: Inputs, made from a good one and the wrong shape, that an entry
    #: point refuses rather than converts; the last three only where it
    #: takes an image, or writes its input.
    REFUSED = {
        "float32": lambda good, wrong: good.astype(np.float32),
        "int64": lambda good, wrong: np.rint(100.0 * good).astype(np.int64),
        "strided": lambda good, wrong: np.repeat(good, 2, axis=-1)[..., ::2],
        "wrong-ndim": lambda good, wrong: good.reshape(wrong),
        "fortran-order": lambda good, wrong: np.asfortranarray(good),
        "read-only": lambda good, wrong: np.frombuffer(good.tobytes()).reshape(good.shape),
        "empty": lambda good, wrong: good[:0],
    }

    @pytest.mark.parametrize("entry, refused", [
        *((e, r) for e in ENTRY_POINTS for r in ("float32", "int64", "strided", "wrong-ndim")),
        ("integrate", "fortran-order"), ("image_allpole", "fortran-order"),
        # integrate keeps its column sums in f, and has none to keep
        ("integrate", "read-only"), ("integrate", "empty"),
    ])
    def test_entry_point_refuses_rather_than_converts(self, entry, refused):
        call, shape, wrong = self.ENTRY_POINTS[entry]
        bad = self.REFUSED[refused](np.random.default_rng(8).random(shape), wrong)
        with pytest.raises(ContractViolationError):
            call(bad)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_entry_point_takes_its_good_input(self, entry):
        call, shape, _ = self.ENTRY_POINTS[entry]
        assert call(np.random.default_rng(8).random(shape)).shape == shape

    @pytest.mark.parametrize("entry", ["allpole", "image_allpole"])
    def test_filter_reads_a_read_only_input(self, entry):
        # the containers hold their arrays read-only, and the recursions
        # only read theirs
        call, shape, _ = self.ENTRY_POINTS[entry]
        good = np.random.default_rng(8).random(shape)
        assert np.array_equal(call(self.REFUSED["read-only"](good, None)), call(good))

    @pytest.mark.parametrize("entry, shape", [("allpole", (0,)), ("image_allpole", (0, 6)), ("image_allpole", (4, 0))])
    def test_filter_of_nothing_is_empty(self, entry, shape):
        assert self.ENTRY_POINTS[entry][0](np.empty(shape)).shape == shape

    @pytest.mark.parametrize("kind", KINDS)
    def test_strided_source_degraded_as_its_copy(self, kind):
        # a transposed image or a strided signal is held in C order, so the
        # entry points, which refuse any other layout, take it
        spec = DegradeSpec(kind, 0.3, 0.2, delay=3 if kind == "echo_iir" else 1)
        g = np.random.default_rng(9).random((12, 10))
        strided, copy = (Image2D(g.T), Image2D(g.T.copy())) if kind.startswith("image_") else (Signal1D(g[:, 0]), Signal1D(g[:, 0].copy()))
        assert np.array_equal(_array(apply_degradation(spec, strided)), _array(apply_degradation(spec, copy)))


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    def test_degrade_then_analytic_inverse_returns_source(self, kind, data):
        # exact inverses, but for fir2's 400-tap truncation of its IIR
        # inverse (error below 400 * 0.9**400); the bound is 1e-9 of the
        # largest degraded value
        spec = data.draw(specs(kind))
        source = data.draw(sources(spec))
        x = apply_degradation(spec, source)
        if kind.startswith("image_"):
            back, want, scale = apply_kernel(x, true_inverse(spec)).pixels, source.pixels, x.pixels
        else:
            taps = true_inverse(spec, 400 if kind == "fir2" else 2 * spec.delay + 1)
            back, want, scale = apply_taps(x, taps).samples, source.samples, x.samples
        assert np.max(np.abs(back - want)) <= 1e-9 * np.max(np.abs(scale))
