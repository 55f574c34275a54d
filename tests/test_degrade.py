import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from kurtdeconv import (
    ContractViolationError,
    DegradeSpec,
    DivergenceError,
    Image2D,
    Signal1D,
    apply_kernel,
    apply_taps,
    ar2_iir,
    echo_iir,
    fir_degrade,
    apply_degradation,
    image_iir,
    inverse_fir_taps,
    inverse_kernel_2d,
    kurtosis_excess,
    stability_check,
    true_inverse_kernel,
    true_inverse_taps,
)
from conftest import laplace_signal


class TestStability:
    def test_known_good_pair(self):
        assert stability_check(0.6, 0.3)

    def test_triangle_violation(self):
        assert not stability_check(1.0, 0.5)

    def test_identity(self):
        assert stability_check(0.0, 0.0)


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

    def test_aggressive_image_sets_constructible(self):
        DegradeSpec(kind="image_iir3", a1=0.8, a2=-0.4, a3=0.5)
        DegradeSpec(kind="image_iir3", a1=0.8, a2=-0.3, a3=0.2)


class TestEchoIir:
    def test_identity(self, rng):
        s = Signal1D(rng.standard_normal(100))
        assert np.array_equal(echo_iir(s, 0.0, 0.0, 5).samples, s.samples)

    def test_geometric_echo(self):
        impulse = Signal1D([1.0] + [0.0] * 7)
        x = echo_iir(impulse, 0.5, 0.0, 2).samples
        assert np.allclose(x, [1, 0, 0.5, 0, 0.25, 0, 0.125, 0], atol=1e-14)

    def test_gaussianizes_speechlike_source(self):
        s = Signal1D(laplace_signal(21, 100_000))
        x = echo_iir(s, -0.6, 0.3, 100)
        assert abs(kurtosis_excess(x.samples)) < abs(kurtosis_excess(s.samples))

    def test_unstable_rejected(self):
        with pytest.raises(ContractViolationError):
            echo_iir(Signal1D([1.0, 0.0]), 0.9, 0.9, 3)

    def test_delay_one_equals_ar2(self, rng):
        s = Signal1D(rng.standard_normal(500))
        assert np.array_equal(echo_iir(s, 0.4, -0.2, 1).samples, ar2_iir(s, 0.4, -0.2).samples)


class TestAr2Iir:
    def test_identity(self, rng):
        s = Signal1D(rng.standard_normal(64))
        assert np.array_equal(ar2_iir(s, 0.0, 0.0).samples, s.samples)

    def test_impulse_response_recursion(self):
        impulse = Signal1D([1.0] + [0.0] * 5)
        x = ar2_iir(impulse, 0.6, 0.3).samples
        assert np.allclose(x[:4], [1.0, 0.6, 0.66, 0.576], atol=1e-14)

    def test_inverse_fir_reproduces_source(self, rng):
        s = Signal1D(rng.standard_normal(300))
        x = ar2_iir(s, 0.6, 0.3)
        back = lfilter([1.0, -0.6, -0.3], [1.0], x.samples)
        assert np.max(np.abs(back - s.samples)) < 1e-12


class TestFirDegrade:
    def test_identity(self, rng):
        s = Signal1D(rng.standard_normal(64))
        assert np.array_equal(fir_degrade(s, 0.0, 0.0).samples, s.samples)

    def test_impulse(self):
        impulse = Signal1D([1.0] + [0.0] * 4)
        x = fir_degrade(impulse, 0.5, 0.2).samples
        assert np.allclose(x, [1.0, 0.7, 0.1, 0.0, 0.0], atol=1e-14)

    def test_inverse_first_tap_from_sum(self):
        # a1 + a2 = 0.7 makes the analytic inverse h(1) = -0.7
        taps = inverse_fir_taps(0.5, 0.2, 8).taps
        assert taps[1] == pytest.approx(-0.7, abs=1e-12)

    def test_precondition(self):
        with pytest.raises(ContractViolationError):
            fir_degrade(Signal1D([1.0]), 1.2, 0.0)


class TestInverseFirTaps:
    def test_first_three_formula(self):
        for a1, a2 in [(0.5, 0.2), (-0.3, 0.6), (0.1, -0.7)]:
            t = inverse_fir_taps(a1, a2, 5).taps
            assert t[0] == 1.0
            assert t[1] == pytest.approx(-(a1 + a2), abs=1e-14)
            assert t[2] == pytest.approx(a1**2 + a1 * a2 + a2**2, abs=1e-14)

    def test_zero_parameters(self):
        assert inverse_fir_taps(0.0, 0.0, 6).taps.tolist() == [1, 0, 0, 0, 0, 0]

    def test_convolution_oracle(self):
        # truncated inverse times the degrading FIR is an impulse up to a
        # tail residual that has decayed below 1e-6 by tap 62
        inv = inverse_fir_taps(0.5, 0.2, 64).taps
        conv = np.convolve(inv, [1.0, 0.7, 0.1])
        assert conv[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(conv[1:62])) < 1e-12
        assert np.max(np.abs(conv[62:])) < 1e-6

    def test_needs_three_taps(self):
        with pytest.raises(ContractViolationError):
            inverse_fir_taps(0.1, 0.1, 2)


class TestImageIir:
    def test_identity(self, rng):
        img = Image2D(rng.standard_normal((8, 9)))
        assert np.array_equal(image_iir(img, 0.0, 0.0).pixels, img.pixels)

    def test_impulse_hand_recursion(self):
        f = np.zeros((3, 3))
        f[0, 0] = 1.0
        g = image_iir(Image2D(f), 0.5, 0.4).pixels
        assert g[1, 0] == pytest.approx(0.5)
        assert g[0, 1] == pytest.approx(0.4)
        assert g[1, 1] == pytest.approx(0.4, abs=1e-14)  # 0.5*0.4 + 0.4*0.5

    def test_inverse_kernel_round_trip(self, rng):
        img = Image2D(rng.standard_normal((16, 13)))
        g = image_iir(img, 0.5, 0.4)
        back = apply_kernel(g, inverse_kernel_2d(0.5, 0.4))
        assert np.max(np.abs(back.pixels - img.pixels)) < 1e-10

    def test_conservative_bound_enforced(self):
        img = Image2D(np.ones((4, 4)))
        with pytest.raises(ContractViolationError):
            image_iir(img, 0.8, 0.4, 0.0)
        image_iir(img, 0.8, 0.4, 0.0, check_stability=False)  # explicit escape

    @pytest.mark.parametrize("size", [64, 512])
    def test_unstable_recursion_raises_divergence(self, size):
        # 64: finite but far past the peak limit; 512: overflows to inf/nan
        spec = DegradeSpec(kind="image_iir3", a1=0.99, a2=0.99, a3=0.99)
        img = Image2D(np.random.default_rng(1).random((size, size)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                apply_degradation(spec, img)


class TestInverseKernel2d:
    def test_stated_positions(self):
        w = inverse_kernel_2d(0.5, 0.4).weights
        want = np.zeros((3, 3))
        want[1, 1], want[0, 1], want[1, 0] = 1.0, -0.5, -0.4
        assert np.array_equal(w, want)

    def test_identity(self):
        w = inverse_kernel_2d(0.0, 0.0).weights
        assert w[1, 1] == 1.0 and np.count_nonzero(w) == 1

    def test_three_parameter_round_trip(self, rng):
        img = Image2D(rng.standard_normal((12, 12)))
        g = image_iir(img, 0.3, 0.2, 0.1)
        back = apply_kernel(g, inverse_kernel_2d(0.3, 0.2, 0.1))
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
            x = ar2_iir(Signal1D(s), 0.6, -0.3)
            ks, kx = kurtosis_excess(s), kurtosis_excess(x.samples)
            assert abs(kx) < 0.9 * abs(ks)


class TestTrueInverses:
    def test_ar2_taps(self):
        t = true_inverse_taps(DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3), 5).taps
        assert t.tolist() == [1.0, -0.6, -0.3, 0.0, 0.0]

    def test_echo_taps(self):
        spec = DegradeSpec(kind="echo_iir", a1=-0.6, a2=0.3, delay=3)
        t = true_inverse_taps(spec, 7).taps
        assert t[0] == 1.0 and t[3] == 0.6 and t[6] == -0.3

    def test_image_kernel(self):
        spec = DegradeSpec(kind="image_iir3", a1=0.8, a2=-0.4, a3=0.5)
        w = true_inverse_kernel(spec).weights
        assert w[0, 1] == -0.8 and w[1, 0] == 0.4 and w[0, 0] == -0.5

    def test_round_trip_via_taps(self, rng):
        spec = DegradeSpec(kind="ar2_iir", a1=0.5, a2=0.4)
        s = Signal1D(rng.standard_normal(400))
        x = ar2_iir(s, spec.a1, spec.a2)
        back = apply_taps(x, true_inverse_taps(spec, 3))
        assert np.max(np.abs(back.samples - s.samples)) < 1e-12
