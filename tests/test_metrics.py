import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kurtdeconv import (
    ContractViolationError,
    DegenerateInputError,
    DegradeSpec,
    FilterTaps1D,
    Kernel2D,
    Signal1D,
    aligned_correlation,
    extract_parameters,
    normalize_kernel,
    normalize_taps,
    normalized_correlation,
    parameter_error,
    true_inverse,
    true_parameters,
)

# (a1, a2) strictly inside the AR(2) stability triangle
_triangle = st.tuples(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999)).map(lambda uv: (uv[0] * (1.0 - uv[1]), uv[1]))
_coefficient = st.floats(-0.999, 0.999)
_specs_1d = st.one_of(
    _triangle.map(lambda a: DegradeSpec(kind="ar2_iir", a1=a[0], a2=a[1])),
    st.builds(lambda a, d: DegradeSpec(kind="echo_iir", a1=a[0], a2=a[1], delay=d), _triangle, st.integers(1, 4)),
    st.builds(lambda a1, a2: DegradeSpec(kind="fir2", a1=a1, a2=a2), _coefficient, _coefficient),
)
# image coefficients are only checked at run time, so any finite set is a spec
_image_coefficient = st.floats(-2.0, 2.0)
_specs_2d = st.one_of(
    st.builds(lambda a1, a2: DegradeSpec(kind="image_iir2", a1=a1, a2=a2), _image_coefficient, _image_coefficient),
    st.builds(
        lambda a1, a2, a3: DegradeSpec(kind="image_iir3", a1=a1, a2=a2, a3=a3),
        _image_coefficient,
        _image_coefficient,
        _image_coefficient,
    ),
)


class TestNormalizedCorrelation:
    def test_self_correlation(self, rng):
        s = Signal1D(rng.standard_normal(100))
        assert normalized_correlation(s, s) == pytest.approx(1.0)

    def test_negation(self, rng):
        x = rng.standard_normal(100)
        assert normalized_correlation(Signal1D(x), Signal1D(-x)) == pytest.approx(-1.0)

    def test_positive_affine_invariance(self, rng):
        x = rng.standard_normal(100)
        assert normalized_correlation(Signal1D(x), Signal1D(2.5 * x + 7.0)) == pytest.approx(1.0)

    def test_symmetry(self, rng):
        a, b = rng.standard_normal(80), rng.standard_normal(80)
        assert normalized_correlation(a, b) == pytest.approx(normalized_correlation(b, a))

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalized_correlation(np.ones(10), np.arange(10.0))

    def test_size_mismatch(self):
        with pytest.raises(ContractViolationError):
            normalized_correlation(np.ones(10), np.ones(11))


class TestAlignedCorrelation:
    def test_pure_shift(self, rng):
        s = rng.standard_normal(500)
        b = np.concatenate((np.zeros(3), s[:-3]))  # b delayed by 3
        rho, lag, sign = aligned_correlation(Signal1D(s), Signal1D(b), 5)
        assert lag == 3 and sign == 1
        assert rho == pytest.approx(1.0, abs=1e-6)

    def test_negative_gain(self, rng):
        s = rng.standard_normal(300)
        rho, lag, sign = aligned_correlation(Signal1D(s), Signal1D(-2.0 * s), 4)
        assert (abs(rho), lag, sign) == (pytest.approx(1.0), 0, -1)

    def test_zero_lag_reduces_to_plain(self, rng):
        a = Signal1D(rng.standard_normal(200))
        b = Signal1D(rng.standard_normal(200))
        al = aligned_correlation(a, b, 0)
        assert al.rho == pytest.approx(normalized_correlation(a, b))
        assert al.lag == 0

    def test_dominates_zero_lag(self, rng):
        a = Signal1D(rng.standard_normal(400))
        b = Signal1D(np.roll(a.samples, 2) + 0.1 * rng.standard_normal(400))
        assert abs(aligned_correlation(a, b, 5).rho) >= abs(normalized_correlation(a, b)) - 1e-12


class TestNormalization:
    def test_taps_peak_to_one(self):
        t = normalize_taps(FilterTaps1D([-2.0, 1.0, 0.5])).taps
        assert t[0] == 1.0 and t.tolist() == [1.0, -0.5, -0.25]

    def test_kernel_roll_to_center(self):
        w = np.zeros((3, 3))
        w[0, 0] = -2.0
        w[0, 1] = 1.0
        k = normalize_kernel(Kernel2D(w)).weights
        assert k[1, 1] == 1.0 and k[1, 2] == -0.5

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_taps(FilterTaps1D([0.0, 0.0]))


class TestParameterError:
    def test_exact_inverse_zero_error(self):
        spec = DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3)
        err = parameter_error(spec, FilterTaps1D([1.0, -0.6, -0.3]))
        assert err == {"a1": 0.0, "a2": 0.0}

    def test_reported_estimate_error(self):
        # estimated a1 = 0.466 against true 0.5 is an absolute error of 0.034
        spec = DegradeSpec(kind="ar2_iir", a1=0.5, a2=0.4)
        err = parameter_error(spec, FilterTaps1D([1.0, -0.466, -0.4]))
        assert err["a1"] == pytest.approx(0.034)
        assert err["a2"] == pytest.approx(0.0)

    def test_scaled_estimate_normalizes(self):
        spec = DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3)
        err = parameter_error(spec, FilterTaps1D(2.0 * np.array([1.0, -0.6, -0.3])))
        assert max(err.values()) < 1e-12

    def test_sign_flipped_estimate_normalizes(self):
        spec = DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3)
        err = parameter_error(spec, FilterTaps1D(-3.0 * np.array([1.0, -0.6, -0.3])))
        assert max(err.values()) < 1e-12

    def test_echo_readout_positions(self):
        spec = DegradeSpec(kind="echo_iir", a1=-0.6, a2=0.3, delay=2)
        taps = np.zeros(5)
        taps[0], taps[2], taps[4] = 1.0, 0.6, -0.3
        assert max(parameter_error(spec, FilterTaps1D(taps)).values()) == 0.0

    def test_fir2_targets(self):
        spec = DegradeSpec(kind="fir2", a1=0.5, a2=0.2)
        assert true_parameters(spec) == {"h1": pytest.approx(-0.7), "h2": pytest.approx(0.39)}
        est = extract_parameters(spec, FilterTaps1D([1.0, -0.7, 0.39, 0.0]))
        assert est["h1"] == pytest.approx(-0.7) and est["h2"] == pytest.approx(0.39)

    @given(_specs_1d | _specs_2d, st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3), st.integers(0, 3))
    @example(DegradeSpec(kind="ar2_iir", a1=1.5, a2=-0.6), 1.0, 0)
    @example(DegradeSpec(kind="fir2", a1=0.9, a2=0.9), 1.0, 0)
    @example(DegradeSpec(kind="echo_iir", a1=1.2, a2=-0.5, delay=2), 1.0, 0)
    @example(DegradeSpec(kind="image_iir2", a1=1.2, a2=0.1), 1.0, 0)
    def test_scaled_exact_inverse_reads_exactly(self, spec, gain, extra_taps):
        # the readout scales by tap 0 or the kernel center, which the
        # largest coefficient need not be
        if spec.kind.startswith("image_"):
            estimate = Kernel2D(gain * true_inverse(spec).weights)
        else:
            estimate = FilterTaps1D(gain * true_inverse(spec, 2 * spec.delay + 1 + extra_taps).taps)
        assert max(parameter_error(spec, estimate).values()) <= 1e-12

    def test_zero_unit_tap_rejected(self):
        spec = DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3)
        with pytest.raises(DegenerateInputError):
            extract_parameters(spec, FilterTaps1D([0.0, 1.0, 0.5]))

    def test_kernel_readout(self):
        spec = DegradeSpec(kind="image_iir3", a1=0.8, a2=-0.4, a3=0.5)
        w = np.zeros((3, 3))
        w[1, 1], w[0, 1], w[1, 0], w[0, 0] = 1.0, -0.8, 0.4, -0.5
        err = parameter_error(spec, Kernel2D(w))
        assert max(err.values()) == 0.0

    def test_shifted_kernel_realigned(self):
        spec = DegradeSpec(kind="image_iir2", a1=0.5, a2=0.4)
        w = np.zeros((3, 3))
        # same structure shifted down-right by one pixel: the readout takes
        # the center as the unit weight, normalize_kernel rolls it back
        w[2, 2], w[1, 2], w[2, 1] = 1.0, -0.5, -0.4
        with pytest.raises(DegenerateInputError):
            parameter_error(spec, Kernel2D(w))
        assert max(parameter_error(spec, normalize_kernel(Kernel2D(w))).values()) < 1e-12

    def test_kind_without_mapping(self):
        spec = DegradeSpec(kind="image_iir2", a1=0.2, a2=0.2)
        with pytest.raises(ContractViolationError):
            extract_parameters(spec, FilterTaps1D([1.0, 0.0, 0.0]))
