import numpy as np
import pytest
from hypothesis import given, strategies as st

from kurtdeconv import (
    ContractViolationError,
    DegenerateInputError,
    DegradeSpec,
    FilterTaps1D,
    Image2D,
    Signal1D,
    WhitenSpec,
    apply_degradation,
    apply_taps,
    fit_lpc,
    highpass_whiten,
    highpass_whiten_2d,
    kurtosis_excess,
    lpc_whiten,
)


def ar_process(coeffs, n, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n)
    x = np.zeros(n)
    p = len(coeffs)
    for i in range(n):
        acc = w[i]
        for k, a in enumerate(coeffs, start=1):
            if i - k >= 0:
                acc += a * x[i - k]
        x[i] = acc
    return x


def highpass_1d_reference(s):
    """The signal formula of the 1-D-only highpass this one replaced."""
    y = np.empty_like(s)
    y[0] = s[0]
    np.subtract(s[1:], s[:-1], out=y[1:])
    return y


def highpass_2d_reference(g):
    """The image formula of the 2-D-only highpass this one replaced."""
    d = g.copy()
    d[1:, :] -= g[:-1, :]
    d[:, 1:] -= g[:, :-1]
    d[1:, 1:] += g[:-1, :-1]
    return d


class TestHighpass:
    @given(
        st.tuples(st.integers(2, 400)) | st.tuples(st.integers(2, 40), st.integers(2, 40)),
        st.integers(-1000, 1000),
        st.integers(0, 2**32 - 1),
    )
    def test_one_body_is_both_formulas(self, shape, k, seed):
        values = np.ldexp(np.random.default_rng(seed).standard_normal(shape), k)
        x = Signal1D(values, sample_rate=8000) if len(shape) == 1 else Image2D(values)
        y = highpass_whiten(x)
        assert type(y) is type(x)
        if len(shape) == 1:
            assert y.sample_rate == 8000
            assert np.array_equal(y.samples, highpass_1d_reference(values))
        else:
            assert np.array_equal(y.pixels, highpass_2d_reference(values))

    def test_one_function_for_both_names(self):
        assert highpass_whiten_2d is highpass_whiten

    @pytest.mark.parametrize("x", [FilterTaps1D([1.0, 2.0]), np.ones(4), [1.0, 2.0]])
    def test_other_containers_rejected(self, x):
        with pytest.raises(ContractViolationError):
            highpass_whiten(x)

    def test_constant_killed(self):
        y = highpass_whiten(Signal1D([3.0, 3.0, 3.0, 3.0]))
        assert y.samples.tolist() == [3.0, 0.0, 0.0, 0.0]

    def test_step_to_impulse(self):
        y = highpass_whiten(Signal1D([0, 0, 1, 1, 1]))
        assert y.samples.tolist() == [0, 0, 1, 0, 0]

    def test_hand_arithmetic(self):
        y = highpass_whiten(Signal1D([1, 3, 6, 10]))
        assert y.samples.tolist() == [1, 2, 3, 4]

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            highpass_whiten(Signal1D([1.0]))

    def test_cumsum_inverts(self, rng):
        x = rng.standard_normal(200)
        y = highpass_whiten(Signal1D(x))
        assert np.allclose(np.cumsum(y.samples), x, atol=1e-12)


class TestLpc:
    def test_ar1_recovery(self):
        x = ar_process([0.6], 100_000, seed=11)
        coeffs = fit_lpc(Signal1D(x), 1)
        assert coeffs[0] == pytest.approx(0.6, abs=0.02)

    def test_white_noise_near_zero(self):
        x = np.random.default_rng(12).standard_normal(100_000)
        coeffs = fit_lpc(Signal1D(x), 5)
        assert np.all(np.abs(coeffs) < 0.02)

    def test_ar2_recovery(self):
        x = ar_process([0.5, 0.3], 100_000, seed=13)
        coeffs = fit_lpc(Signal1D(x), 2)
        assert coeffs[0] == pytest.approx(0.5, abs=0.02)
        assert coeffs[1] == pytest.approx(0.3, abs=0.02)
        assert not coeffs.flags.writeable

    def test_needs_enough_samples(self):
        with pytest.raises(DegenerateInputError):
            fit_lpc(Signal1D(np.ones(40)), 4)

    def test_zero_energy(self):
        with pytest.raises(DegenerateInputError):
            fit_lpc(Signal1D(np.zeros(200)), 2)

    def test_residual_energy_monotone_in_order(self):
        x = Signal1D(ar_process([0.5, 0.2, -0.1], 20_000, seed=14))
        energies = []
        for order in (1, 2, 3, 5, 8):
            res = lpc_whiten(x, fit_lpc(x, order))
            energies.append(float(np.mean(res.samples**2)))
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))


class TestLpcWhiten:
    def test_zero_coeffs_identity(self):
        x = Signal1D([1.0, -2.0, 0.5])
        y = lpc_whiten(x, [0.0, 0.0])
        assert y.samples.tolist() == x.samples.tolist()

    def test_hand_arithmetic(self):
        y = lpc_whiten(Signal1D([1, 2, 3], sample_rate=8000), [1.0])
        assert y.samples.tolist() == [1, 1, 1]
        assert y.sample_rate == 8000

    def test_is_the_analysis_filter(self, rng):
        x = Signal1D(rng.standard_normal(500))
        coeffs = fit_lpc(x, 3)
        ref = apply_taps(x, FilterTaps1D(np.concatenate(([1.0], -coeffs))))
        assert np.array_equal(lpc_whiten(x, coeffs).samples, ref.samples)

    @pytest.mark.parametrize("coeffs", [[], [np.nan], [[0.5]]])
    def test_rejects_bad_coeffs(self, coeffs):
        with pytest.raises(ContractViolationError):
            lpc_whiten(Signal1D([1.0, 2.0, 3.0]), coeffs)

    def test_true_model_whitens(self):
        x = Signal1D(ar_process([0.6], 100_000, seed=15))
        res = lpc_whiten(x, fit_lpc(x, 1)).samples
        r1 = float(np.corrcoef(res[:-1], res[1:])[0, 1])
        assert abs(r1) < 0.02

    def test_residual_kurtosis_matches_innovation(self):
        rng = np.random.default_rng(16)
        w = rng.laplace(0.0, 1.0, 100_000)
        x = np.zeros_like(w)
        for i in range(w.size):
            x[i] = 0.7 * x[i - 1] + w[i] if i else w[i]
        res = lpc_whiten(Signal1D(x), [0.7]).samples
        assert kurtosis_excess(res) == pytest.approx(kurtosis_excess(w), abs=0.15)


class TestHighpass2D:
    def test_constant_image(self):
        img = Image2D(np.full((4, 5), 2.0))
        d = highpass_whiten_2d(img).pixels
        assert d[0, 0] == 2.0
        rest = d.copy()
        rest[0, 0] = 0.0
        assert np.all(rest == 0.0)

    def test_planar_ramp_interior_zero(self):
        xx, yy = np.meshgrid(np.arange(6.0), np.arange(5.0), indexing="ij")
        d = highpass_whiten_2d(Image2D(xx + yy)).pixels
        assert np.all(np.abs(d[1:, 1:]) < 1e-12)

    def test_hand_arithmetic(self):
        d = highpass_whiten_2d(Image2D([[1.0, 2.0], [3.0, 5.0]])).pixels
        assert d[1, 1] == 1.0

    def test_degenerate_dims(self):
        with pytest.raises(DegenerateInputError):
            highpass_whiten_2d(Image2D(np.ones((1, 5))))


def test_commutation_with_lti_degradation(rng):
    # difference whitening and an LTI degradation commute sample-for-sample
    s = Signal1D(rng.standard_normal(5000))
    a = highpass_whiten(apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), s)).samples
    b = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), highpass_whiten(s)).samples
    assert np.max(np.abs(a - b)) < 1e-9


def test_order_applies_to_lpc_only():
    assert WhitenSpec("lpc", order=3).order == 3
    assert WhitenSpec("highpass", order=5) == WhitenSpec("highpass")
    for kind, order in (("highpass", 3), ("none", 0), ("none", 9)):
        with pytest.raises(ContractViolationError, match="order"):
            WhitenSpec(kind, order=order)
