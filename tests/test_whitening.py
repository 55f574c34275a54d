import numpy as np
import pytest

from kurtdeconv import (
    ContractViolationError,
    DegenerateInputError,
    DegradeSpec,
    Image2D,
    LpcModel,
    Signal1D,
    WhitenSpec,
    apply_degradation,
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


class TestHighpass:
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
        model = fit_lpc(Signal1D(x), 1)
        assert model.coeffs[0] == pytest.approx(0.6, abs=0.02)

    def test_white_noise_near_zero(self):
        x = np.random.default_rng(12).standard_normal(100_000)
        model = fit_lpc(Signal1D(x), 5)
        assert np.all(np.abs(model.coeffs) < 0.02)

    def test_ar2_recovery(self):
        x = ar_process([0.5, 0.3], 100_000, seed=13)
        model = fit_lpc(Signal1D(x), 2)
        assert model.coeffs[0] == pytest.approx(0.5, abs=0.02)
        assert model.coeffs[1] == pytest.approx(0.3, abs=0.02)

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

    def test_model_rejects_unstable(self):
        with pytest.raises(ContractViolationError):
            LpcModel([1.5])


class TestLpcWhiten:
    def test_zero_coeffs_identity(self):
        x = Signal1D([1.0, -2.0, 0.5])
        y = lpc_whiten(x, LpcModel([0.0, 0.0]))
        assert y.samples.tolist() == x.samples.tolist()

    def test_hand_arithmetic(self):
        # a unit predictor is marginally stable, so nudge it inside the circle
        y = lpc_whiten(Signal1D([1, 2, 3]), LpcModel([1.0 - 1e-12]))
        assert np.allclose(y.samples, [1, 1, 1], atol=1e-9)

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
        res = lpc_whiten(Signal1D(x), LpcModel([0.7])).samples
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
