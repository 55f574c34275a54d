import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import lfilter

from kurtdeconv import DegenerateInputError, batch_gradient, batch_kurtosis, init_moments, kurtosis_excess
from conftest import MomentState, NearSingularMomentError, feedback, laplace_signal, update_moments


class TestKurtosisExcess:
    def test_rademacher_exact(self):
        x = np.tile([-1.0, 1.0], 500)
        assert kurtosis_excess(x) == pytest.approx(-2.0, abs=1e-12)

    def test_uniform_monte_carlo(self):
        # analytic: (1/5)/(1/3)^2 - 3 = -6/5
        draws = np.random.default_rng(0).uniform(-1.0, 1.0, 1_000_000)
        assert kurtosis_excess(draws) == pytest.approx(-1.2, abs=0.02)

    def test_gaussian_mesokurtic(self):
        draws = np.random.default_rng(1).standard_normal(1_000_000)
        assert abs(kurtosis_excess(draws)) < 0.02

    def test_laplace_monte_carlo(self):
        # analytic: 24 b^4 / (2 b^2)^2 - 3 = 3
        draws = np.random.default_rng(2).laplace(0.0, 1.0, 1_000_000)
        assert kurtosis_excess(draws) == pytest.approx(3.0, abs=0.1)

    def test_zero_variance(self):
        with pytest.raises(DegenerateInputError):
            kurtosis_excess(np.full(10, 3.0))

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            kurtosis_excess([1.0])

    @given(st.floats(min_value=-100.0, max_value=100.0).filter(lambda c: abs(c) > 1e-3))
    def test_scale_invariance(self, c):
        x = laplace_signal(5, 300)
        assert kurtosis_excess(c * x) == pytest.approx(kurtosis_excess(x), rel=1e-9)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_shift_invariance(self, c):
        x = laplace_signal(6, 300)
        assert kurtosis_excess(x + c) == pytest.approx(kurtosis_excess(x), abs=1e-6)


class TestMoments:
    def test_beta_zero_instantaneous(self):
        st_ = update_moments(MomentState(1.0, 1.0, 0.0), 2.0)
        assert (st_.m2, st_.m4) == (4.0, 16.0)

    def test_beta_one_frozen(self):
        st_ = update_moments(MomentState(1.0, 1.0, 1.0), 2.0)
        assert (st_.m2, st_.m4) == (1.0, 1.0)

    def test_hand_arithmetic(self):
        st_ = update_moments(MomentState(1.0, 1.0, 0.99), 2.0)
        assert st_.m2 == pytest.approx(1.03, abs=1e-12)
        assert st_.m4 == pytest.approx(1.15, abs=1e-12)

    def test_invalid_state(self):
        with pytest.raises(Exception):
            MomentState(-1.0, 0.0, 0.5)
        with pytest.raises(Exception):
            MomentState(0.0, 0.0, 1.5)

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_convex_combination(self, m2, m4, beta, y):
        st_ = update_moments(MomentState(m2, m4, beta), y)
        assert min(m2, y * y) - 1e-12 <= st_.m2 <= max(m2, y * y) + 1e-12
        assert min(m4, y**4) - 1e-9 <= st_.m4 <= max(m4, y**4) + 1e-9

    def test_init_moments_batch(self):
        assert init_moments(np.array([1.0, -2.0])).tolist() == [2.5, 8.5]
        assert init_moments(np.array([])).tolist() == [0.0, 0.0]


class TestFeedback:
    def test_bracket_annihilates(self):
        assert feedback(MomentState(1.0, 1.0, 0.99), 1.0) == 0.0

    def test_direct_substitution(self):
        assert feedback(MomentState(1.0, 3.0, 0.99), 2.0) == pytest.approx(8.0, abs=1e-12)

    def test_zero_output(self):
        assert feedback(MomentState(2.0, 4.0, 0.99), 0.0) == 0.0

    def test_near_singular_guard(self):
        with pytest.raises(NearSingularMomentError):
            feedback(MomentState(1e-9, 0.0, 0.99), 1.0)

    def test_sign_property(self):
        # directly from the formula: sign(f) = sign((y^2 - m4/m2) * y)
        state = MomentState(2.0, 6.0, 0.99)
        thr = np.sqrt(state.m4 / state.m2)
        for y in (0.5, 1.0, thr * 1.01, thr * 2, -0.5, -thr * 1.01, -thr * 2):
            f = feedback(state, y)
            assert np.sign(f) == np.sign((y * y - state.m4 / state.m2) * y)
        assert feedback(state, thr * 2) > 0 > feedback(state, -thr * 2)


class TestBatchGradient:
    def test_degenerate_zero_output(self):
        wins = np.ones((5, 2))
        with pytest.raises(DegenerateInputError):
            batch_gradient(np.zeros(5), wins)

    def test_single_tap_brute_force(self):
        x = laplace_signal(7, 2000)
        y = 1.0 * x  # single tap h = 1
        wins = x.reshape(-1, 1)
        # independent straight-line oracle
        m2 = sum(v * v for v in y) / y.size
        m4 = sum(v**4 for v in y) / y.size
        ey3x = sum((v**3) * w for v, w in zip(y, x)) / y.size
        eyx = sum(v * w for v, w in zip(y, x)) / y.size
        want = 4.0 * (m2 * ey3x - m4 * eyx) / m2**3
        got = batch_gradient(y, wins)
        assert got[0] == pytest.approx(want, rel=1e-9)

    def _windows(self, x, L):
        wins = np.zeros((x.size, L))
        for k in range(L):
            wins[k:, k] = x[: x.size - k]
        return wins

    def test_matches_finite_differences(self):
        # central finite differences of the raw-moment batch kurtosis
        x = laplace_signal(8, 10_000)
        h = np.array([1.0, -0.4, 0.2])
        wins = self._windows(x, 3)
        grad = batch_gradient(wins @ h, wins)
        eps = 1e-5
        for k in range(3):
            hp, hm = h.copy(), h.copy()
            hp[k] += eps
            hm[k] -= eps
            fd = (batch_kurtosis(wins @ hp) - batch_kurtosis(wins @ hm)) / (2 * eps)
            assert grad[k] == pytest.approx(fd, rel=1e-5)

    def test_windows_shape_mismatch(self):
        with pytest.raises(Exception):
            batch_gradient(np.ones(4), np.ones((5, 2)))


def test_batch_kurtosis_matches_mean_removed_on_centered_data():
    x = laplace_signal(9, 50_000)
    x = x - x.mean()
    assert batch_kurtosis(x) == pytest.approx(kurtosis_excess(x), abs=1e-9)
