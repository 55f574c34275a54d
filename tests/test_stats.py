import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import lfilter

from kurtdeconv import (
    ContractViolationError,
    DegenerateInputError,
    Image2D,
    Signal1D,
    kurtosis_excess,
    normalized_correlation,
)
from kurtdeconv.signals import _dot
from kurtdeconv.stats import _scores
from conftest import (
    MomentState,
    NearSingularMomentError,
    batch_gradient,
    batch_kurtosis,
    feedback,
    laplace_signal,
    rms_scaled_kurtosis,
    update_moments,
    warmup_moments,
)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected(self, bad):
        with pytest.raises(ContractViolationError):
            kurtosis_excess(np.array([bad, 1.0, 2.0]))

    @given(st.floats(min_value=-100.0, max_value=100.0).filter(lambda c: abs(c) > 1e-3))
    def test_scale_invariance(self, c):
        x = laplace_signal(5, 300)
        assert kurtosis_excess(c * x) == pytest.approx(kurtosis_excess(x), rel=1e-9)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_shift_invariance(self, c):
        x = laplace_signal(6, 300)
        assert kurtosis_excess(x + c) == pytest.approx(kurtosis_excess(x), abs=1e-6)

    def test_containers_and_arrays_agree(self):
        x = laplace_signal(10, 600)
        assert kurtosis_excess(Signal1D(x)) == kurtosis_excess(Image2D(x.reshape(20, 30))) == kurtosis_excess(x)


_SOURCES = {
    "laplace": lambda rng, n: rng.laplace(size=n),
    "cauchy": lambda rng, n: rng.standard_cauchy(n),
    "sparse": lambda rng, n: np.where(np.arange(n) % 20 == 0, rng.laplace(size=n), 0.0),
    "near_constant": lambda rng, n: 1.0 + 1e-9 * rng.standard_normal(n),
}


@settings(max_examples=300)
@given(st.sampled_from(sorted(_SOURCES)), st.integers(3, 1000), st.integers(0, 2**32 - 1), st.integers(-540, 540))
@example("laplace", 1000, 0, 540)
@example("cauchy", 1000, 0, -540)
def test_kurtosis_equals_rms_scaled_form_at_any_power_of_two_gain(source, n, seed, k):
    x = np.ldexp(_SOURCES[source](np.random.default_rng(seed), n), k)
    assert kurtosis_excess(x) == rms_scaled_kurtosis(x)


def _old_scaled(values) -> np.ndarray:
    """The score input as kurtosis_excess and normalized_correlation scaled
    it before they shared one core: flattened, copied, and divided by the
    power of two above the peak through np.ldexp."""
    v = np.asarray(values.samples if isinstance(values, Signal1D) else values.pixels, dtype=np.float64).ravel()
    shift = int(np.frexp(max(v.max(), -v.min()))[1])
    return np.ldexp(v, -shift) if shift else v.copy()


def _old_kurtosis(values) -> float:
    x = _old_scaled(values)
    x -= x.mean()
    np.square(x, out=x)
    m2 = x.mean()
    if m2 <= 0.0:
        raise DegenerateInputError("zero-variance input")
    np.square(x, out=x)
    return float(x.mean() / (m2 * m2) - 3.0)


def _old_correlation(a, b) -> float:
    # the mean product, by the package's non-BLAS sum of products, over the
    # root of the pairwise means of the squares, as the kurtosis takes them
    av, bv = _old_scaled(a), _old_scaled(b)
    av -= av.mean()
    bv -= bv.mean()
    den = np.sqrt(np.square(av).mean() * np.square(bv).mean())
    if den <= 0.0:
        raise DegenerateInputError("zero-variance input")
    return float(np.clip(_dot(av, bv) / av.size / den, -1.0, 1.0))


def _outcome(f, *args):
    """f(*args), or the type of the error it raises."""
    try:
        return f(*args)
    except DegenerateInputError as e:
        return type(e)


@settings(max_examples=200)
@given(
    st.integers(2, 400), st.booleans(), st.integers(0, 2**32 - 1),
    st.lists(st.integers(-1000, 1000), min_size=3, max_size=3), st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
)
def test_score_core_keeps_the_bits_of_the_separate_scores(n, image, seed, ks, offsets):
    # three related value sets (a source, a degraded and a restored one),
    # each at its own power-of-two gain and DC offset
    rng = np.random.default_rng(seed)
    s = rng.laplace(size=n)
    sets = [np.ldexp(v + c, k) for v, c, k in zip((s, s + rng.laplace(size=n), s + 0.1 * rng.standard_normal(n)), offsets, ks)]
    width = next(w for w in (20, 10, 5, 4, 3, 2, 1) if n % w == 0)
    s, x, s_est = (Image2D(v.reshape(-1, width)) if image else Signal1D(v) for v in sets)
    want = [_outcome(_old_kurtosis, v) for v in (s, x, s_est)] + [_outcome(_old_correlation, s, v) for v in (x, s_est)]
    assert [_outcome(kurtosis_excess, v) for v in (s, x, s_est)] + [_outcome(normalized_correlation, s, v) for v in (x, s_est)] == want
    if DegenerateInputError not in want:
        assert list(_scores(s, x, s_est)) == want


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

    def test_warmup_moments_batch(self):
        assert warmup_moments(np.array([1.0, -2.0])) == (2.5, 8.5)
        assert warmup_moments(np.array([])) == (0.0, 0.0)


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
