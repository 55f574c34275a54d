import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.ndimage import correlate
from scipy.signal import lfilter

from kurtdeconv import (
    Adapt2dConfig,
    ContractViolationError,
    FilterTaps1D,
    Image2D,
    Kernel2D,
    Signal1D,
    apply_kernel,
    apply_taps,
    normalize_kernel,
    normalize_taps,
)
from kurtdeconv.signals import _rms_shift, _walk
from conftest import patch, window


class TestContainers:
    def test_signal_rejects_nan(self):
        with pytest.raises(ContractViolationError):
            Signal1D([1.0, np.nan])

    def test_signal_rejects_empty(self):
        with pytest.raises(ContractViolationError):
            Signal1D([])

    def test_signal_rejects_bad_rate(self):
        with pytest.raises(ContractViolationError):
            Signal1D([1.0], sample_rate=0)

    def test_samples_are_read_only(self):
        s = Signal1D([1.0, 2.0])
        with pytest.raises(ValueError):
            s.samples[0] = 3.0

    def test_image_shape(self):
        img = Image2D([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (img.height, img.width) == (2, 3)

    def test_image_rejects_inf(self):
        with pytest.raises(ContractViolationError):
            Image2D([[1.0, np.inf]])

    def test_kernel_rejects_even_dims(self):
        with pytest.raises(ContractViolationError):
            Kernel2D(np.zeros((2, 3)))

    def test_taps_len(self):
        assert len(FilterTaps1D([1.0, 0.0])) == 2


def walk_rows(walk):
    """Every row of a signals._walk, gathered as P[base(r) + off]."""
    P, off, width, stride, n = walk
    r = np.arange(n)[:, None]
    return P[r // width * stride + r % width + off]


def tap_walk(x1, L, shift):
    """The walk of run_adapt over a Signal1D: L - 1 zeros in front, taps
    reversed, so element k of row n reads sample n - k."""
    return _walk(x1.samples, (L,), shift)


def patch_walk(img, M, N, shift):
    """The walk of run_adapt over an Image2D: centred M x N neighborhoods,
    taps in raster order."""
    return _walk(img.pixels, (M, N), shift)


class TestWindowAt:
    """Row n of the 1-D regressor walk is the window at sample n."""

    def test_direct_readoff(self):
        assert walk_rows(tap_walk(Signal1D([1, 2, 3]), 2, 0))[2].tolist() == [3, 2]

    def test_zero_prefix(self):
        assert walk_rows(tap_walk(Signal1D([5]), 3, 0))[0].tolist() == [5, 0, 0]

    def test_constant_signal(self):
        assert walk_rows(tap_walk(Signal1D([1, 1, 1, 1]), 4, 0))[3].tolist() == [1, 1, 1, 1]

    def test_read_only_view_one_row_per_sample(self):
        # rows copied out would cost samples * L * 8 bytes; at L = 201 that
        # is hundreds of MB for a few seconds of audio. The walk holds one
        # padded copy of the input, N + L - 1 elements, one row per sample.
        x = np.arange(1.0, 9.0)
        P, off, width, stride, n = tap_walk(Signal1D(x), 5, 0)
        assert P.size == 8 + 5 - 1 and P.tolist() == [0.0] * 4 + x.tolist() and not P.flags.writeable
        assert (off.tolist(), width, n) == ([4, 3, 2, 1, 0], 8, 8)

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=5))
    def test_shift_equivariance(self, k, L):
        # prepending k zeros and reading at n+k gives the same window once
        # the window no longer touches the padding
        x = np.arange(1.0, 9.0)
        shifted = walk_rows(tap_walk(Signal1D(np.concatenate((np.zeros(k), x))), L, 0))
        base = walk_rows(tap_walk(Signal1D(x), L, 0))
        for n in range(L - 1, x.size):
            assert base[n].tolist() == shifted[n + k].tolist()

    def test_round_trip_element_zero(self):
        x = np.array([3.0, -1.0, 4.0, 1.0, -5.0])
        assert walk_rows(tap_walk(Signal1D(x), 3, 0))[:, 0].tolist() == x.tolist()

    @pytest.mark.parametrize("L", [1, 2, 5, 17])
    def test_rows_match_windows(self, rng, L):
        x = rng.standard_normal(12)
        rows = walk_rows(tap_walk(Signal1D(x), L, 0))
        assert rows.shape == (12, L)
        for n in range(12):
            assert np.array_equal(rows[n], window(x, n, L))


class TestRmsShift:
    @pytest.mark.parametrize("value, shift", [(3.0, 2), (2.5, 1), (1.0, 0), (-1e-5, -17), (0.0, 0)])
    def test_nearest_power_of_two(self, value, shift):
        assert _rms_shift(np.full((2, 3), value)) == shift


class TestPatchAt:
    """Row r*W + c of the 2-D regressor walk is the flattened patch at
    pixel (r, c)."""

    def test_constant_interior(self):
        img = Image2D(np.full((3, 3), 7.0))
        assert walk_rows(patch_walk(img, 3, 3, 0))[4].tolist() == np.full(9, 7.0).tolist()

    def test_corner_zero_padding(self):
        img = Image2D(np.arange(9.0).reshape(3, 3))
        p = walk_rows(patch_walk(img, 3, 3, 0))[0].reshape(3, 3)
        assert np.all(p[0, :] == 0.0) and np.all(p[:, 0] == 0.0)
        assert p[1, 1] == img.pixels[0, 0]

    def test_single_pixel(self):
        img = Image2D(np.arange(6.0).reshape(2, 3))
        assert walk_rows(patch_walk(img, 1, 1, 0))[1 * 3 + 2, 0] == 5.0

    def test_even_dims_rejected(self):
        # patch dimensions reach the builder only through Adapt2dConfig
        with pytest.raises(ContractViolationError):
            Adapt2dConfig(rows=2, cols=3)

    def test_constant_image_constant_patches(self):
        img = Image2D(np.full((5, 5), 2.5))
        rows = walk_rows(patch_walk(img, 3, 3, 0))
        for r in range(1, 4):
            for c in range(1, 4):
                assert np.all(rows[r * 5 + c] == 2.5)

    def test_rows_match_patches_in_raster_order(self, rng):
        g = rng.standard_normal((4, 6))
        walk = patch_walk(Image2D(g), 3, 5, 0)
        rows = walk_rows(walk)
        assert rows.shape == (24, 15) and not walk[0].flags.writeable
        for r in range(4):
            for c in range(6):
                assert np.array_equal(rows[r * 6 + c], patch(g, r, c, 3, 5).ravel())

    @pytest.mark.parametrize("M, N", [(3, 5), (5, 3), (1, 7), (7, 7)])
    def test_one_padded_copy(self, rng, M, N):
        # (H + M - 1) * (W + N - 1) elements, whatever the kernel size
        g = rng.standard_normal((7, 9))
        P, off, width, stride, n = patch_walk(Image2D(g), M, N, 0)
        assert P.size == (7 + M - 1) * (9 + N - 1) and (width, stride, n) == (9, 9 + N - 1, 63)
        assert np.array_equal(P.reshape(-1, stride)[M // 2 : M // 2 + 7, N // 2 : N // 2 + 9], g)
        assert np.count_nonzero(P) == np.count_nonzero(g)


class TestApply:
    def test_apply_taps_identity(self):
        x = Signal1D([1.0, -2.0, 3.0])
        y = apply_taps(x, FilterTaps1D([1.0, 0.0]))
        assert y.samples.tolist() == x.samples.tolist()

    def test_apply_taps_matches_window_dot(self, rng):
        x = Signal1D(rng.standard_normal(50))
        taps = FilterTaps1D(rng.standard_normal(4))
        y = apply_taps(x, taps)
        for n in (0, 1, 7, 49):
            assert y.samples[n] == pytest.approx(float(taps.taps @ window(x.samples, n, 4)), abs=1e-12)

    def test_apply_kernel_matches_patch_inner_product(self, rng):
        img = Image2D(rng.standard_normal((6, 7)))
        kernel = Kernel2D(rng.standard_normal((3, 3)))
        out = apply_kernel(img, kernel)
        for r, c in [(0, 0), (2, 3), (5, 6)]:
            want = float(np.sum(kernel.weights * patch(img.pixels, r, c, 3, 3)))
            assert out.pixels[r, c] == pytest.approx(want, abs=1e-12)

    @given(st.integers(1, 260), st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_apply_taps_matches_lfilter(self, K, N, seed):
        rng = np.random.default_rng(seed)
        x, taps = Signal1D(rng.standard_normal(N)), FilterTaps1D(rng.standard_normal(K))
        assert np.array_equal(apply_taps(x, taps).samples, lfilter(taps.taps, [1.0], x.samples))

    @given(
        st.integers(0, 3), st.integers(0, 3), st.integers(1, 20), st.integers(1, 20),
        st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
    )
    def test_apply_kernel_matches_correlate(self, half_rows, half_cols, H, W, zeros, seed):
        # correlate leaves out weights of magnitude <= 2.2e-16, apply_kernel
        # keeps them; these draws have none but exact zeros
        rng = np.random.default_rng(seed)
        img = Image2D(rng.standard_normal((H, W)))
        weights = rng.standard_normal((2 * half_rows + 1, 2 * half_cols + 1))
        weights[rng.random(weights.shape) < zeros] = 0.0
        want = correlate(img.pixels, weights, mode="constant", cval=0.0)
        assert np.array_equal(apply_kernel(img, Kernel2D(weights)).pixels, want)


_SIGNAL = Signal1D(np.arange(1.0, 10.0))
_IMAGE = Image2D(np.arange(9.0).reshape(3, 3))
_TAPS = FilterTaps1D([1.0, 0.5])
_KERNEL = Kernel2D(np.eye(3))
MISMATCHED = {
    "taps_on_image": lambda: apply_taps(_IMAGE, _TAPS),
    "kernel_on_signal": lambda: apply_kernel(_SIGNAL, _KERNEL),
    "kernel_as_taps": lambda: apply_taps(_SIGNAL, _KERNEL),
    "kernel_normalized_as_taps": lambda: normalize_taps(_KERNEL),
    "taps_normalized_as_kernel": lambda: normalize_kernel(_TAPS),
}


@pytest.mark.parametrize("call", MISMATCHED)
def test_pairing_rule(call):
    # a FilterTaps1D filters a Signal1D, a Kernel2D an Image2D
    with pytest.raises(ContractViolationError):
        MISMATCHED[call]()
