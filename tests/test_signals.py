import numpy as np
import pytest
from hypothesis import given, strategies as st

from kurtdeconv import (
    Adapt2dConfig,
    ContractViolationError,
    FilterTaps1D,
    Image2D,
    Kernel2D,
    Signal1D,
    apply_kernel,
    apply_taps,
)
from kurtdeconv.signals import _patch_rows, _tap_windows
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


class TestWindowAt:
    """Row n of the 1-D regressor matrix is the window at sample n."""

    def test_direct_readoff(self):
        assert _tap_windows(Signal1D([1, 2, 3]), 2)[2].tolist() == [3, 2]

    def test_zero_prefix(self):
        assert _tap_windows(Signal1D([5]), 3)[0].tolist() == [5, 0, 0]

    def test_constant_signal(self):
        assert _tap_windows(Signal1D([1, 1, 1, 1]), 4)[3].tolist() == [1, 1, 1, 1]

    def test_read_only_view_one_row_per_sample(self):
        # a copy would cost samples * L * 8 bytes; at L = 201 that is
        # hundreds of MB for a few seconds of audio
        X = _tap_windows(Signal1D(np.arange(1.0, 9.0)), 5)
        assert X.shape == (8, 5)
        assert not X.flags.owndata and not X.flags.writeable

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=5))
    def test_shift_equivariance(self, k, L):
        # prepending k zeros and reading at n+k gives the same window once
        # the window no longer touches the padding
        x = np.arange(1.0, 9.0)
        shifted = _tap_windows(Signal1D(np.concatenate((np.zeros(k), x))), L)
        base = _tap_windows(Signal1D(x), L)
        for n in range(L - 1, x.size):
            assert base[n].tolist() == shifted[n + k].tolist()

    def test_round_trip_element_zero(self):
        x = np.array([3.0, -1.0, 4.0, 1.0, -5.0])
        assert _tap_windows(Signal1D(x), 3)[:, 0].tolist() == x.tolist()


class TestPatchAt:
    """Row r*W + c of the 2-D regressor matrix is the flattened patch at
    pixel (r, c)."""

    def test_constant_interior(self):
        img = Image2D(np.full((3, 3), 7.0))
        assert _patch_rows(img, 3, 3)[4].tolist() == np.full(9, 7.0).tolist()

    def test_corner_zero_padding(self):
        img = Image2D(np.arange(9.0).reshape(3, 3))
        p = _patch_rows(img, 3, 3)[0].reshape(3, 3)
        assert np.all(p[0, :] == 0.0) and np.all(p[:, 0] == 0.0)
        assert p[1, 1] == img.pixels[0, 0]

    def test_single_pixel(self):
        img = Image2D(np.arange(6.0).reshape(2, 3))
        assert _patch_rows(img, 1, 1)[1 * 3 + 2, 0] == 5.0

    def test_even_dims_rejected(self):
        # patch dimensions reach the builder only through Adapt2dConfig
        with pytest.raises(ContractViolationError):
            Adapt2dConfig(rows=2, cols=3)

    def test_constant_image_constant_patches(self):
        img = Image2D(np.full((5, 5), 2.5))
        rows = _patch_rows(img, 3, 3)
        for r in range(1, 4):
            for c in range(1, 4):
                assert np.all(rows[r * 5 + c] == 2.5)

    def test_rows_match_patches_in_raster_order(self, rng):
        g = rng.standard_normal((4, 6))
        rows = _patch_rows(Image2D(g), 3, 5)
        assert rows.shape == (24, 15) and not rows.flags.writeable
        for r in range(4):
            for c in range(6):
                assert np.array_equal(rows[r * 6 + c], patch(g, r, c, 3, 5).ravel())


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
