import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
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
from kurtdeconv.signals import _Owned, _array, _dot, _pow2, _walk
from conftest import fir, fir_rounding, patch, rms_shift, window


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

    @pytest.mark.parametrize("rate", [0.5, -8000, np.nan, np.inf, -np.inf])
    def test_signal_rate_must_be_finite_and_at_least_1(self, rate):
        # nan and inf once escaped as ValueError and OverflowError
        with pytest.raises(ContractViolationError, match="sample_rate must be finite and >= 1"):
            Signal1D([1.0], sample_rate=rate)

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

    @pytest.mark.parametrize("taps", [[], [np.nan], [[0.5]]])
    def test_taps_reject_bad_coefficients(self, taps):
        with pytest.raises(ContractViolationError):
            FilterTaps1D(taps)

    def test_caller_data_is_copied(self):
        values = np.array([1.0, 2.0, 3.0])
        s = Signal1D(values)
        values[0] = 9.0
        assert s.samples.tolist() == [1.0, 2.0, 3.0] and not np.shares_memory(s.samples, values)

    @pytest.mark.parametrize("make", [
        lambda a: Signal1D(_Owned(a)),
        lambda a: Image2D(_Owned(a.reshape(2, 2))),
        lambda a: apply_taps(Signal1D(a), FilterTaps1D([1.0, 0.5])),
        lambda a: apply_kernel(Image2D(a.reshape(2, 2)), Kernel2D(np.eye(3))),
    ])
    def test_adopted_arrays_are_read_only(self, make):
        out = make(np.arange(1.0, 5.0))
        values = out.samples if isinstance(out, Signal1D) else out.pixels
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_adopted_array_is_not_copied(self):
        values = np.arange(1.0, 5.0)
        assert Signal1D(_Owned(values)).samples is values

    @pytest.mark.parametrize("make", [
        lambda a: Signal1D(a[:, 0]),
        lambda a: Image2D(a.T),
        lambda a: Image2D(_Owned(np.asfortranarray(a))),
        lambda a: FilterTaps1D(_Owned(a[:, 1])),
        lambda a: Kernel2D(a[:3, :3].T),
    ])
    def test_containers_hold_c_ordered_values(self, make):
        # a strided or Fortran-ordered array, the caller's or a stage's, is
        # held in C order, which the compiled kernels take as it is
        a = np.arange(1.0, 31.0).reshape(5, 6)
        values = _array(make(a))
        assert values.flags.c_contiguous and np.array_equal(values, _array(make(a.copy())))

    @pytest.mark.parametrize("values, ndim", [
        (np.array([1.0, np.nan]), 1),
        (np.array([[np.inf, 1.0]]), 2),
        (np.empty(0), 1),
        (np.ones((2, 2)), 1),
    ])
    def test_adopted_array_still_checked(self, values, ndim):
        with pytest.raises(ContractViolationError):
            (Signal1D if ndim == 1 else Image2D)(_Owned(values))


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
    # the reference scale of the oracles in conftest
    @pytest.mark.parametrize("value, shift", [(3.0, 2), (2.5, 1), (1.0, 0), (-1e-5, -17), (0.0, 0)])
    def test_nearest_power_of_two(self, value, shift):
        assert rms_shift(np.full((2, 3), value)) == shift


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
        # each output summed from 0.0 over the taps in order, bit for bit;
        # lfilter (np.convolve) sums them in another order, within rounding
        rng = np.random.default_rng(seed)
        x, taps = Signal1D(rng.standard_normal(N)), FilterTaps1D(rng.standard_normal(K))
        y = apply_taps(x, taps).samples
        assert np.array_equal(y, fir(taps.taps, x.samples))
        assert np.all(np.abs(y - lfilter(taps.taps, [1.0], x.samples)) <= fir_rounding(taps.taps, x.samples))

    def test_apply_taps_memory_is_its_output(self):
        # apply_taps reads the samples through the walk in scratch slot 0,
        # which the first call of a size in a thread may make, as
        # apply_kernel's does; after it, the peak is the output alone (its
        # finiteness check reads its max and min)
        x = Signal1D(np.random.default_rng(3).standard_normal(100_000))
        taps = FilterTaps1D([1.0, -0.6, -0.3])
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                apply_taps(x, taps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        walk = (x.samples.size + len(taps) - 1) * 8
        assert peaks[0] <= 1.05 * (x.samples.nbytes + walk)
        assert peaks[1] <= 1.05 * x.samples.nbytes

    @given(
        st.integers(0, 3), st.integers(0, 3), st.integers(1, 40), st.integers(1, 40),
        st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
    )
    @example(3, 3, 1, 1, 0.0, 0)
    def test_apply_kernel_matches_correlate(self, half_rows, half_cols, H, W, zeros, seed):
        # correlate leaves out weights of magnitude <= 2.2e-16, apply_kernel
        # keeps them; these draws have none but exact zeros. Kernels larger
        # than the image included.
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


# values whose products with 2**k, |k| <= 1100, cover overflow, underflow,
# subnormal results and both zeros
_pow2_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, 1.5, -0.75]),
)


@given(st.lists(_pow2_values, min_size=1, max_size=8), st.integers(-1100, 1100))
@example([1.5, -3.0, 5e-324, 1.7976931348623157e308, -0.0], -1074)
@example([1.5, -3.0, 5e-324, 1.7976931348623157e308, -0.0], -1075)
@example([1.5, -3.0, 5e-324, 1.7976931348623157e308, -0.0], 1023)
@example([1.5, -3.0, 5e-324, 1.7976931348623157e308, -0.0], 1024)
def test_pow2_is_ldexp_bit_for_bit(values, k):
    v = np.array(values)
    out = np.empty_like(v)
    with np.errstate(over="ignore"):
        want = np.ldexp(v, k)
        assert _pow2(v, k).tobytes() == want.tobytes()
        assert _pow2(v, k, out=out) is out and out.tobytes() == want.tobytes()


SRC = Path(__file__).resolve().parent.parent / "src" / "kurtdeconv"


def _nodes(tree: ast.AST, match):
    """(enclosing function, node) of every node of tree that match accepts."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if match(child):
                yield inner, child
            yield from visit(child, inner)
    yield from visit(tree, None)


def _called(node: ast.AST) -> str | None:
    """The name of the function or method node calls, if it is a call."""
    return getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None


def _calls(tree: ast.AST, name: str):
    """(enclosing function, first argument) of every call of a function or
    method called name in tree."""
    for func, call in _nodes(tree, lambda node: _called(node) == name):
        yield func, ast.unparse(call.args[0]) if call.args else None


def test_scalar_ldexp_only_in_pow2():
    # every power-of-two scaling by one exponent goes through _pow2; the
    # one other call scales each grid cell of kurtosis_surface by its own
    calls = {(path.name, *call) for path in SRC.glob("*.py") for call in _calls(ast.parse(path.read_text(encoding="utf-8")), "ldexp")}
    assert calls == {("signals.py", "_pow2", "values"), ("adapt.py", "kurtosis_surface", "W")}


def test_scratch_taken_only_by_the_functions_that_fill_it():
    # _walk takes slot 0 for its P, _scores both slots; no caller sizes a
    # slot for them, the walk's size is worked out in _walk alone, and no
    # function makes an RMS-scaled copy: the walk is read at the peak's
    # power of two, like every score
    texts = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    calls = {(name, func) for name, text in texts.items() for func, _ in _calls(ast.parse(text), "_scratch")}
    assert calls == {("signals.py", "_walk"), ("stats.py", "_scores")}
    assert [name for name, text in texts.items() if "_walk_size" in text or "_rms_shift" in text] == []


def test_no_matrix_products():
    # no sum of products goes to BLAS, whose bits follow its thread count
    # and the CPU's kernel: a sum over signals is signals._dot's, a filter
    # the walk filter's, and kurtosis_surface's 3 x 3 and 6 x 6 algebra
    # over a block of grid cells is np.einsum's
    def product(node):
        return isinstance(getattr(node, "op", None), ast.MatMult) or _called(node) in ("dot", "vdot", "inner", "matmul", "convolve", "tensordot")

    found = {(path.name, func) for path in SRC.glob("*.py") for func, _ in _nodes(ast.parse(path.read_text(encoding="utf-8")), product)}
    assert found == set()


@given(st.integers(0, 5000), st.integers(0, 2**32 - 1))
def test_dot_keeps_its_bits_at_any_alignment(n, seed):
    # the sum follows the values alone, not the 16 byte offsets they may
    # sit at, and stays within a few roundings of the exact sum of the
    # rounded products (it measured under half an eps of sum |ab|)
    a, b = np.random.default_rng(seed).laplace(size=(2, n))
    want = _dot(a, b)
    for offset in range(16):
        buf = np.zeros(2 * 8 * n + 16, np.uint8)
        moved = [buf[offset + 8 * n * i: offset + 8 * n * (i + 1)].view(np.float64) for i in (0, 1)]
        moved[0][:], moved[1][:] = a, b
        assert _dot(*moved) == want
    assert abs(want - math.fsum(a * b)) <= 4.0 * np.finfo(np.float64).eps * math.fsum(np.abs(a * b))
