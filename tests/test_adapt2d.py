import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kurtdeconv import (
    Adapt2dConfig,
    AdaptConfig,
    DegenerateInputError,
    DegradeSpec,
    DivergenceError,
    Image2D,
    Signal1D,
    apply_degradation,
    apply_kernel,
    highpass_whiten_2d,
    kurtosis_excess,
    normalize_kernel,
    parameter_error,
    run_adapt,
)
from conftest import oracle_adapt, patch, rms_shift, warmup_moments


def integrated_uniform_image(seed, shape):
    rng = np.random.default_rng(seed)
    field = np.cumsum(np.cumsum(rng.uniform(-1.0, 1.0, shape), axis=0), axis=1)
    return Image2D(field / np.sqrt(shape[0] * shape[1]))


def oracle_kernel(img, cfg):
    """oracle_adapt over the flattened zero-padded patches of img in raster
    order, divided as in run_adapt by the power of two nearest its RMS,
    from the center-1 kernel; returns flattened weights."""
    M, N = cfg.rows, cfg.cols
    g = np.ldexp(img.pixels, -rms_shift(img.pixels))
    patches = [patch(g, r, c, M, N).ravel() for r in range(img.height) for c in range(img.width)]
    return oracle_adapt(patches, np.eye(1, M * N, (M * N) // 2)[0], warmup_moments(g.ravel()[: cfg.warmup]), cfg)[:2]


def outcome(img, cfg):
    """Flattened kernel of run_adapt, or the (pass, pixel) it diverged at."""
    try:
        return run_adapt(img, cfg).filter.weights.ravel()
    except DivergenceError as exc:
        return exc.pass_index, exc.sample_index


class TestRunAdapt2d:
    def test_one_by_one_matches_1d(self):
        rng = np.random.default_rng(41)
        x = rng.laplace(0.0, 1.0, 400)
        img = Image2D(x.reshape(1, -1))
        cfg2 = Adapt2dConfig(rows=1, cols=1, mu=1e-4, beta=0.99, warmup=32, passes=3)
        cfg1 = AdaptConfig(taps=1, mu=1e-4, beta=0.99, warmup=32, passes=3)
        r2 = run_adapt(img, cfg2)
        r1 = run_adapt(Signal1D(x), cfg1)
        assert np.array_equal(r2.kurtosis_trace, r1.kurtosis_trace)
        assert np.array_equal(r2.filter.weights.ravel(), r1.filter.taps)

    def test_matches_repeated_adapt_step(self, rng):
        img = Image2D(rng.laplace(0.0, 1.0, (12, 14)))
        cfg = Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.99, warmup=16, passes=2)
        res = run_adapt(img, cfg)
        want, first = oracle_kernel(img, cfg)
        assert first is None
        assert np.array_equal(res.filter.weights.ravel(), want)

    @given(st.integers(-26, 13), st.sampled_from([1.0, -1.0]))
    def test_power_of_two_gain_leaves_kernel(self, k, sign):
        g = np.random.default_rng(45).laplace(0.0, 1.0, (12, 14))
        cfg = Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.99, warmup=16, passes=2)
        ref = run_adapt(Image2D(g), cfg)
        res = run_adapt(Image2D(sign * np.ldexp(g, k)), cfg)
        assert np.array_equal(res.filter.weights, ref.filter.weights)
        assert res.kurtosis_trace == ref.kurtosis_trace

    @given(
        st.sampled_from([1, 3, 5]),
        st.sampled_from([1, 3, 5]),
        st.integers(2, 10),
        st.integers(2, 10),
        st.integers(0, 40),
        st.integers(1, 3),
        st.floats(0.05, 0.999),
        # step sizes that adapt, and ones that exceed the kernel limit
        st.builds(
            lambda sign, log_mu: sign * 10.0**log_mu,
            st.sampled_from([1.0, -1.0]),
            st.floats(-7.0, -1.5) | st.floats(6.0, 12.0),
        ),
        st.integers(0, 2**32 - 1),
    )
    # an 11x11 image under a 3x1 kernel, whose patch rows a BLAS dot
    # product sums out of kernel order
    @example(3, 1, 8, 10, 8, 2, 0.99, -0.008, 2)
    def test_engines_match_oracle(self, rows, cols, extra_h, extra_w, warmup, passes, beta, mu, seed):
        # the kernel sums each patch in kernel order, as adapt_step does, so
        # it matches it bit for bit and diverges at the same (pass, pixel)
        img = Image2D(np.random.default_rng(seed).laplace(0.0, 1.0, (rows + extra_h, cols + extra_w)))
        cfg = Adapt2dConfig(rows=rows, cols=cols, mu=mu, beta=beta, warmup=min(warmup, img.pixels.size - 1), passes=passes)
        want, first = oracle_kernel(img, cfg)
        got = outcome(img, cfg)
        if first is None:
            assert np.array_equal(got, want)
        else:
            assert got == first

    def test_divergence_guard_names_location(self, rng):
        img = Image2D(rng.laplace(0.0, 1.0, (12, 14)))
        cfg = Adapt2dConfig(rows=3, cols=3, mu=1e12, warmup=16, passes=1)
        with pytest.raises(DivergenceError) as exc:
            run_adapt(img, cfg)
        _, first = oracle_kernel(img, cfg)
        assert (exc.value.pass_index, exc.value.sample_index) == first

    def test_silent_warmup_band_raises(self):
        # a black band across the top of the image whitens to zeros, so a
        # warm-up inside it has no moments to start from
        img = integrated_uniform_image(46, (64, 64)).pixels.copy()
        img[:32] = 0.0
        d = highpass_whiten_2d(apply_degradation(DegradeSpec("image_iir2", 0.5, 0.4), Image2D(img)))
        assert not d.pixels[:32].any()
        with pytest.raises(DegenerateInputError, match="warm-up"):
            run_adapt(d, Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.999, warmup=1024, passes=1))

    def test_identity_with_zero_mu(self, rng):
        img = Image2D(rng.standard_normal((12, 14)))
        res = run_adapt(img, Adapt2dConfig(rows=3, cols=3, mu=0.0, warmup=16, passes=1))
        assert res.filter.weights.tolist() == [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        assert np.allclose(res.output.pixels, img.pixels, atol=1e-15)

    def test_image_smaller_than_kernel(self):
        with pytest.raises(DegenerateInputError):
            run_adapt(Image2D(np.ones((2, 8))), Adapt2dConfig(rows=3, cols=3))

    def test_size_rule_comes_before_the_kernel_is_built(self, monkeypatch):
        # a 1000001x1000001 kernel would take 7.28 TiB: the size rule refuses it unbuilt
        monkeypatch.setattr(Adapt2dConfig, "identity", lambda cfg: pytest.fail("run_adapt built the kernel"))
        with pytest.raises(DegenerateInputError, match=r"^image 4x4 is smaller than the kernel 1000001x1000001$"):
            run_adapt(Image2D(np.ones((4, 4))), Adapt2dConfig(rows=10**6 + 1, cols=10**6 + 1))

    def test_warmup_covering_the_image(self):
        with pytest.raises(DegenerateInputError, match="consumes the whole 8x8 image"):
            run_adapt(Image2D(np.random.default_rng(7).random((8, 8))), Adapt2dConfig(warmup=64))

    def test_memory_is_one_padded_copy(self, rng):
        # rows copied out of a 256^2 image for a 7x7 kernel would take 49
        # times the image; the walk reads one padded copy, (256 + 6)^2 values
        img = Image2D(rng.laplace(0.0, 1.0, (256, 256)))
        cfg = Adapt2dConfig(rows=7, cols=7, mu=-1e-6, warmup=256, passes=1)
        tracemalloc.start()
        try:
            run_adapt(img, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * img.pixels.nbytes

    def test_white_image_keeps_identity(self):
        rng = np.random.default_rng(42)
        img = Image2D(rng.uniform(-1.0, 1.0, (128, 128)))
        res = run_adapt(img, Adapt2dConfig(rows=3, cols=3, mu=-3e-4, beta=0.999, warmup=2000, passes=2))
        w = normalize_kernel(res.filter).weights
        off = np.abs(w).copy()
        off[1, 1] = 0.0
        assert off.max() <= 0.05

    def test_recovers_two_parameter_blur(self):
        spec = DegradeSpec(kind="image_iir2", a1=0.5, a2=0.4)
        img = integrated_uniform_image(43, (128, 128))
        g = apply_degradation(DegradeSpec("image_iir2", 0.5, 0.4), img)
        d = highpass_whiten_2d(g)
        res = run_adapt(d, Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.999, warmup=2000, passes=10))
        err = parameter_error(spec, res.filter)
        assert max(err.values()) <= 0.1

    def test_restored_less_gaussian_than_degraded(self):
        img = integrated_uniform_image(44, (128, 128))
        g = apply_degradation(DegradeSpec("image_iir2", 0.5, 0.4), img)
        d = highpass_whiten_2d(g)
        res = run_adapt(d, Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.999, warmup=2000, passes=10))
        assert abs(res.final_kurtosis) > abs(kurtosis_excess(d.pixels))


def test_result_output_matches_kernel(rng):
    img = Image2D(rng.standard_normal((20, 24)))
    res = run_adapt(img, Adapt2dConfig(mu=-1e-4, warmup=32, passes=2))
    assert np.array_equal(res.output.pixels, apply_kernel(img, res.filter).pixels)
    assert res.final_kurtosis == res.kurtosis_trace[-1] == kurtosis_excess(res.output.pixels)
