import numpy as np
import pytest
from hypothesis import given, strategies as st

from kurtdeconv import (
    Adapt2dConfig,
    AdaptConfig,
    DegenerateInputError,
    DegradeSpec,
    DivergenceError,
    Image2D,
    Signal1D,
    apply_kernel,
    highpass_whiten_2d,
    image_iir,
    kurtosis_excess,
    normalize_kernel,
    parameter_error,
    run_adapt,
    run_adapt2d,
)
from conftest import oracle_adapt, patch


def integrated_uniform_image(seed, shape):
    rng = np.random.default_rng(seed)
    field = np.cumsum(np.cumsum(rng.uniform(-1.0, 1.0, shape), axis=0), axis=1)
    return Image2D(field / np.sqrt(shape[0] * shape[1]))


def oracle_kernel(img, cfg):
    """oracle_adapt over the flattened zero-padded patches of img in raster
    order, from the center-1 kernel; returns flattened weights."""
    M, N, g = cfg.rows, cfg.cols, img.pixels
    patches = [patch(g, r, c, M, N).ravel() for r in range(img.height) for c in range(img.width)]
    return oracle_adapt(patches, np.eye(1, M * N, (M * N) // 2)[0], g.ravel()[: cfg.warmup], cfg)


class TestRunAdapt2d:
    def test_one_by_one_matches_1d(self):
        rng = np.random.default_rng(41)
        x = rng.laplace(0.0, 1.0, 400)
        img = Image2D(x.reshape(1, -1))
        cfg2 = Adapt2dConfig(rows=1, cols=1, mu=1e-4, beta=0.99, warmup=32, passes=3)
        cfg1 = AdaptConfig(taps=1, mu=1e-4, beta=0.99, warmup=32, passes=3)
        r2 = run_adapt2d(img, cfg2)
        r1 = run_adapt(Signal1D(x), cfg1)
        assert np.array_equal(r2.kurtosis_trace, r1.kurtosis_trace)
        assert np.array_equal(r2.kernel.weights.ravel(), r1.filter.taps)

    def test_matches_repeated_adapt_step(self, rng):
        img = Image2D(rng.laplace(0.0, 1.0, (12, 14)))
        cfg = Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.99, warmup=16, passes=2)
        res = run_adapt2d(img, cfg)
        want, first = oracle_kernel(img, cfg)
        assert first is None
        assert np.allclose(res.kernel.weights.ravel(), want, atol=1e-12)

    def test_python_core_matches_repeated_adapt_step(self, rng, python_core):
        self.test_matches_repeated_adapt_step(rng)

    @given(st.integers(-26, 13), st.sampled_from([1.0, -1.0]))
    def test_power_of_two_gain_leaves_kernel(self, k, sign):
        g = np.random.default_rng(45).laplace(0.0, 1.0, (12, 14))
        cfg = Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.99, warmup=16, passes=2)
        ref = run_adapt2d(Image2D(g), cfg)
        res = run_adapt2d(Image2D(sign * np.ldexp(g, k)), cfg)
        assert np.array_equal(res.kernel.weights, ref.kernel.weights)
        assert res.kurtosis_trace == ref.kurtosis_trace

    def test_divergence_guard_names_location(self, rng):
        img = Image2D(rng.laplace(0.0, 1.0, (12, 14)))
        cfg = Adapt2dConfig(rows=3, cols=3, mu=1e12, warmup=16, passes=1)
        with pytest.raises(DivergenceError) as exc:
            run_adapt2d(img, cfg)
        _, first = oracle_kernel(img, cfg)
        assert (exc.value.pass_index, exc.value.sample_index) == first

    def test_python_core_divergence_guard_names_location(self, rng, python_core):
        self.test_divergence_guard_names_location(rng)

    def test_identity_with_zero_mu(self, rng):
        img = Image2D(rng.standard_normal((12, 14)))
        res = run_adapt2d(img, Adapt2dConfig(rows=3, cols=3, mu=0.0, warmup=16, passes=1))
        assert res.kernel.weights.tolist() == [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        assert np.allclose(res.output.pixels, img.pixels, atol=1e-15)

    def test_image_smaller_than_kernel(self):
        with pytest.raises(DegenerateInputError):
            run_adapt2d(Image2D(np.ones((2, 8))), Adapt2dConfig(rows=3, cols=3))

    def test_white_image_keeps_identity(self):
        rng = np.random.default_rng(42)
        img = Image2D(rng.uniform(-1.0, 1.0, (128, 128)))
        res = run_adapt2d(img, Adapt2dConfig(rows=3, cols=3, mu=-3e-4, beta=0.999, warmup=2000, passes=2))
        w = normalize_kernel(res.kernel).weights
        off = np.abs(w).copy()
        off[1, 1] = 0.0
        assert off.max() <= 0.05

    def test_recovers_two_parameter_blur(self):
        spec = DegradeSpec(kind="image_iir2", a1=0.5, a2=0.4)
        img = integrated_uniform_image(43, (128, 128))
        g = image_iir(img, 0.5, 0.4)
        d = highpass_whiten_2d(g)
        res = run_adapt2d(d, Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.999, warmup=2000, passes=10))
        err = parameter_error(spec, res.kernel)
        assert max(err.values()) <= 0.1

    def test_restored_less_gaussian_than_degraded(self):
        img = integrated_uniform_image(44, (128, 128))
        g = image_iir(img, 0.5, 0.4)
        d = highpass_whiten_2d(g)
        res = run_adapt2d(d, Adapt2dConfig(rows=3, cols=3, mu=-1e-3, beta=0.999, warmup=2000, passes=10))
        assert abs(res.final_kurtosis) > abs(kurtosis_excess(d.pixels))


def test_result_output_matches_kernel(rng):
    img = Image2D(rng.standard_normal((20, 24)))
    res = run_adapt2d(img, Adapt2dConfig(mu=-1e-4, warmup=32, passes=2))
    assert np.array_equal(res.output.pixels, apply_kernel(img, res.kernel).pixels)
    assert res.final_kurtosis == res.kurtosis_trace[-1] == kurtosis_excess(res.output.pixels)
