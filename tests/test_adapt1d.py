import functools
import shutil
import subprocess
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import lfilter

from kurtdeconv import (
    M2_GUARD,
    AdaptConfig,
    ContractViolationError,
    DegenerateInputError,
    DegradeSpec,
    DivergenceError,
    FilterTaps1D,
    Image2D,
    Signal1D,
    SourceSpec,
    apply_degradation,
    kurtosis_excess,
    kurtosis_surface,
    make_source,
    normalize_taps,
    parameter_error,
    run_adapt,
)
from kurtdeconv import _native
from kurtdeconv.adapt import TAP_LIMIT
from kurtdeconv.signals import _rms_shift
from conftest import MomentState, adapt_step, batch_gradient, direct_surface, laplace_signal, oracle_adapt, window


def oracle_taps(x, cfg):
    """oracle_adapt over the tap windows of sample array x, divided as in
    run_adapt by the power of two nearest its RMS."""
    x = np.ldexp(x, -_rms_shift(x))
    windows = [window(x, n, cfg.taps) for n in range(x.size)]
    return oracle_adapt(windows, np.eye(1, cfg.taps)[0], x[: cfg.warmup], cfg)


class TestAdaptStep:
    def test_zero_mu_freezes_taps(self):
        h = FilterTaps1D([1.0, -0.5])
        y, h2, _ = adapt_step(h, MomentState(1.0, 1.0, 0.9), np.array([2.0, 1.0]), 0.0)
        assert y == 1.5 and h2.taps.tolist() == h.taps.tolist()

    def test_zero_window(self):
        h = FilterTaps1D([1.0, 0.0])
        y, h2, state2 = adapt_step(h, MomentState(1.0, 1.0, 0.9), np.zeros(2), 0.1)
        assert y == 0.0 and h2.taps.tolist() == h.taps.tolist()
        assert state2.m2 == pytest.approx(0.9)

    def test_hand_arithmetic_chain(self):
        # y = 2; moments advance to (1.03, 1.15); then Eq.-6-style feedback
        h = FilterTaps1D([1.0, 0.0])
        window = np.array([2.0, 1.0])
        state = MomentState(1.0, 1.0, 0.99)
        mu = 1e-3
        y, h2, state2 = adapt_step(h, state, window, mu)
        assert y == 2.0
        assert state2.m2 == pytest.approx(1.03, abs=1e-12)
        assert state2.m4 == pytest.approx(1.15, abs=1e-12)
        f = 4.0 * ((1.03 * 4.0 - 1.15) * 2.0) / 1.03**3
        assert f == pytest.approx(21.743774, abs=1e-5)
        assert np.allclose(h2.taps, h.taps + mu * f * window, atol=1e-12)

    def test_near_singular_skips_update(self):
        h = FilterTaps1D([1.0])
        y, h2, state2 = adapt_step(h, MomentState(0.0, 0.0, 1.0), np.array([1e-6]), 0.1)
        assert h2.taps.tolist() == h.taps.tolist()  # guard hit, taps frozen
        assert state2.m2 == 0.0  # beta = 1 freezes the estimate too

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            adapt_step(FilterTaps1D([1.0, 0.0]), MomentState(1.0, 1.0, 0.9), np.zeros(3), 0.1)


GAIN_CFG = AdaptConfig(taps=3, mu=3e-5, beta=0.99, warmup=64, passes=2)


def ar2_observation():
    return apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), Signal1D(laplace_signal(36, 2000))).samples


@functools.cache
def unit_gain_result():
    return run_adapt(Signal1D(ar2_observation()), GAIN_CFG)


class TestRunAdapt:
    def test_mu_zero_is_pure_filter(self, rng):
        x = Signal1D(rng.standard_normal(2000))
        res = run_adapt(x, AdaptConfig(taps=4, mu=0.0, warmup=64, passes=2))
        assert res.filter.taps.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert np.array_equal(res.output.samples, x.samples)

    def test_signal_too_short(self):
        with pytest.raises(DegenerateInputError):
            run_adapt(Signal1D(np.ones(10)), AdaptConfig(taps=4, warmup=8))

    def test_divergence_guard_names_location(self):
        # mu large enough that a single update overshoots the tap limit
        # (moderately large mu merely stalls: the m2^3 denominator quenches)
        x = Signal1D(laplace_signal(31, 4000))
        cfg = AdaptConfig(taps=2, mu=1e12, warmup=16, passes=1)
        with pytest.raises(DivergenceError) as exc:
            run_adapt(x, cfg)
        _, first = oracle_taps(x.samples, cfg)
        assert (exc.value.pass_index, exc.value.sample_index) == first

    def test_python_core_divergence_guard_names_location(self, python_core):
        self.test_divergence_guard_names_location()

    def test_matches_repeated_adapt_step(self):
        x = Signal1D(laplace_signal(32, 600))
        cfg = AdaptConfig(taps=3, mu=1e-4, beta=0.99, warmup=32, passes=2)
        res = run_adapt(x, cfg)
        want, first = oracle_taps(x.samples, cfg)
        assert first is None
        assert np.array_equal(res.filter.taps, want)

    def test_python_core_matches_repeated_adapt_step(self, python_core):
        self.test_matches_repeated_adapt_step()

    def test_recovers_ar2_parameters(self):
        # i.i.d. super-gaussian source, so no whitening is needed
        s = Signal1D(laplace_signal(33, 100_000))
        x = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), s)
        res = run_adapt(x, AdaptConfig(taps=3, mu=3e-6, beta=0.999, warmup=2000, passes=3))
        err = parameter_error(DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3), res.filter)
        assert max(err.values()) <= 0.1
        assert all(np.isfinite(res.kurtosis_trace))

    @pytest.mark.parametrize("zeros", [1000, 2000])
    def test_silent_warmup_raises_or_recovers(self, zeros):
        # test_recovers_ar2_parameters behind leading silence: a warm-up
        # that is half signal still recovers, an all-silent one used to
        # adapt from zero moments to a wrong filter (worst error 0.54)
        x = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), Signal1D(laplace_signal(33, 100_000)))
        x = Signal1D(np.concatenate((np.zeros(zeros), x.samples)))
        cfg = AdaptConfig(taps=3, mu=3e-6, beta=0.999, warmup=2000, passes=3)
        if zeros >= cfg.warmup:
            with pytest.raises(DegenerateInputError, match="warm-up"):
                run_adapt(x, cfg)
            return
        err = parameter_error(DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3), run_adapt(x, cfg).filter)
        assert max(err.values()) <= 0.1

    def test_wrong_mu_sign_degrades_or_diverges(self):
        s = Signal1D(laplace_signal(33, 100_000))
        x = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), s)
        try:
            res = run_adapt(x, AdaptConfig(taps=3, mu=-3e-6, beta=0.999, warmup=2000, passes=3))
        except DivergenceError:
            return
        trace = res.kurtosis_trace
        assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))
        assert trace[-1] < kurtosis_excess(x.samples)

    def test_white_input_keeps_identity(self):
        s = Signal1D(laplace_signal(34, 100_000))
        res = run_adapt(s, AdaptConfig(taps=3, mu=3e-6, beta=0.999, warmup=2000, passes=2))
        t = normalize_taps(res.filter).taps
        assert np.all(np.abs(t[1:]) <= 0.05)

    @given(st.integers(-26, 13), st.sampled_from([1.0, -1.0]))
    @example(480, 1.0)
    @example(-480, -1.0)
    @example(540, -1.0)
    @example(-540, 1.0)
    def test_power_of_two_gain_leaves_taps(self, k, sign):
        # the update is gain-invariant and a power of two scales exactly,
        # so the only way a gain can show is through the moment guard
        res = run_adapt(Signal1D(sign * np.ldexp(ar2_observation(), k)), GAIN_CFG)
        assert np.array_equal(res.filter.taps, unit_gain_result().filter.taps)
        assert res.kurtosis_trace == unit_gain_result().kurtosis_trace

    def test_quiet_input_adapts(self):
        # at gain 1e-5 the output power sits under M2_GUARD; unscaled, no
        # update would be applied and the identity taps came back
        res = run_adapt(Signal1D(1e-5 * ar2_observation()), GAIN_CFG)
        ref = unit_gain_result().filter.taps
        assert np.max(np.abs(ref[1:] / ref[0])) > 0.3
        assert np.max(np.abs(res.filter.taps - ref)) <= 1e-9

    def test_positive_scaling_leaves_kurtosis(self):
        x = laplace_signal(35, 20_000)
        cfg = AdaptConfig(taps=3, mu=1e-5, beta=0.99, warmup=256, passes=2)
        k1 = run_adapt(Signal1D(x), cfg).final_kurtosis
        k2 = run_adapt(Signal1D(3.7 * x), cfg).final_kurtosis
        assert k2 == pytest.approx(k1, abs=1e-3)

    def test_online_direction_matches_batch_gradient(self):
        # frozen taps, EWMA moments in their converged regime
        x1 = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), Signal1D(laplace_signal(3, 100_000))).samples
        h = np.array([1.0, -0.3, -0.1])
        n = x1.size
        wins = np.zeros((n, 3))
        for k in range(3):
            wins[k:, k] = x1[: n - k]
        y = wins @ h
        want = batch_gradient(y, wins)
        beta, omb = 0.999, 0.001
        m2 = float((y[:2000] ** 2).mean())
        m4 = float((y[:2000] ** 4).mean())
        acc = np.zeros(3)
        for i in range(2000, n):
            yi = y[i]
            y2 = yi * yi
            m2 = beta * m2 + omb * y2
            m4 = beta * m4 + omb * y2 * y2
            acc += (4.0 * ((m2 * y2 - m4) * yi) / m2**3) * wins[i]
        avg = acc / (n - 2000)
        assert np.linalg.norm(avg - want) / np.linalg.norm(want) <= 0.10


def outcome(x, cfg):
    """Taps and trace of run_adapt, or the (pass, sample) it diverged at."""
    try:
        res = run_adapt(x, cfg)
    except DivergenceError as exc:
        return exc.pass_index, exc.sample_index
    return res.filter.taps, res.kurtosis_trace


class TestEngines:
    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_compiled_kernel_in_use(self):
        # a broken build must not fall back to the Python loop unnoticed
        assert _native.library() is not None

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    @given(
        st.integers(1, 32),
        # step sizes that adapt, and ones that exceed the tap limit or
        # overflow the update to inf or NaN
        st.floats(-7.0, -2.0) | st.floats(6.0, 308.0),
        st.sampled_from([1.0, -1.0]),
        st.floats(0.5, 0.999),
        st.integers(0, 64),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @example(4, 308.0, 1.0, 0.99, 0, 1, 0)
    def test_compiled_and_python_cores_agree(self, taps, log_mu, sign, beta, warmup, passes, seed):
        x = Signal1D(laplace_signal(seed, 300))
        cfg = AdaptConfig(taps=taps, mu=sign * 10.0**log_mu, beta=beta, warmup=warmup, passes=passes)
        compiled = outcome(x, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "_LIBRARY", None)
            python = outcome(x, cfg)
        if isinstance(compiled[0], int):
            assert python == compiled
        else:
            assert np.array_equal(compiled[0], python[0])
            assert compiled[1] == python[1]

    @given(
        st.integers(1, 12),
        st.integers(0, 40),
        st.integers(1, 3),
        st.floats(0.05, 0.999),
        # step sizes that adapt, and ones that exceed the tap limit
        st.floats(-7.0, -2.0) | st.floats(6.0, 12.0),
        st.sampled_from([1.0, -1.0]),
        st.floats(-3.0, 3.0),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_engines_match_oracle(self, taps, warmup, passes, beta, log_mu, sign, log_gain, seed, data):
        # the engines round as adapt_step does, so they match it bit for bit
        # and diverge at the same (pass, sample); without a compiler both
        # runs take the Python pass
        n = data.draw(st.integers(warmup + taps + 1, 300))
        x = 10.0**log_gain * laplace_signal(seed, n)
        cfg = AdaptConfig(taps=taps, mu=sign * 10.0**log_mu, beta=beta, warmup=warmup, passes=passes)
        want, first = oracle_taps(x, cfg)
        engines = [outcome(Signal1D(x), cfg)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "_LIBRARY", None)
            engines.append(outcome(Signal1D(x), cfg))
        for got in engines:
            if first is None:
                assert np.array_equal(got[0], want)
            else:
                assert isinstance(got[0], int) and got == first

    @staticmethod
    def passes_agree(X, h, m, mu, beta, warmup, limit=TAP_LIMIT):
        """The row, taps and moments one compiled adapt_pass over the rows
        of X leaves from h and m, asserted equal to those of _python_pass
        (NaN equal to NaN). X is fed as a walk of width 1 and stride k."""
        assert _native.library() is not None
        walk = (X.ravel(), np.arange(X.shape[1]), 1, X.shape[1], X.shape[0])
        runs = []
        for run in (_native.adapt_pass, _native._python_pass):
            taps, moments = h.copy(), m.copy()
            runs.append((run(*walk, taps, moments, mu, beta, warmup, M2_GUARD, limit), taps, moments))
        (row, taps, moments), (want_row, want_taps, want_moments) = runs
        assert row == want_row
        assert np.array_equal(taps, want_taps, equal_nan=True)
        assert np.array_equal(moments, want_moments, equal_nan=True)
        return row, taps, moments

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_norm_over_limit_with_every_tap_under_it_runs_on(self):
        # |h|_2 = 2e6 trips the sum-of-squares screen on every row, and the
        # exact per-tap test clears it; every row updates, the last one too
        h = np.full(100, 2e5)
        X = 1e-3 * np.random.default_rng(71).laplace(size=(50, 100))
        row, taps, _ = self.passes_agree(X, h, np.array([1.0, 3.0]), 1e3, 0.9, 0)
        assert row == -1
        assert np.linalg.norm(taps) > TAP_LIMIT and not np.array_equal(taps, h)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    @pytest.mark.parametrize("row, spike, warmup, limit", [
        pytest.param(5, 5.0, 0, 10.0, id="last-row"),
        pytest.param(2, 5.0, 2, 10.0, id="first-updated-row"),
        # y = 1e100 makes m4 infinite and the update NaN: no tap exceeds
        # the limit, but the NaN taps must still stop the pass
        pytest.param(4, 1e100, 0, TAP_LIMIT, id="nan-taps"),
    ])
    def test_divergence_names_the_row_that_updated(self, row, spike, warmup, limit):
        X = 0.1 * np.random.default_rng(72).laplace(size=(6, 3))
        X[row, 0] = spike
        got, taps, _ = self.passes_agree(X, np.array([1.0, 0.0, 0.0]), np.array([1.0, 3.0]), 1.0, 0.99, warmup, limit)
        assert got == row and not np.all(np.abs(taps) <= limit)


# A 4-row walk over 12 elements whose last row reads P[9:12], and one
# change per case that takes it outside P or breaks its types.
BAD_WALKS = {
    "P-float32": lambda w: dict(w, P=w["P"].astype(np.float32)),
    "P-strided": lambda w: dict(w, P=np.repeat(w["P"], 2)[::2]),
    "h-float32": lambda w: dict(w, h=w["h"].astype(np.float32)),
    "h-strided": lambda w: dict(w, h=np.repeat(w["h"], 2)[::2]),
    "m-short": lambda w: dict(w, m=w["m"][:1]),
    "off-int32": lambda w: dict(w, off=w["off"].astype(np.int32)),
    "off-reversed-view": lambda w: dict(w, off=np.arange(3)[::-1]),
    "off-short": lambda w: dict(w, off=np.arange(2)),
    "off-negative": lambda w: dict(w, off=np.array([-1, 0, 1])),
    "width-zero": lambda w: dict(w, width=0),
    "width-over-stride": lambda w: dict(w, width=4),
    "one-past-the-end": lambda w: dict(w, off=np.array([0, 1, 3])),
    "row-past-the-end": lambda w: dict(w, n=5),
}


class TestWalkGuard:
    @staticmethod
    def walk():
        return dict(P=np.arange(1.0, 13.0), off=np.arange(3), width=1, stride=3, n=4, h=np.array([1.0, 0.0, 0.0]), m=np.array([1.0, 3.0]))

    @staticmethod
    def run(w):
        return _native.adapt_pass(w["P"], w["off"], w["width"], w["stride"], w["n"], w["h"], w["m"], 1e-3, 0.9, 0, M2_GUARD, TAP_LIMIT)

    @pytest.fixture(params=["compiled", "python"])
    def core(self, request):
        if request.param == "python":
            request.getfixturevalue("python_core")

    def test_walk_inside_P_runs(self, core):
        w = self.walk()
        assert self.run(w) == -1 and not np.array_equal(w["h"], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("case", BAD_WALKS)
    def test_walk_outside_P_or_mistyped_is_rejected(self, core, case):
        w = BAD_WALKS[case](self.walk())
        h, m = w["h"].copy(), w["m"].copy()
        with pytest.raises(ContractViolationError):
            self.run(w)
        assert np.array_equal(w["h"], h) and np.array_equal(w["m"], m)


class TestKernelBuild:
    @pytest.fixture
    def source(self, tmp_path, monkeypatch):
        """A copy of the kernel source, so builds land in tmp_path."""
        path = tmp_path / "_adapt.c"
        path.write_bytes(_native._SOURCE.read_bytes())
        monkeypatch.setattr(_native, "_SOURCE", path)
        return path

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_built_once_then_loaded_from_cache(self, source, monkeypatch):
        assert _native._load_library() is not None
        built = list((source.parent / "__pycache__").iterdir())
        assert len(built) == 1 and built[0].name.startswith("_adapt-") and built[0].suffix == ".so"

        def no_compile(*args, **kwargs):
            raise AssertionError("the cached kernel was rebuilt")

        monkeypatch.setattr(_native.subprocess, "run", no_compile)
        assert _native._load_library() is not None

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_compiles_without_warnings(self, source):
        flags = (*_native._CFLAGS, "-Wall", "-Wextra", "-Werror")
        build = subprocess.run(["cc", *flags, "-o", str(source.with_suffix(".so")), str(source)], capture_output=True, text=True)
        assert build.returncode == 0, build.stderr

    def test_no_compiler_falls_back(self, source, monkeypatch):
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        assert _native._load_library() is None
        assert not (source.parent / "__pycache__").exists()

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_failed_build_falls_back(self, source):
        source.write_text("not C\n")
        assert _native._load_library() is None
        assert list((source.parent / "__pycache__").iterdir()) == []


class TestKurtosisSurface:
    def test_argmax_at_true_parameters(self):
        s = Signal1D(laplace_signal(36, 100_000))
        x = apply_degradation(DegradeSpec("ar2_iir", 0.6, -0.3), s)
        grid = np.linspace(-1.0, 1.0, 41)
        result = kurtosis_surface(x, grid, grid)
        assert result.argmax[0] == pytest.approx(0.6, abs=0.05 + 1e-9)
        assert result.argmax[1] == pytest.approx(-0.3, abs=0.05 + 1e-9)

    def test_white_input_argmax_at_origin(self):
        s = Signal1D(laplace_signal(37, 100_000))
        grid = np.linspace(-0.5, 0.5, 21)
        result = kurtosis_surface(s, grid, grid)
        assert abs(result.argmax[0]) <= 0.05 + 1e-9
        assert abs(result.argmax[1]) <= 0.05 + 1e-9

    def test_true_cell_beats_origin(self):
        s = Signal1D(laplace_signal(38, 50_000))
        x = apply_degradation(DegradeSpec("ar2_iir", 0.5, 0.4), s)
        grid = np.array([0.0, 0.5])
        grid2 = np.array([0.0, 0.4])
        surf = kurtosis_surface(x, grid, grid2).surface
        assert surf[1, 1] >= surf[0, 0]

    def test_matches_direct_evaluation(self):
        x = apply_degradation(DegradeSpec("ar2_iir", 0.5, 0.4), Signal1D(laplace_signal(39, 20_000)))
        surf = kurtosis_surface(x, np.array([0.5]), np.array([0.4])).surface
        direct = abs(kurtosis_excess(lfilter([1.0, -0.5, -0.4], [1.0], x.samples)))
        assert surf[0, 0] == pytest.approx(direct, abs=1e-12)

    def test_image_rejected(self):
        with pytest.raises(ContractViolationError):
            kurtosis_surface(Image2D(np.random.default_rng(0).random((8, 8))), [0.1], [0.2])

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractViolationError):
            kurtosis_surface(Signal1D(np.ones(10)), [], [0.1])

    @settings(max_examples=300)
    @given(
        st.integers(3, 400),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["laplace", "uniform"]),
        st.sampled_from(["white", "cumsum", "ar2"]),
        st.floats(-5.0, 5.0),
        st.sampled_from([0.0]) | st.floats(-10.0, 10.0),
        st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=5),
        st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=5),
    )
    @example(500, 3, "laplace", "white", 0.0, 0.0, [-1e200, 0.5, 3e250], [1e220, -0.25])
    def test_closed_form_matches_direct(self, n, seed, kind, shape, log_gain, dc, grid_a1, grid_a2):
        rng = np.random.default_rng(seed)
        x = rng.laplace(size=n) if kind == "laplace" else rng.uniform(-1.0, 1.0, n)
        if shape == "cumsum":
            x = np.cumsum(x)
        elif shape == "ar2":
            x = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), Signal1D(x)).samples
        self.assert_matches_direct(10.0**log_gain * (x + dc), grid_a1, grid_a2)

    @staticmethod
    def assert_matches_direct(x, grid_a1, grid_a2):
        """Assert kurtosis_surface agrees with direct_surface; returns the latter."""
        direct = direct_surface(x, grid_a1, grid_a2)
        try:
            surf = kurtosis_surface(Signal1D(x), grid_a1, grid_a2).surface
        except DegenerateInputError:
            assert np.all(np.isnan(direct))
            return direct
        assert np.array_equal(np.isnan(surf), np.isnan(direct))
        assert np.nanmax(np.abs(surf - direct) / np.fmax(1.0, direct), initial=0.0) <= 1e-12
        return direct

    def test_filtered_to_constant_is_nan(self):
        # (a1, a2) = (-1, -1) turns [1, 0, 0] into [1, 1, 1]: the closed
        # form's v is rounding noise there, not zero, and must still be NaN
        grid = [-1.0, 0.0, 1.0]
        self.assert_matches_direct(np.array([1.0, 0.0, 0.0]), grid, grid)
        surf = kurtosis_surface(Signal1D(np.array([1.0, 0.0, 0.0])), grid, grid).surface
        assert np.isnan(surf[0, 0]) and np.count_nonzero(np.isnan(surf)) == 1

    def test_constant_input_nan_only_at_origin(self):
        grid = [-1.0, 0.0, 0.5]
        x = np.full(64, 2.5)
        self.assert_matches_direct(x, grid, grid)
        nan = np.isnan(kurtosis_surface(Signal1D(x), grid, grid).surface)
        assert nan[1, 1] and np.count_nonzero(nan) == 1

    def test_unwhitened_observation_same_argmax(self):
        # integrated Laplace through AR(2), unwhitened: the columns nearly
        # cancel, which is where expanding raw moments loses accuracy
        spec = SourceSpec(kind="integrated_laplace", seed=105, length=100_000)
        x = apply_degradation(DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3), make_source(spec)).samples
        grid = np.linspace(-1.0, 1.0, 41)
        direct = self.assert_matches_direct(x, grid, grid)
        i, j = np.unravel_index(np.nanargmax(direct), direct.shape)
        assert kurtosis_surface(Signal1D(x), grid, grid).argmax == (grid[i], grid[j])

    def test_memory_is_four_rows_of_samples(self):
        # every O(N) array of the factorization and the fourth moments lives
        # in Q (3 rows of N) or in one scratch array of N samples; 64 KiB
        # covers the small arrays
        n = 100_000
        x = Signal1D(laplace_signal(40, n))
        grid = np.linspace(-1.0, 1.0, 41)
        tracemalloc.start()
        try:
            kurtosis_surface(x, grid, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n + 64 * 1024

    @pytest.mark.parametrize("k", [-540, 540])
    def test_power_of_two_gain_leaves_surface(self, k):
        grid = np.linspace(-1.0, 1.0, 9)
        x = ar2_observation()
        want = kurtosis_surface(Signal1D(x), grid, grid)
        got = kurtosis_surface(Signal1D(np.ldexp(x, k)), grid, grid)
        assert np.array_equal(got.surface, want.surface)
        assert got.argmax == want.argmax


def test_result_output_matches_filter(rng):
    x = Signal1D(rng.standard_normal(3000))
    res = run_adapt(x, AdaptConfig(taps=3, mu=1e-5, warmup=128, passes=1))
    want = lfilter(res.filter.taps, [1.0], x.samples)
    assert np.array_equal(res.output.samples, want)
    assert res.final_kurtosis == res.kurtosis_trace[-1]


def test_result_output_keeps_sample_rate(rng):
    x = Signal1D(rng.standard_normal(1000), sample_rate=16000)
    assert run_adapt(x, AdaptConfig(warmup=64)).output.sample_rate == 16000
