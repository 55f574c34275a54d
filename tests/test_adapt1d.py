import ctypes
import functools
import hashlib
import itertools
import os
import re
import shutil
import subprocess
import sys
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
from kurtdeconv.signals import _peak_shift, _walk
from conftest import (AHEAD_BELOW, MomentState, adapt_step, batch_gradient, direct_adapt, direct_surface, feedback, fir, fir_rounding,
                      laplace_signal, oracle_adapt, rms_shift, warmup_moments, window)


def oracle_taps(x, cfg):
    """oracle_adapt over the tap windows of sample array x, divided as in
    run_adapt by the power of two nearest its RMS."""
    x = np.ldexp(x, -rms_shift(x))
    windows = [window(x, n, cfg.taps) for n in range(x.size)]
    return oracle_adapt(windows, np.eye(1, cfg.taps)[0], warmup_moments(x[: cfg.warmup]), cfg)[:2]


class TestAdaptStep:
    def test_zero_mu_freezes_taps(self):
        h = np.array([1.0, -0.5])
        y, h2, _ = adapt_step(h, MomentState(1.0, 1.0, 0.9), np.array([2.0, 1.0]), 0.0)
        assert y == 1.5 and h2.tolist() == h.tolist()

    def test_zero_window(self):
        h = np.array([1.0, 0.0])
        y, h2, state2 = adapt_step(h, MomentState(1.0, 1.0, 0.9), np.zeros(2), 0.1)
        assert y == 0.0 and h2.tolist() == h.tolist()
        assert state2.m2 == pytest.approx(0.9)

    def test_hand_arithmetic_chain(self):
        # y = 2; moments advance to (1.03, 1.15); then Eq.-6-style feedback
        h = np.array([1.0, 0.0])
        window = np.array([2.0, 1.0])
        state = MomentState(1.0, 1.0, 0.99)
        mu = 1e-3
        y, h2, state2 = adapt_step(h, state, window, mu)
        assert y == 2.0
        assert state2.m2 == pytest.approx(1.03, abs=1e-12)
        assert state2.m4 == pytest.approx(1.15, abs=1e-12)
        f = 4.0 * ((1.03 * 4.0 - 1.15) * 2.0) / 1.03**3
        assert f == pytest.approx(21.743774, abs=1e-5)
        assert np.allclose(h2, h + mu * f * window, atol=1e-12)

    def test_near_singular_skips_update(self):
        h = np.array([1.0])
        y, h2, state2 = adapt_step(h, MomentState(0.0, 0.0, 1.0), np.array([1e-6]), 0.1)
        assert h2.tolist() == h.tolist()  # guard hit, taps frozen
        assert state2.m2 == 0.0  # beta = 1 freezes the estimate too

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            adapt_step(np.array([1.0, 0.0]), MomentState(1.0, 1.0, 0.9), np.zeros(3), 0.1)


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

    def test_length_rule_comes_before_the_filter_is_built(self, monkeypatch):
        # 10**12 taps would take 7.28 TiB: the length rule refuses them unbuilt
        monkeypatch.setattr(AdaptConfig, "identity", lambda cfg: pytest.fail("run_adapt built the filter"))
        with pytest.raises(DegenerateInputError, match=r"^signal length 100 too short for warmup 256 and 1000000000000 taps$"):
            run_adapt(Signal1D(np.ones(100)), AdaptConfig(taps=10**12))

    def test_divergence_guard_names_location(self):
        # mu large enough that a single update overshoots the tap limit
        # (moderately large mu merely stalls: the m2^3 denominator quenches)
        x = Signal1D(laplace_signal(31, 4000))
        cfg = AdaptConfig(taps=2, mu=1e12, warmup=16, passes=1)
        with pytest.raises(DivergenceError) as exc:
            run_adapt(x, cfg)
        _, first = oracle_taps(x.samples, cfg)
        assert (exc.value.pass_index, exc.value.sample_index) == first

    def test_matches_repeated_adapt_step(self):
        x = Signal1D(laplace_signal(32, 600))
        cfg = AdaptConfig(taps=3, mu=1e-4, beta=0.99, warmup=32, passes=2)
        res = run_adapt(x, cfg)
        want, first = oracle_taps(x.samples, cfg)
        assert first is None
        assert np.array_equal(res.filter.taps, want)

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

    @pytest.mark.parametrize("ratio, adapts", [(0.5, False), (2.0, True)])
    def test_guard_follows_the_input_power_not_the_peak(self, ratio, adapts):
        # a spike 2**10 times the RMS of 2**20 samples, whose power of two
        # nearest the mean square is 1, behind a warm-up of mean square
        # ratio * M2_GUARD: the guard is relative to the input power, so
        # the quieter warm-up is silent and the louder one adapts; relative
        # to the peak power both would be silent
        n, cfg = 2**20, AdaptConfig(taps=2, mu=1e-6, beta=0.99, warmup=64, passes=1)
        x = np.concatenate((np.full(cfg.warmup, np.sqrt(ratio * M2_GUARD)), 2.0**-5.5 * laplace_signal(37, n - cfg.warmup - 1), [2.0**10]))
        assert rms_shift(x) == 0 and x.max() >= 2**10 * np.sqrt(np.mean(x * x)) * (1 - 1e-3)
        if not adapts:
            with pytest.raises(DegenerateInputError, match="warm-up is silent: second moment 5e-09 of the input power"):
                run_adapt(Signal1D(x), cfg)
            return
        taps = run_adapt(Signal1D(x), cfg).filter.taps
        assert np.all(np.isfinite(taps)) and taps[1] != 0.0

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
    @given(
        # below the lanes, in lanes over the offset table, and in runs
        st.integers(1, 40),
        st.integers(0, 40),
        st.integers(1, 3),
        st.floats(0.05, 0.999),
        # step sizes that adapt, and ones that exceed the tap limit or
        # overflow the update to inf or NaN
        st.floats(-7.0, -2.0) | st.floats(6.0, 308.0),
        st.sampled_from([1.0, -1.0]),
        st.floats(-3.0, 3.0),
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
    )
    @example(4, 0, 1, 0.99, 308.0, 1.0, 0.0, 0, 300)
    # no warm-up: the engines start from zero moments, as the oracle does
    @example(3, 0, 2, 0.99, -3.0, 1.0, 0.0, 1, 200)
    # 19 taps: tap 0, then four lanes and a leftover pair over the table;
    # 23 taps the same over runs, and 40 taps runs with no leftover
    @example(19, 5, 2, 0.99, -3.0, 1.0, 0.0, 2, 300)
    @example(23, 5, 2, 0.99, -3.0, 1.0, 0.0, 2, 300)
    @example(40, 0, 1, 0.99, 308.0, 1.0, 0.0, 3, 200)
    def test_engines_match_oracle(self, taps, warmup, passes, beta, log_mu, sign, log_gain, seed, length):
        # the kernel rounds as adapt_step does, so it matches it bit for bit
        # and diverges at the same (pass, sample)
        x = 10.0**log_gain * laplace_signal(seed, max(length, warmup + taps + 1))
        cfg = AdaptConfig(taps=taps, mu=sign * 10.0**log_mu, beta=beta, warmup=warmup, passes=passes)
        want, first = oracle_taps(x, cfg)
        got = outcome(Signal1D(x), cfg)
        if first is None:
            assert np.array_equal(got[0], want)
        else:
            assert isinstance(got[0], int) and got == first

    @given(
        # below AHEAD_BELOW taps, 1-D and 2-D (3 x 3, 1 x N), and from it
        st.integers(1, 19).map(lambda k: (k,)) | st.sampled_from([(3, 3), (1, 1), (1, 5), (1, 19)])
        | st.integers(20, 40).map(lambda k: (k,)) | st.sampled_from([(5, 5), (1, 21), (3, 7)]),
        st.integers(2, 60),
        st.floats(0.5, 0.999),
        st.floats(-6.0, -2.0),
        st.sampled_from([1.0, -1.0]),
        st.floats(-2.0, 2.0),
        st.integers(0, 2**32 - 1),
    )
    @example((3, 3), 60, 0.99, -2.0, -1.0, 0.0, 1)
    @example((16,), 60, 0.9, -2.0, 1.0, 1.0, 2)
    def test_each_row_is_a_step_of_the_direct_recursion(self, shape, rows, beta, log_mu, sign, log_gain, seed):
        # Below AHEAD_BELOW taps the engines form y(r) one row ahead, as
        # p + g c with p = output(h(r-1), w(r)) and c = output(w(r-1), w(r)),
        # where the paper's recursion (direct_adapt, one update at a time)
        # sums y = output(h(r), w(r)). The kernel's state after every row r
        # (its pass over rows 0..r) must be the direct step from its state
        # after row r - 1, to within the rounding of y: the two recursions
        # run the same moments, g and tap update once y is formed, and any
        # difference then evolves as the recursion carries a rounding,
        # which no fixed bound on whole runs would cover. From AHEAD_BELOW
        # taps the step must be the direct one bit for bit.
        #
        # The bound, to first order in u = eps / 2 (the second-order terms
        # are below u K times the first, so twice the first-order bound
        # covers them). With H = sum |h(r) w(r)|, D = sum |h(r) - h(r-1)|
        # |w(r)| and gamma_K = K u, any sum of K products is within gamma_K
        # of its exact value relative to the sum of their magnitudes:
        #   - p within gamma_K (H + D), as |h(r-1)| <= |h(r)| + |h(r) - h(r-1)|;
        #   - g c within (gamma_K + u) D, as |g w(r-1)| <= |h(r) - h(r-1)|
        #     up to a rounding of h(r);
        #   - p + g c within u (H + 2D) of its exact sum;
        #   - h(r) = fl(h(r-1) + fl(g w(r-1))) within u (H + D) of
        #     h(r-1) + g w(r-1), and the direct y within gamma_K H of
        #     h(r)'w(r);
        # so |y_ahead - y_direct| <= E = (2K + 4) u (H + D). Then, with
        # omb = 1 - beta and (a, b) the direct step's moments:
        #   - a within omb ((|y| + E)^2 - y^2) + 4u omb y^2 + 2u a (the
        #     rounding of each side's term and sum), b within omb ((|y| +
        #     E)^4 - y^4) + 8u omb y^4 + 2u b;
        #   - g = 4 mu (a y^3 - b y) / a^3 within 4|mu| (a ((|y| + E)^3 -
        #     |y|^3) + b E) / a^3 from y, |dg/da| da + |dg/db| db from the
        #     moments, and 8u S for each side's rounding of it, S = 4|mu y|
        #     (a y^2 + b) / a^3 (its terms' magnitude);
        #   - each new tap within dg |w_j| + 2u (|h_j| + 2 |g w_j|).
        # a signal of rows + K samples, or an image N + 3 pixels wide
        size = (shape[0] + rows // (shape[1] + 3), shape[1] + 3) if len(shape) == 2 else rows + shape[0]
        values = 10.0**log_gain * np.random.default_rng(seed).laplace(size=size)
        P, off, width, stride, n = _walk(values, shape)
        P, k, u = P.copy(), off.size, np.finfo(np.float64).eps / 2
        X = P[walk_reads(P.size, off, width, stride, n)]
        h0 = np.eye(1, k, k // 2 if len(shape) == 2 else 0)[0]
        m0 = np.array(warmup_moments(values.ravel()))
        mu, omb = sign * 10.0**log_mu, 1.0 - beta
        before, h, m = h0, h0, m0
        for r in range(n):
            taps, moments = h0.copy(), m0.copy()
            assert _native.adapt_pass(P, off, width, stride, r + 1, taps, moments, mu, beta, 0, M2_GUARD, TAP_LIMIT) == -1
            y, want, state = adapt_step(h, MomentState(*m, beta), X[r], mu)
            a, b = state.m2, state.m4
            if k >= AHEAD_BELOW:
                tap_bound = moment_bound = 0.0
            else:
                E = (2 * k + 4) * u * (np.abs(h) @ np.abs(X[r]) + np.abs(h - before) @ np.abs(X[r]))
                Y = abs(y)
                da = omb * ((Y + E) ** 2 - Y**2) + 4 * u * omb * Y**2 + 2 * u * a
                db = omb * ((Y + E) ** 4 - Y**4) + 8 * u * omb * Y**4 + 2 * u * b
                moment_bound = 2.0 * np.array([da, db])
                tap_bound = 0.0
                if a > M2_GUARD:
                    c = 4.0 * abs(mu) / a**3
                    dg = (c * (a * ((Y + E) ** 3 - Y**3) + b * E) + c * Y * (3 * b + 2 * a * Y**2) / a * da
                          + c * Y * db + 2 * 8 * u * c * Y * (a * Y**2 + b))
                    g = mu * feedback(state, y)
                    tap_bound = 2.0 * (dg * np.abs(X[r]) + 2 * u * (np.abs(h) + 2 * np.abs(g * X[r])))
            assert np.all(np.abs(taps - want) <= tap_bound), (r, taps - want, tap_bound)
            assert np.all(np.abs(moments - [a, b]) <= moment_bound), (r, moments - [a, b], moment_bound)
            before, h, m = h, taps, moments
        if k >= AHEAD_BELOW:
            cfg = AdaptConfig(taps=k, mu=mu, beta=beta, warmup=0, passes=1)
            assert np.array_equal(direct_adapt(X, h0, m0, cfg)[0], h)

    @staticmethod
    def passes_agree(X, h, m, mu, beta, warmup, limit=TAP_LIMIT):
        """The row, taps and moments one adapt_pass over the rows of X
        leaves from h and m, asserted equal to those of oracle_adapt (NaN
        equal to NaN). X is fed as three walks of width 1: with ascending
        offsets, which the kernel reads through its offset table; in the
        1-D layout, each row reversed under descending offsets, which it
        reads as runs from 20 taps; and in the layout of a kernel three
        taps wide, each three taps a line of four elements apart (at 9
        taps, a 3 x 3 kernel's), which it reads through the table. A pass
        that stops must leave what the same pass cut after the row it
        names leaves, where no later row's moments are formed: its
        moments are that row's."""
        k = X.shape[1]
        cfg = AdaptConfig(taps=k, mu=mu, beta=beta, warmup=warmup, passes=1)
        want_taps, first, want_moments = oracle_adapt(X, h, m, cfg, limit)
        lines = np.arange(k) + np.arange(k) // 3
        wide = np.zeros((X.shape[0], lines[-1] + 1))
        wide[:, lines] = X
        walks = ((X.ravel(), np.arange(k), k), (X[:, ::-1].ravel(), np.arange(k)[::-1].copy(), k), (wide.ravel(), lines, wide.shape[1]))
        for P, off, stride in walks:
            for n in (X.shape[0],) if first is None else (X.shape[0], first[1] + 1):
                taps, moments = h.copy(), m.copy()
                row = _native.adapt_pass(P, off, 1, stride, n, taps, moments, mu, beta, warmup, M2_GUARD, limit)
                assert row == (-1 if first is None else first[1])
                assert np.array_equal(taps, want_taps, equal_nan=True)
                assert np.array_equal(moments, want_moments, equal_nan=True)
        return row, taps, moments

    @pytest.mark.parametrize("h", [
        pytest.param(np.full(100, 2e5), id="pairs"),
        pytest.param(np.full(101, 2e5), id="odd-tap"),
        # each lane's squares sum to 6.4e11, under limit^2; the two lanes
        # together reach it
        pytest.param(np.array([0.0, 8e5, 8e5]), id="lanes-together"),
        # 22 taps sum y in four lanes: taps 0, 1, 4, 5, ... into a, 2, 3,
        # 6, 7, ... into c, and the leftover 20 and 21 into a
        pytest.param(8e5 * np.eye(1, 22, 0)[0] + 8e5 * np.eye(1, 22, 5)[0], id="accumulator-a"),
        pytest.param(8e5 * np.eye(1, 22, 2)[0] + 8e5 * np.eye(1, 22, 7)[0], id="accumulator-c"),
        pytest.param(8e5 * np.eye(1, 22, 20)[0] + 8e5 * np.eye(1, 22, 21)[0], id="leftover-pair"),
    ])
    def test_norm_over_limit_with_every_tap_under_it_runs_on(self, h):
        # |h|_2 > limit trips the table's sum-of-squares screen on every
        # row, and the exact per-tap test clears it; every row updates, the
        # last one too. Over runs (the 1-D layout of the 22, 100 and 101 tap
        # ids) the screen is a bound on the largest tap instead: it starts
        # at 2e5 or 8e5, under the limit however large the norm, and the
        # pass must run on just the same.
        X = 1e-3 * np.random.default_rng(71).laplace(size=(50, h.size))
        row, taps, _ = self.passes_agree(X, h, np.array([1.0, 3.0]), 1e3, 0.9, 0)
        assert row == -1
        assert np.linalg.norm(taps) > TAP_LIMIT and not np.array_equal(taps, h)

    @pytest.mark.parametrize("row, spike, warmup, limit", [
        pytest.param(5, 5.0, 0, 10.0, id="last-row"),
        pytest.param(2, 5.0, 2, 10.0, id="first-updated-row"),
        # y = 1e100 makes m4 infinite and the update NaN: no tap exceeds
        # the limit, but the NaN taps must still stop the pass
        pytest.param(4, 1e100, 0, TAP_LIMIT, id="nan-taps"),
    ])
    # the kernel sweeps 5 taps as tap 0 and then two pairs, summed in tap
    # order: the spike and the one unit tap sit in the odd tap, or in lane
    # 0 or 1 of a pair. 23 taps are tap 0 and then four lanes: taps 1, 2,
    # 5, 6, ... into accumulator a, 3, 4, 7, 8, ... into c, and the
    # leftover 21 and 22 into a. Below 20 taps the update that diverges is
    # swept in while the next row's output is formed ahead, after that
    # row's moments: at 3 taps and at a 3 x 3 kernel's 9 (the spike in its
    # centre), the pass must still name the updated row and leave its
    # moments (passes_agree), the last row's update included.
    @pytest.mark.parametrize("k, tap", [
        pytest.param(5, 0, id="odd-tap"),
        pytest.param(5, 1, id="lane-0"),
        pytest.param(5, 4, id="lane-1"),
        pytest.param(23, 6, id="accumulator-a"),
        pytest.param(23, 11, id="accumulator-c"),
        pytest.param(23, 21, id="leftover-pair"),
        pytest.param(3, 0, id="3-taps-odd-tap"),
        pytest.param(3, 2, id="3-taps-lane-1"),
        pytest.param(9, 4, id="3x3-centre"),
    ])
    def test_divergence_names_the_row_that_updated(self, row, spike, warmup, limit, k, tap):
        X = 0.1 * np.random.default_rng(72).laplace(size=(6, k))
        X[row, tap] = spike
        got, taps, _ = self.passes_agree(X, np.eye(1, k, tap)[0], np.array([1.0, 3.0]), 1.0, 0.99, warmup, limit)
        assert got == row and not np.all(np.abs(taps) <= limit)

    @pytest.mark.parametrize("k, tap, unit", [
        pytest.param(5, 0, 1, id="odd-tap"),
        pytest.param(5, 3, 0, id="lane-0"),
        pytest.param(5, 2, 0, id="lane-1"),
        # 23 taps run reversed as tap 0, five quads and a leftover pair:
        # taps 8, 7, 6 and 5 fill lanes 0-3 of a quad, and 22 and 21 the pair
        pytest.param(23, 8, 0, id="quad-lane-0"),
        pytest.param(23, 7, 0, id="quad-lane-1"),
        pytest.param(23, 6, 0, id="quad-lane-2"),
        pytest.param(23, 5, 0, id="quad-lane-3"),
        pytest.param(23, 21, 0, id="leftover-pair"),
        pytest.param(3, 0, 1, id="3-taps-odd-tap"),
        pytest.param(3, 1, 0, id="3-taps-lane-0"),
        pytest.param(3, 2, 0, id="3-taps-lane-1"),
        pytest.param(9, 4, 0, id="3x3-centre"),
        pytest.param(9, 8, 4, id="3x3-corner"),
    ])
    def test_one_tap_over_the_limit_stops_the_pass(self, k, tap, unit):
        # the first updated row is small but for one element: that tap's
        # update alone exceeds the limit, so through the table one lane's
        # squares (or the odd tap's square) must trip the screen; over runs
        # (the 23-tap ids in the 1-D layout) the bound on the largest tap,
        # 1 + |g| * 1e4 with 1e4 the largest element, must trip it. Below
        # 20 taps (5, 3 and 9) the screen trips in the sweep that forms row
        # 4's output ahead, after row 4's moments, and the pass must leave
        # row 3's (passes_agree)
        X = 0.1 * np.random.default_rng(75).laplace(size=(6, k))
        X[3, tap] = 1e4
        got, taps, _ = self.passes_agree(X, np.eye(1, k, unit)[0], np.array([1.0, 3.0]), 1.0, 0.99, 3, 10.0)
        assert got == 3 and np.flatnonzero(~(np.abs(taps) <= 10.0)).tolist() == [tap]

    def test_bound_over_limit_with_every_tap_under_it_runs_on(self):
        # over runs, the bound on the largest tap starts at 9 and takes
        # |g| * 1.0 from the one update that moves tap 12, as 1.0 is the
        # largest element: it crosses the limit 10 while every tap stays
        # under it, so the exact test runs, clears, and the pass runs on
        X = 0.01 * np.random.default_rng(77).laplace(size=(5, 24))
        X[3, 12], X[4, 12] = 1.0, 0.0
        row, taps, _ = self.passes_agree(X, np.eye(1, 24)[0] * 9.0, np.array([1.0, 3.0]), 10.0, 0.99, 3, 10.0)
        assert row == -1 and np.all(np.abs(taps) <= 10.0) and 9.0 + abs(taps[12]) > 10.0

    @pytest.mark.parametrize("value, want, k", [
        pytest.param(np.inf, 40, 24, id="inf"),
        pytest.param(np.nan, -1, 24, id="nan"),
        pytest.param(1e4, 40, 24, id="large"),
        pytest.param(np.inf, 40, 3, id="inf-3-taps"),
        pytest.param(np.nan, -1, 3, id="nan-3-taps"),
        pytest.param(1e4, 40, 3, id="large-3-taps"),
        pytest.param(np.inf, -1, 9, id="inf-3x3"),
        pytest.param(np.nan, -1, 9, id="nan-3x3"),
        pytest.param(1e4, 40, 9, id="large-3x3"),
    ])
    def test_element_past_the_first_rows_gives_the_oracle_row(self, value, want, k):
        # the bound's scale is the largest element over every row the pass
        # reads, NaN if one is NaN, so an element far from the first rows
        # counts too. An inf makes row 40's y infinite and its update NaN,
        # which stops the pass there; a NaN makes m2 NaN, so no later row
        # updates and the pass runs to its end; 1e4 takes tap 2 (5 from 9
        # taps) over the limit 10 in row 40's update, which only a scale of
        # at least 1e4 bounds. Below 20 taps these elements enter y(40) as
        # it is formed ahead, p + g c, and row 40's update trips the screen
        # in the sweep of row 41. There an inf enters both p and g c as an
        # infinity: of one sign at 3 taps, so y(40) is infinite as before,
        # but of opposite signs at 9, so y(40) is NaN and, as with a NaN
        # element, no later row updates (h(40)'w(40) would be infinite)
        X = 0.1 * np.random.default_rng(78).laplace(size=(50, k))
        X[40, min(5, k - 1)] = value
        row, _, _ = self.passes_agree(X, np.eye(1, k)[0], np.array([1.0, 3.0]), 1e-2, 0.99, 2, 10.0)
        assert row == want

    def test_nan_in_lane_1_stops_the_pass(self):
        # y = 10 at mu = 1e308 overflows the first update g to inf; tap 2's
        # element of the row is 0, so tap 2 alone, lane 1 of the first
        # pair, is inf * 0 = NaN, and the other taps are infinite
        X = 0.1 * np.random.default_rng(76).laplace(size=(6, 5))
        X[3, [0, 2]] = 10.0, 0.0
        got, taps, _ = self.passes_agree(X, np.eye(1, 5, 0)[0], np.array([1.0, 3.0]), 1e308, 0.99, 3)
        assert got == 3 and np.flatnonzero(np.isnan(taps)).tolist() == [2]

    @pytest.mark.parametrize("k", [1, 2, 4, 15, 16, 17, 18, 19, 20, 21, 22, 23, 201])
    def test_pass_matches_oracle_across_the_lane_threshold(self, k):
        # the lanes' shapes at small K: the odd tap alone (1), the leftover
        # pair alone (2) and one four-tap step (4); then odd and even tap
        # counts below, at and above the one threshold, AHEAD_BELOW = 20,
        # with a leftover pair (15, 18, 19, 22, 23) or none (16, 17, 20,
        # 21, 201). Four rows in twelve are drawn and the rest silent, so
        # m2 falls below the guard and the first drawn row of each twelve
        # is summed with no update held (as row 0 is), the other three in
        # the update sweep.
        X = np.random.default_rng(74).laplace(size=(96, k))
        X[np.arange(96) % 12 >= 4] = 0.0
        row, taps, _ = self.passes_agree(X, np.eye(1, k)[0], np.array([1.0, 3.0]), 1e-2, 0.05, 0)
        assert row == -1 and not np.array_equal(taps, np.eye(1, k)[0])

    def test_nan_moments_hold_the_taps(self):
        # row 2's terms overflow to inf and -inf, so y and then m2 are NaN:
        # no later update passes the guard, and the pass runs to its end
        X = 0.1 * np.random.default_rng(73).laplace(size=(6, 2))
        X[2] = 1e308
        row, taps, moments = self.passes_agree(X, np.array([10.0, -10.0]), np.array([1.0, 3.0]), 1.0, 0.99, 0)
        assert row == -1 and np.all(np.isfinite(taps)) and np.all(np.isnan(moments))


def read_only(a):
    a = a.copy()
    a.flags.writeable = False
    return a


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
    "P-int64": lambda w: dict(w, P=w["P"].astype(np.int64)),
    "P-2d": lambda w: dict(w, P=w["P"].reshape(4, 3)),
    "off-float64": lambda w: dict(w, off=w["off"].astype(np.float64)),
    "h-2d": lambda w: dict(w, off=w["off"].reshape(3, 1), h=w["h"].reshape(3, 1)),
    # no taps: refused before the offsets' extremes are taken
    "h-empty": lambda w: dict(w, off=np.arange(0), h=np.empty(0)),
    "width-negative": lambda w: dict(w, width=-1),
    # two elements a line: the last row, the second of line 3, reads P[12]
    "wide-row-past-the-end": lambda w: dict(w, width=2, n=8),
    # the offsets out of order: the first, not the last, reads P[12]
    "first-tap-past-the-end": lambda w: dict(w, off=np.array([3, 0, 1])),
    "m-long": lambda w: dict(w, m=np.append(w["m"], 0.0)),
    "m-float32": lambda w: dict(w, m=w["m"].astype(np.float32)),
    "m-strided": lambda w: dict(w, m=np.repeat(w["m"], 2)[::2]),
    "m-read-only": lambda w: dict(w, m=read_only(w["m"])),
    "h-read-only": lambda w: dict(w, h=read_only(w["h"])),
    "warmup-negative": lambda w: dict(w, warmup=-1),
}

#: The cases of BAD_WALKS about what only the adaptation pass takes: the
#: moments, the warm-up and taps it writes.
ADAPT_ONLY = {"m-short", "m-long", "m-float32", "m-strided", "m-read-only", "h-read-only", "warmup-negative"}

#: The cases of BAD_WALKS about the taps alone, which the surface moments
#: do not take.
TAPS_ONLY = {"h-float32", "h-strided"}

#: Walks inside P that only the surface moments refuse: they read three
#: offsets, over at least one row.
SURFACE_ONLY = {
    "off-four": lambda w: dict(w, off=np.arange(4), n=3),
    "off-one": lambda w: dict(w, off=np.arange(1)),
    "n-zero": lambda w: dict(w, n=0),
}


def walk_reads(size, off, width, stride, n):
    """The (n, taps) indices the walk (P, off, width, stride, n) reads from
    a P of size elements, computed row by row, or None when it is not a walk
    the guard admits: 1 <= width <= stride and every index inside P."""
    if not 1 <= width <= stride:
        return None
    r = np.arange(n)[:, None]
    reads = (r // width) * stride + r % width + np.asarray(off)[None, :]
    return reads if reads.min() >= 0 and reads.max() < size else None


@st.composite
def walks(draw):
    """A walk over arange(1, size + 1), some outside it: widths, strides
    and offsets may be zero or negative, and rows may run past P's end.
    Half are drawn as walks of whole or part lines whose last read is P's
    last element, the one before it or one past P's end, so that many are
    inside P. Widths reach two
    8-row blocks of the filter and a row over, and up to 7 taps make an
    odd tap and pairs of the adaptation's sweep."""
    k = draw(st.integers(1, 7))
    h = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    if draw(st.booleans()):
        off = np.array(draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)), dtype=np.intp)
        width = draw(st.integers(1, 17))
        stride = draw(st.integers(width, width + 2))
        n = draw(st.integers(1, 3).map(lambda lines: lines * width) | st.integers(1, 3 * width))
        size = (n - 1) // width * stride + (n - 1) % width + off.max() + draw(st.sampled_from([1, 1, 2, 0]))
    else:
        size = draw(st.integers(1, 80))
        off = np.array(draw(st.lists(st.integers(-1, 6), min_size=k, max_size=k)), dtype=np.intp)
        width, stride, n = draw(st.integers(-1, 17)), draw(st.integers(-1, 18)), draw(st.integers(1, 40))
    return dict(P=np.arange(1.0, size + 1.0), off=off, width=width, stride=stride, n=n, h=h, m=np.array([1.0, 3.0]), warmup=0)


def surface_forms(R, G, sums, w):
    """The output energy v'Gv and fourth-power sum of each column of w,
    read off surface_moments' (R, G, sums) as kurtosis_surface reads them,
    with v = R w."""
    v = R @ w
    index = {t: i for i, t in enumerate(itertools.combinations_with_replacement(range(3), 4))}
    fourth = sum(sums[index[tuple(sorted(t))]] * v[t[0]] * v[t[1]] * v[t[2]] * v[t[3]] for t in itertools.product(range(3), repeat=4))
    return np.einsum("pc,pq,qc->c", v, G, v), fourth


def centred_basis(rows):
    """The centred difference basis of the (n, 3) walk rows: the columns
    w0, w0 - w1 and (w0 - w1) - (w1 - w2), less their means."""
    d = rows[:, 0] - rows[:, 1]
    c = np.stack((rows[:, 0], d, d - (rows[:, 1] - rows[:, 2])))
    return c - c.mean(axis=1, keepdims=True)


class TestWalkGuard:
    @staticmethod
    def walk():
        return dict(P=np.arange(1.0, 13.0), off=np.arange(3), width=1, stride=3, n=4, h=np.array([1.0, 0.0, 0.0]), m=np.array([1.0, 3.0]), warmup=0)

    @staticmethod
    def run(w):
        return _native.adapt_pass(w["P"], w["off"], w["width"], w["stride"], w["n"], w["h"], w["m"], 1e-3, 0.9, w["warmup"], M2_GUARD, TAP_LIMIT)

    def test_walk_inside_P_runs(self):
        w = self.walk()
        assert self.run(w) == -1 and not np.array_equal(w["h"], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("case", BAD_WALKS)
    def test_walk_outside_P_or_mistyped_is_rejected(self, case):
        w = BAD_WALKS[case](self.walk())
        h, m = w["h"].copy(), w["m"].copy()
        with pytest.raises(ContractViolationError):
            self.run(w)
        assert np.array_equal(w["h"], h) and np.array_equal(w["m"], m)

    @staticmethod
    def filter(w):
        return _native.filter_walk(w["P"], w["off"], w["width"], w["stride"], w["n"], w["h"])

    def test_filter_over_walk_inside_P(self):
        w = dict(self.walk(), h=np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(self.filter(w), [14.0, 32.0, 50.0, 68.0])

    @pytest.mark.parametrize("case", [*(c for c in BAD_WALKS if c not in ADAPT_ONLY), "part-line"])
    def test_filter_over_walk_outside_P_or_mistyped_is_rejected(self, case):
        # the filter also needs whole lines
        w = dict(self.walk(), width=3) if case == "part-line" else BAD_WALKS[case](self.walk())
        with pytest.raises(ContractViolationError):
            self.filter(w)

    @staticmethod
    def moments(w):
        return _native.surface_moments(w["P"], w["off"], w["width"], w["stride"], w["n"])

    @pytest.mark.parametrize("case", [*(c for c in BAD_WALKS if c not in ADAPT_ONLY | TAPS_ONLY), *SURFACE_ONLY])
    def test_surface_moments_over_walk_outside_P_or_mistyped_is_rejected(self, case):
        w = (SURFACE_ONLY.get(case) or BAD_WALKS[case])(self.walk())
        with pytest.raises(ContractViolationError):
            self.moments(w)

    def test_read_only_walk_is_read(self):
        # no kernel writes P or the offsets, nor the filter its taps
        w, fixed = self.walk(), self.walk()
        fixed.update(P=read_only(w["P"]), off=read_only(w["off"]))
        assert self.run(fixed) == self.run(w) == -1
        assert np.array_equal(fixed["h"], w["h"]) and np.array_equal(fixed["m"], w["m"])
        h = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(self.filter(dict(fixed, h=read_only(h))), [14.0, 32.0, 50.0, 68.0])
        for got, want in zip(self.moments(fixed), self.moments(self.walk())):
            assert np.array_equal(got, want)

    @given(walks())
    @example(dict(P=np.arange(1.0, 13.0), off=np.arange(3), width=2, stride=4, n=6, h=np.ones(3), m=np.ones(2), warmup=0))
    @example(dict(P=np.arange(1.0, 43.0), off=np.array([6, 0, 5, 1, 4, 2, 3]), width=17, stride=18, n=34, h=np.linspace(-1.3, 1.7, 7), m=np.ones(2), warmup=0))
    def test_filter_guard_is_the_walk_bounds(self, w):
        # admitted exactly when every read is inside P and the rows are
        # whole lines; then the sum over the taps in order, from 0.0
        reads = walk_reads(w["P"].size, w["off"], w["width"], w["stride"], w["n"])
        if reads is None or w["n"] % w["width"]:
            with pytest.raises(ContractViolationError):
                self.filter(w)
            return
        want = np.zeros(w["n"])
        for j, tap in enumerate(w["h"]):
            want = want + tap * w["P"][reads[:, j]]
        assert np.array_equal(self.filter(w), want)

    @given(walks())
    @example(dict(P=np.arange(1.0, 13.0), off=np.arange(3), width=2, stride=4, n=5, h=np.ones(3), m=np.ones(2), warmup=0))
    @example(dict(P=np.arange(1.0, 43.0), off=np.array([6, 0, 5, 1, 4, 2, 3]), width=17, stride=18, n=30, h=np.linspace(-1.3, 1.7, 7), m=np.ones(2), warmup=0))
    def test_adapt_guard_is_the_walk_bounds(self, w):
        # admitted exactly when every read is inside P, part lines too;
        # then each row is the regressor the oracle adapts on
        reads = walk_reads(w["P"].size, w["off"], w["width"], w["stride"], w["n"])
        h, m = w["h"].copy(), w["m"].copy()
        if reads is None:
            with pytest.raises(ContractViolationError):
                self.run(w)
            assert np.array_equal(w["h"], h) and np.array_equal(w["m"], m)
            return
        row = self.run(w)
        want_h, first, want_m = oracle_adapt(w["P"][reads], h, m, AdaptConfig(taps=h.size, mu=1e-3, beta=0.9, warmup=0, passes=1))
        assert row == (-1 if first is None else first[1])
        assert np.array_equal(w["h"], want_h) and np.array_equal(w["m"], want_m)

    @settings(max_examples=200)
    @given(walks(), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    @example(dict(P=np.arange(1.0, 13.0), off=np.arange(3), width=2, stride=4, n=5, h=np.ones(3), m=np.ones(2), warmup=0), [1.0, -0.5, 0.25])
    @example(dict(P=np.arange(1.0, 13.0), off=np.arange(3), width=1, stride=3, n=4, h=np.ones(3), m=np.ones(2), warmup=0), [1.0, -0.5, 0.25])
    def test_surface_moments_guard_is_the_walk_bounds(self, w, weights):
        # admitted exactly when three offsets read inside P over at least
        # one row, odd rows and part lines included; then v'Gv and the
        # quartic form are the energy and fourth-power sum of the centred
        # outputs w'c, as kurtosis_surface reads them
        reads = walk_reads(w["P"].size, w["off"], w["width"], w["stride"], w["n"])
        if reads is None or reads.shape[1] != 3:
            with pytest.raises(ContractViolationError):
                self.moments(w)
            return
        c = centred_basis(w["P"][reads])
        y = np.array(weights) @ c
        energy, fourth = surface_forms(*self.moments(w), np.array(weights)[:, None])
        scale = np.abs(weights) @ np.abs(c) + 1.0
        assert abs(energy[0] - y @ y) <= 1e-9 * (scale @ scale)
        assert abs(fourth[0] - np.sum(y**4)) <= 1e-9 * np.sum(scale**4)


class TestSurfaceMoments:
    @staticmethod
    def moments(x):
        return _native.surface_moments(*_walk(x, (3,), _peak_shift(x)))

    @pytest.mark.parametrize("shape", ["white", "cumsum", "ar2"])
    def test_factor_whitens_the_centred_basis(self, shape):
        # R'R is the centred Gram, G the Gram of q = R^-T c (so nearly the
        # identity) and the sums the fourth moments of q
        x = np.random.default_rng(74).laplace(size=5000)
        if shape == "cumsum":
            x = np.cumsum(x)
        elif shape == "ar2":
            x = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), Signal1D(x)).samples
        R, G, sums = self.moments(x)
        scaled = np.ldexp(x, -_peak_shift(x))
        c = centred_basis(np.stack((scaled, np.r_[0.0, scaled[:-1]], np.r_[0.0, 0.0, scaled[:-2]]), axis=1))
        assert np.array_equal(R, np.triu(R)) and np.all(np.diag(R) > 0.0)
        assert np.allclose(R.T @ R, c @ c.T, rtol=0.0, atol=1e-12 * np.abs(c @ c.T).max())
        q = np.linalg.solve(R.T, c)
        assert np.allclose(G, np.eye(3), rtol=0.0, atol=1e-9)
        assert np.allclose(G, q @ q.T, rtol=0.0, atol=1e-9)
        want = [np.sum(q[a] * q[b] * q[c_] * q[d]) for a, b, c_, d in itertools.combinations_with_replacement(range(3), 4)]
        assert np.allclose(sums, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))

    def test_vanished_pivot_zeroes_its_row(self):
        # a constant input centres to zero: the first pivot is zero, so the
        # first row of R and the whitened first row are zero
        R, G, sums = self.moments(np.full(50, 2.5))
        assert np.all(R[0] == 0.0) and np.all(G[0] == 0.0) and np.all(G[:, 0] == 0.0)
        with_zero = [i for i, t in enumerate(itertools.combinations_with_replacement(range(3), 4)) if 0 in t]
        assert np.all(sums[with_zero] == 0.0) and R[1, 1] > 0.0 and R[2, 2] > 0.0


#: The ctypes type of each scalar C type in the kernels' signatures.
C_SCALARS = {"double": ctypes.c_double, "ptrdiff_t": ctypes.c_ssize_t}

#: Each way the library can fail to build: no cc on PATH, a source that is
#: not C, and a cache that cannot be written (a regular file where the
#: __pycache__ directory goes; the tests may run as root, so no chmod).
UNBUILDABLE = {
    "no-cc": lambda source, mp: mp.setattr(_native.shutil, "which", lambda name: None),
    "not-c": lambda source, mp: source.write_text("not C\n"),
    "cache-not-a-directory": lambda source, mp: (source.parent / "__pycache__").write_text(""),
}


class TestKernelBuild:
    @pytest.fixture
    def source(self, tmp_path, monkeypatch):
        """A copy of the kernel source, so builds land in tmp_path."""
        path = tmp_path / "_adapt.c"
        path.write_bytes(_native._SOURCE.read_bytes())
        monkeypatch.setattr(_native, "_SOURCE", path)
        return path

    def test_built_once_then_loaded_from_cache(self, source, monkeypatch):
        assert isinstance(_native._load_library(), ctypes.CDLL)
        cache = source.parent / "__pycache__"
        built = list(cache.iterdir())
        assert len(built) == 1 and built[0].name.startswith("_adapt-") and built[0].suffix == ".so"

        def no_compile(*args, **kwargs):
            raise AssertionError("the cached kernel was rebuilt")

        compile_ = _native.subprocess.run
        monkeypatch.setattr(_native.subprocess, "run", no_compile)
        assert isinstance(_native._load_library(), ctypes.CDLL)

        # a changed source is built anew, and its library replaces the old
        # one; a concurrent builder's tmp file is left to that builder
        monkeypatch.setattr(_native.subprocess, "run", compile_)
        source.write_bytes(source.read_bytes() + b"\n/* changed */\n")
        busy = cache / f"{built[0].name}.1.tmp"
        busy.write_bytes(b"")
        assert isinstance(_native._load_library(), ctypes.CDLL)
        tag = hashlib.sha256(source.read_bytes() + " ".join(_native._CFLAGS).encode()).hexdigest()[:16]
        assert {p.name for p in cache.iterdir()} == {f"_adapt-{tag}.so", busy.name} and built[0].name != f"_adapt-{tag}.so"

    @pytest.mark.parametrize("case", UNBUILDABLE)
    def test_unbuildable_library_is_an_import_error(self, source, monkeypatch, case):
        # the package has one engine: without it the import fails, naming
        # the compiler and the library's path, and leaves no partial build
        UNBUILDABLE[case](source, monkeypatch)
        with pytest.raises(ImportError) as exc:
            _native._load_library()
        assert re.search(r"\bcc\b", str(exc.value)) and str(source.parent / "__pycache__" / "_adapt-") in str(exc.value)
        assert not list(source.parent.rglob("*.tmp")) and not list(source.parent.rglob("*.so"))

    def test_flags_keep_every_operation(self):
        # the kernels' pairs and quads round lane by lane as their scalar
        # code does only if no multiply and add are fused and no sum is
        # reordered: neither by the flags nor by a function's target
        flags = _native._CFLAGS
        assert "-ffp-contract=off" in flags
        assert [f for f in flags if f in ("-ffast-math", "-Ofast", "-mfma") or f.startswith("-march=")] == []
        targets = re.findall(r"(?:__attribute__\s*\(\(\s*target(?:_clones)?|#\s*pragma\s+GCC\s+target)\s*\(([^)]*)\)",
                             _native._SOURCE.read_text())
        options = [o.strip() for t in targets for o in ",".join(re.findall(r'"([^"]*)"', t)).split(",")]
        assert "avx2" in options
        assert [o for o in options if re.fullmatch(r"fma4?|avx512.*|arch=.*", o)] == []

    @pytest.mark.parametrize("k", [23, 201, 5, 9, 19])
    def test_baseline_build_matches_oracle(self, source, monkeypatch, k):
        # built as for a CPU without AVX2, the library reads a 1-D walk
        # through the offset table rather than as runs, and matches the
        # oracle bit for bit as well: on a pass that runs to its end, and
        # on one that a spike in tap k - 2 stops (at 23 taps, a tap of the
        # leftover pair). Below 20 taps it forms each output one row ahead,
        # as the AVX2 build does
        text = source.read_text()
        assert text.count('__builtin_cpu_supports("avx2")') == 1
        source.write_text(text.replace('__builtin_cpu_supports("avx2")', "0"))
        monkeypatch.setattr(_native, "_LIBRARY", _native._load_library())
        X = np.random.default_rng(74).laplace(size=(96, k))
        X[np.arange(96) % 12 >= 4] = 0.0
        row, taps, _ = TestEngines.passes_agree(X, np.eye(1, k)[0], np.array([1.0, 3.0]), 1e-2, 0.05, 0)
        assert row == -1 and not np.array_equal(taps, np.eye(1, k)[0])
        X = 0.1 * np.random.default_rng(72).laplace(size=(6, k))
        X[4, k - 2] = 5.0
        row, _, _ = TestEngines.passes_agree(X, np.eye(1, k, k - 2)[0], np.array([1.0, 3.0]), 1.0, 0.99, 0, 10.0)
        assert row == 4

    def test_baseline_build_filters_as_the_avx2_build(self, source, monkeypatch):
        # built as for a CPU without AVX2, the walk filter sums eight rows a
        # block rather than sixteen, and every output keeps its bits and
        # sign: over line widths around the blocks, for 1, 3 and 201 taps
        # and 3 x 3 and 5 x 5 kernels
        rng = np.random.default_rng(79)
        filters = [rng.laplace(size=shape) for shape in [(1,), (3,), (201,), (3, 3), (5, 5)]]
        cases = [(h, rng.laplace(size=(4, width)) * (rng.random((4, width)) < 0.7)) for width in (1, 15, 16, 17, 31, 33, 256) for h in filters]
        avx2 = [_native.filter_walk(*_walk(values, h.shape), h.ravel()) for h, values in cases]
        text = source.read_text()
        source.write_text(text.replace('__builtin_cpu_supports("avx2")', "0"))
        monkeypatch.setattr(_native, "_LIBRARY", _native._load_library())
        for (h, values), want in zip(cases, avx2):
            got = _native.filter_walk(*_walk(values, h.shape), h.ravel())
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), (h.shape, values.shape)

    def test_compiles_without_warnings(self, source):
        flags = (*_native._CFLAGS, "-Wall", "-Wextra", "-Werror")
        build = subprocess.run(["cc", *flags, "-o", str(source.with_suffix(".so")), str(source)], capture_output=True, text=True)
        assert build.returncode == 0, build.stderr

    def test_every_kernel_has_its_ctypes_signature(self):
        # ctypes passes the arguments of a function without one as ints,
        # doubles included, and raises nothing
        kernels = re.findall(r"^(?!static\b)(\w+)\s+(kd_\w+)\(([^)]*)\)\s*\{", _native._SOURCE.read_text(), re.M)
        assert {name for _, name, _ in kernels} >= {"kd_adapt_pass", "kd_integrate", "kd_allpole", "kd_image_allpole", "kd_filter_walk", "kd_surface_moments"}
        lib = _native._LIBRARY
        for restype, name, params in kernels:
            argtypes = tuple(ctypes.c_void_p if "*" in p else C_SCALARS[p.split()[-2]] for p in params.split(","))
            assert getattr(lib, name).argtypes == argtypes, name
            assert getattr(lib, name).restype is (None if restype == "void" else C_SCALARS[restype]), name

    def test_no_kernel_loads_untyped(self):
        # every function of _adapt.c that is not static, whatever its
        # signature looks like, has its argtypes set once the library loads
        names = set(re.findall(r"^(?!static\b)[A-Za-z_][^;{}()]*?\b(kd_\w+)\s*\(", _native._SOURCE.read_text(), re.M))
        assert "kd_surface_moments" in names and len(names) == 6
        assert [name for name in sorted(names) if getattr(_native._LIBRARY, name).argtypes is None] == []

    def test_cold_cache_built_once_at_import_by_two_processes(self, tmp_path):
        package = tmp_path / "kurtdeconv"
        package.mkdir()
        for path in [*_native._SOURCE.parent.glob("*.py"), _native._SOURCE]:
            shutil.copy(path, package)
        # the library is a loaded CDLL before any kernel is called
        script = ("from kurtdeconv import _native; import numpy as np; "
                  "print(_native.__file__, type(_native._LIBRARY).__name__, "
                  "_native.allpole(np.linspace(-1.0, 1.0, 50), 1, 0.5, 0.3).tolist(), sep='\\n')")
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        runs = [subprocess.Popen([sys.executable, "-c", script], cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True)
                for _ in range(2)]
        printed = [run.communicate(timeout=120)[0].splitlines() for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        want = str(lfilter([1.0], [1.0, -0.5, -0.3], np.linspace(-1.0, 1.0, 50)).tolist())
        assert printed[0] == printed[1] == [str(package / "_native.py"), "CDLL", want]
        cache = package / "__pycache__"
        assert len(list(cache.glob("_adapt-*.so"))) == 1 and not list(cache.glob("*.tmp"))


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

    @pytest.mark.parametrize("x, grid_a1, error, message", [
        (np.ones(10), [0.1, np.nan], ContractViolationError, "non-finite"),
        (np.ones(10), [-np.inf], ContractViolationError, "non-finite"),
        (np.ones(10), [[0.1, 0.5]], ContractViolationError, "1-D"),
        (np.ones(10), 0.1, ContractViolationError, "1-D"),
        (np.ones(2), [0.1], DegenerateInputError, "at least 3 samples"),
        (np.zeros(10), [0.1, 0.5], DegenerateInputError, "every grid cell"),
    ], ids=["nan_grid", "infinite_grid", "2d_grid", "scalar_grid", "two_samples", "silent"])
    def test_unusable_input_rejected(self, x, grid_a1, error, message):
        with pytest.raises(error, match=message):
            kurtosis_surface(Signal1D(x), grid_a1, [0.2])

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

    def test_memory_is_one_row_of_samples(self):
        # the only O(N) array is the 3-tap walk (N + 2 samples, in scratch
        # slot 0); 64 KiB covers the small arrays and the grid's blocks
        n = 100_000
        x = Signal1D(laplace_signal(40, n))
        grid = np.linspace(-1.0, 1.0, 41)
        tracemalloc.start()
        try:
            kurtosis_surface(x, grid, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n + 2) + 64 * 1024

    def test_argmax_takes_no_second_surface(self):
        # the argmax is taken block by block as the cells are filled, so
        # the surface is the only array of its size: no NaN mask or masked
        # copy of it. Each block is one grid row here (250 cells), whose
        # arrays 64 KiB covers with the walk's small companions
        n = 5_000
        x = Signal1D(laplace_signal(41, n))
        g1, g2 = np.linspace(-1.0, 1.0, 1000), np.linspace(-1.0, 1.0, 250)
        tracemalloc.start()
        try:
            result = kurtosis_surface(x, g1, g2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= result.surface.nbytes + 8 * (n + 2) + 64 * 1024
        i, j = np.unravel_index(np.nanargmax(result.surface), result.surface.shape)
        assert result.argmax == (g1[i], g2[j])

    @pytest.mark.parametrize("k", [-540, 540])
    def test_power_of_two_gain_leaves_surface(self, k):
        grid = np.linspace(-1.0, 1.0, 9)
        x = ar2_observation()
        want = kurtosis_surface(Signal1D(x), grid, grid)
        got = kurtosis_surface(Signal1D(np.ldexp(x, k)), grid, grid)
        assert np.array_equal(got.surface, want.surface)
        assert got.argmax == want.argmax


def test_result_output_matches_filter(rng):
    # the taps summed in order from 0.0, bit for bit; lfilter within rounding
    x = Signal1D(rng.standard_normal(3000))
    res = run_adapt(x, AdaptConfig(taps=3, mu=1e-5, warmup=128, passes=1))
    assert np.array_equal(res.output.samples, fir(res.filter.taps, x.samples))
    assert np.all(np.abs(res.output.samples - lfilter(res.filter.taps, [1.0], x.samples)) <= fir_rounding(res.filter.taps, x.samples))
    assert res.final_kurtosis == res.kurtosis_trace[-1]


def test_result_output_keeps_sample_rate(rng):
    x = Signal1D(rng.standard_normal(1000), sample_rate=16000)
    assert run_adapt(x, AdaptConfig(warmup=64)).output.sample_rate == 16000
