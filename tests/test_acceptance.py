"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS` line (visible with -s or in
captured output); a failing assertion marks the criterion red.
"""
import time

import numpy as np
import pytest
from scipy.signal import lfilter

from kurtdeconv import (
    Adapt2dConfig,
    AdaptConfig,
    DegradeSpec,
    ExperimentConfig,
    Image2D,
    Signal1D,
    SourceSpec,
    WhitenSpec,
    apply_degradation,
    apply_kernel,
    apply_taps,
    highpass_whiten,
    highpass_whiten_2d,
    kurtosis_excess,
    kurtosis_surface,
    make_source,
    normalize_taps,
    normalized_correlation,
    run_experiment,
    true_inverse,
    write_report_csv,
)
from conftest import batch_gradient, batch_kurtosis


def _report(n, name):
    print(f"[acceptance] criterion {n:2d} ({name}): PASS")


def test_c01_kurtosis_unit_values():
    t0 = time.perf_counter()
    rademacher = np.tile([-1.0, 1.0], 500_000)
    assert kurtosis_excess(rademacher) == pytest.approx(-2.0, abs=1e-12)
    rng = np.random.default_rng(101)
    assert kurtosis_excess(rng.uniform(-1.0, 1.0, 1_000_000)) == pytest.approx(-1.2, abs=0.02)
    assert abs(kurtosis_excess(rng.standard_normal(1_000_000))) <= 0.02
    assert kurtosis_excess(rng.laplace(0.0, 1.0, 1_000_000)) == pytest.approx(3.0, abs=0.1)
    assert time.perf_counter() - t0 < 1.0
    _report(1, "kurtosis unit values")


def test_c02_gradient_vs_finite_differences():
    t0 = time.perf_counter()
    x = np.random.default_rng(102).laplace(0.0, 1.0 / np.sqrt(2.0), 10_000)
    L = 3
    wins = np.zeros((x.size, L))
    for k in range(L):
        wins[k:, k] = x[: x.size - k]
    h = np.array([1.0, -0.4, 0.2])
    grad = batch_gradient(wins @ h, wins)
    eps = 1e-5
    for k in range(L):
        hp, hm = h.copy(), h.copy()
        hp[k] += eps
        hm[k] -= eps
        fd = (batch_kurtosis(wins @ hp) - batch_kurtosis(wins @ hm)) / (2.0 * eps)
        assert grad[k] == pytest.approx(fd, rel=1e-5)
    assert time.perf_counter() - t0 < 1.0
    _report(2, "batch gradient vs central finite differences")


def test_c03_gaussianization_ten_seeds():
    for seed in range(10):
        s = np.random.default_rng(200 + seed).uniform(-1.0, 1.0, 100_000)
        x = apply_degradation(DegradeSpec("ar2_iir", 0.6, -0.3), Signal1D(s)).samples
        ks, kx = kurtosis_excess(s), kurtosis_excess(x)
        assert abs(kx) < 0.9 * abs(ks), f"seed {seed}: |{kx:.3f}| not 10% under |{ks:.3f}|"
    _report(3, "degradation gaussianizes (10 seeds)")


def test_c04_surface_argmax():
    t0 = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 41)
    for a1, a2 in [(0.6, -0.3), (0.5, 0.4)]:
        s = Signal1D(np.random.default_rng(104).laplace(0.0, 1.0 / np.sqrt(2.0), 100_000))
        x = apply_degradation(DegradeSpec("ar2_iir", a1, a2), s)
        result = kurtosis_surface(x, grid, grid)
        assert result.argmax[0] == pytest.approx(a1, abs=0.05 + 1e-9)
        assert result.argmax[1] == pytest.approx(a2, abs=0.05 + 1e-9)
    assert time.perf_counter() - t0 < 60.0
    _report(4, "41x41 kurtosis surface argmax at true parameters")


def _run_iir_audio_analog(a1, a2):
    cfg = ExperimentConfig(
        experiment_id=f"iir-audio-{a1}-{a2}",
        source=SourceSpec(kind="integrated_laplace", seed=105, length=100_000),
        degrade=DegradeSpec(kind="ar2_iir", a1=a1, a2=a2),
        whiten=WhitenSpec(kind="highpass"),
        adapt=AdaptConfig(taps=3, mu=3e-6, beta=0.999, warmup=2000, passes=4),
    )
    return run_experiment(cfg)


def test_c05_iir_audio_identification():
    for a1, a2 in [(0.6, 0.3), (0.5, 0.4)]:
        t0 = time.perf_counter()
        report = _run_iir_audio_analog(a1, a2)
        assert max(row.err for row in report.parameters) <= 0.1
        assert report.rho_restored >= 0.95
        assert time.perf_counter() - t0 < 30.0
    _report(5, "IIR audio identification: coefficient error <= 0.1, rho >= 0.95")


def test_c06_echo_identification():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        experiment_id="echo-d100",
        source=SourceSpec(kind="laplace", seed=106, length=200_000),
        degrade=DegradeSpec(kind="echo_iir", a1=-0.6, a2=0.3, delay=100),
        whiten=WhitenSpec(kind="none"),
        adapt=AdaptConfig(taps=201, mu=1e-6, beta=0.999, warmup=2000, passes=4),
    )
    report = run_experiment(cfg)
    taps = normalize_taps_array(report.estimate)
    assert abs(taps[100] - 0.6) <= 0.1
    assert abs(taps[200] - (-0.3)) <= 0.1
    off = np.delete(np.abs(taps), [0, 100, 200])
    assert off.max() <= 0.05
    assert report.rho_restored >= 0.95
    assert abs(report.rho_sx - 0.49) <= 0.15
    assert time.perf_counter() - t0 < 120.0
    _report(6, "echo identification: lag-100/200 taps within 0.1, off-taps <= 0.05")


def normalize_taps_array(taps):
    from kurtdeconv import FilterTaps1D

    return normalize_taps(FilterTaps1D(taps)).taps


def test_c07_fir_inverse_identification():
    cfg = ExperimentConfig(
        experiment_id="fir-audio",
        source=SourceSpec(kind="laplace", seed=107, length=100_000),
        degrade=DegradeSpec(kind="fir2", a1=0.5, a2=0.2),
        whiten=WhitenSpec(kind="none"),
        adapt=AdaptConfig(taps=16, mu=1e-6, beta=0.999, warmup=2000, passes=8),
    )
    report = run_experiment(cfg)
    rows = {row.name: row for row in report.parameters}
    assert abs(rows["h1"].est + 0.7) <= 0.12
    assert abs(rows["h2"].est - 0.39) <= 0.15
    assert report.rho_restored >= 0.9
    _report(7, "FIR inverse identification: h(1), h(2) near analytic inverse, rho >= 0.9")


def _run_image_analog(spec, mu, passes, seed):
    cfg = ExperimentConfig(
        experiment_id=f"image-{spec.kind}-{seed}",
        source=SourceSpec(kind="integrated_uniform", seed=seed, height=256, width=256),
        degrade=spec,
        whiten=WhitenSpec(kind="highpass"),
        adapt=Adapt2dConfig(rows=3, cols=3, mu=mu, beta=0.999, warmup=2000, passes=passes),
    )
    return run_experiment(cfg)


def test_c08_two_parameter_image_identification():
    for a1, a2 in [(0.5, 0.4), (0.6, 0.3)]:
        t0 = time.perf_counter()
        report = _run_image_analog(DegradeSpec(kind="image_iir2", a1=a1, a2=a2), mu=-1e-3, passes=16, seed=108)
        assert max(row.err for row in report.parameters) <= 0.1
        assert report.rho_restored >= 0.95
        assert time.perf_counter() - t0 < 120.0
    _report(8, "2-parameter image identification: error <= 0.1, rho >= 0.95")


def test_c09_three_parameter_image_identification():
    from kurtdeconv import parameter_error, run_adapt

    spec = DegradeSpec(kind="image_iir3", a1=0.8, a2=-0.4, a3=0.5)
    img = make_source(SourceSpec(kind="integrated_uniform", seed=109, height=256, width=256))
    g = apply_degradation(spec, img)
    assert np.isfinite(g.pixels).all()  # runs outside the conservative bound
    d = highpass_whiten_2d(g)
    res = run_adapt(d, Adapt2dConfig(rows=3, cols=3, mu=-1e-4, beta=0.999, warmup=2000, passes=60))
    assert max(parameter_error(spec, res.filter).values()) <= 0.12
    assert normalized_correlation(img, apply_kernel(g, res.filter)) >= 0.95
    # restoration pushes the whitened signal further from gaussian
    assert abs(res.final_kurtosis) > abs(kurtosis_excess(d.pixels))
    _report(9, "3-parameter image identification: error <= 0.12, rho >= 0.95")


def test_c10_exact_inverse_oracles():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        s = Signal1D(rng.standard_normal(1000))

        spec = DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3)
        x = apply_degradation(spec, s)
        back = apply_taps(x, true_inverse(spec, 3))
        assert np.max(np.abs(back.samples - s.samples)) < 1e-10

        spec = DegradeSpec(kind="echo_iir", a1=-0.6, a2=0.3, delay=7)
        x = apply_degradation(spec, s)
        back = apply_taps(x, true_inverse(spec, 15))
        assert np.max(np.abs(back.samples - s.samples)) < 1e-10

        x = apply_degradation(DegradeSpec("fir2", 0.5, 0.2), s)
        back = lfilter([1.0], [1.0, 0.7, 0.1], x.samples)  # exact IIR inverse
        assert np.max(np.abs(back - s.samples)) < 1e-10

        img = Image2D(rng.standard_normal((64, 64)))
        for spec in (
            DegradeSpec(kind="image_iir2", a1=0.5, a2=0.4),
            DegradeSpec(kind="image_iir3", a1=0.3, a2=0.2, a3=0.1),
            DegradeSpec(kind="image_iir3", a1=0.8, a2=-0.4, a3=0.5),
        ):
            g = apply_degradation(spec, img)
            assert np.isfinite(g.pixels).all()
            back = apply_kernel(g, true_inverse(spec))
            assert np.max(np.abs(back.pixels - img.pixels)) < 1e-10
    _report(10, "degrade/inverse round trips at machine precision (10 seeds)")


def test_c11_deterministic_reports(tmp_path):
    cfg = ExperimentConfig(
        experiment_id="determinism",
        source=SourceSpec(kind="integrated_laplace", seed=111, length=20_000),
        degrade=DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3),
        whiten=WhitenSpec(kind="highpass"),
        adapt=AdaptConfig(taps=3, mu=3e-6, beta=0.999, warmup=1000, passes=2),
    )
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_report_csv(p1, [run_experiment(cfg)])
    write_report_csv(p2, [run_experiment(cfg)])
    assert p1.read_bytes() == p2.read_bytes()
    _report(11, "identical config + seed gives byte-identical CSV")


def test_c12_whitening_commutes_with_degradation():
    rng = np.random.default_rng(112)
    s = Signal1D(rng.standard_normal(10_000))
    for spec in (
        DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3),
        DegradeSpec(kind="echo_iir", a1=-0.6, a2=0.3, delay=5),
        DegradeSpec(kind="fir2", a1=0.5, a2=0.2),
    ):
        a = highpass_whiten(apply_degradation(spec, s)).samples
        b = apply_degradation(spec, highpass_whiten(s)).samples
        assert np.max(np.abs(a - b)) < 1e-9

    img = Image2D(rng.standard_normal((64, 64)))
    for a1, a2, a3 in [(0.5, 0.4, 0.0), (0.3, 0.2, 0.1)]:
        spec = DegradeSpec(kind="image_iir3", a1=a1, a2=a2, a3=a3)
        a = highpass_whiten_2d(apply_degradation(spec, img)).pixels
        b = apply_degradation(spec, highpass_whiten_2d(img)).pixels
        assert np.max(np.abs(a - b)) < 1e-9
    _report(12, "difference whitening commutes with LTI degradation")
