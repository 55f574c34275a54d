import csv
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kurtdeconv import (
    Adapt2dConfig,
    AdaptConfig,
    ContractViolationError,
    DegradeSpec,
    ExperimentConfig,
    ExperimentReport,
    FilterTaps1D,
    FormatError,
    Image2D,
    Kernel2D,
    Signal1D,
    SourceSpec,
    WhitenSpec,
    apply_degradation,
    apply_kernel,
    aligned_correlation,
    apply_taps,
    fit_lpc,
    kurtosis_excess,
    make_source,
    normalized_correlation,
    parse_config,
    run_adapt,
    run_experiment,
    whiten,
    write_report_csv,
)
from kurtdeconv import _native
from kurtdeconv.adapt import kurtosis_surface
from kurtdeconv.degrade import true_inverse
from kurtdeconv.cli import main
from kurtdeconv.experiment import _cell
from kurtdeconv.fileio import read_wav, write_wav
from kurtdeconv.signals import _apply

CONFIG_TEXT = """\
# AR(2) recovery at desk scale
experiment.id = demo
source.kind = integrated_laplace
source.length = 20000
source.seed = 5
degrade.kind = ar2_iir
degrade.a1 = 0.6
degrade.a2 = 0.3
whiten.kind = highpass
adapt.taps = 3
adapt.mu = 3e-6
adapt.beta = 0.999
adapt.warmup = 1000
adapt.passes = 8
"""


class TestSourceSpec:
    def test_synthetic_requires_seed(self):
        with pytest.raises(ContractViolationError):
            SourceSpec(kind="laplace", length=100)
        with pytest.raises(ContractViolationError, match="nonnegative seed"):
            SourceSpec(kind="laplace", seed=-1, length=100)

    def test_file_requires_path(self):
        with pytest.raises(ContractViolationError):
            SourceSpec(kind="file")

    def test_image_dimensionality(self):
        assert SourceSpec(kind="uniform", seed=1, height=4, width=4).is_image
        assert not SourceSpec(kind="uniform", seed=1, length=10).is_image

    @pytest.mark.parametrize("fields, name", [
        (dict(kind="uniform", seed=1, height=4, width=4, length=10), "source.length"),
        (dict(kind="uniform", seed=1, height=4, width=4, path="x.pgm"), "source.path"),
        (dict(kind="laplace", seed=1, length=10, path="x.wav"), "source.path"),
        (dict(kind="file", path="x.wav", seed=1), "source.seed"),
        (dict(kind="file", path="x.wav", length=10), "source.length"),
        (dict(kind="file", path="x.wav", height=4), "source.height"),
        (dict(kind="file", path="x.pgm", width=4), "source.width"),
    ])
    def test_unused_field_rejected(self, fields, name):
        with pytest.raises(ContractViolationError, match=name):
            SourceSpec(**fields)

    def test_make_source_shapes(self):
        s = make_source(SourceSpec(kind="laplace", seed=1, length=50))
        assert len(s) == 50
        img = make_source(SourceSpec(kind="integrated_uniform", seed=1, height=6, width=7))
        assert (img.height, img.width) == (6, 7)

    def test_integrated_difference_is_iid_draw(self):
        # the whitened integrated texture must be the raw i.i.d. field
        spec = SourceSpec(kind="integrated_uniform", seed=9, height=32, width=32)
        img = make_source(spec)
        from kurtdeconv import highpass_whiten_2d

        d = highpass_whiten_2d(img).pixels
        rng = np.random.default_rng(9)
        want = rng.uniform(-1.0, 1.0, (32, 32)) / np.sqrt(32 * 32)
        assert np.allclose(d, want, atol=1e-12)

    @pytest.mark.parametrize("shape", [(40, 127), (40, 128), (300, 3), (40, 1), (40, 129), (1, 300)])
    def test_integrated_image_is_double_cumsum(self, shape):
        # bit for bit at any width, one row and one column included
        spec = SourceSpec(kind="integrated_laplace", seed=9, height=shape[0], width=shape[1])
        noise = np.random.default_rng(9).laplace(0.0, 1.0 / np.sqrt(2.0), shape)
        want = np.cumsum(np.cumsum(noise, axis=0), axis=1) / np.sqrt(shape[0] * shape[1])
        assert np.array_equal(make_source(spec).pixels, want)

    @given(st.integers(1, 40), st.integers(1, 300), st.integers(-1000, 1000), st.integers(0, 2**32 - 1))
    @example(3, 127, 0, 1)
    @example(3, 128, 0, 1)
    @example(3, 129, 0, 1)
    def test_running_sums_are_double_cumsum(self, height, width, k, seed):
        # compiled, twin and numpy agree bit for bit under any power-of-two
        # gain; a signal is the one-row case. Divided by 1.0, which is
        # exact, the sums are the double cumsum itself; divided by the
        # square root of the size, they are make_source's walk
        noise = np.ldexp(np.random.default_rng(seed).laplace(size=(height, width)), k)
        for f, want in ((noise, np.cumsum(np.cumsum(noise, axis=0), axis=1)), (noise[0], np.cumsum(noise[0]))):
            for d in (1.0, np.sqrt(f.size)):
                assert np.array_equal(_native.integrate(f.copy(), d), want / d)
                assert np.array_equal(_native._python_integrate(f.copy(), d), want / d)

    def test_seeded_determinism(self):
        a = make_source(SourceSpec(kind="gaussian", seed=3, length=100))
        b = make_source(SourceSpec(kind="gaussian", seed=3, length=100))
        assert np.array_equal(a.samples, b.samples)


class TestParseConfig:
    def test_full_round_trip(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.experiment_id == "demo"
        assert cfg.source.kind == "integrated_laplace" and cfg.source.seed == 5
        assert cfg.degrade == DegradeSpec(kind="ar2_iir", a1=0.6, a2=0.3)
        assert cfg.whiten == WhitenSpec(kind="highpass")
        assert isinstance(cfg.adapt, AdaptConfig)
        assert cfg.adapt.mu == pytest.approx(3e-6)

    def test_unknown_key(self):
        with pytest.raises(FormatError, match="unknown key"):
            parse_config("bogus.key = 1\n")

    def test_missing_equals(self):
        with pytest.raises(FormatError, match="key = value"):
            parse_config("just some text\n")

    def test_bad_number(self):
        with pytest.raises(FormatError, match="invalid number"):
            parse_config("source.length = banana\nsource.kind = laplace\nsource.seed = 1\n")

    def test_image_config_selects_2d(self):
        cfg = parse_config(
            "experiment.id = img\nsource.kind = integrated_uniform\nsource.seed = 1\n"
            "source.height = 32\nsource.width = 32\ndegrade.kind = image_iir2\n"
            "degrade.a1 = 0.5\ndegrade.a2 = 0.4\nwhiten.kind = highpass\n"
            "adapt.rows = 3\nadapt.cols = 3\nadapt.mu = -1e-3\n"
        )
        assert isinstance(cfg.adapt, Adapt2dConfig)

    @pytest.mark.parametrize("text, slot", [
        ("source.length = 200000\ndegrade.kind = echo_iir\ndegrade.a1 = -0.6\ndegrade.a2 = 0.3\n"
         "degrade.delay = 100\nadapt.taps = 101\n", "echo_iir slot at 200"),
        ("source.height = 32\nsource.width = 32\ndegrade.kind = image_iir2\ndegrade.a1 = 0.5\n"
         "degrade.a2 = 0.4\nadapt.rows = 1\nadapt.cols = 1\n", "image_iir2 slot at (-1, 0)"),
    ], ids=["echo_iir", "image_iir2"])
    def test_filter_without_parameter_slot_rejected(self, text, slot):
        # rejected when the config is built, before any adaptation runs
        with pytest.raises(ContractViolationError, match=re.escape(slot)):
            parse_config("source.seed = 1\n" + text)

    def test_minimal_configs_take_dataclass_defaults(self):
        cfg = parse_config("source.seed = 1\nsource.length = 1000\n")
        assert cfg.adapt == AdaptConfig()
        assert (cfg.degrade, cfg.whiten) == (None, WhitenSpec())
        cfg = parse_config("source.kind = uniform\nsource.seed = 1\nsource.height = 32\nsource.width = 32\n")
        assert cfg.adapt == Adapt2dConfig()
        assert cfg.adapt.mu == -1e-3

    @pytest.mark.parametrize("size, key", [
        ("source.length = 1000", "adapt.rows"),
        ("source.length = 1000", "adapt.cols"),
        ("source.height = 32\nsource.width = 32", "adapt.taps"),
    ])
    def test_key_of_other_dimension_rejected(self, size, key):
        with pytest.raises(ContractViolationError, match=key):
            parse_config(f"source.seed = 1\n{size}\n{key} = 3\n")

    @pytest.mark.parametrize("kind", ["", "degrade.kind = none\n"])
    def test_degrade_key_without_kind_rejected(self, kind):
        with pytest.raises(ContractViolationError, match="degrade.a1"):
            parse_config(f"source.seed = 1\nsource.length = 1000\n{kind}degrade.a1 = 0.5\n")

    @pytest.mark.parametrize("text, key", [
        ("source.seed = 1\nsource.length = 100\nsource.height = 8\nsource.width = 8\n", "source.length"),
        ("source.kind = file\nsource.path = x.wav\nsource.seed = 1\n", "source.seed"),
        ("source.kind = file\nsource.path = x.pgm\nsource.length = 100\n", "source.length"),
        ("source.seed = 1\nsource.length = 100\nsource.path = x.wav\n", "source.path"),
    ])
    def test_unused_source_key_rejected(self, text, key):
        with pytest.raises(ContractViolationError, match=key):
            parse_config(text)

    def test_file_path_needs_wav_or_pgm_extension(self):
        with pytest.raises(FormatError, match="extension"):
            parse_config("source.kind = file\nsource.path = x.txt\n")
        with pytest.raises(FormatError, match="extension"):
            SourceSpec(kind="file", path="x.txt")
        assert parse_config("source.kind = file\nsource.path = x.PGM\n").source.is_image

    def test_whiten_order_without_lpc_rejected(self):
        with pytest.raises(ContractViolationError, match="order"):
            parse_config("source.seed = 1\nsource.length = 1000\nwhiten.kind = highpass\nwhiten.order = 9\n")

    @pytest.mark.parametrize("kind", ["ar2_iir", "echo_iir", "fir2", "image_iir2", "image_iir3"])
    def test_degradation_of_the_other_dimension_rejected(self, kind):
        # a signal config with an image kind, or an image config with a 1-D kind
        if kind.startswith("image_"):
            source, adapt = SourceSpec(kind="laplace", seed=1, length=100), AdaptConfig()
        else:
            source, adapt = SourceSpec(kind="laplace", seed=1, height=8, width=8), Adapt2dConfig()
        with pytest.raises(ContractViolationError, match=f"no {kind} slot"):
            ExperimentConfig("x", source, adapt, DegradeSpec(kind=kind, a1=0.5, a2=0.3))

    @pytest.mark.parametrize("text, message", [
        ("source.length = 1000\nadapt.mu = nan\n", "mu must be finite"),
        ("source.length = 1000\nadapt.mu = inf\n", "mu must be finite"),
        ("source.length = 1000\nadapt.beta = 0\n", "beta must lie in"),
        ("source.length = 1000\nadapt.beta = 1\n", "beta must lie in"),
        ("source.length = 1000\nadapt.warmup = -1\n", "warmup must be >= 0"),
        ("source.length = 1000\nadapt.passes = 0\n", "passes must be >= 1"),
        ("source.height = 8\nsource.width = 8\nadapt.passes = 0\n", "passes must be >= 1"),
        ("source.length = 1000\nadapt.taps = 0\n", "taps must be >= 1"),
        ("source.length = 1000\ndegrade.kind = ar2_iir\ndegrade.a1 = nan\n", "a1 must be finite"),
        ("source.length = 1000\ndegrade.kind = echo_iir\ndegrade.a1 = 0.5\ndegrade.delay = 0\n", "delay must be >= 1"),
        ("source.kind = pink\nsource.length = 1000\n", "unknown source kind"),
        ("source.length = 0\n", "positive length"),
        ("source.length = -5\n", "positive length"),
        ("source.height = 0\nsource.width = 8\n", "positive height and width"),
        ("source.height = 8\nsource.width = -8\n", "positive height and width"),
        ("source.length = 1000\nwhiten.kind = pink\n", "unknown whitening kind"),
        ("source.length = 1000\nwhiten.kind = lpc\nwhiten.order = 0\n", "lpc order must be >= 1"),
        ("source.length = 1000\nexperiment.id =\n", "experiment id must be nonempty"),
    ])
    def test_invalid_value_rejected(self, text, message):
        with pytest.raises(ContractViolationError, match=message):
            parse_config("source.seed = 1\n" + text)

    def test_lpc_whitening_of_an_image_rejected(self):
        # at the config, as the slot check is, not after making the source
        with pytest.raises(ContractViolationError, match="lpc whitening takes a 1-D source"):
            parse_config("source.seed = 1\nsource.height = 8\nsource.width = 8\nwhiten.kind = lpc\n")

    def test_dimensionality_mismatch(self):
        with pytest.raises(ContractViolationError):
            ExperimentConfig(
                experiment_id="x",
                source=SourceSpec(kind="laplace", seed=1, length=100),
                adapt=Adapt2dConfig(rows=3, cols=3),
            )


class TestRunExperiment:
    def test_null_experiment(self):
        cfg = ExperimentConfig(
            experiment_id="null",
            source=SourceSpec(kind="laplace", seed=2, length=20_000),
            adapt=AdaptConfig(taps=3, mu=3e-6, beta=0.999, warmup=1000, passes=1),
        )
        report = run_experiment(cfg)
        assert report.rho_sx == pytest.approx(1.0)
        assert report.rho_restored == pytest.approx(1.0, abs=1e-3)
        assert report.parameters == ()
        t = report.estimate / report.estimate[0]
        assert np.all(np.abs(t[1:]) <= 0.05)

    def test_ar2_demo_recovers(self):
        report = run_experiment(parse_config(CONFIG_TEXT))
        assert max(row.err for row in report.parameters) <= 0.15
        assert report.rho_restored >= 0.95
        assert report.mode == "1d"

    def test_csv_row_excludes_wall_time(self):
        report = run_experiment(parse_config(CONFIG_TEXT))
        row = report.csv_row()
        assert len(row.split(",")) == len(ExperimentReport.CSV_HEADER.split(","))
        assert str(report.wall_time_s) not in row
        assert "demo" in row and report.text().startswith("experiment")

    def test_determinism_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(p1, [run_experiment(parse_config(CONFIG_TEXT))])
        write_report_csv(p2, [run_experiment(parse_config(CONFIG_TEXT))])
        assert p1.read_bytes() == p2.read_bytes()
        assert b"\r" not in p1.read_bytes()

    def test_csv_quotes_commas(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(path, [run_experiment(parse_config(CONFIG_TEXT.replace("= demo", '= run, "take" 2')))])
        header, row = csv.reader(path.read_text().splitlines())
        assert len(row) == len(header) == 29
        assert row[0] == 'run, "take" 2' and row[1:3] == ["1d", "integrated_laplace"]

    def test_csv_round_trips_non_ascii_id(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(path, [run_experiment(parse_config(CONFIG_TEXT.replace("= demo", "= café")))])
        header, row = csv.reader(path.read_text(encoding="utf-8").splitlines())
        assert row[0] == "café"
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    def test_csv_quotes_line_breaks(self, tmp_path):
        # an unquoted CR or LF would split the row for any CSV reader
        from kurtdeconv import Signal1D, write_wav

        wav = tmp_path / "take\r1.wav"
        write_wav(wav, Signal1D(0.3 * np.random.default_rng(11).uniform(-1, 1, 5000)))
        cfg = ExperimentConfig(
            experiment_id="two\nlines",
            source=SourceSpec(kind="file", path=str(wav)),
            adapt=AdaptConfig(taps=3, mu=-3e-6, beta=0.999, warmup=500, passes=1),
        )
        path = tmp_path / "r.csv"
        write_report_csv(path, [run_experiment(cfg)])
        with open(path, encoding="utf-8", newline="") as fh:
            header, row = csv.reader(fh)
        assert len(row) == len(header) == 29
        assert row[:3] == ["two\nlines", "1d", str(wav)]

    def test_failed_csv_write_leaves_no_temp_file(self, tmp_path):
        # replacing a directory fails after the temporary file is written
        (tmp_path / "r.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            write_report_csv(tmp_path / "r.csv", [run_experiment(parse_config(CONFIG_TEXT))])
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]

    @pytest.mark.parametrize("source, adapt", [
        (SourceSpec(kind="laplace", seed=3, length=5_000), AdaptConfig(taps=5, mu=1e-4, beta=0.999, warmup=500, passes=2)),
        (SourceSpec(kind="uniform", seed=3, height=24, width=24), Adapt2dConfig(rows=3, cols=3, mu=-1e-4, warmup=64, passes=2)),
        (SourceSpec(kind="uniform", seed=3, height=40, width=50), Adapt2dConfig(rows=3, cols=5, mu=-1e-4, warmup=64, passes=2)),
    ])
    def test_unwhitened_report_scores_the_final_filtering(self, source, adapt):
        # without whitening the observation is also the adapted input; the
        # scores must be those of filtering it with the final filter
        cfg = ExperimentConfig(experiment_id="raw", source=source, adapt=adapt)
        report = run_experiment(cfg)
        s = make_source(source)
        if isinstance(adapt, Adapt2dConfig):
            restored = apply_kernel(s, Kernel2D(report.estimate))
            values = restored.pixels
        else:
            restored = apply_taps(s, FilterTaps1D(report.estimate))
            values = restored.samples
        assert report.kurt_restored == kurtosis_excess(values)
        assert report.rho_restored == normalized_correlation(s, restored)

    @pytest.mark.parametrize("source, adapt, cells", [
        pytest.param(SourceSpec(kind="laplace", seed=3, length=5_000), AdaptConfig(taps=5, mu=1e-4, warmup=500),
                     ("1d", "5000", "5"), id="1-D"),
        pytest.param(SourceSpec(kind="uniform", seed=3, height=40, width=50), Adapt2dConfig(rows=3, cols=5, mu=-1e-4, warmup=64),
                     ("2d", "40x50", "3x5"), id="2-D-3x5"),
    ])
    def test_mode_size_and_filter_cells(self, source, adapt, cells):
        report = run_experiment(ExperimentConfig(experiment_id="cells", source=source, adapt=adapt))
        assert (report.mode, report.size_desc, report.filter_desc) == cells
        row = report.csv_row().split(",")
        assert (row[1], row[4], row[7]) == cells
        assert report.estimate.shape == tuple(map(int, cells[2].split("x")))

    def test_lpc_whitening_path(self):
        cfg = ExperimentConfig(
            experiment_id="lpc",
            source=SourceSpec(kind="integrated_laplace", seed=6, length=20_000),
            degrade=DegradeSpec(kind="ar2_iir", a1=0.5, a2=0.3),
            whiten=WhitenSpec(kind="lpc", order=5),
            adapt=AdaptConfig(taps=3, mu=3e-6, beta=0.999, warmup=1000, passes=2),
        )
        report = run_experiment(cfg)
        assert report.whiten_desc == "lpc(5)"
        assert np.isfinite(report.kurt_restored)

    def test_file_source(self, tmp_path):
        from kurtdeconv import Signal1D, write_wav

        path = tmp_path / "src.wav"
        rng = np.random.default_rng(10)
        write_wav(path, Signal1D(0.3 * rng.uniform(-1, 1, 30_000), sample_rate=8000))
        cfg = ExperimentConfig(
            experiment_id="file",
            source=SourceSpec(kind="file", path=str(path)),
            adapt=AdaptConfig(taps=3, mu=-3e-6, beta=0.999, warmup=1000, passes=1),
        )
        report = run_experiment(cfg)
        assert report.source_desc == str(path)
        assert report.rho_sx == pytest.approx(1.0)

    def test_commutation_smoke(self):
        # whiten(degrade(s)) == degrade(whiten(s)) for the LTI pipeline
        from kurtdeconv import Signal1D, apply_degradation, highpass_whiten

        s = make_source(SourceSpec(kind="gaussian", seed=8, length=5000))
        a = highpass_whiten(apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), s)).samples
        b = apply_degradation(DegradeSpec("ar2_iir", 0.6, 0.3), highpass_whiten(s)).samples
        assert np.max(np.abs(a - b)) < 1e-9


_AUDIO = SourceSpec(kind="integrated_laplace", seed=4, length=6_000)
_AUDIO_ADAPT = AdaptConfig(taps=3, mu=3e-6, beta=0.999, warmup=500, passes=1)


@pytest.mark.parametrize("cfg", [
    pytest.param(ExperimentConfig("hp", _AUDIO, _AUDIO_ADAPT, DegradeSpec("ar2_iir", 0.6, 0.3), WhitenSpec("highpass")), id="1-D-highpass"),
    pytest.param(ExperimentConfig("raw", SourceSpec(kind="laplace", seed=4, length=6_000), _AUDIO_ADAPT, DegradeSpec("fir2", 0.5, 0.2)), id="1-D-none"),
    pytest.param(ExperimentConfig("lpc", _AUDIO, _AUDIO_ADAPT, DegradeSpec("ar2_iir", 0.5, 0.3), WhitenSpec("lpc", 4)), id="1-D-lpc"),
    pytest.param(ExperimentConfig(
        "img", SourceSpec(kind="integrated_uniform", seed=4, height=30, width=40),
        Adapt2dConfig(rows=3, cols=3, mu=-1e-5, beta=0.999, warmup=200), DegradeSpec("image_iir2", 0.5, 0.4), WhitenSpec("highpass"),
    ), id="2-D-highpass"),
])
def test_report_scores_are_the_public_scores_of_the_stage_outputs(cfg):
    report = run_experiment(cfg)
    s = make_source(cfg.source)
    x = apply_degradation(cfg.degrade, s)
    restored = _apply(x, run_adapt(whiten(x, cfg.whiten), cfg.adapt).filter)
    got = (report.kurt_source, report.kurt_degraded, report.kurt_restored, report.rho_sx, report.rho_restored)
    assert got == (*map(kurtosis_excess, (s, x, restored)), normalized_correlation(s, x), normalized_correlation(s, restored))


def peaks_in_a_new_thread(call, runs: int = 1) -> list[int]:
    """The tracemalloc peak of each of `runs` calls of call, made one after
    another in a new thread, whose scratch starts empty however the suite
    left this thread's."""
    # numpy.random is imported by the first Generator of a process, which
    # would otherwise be traced
    np.random.default_rng(0)
    peaks = []

    def work():
        for _ in range(runs):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(peaks) == runs
    return peaks


_AUDIO_AR2 = ExperimentConfig(
    "audio", SourceSpec(kind="integrated_laplace", seed=105, length=100_000),
    AdaptConfig(taps=3, mu=1.5e-6, beta=0.999, warmup=2000), DegradeSpec("ar2_iir", 0.6, 0.3), WhitenSpec("highpass"),
)
_IMAGE_IIR = ExperimentConfig(
    "image", SourceSpec(kind="integrated_uniform", seed=108, height=256, width=256),
    Adapt2dConfig(rows=3, cols=3, mu=-1.5e-5, beta=0.999, warmup=2000), DegradeSpec("image_iir2", 0.5, 0.4), WhitenSpec("highpass"),
)


@pytest.mark.parametrize("cfg, arrays", [
    # audio_ar2's shape: the source, the observation, the restoration and
    # the score's centred source and scratch array
    pytest.param(_AUDIO_AR2, 5.0, id="audio_ar2"),
    # image_iir's shape: the same five, the first scratch slot the size of
    # the walk, a padded image
    pytest.param(_IMAGE_IIR, 5.5, id="image_iir"),
])
def test_memory_peak_in_full_length_arrays(cfg, arrays):
    # every stage hands over the one array it builds, and the whitened input
    # is gone before the restoration; 64 KiB covers the small arrays. The
    # first run of a thread also makes its scratch.
    n = cfg.source.length or cfg.source.height * cfg.source.width
    (peak,) = peaks_in_a_new_thread(lambda: run_experiment(cfg))
    assert peak <= arrays * 8 * n + 64 * 1024


@pytest.mark.parametrize("cfg", [_AUDIO_AR2, _IMAGE_IIR], ids=["audio_ar2", "image_iir"])
def test_second_run_of_a_shape_reuses_the_scratch(cfg):
    # the walk, the RMS copy and the scores' arrays stay in the thread's
    # scratch, so the second run makes at least one full-length array fewer
    n = cfg.source.length or cfg.source.height * cfg.source.width
    first, second = peaks_in_a_new_thread(lambda: run_experiment(cfg), runs=2)
    assert second <= first - 8 * n


def test_results_outlive_the_scratch():
    # nothing a public call returns is a view of the scratch: a second call
    # of the same shape, on other data, leaves the first results as they were
    rng = np.random.default_rng(12)
    signals = [Signal1D(rng.standard_normal(3_000)) for _ in range(2)]
    images = [Image2D(rng.standard_normal((40, 50))) for _ in range(2)]
    taps, kernel = FilterTaps1D([1.0, -0.6, -0.3]), Kernel2D(rng.standard_normal((3, 3)))
    cfg = ExperimentConfig("scratch", SourceSpec(kind="laplace", seed=1, length=3_000), AdaptConfig(taps=3, warmup=200))

    def results(i):
        return [
            apply_taps(signals[i], taps).samples,
            apply_kernel(images[i], kernel).pixels,
            run_adapt(signals[i], AdaptConfig(taps=5, mu=1e-4, warmup=200)).output.samples,
            run_adapt(images[i], Adapt2dConfig(mu=-1e-4, warmup=200)).output.pixels,
            run_experiment(replace(cfg, source=replace(cfg.source, seed=i + 1))).estimate,
        ]

    first = results(0)
    kept = [a.copy() for a in first]
    second = results(1)
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))
    assert not any(np.array_equal(a, b) for a, b in zip(first, second))


def test_threads_match_serial_runs():
    # each thread has its own scratch: four threads on two same-shape
    # configs, the interpreter switching threads as often as it can, give
    # the bytes of serial runs
    cfgs = [
        ExperimentConfig(f"t{seed}", SourceSpec(kind="integrated_uniform", seed=seed, height=48, width=64),
                         Adapt2dConfig(mu=-1e-5, beta=0.999, warmup=200), DegradeSpec("image_iir2", 0.5, 0.4), WhitenSpec("highpass"))
        for seed in (1, 2)
    ]
    serial = [run_experiment(cfg).csv_row() for cfg in cfgs]
    rows = [[] for _ in range(4)]

    def work(i):
        for _ in range(20):
            rows[i].append(run_experiment(cfgs[i % 2]).csv_row())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert rows == [[serial[i % 2]] * 20 for i in range(4)]


#: The tests that bound a tracemalloc peak. Each also runs alone in a fresh
#: interpreter, where whatever the traced call is first to import or build
#: counts against its bound.
TRACED = [
    "tests/test_experiment.py::test_memory_peak_in_full_length_arrays[audio_ar2]",
    "tests/test_experiment.py::test_memory_peak_in_full_length_arrays[image_iir]",
    "tests/test_adapt2d.py::TestRunAdapt2d::test_memory_is_one_padded_copy",
    "tests/test_adapt1d.py::TestKurtosisSurface::test_memory_is_four_rows_of_samples",
    "tests/test_signals.py::TestApply::test_apply_taps_memory_is_its_output",
]


@pytest.mark.parametrize("node", TRACED)
def test_traced_memory_alone(node):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("build, name", [
    (lambda v: AdaptConfig(taps=v), "taps"),
    (lambda v: AdaptConfig(warmup=v), "warmup"),
    (lambda v: AdaptConfig(passes=v), "passes"),
    (lambda v: Adapt2dConfig(rows=v), "rows"),
    (lambda v: Adapt2dConfig(cols=v), "cols"),
    (lambda v: Adapt2dConfig(passes=v), "passes"),
    (lambda v: DegradeSpec("echo_iir", 0.5, 0.2, delay=v), "delay"),
    (lambda v: DegradeSpec("ar2_iir", 0.5, 0.2, delay=v), "delay"),
    (lambda v: WhitenSpec("lpc", order=v), "order"),
    (lambda v: SourceSpec("laplace", seed=v, length=10), "seed"),
    (lambda v: SourceSpec("laplace", seed=1, length=v), "length"),
    (lambda v: SourceSpec("uniform", seed=1, height=v, width=8), "height"),
    (lambda v: SourceSpec("uniform", seed=1, height=8, width=v), "width"),
], ids=["AdaptConfig.taps", "AdaptConfig.warmup", "AdaptConfig.passes", "Adapt2dConfig.rows", "Adapt2dConfig.cols",
        "Adapt2dConfig.passes", "echo_iir.delay", "ar2_iir.delay", "WhitenSpec.order", "SourceSpec.seed",
        "SourceSpec.length", "SourceSpec.height", "SourceSpec.width"])
def test_counts_must_be_whole_numbers(build, name):
    # a float count, even a whole one, used to fail later as a bare TypeError
    for value in (2.5, 1.0, "1"):
        with pytest.raises(ContractViolationError, match=f"{name} must be a whole number"):
            build(value)
    build(np.int64(1))  # numpy ints stay accepted
    build(1)


@pytest.mark.parametrize("call, name", [
    (lambda v: fit_lpc(Signal1D(np.random.default_rng(1).standard_normal(100)), v), "order"),
    (lambda v: true_inverse(DegradeSpec("ar2_iir", 0.5, 0.2), taps=v), "taps"),
    (lambda v: aligned_correlation(Signal1D(np.arange(10.0) % 3), Signal1D(np.arange(10.0) % 4), v), "max_lag"),
], ids=["fit_lpc", "true_inverse", "aligned_correlation"])
def test_count_arguments_must_be_whole_numbers(call, name):
    for value in (3.5, 3.0):
        with pytest.raises(ContractViolationError, match=f"{name} must be a whole number"):
            call(value)
    call(np.int64(3))


#: The report field each non-parameter CSV column holds, where the names differ.
_FIELD_OF = {"id": "experiment_id", "source": "source_desc", "size": "size_desc",
             "degrade": "degrade_desc", "whiten": "whiten_desc", "filter": "filter_desc"}


def test_csv_row_holds_one_cell_per_column_read_off_the_fields(tmp_path):
    wav = tmp_path / "src.wav"
    write_wav(wav, make_source(SourceSpec(kind="laplace", seed=12, length=3000)))
    cfg = ExperimentConfig("file, 1", SourceSpec(kind="file", path=str(wav)),
                           AdaptConfig(mu=1e-4, warmup=200), DegradeSpec("ar2_iir", 0.5, 0.2))
    report = replace(run_experiment(cfg), kurt_restored=float("nan"))
    header = ExperimentReport.CSV_HEADER.split(",")
    (row,) = csv.reader([report.csv_row()])
    assert len(row) == len(header)
    for column, cell in zip(header, row):
        if re.fullmatch(r"p\d_[a-z]+", column):
            i, attr = int(column[1]) - 1, column[3:]
            value = getattr(report.parameters[i], attr) if i < len(report.parameters) else None
        else:
            value = getattr(report, _FIELD_OF.get(column, column))
        if isinstance(value, str):
            assert cell == value, column
        elif value is None or not np.isfinite(value):
            assert cell == "", column
        else:
            assert type(value)(cell) == value, column  # an int in decimal, a float exactly
    assert row[0] == "file, 1" and row[3] == ""  # a file source has no seed
    p3 = header.index("p3_name")
    assert row[p3 : p3 + 4] == ["", "", "", ""]  # two parameters, then an empty row
    assert row[header.index("kurt_restored")] == ""


@pytest.mark.parametrize("value, cell", [
    ("a, b", "a, b"), ("", ""), (7, "7"), (np.int64(7), "7"), (2**70, str(2**70)),
    (0.1, "0.1"), (np.float64(-3e-6), "-3e-06"), (float("nan"), ""), (np.inf, ""), (-np.inf, ""), (None, ""),
])
def test_cell_rule(value, cell):
    assert _cell(value) == cell


def test_sweep_cells_follow_the_cell_rule(tmp_path, capsys):
    wav = tmp_path / "x.wav"
    source = make_source(SourceSpec(kind="laplace", seed=13, length=4000))
    write_wav(wav, Signal1D(0.02 * apply_degradation(DegradeSpec("ar2_iir", 0.5, 0.3), source).samples))
    out = tmp_path / "surface.csv"
    assert main(["sweep", str(wav), str(out), "--a1-range", "-0.9", "0.9", "4", "--a2-range", "-0.5", "0.5", "3"]) == 0
    grid_a1, grid_a2 = np.linspace(-0.9, 0.9, 4), np.linspace(-0.5, 0.5, 3)
    surface = kurtosis_surface(read_wav(wav), grid_a1, grid_a2).surface
    header, *rows = out.read_text().splitlines()
    assert header == "a1,a2,abs_kurtosis"
    assert rows == [",".join(map(repr, (float(a1), float(a2), float(surface[i, j]))))
                    for i, a1 in enumerate(grid_a1) for j, a2 in enumerate(grid_a2)]
