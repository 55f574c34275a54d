import csv
import re

import numpy as np
import pytest

from kurtdeconv import (
    Adapt2dConfig,
    AdaptConfig,
    ContractViolationError,
    DegradeSpec,
    ExperimentConfig,
    ExperimentReport,
    FilterTaps1D,
    FormatError,
    Kernel2D,
    SourceSpec,
    WhitenSpec,
    apply_kernel,
    apply_taps,
    kurtosis_excess,
    make_source,
    normalized_correlation,
    parse_config,
    run_experiment,
    write_report_csv,
)

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

    @pytest.mark.parametrize("shape", [(40, 127), (40, 128), (300, 3)])
    def test_integrated_image_is_double_cumsum(self, shape):
        # bit for bit on either side of the width where the column sums switch
        spec = SourceSpec(kind="integrated_laplace", seed=9, height=shape[0], width=shape[1])
        noise = np.random.default_rng(9).laplace(0.0, 1.0 / np.sqrt(2.0), shape)
        want = np.cumsum(np.cumsum(noise, axis=0), axis=1) / np.sqrt(shape[0] * shape[1])
        assert np.array_equal(make_source(spec).pixels, want)

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
