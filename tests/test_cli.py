import numpy as np
import pytest

from kurtdeconv import (
    Adapt2dConfig,
    AdaptConfig,
    DegradeSpec,
    Image2D,
    Signal1D,
    apply_degradation,
    normalize_kernel,
    normalize_taps,
    read_image,
    read_wav,
    run_adapt,
    write_image,
    write_wav,
)
from kurtdeconv.cli import main
from conftest import laplace_signal


@pytest.fixture
def source_wav(tmp_path):
    path = tmp_path / "src.wav"
    write_wav(path, Signal1D(0.05 * laplace_signal(50, 30_000), sample_rate=8000))
    return path


def test_degrade_whiten_deconv_pipeline(tmp_path, source_wav, capsys):
    degraded = tmp_path / "deg.wav"
    assert main(["degrade", str(source_wav), str(degraded), "--kind", "ar2_iir", "--a1", "0.6", "--a2", "0.3"]) == 0
    restored = tmp_path / "rest.wav"
    filt = tmp_path / "filter.txt"
    rc = main([
        "deconv", str(degraded), str(restored), "--filter-out", str(filt),
        "--taps", "3", "--mu", "3e-6", "--beta", "0.999", "--warmup", "1000", "--passes", "6",
    ])
    assert rc == 0
    taps = [float(line) for line in filt.read_text().splitlines()]
    assert len(taps) == 3
    assert taps[1] / taps[0] == pytest.approx(-0.6, abs=0.1)
    s = read_wav(source_wav).samples
    r = read_wav(restored).samples
    rho = np.corrcoef(s, r)[0, 1]
    assert abs(rho) >= 0.9


def test_whiten_roundtrip(tmp_path, source_wav):
    out = tmp_path / "white.wav"
    assert main(["whiten", str(source_wav), str(out), "--kind", "highpass"]) == 0
    assert out.exists()
    out2 = tmp_path / "lpc.wav"
    assert main(["whiten", str(source_wav), str(out2), "--kind", "lpc", "--order", "4"]) == 0


def test_sweep_outputs_argmax(tmp_path, capsys):
    src = tmp_path / "x.wav"
    from kurtdeconv import DegradeSpec, apply_degradation

    sig = apply_degradation(DegradeSpec("ar2_iir", 0.5, 0.3), Signal1D(0.02 * laplace_signal(51, 50_000)))
    write_wav(src, sig)
    out = tmp_path / "surface.csv"
    rc = main(["sweep", str(src), str(out), "--a1-range", "0.0", "0.75", "4", "--a2-range", "0.0", "0.45", "4"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a1,a2,abs_kurtosis"
    assert len(lines) == 17
    assert "argmax a1=0.5 a2=0.3" in capsys.readouterr().out


def test_clipped_samples_reported(tmp_path, capsys):
    # a DC gain of 10 takes a steady 0.9 far outside [-1, 1)
    src, out = tmp_path / "loud.wav", tmp_path / "out.wav"
    write_wav(src, Signal1D(np.full(200, 0.9)))
    spec = DegradeSpec("ar2_iir", 0.6, 0.3)
    clipped = write_wav(tmp_path / "ref.wav", apply_degradation(spec, read_wav(src)))
    assert clipped > 100
    assert main(["degrade", str(src), str(out), "--kind", "ar2_iir", "--a1", "0.6", "--a2", "0.3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"clipped {clipped} samples to [-1, 1)"
    assert out.read_bytes() == (tmp_path / "ref.wav").read_bytes()


def test_metrics_command(tmp_path, source_wav, capsys):
    rc = main(["metrics", str(source_wav), str(source_wav), "--max-lag", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho (zero lag)  1.000000" in out


def test_metrics_lag_above_half_the_length(tmp_path, capsys):
    path = tmp_path / "a.wav"
    write_wav(path, Signal1D(0.1 * laplace_signal(3, 64)))
    assert main(["metrics", str(path), str(path), "--max-lag", "32"]) == 0
    assert "rho (aligned)   1.000000 at lag 0 sign +1" in capsys.readouterr().out
    assert main(["metrics", str(path), str(path), "--max-lag", "100"]) == 1
    assert main(["metrics", str(path), str(path), "--max-lag", "-3"]) == 1


def test_metrics_lag_on_images_rejected(tmp_path, capsys):
    pgm = tmp_path / "a.pgm"
    write_image(pgm, Image2D(np.random.default_rng(56).random((8, 8))))
    assert main(["metrics", str(pgm), str(pgm)]) == 0
    assert "rho (zero lag)  1.000000" in capsys.readouterr().out
    for lag in ("1", "1000"):
        assert main(["metrics", str(pgm), str(pgm), "--max-lag", lag]) == 1


def test_failed_metrics_prints_nothing(tmp_path, capsys):
    pgm = tmp_path / "a.pgm"
    write_image(pgm, Image2D(np.random.default_rng(56).random((8, 8))))
    assert main(["metrics", str(pgm), str(pgm), "--max-lag", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "lag" in err


def test_order_without_lpc_rejected(tmp_path, source_wav):
    out = tmp_path / "out"
    out.mkdir()
    for argv in (
        ["whiten", str(source_wav), str(out / "w.wav"), "--order", "7"],
        ["whiten", str(source_wav), str(out / "w.wav"), "--kind", "highpass", "--order", "3"],
        ["deconv", str(source_wav), str(out / "r.wav"), "--filter-out", str(out / "f.txt"), "--order", "7"],
    ):
        assert main(argv) == 1
        assert not any(out.iterdir())


def test_experiment_command(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    report = tmp_path / "report.csv"
    cfg.write_text(
        "experiment.id = cli-demo\nsource.kind = laplace\nsource.length = 20000\n"
        "source.seed = 5\nadapt.taps = 3\nadapt.mu = 3e-6\nadapt.beta = 0.999\n"
        "adapt.warmup = 1000\nadapt.passes = 1\n"
        f"report.path = {report}\n"
    )
    assert main(["experiment", str(cfg)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("id,mode,source")
    assert lines[1].startswith("cli-demo,1d,laplace,5,20000")


def test_experiment_with_invalid_value_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("source.seed = 1\nsource.length = 1000\nadapt.beta = 1.5\n")
    assert main(["experiment", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "beta must lie in (0, 1)" in err


def test_exit_codes(tmp_path, capsys):
    # usage error
    assert main(["degrade"]) == 1
    # format error: stereo wav
    import struct

    bad = tmp_path / "bad.wav"
    frames = struct.pack("<hh", 0, 0)
    bad.write_bytes(
        b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVEfmt "
        + struct.pack("<IHHIIHH", 16, 1, 2, 8000, 32000, 4, 16)
        + b"data" + struct.pack("<I", len(frames)) + frames
    )
    assert main(["metrics", str(bad), str(bad)]) == 2
    # divergence
    src = tmp_path / "s.wav"
    write_wav(src, Signal1D(0.1 * laplace_signal(52, 5000)))
    rc = main(["deconv", str(src), str(tmp_path / "o.wav"), "--filter-out", str(tmp_path / "f.txt"),
               "--taps", "2", "--mu", "1e12", "--warmup", "16"])
    assert rc == 3
    # empty, negative and fractional sweep grids are usage errors
    for count in ("0", "-3", "2.7"):
        assert main(["sweep", str(src), str(tmp_path / "g.csv"), "--a1-range", "-0.5", "0.5", count]) == 1
    # a delay on a kind other than echo_iir, and a negative seed, are contract violations
    cfg = tmp_path / "delay.cfg"
    cfg.write_text("source.length = 5000\nsource.seed = 1\ndegrade.kind = ar2_iir\ndegrade.a1 = 0.5\ndegrade.delay = 3\n")
    assert main(["experiment", str(cfg)]) == 1
    cfg.write_text("source.length = 5000\nsource.seed = -1\n")
    assert main(["experiment", str(cfg)]) == 1
    assert main(["degrade", "synthetic:laplace", str(tmp_path / "x.wav"), "--kind", "ar2_iir", "--a1", "0.5",
                 "--length", "100", "--seed", "-1"]) == 1
    # a source of the other dimension than the kind, or data of the other
    # dimension than the output's extension, is a contract violation, and
    # no file is written
    pgm = tmp_path / "s.pgm"
    write_image(pgm, Image2D(np.random.default_rng(54).random((8, 8))))
    out = tmp_path / "out"
    out.mkdir()
    for argv in (
        ["degrade", str(pgm), str(out / "o.pgm"), "--kind", "ar2_iir", "--a1", "0.5"],
        ["degrade", str(src), str(out / "o.wav"), "--kind", "image_iir2", "--a1", "0.5"],
        ["degrade", "synthetic:laplace", str(out / "o.wav"), "--kind", "fir2", "--height", "8", "--width", "8", "--seed", "1"],
        ["degrade", str(pgm), str(out / "o.wav"), "--kind", "image_iir2", "--a1", "0.5"],
        ["whiten", str(src), str(out / "o.pgm")],
        ["deconv", str(src), str(out / "o.pgm"), "--filter-out", str(out / "f.txt"), "--taps", "3", "--mu", "3e-6", "--warmup", "16"],
    ):
        assert main(argv) == 1
        assert not any(out.iterdir())
    # an output of the wrong kind or extension fails before anything is read
    # or computed: nothing is printed, and no file is written
    big = tmp_path / "big.pgm"
    write_image(big, Image2D(np.random.default_rng(56).random((32, 32))))
    for argv, code in (
        (["deconv", str(big), str(out / "o.wav"), "--filter-out", str(out / "f.txt"), "--warmup", "100"], 1),
        (["deconv", str(src), str(out / "o.txt"), "--filter-out", str(out / "f.txt")], 2),
        (["whiten", str(src), str(out / "o.pgm")], 1),
        (["degrade", str(src), str(out / "o.pgm"), "--kind", "ar2_iir"], 1),
    ):
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().out == ""
        assert not any(out.iterdir())
    # sweep takes a WAV signal: a valid PGM is a contract violation, any
    # other extension a format error, both before the input is read
    text = tmp_path / "s.txt"
    text.write_bytes(src.read_bytes())
    for argv, code, message in (
        (["sweep", str(pgm), str(out / "s.csv")], 1, "error: sweep takes a WAV signal"),
        (["sweep", str(text), str(out / "s.csv")], 2, "format error: cannot tell WAV from PGM by extension"),
    ):
        capsys.readouterr()
        assert main(argv) == code
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith(message)
        assert not any(out.iterdir())
    # a signal and an image of the same size are not compared, in either order
    short = tmp_path / "a.wav"
    write_wav(short, Signal1D(0.1 * laplace_signal(55, 64)))
    assert main(["metrics", str(short), str(pgm), "--max-lag", "2"]) == 1
    assert main(["metrics", str(pgm), str(short), "--max-lag", "2"]) == 1


def test_degrade_synthetic_source(tmp_path):
    out = tmp_path / "synthetic.pgm"
    rc = main(["degrade", "synthetic:integrated_uniform", str(out), "--kind", "image_iir2",
               "--a1", "0.5", "--a2", "0.4", "--height", "32", "--width", "32", "--seed", "4"])
    assert rc == 0
    from kurtdeconv import read_image

    img = read_image(out)
    assert (img.height, img.width) == (32, 32)
    # missing seed is a usage-level contract violation, reported as 1
    assert main(["degrade", "synthetic:laplace", str(tmp_path / "x.wav"),
                 "--kind", "ar2_iir", "--a1", "0.5", "--length", "100"]) == 1


def test_image_pipeline(tmp_path):
    rng = np.random.default_rng(53)
    img = Image2D(rng.random((48, 48)))
    src = tmp_path / "img.pgm"
    write_image(src, img)
    blurred = tmp_path / "blur.pgm"
    assert main(["degrade", str(src), str(blurred), "--kind", "image_iir2", "--a1", "0.5", "--a2", "0.4"]) == 0
    white = tmp_path / "white.pgm"
    assert main(["whiten", str(blurred), str(white)]) == 0
    restored = tmp_path / "rest.pgm"
    rc = main(["deconv", str(blurred), str(restored), "--filter-out", str(tmp_path / "k.txt"),
               "--rows", "3", "--cols", "3", "--mu=-1e-3", "--beta", "0.999",
               "--warmup", "500", "--passes", "2", "--whiten", "highpass"])
    assert rc == 0
    assert restored.exists()
    kernel_rows = (tmp_path / "k.txt").read_text().splitlines()
    assert len(kernel_rows) == 3 and len(kernel_rows[0].split()) == 3


def test_deconv_defaults_are_the_library_configs(tmp_path):
    """Options left out take AdaptConfig's / Adapt2dConfig's defaults; a PGM
    adapts with the negative step of Adapt2dConfig."""
    src = tmp_path / "img.pgm"
    write_image(src, Image2D(np.random.default_rng(55).random((32, 32))))
    filt = tmp_path / "k.txt"
    assert main(["deconv", str(src), str(tmp_path / "rest.pgm"), "--filter-out", str(filt)]) == 0
    kernel = normalize_kernel(run_adapt(read_image(src), Adapt2dConfig()).filter)
    assert Adapt2dConfig().mu < 0
    assert [[float(v) for v in row.split()] for row in filt.read_text().splitlines()] == kernel.weights.tolist()

    wav = tmp_path / "s.wav"
    write_wav(wav, Signal1D(0.1 * laplace_signal(56, 3000)))
    assert main(["deconv", str(wav), str(tmp_path / "rest.wav"), "--filter-out", str(filt)]) == 0
    taps = normalize_taps(run_adapt(read_wav(wav), AdaptConfig()).filter)
    assert [float(v) for v in filt.read_text().splitlines()] == taps.taps.tolist()


def test_deconv_dumps_a_non_square_kernel(tmp_path):
    """A 3x5 kernel is dumped as 3 lines of 5 values, the normalized kernel."""
    src = tmp_path / "img.pgm"
    write_image(src, Image2D(np.random.default_rng(60).random((40, 50))))
    filt = tmp_path / "k.txt"
    rest = tmp_path / "rest.pgm"
    assert main(["deconv", str(src), str(rest), "--filter-out", str(filt), "--rows", "3", "--cols", "5",
                 "--mu=-1e-4", "--warmup", "64"]) == 0
    cfg = Adapt2dConfig(rows=3, cols=5, mu=-1e-4, warmup=64)
    kernel = normalize_kernel(run_adapt(read_image(src), cfg).filter)
    assert kernel.weights.shape == (3, 5)
    assert [[float(v) for v in row.split()] for row in filt.read_text().splitlines()] == kernel.weights.tolist()
    assert read_image(rest).pixels.shape == (40, 50)


def test_settings_of_other_dimension_exit_1(tmp_path, capsys):
    img = tmp_path / "img.pgm"
    write_image(img, Image2D(np.random.default_rng(57).random((32, 32))))
    wav = tmp_path / "s.wav"
    write_wav(wav, Signal1D(0.1 * laplace_signal(58, 3000)))
    filt = tmp_path / "f.txt"
    assert main(["deconv", str(img), str(tmp_path / "o.pgm"), "--filter-out", str(filt), "--taps", "5"]) == 1
    assert "--taps" in capsys.readouterr().err
    assert main(["deconv", str(wav), str(tmp_path / "o.wav"), "--filter-out", str(filt), "--rows", "5"]) == 1
    assert "--rows" in capsys.readouterr().err
    assert not filt.exists()
    for text, key in [
        ("source.length = 5000\nadapt.rows = 3\n", "adapt.rows"),
        ("source.height = 32\nsource.width = 32\nadapt.taps = 3\n", "adapt.taps"),
        ("source.length = 5000\ndegrade.a1 = 0.5\n", "degrade.a1"),
    ]:
        cfg = tmp_path / "c.cfg"
        cfg.write_text("source.seed = 1\n" + text)
        assert main(["experiment", str(cfg)]) == 1
        assert key in capsys.readouterr().err


def test_lpc_whitening_of_an_image_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("source.seed = 1\nsource.height = 8\nsource.width = 8\nwhiten.kind = lpc\n")
    assert main(["experiment", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # rejected with the config, before anything runs
    assert "lpc whitening takes a 1-D source" in err


def test_unused_source_settings_exit_1(tmp_path, capsys):
    out = tmp_path / "synthetic.pgm"
    rc = main(["degrade", "synthetic:uniform", str(out), "--kind", "image_iir2", "--a1", "0.5", "--a2", "0.4",
               "--seed", "1", "--height", "8", "--width", "8", "--length", "100"])
    assert rc == 1
    assert "source.length" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"source.kind = file\nsource.path = {tmp_path / 'x.wav'}\nsource.seed = 1\n")
    assert main(["experiment", str(cfg)]) == 1
    assert "source.seed" in capsys.readouterr().err


def test_filter_without_parameter_slot_exits_1_before_adapting(tmp_path, capsys, monkeypatch):
    import kurtdeconv.experiment

    def no_source(spec):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(kurtdeconv.experiment, "make_source", no_source)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("source.seed = 1\nsource.length = 200000\ndegrade.kind = echo_iir\ndegrade.a1 = -0.6\n"
                   "degrade.a2 = 0.3\ndegrade.delay = 100\nadapt.taps = 101\n")
    assert main(["experiment", str(cfg)]) == 1
    assert "no echo_iir slot" in capsys.readouterr().err


def test_silent_warmup_exits_1(tmp_path, capsys):
    wav = tmp_path / "s.wav"
    write_wav(wav, Signal1D(np.concatenate((np.zeros(1000), 0.1 * laplace_signal(59, 5000)))))
    filt = tmp_path / "f.txt"
    assert main(["deconv", str(wav), str(tmp_path / "o.wav"), "--filter-out", str(filt), "--warmup", "500"]) == 1
    assert "warm-up" in capsys.readouterr().err
    assert not filt.exists()


def test_unknown_extension_in_config_exits_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"source.kind = file\nsource.path = {tmp_path / 'x.txt'}\n")
    assert main(["experiment", str(cfg)]) == 2


def test_unstable_image_degradation_exits_3(tmp_path):
    out = tmp_path / "blown.pgm"
    rc = main(["degrade", "synthetic:uniform", str(out), "--kind", "image_iir3",
               "--a1", "0.99", "--a2", "0.99", "--a3", "0.99", "--seed", "1", "--height", "512", "--width", "512"])
    assert rc == 3
    assert not out.exists()


def test_lpc_whitening_of_image_is_usage_error(tmp_path):
    src = tmp_path / "img.pgm"
    write_image(src, Image2D(np.random.default_rng(54).random((32, 32))))
    filt = tmp_path / "k.txt"
    rc = main(["deconv", str(src), str(tmp_path / "rest.pgm"), "--filter-out", str(filt), "--whiten", "lpc"])
    assert rc == 1
    assert not filt.exists()
    assert main(["whiten", str(src), str(tmp_path / "white.pgm"), "--kind", "lpc"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["degrade"], "the following arguments are required: input, output, --kind"),
    (["sweep", "a.wav"], "the following arguments are required: output"),
    (["deconv", "s.wav", "o.wav", "--taps", "x"], "argument --taps: invalid int value: 'x'"),
])
def test_usage_error_prints_the_usage_and_one_error_line(argv, message, capsys):
    assert main([argv[0], "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0] + "\n"
    assert usage.startswith(f"usage: kurtdeconv {argv[0]} ")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{usage}error: {message}\n"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: kurtdeconv ") and "Exit codes:" in out
    assert err == ""


@pytest.mark.parametrize("name, argv", [
    ("run_adapt", ["deconv", "{wav}", "{dir}/o.wav", "--filter-out", "{dir}/f.txt"]),
    ("kurtosis_surface", ["sweep", "{wav}", "{dir}/g.csv"]),
])
def test_memory_exhaustion_exits_1_with_one_line(tmp_path, source_wav, capsys, monkeypatch, name, argv):
    # a size the host cannot hold, raised where the library call would
    # allocate it; no test allocates it for real
    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64")

    monkeypatch.setattr(f"kurtdeconv.cli.{name}", exhausted)
    assert main([a.format(wav=source_wav, dir=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64\n"
    assert not (tmp_path / "o.wav").exists() and not (tmp_path / "g.csv").exists()


def test_too_many_taps_for_the_signal_exit_1_unbuilt(tmp_path, source_wav, capsys, monkeypatch):
    monkeypatch.setattr(AdaptConfig, "identity", lambda cfg: pytest.fail("deconv built the filter"))
    assert main(["deconv", str(source_wav), str(tmp_path / "o.wav"), "--filter-out", str(tmp_path / "f.txt"),
                 "--taps", "1000000000000"]) == 1
    err = capsys.readouterr().err
    assert err == "error: signal length 30000 too short for warmup 256 and 1000000000000 taps\n"


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"experiment.id = caf\xe9\nsource.seed = 1\nsource.length = 5000\n")
    assert main(["experiment", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"format error: config {cfg} is not UTF-8: invalid continuation byte at byte 19\n"
