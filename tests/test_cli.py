import numpy as np
import pytest

from kurtdeconv import Signal1D, read_wav, write_wav, write_image, Image2D
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
    from kurtdeconv import ar2_iir

    sig = ar2_iir(Signal1D(0.02 * laplace_signal(51, 50_000)), 0.5, 0.3)
    write_wav(src, sig)
    out = tmp_path / "surface.csv"
    rc = main(["sweep", str(src), str(out), "--a1-range", "0.0", "0.75", "4", "--a2-range", "0.0", "0.45", "4"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a1,a2,abs_kurtosis"
    assert len(lines) == 17
    assert "argmax a1=0.5 a2=0.3" in capsys.readouterr().out


def test_metrics_command(tmp_path, source_wav, capsys):
    rc = main(["metrics", str(source_wav), str(source_wav), "--max-lag", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho (zero lag)  1.000000" in out


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


def test_exit_codes(tmp_path):
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
