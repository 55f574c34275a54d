import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kurtdeconv import (
    AdaptConfig,
    ContractViolationError,
    ExperimentConfig,
    FormatError,
    Image2D,
    Signal1D,
    SourceSpec,
    read_image,
    read_wav,
    rescale_unit,
    run_experiment,
    write_image,
    write_report_csv,
    write_wav,
)
from kurtdeconv.cli import main
from kurtdeconv.fileio import _next_pgm_token, is_image_path, read_any
from conftest import laplace_signal


def wav_bytes(pcm, channels=1, bits=16, tag=1, rate=8000):
    frames = b"".join(struct.pack("<h", v) for v in pcm)
    block = channels * bits // 8
    return (
        b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVEfmt "
        + struct.pack("<IHHIIHH", 16, tag, channels, rate, (rate * block) & 0xFFFFFFFF, block, bits)
        + b"data" + struct.pack("<I", len(frames)) + frames
    )


class TestWav:
    def test_scaling_convention(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(wav_bytes([0, 16384, -32768]))
        s = read_wav(p)
        assert s.samples.tolist() == [0.0, 0.5, -1.0]
        assert s.sample_rate == 8000

    def test_round_trip_within_one_lsb(self, tmp_path):
        p = tmp_path / "t.wav"
        rng = np.random.default_rng(0)
        s = Signal1D(rng.uniform(-0.99, 0.99, 500), sample_rate=16000)
        assert write_wav(p, s) == 0
        back = read_wav(p)
        assert back.sample_rate == 16000
        assert np.max(np.abs(back.samples - s.samples)) <= 1.0 / 32768.0

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(wav_bytes([0, 0], channels=2))
        with pytest.raises(FormatError, match="channels=2"):
            read_wav(p)

    def test_non_pcm_rejected(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(wav_bytes([0], tag=3))
        with pytest.raises(FormatError, match="tag=3"):
            read_wav(p)

    def test_eight_bit_rejected(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(wav_bytes([0], bits=8))
        with pytest.raises(FormatError, match="bits=8"):
            read_wav(p)

    def test_not_riff(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(b"OggS" + bytes(40))
        with pytest.raises(FormatError, match="RIFF"):
            read_wav(p)

    def test_clipping_reported(self, tmp_path):
        p = tmp_path / "t.wav"
        clipped = write_wav(p, Signal1D([0.0, 1.5, -0.5]))
        assert clipped == 1
        back = read_wav(p)
        assert back.samples[1] == pytest.approx(32767 / 32768)

    def test_empty_signal_rejected(self):
        with pytest.raises(ContractViolationError):
            Signal1D([])

    @pytest.mark.parametrize("data, message", [
        (b"RIFF" + struct.pack("<I", 36) + b"WAVEfmt " + struct.pack("<I", 14) + bytes(14) + b"data" + struct.pack("<I", 2) + bytes(2),
         "fmt chunk size=14 too small"),
        (wav_bytes([1])[:-10] + b"data" + struct.pack("<I", 3) + bytes(4), "data size=3 is not a whole number"),
        (wav_bytes([]), "data chunk is empty"),
        (wav_bytes([1])[:8] + b"WAVX" + wav_bytes([1])[12:], "riff form=b'WAVX' unsupported"),
        (wav_bytes([1, 2])[:-2], "chunk b'data': declared size 4 exceeds file"),
    ], ids=["short_fmt", "odd_data", "empty_data", "riff_form", "data_past_eof"])
    def test_malformed_chunk_rejected(self, tmp_path, data, message):
        p = tmp_path / "t.wav"
        p.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            read_wav(p)

    def test_read_memory_is_the_file_and_its_samples(self, tmp_path):
        # the file's bytes, its data chunk read in place, and the one float
        # array the signal adopts, divided in place: 10 bytes a sample
        n = 100_000
        p = tmp_path / "t.wav"
        write_wav(p, Signal1D(np.random.default_rng(4).uniform(-0.9, 0.9, n)))
        tracemalloc.start()
        try:
            read_wav(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * n + 16 * 1024


    def test_zero_sample_rate_rejected(self, tmp_path):
        p = tmp_path / "t.wav"
        p.write_bytes(wav_bytes([1, 2], rate=0))
        with pytest.raises(FormatError, match="sample rate=0"):
            read_wav(p)

    def test_sample_rate_beyond_byte_rate_field_rejected(self, tmp_path):
        # 2 * rate must fit the u32 byte-rate field for the file to be written back
        p = tmp_path / "t.wav"
        p.write_bytes(wav_bytes([1, 2], rate=3_000_000_000))
        with pytest.raises(FormatError, match="sample rate=3000000000"):
            read_wav(p)
        p.write_bytes(wav_bytes([1, 2], rate=0x7FFFFFFF))
        write_wav(tmp_path / "back.wav", read_wav(p))
        assert read_wav(tmp_path / "back.wav").sample_rate == 0x7FFFFFFF

    @pytest.mark.parametrize("rate", [3_000_000_000, 2**31, 8000.5])
    def test_unwritable_sample_rate_rejected_before_writing(self, tmp_path, rate):
        p = tmp_path / "t.wav"
        with pytest.raises(ContractViolationError, match="sample rate"):
            write_wav(p, Signal1D([0.1], sample_rate=rate))
        assert not p.exists()

    def test_whole_float_sample_rate_written(self, tmp_path):
        write_wav(tmp_path / "t.wav", Signal1D([0.1], sample_rate=16000.0))
        assert read_wav(tmp_path / "t.wav").sample_rate == 16000


class TestPgm:
    def test_read_values(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = read_image(p)
        assert img.pixels[0].tolist() == [0.0, 1.0]
        assert img.pixels[1, 0] == pytest.approx(128 / 255)
        assert img.pixels[1, 1] == pytest.approx(64 / 255)

    def test_round_trip_exact(self, tmp_path):
        p = tmp_path / "t.pgm"
        rng = np.random.default_rng(1)
        img = Image2D(rng.integers(0, 256, (5, 7)).astype(float) / 255.0)
        write_image(p, img)
        back = read_image(p)
        assert np.max(np.abs(back.pixels - img.pixels)) <= 1.0 / 255.0
        assert np.array_equal(back.pixels, img.pixels)

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n# a comment\n1 1\n255\n" + bytes([7]))
        assert read_image(p).pixels[0, 0] == pytest.approx(7 / 255)

    def test_ascii_pgm_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P2\n1 1\n255\n7\n")
        with pytest.raises(FormatError, match="P5"):
            read_image(p)

    def test_wrong_maxval_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n" + bytes([0, 0]))
        with pytest.raises(FormatError, match="maxval=65535"):
            read_image(p)

    def test_zero_dimensions_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n0 2\n255\n")
        with pytest.raises(FormatError, match="dimensions 0x2 invalid"):
            read_image(p)

    def test_read_memory_is_the_file_and_its_pixels(self, tmp_path):
        # the file's bytes, its raster read in place, and the one float
        # array the image adopts, divided in place: 9 bytes a pixel
        n = 256 * 256
        p = tmp_path / "t.pgm"
        write_image(p, Image2D(np.random.default_rng(5).random((256, 256))))
        tracemalloc.start()
        try:
            read_image(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 9 * n + 16 * 1024

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(FormatError, match="raster size=3 does not match 2x2"):
            read_image(p)

    def test_header_ending_at_eof_has_no_raster(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255")
        with pytest.raises(FormatError, match="raster size=0 does not match 2x2"):
            read_image(p)

    @given(st.binary(max_size=24) | st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"P5", b"12", b"\x00"]), max_size=12).map(b"".join))
    def test_tokens_match_a_byte_at_a_time_scan(self, data):
        # the header tokenizer's pattern gives the tokens, positions and
        # message of a scan that skips whitespace and '#' comments (to the
        # end of their line) byte by byte, then takes the non-space run
        def scan(data, pos):
            while pos < len(data):
                if data[pos : pos + 1].isspace():
                    pos += 1
                elif data[pos : pos + 1] == b"#":
                    while pos < len(data) and data[pos : pos + 1] != b"\n":
                        pos += 1
                else:
                    break
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            if start == pos:
                raise FormatError("header: truncated before token")
            return data[start:pos], pos

        def tokens(next_token):
            out, pos = [], 0
            while True:
                try:
                    tok, pos = next_token(data, pos)
                except FormatError as exc:
                    return out, str(exc)
                out.append((tok, pos))

        assert tokens(_next_pgm_token) == tokens(scan)

    def test_write_requires_unit_range(self, tmp_path):
        with pytest.raises(ContractViolationError):
            write_image(tmp_path / "t.pgm", Image2D([[2.0]]))


def test_rescale_unit():
    img = rescale_unit(Image2D([[1.0, 3.0], [5.0, 2.0]]))
    assert img.pixels.min() == 0.0 and img.pixels.max() == 1.0
    flat = rescale_unit(Image2D(np.full((2, 2), 4.0)))
    assert np.all(flat.pixels == 0.0)


class TestPaths:
    @pytest.mark.parametrize("path, image", [("a.pgm", True), ("A.PGM", True), ("d/a.wav", False), ("a.Wav", False)])
    def test_extension_decides(self, path, image):
        assert is_image_path(path) is image

    @pytest.mark.parametrize("path", ["a.txt", "a", "a.pgm.bak", "wav"])
    def test_other_extensions_rejected(self, path):
        with pytest.raises(FormatError, match="extension"):
            is_image_path(path)

    def test_read_any(self, tmp_path):
        write_wav(tmp_path / "s.wav", Signal1D([0.5, -0.25]))
        write_image(tmp_path / "i.pgm", Image2D([[0.0, 1.0]]))
        assert read_any(tmp_path / "s.wav").samples.tolist() == [0.5, -0.25]
        assert read_any(tmp_path / "i.pgm").pixels.tolist() == [[0.0, 1.0]]
        with pytest.raises(FormatError):
            read_any(tmp_path / "s.raw")


VALID_WAV = wav_bytes([0, 1000, -1000, 32767, -32768, 5, 6, 7])
VALID_PGM = b"P5\n# c\n3 2\n255\n" + bytes([0, 1, 2, 250, 254, 255])


@st.composite
def corrupted(draw, valid: bytes, header: int):
    """valid with its first header bytes truncated, overwritten or added to;
    half the junk is zero bytes, as in a zeroed disk block."""
    pos = draw(st.integers(0, header))
    junk = draw(st.one_of(st.binary(min_size=1, max_size=8), st.integers(1, 8).map(bytes)))
    edit = draw(st.sampled_from(("truncate", "overwrite", "insert")))
    if edit == "truncate":
        return valid[:pos]
    if edit == "overwrite":
        return valid[:pos] + junk + valid[pos + len(junk):]
    return valid[:pos] + junk + valid[pos:]


class TestCorruptFiles:
    """A damaged header is a FormatError (exit 2), never another exception."""

    @staticmethod
    def read_or_format_error(read, data, tmp_path_factory, name):
        path = tmp_path_factory.mktemp("corrupt") / name
        path.write_bytes(data)
        try:
            read(path)
        except FormatError:
            pass

    @given(data=corrupted(VALID_WAV, 44))
    def test_wav(self, data, tmp_path_factory):
        self.read_or_format_error(read_wav, data, tmp_path_factory, "corrupt.wav")

    @given(data=corrupted(VALID_PGM, 15))
    def test_pgm(self, data, tmp_path_factory):
        self.read_or_format_error(read_image, data, tmp_path_factory, "corrupt.pgm")


class TestRoundTrip:
    """Writing then reading returns the data quantized to the format's grid."""

    @given(
        samples=st.lists(st.floats(-1.0, 32767 / 32768), min_size=1, max_size=200),
        rate=st.integers(1, 0x7FFFFFFF),
    )
    def test_wav(self, samples, rate, tmp_path_factory):
        path = tmp_path_factory.mktemp("round") / "round.wav"
        s = Signal1D(samples, sample_rate=rate)
        assert write_wav(path, s) == 0
        back = read_wav(path)
        assert back.sample_rate == rate
        assert np.array_equal(back.samples, np.rint(s.samples * 32768.0) / 32768.0)
        assert np.max(np.abs(back.samples - s.samples)) <= 0.5 / 32768.0

    @given(height=st.integers(1, 16), width=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
    def test_pgm(self, height, width, seed, tmp_path_factory):
        path = tmp_path_factory.mktemp("round") / "round.pgm"
        img = Image2D(np.random.default_rng(seed).random((height, width)))
        write_image(path, img)
        back = read_image(path)
        assert np.array_equal(back.pixels, np.rint(img.pixels * 255.0) / 255.0)
        assert np.max(np.abs(back.pixels - img.pixels)) <= 0.5 / 255.0


def _report():
    source = SourceSpec(kind="laplace", seed=1, length=2000)
    return run_experiment(ExperimentConfig("atomic", source, AdaptConfig(warmup=100)))


#: Every way the package writes a file: (target, the source WAV) -> None for
#: the library writers, the exit status for the CLI ones.
WRITERS = {
    "write_wav": lambda target, src: write_wav(target, Signal1D([0.5, -0.25])),
    "write_image": lambda target, src: write_image(target, Image2D([[0.0, 1.0]])),
    "write_report_csv": lambda target, src: write_report_csv(target, [_report()]),
    "sweep": lambda target, src: main(["sweep", str(src), str(target), "--a1-range", "-0.5", "0.5", "3",
                                       "--a2-range", "-0.5", "0.5", "3"]),
    "deconv --filter-out": lambda target, src: main(["deconv", str(src), str(target.parent / "out.wav"),
                                                     "--filter-out", str(target), "--warmup", "100"]),
}


class TestAtomicWrite:
    """Every writer replaces its target whole, or leaves it as it was."""

    @pytest.fixture
    def src(self, tmp_path):
        path = tmp_path / "src.wav"
        write_wav(path, Signal1D(0.1 * laplace_signal(3, 2000)))
        return path

    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_replace_keeps_the_old_target(self, tmp_path, src, monkeypatch, writer):
        target = tmp_path / "target"
        target.write_bytes(b"old")
        replace = os.replace

        def failing_replace(tmp, dst):
            if os.path.basename(dst) == "target":
                raise OSError("replace failed")
            replace(tmp, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        if writer in ("sweep", "deconv --filter-out"):
            assert WRITERS[writer](target, src) == 1
        else:
            with pytest.raises(OSError, match="replace failed"):
                WRITERS[writer](target, src)
        assert target.read_bytes() == b"old"
        assert not list(tmp_path.glob("*.tmp*"))
        monkeypatch.undo()
        assert WRITERS[writer](target, src) in (None, 0)
        assert target.read_bytes() != b"old"
        assert not list(tmp_path.glob("*.tmp*"))

    def test_symlink_is_followed(self, tmp_path):
        real = tmp_path / "real.wav"
        real.write_bytes(b"old")
        (tmp_path / "link.wav").symlink_to(real)
        write_wav(tmp_path / "link.wav", Signal1D([0.5]))
        assert (tmp_path / "link.wav").is_symlink()
        assert read_wav(real).samples.tolist() == [0.5]

    def test_fifo_is_not_replaced(self, tmp_path, src, capsys):
        fifo = tmp_path / "out.wav"
        os.mkfifo(fifo)
        # a reader, so that a writer opening the FIFO fails this test
        # instead of blocking it
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(ContractViolationError, match="not a regular file"):
                write_wav(fifo, Signal1D([0.5]))
            assert main(["whiten", str(src), str(fifo)]) == 1
        finally:
            os.close(reader)
        assert "not a regular file" in capsys.readouterr().err
        assert fifo.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.wav", "src.wav"]

    @pytest.mark.parametrize("fifo_at", ["output", "--filter-out"])
    def test_deconv_writes_neither_file_beside_a_fifo(self, tmp_path, src, capsys, fifo_at):
        output, dump = tmp_path / "out.wav", tmp_path / "filter.txt"
        fifo = output if fifo_at == "output" else dump
        os.mkfifo(fifo)
        # a reader, so that a writer opening the FIFO fails this test
        # instead of blocking it
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["deconv", str(src), str(output), "--filter-out", str(dump), "--warmup", "100"]) == 1
        finally:
            os.close(reader)
        assert "not a regular file" in capsys.readouterr().err
        assert fifo.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([fifo.name, "src.wav"])
