"""Minimal WAV (16-bit PCM mono) and binary PGM readers/writers over one file writer."""
from __future__ import annotations

import contextlib
import os
import re
import struct
from collections.abc import Iterable

import numpy as np

from .errors import ContractViolationError, FormatError
from .signals import Image2D, Signal1D, _Owned


#: Largest sample rate a WAV header holds: its byte rate, 2 * rate for
#: 16-bit mono, is a u32 field.
_MAX_RATE = 0x7FFFFFFF


def is_image_path(path) -> bool:
    """True for a .pgm path, False for a .wav path (either case), FormatError
    otherwise: the one rule by which a path names an image or a signal."""
    name = str(path).lower()
    if name.endswith(".pgm"):
        return True
    if name.endswith(".wav"):
        return False
    raise FormatError(f"cannot tell WAV from PGM by extension: {str(path)!r}")


def _check_target(path) -> None:
    """An existing FIFO or device at path is a ContractViolationError."""
    if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
        raise ContractViolationError(f"{path} is not a regular file, so it cannot be replaced")


def _write_file(path, data: bytes | str | Iterable[bytes | str]) -> None:
    """The package's one file writer: data, bytes or text as UTF-8 or an
    iterable of such chunks written one by one, goes to path.tmp<pid>,
    which then replaces path (through a symlink), or is removed if anything
    fails, a chunk's generator included. _check_target(path) runs before
    anything is written."""
    _check_target(path)
    target = os.path.realpath(path)
    tmp = f"{target}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in (data,) if isinstance(data, (bytes, str)) else data:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_any(path) -> Signal1D | Image2D:
    """Read a WAV or PGM file, chosen by is_image_path."""
    return read_image(path) if is_image_path(path) else read_wav(path)


def read_wav(path) -> Signal1D:
    """Read a RIFF/WAVE file; only PCM, 16-bit, mono is accepted.

    Samples are mapped to [-1, 1) by dividing by 32768. The chunks are read
    in place, as slices of a memoryview of the file's bytes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)
    if len(data) < 12 or data[:4] != b"RIFF":
        raise FormatError("chunk id: not a RIFF file")
    if data[8:12] != b"WAVE":
        raise FormatError(f"riff form={data[8:12]!r} unsupported (want WAVE)")

    chunks, pos = {}, 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"chunk {cid!r}: declared size {size} exceeds file")
        chunks[cid] = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    fmt, raw = chunks.get(b"fmt "), chunks.get(b"data")
    if fmt is None:
        raise FormatError("fmt chunk missing")
    if raw is None:
        raise FormatError("data chunk missing")
    if len(fmt) < 16:
        raise FormatError(f"fmt chunk size={len(fmt)} too small")
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag != 1:
        raise FormatError(f"format tag={tag} unsupported (want PCM=1)")
    if channels != 1:
        raise FormatError(f"channels={channels} unsupported")
    if bits != 16:
        raise FormatError(f"bits={bits} unsupported (want 16)")
    if not 1 <= rate <= _MAX_RATE:
        raise FormatError(f"sample rate={rate} unsupported")
    if len(raw) % 2:
        raise FormatError(f"data size={len(raw)} is not a whole number of 16-bit samples")
    if len(raw) == 0:
        raise FormatError("data chunk is empty")
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    return Signal1D(_Owned(np.divide(pcm, 32768.0, out=pcm)), sample_rate=rate)


def write_wav(path, s: Signal1D) -> int:
    """Write 16-bit PCM mono; returns how many samples were hard-clipped
    to fit [-1, 1). A sample rate that is not a whole number in
    [1, 2**31 - 1] is a ContractViolationError, raised before the file
    is opened."""
    rate = s.sample_rate if s.sample_rate is not None else 8000
    if not (rate == int(rate) and 1 <= rate <= _MAX_RATE):
        raise ContractViolationError(f"sample rate {rate} does not fit a WAV header")
    rate = int(rate)
    pcm = np.rint(s.samples * 32768.0)
    clipped = int(np.count_nonzero((pcm < -32768.0) | (pcm > 32767.0)))
    raw = np.clip(pcm, -32768.0, 32767.0).astype("<i2").tobytes()
    # RIFF, then a 16-byte PCM fmt chunk (mono, 16-bit), then the data chunk
    header = struct.pack("<4sI8sIHHIIHH4sI", b"RIFF", 36 + len(raw), b"WAVEfmt ", 16, 1, 1, rate, rate * 2, 2, 16, b"data", len(raw))
    _write_file(path, header + raw)
    return clipped


#: A PGM header token: whitespace and '#' comments to the end of the line
#: skipped, then the run of non-space bytes.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _next_pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """The header token at or after pos, and the position just past it."""
    match = _PGM_TOKEN.match(data, pos)
    if not match[1]:
        raise FormatError("header: truncated before token")
    return match[1], match.end()


def read_image(path) -> Image2D:
    """Read a binary PGM (P5, maxval 255); pixels are mapped to [0, 1]. The
    raster is read in place from the file's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _next_pgm_token(data, 0)
    if magic != b"P5":
        raise FormatError(f"magic={magic!r} unsupported (want P5)")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_pgm_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"{name}={tok!r} is not an integer") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"dimensions {width}x{height} invalid")
    if maxval != 255:
        raise FormatError(f"maxval={maxval} unsupported (want 255)")
    pos += 1  # exactly one whitespace byte before the raster
    size = max(len(data) - pos, 0)
    if size != width * height:
        raise FormatError(f"raster size={size} does not match {width}x{height}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=pos).astype(np.float64).reshape(height, width)
    return Image2D(_Owned(np.divide(pixels, 255.0, out=pixels)))


def write_image(path, img: Image2D) -> None:
    """Write binary PGM; pixel values must already lie in [0, 1]."""
    p = img.pixels
    if p.min() < 0.0 or p.max() > 1.0:
        raise ContractViolationError("pixel values outside [0, 1]; rescale before writing")
    raster = np.rint(p * 255.0).astype(np.uint8).tobytes()
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    _write_file(path, header + raster)


def rescale_unit(img: Image2D) -> Image2D:
    """Affine rescale to [0, 1] (constant images map to all zeros)."""
    p = img.pixels
    lo, hi = float(p.min()), float(p.max())
    if hi <= lo:
        return Image2D(_Owned(np.zeros_like(p)))
    return Image2D(_Owned((p - lo) / (hi - lo)))
