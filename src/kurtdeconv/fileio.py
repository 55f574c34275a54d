"""Minimal WAV (16-bit PCM mono) and binary PGM readers/writers."""
from __future__ import annotations

import struct

import numpy as np

from .errors import ContractViolationError, FormatError
from .signals import Image2D, Signal1D


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


def read_any(path) -> Signal1D | Image2D:
    """Read a WAV or PGM file, chosen by is_image_path."""
    return read_image(path) if is_image_path(path) else read_wav(path)


def read_wav(path) -> Signal1D:
    """Read a RIFF/WAVE file; only PCM, 16-bit, mono is accepted.

    Samples are mapped to [-1, 1) by dividing by 32768.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF":
        raise FormatError("chunk id: not a RIFF file")
    if data[8:12] != b"WAVE":
        raise FormatError(f"riff form={data[8:12]!r} unsupported (want WAVE)")

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"chunk {cid!r}: declared size {size} exceeds file")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

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
    return Signal1D(pcm / 32768.0, sample_rate=rate)


def write_wav(path, s: Signal1D) -> int:
    """Write 16-bit PCM mono; returns how many samples were hard-clipped
    to fit [-1, 1). A sample rate that is not a whole number in
    [1, 2**31 - 1] is a ContractViolationError, raised before the file
    is opened."""
    rate = s.sample_rate if s.sample_rate is not None else 8000
    if not (rate == int(rate) and 1 <= rate <= _MAX_RATE):
        raise ContractViolationError(f"sample rate {rate} does not fit a WAV header")
    rate = int(rate)
    x = s.samples
    pcm = np.rint(x * 32768.0)
    clipped = int(np.count_nonzero((pcm < -32768.0) | (pcm > 32767.0)))
    pcm = np.clip(pcm, -32768.0, 32767.0).astype("<i2")
    raw = pcm.tobytes()
    header = (
        b"RIFF"
        + struct.pack("<I", 36 + len(raw))
        + b"WAVEfmt "
        + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
        + b"data"
        + struct.pack("<I", len(raw))
    )
    with open(path, "wb") as fh:
        fh.write(header + raw)
    return clipped


def _next_pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines
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


def read_image(path) -> Image2D:
    """Read a binary PGM (P5, maxval 255); pixels are mapped to [0, 1]."""
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
    raster = data[pos:]
    if len(raster) != width * height:
        raise FormatError(f"raster size={len(raster)} does not match {width}x{height}")
    pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.float64).reshape(height, width)
    return Image2D(pixels / 255.0)


def write_image(path, img: Image2D) -> None:
    """Write binary PGM; pixel values must already lie in [0, 1]."""
    p = img.pixels
    if p.min() < 0.0 or p.max() > 1.0:
        raise ContractViolationError("pixel values outside [0, 1]; rescale before writing")
    raster = np.rint(p * 255.0).astype(np.uint8).tobytes()
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + raster)


def rescale_unit(img: Image2D) -> Image2D:
    """Affine rescale to [0, 1] (constant images map to all zeros)."""
    p = img.pixels
    lo, hi = float(p.min()), float(p.max())
    if hi <= lo:
        return Image2D(np.zeros_like(p))
    return Image2D((p - lo) / (hi - lo))
