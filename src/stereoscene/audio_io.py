"""Audio buffers, WAV I/O, and the one file writer.

``replace_file`` writes every file the package writes: to a sibling temp
file, renamed over the target once complete, so a failed or killed write
leaves the old file or none. ``write_wav`` writes float32 (format 3, with a
``fact`` chunk) or PCM16, the same bytes as ``scipy.io.wavfile.write``; this
codec is the only code that knows the file format. ``read_wav`` reads
little-endian PCM u8/16/24/32 and float32/64, plain or
WAVE_FORMAT_EXTENSIBLE, skipping other chunks; any other file raises
``AudioFormatError`` naming the path and the defect.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class AudioFormatError(ValueError):
    pass


@dataclass(frozen=True)
class AudioBuffer:
    """Sampled audio. ``data`` is float64/float32 in [-1, 1], shape (n,) mono
    or (n, 2) stereo."""

    data: np.ndarray
    sample_rate: int

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim not in (1, 2) or (d.ndim == 2 and d.shape[1] not in (1, 2)):
            raise AudioFormatError(f"unsupported audio shape {d.shape}")
        object.__setattr__(self, "data", d)

    @property
    def channels(self) -> int:
        return 1 if self.data.ndim == 1 else self.data.shape[1]

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    def mono(self) -> "AudioBuffer":
        if self.channels == 1:
            return self
        return AudioBuffer(self.data.mean(axis=1), self.sample_rate)

    def channel(self, idx: int) -> np.ndarray:
        if self.channels == 1:
            if idx != 0:
                raise IndexError("mono buffer has a single channel")
            return self.data
        return self.data[:, idx]

    def resample(self, target_rate: int) -> "AudioBuffer":
        if target_rate == self.sample_rate:
            return self
        from scipy.signal import resample_poly  # loads scipy.signal only when rates differ

        g = np.gcd(int(target_rate), int(self.sample_rate))
        out = resample_poly(self.data, target_rate // g, self.sample_rate // g, axis=0)
        return AudioBuffer(out, target_rate)


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the last 12 bytes of a KSDATAFORMAT_SUBTYPE_* GUID; its first 4 hold the tag
_SUBFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> stored dtype; 24-bit samples are widened
# to the top three bytes of an int32 on read
_STORED = {(_PCM, 8): "u1", (_PCM, 16): "<i2", (_PCM, 24): "<i4", (_PCM, 32): "<i4",
           (_IEEE_FLOAT, 32): "<f4", (_IEEE_FLOAT, 64): "<f8"}


@dataclass(frozen=True)
class WavInfo:
    """A WAV file's sample format and length."""

    sample_rate: int
    channels: int
    bits: int
    dtype: np.dtype  # of the samples as read_wav reads them, before scaling
    frames: int

    def rounding_step(self, level: float) -> float:
        """One rounding step of the sample format at ``level``, on read_wav's scale."""
        if self.dtype.kind == "f":
            return float(np.spacing(self.dtype.type(level)))
        return 2.0 ** (1 - self.bits)


def read_wav_info(path) -> WavInfo:
    """Parse a WAV file's header; raise AudioFormatError for what read_wav cannot read."""
    with open(path, "rb") as f:
        return _parse_header(f, path)


def _parse_header(f, path) -> WavInfo:
    """Read from the start of the open file ``f`` through the data chunk's header."""

    def bad(defect):
        return AudioFormatError(f"{path}: {defect}")

    riff = f.read(12)
    if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
        raise bad("not a RIFF/WAVE file")
    fmt = None
    while True:
        head = f.read(8)
        if len(head) < 8:
            raise bad("no data chunk" if fmt else "no fmt chunk")
        chunk_id, size = head[:4], struct.unpack("<I", head[4:])[0]
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            body = f.read(size)
            if len(body) < size:
                raise bad(f"fmt chunk shorter than declared ({len(body)} of {size} bytes)")
            if size < 16:
                raise bad(f"fmt chunk of {size} bytes, under 16")
            fmt = struct.unpack("<HHIIHH", body[:16])
            if fmt[0] == _EXTENSIBLE:
                if size < 40 or body[28:40] != _SUBFORMAT_TAIL:
                    raise bad("WAVE_FORMAT_EXTENSIBLE without a known sub-format")
                fmt = (struct.unpack("<I", body[24:28])[0],) + fmt[1:]
            f.seek(size & 1, 1)
        else:
            f.seek(size + (size & 1), 1)
    if fmt is None:
        raise bad("no fmt chunk before the data chunk")
    tag, channels, rate, _, block_align, bits = fmt
    stored = _STORED.get((tag, bits))
    if stored is None:
        raise bad(f"unsupported sample format (tag {tag:#06x}, {bits} bits)")
    if channels < 1 or block_align != channels * bits // 8:
        raise bad(f"block align {block_align} does not fit {channels} x {bits} bits")
    available = os.fstat(f.fileno()).st_size - f.tell()
    if available < size:
        raise bad(f"data chunk shorter than declared ({available} of {size} bytes)")
    return WavInfo(rate, channels, bits, np.dtype(stored), size // block_align)


def read_wav(path) -> AudioBuffer:
    with open(path, "rb") as f:
        info = _parse_header(f, path)
        count = info.frames * info.channels
        if info.bits == 24:
            packed = np.fromfile(f, np.uint8, count * 3).reshape(count, 3)
            data = np.zeros((count, 4), np.uint8)
            data[:, 1:] = packed
            data = data.view("<i4")[:, 0]
        else:
            data = np.fromfile(f, info.dtype, count)
    if info.channels > 1:
        data = data.reshape(-1, info.channels)
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    else:
        data = data.astype(np.float64)
    return AudioBuffer(data, info.sample_rate)


def replace_file(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` to a sibling temp file, then rename it
    over ``path``; a failed write removes the temp file. Creates no directory."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_wav(path, buf: AudioBuffer, pcm16: bool = False) -> None:
    """Write float32 or, with ``pcm16``, 16-bit PCM (clipped to [-1, 1])."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = np.asarray(buf.data)
    if pcm16:
        data = np.round(np.clip(data, -1.0, 1.0) * 32767.0).astype("<i2")
        tag, fmt_tail, fact = _PCM, b"", b""
    else:
        data = data.astype("<f4")
        tag, fmt_tail = _IEEE_FLOAT, b"\x00\x00"  # cbSize: no extension
        fact = b"fact" + struct.pack("<II", 4, data.shape[0])
    channels = 1 if data.ndim == 1 else data.shape[1]
    width = data.dtype.itemsize
    fmt = struct.pack("<HHIIHH", tag, channels, buf.sample_rate,
                      buf.sample_rate * width * channels, width * channels, 8 * width) + fmt_tail
    chunks = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
    header = (b"RIFF" + struct.pack("<I", len(chunks) + 8 + data.nbytes) + chunks
              + b"data" + struct.pack("<I", data.nbytes))
    replace_file(path, header, np.ascontiguousarray(data))
