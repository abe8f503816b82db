"""Audio buffers and WAV I/O (PCM16 and float32, via scipy)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile


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


def read_wav(path) -> AudioBuffer:
    rate, data = wavfile.read(str(path))
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    else:
        data = data.astype(np.float64)
    return AudioBuffer(data, int(rate))


def write_wav(path, buf: AudioBuffer, pcm16: bool = False) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    data = np.asarray(buf.data)
    if pcm16:
        clipped = np.clip(data, -1.0, 1.0)
        wavfile.write(str(path), buf.sample_rate,
                      np.round(clipped * 32767.0).astype(np.int16))
    else:
        wavfile.write(str(path), buf.sample_rate, data.astype(np.float32))

