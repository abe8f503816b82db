"""Shoebox image-source room impulse responses with fractional delays.

Walls are indexed (x0, xL, y0, yL, z0, zL): the wall at coordinate 0 and at
the room extent, per axis. Pressure reflection factors are sqrt(1 - alpha).
Speed of sound is fixed at 343 m/s; air absorption is ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import oaconvolve

from .audio_io import AudioBuffer

SPEED_OF_SOUND = 343.0
FRAC_DELAY_TAPS = 81  # Hann-windowed sinc, +-40 samples of support
EYRING_COEFF = 24.0 * math.log(10.0) / SPEED_OF_SOUND  # 0.1611 s/m

# Practical absorption bounds: below ALPHA_MIN no real wall material exists
# (demanding a longer decay is treated as unreachable), above ALPHA_MAX the
# walls are effectively perfect absorbers.
ALPHA_MIN = 0.005
ALPHA_MAX = 1.0 - 1e-6

# spreading-loss distance floor: keeps moving sources that sweep through the
# array from producing unbounded 1/(4 pi d) spikes
MIN_SPREAD_DIST = 0.2

# impulses per gather and bincount in _place_impulses: keeps the per-block
# (block, FRAC_DELAY_TAPS) kernel and index arrays at 2.6 MiB each
_PLACE_BLOCK = 4096


class AcousticsError(ValueError):
    pass


@dataclass(frozen=True)
class AbsorptionSet:
    """Per-wall energy absorption coefficients, each in (0, 1]."""

    coefficients: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        if c.shape != (6,) or np.any(c <= 0) or np.any(c > 1):
            raise AcousticsError("wall absorption must be six values in (0, 1]")

    @staticmethod
    def uniform(alpha: float) -> "AbsorptionSet":
        return AbsorptionSet(tuple([float(alpha)] * 6))

    @property
    def reflection_factors(self) -> np.ndarray:
        return np.sqrt(1.0 - np.asarray(self.coefficients, dtype=np.float64))


@dataclass(frozen=True)
class RirKernel:
    """Impulse response, shape (channels, length)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if not np.all(np.isfinite(s)):
            raise AcousticsError("RIR contains non-finite samples")
        object.__setattr__(self, "samples", s)

    @property
    def length(self) -> int:
        return self.samples.shape[1]

    def channel(self, idx: int) -> np.ndarray:
        return self.samples[idx]


def _surface_and_volume(room_dims):
    d = np.asarray(room_dims, dtype=np.float64)
    volume = float(np.prod(d))
    surface = 2.0 * float(d[0] * d[1] + d[0] * d[2] + d[1] * d[2])
    return surface, volume


def eyring_absorption(rt60_s: float, room_dims) -> float:
    """Raw Eyring inversion, no reachability bounds: alpha -> 0 as rt60 -> inf."""
    if rt60_s <= 0:
        raise AcousticsError("rt60 must be positive")
    surface, volume = _surface_and_volume(room_dims)
    return float(-np.expm1(-EYRING_COEFF * volume / (surface * rt60_s)))


def eyring_rt60(absorption: AbsorptionSet | float, room_dims) -> float:
    """Forward Eyring prediction from (area-weighted mean) absorption."""
    d = np.asarray(room_dims, dtype=np.float64)
    areas = np.array([d[1] * d[2], d[1] * d[2], d[0] * d[2], d[0] * d[2], d[0] * d[1], d[0] * d[1]])
    if isinstance(absorption, AbsorptionSet):
        alpha = float(np.sum(areas * np.asarray(absorption.coefficients)) / areas.sum())
    else:
        alpha = float(absorption)
    if alpha >= 1.0:
        return 0.0
    surface, volume = _surface_and_volume(room_dims)
    return EYRING_COEFF * volume / (surface * (-math.log(1.0 - alpha)))


def rt60_to_absorption(rt60_s: float, room_dims) -> AbsorptionSet:
    """Uniform per-wall absorption realizing the requested decay time.

    Raises when the demanded rt60 needs absorption outside
    [ALPHA_MIN, ALPHA_MAX]; the message names the achievable range for the
    given geometry.
    """
    alpha = eyring_absorption(rt60_s, room_dims)
    if not (ALPHA_MIN <= alpha <= ALPHA_MAX):
        lo = eyring_rt60(ALPHA_MAX, room_dims)
        hi = eyring_rt60(ALPHA_MIN, room_dims)
        raise AcousticsError(
            f"rt60 of {rt60_s:.3g} s is unreachable for this room "
            f"(needs absorption {alpha:.3g}); achievable range is "
            f"[{lo:.3g}, {hi:.3g}] s"
        )
    return AbsorptionSet.uniform(alpha)


_FRAC_TABLE_STEPS = 8192
_FRAC_TABLE: np.ndarray | None = None


def _frac_table() -> np.ndarray:
    """Windowed-sinc taps tabulated over the fractional offset in [-0.5, 0.5].

    Quantizing the fraction to 1/8192 sample (about 8 ns at 16 kHz) is three
    orders of magnitude below the interpolated-lag resolution the metrics
    resolve, and turns kernel evaluation into a row gather.
    """
    global _FRAC_TABLE
    if _FRAC_TABLE is None:
        half = FRAC_DELAY_TAPS // 2
        fracs = np.linspace(-0.5, 0.5, _FRAC_TABLE_STEPS + 1)
        offsets = np.arange(-half, half + 1)[None, :] - fracs[:, None]
        window = 0.5 * (1.0 + np.cos(np.pi * offsets / (half + 0.5)))
        _FRAC_TABLE = np.sinc(offsets) * window
    return _FRAC_TABLE


def _frac_delay_taps(delays_samples: np.ndarray):
    """Windowed-sinc kernels for fractional ``delays_samples``.

    Returns (start_index, kernel) with kernel shape (n, FRAC_DELAY_TAPS);
    the kernel rows are fresh copies (fancy indexing) safe to scale in place.
    """
    half = FRAC_DELAY_TAPS // 2
    rounded = np.round(delays_samples)
    base = rounded.astype(np.int64) - half
    frac_idx = np.round((delays_samples - rounded + 0.5) * _FRAC_TABLE_STEPS).astype(np.int64)
    return base, _frac_table()[frac_idx]


def _place_impulses(n_rows: int, n: int, rows: np.ndarray, delays: np.ndarray,
                    amps: np.ndarray) -> np.ndarray:
    """Sum amplitude-scaled fractional impulses into an (n_rows, n) response.

    Impulse i lands in row ``rows[i]`` at ``delays[i]`` samples; taps outside
    [0, n) are dropped. The rows sit in one flat buffer with FRAC_DELAY_TAPS of
    padding on both sides, so a block of _PLACE_BLOCK impulses scatters with
    one bincount whatever its rows; blocks go in input order, so sums are
    reproducible.
    """
    pad = FRAC_DELAY_TAPS
    width = n + 2 * pad
    flat = np.zeros(n_rows * width)
    taps = np.arange(FRAC_DELAY_TAPS)
    for start in range(0, delays.size, _PLACE_BLOCK):
        stop = start + _PLACE_BLOCK
        base, kernel = _frac_delay_taps(delays[start:stop])
        kernel *= amps[start:stop, None]
        offset = rows[start:stop] * width + pad + base
        reach = (base > -FRAC_DELAY_TAPS) & (base < n)  # some tap lands in [0, n)
        if not reach.all():
            offset, kernel = offset[reach], kernel[reach]
        idx = offset[:, None] + taps
        flat += np.bincount(idx.ravel(), weights=kernel.ravel(), minlength=flat.size)
    return flat.reshape(n_rows, width)[:, pad:pad + n].copy()


def direct_path_rir(source_pos, mic_pos, fs: int = 16000,
                    length_s: float | None = None) -> RirKernel:
    """Anechoic response: a single 1/(4 pi d) impulse at d / c per mic."""
    src = np.asarray(source_pos, dtype=np.float64)
    mics = np.atleast_2d(np.asarray(mic_pos, dtype=np.float64))
    dists = np.linalg.norm(mics - src[None, :], axis=1)
    if np.any(dists <= 0):
        raise AcousticsError("source and microphone positions coincide")
    delays = dists / SPEED_OF_SOUND * fs
    if length_s is None:
        n = int(np.ceil(delays.max())) + FRAC_DELAY_TAPS
    else:
        n = int(round(length_s * fs))
    amps = 1.0 / (4.0 * np.pi * np.maximum(dists, MIN_SPREAD_DIST))
    rows = np.arange(mics.shape[0])
    return RirKernel(samples=_place_impulses(rows.size, n, rows, delays, amps), sample_rate=fs)


@lru_cache(maxsize=4)
def _image_lattice(orders: tuple, coefficients: tuple):
    """Per-axis image indices and the reflection amplitude of every image.

    Images are ordered by wall parity (px, py, pz), then by the lattice index
    (nx, ny, nz), each lexicographically. Neither depends on source or
    microphone positions, so moving-source renders reuse them.
    """
    beta = np.sqrt(1.0 - np.asarray(coefficients, dtype=np.float64))
    ax = [np.arange(-orders[k], orders[k] + 1, dtype=np.int64) for k in range(3)]
    parities = np.array([[px, py, pz] for px in (0, 1) for py in (0, 1) for pz in (0, 1)])
    grid = np.stack(np.meshgrid(ax[0], ax[1], ax[2], indexing="ij"), axis=-1).reshape(-1, 3)
    refl_amps = []
    for p in parities:
        refl_lo = np.abs(grid - p[None, :])  # walls at coordinate 0
        refl_hi = np.abs(grid)  # walls at the room extent
        refl_amps.append(
            beta[0] ** refl_lo[:, 0] * beta[1] ** refl_hi[:, 0]
            * beta[2] ** refl_lo[:, 1] * beta[3] ** refl_hi[:, 1]
            * beta[4] ** refl_lo[:, 2] * beta[5] ** refl_hi[:, 2]
        )
    return ax, np.concatenate(refl_amps)


def compute_rir(room_dims, absorption: AbsorptionSet, source_pos, mic_pos,
                fs: int = 16000, length_s: float | None = None) -> RirKernel:
    """Image-source impulse response for a shoebox room.

    ``mic_pos`` may be one position (3,) or several (M, 3). The response
    length defaults to direct delay + 1.3x the Eyring decay estimate, and the
    image grid extends exactly far enough that every image able to land in
    that buffer is included (image energy beyond it is below -60 dB by the
    Eyring estimate).
    """
    dims = np.asarray(room_dims, dtype=np.float64)
    src = np.asarray(source_pos, dtype=np.float64)
    mics = np.atleast_2d(np.asarray(mic_pos, dtype=np.float64))
    if np.any(src <= 0) or np.any(src >= dims):
        raise AcousticsError("source must be strictly inside the room")
    dists = np.linalg.norm(mics - src[None, :], axis=1)
    if np.any(dists <= 0):
        raise AcousticsError("source and microphone positions coincide")

    if length_s is None:
        decay = eyring_rt60(absorption, dims)
        length_s = float(dists.min()) / SPEED_OF_SOUND + 1.3 * decay
    n_samples = int(round(length_s * fs)) + FRAC_DELAY_TAPS

    max_dist = (n_samples + FRAC_DELAY_TAPS) / fs * SPEED_OF_SOUND
    orders = np.ceil(max_dist / (2.0 * dims)).astype(np.int64)
    axes, refl_amps = _image_lattice(tuple(orders.tolist()), tuple(absorption.coefficients))

    # an image's coordinate on axis k is (1 - 2 p) src_k + 2 n L_k; square its
    # offset from each mic per axis, shape (M, parity, n), then sum the three
    # axes in lattice order, shape (M, images)
    m = mics.shape[0]
    sq = []
    for k in range(3):
        coord = np.array([[1.0], [-1.0]]) * src[k] + 2.0 * axes[k] * dims[k]
        diff = coord[None] - mics[:, k, None, None]
        sq.append(diff * diff)
    nx, ny, nz = (a.size for a in axes)
    dist = (sq[0].reshape(m, 2, 1, 1, nx, 1, 1) + sq[1].reshape(m, 1, 2, 1, 1, ny, 1)
            + sq[2].reshape(m, 1, 1, 2, 1, 1, nz)).reshape(m, -1)
    np.sqrt(dist, out=dist)

    keep = (dist <= max_dist) & (dist > 0) & (refl_amps > 0)
    rows = np.repeat(np.arange(m), np.count_nonzero(keep, axis=1))
    d = dist[keep]
    amps = np.broadcast_to(refl_amps, dist.shape)[keep] / (
        4.0 * np.pi * np.maximum(d, MIN_SPREAD_DIST))
    h = _place_impulses(m, n_samples, rows, d / SPEED_OF_SOUND * fs, amps)
    return RirKernel(samples=h, sample_rate=fs)


def render_static(mono: AudioBuffer, rir: RirKernel) -> AudioBuffer:
    """Convolve a mono buffer with a left/right RIR; output keeps the input length."""
    if mono.channels != 1:
        raise AcousticsError("render_static expects a mono buffer")
    if rir.sample_rate != mono.sample_rate:
        raise AcousticsError(
            f"sample-rate mismatch: clip {mono.sample_rate}, rir {rir.sample_rate}"
        )
    n = mono.n_samples
    out = np.zeros((n, 2))
    for ch in range(2):
        out[:, ch] = oaconvolve(mono.data, rir.channel(ch))[:n]
    return AudioBuffer(out, mono.sample_rate)


def stereo_rir_for(scene, source_pos) -> RirKernel:
    """Both-ear RIR for a scene's mic array at one source position."""
    mics = np.stack([scene.mic_array.left_pos, scene.mic_array.right_pos])
    if scene.anechoic:
        return direct_path_rir(source_pos, mics, scene.sample_rate)
    absorption = rt60_to_absorption(scene.rt60, scene.room_dims)
    return compute_rir(scene.room_dims, absorption, source_pos, mics, fs=scene.sample_rate)


def schroeder_decay_db(rir: np.ndarray) -> np.ndarray:
    """Backward-integrated energy decay curve in dB, normalized to 0 at start."""
    energy = np.cumsum(np.square(rir[::-1], dtype=np.float64))[::-1]
    total = energy[0]
    if total <= 0:
        raise AcousticsError("cannot integrate an all-zero impulse response")
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.maximum(energy / total, 1e-300))


RT60_BANDS_HZ = ((250, 500), (500, 1000), (1000, 2000), (2000, 4000))
RT60_FIT_DB = (-5.0, -35.0)  # Schroeder-curve span the decay slope is regressed over


def _band_rt60(band_rir: np.ndarray, fs: int) -> float | None:
    edc = schroeder_decay_db(band_rir)
    onset = int(np.argmax(np.abs(band_rir) > np.max(np.abs(band_rir)) * 0.5))
    edc = edc[onset:] - edc[onset]
    t = np.arange(edc.size) / fs
    mask = (edc <= RT60_FIT_DB[0]) & (edc >= RT60_FIT_DB[1])
    if mask.sum() < 8:
        return None
    slope = np.polyfit(t[mask], edc[mask], 1)[0]
    if slope >= 0:
        return None
    return float(-60.0 / slope)


def measure_rt60(rir: np.ndarray, fs: int) -> float:
    """Decay time to -60 dB from the Schroeder curve.

    The curve slope is regressed over the [-5, -35] dB span in octave bands
    and extrapolated to -60 dB; the band median is returned (raw image-source
    output carries non-physical near-DC energy, so broadband integration
    overestimates the tail).
    """
    from scipy.signal import butter, sosfiltfilt

    x = np.asarray(rir, dtype=np.float64)
    estimates = []
    for f_lo, f_hi in RT60_BANDS_HZ:
        sos = butter(4, (f_lo, min(f_hi, 0.49 * fs)), "bandpass", fs=fs, output="sos")
        est = _band_rt60(sosfiltfilt(sos, x), fs)
        if est is not None:
            estimates.append(est)
    if not estimates:
        raise AcousticsError("decay range too short for regression in every band")
    return float(np.median(estimates))
