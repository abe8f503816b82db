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
from numpy.fft import irfft, rfft

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

# stereo_convolve's fixed cost per overlap-add block, in the units of its
# n log2 n transform estimate (about 0.1 us on a 2-CPU x86 box)
_OA_BLOCK_COST = 400


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
        # a tuple, so that the set can key the cached image lattice
        object.__setattr__(self, "coefficients", tuple(c.tolist()))

    @staticmethod
    def uniform(alpha: float) -> "AbsorptionSet":
        return AbsorptionSet(tuple([float(alpha)] * 6))

    @property
    def reflection_factors(self) -> np.ndarray:
        return np.sqrt(1.0 - np.asarray(self.coefficients, dtype=np.float64))


# the free field as a room: every reflection factor is 0
_FREE_FIELD = AbsorptionSet.uniform(1.0)


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


def _blocks(group_sizes):
    """(start, stop) impulse ranges that _place_impulses scatters at once.

    Each group is cut at its own multiples of _PLACE_BLOCK, and the pieces are
    packed in order into blocks of at most _PLACE_BLOCK impulses. A group then
    splits exactly as it would alone, and no block holds two of its pieces.
    """
    bounds, start, stop = [], 0, 0
    for size in group_sizes:
        for first in range(0, int(size), _PLACE_BLOCK):
            piece = min(_PLACE_BLOCK, int(size) - first)
            if stop + piece - start > _PLACE_BLOCK:
                bounds.append((start, stop))
                start = stop
            stop += piece
    if stop > start:
        bounds.append((start, stop))
    return bounds


def _place_impulses(lengths: np.ndarray, m: int, rows: np.ndarray, delays: np.ndarray,
                    amps: np.ndarray, group_sizes) -> list[np.ndarray]:
    """Sum amplitude-scaled fractional impulses into responses of ``m`` rows.

    Response g has ``lengths[g]`` samples per row and takes rows g*m to
    g*m + m - 1. Impulse i lands in row ``rows[i]`` (non-decreasing) at
    ``delays[i]`` samples; taps outside the row are dropped. ``group_sizes``
    counts each response's impulses (see _blocks). The rows sit in one flat
    buffer with FRAC_DELAY_TAPS of padding on both sides, so a block scatters
    with one bincount over the span of the rows it touches. Every sample sums
    the impulses of its own response in input order and block by block, so a
    response is bit-identical whatever else is in the batch. Returns one
    (m, lengths[g]) array per response.
    """
    pad = FRAC_DELAY_TAPS
    row_len = np.repeat(lengths, m)
    row_start = np.concatenate([[0], np.cumsum(row_len + 2 * pad)])
    flat = np.zeros(int(row_start[-1]))
    taps = np.arange(FRAC_DELAY_TAPS)
    for start, stop in _blocks(group_sizes):
        base, kernel = _frac_delay_taps(delays[start:stop])
        kernel *= amps[start:stop, None]
        block_rows = rows[start:stop]
        lo, hi = row_start[block_rows[0]], row_start[block_rows[-1] + 1]
        offset = row_start[block_rows] - lo + pad + base
        reach = (base > -FRAC_DELAY_TAPS) & (base < row_len[block_rows])  # a tap lands in the row
        if not reach.all():
            offset, kernel = offset[reach], kernel[reach]
        idx = offset[:, None] + taps
        flat[lo:hi] += np.bincount(idx.ravel(), weights=kernel.ravel(), minlength=hi - lo)
    return [flat[row_start[g * m]:row_start[g * m + m]].reshape(m, -1)[:, pad:pad + n].copy()
            for g, n in enumerate(lengths.tolist())]


def _lengths(dims, absorption: AbsorptionSet | None, srcs: np.ndarray, mics: np.ndarray,
             fs: int) -> np.ndarray:
    """Response samples at each source position of ``srcs`` (P, 3); raises
    when a source and a microphone coincide.

    Free field (``absorption`` None): up to the last direct impulse. In a
    room: the nearest direct delay plus 1.3x the Eyring decay time.
    """
    dists = np.linalg.norm(mics[None, :, :] - srcs[:, None, :], axis=2)
    if np.any(dists <= 0):
        raise AcousticsError("source and microphone positions coincide")
    if absorption is None:
        last = np.ceil((dists / SPEED_OF_SOUND * fs).max(axis=1))
        return last.astype(np.int64) + FRAC_DELAY_TAPS
    end_s = dists.min(axis=1) / SPEED_OF_SOUND + 1.3 * eyring_rt60(absorption, dims)
    return np.round(end_s * fs).astype(np.int64) + FRAC_DELAY_TAPS


@lru_cache(maxsize=4)
def _image_lattice(orders: tuple, absorption: AbsorptionSet):
    """Per-axis image indices and the reflection amplitude of every image.

    Images are ordered by wall parity (px, py, pz), then by the lattice index
    (nx, ny, nz), each lexicographically. Neither depends on source or
    microphone positions, so moving-source renders reuse them.
    """
    beta = absorption.reflection_factors
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


def compute_rir(room_dims, absorption: AbsorptionSet | None, source_pos, mic_pos,
                fs: int = 16000) -> RirKernel:
    """Image-source impulse response for a shoebox room.

    ``mic_pos`` may be one position (3,) or several (M, 3). The response
    length is the direct delay + 1.3x the Eyring decay estimate, and the
    image grid extends exactly far enough that every image able to land in
    that buffer is included (image energy beyond it is below -60 dB by the
    Eyring estimate). ``absorption`` None is the free field: only the direct
    image sounds, and the response ends with the last direct impulse.
    """
    src = np.asarray(source_pos, dtype=np.float64)
    return compute_rirs(room_dims, absorption, src[None, :], mic_pos, fs)[0]


def compute_rirs(room_dims, absorption: AbsorptionSet | None, sources, mic_pos,
                 fs: int = 16000) -> list[RirKernel]:
    """compute_rir at each source position of ``sources`` (P, 3), in one pass.

    Each response is bit-identical to the one built for its position alone:
    its own length and image reach, its kept images in the same order, summed
    in the same blocks. The lattice is built at the batch's largest orders;
    every image outside a position's own lattice lies beyond its reach, and
    the lattice order of the rest is unchanged.
    """
    dims = np.asarray(room_dims, dtype=np.float64)
    srcs = np.atleast_2d(np.asarray(sources, dtype=np.float64))
    mics = np.atleast_2d(np.asarray(mic_pos, dtype=np.float64))
    if np.any(srcs <= 0) or np.any(srcs >= dims):
        raise AcousticsError("source must be strictly inside the room")
    n_samples = _lengths(dims, absorption, srcs, mics, fs)
    max_dist = (n_samples + FRAC_DELAY_TAPS) / fs * SPEED_OF_SOUND
    if absorption is None:  # every image but the direct one is silent
        axes, refl_amps = _image_lattice((0, 0, 0), _FREE_FIELD)
    else:
        orders = np.ceil(max_dist[:, None] / (2.0 * dims)).astype(np.int64).max(axis=0)
        axes, refl_amps = _image_lattice(tuple(orders.tolist()), absorption)

    # an image's coordinate on axis k is (1 - 2 p) src_k + 2 n L_k; square its
    # offset from each mic per axis, shape (P, M, parity, n), then sum the
    # three axes in lattice order, shape (P, M, images)
    p, m = srcs.shape[0], mics.shape[0]
    sq = []
    for k in range(3):
        coord = np.array([[1.0], [-1.0]]) * srcs[:, k, None, None] + 2.0 * axes[k] * dims[k]
        diff = coord[:, None] - mics[None, :, k, None, None]
        sq.append(diff * diff)
    nx, ny, nz = (a.size for a in axes)
    dist = (sq[0].reshape(p, m, 2, 1, 1, nx, 1, 1) + sq[1].reshape(p, m, 1, 2, 1, 1, ny, 1)
            + sq[2].reshape(p, m, 1, 1, 2, 1, 1, nz)).reshape(p, m, -1)
    np.sqrt(dist, out=dist)

    keep = (dist <= max_dist[:, None, None]) & (dist > 0) & (refl_amps > 0)
    counts = np.count_nonzero(keep, axis=2)
    d = dist[keep]
    amps = np.broadcast_to(refl_amps, dist.shape)[keep]
    del dist, keep  # the lattice-sized arrays go before the scatter
    amps /= 4.0 * np.pi * np.maximum(d, MIN_SPREAD_DIST)
    rows = np.repeat(np.arange(p * m), counts.ravel())
    placed = _place_impulses(n_samples, m, rows, d / SPEED_OF_SOUND * fs, amps,
                             counts.sum(axis=1))
    return [RirKernel(samples=h, sample_rate=fs) for h in placed]


def next_fast_len(n: int) -> int:
    """The smallest 5-smooth number (2**a * 3**b * 5**c) >= n: a fast size
    for a real FFT, equal to ``scipy.fft.next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _oa_transform_size(n: int, taps: int) -> int:
    """Transform size for overlap-add of ``n`` input samples with ``taps`` taps.

    Minimises an n log n estimate of the work: per block, one input rfft, two
    output irffts and a fixed per-block overhead, plus the kernel's two
    rffts. The candidates take input blocks of 2**k samples, or the whole
    input in a single transform.
    """
    n = max(n, 1)

    def cost(nfft):
        blocks = -(-n // (nfft - taps + 1))
        return (3 * blocks + 2) * nfft * math.log2(nfft) + blocks * _OA_BLOCK_COST

    sizes = [next_fast_len(taps - 1 + (1 << k))
             for k in range(max(1, (taps - 1).bit_length()), (n - 1).bit_length())]
    return min(sizes + [next_fast_len(n + taps - 1)], key=cost)


def stereo_convolve(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Full convolution of a mono signal (n,) with each row of a (2, L) kernel.

    Overlap-add (Stockham, AFIPS 1966): the input is cut into blocks, each
    block takes one rfft shared by both kernel rows, and the block outputs
    are added at their offsets. Returns shape (2, n + L - 1).
    """
    n, taps = x.size, kernel.shape[1]
    nfft = _oa_transform_size(n, taps)
    step = nfft - taps + 1  # input samples per block
    blocks = -(-n // step)
    padded = np.zeros(blocks * step)
    padded[:n] = x
    y = irfft(rfft(padded.reshape(blocks, step), nfft)[None] * rfft(kernel, nfft)[:, None], nfft)
    if blocks == 1:
        return y[:, 0, :n + taps - 1]
    # piece j of every block's output lands j steps after the block's start
    out = np.zeros((2, (blocks + -(-nfft // step)) * step))
    for j in range(0, nfft, step):
        piece = y[:, :, j:j + step]
        out[:, j:j + blocks * step].reshape(2, blocks, step)[:, :, :piece.shape[2]] += piece
    return out[:, :n + taps - 1]


def render_static(mono: AudioBuffer, rir: RirKernel) -> AudioBuffer:
    """Convolve a mono buffer with a left/right RIR; output keeps the input length."""
    if mono.channels != 1:
        raise AcousticsError("render_static expects a mono buffer")
    if rir.sample_rate != mono.sample_rate:
        raise AcousticsError(
            f"sample-rate mismatch: clip {mono.sample_rate}, rir {rir.sample_rate}"
        )
    n = mono.n_samples
    out = np.ascontiguousarray(stereo_convolve(mono.data, rir.samples)[:, :n].T)
    return AudioBuffer(out, mono.sample_rate)


def _stereo_mics(scene) -> np.ndarray:
    return np.stack([scene.mic_array.left_pos, scene.mic_array.right_pos])


def stereo_rir_for(scene, source_pos) -> RirKernel:
    """Both-ear RIR for a scene's mic array at one source position."""
    return stereo_rirs_for(scene, np.asarray(source_pos)[None, :])[0]


def _scene_absorption(scene) -> AbsorptionSet | None:
    return None if scene.anechoic else rt60_to_absorption(scene.rt60, scene.room_dims)


def stereo_rirs_for(scene, positions) -> list[RirKernel]:
    """stereo_rir_for at each of ``positions`` (P, 3), bit for bit, in one batch."""
    return compute_rirs(scene.room_dims, _scene_absorption(scene), positions,
                        _stereo_mics(scene), scene.sample_rate)


def stereo_rir_lengths(scene, positions) -> np.ndarray:
    """Samples in the stereo_rir_for response at each of ``positions`` (P, 3),
    without building it."""
    return _lengths(scene.room_dims, _scene_absorption(scene),
                    np.atleast_2d(np.asarray(positions, dtype=np.float64)),
                    _stereo_mics(scene), scene.sample_rate)


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
