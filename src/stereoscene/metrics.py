"""Stereo evaluation: GCC-PHAT TDOA, windowed TDOA series with silence
gating, MAE/MA aggregates, and Frechet distance over pooled embeddings.

Sign convention (fixed): positive TDOA means the left channel lags, i.e. the
source sits toward the right (azimuth < 90 deg).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .acoustics import next_fast_len
from .audio_io import AudioBuffer
from .scene import ValidationError, _json_value

TDOA_WINDOW_S = 0.1
SILENCE_GATE_DBFS = -16.0
MAX_LAG_S = 0.001  # > max physical ITD for an 18 cm pair; rejects room spurs
GCC_INTERP = 16
PHAT_EPS = 1e-12
EMBED_DIM = 2560
_EMBED_LAGS = 64
_EMBED_BANDS = 8
_EMBED_TIME_BUCKETS = 16


class MetricError(ValueError):
    pass


# ---------------------------------------------------------------------------
# GCC-PHAT
# ---------------------------------------------------------------------------
@lru_cache(maxsize=4)
def _lag_chirp(nfft: int, max_shift: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bluestein's chirp-z for lags -S..S (S = max_shift) of ``irfft(g, n=m)``.

    With m = nfft * GCC_INTERP, lag l is Re sum_k w_k g_k e^(2 pi i k l / m),
    w_k = 1/m at k = 0 and k = m/2 and 2/m elsewhere. As
    kl = (k^2 + l^2 - (l - k)^2) / 2, that is the lag chirp e^(i pi l^2 / m)
    times the convolution of w_k g_k e^(i pi k^2 / m) with the conjugate chirp.
    Returns the bin factors, the spectrum of the conjugate chirp over
    l - k = -S-K+1..S, shifted so that output index p holds lag p - S, and the
    lag chirp.
    """
    m = nfft * GCC_INTERP
    bins = np.arange(nfft // 2 + 1)
    size = next_fast_len(bins.size + 2 * max_shift)

    def chirp(n):  # e^(i pi n^2 / m); exact integer reduction keeps the angles in [0, 2 pi)
        return np.exp(1j * np.pi / m * (n * n % (2 * m)))

    weight = np.where((bins == 0) | (2 * bins == m), 1.0, 2.0) / m
    shifts = np.arange(1 - bins.size, 2 * max_shift + 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[shifts % size] = chirp(shifts - max_shift).conj()
    return weight * chirp(bins), np.fft.fft(kernel), chirp(np.arange(-max_shift, max_shift + 1))


def gcc_phat_correlation(frame_left, frame_right, fs: int):
    """PHAT-whitened cross-correlation over +-MAX_LAG_S.

    Frames are 1-D, or 2-D stacks with one frame per row. Returns
    (lags_seconds, correlation) with the lags on the last axis: the kept lags
    of the GCC_INTERP-times zero-padded inverse transform of the PHAT
    spectrum, by one chirp-z convolution per frame. FFTs alone compute it, so a
    frame's bits depend neither on its stack nor on the BLAS thread count. A
    frame with an all-zero channel has no PHAT spectrum and raises MetricError.
    """
    a = np.asarray(frame_left, dtype=np.float64)
    b = np.asarray(frame_right, dtype=np.float64)
    if a.shape != b.shape or a.ndim not in (1, 2):
        raise MetricError("frames must be equal-shape 1-D frames or 2-D stacks of frames")
    max_shift = int(round(MAX_LAG_S * fs * GCC_INTERP))
    if a.shape[-1] * GCC_INTERP < 2 * max_shift:
        raise MetricError("frame too short for the lag range")
    if not np.all(np.any(a, axis=-1) & np.any(b, axis=-1)):
        raise MetricError("frame with an all-zero channel (gate silence upstream)")
    nfft = 2 * a.shape[-1]
    cross = np.fft.rfft(a, n=nfft) * np.fft.rfft(b, n=nfft).conj()
    cross /= np.maximum(np.abs(cross), PHAT_EPS)
    pre, kernel, post = _lag_chirp(nfft, max_shift)
    buf = np.zeros(a.shape[:-1] + kernel.shape, dtype=complex)
    np.multiply(cross, pre, out=buf[..., :pre.size])
    np.fft.fft(buf, out=buf)
    buf *= kernel
    np.fft.ifft(buf, out=buf)
    cc = (buf[..., :post.size] * post).real
    lags = np.arange(-max_shift, max_shift + 1) / (fs * GCC_INTERP)
    return lags, cc


def gcc_phat(frame_left, frame_right, fs: int) -> float:
    """TDOA in seconds via the interpolated GCC-PHAT peak."""
    lags, cc = gcc_phat_correlation(frame_left, frame_right, fs)
    return float(lags[int(np.argmax(np.abs(cc)))])


# ---------------------------------------------------------------------------
# Windowed series
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class TdoaSeries:
    """Per-window start time (s), TDOA (s, 0 where invalid) and gate flag."""

    windows: np.ndarray
    tdoa_s: np.ndarray
    valid: np.ndarray
    window_s: float = TDOA_WINDOW_S
    # one row per valid window: 64 correlogram lags, 8 + 8 log band energies
    features: np.ndarray | None = field(default=None, repr=False)

    def valid_values(self) -> np.ndarray:
        return self.tdoa_s[self.valid]

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid))

    def mean_tdoa_ms(self) -> float | None:
        vals = self.valid_values()
        if vals.size == 0:
            return None
        return float(np.mean(vals) * 1e3)

    def mean_abs_tdoa_ms(self) -> float | None:
        vals = self.valid_values()
        if vals.size == 0:
            return None
        return float(np.mean(np.abs(vals)) * 1e3)

    def embedding(self) -> np.ndarray:
        """The window features pooled into the 2560-d ``default_embed`` vector."""
        if self.features is None:
            raise MetricError("series carries no window features")
        mat = self.features  # (W, 80)
        n = mat.shape[0]
        if n == 0:
            return np.zeros(EMBED_DIM)
        pooled_mean, pooled_max = [], []
        for b in range(_EMBED_TIME_BUCKETS):
            lo = (b * n) // _EMBED_TIME_BUCKETS
            hi = max(lo + 1, ((b + 1) * n + _EMBED_TIME_BUCKETS - 1) // _EMBED_TIME_BUCKETS)
            bucket = mat[lo:min(hi, n)]
            pooled_mean.append(bucket.mean(axis=0))
            pooled_max.append(bucket.max(axis=0))
        return np.concatenate([np.concatenate(pooled_mean), np.concatenate(pooled_max)])


def _log_band_energies(frames: np.ndarray, fs: int) -> np.ndarray:
    """Log energy per frame in geometric bands from 50 Hz to Nyquist."""
    spec = np.abs(np.fft.rfft(frames)) ** 2
    top = spec.shape[-1] - 1
    freqs = np.geomspace(50.0, fs / 2.0, _EMBED_BANDS + 1)
    edges = np.clip(np.round(freqs / (fs / 2.0) * top).astype(int), 1, top)
    sums = [spec[:, lo:hi].sum(axis=1) for lo, hi in zip(edges[:-1], edges[1:])]
    return np.log10(np.stack(sums, axis=1) + 1e-12)


def tdoa_series(stereo: AudioBuffer) -> TdoaSeries:
    """Per-window TDOA with silence gating, in one pass over the clip.

    A TDOA_WINDOW_S window is valid when the louder channel's RMS reaches
    SILENCE_GATE_DBFS and neither channel is all zero; only valid windows
    get a GCC-PHAT estimate and a feature row (the peak-normalised
    correlogram at 64 lags over +-MAX_LAG_S, then 8 log band energies per
    channel). All valid windows go through one stacked GCC-PHAT call.
    """
    if stereo.channels != 2:
        raise MetricError("tdoa_series expects a stereo buffer")
    fs = stereo.sample_rate
    win = int(round(TDOA_WINDOW_S * fs))
    n_win = stereo.n_samples // win
    left = stereo.channel(0)[:n_win * win].reshape(n_win, win)
    right = stereo.channel(1)[:n_win * win].reshape(n_win, win)
    rms = np.maximum(np.sqrt(np.mean(left ** 2, axis=1)), np.sqrt(np.mean(right ** 2, axis=1)))
    valid = ((rms >= 10.0 ** (SILENCE_GATE_DBFS / 20.0))
             & np.any(left, axis=1) & np.any(right, axis=1))

    seg_l, seg_r = left[valid], right[valid]
    lags, cc = gcc_phat_correlation(seg_l, seg_r, fs)
    mag = np.abs(cc)
    tdoa = np.zeros(n_win)
    tdoa[valid] = lags[np.argmax(mag, axis=1)]
    peak = mag.max(axis=1, keepdims=True)
    cc = cc / np.where(peak > 0, peak, 1.0)
    # linear interpolation onto the lag grid, as np.interp does per row
    lag_grid = np.linspace(-MAX_LAG_S, MAX_LAG_S, _EMBED_LAGS)
    pos = np.interp(lag_grid, lags, np.arange(lags.size))
    i0 = np.minimum(pos.astype(int), lags.size - 2)
    frac = pos - i0
    corr = cc[:, i0] + frac * (cc[:, i0 + 1] - cc[:, i0])
    features = np.concatenate(
        [corr, _log_band_energies(seg_l, fs), _log_band_energies(seg_r, fs)], axis=1)

    return TdoaSeries(windows=np.arange(n_win) * win / fs, tdoa_s=tdoa, valid=valid,
                      features=features)


# ---------------------------------------------------------------------------
# Set-level aggregates
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PairRow:
    clip_id: str
    gen_mean_ms: float | None
    ref_mean_ms: float | None
    abs_error: float | None


def gcc_mae(generated: dict[str, TdoaSeries], reference: dict[str, TdoaSeries]):
    """Mean absolute difference of per-clip mean TDOA (ms), scaled by 100.

    Clips pair by id. Returns (score, rows, skipped_ids). A pair lands in
    ``skipped`` when either side has no valid windows.
    """
    rows, skipped, errors = [], [], []
    for clip_id in sorted(generated.keys() & reference.keys()):
        g = generated[clip_id].mean_tdoa_ms()
        r = reference[clip_id].mean_tdoa_ms()
        if g is None or r is None:
            skipped.append(clip_id)
            rows.append(PairRow(clip_id, g, r, None))
            continue
        err = abs(g - r) * 100.0
        errors.append(err)
        rows.append(PairRow(clip_id, g, r, err))
    if not errors and not skipped:
        raise MetricError("no pairs to score")
    score = float(np.mean(errors)) if errors else float("nan")
    return score, rows, skipped


def gcc_ma(series_set: dict[str, TdoaSeries]):
    """Mean absolute TDOA (ms) over clips, scaled by 100: direction clarity."""
    if not series_set:
        raise MetricError("empty set")
    vals, skipped = [], []
    for clip_id in sorted(series_set):
        m = series_set[clip_id].mean_abs_tdoa_ms()
        if m is None:
            skipped.append(clip_id)
        else:
            vals.append(m)
    score = float(np.mean(vals)) * 100.0 if vals else float("nan")
    return score, skipped


# ---------------------------------------------------------------------------
# Embeddings and Frechet distance
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EmbeddingStats:
    """Mean and centred sample matrix (count, dim) of an embedding set."""

    mean: np.ndarray
    centred: np.ndarray

    def __post_init__(self):
        if self.count < 2:
            raise MetricError("need at least two embeddings for covariance")
        if self.centred.shape != (self.count, self.mean.size):
            raise MetricError("centred sample matrix shape mismatch")

    @property
    def count(self) -> int:
        return self.centred.shape[0]

    @property
    def cov(self) -> np.ndarray:
        return self.centred.T @ self.centred / (self.count - 1)

    @staticmethod
    def from_embeddings(vectors: np.ndarray) -> "EmbeddingStats":
        x = np.asarray(vectors, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise MetricError("need a (n >= 2, dim) embedding matrix")
        mean = x.mean(axis=0)
        return EmbeddingStats(mean=mean, centred=x - mean)


def frechet_distance(stats_a: EmbeddingStats, stats_b: EmbeddingStats) -> float:
    """||mu_a - mu_b||^2 + Tr(Sa + Sb - 2 (Sa Sb)^(1/2)), exactly.

    With centred sample matrices A, B and Sa = A^T A / (na - 1), the cross
    term Tr((Sa Sb)^(1/2)) is the nuclear norm of A B^T over
    sqrt((na - 1)(nb - 1)): Sa Sb shares its non-zero eigenvalues with
    (A B^T)(A B^T)^T. Only an (na, nb) matrix is decomposed.
    """
    if stats_a.mean.size != stats_b.mean.size:
        raise MetricError("embedding dimensions differ")
    a, b = stats_a.centred, stats_b.centred
    na1, nb1 = stats_a.count - 1, stats_b.count - 1
    cross = float(np.sum(np.linalg.svd(a @ b.T, compute_uv=False)))
    diff = stats_a.mean - stats_b.mean
    val = float(diff @ diff + np.sum(a * a) / na1 + np.sum(b * b) / nb1
                - 2.0 * cross / np.sqrt(na1 * nb1))
    return max(val, 0.0)


def default_embed(stereo: AudioBuffer) -> np.ndarray:
    """Deterministic 2560-d stereo embedding.

    Per valid 0.1 s window: the PHAT correlogram sampled at 64 lags spanning
    +-1 ms, plus 8 log band energies per channel (the ``tdoa_series``
    features). Windows are adaptively pooled into 16 time buckets with mean
    and max: 80 x 16 x 2 = 2560 dims. All-silent clips embed to the zero
    vector.
    """
    return tdoa_series(stereo).embedding()


# ---------------------------------------------------------------------------
# External embeddings (alternate-embedder hook) and reports
# ---------------------------------------------------------------------------
def load_embedding_file(path) -> tuple[np.ndarray, dict]:
    """Float32 binary + JSON sidecar; returns (vector, sidecar_metadata). A
    malformed sidecar (``shape`` not integers, ``mean_tdoa_ms`` not a finite
    number) raises MetricError naming it."""
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    try:
        sidecar = json.loads(sidecar_path.read_text())
        if not isinstance(sidecar, dict):
            raise ValidationError("not a JSON object")
        shape = _json_value(tuple[int, ...] | None, sidecar.get("shape"), "shape")
        _json_value(float | None, sidecar.get("mean_tdoa_ms"), "mean_tdoa_ms")
    except (OSError, ValueError) as exc:
        raise MetricError(f"{sidecar_path}: {exc}") from exc
    vec = np.fromfile(path, dtype=np.float32).astype(np.float64)
    if shape and int(np.prod(shape)) != vec.size:
        raise MetricError(f"embedding size {vec.size} does not match sidecar {shape}")
    return vec, sidecar


def load_embedding_dir(directory) -> tuple[dict[str, np.ndarray], dict[str, dict]]:
    directory = Path(directory)
    vectors, sidecars = {}, {}
    for path in sorted(directory.glob("*.bin")):
        vec, meta = load_embedding_file(path)
        vectors[path.stem] = vec
        sidecars[path.stem] = meta
    if not vectors:
        raise MetricError(f"no .bin embeddings found in {directory}")
    return vectors, sidecars


@dataclass
class MetricReport:
    gcc_mae: float
    gcc_ma: float
    fsad: float
    crw_mae: float | None = None
    rows: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    by_subset: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "gcc_mae": self.gcc_mae,
            "gcc_ma": self.gcc_ma,
            "fsad": self.fsad,
            "crw_mae": self.crw_mae,
            "skipped": list(self.skipped),
            "by_subset": self.by_subset,
            "pairs": [
                {"id": r.clip_id, "gen_mean_ms": r.gen_mean_ms,
                 "ref_mean_ms": r.ref_mean_ms, "abs_error": r.abs_error}
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
