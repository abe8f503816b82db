"""Clip conditioning and scene rendering: activity detection, 10 s crop/pad,
moving sources via grain-wise time-varying RIRs, and multi-source mixing."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.fft import irfft, rfft

from .acoustics import (AcousticsError, next_fast_len, render_static, stereo_convolve,
                        stereo_rir_for, stereo_rirs_for)
from .audio_io import AudioBuffer
from .rng import SeededRng
from .scene import SceneSpec, SourceSpec

ACTIVITY_WINDOW_S = 0.025
ACTIVITY_HOP_S = 0.010
ACTIVITY_THRESHOLD_DBFS = -40.0
MIN_SEGMENT_S = 1.0
TARGET_CLIP_S = 10.0
MOVING_HOP_S = 0.01
# runs per job outdoors: a free-field response stores about 120 taps plus the
# ITD at any distance, so a stack of 256 one-grain runs stays small
_JOB_RUNS_ANECHOIC = 256
_JOB_RUNS = 8  # runs per job in a room: one batched RIR build, one stacked FFT
# threads rendering one moving source, the calling thread included; worker
# processes of a multi-process synthesize set it to 1
RENDER_THREADS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)


class RenderError(ValueError):
    pass


@dataclass(frozen=True)
class ActivitySegment:
    start: float
    end: float

    @property
    def length(self) -> float:
        return self.end - self.start


def detect_activity(mono: AudioBuffer) -> list[ActivitySegment]:
    """Gated short-time RMS segmentation (25 ms window, 10 ms hop).

    Frames whose RMS is at or above ACTIVITY_THRESHOLD_DBFS are merged into
    segments; segments shorter than MIN_SEGMENT_S are discarded.
    """
    if mono.channels != 1:
        raise RenderError("activity detection expects mono input")
    x = np.asarray(mono.data, dtype=np.float64)
    fs = mono.sample_rate
    win = max(1, int(round(ACTIVITY_WINDOW_S * fs)))
    hop = max(1, int(round(ACTIVITY_HOP_S * fs)))
    if x.size < win:
        x = np.pad(x, (0, win - x.size))
    n_frames = 1 + (x.size - win) // hop
    threshold_rms = 10.0 ** (ACTIVITY_THRESHOLD_DBFS / 20.0)

    starts = np.arange(n_frames) * hop
    sq = np.concatenate([[0.0], np.cumsum(np.square(x))])
    frame_rms = np.sqrt((sq[starts + win] - sq[starts]) / win)
    active = frame_rms >= threshold_rms

    # +1 where a run of active frames begins, -1 one frame after it ends
    edges = np.diff(active.astype(np.int8), prepend=0, append=0)
    first, last = np.flatnonzero(edges > 0), np.flatnonzero(edges < 0) - 1
    start_s = starts[first] / fs
    end_s = np.minimum((starts[last] + win) / fs, mono.duration)
    keep = end_s - start_s >= MIN_SEGMENT_S
    return [ActivitySegment(start=a, end=b)
            for a, b in zip(start_s[keep].tolist(), end_s[keep].tolist())]


def crop_pad(mono: AudioBuffer, rng: SeededRng,
             target_s: float = TARGET_CLIP_S) -> AudioBuffer:
    """Force a clip to exactly ``target_s`` seconds.

    Short clips are zero-padded at the tail (onsets keep their timing). Long
    clips are cropped to a window anchored inside an active segment: the
    window is drawn uniformly inside a segment long enough to contain it or,
    failing that, centered on the longest active segment.
    """
    if mono.n_samples == 0:
        raise RenderError("cannot condition an empty clip")
    fs = mono.sample_rate
    target_n = int(round(target_s * fs))
    x = np.asarray(mono.data, dtype=np.float64)
    if x.shape[0] == target_n:
        return mono
    if x.shape[0] < target_n:
        return AudioBuffer(np.pad(x, (0, target_n - x.shape[0])), fs)

    segments = detect_activity(mono)
    long_enough = [s for s in segments if s.length * fs >= target_n]
    if long_enough:
        seg = long_enough[int(rng.integers(0, len(long_enough)))]
        lo = int(round(seg.start * fs))
        hi = int(round(seg.end * fs)) - target_n
        start = int(rng.integers(lo, hi + 1))
    elif segments:
        seg = max(segments, key=lambda s: s.length)
        mid = int(round((seg.start + seg.end) / 2.0 * fs))
        start = int(np.clip(mid - target_n // 2, 0, x.shape[0] - target_n))
    else:
        start = int(rng.integers(0, x.shape[0] - target_n + 1))
    return AudioBuffer(x[start:start + target_n], fs)


def _ramp(hop: int) -> np.ndarray:
    """Raised-cosine rise over one hop. A grain rises by it and falls by
    ``1 - ramp`` while the next rises, and fall + rise is exactly 1.0, so a
    still trajectory reproduces the static render."""
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(hop) / hop))


def render_moving(mono: AudioBuffer, scene: SceneSpec, source: SourceSpec) -> AudioBuffer:
    """Render a source by time-varying convolution.

    The trajectory is sampled every MOVING_HOP_S; the input is cut into
    2*hop grains with raised-cosine crossfades, each convolved with the RIR
    at its trajectory point and overlap-added. Grain j carries the position
    at j*hop, so an instant source's jump crossfades over the first grain
    boundary at or after its jump time. Consecutive grains at the same
    position form a run, whose input is faded in and out at its ends and
    convolved once.

    The runs are cut into jobs of ``_JOB_RUNS`` consecutive runs in a room
    and ``_JOB_RUNS_ANECHOIC`` outdoors; ``_render_runs`` renders one job.
    Room jobs run on ``RENDER_THREADS`` threads, the calling thread
    included, and anechoic jobs on the calling thread alone. The calling
    thread adds the results in job order, so the output bytes do not depend
    on the thread count. Responses are dropped once their job is added. A
    still source is one static convolution; grains need a sample rate above
    50 Hz.
    """
    if mono.channels != 1:
        raise RenderError("render_moving expects a mono buffer")
    if mono.sample_rate != scene.sample_rate:
        raise AcousticsError(
            f"sample-rate mismatch: clip {mono.sample_rate}, scene {scene.sample_rate}"
        )
    if source.movement == "still":
        rir = stereo_rir_for(scene, np.asarray(source.start_pos))
        return render_static(mono, rir)
    fs = scene.sample_rate
    n = mono.n_samples
    hop = int(round(MOVING_HOP_S * fs))
    if hop < 1:
        raise RenderError(f"a {source.movement} source cannot render at {fs} Hz: its "
                          f"{MOVING_HOP_S * 1e3:g} ms grains round to no sample")
    x = np.asarray(mono.data, dtype=np.float64)
    n_grains = int(np.ceil(n / hop))
    positions = source.positions(np.arange(n_grains) * MOVING_HOP_S)
    keys = np.round(positions, 9)
    firsts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
    lasts = np.r_[firsts[1:], n_grains] - 1

    # a direct-path response takes tens of microseconds, mostly interpreter
    # time, so a second thread would only contend for the interpreter lock;
    # on one thread, smaller jobs would only add calls
    threads = 1 if scene.anechoic else RENDER_THREADS
    k = _JOB_RUNS_ANECHOIC if scene.anechoic else _JOB_RUNS
    ramp = _ramp(hop)
    tasks = [partial(_render_runs, x, ramp, scene, positions, firsts[i:i + k], lasts[i:i + k])
             for i in range(0, firsts.size, k)]

    out = np.zeros((n, 2))
    for segments in _run_jobs(tasks, threads):
        for start, seg in segments:
            if start < n:  # a far response can start past the clip's end
                stop = min(start + seg.shape[1], n)
                out[start:stop] += seg[:, :stop - start].T
    return AudioBuffer(out, fs)


def _run_jobs(tasks, threads: int):
    """Yield each task's result in task order.

    The tasks run in rounds of ``threads``: the calling thread runs the
    first task of each round and ``threads - 1`` pool threads the rest.
    Working on the calling thread instead of leaving it to wait spares one
    thread's malloc arena and the peak memory it holds.
    """
    with ThreadPoolExecutor(max_workers=max(1, threads - 1)) as pool:
        for i in range(0, len(tasks), threads):
            first, *rest = tasks[i:i + threads]
            futures = [pool.submit(task) for task in rest]
            yield first()
            for future in futures:
                yield future.result()


def _render_runs(x, ramp, scene, positions, firsts, lasts):
    """[(start, (2, L) segment)] for the runs of grains firsts[i]..lasts[i],
    each through the stored taps of the response at its first grain's
    position and placed ``rir.start`` samples after the run.

    The responses come from one batch. A run of several grains is convolved
    alone; the one-grain runs are convolved in one stack, whose FFT is sized
    by their longest stored taps. A run rises over its first hop, unless it
    starts the clip, and falls over its last; between them each fall + rise
    sums to exactly 1.
    """
    hop = ramp.size
    segments, singles = [], []
    for j0, j1, rir in zip(firsts.tolist(), lasts.tolist(),
                           stereo_rirs_for(scene, positions[firsts])):
        if j0 == j1:
            singles.append((j0, rir))
            continue
        seg_in = x[j0 * hop:(j1 + 2) * hop].copy()
        if j0 > 0:
            seg_in[:hop] *= ramp
        # empty for the clip's last grain, which ends the input
        fall = seg_in[(j1 + 1 - j0) * hop:]
        fall *= (1.0 - ramp)[:fall.size]
        segments.append((j0 * hop + rir.start, stereo_convolve(seg_in, rir.taps)))
    if singles:
        taps = max(rir.taps.shape[1] for _, rir in singles)
        nfft = next_fast_len(2 * hop + taps - 1)
        inputs = np.zeros((len(singles), 2 * hop))
        kernels = np.zeros((len(singles), 2, taps))
        for i, (j, rir) in enumerate(singles):
            grain = x[j * hop:(j + 2) * hop]
            inputs[i, :grain.size] = grain
            kernels[i, :, :rir.taps.shape[1]] = rir.taps
        # the clip's first grain does not rise; its last holds no input to fall
        inputs[[j > 0 for j, _ in singles], :hop] *= ramp
        inputs[:, hop:] *= 1.0 - ramp
        segs = irfft(rfft(inputs, nfft)[:, None, :] * rfft(kernels, nfft), nfft)
        segments += [(j * hop + rir.start, segs[i, :, :2 * hop + rir.taps.shape[1] - 1])
                     for i, (j, rir) in enumerate(singles)]
    return segments


def mix_scene(rendered: list[AudioBuffer]) -> AudioBuffer:
    """Sample-wise stereo sum of the rendered sources, unscaled."""
    if not rendered:
        raise RenderError("nothing to mix")
    n = rendered[0].n_samples
    fs = rendered[0].sample_rate
    for buf in rendered[1:]:
        if buf.n_samples != n:
            raise RenderError("mix inputs must share length")
        if buf.sample_rate != fs:
            raise RenderError("mix inputs must share sample rate")
    total = np.zeros((n, 2))
    for buf in rendered:
        data = buf.data if buf.channels == 2 else np.stack([buf.data, buf.data], axis=1)
        total += data
    return AudioBuffer(total, fs)
