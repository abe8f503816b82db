from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import oaconvolve

from stereoscene import render
from stereoscene.acoustics import render_static, stereo_rir_for, stereo_rirs_for
from stereoscene.audio_io import AudioBuffer
from stereoscene.pipeline import master
from stereoscene.render import (
    ACTIVITY_HOP_S,
    ACTIVITY_THRESHOLD_DBFS,
    ACTIVITY_WINDOW_S,
    MIN_SEGMENT_S,
    MOVING_HOP_S,
    ActivitySegment,
    RenderError,
    crop_pad,
    detect_activity,
    mix_scene,
    render_moving,
)
from stereoscene.rng import SeededRng
from stereoscene.scene import MicArray, SceneSpec, SourceSpec

from conftest import (
    geometric_itd_s,
    moving_source,
    open_field_scene,
    polar_pos,
    rms_normalize,
    still_source,
)
from stereoscene.metrics import tdoa_series


# ---------------------------------------------------------------------------
# activity detection
# ---------------------------------------------------------------------------
def test_silence_has_no_segments():
    assert detect_activity(AudioBuffer(np.zeros(16000 * 3), 16000)) == []


def test_full_scale_tone_is_one_segment():
    t = np.arange(16000 * 10) / 16000
    buf = AudioBuffer(0.9 * np.sin(2 * np.pi * 440 * t), 16000)
    segs = detect_activity(buf)
    assert len(segs) == 1
    assert segs[0].start < 0.05 and segs[0].end > 9.9


def test_short_burst_discarded():
    x = np.zeros(16000 * 5)
    x[16000 * 2: 16000 * 2 + 8000] = 0.5  # 0.5 s burst
    assert detect_activity(AudioBuffer(x, 16000)) == []


def test_two_separated_segments():
    x = np.zeros(16000 * 10)
    rng = np.random.default_rng(0)
    x[16000 * 1: 16000 * 3] = rng.standard_normal(16000 * 2) * 0.3
    x[16000 * 6: 16000 * 9] = rng.standard_normal(16000 * 3) * 0.3
    segs = detect_activity(AudioBuffer(x, 16000))
    assert len(segs) == 2
    assert abs(segs[0].start - 1.0) < 0.05 and abs(segs[1].end - 9.0) < 0.05


def _detect_activity_loop(mono):
    """detect_activity with its frame-by-frame merge loop: the reference."""
    x = np.asarray(mono.data, dtype=np.float64)
    fs = mono.sample_rate
    win = max(1, int(round(ACTIVITY_WINDOW_S * fs)))
    hop = max(1, int(round(ACTIVITY_HOP_S * fs)))
    if x.size < win:
        x = np.pad(x, (0, win - x.size))
    n_frames = 1 + (x.size - win) // hop
    starts = np.arange(n_frames) * hop
    sq = np.concatenate([[0.0], np.cumsum(np.square(x))])
    active = np.sqrt((sq[starts + win] - sq[starts]) / win) >= 10.0 ** (ACTIVITY_THRESHOLD_DBFS / 20.0)
    segments = []
    i = 0
    while i < n_frames:
        if not active[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_frames and active[j + 1]:
            j += 1
        start_s = starts[i] / fs
        end_s = min((starts[j] + win) / fs, mono.duration)
        if end_s - start_s >= MIN_SEGMENT_S:
            segments.append(ActivitySegment(start=start_s, end=end_s))
        i = j + 1
    return segments


@settings(max_examples=60, deadline=None)
@given(fs=st.sampled_from([8000, 16000, 22050]),
       runs=st.lists(st.tuples(st.booleans(), st.integers(1, 2500)), min_size=1, max_size=10))
def test_detect_activity_matches_frame_loop(fs, runs):
    # gated runs of random length (ms), loud or quiet, cut anywhere in a frame
    x = np.concatenate([np.full(max(1, ms * fs // 1000), 0.1 if loud else 1e-3)
                        for loud, ms in runs])
    buf = AudioBuffer(x, fs)
    got = [(s.start, s.end) for s in detect_activity(buf)]
    assert got == [(s.start, s.end) for s in _detect_activity_loop(buf)]


# ---------------------------------------------------------------------------
# crop / pad
# ---------------------------------------------------------------------------
def test_pad_short_clip_at_tail():
    x = np.linspace(1.0, 0.5, 16000 * 4)
    out = crop_pad(AudioBuffer(x, 16000), SeededRng(0))
    assert out.n_samples == 160000
    np.testing.assert_array_equal(out.data[: 16000 * 4], x)
    assert np.all(out.data[16000 * 4:] == 0)


def test_identity_for_exact_length(noise_clip):
    assert crop_pad(noise_clip, SeededRng(0)) is noise_clip


def test_crop_lands_inside_active_segment():
    # 30 s clip: silence, then 14 s of activity, then silence
    rng = np.random.default_rng(9)
    x = np.zeros(16000 * 30)
    x[16000 * 8: 16000 * 22] = rng.standard_normal(16000 * 14) * 0.4
    buf = AudioBuffer(x, 16000)
    segs = detect_activity(buf)
    out = crop_pad(buf, SeededRng(123))
    assert out.n_samples == 160000
    # deterministic and fully inside the detected segment: no silent edges
    rms = np.sqrt(np.mean(out.data ** 2))
    assert rms > 0.3
    again = crop_pad(buf, SeededRng(123))
    np.testing.assert_array_equal(out.data, again.data)
    assert len(segs) == 1


def test_crop_without_long_segment_centers_on_longest():
    rng = np.random.default_rng(10)
    x = np.zeros(16000 * 30)
    x[16000 * 5: 16000 * 9] = rng.standard_normal(16000 * 4) * 0.4  # 4 s burst
    out = crop_pad(AudioBuffer(x, 16000), SeededRng(5))
    # the full burst is inside the window
    energy_window = float(np.sum(out.data ** 2))
    energy_total = float(np.sum(x ** 2))
    assert energy_window / energy_total > 0.999


def test_empty_clip_rejected():
    with pytest.raises(RenderError):
        crop_pad(AudioBuffer(np.zeros(0), 16000), SeededRng(0))


# ---------------------------------------------------------------------------
# moving render
# ---------------------------------------------------------------------------
def _outdoor_sweep(noise_clip):
    src = moving_source(30.0, 150.0, 15.0)
    # 9.995 s: the last grain is cut short
    return AudioBuffer(noise_clip.data[:159920], 16000), open_field_scene([src]), src


def _small_room_sweep(noise_clip):
    mic = MicArray(center=(4.0, 4.0, 2.0), half_spacing=0.085)
    src = SourceSpec(start_pos=(4.0, 6.0, 2.0), end_pos=(6.0, 4.0, 2.0),
                     angle=0.0, distance=2.0, movement="moving", end_angle=90.0,
                     end_distance=2.0, speed_ratio=0.3, move_start=0.2,
                     move_interval=0.6, audio_ref="")
    scene = SceneSpec(room_dims=(8.0, 8.0, 4.0), rt60=0.3, mic_array=mic,
                      sources=(src,), duration=2.0, sample_rate=16000)
    return AudioBuffer(noise_clip.data[: 16000 * 2], 16000), scene, src


def _small_room_full_sweep(noise_clip):
    # moving over the whole 0.5 s clip, every run is one grain, so the clip's
    # first grain (which does not rise) and its last go through the stacked FFT
    _, scene, sweep = _small_room_sweep(noise_clip)
    src = replace(sweep, move_start=0.0, move_interval=0.5)
    return (AudioBuffer(noise_clip.data[:8000], 16000),
            replace(scene, sources=(src,), duration=0.5), src)


def _degenerate_motion(noise_clip):
    pos = polar_pos(70.0, 12.0)
    src = SourceSpec(start_pos=pos, end_pos=pos, angle=70.0, distance=12.0,
                     movement="moving", end_angle=70.0, end_distance=12.0,
                     speed_ratio=0.5, move_start=1.0, move_interval=5.0)
    return noise_clip, open_field_scene([src]), src


def _far_outdoor_sweep(noise_clip):
    # 40 m away, every response starts about 1,820 samples in, so the runs
    # near the clip's end are placed past it
    src = moving_source(30.0, 150.0, 40.0)
    return noise_clip, open_field_scene([src]), src


def _outdoor_jump(noise_clip):
    src = SourceSpec(start_pos=polar_pos(40.0, 9.0), end_pos=polar_pos(130.0, 20.0),
                     angle=40.0, distance=9.0, movement="instant", end_angle=130.0,
                     end_distance=20.0, instant_time=4.567)
    return noise_clip, open_field_scene([src]), src


def _small_room_jump(noise_clip):
    clip, scene, sweep = _small_room_sweep(noise_clip)
    src = SourceSpec(start_pos=sweep.start_pos, end_pos=sweep.end_pos, angle=0.0,
                     distance=2.0, movement="instant", end_angle=90.0, end_distance=2.0,
                     instant_time=1.234)
    return clip, replace(scene, sources=(src,)), src


def test_degenerate_motion_equals_static(noise_clip):
    _, scene, src = _degenerate_motion(noise_clip)
    moved = render_moving(noise_clip, scene, src)
    rir = stereo_rir_for(scene, np.asarray(src.start_pos))
    static = render_static(noise_clip, rir)
    residual = np.abs(moved.data - static.data).max()
    assert residual < np.abs(static.data).max() * 1e-3  # well under -60 dB


def test_moving_duration_exact(noise_clip):
    src = moving_source(30.0, 150.0, 15.0)
    scene = open_field_scene([src])
    out = render_moving(noise_clip, scene, src)
    assert out.n_samples == noise_clip.n_samples
    assert out.channels == 2


def test_moving_tdoa_monotone_and_endpoints(noise_clip):
    src = moving_source(45.0, 135.0, 15.0, move_start=1.0, move_interval=8.0)
    scene = open_field_scene([src])
    out = rms_normalize(render_moving(noise_clip, scene, src))
    series = tdoa_series(out)
    vals = series.valid_values()
    assert vals.size >= 90
    bin_s = 1.0 / (16 * 16000)
    # moving left means TDOA non-increasing, one quantization step of slack
    assert np.all(np.diff(vals) <= bin_s + 1e-12)
    start_itd = geometric_itd_s(scene, src.start_pos)
    end_itd = geometric_itd_s(scene, src.end_pos)
    assert abs(vals[0] - start_itd) <= 2 * bin_s
    assert abs(vals[-1] - end_itd) <= 2 * bin_s


def test_instant_jump_two_plateaus(noise_clip):
    src = SourceSpec(start_pos=polar_pos(30.0, 12.0), end_pos=polar_pos(150.0, 12.0),
                     angle=30.0, distance=12.0, movement="instant", end_angle=150.0,
                     end_distance=12.0, instant_time=5.0)
    scene = open_field_scene([src])
    out = rms_normalize(render_moving(noise_clip, scene, src))
    series = tdoa_series(out)
    before = series.tdoa_s[series.valid & (series.windows < 4.8)].tolist()
    after = series.tdoa_s[series.valid & (series.windows > 5.1)].tolist()
    assert len(set(np.round(before, 7))) == 1
    assert len(set(np.round(after, 7))) == 1
    assert abs(before[0] - geometric_itd_s(scene, src.start_pos)) < 1e-5
    assert abs(after[0] - geometric_itd_s(scene, src.end_pos)) < 1e-5


def test_moving_indoor_small_room(noise_clip):
    # time-varying RIRs in a reverberant room stay finite and keep length
    clip, scene, src = _small_room_sweep(noise_clip)
    out = render_moving(clip, scene, src)
    assert out.n_samples == clip.n_samples
    assert np.all(np.isfinite(out.data))
    assert np.abs(out.data).max() > 0


def _per_grain_reference(mono, scene, source, rir_for):
    """One oaconvolve per 10 ms grain and channel, RIRs cached per position."""
    hop = int(round(MOVING_HOP_S * scene.sample_rate))
    x, n = mono.data, mono.n_samples
    n_grains = int(np.ceil(n / hop))
    # raised-cosine crossfades; the first grain starts at 1, the last ends at 1
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(hop) / hop))
    windows = np.ones((n_grains, 2 * hop))
    windows[1:, :hop] = ramp
    windows[:-1, hop:] = 1.0 - ramp
    out = np.zeros((n, 2))
    cache = {}
    for j, pos in enumerate(source.positions(np.arange(n_grains) * MOVING_HOP_S)):
        key = tuple(np.round(pos, 9))
        if key not in cache:
            cache[key] = rir_for(scene, pos)
        start = j * hop
        grain = x[start:start + 2 * hop]
        for ch in range(2):
            seg = oaconvolve(grain * windows[j, :grain.size], cache[key].samples[ch])
            stop = min(start + seg.size, n)
            out[start:stop, ch] += seg[:stop - start]
    return out


@pytest.mark.parametrize("case", [_outdoor_sweep, _far_outdoor_sweep, _small_room_sweep,
                                  _small_room_full_sweep, _degenerate_motion, _outdoor_jump,
                                  _small_room_jump])
def test_moving_render_matches_per_grain_reference(case, noise_clip, monkeypatch):
    clip, scene, src = case(noise_clip)
    built, calls = {}, []

    def rir_once(scene, pos):
        key = tuple(np.round(pos, 9))
        if key not in built:
            built[key] = stereo_rir_for(scene, pos)
        return built[key]

    def counted(scene, pos):
        calls.append(tuple(np.round(pos, 9)))
        return rir_once(scene, pos)

    def counted_batch(scene, positions):
        calls.extend(tuple(np.round(pos, 9)) for pos in positions)
        return stereo_rirs_for(scene, positions)

    monkeypatch.setattr(render, "stereo_rir_for", counted)
    monkeypatch.setattr(render, "stereo_rirs_for", counted_batch)
    got = render_moving(clip, scene, src).data
    want = _per_grain_reference(clip, scene, src, rir_once)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # one RIR per run of consecutive grains at the same position, built
    # singly or in a batch (jobs may finish in any order)
    n_grains = int(np.ceil(clip.n_samples / int(round(MOVING_HOP_S * 16000))))
    keys = [tuple(np.round(pos, 9)) for pos in src.positions(np.arange(n_grains) * MOVING_HOP_S)]
    runs = [k for i, k in enumerate(keys) if i == 0 or k != keys[i - 1]]
    assert sorted(calls) == sorted(runs)


@pytest.mark.parametrize("fs", [8000, 16000, 22050, 44100, 48000])
def test_crossfade_ramps_sum_to_exactly_one(fs):
    # a run's interior passes unscaled because each grain's fall plus the
    # next grain's rise is 1.0 to the last bit
    ramp = render._ramp(int(round(MOVING_HOP_S * fs)))
    assert np.array_equal((1.0 - ramp) + ramp, np.ones(ramp.size))


@pytest.mark.parametrize("src", [
    still_source(30.0, 15.0),
    moving_source(30.0, 150.0, 15.0),
    replace(moving_source(30.0, 150.0, 15.0), movement="instant", instant_time=5.0),
], ids=["still", "moving", "instant"])
def test_render_moving_rejects_stereo_input(src, noise_clip):
    # one input error whatever the movement
    stereo = AudioBuffer(np.stack([noise_clip.data] * 2, axis=1), 16000)
    with pytest.raises(RenderError, match="mono"):
        render_moving(stereo, open_field_scene([src]), src)


@pytest.mark.parametrize("movement", ["moving", "instant"])
def test_grains_below_50_hz_raise_render_error(movement):
    # 10 ms grains round to 0 samples at 40 Hz
    src = replace(moving_source(30.0, 150.0, 15.0), movement=movement, instant_time=5.0)
    scene = replace(open_field_scene([src]), sample_rate=40)
    with pytest.raises(RenderError, match="40 Hz"):
        render_moving(AudioBuffer(np.ones(400), 40), scene, src)


def test_still_source_renders_at_40_hz():
    src = still_source(30.0, 15.0)
    scene = replace(open_field_scene([src]), sample_rate=40)
    out = render_moving(AudioBuffer(np.ones(400), 40), scene, src)
    assert out.data.shape == (400, 2) and np.all(np.isfinite(out.data))


def test_moving_render_bytes_independent_of_threads(noise_clip, monkeypatch):
    # jobs are added in a fixed order whichever thread ran them. Receding from
    # 0.5 m to 4.9 m, the source's RIR lengths vary within a job.
    mic = MicArray(center=(4.0, 4.0, 2.0), half_spacing=0.085)
    src = SourceSpec(start_pos=(4.0, 4.6, 2.0), end_pos=(7.5, 7.5, 2.0), angle=0.0,
                     distance=0.6, movement="moving", end_angle=45.0, end_distance=4.9,
                     speed_ratio=0.3, move_start=0.2, move_interval=0.6)
    scene = SceneSpec(room_dims=(8.0, 8.0, 4.0), rt60=0.3, mic_array=mic, sources=(src,),
                      duration=2.0, sample_rate=16000)
    clip = AudioBuffer(noise_clip.data[:16000 * 2], 16000)
    outs = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(render, "RENDER_THREADS", threads)
        outs.append(render_moving(clip, scene, src).data)
    assert np.array_equal(outs[1], outs[0])
    assert np.array_equal(outs[2], outs[0])


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------
def _stereo(x):
    return AudioBuffer(np.stack([x, x], axis=1), 16000)


def test_mix_single_source_identity():
    rng = np.random.default_rng(2)
    x = _stereo(rng.standard_normal(8000) * 0.1)
    out = mix_scene([x])
    np.testing.assert_array_equal(out.data, x.data)


def test_mix_cancellation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8000) * 0.4
    out = mix_scene([_stereo(x), _stereo(-x)])
    assert np.all(out.data == 0)


def test_mix_normalizes_on_clipping():
    # the mix is a plain sum; mastering alone brings a clipping sum to -1 dBFS
    x = _stereo(np.ones(1000) * 0.9)
    out, gain = master(mix_scene([x, x]))
    peak = np.abs(out.data).max()
    assert abs(peak - 10 ** (-1 / 20)) <= 1e-12
    assert gain < 1.0


def test_mix_commutative_and_associative():
    rng = np.random.default_rng(4)
    parts = [_stereo(rng.standard_normal(4000) * 0.1) for _ in range(3)]
    a = mix_scene(parts).data
    b = mix_scene(parts[::-1]).data
    np.testing.assert_allclose(a, b, atol=1e-15)
    ab = mix_scene([mix_scene(parts[:2]), parts[2]])
    np.testing.assert_allclose(ab.data, a, atol=1e-15)


def test_mix_length_mismatch_rejected():
    with pytest.raises(RenderError):
        mix_scene([_stereo(np.zeros(100)), _stereo(np.zeros(200))])
