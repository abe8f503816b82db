import itertools
import math

import numpy as np
import pytest
from scipy.signal import oaconvolve

from stereoscene.acoustics import (
    FRAC_DELAY_TAPS,
    MIN_SPREAD_DIST,
    SPEED_OF_SOUND,
    AcousticsError,
    RirKernel,
    compute_rir,
    compute_rirs,
    eyring_absorption,
    eyring_rt60,
    measure_rt60,
    next_fast_len,
    render_static,
    rt60_to_absorption,
    stereo_convolve,
    stereo_rir_for,
    _frac_delay_index,
    _frac_table,
)
from stereoscene.audio_io import AudioBuffer
from stereoscene.rng import SeededRng
from stereoscene.scene import (
    AttributeRecord,
    SourceAttributes,
    sample_mic_array,
    sample_room,
    sample_scene,
    sample_source_placement,
)

from conftest import open_field_scene, polar_pos, still_source


# ---------------------------------------------------------------------------
# RT60 <-> absorption
# ---------------------------------------------------------------------------
def test_eyring_value_10m_cube():
    alpha = rt60_to_absorption(0.5, (10.0, 10.0, 10.0))
    coeff = 24.0 * math.log(10.0) / 343.0
    expected = 1.0 - math.exp(-coeff * 1000.0 / (600.0 * 0.5))
    assert abs(alpha - expected) < 1e-12


def test_eyring_limit_infinite_rt60():
    # raw formula limit; the validating wrapper rejects this region
    assert eyring_absorption(1e9, (10.0, 10.0, 10.0)) < 1e-9


def test_eyring_forward_inverts():
    dims = (12.0, 9.0, 7.0)
    for rt in (0.3, 0.45, 0.6):
        alpha = rt60_to_absorption(rt, dims)
        assert abs(eyring_rt60(alpha, dims) - rt) < 1e-9


def test_unreachable_rt60_tiny_live_room():
    with pytest.raises(AcousticsError) as err:
        rt60_to_absorption(10.0, (1.0, 1.0, 1.0))
    assert "achievable" in str(err.value)


def test_rt60_must_be_positive():
    with pytest.raises(AcousticsError):
        rt60_to_absorption(0.0, (5.0, 5.0, 5.0))


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.2, float("nan")])
def test_absorption_out_of_range_rejected(alpha):
    with pytest.raises(AcousticsError, match="absorption"):
        compute_rir((5.0, 6.0, 7.0), alpha, (1.0, 2.0, 3.0), (3.0, 3.0, 3.0))


# ---------------------------------------------------------------------------
# direct path (the free field: absorption None)
# ---------------------------------------------------------------------------
def test_direct_path_delay_and_amplitude():
    # 3.43 m -> 10 ms -> 160 samples at 16 kHz, amplitude 1/(4 pi 3.43)
    rir = compute_rir((10.0, 10.0, 10.0), None, [5.0, 8.43, 5.0], [5.0, 5.0, 5.0], fs=16000)
    h = rir.samples[0]
    peak = int(np.argmax(np.abs(h)))
    assert peak == 160
    assert abs(h[peak] - 1.0 / (4.0 * math.pi * 3.43)) < 1e-9


def test_direct_path_symmetric_at_front():
    scene = open_field_scene([still_source(90.0, 10.0)])
    rir = stereo_rir_for(scene, np.asarray(polar_pos(90.0, 10.0)))
    # equidistant source: left and right responses match to within 1/64 sample
    up = 64
    n = rir.length * up
    left = np.fft.irfft(np.fft.rfft(rir.samples[0], n=2 * rir.length), n=2 * n)
    right = np.fft.irfft(np.fft.rfft(rir.samples[1], n=2 * rir.length), n=2 * n)
    assert abs(int(np.argmax(left)) - int(np.argmax(right))) <= 1


def test_coincident_source_mic_errors():
    with pytest.raises(AcousticsError):
        compute_rir((5.0, 5.0, 5.0), None, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(AcousticsError):
        compute_rir((5.0, 5.0, 5.0), 0.3, [2.0, 2.0, 2.0], [2.0, 2.0, 2.0])


def test_source_grazing_a_mic_renders():
    # a slow left-to-right sweep passes 43 um from a capsule at t = 4.55 s;
    # only an exact hit is a coincidence, and the spreading floor bounds the peak
    rec = AttributeRecord("small", (SourceAttributes(
        event="x", direction_label="left", distance_label="moderate", movement="moving",
        speed_label="slow", end_direction_label="right"),))
    scene = sample_scene(rec, SeededRng(93))
    rir = stereo_rir_for(scene, scene.sources[0].positions([4.55])[0])
    assert np.all(np.isfinite(rir.samples))
    peak = np.abs(rir.samples).max()
    assert abs(peak - 1.0 / (4.0 * math.pi * MIN_SPREAD_DIST)) < 0.01 * peak


def _upsampled_peak(h: np.ndarray, up: int = 16) -> float:
    """Sub-sample peak location via zero-padded FFT upsampling + parabola."""
    n = h.size
    fine = np.fft.irfft(np.fft.rfft(h, n=2 * n), n=2 * n * up)
    k = int(np.argmax(np.abs(fine[: n * up])))
    denom = fine[k - 1] - 2 * fine[k] + fine[k + 1]
    off = 0.5 * (fine[k - 1] - fine[k + 1]) / denom if denom != 0 else 0.0
    return (k + off) / up


def test_direct_delay_matches_distance_1000_geometries():
    rng = np.random.default_rng(77)
    fs = 16000
    max_err_samples = 0.0
    for _ in range(1000):
        src = rng.uniform(1.0, 60.0, 3)
        mic = rng.uniform(1.0, 60.0, 3)
        dist = float(np.linalg.norm(src - mic))
        if dist < 0.5:
            continue
        rir = compute_rir((61.0, 61.0, 61.0), None, src, mic, fs=fs)
        est = _upsampled_peak(rir.samples[0])
        max_err_samples = max(max_err_samples, abs(est - dist / 343.0 * fs))
    assert max_err_samples < 1.0 / 32.0


def _reference_place(h: np.ndarray, delays: np.ndarray, amps: np.ndarray) -> None:
    """One row's impulses, scattered with one bincount and taps outside h dropped."""
    base, frac_idx = _frac_delay_index(delays)
    kernel = _frac_table()[frac_idx] * amps[:, None]
    idx = base[:, None] + np.arange(FRAC_DELAY_TAPS)[None, :]
    valid = (idx >= 0) & (idx < h.shape[0])
    h += np.bincount(idx[valid], weights=kernel[valid], minlength=h.shape[0])


def test_direct_path_matches_per_mic_placement():
    # reference: one placement per mic into its own row
    pair = np.array([[2.0, 2.0, 1.5], [2.0, 2.17, 1.5]])
    cases = [([5.0, 8.43, 5.0], [5.0, 5.0, 5.0]),
             ([7.0, 3.0, 1.5], pair),
             ([2.0, 2.1, 1.5], pair)]  # taps before index 0
    for src, mic in cases:
        mics = np.atleast_2d(mic)
        dists = np.linalg.norm(mics - np.asarray(src), axis=1)
        delays = dists / SPEED_OF_SOUND * 16000
        expected = np.zeros((mics.shape[0], int(np.ceil(delays.max())) + FRAC_DELAY_TAPS))
        amps = 1.0 / (4.0 * np.pi * np.maximum(dists, MIN_SPREAD_DIST))
        for m in range(mics.shape[0]):
            _reference_place(expected[m], delays[m:m + 1], amps[m:m + 1])
        got = compute_rir((10.0, 10.0, 10.0), None, src, mic, fs=16000).samples
        assert np.array_equal(got, expected)


def _reference_compute_rir(dims, absorption, src, mic_pos, fs=16000):
    """compute_rir as a chunk, parity and mic loop; returns (rir, images kept)."""
    dims = np.asarray(dims, dtype=np.float64)
    src = np.asarray(src, dtype=np.float64)
    mics = np.atleast_2d(np.asarray(mic_pos, dtype=np.float64))
    direct = float(np.linalg.norm(mics - src[None, :], axis=1).min())
    length_s = direct / SPEED_OF_SOUND + 1.3 * eyring_rt60(absorption, dims)
    n_samples = int(round(length_s * fs)) + FRAC_DELAY_TAPS
    max_dist = (n_samples + FRAC_DELAY_TAPS) / fs * SPEED_OF_SOUND
    orders = np.ceil(max_dist / (2.0 * dims)).astype(np.int64)
    beta = np.full(6, np.sqrt(1.0 - absorption))
    ax = [np.arange(-orders[k], orders[k] + 1, dtype=np.int64) for k in range(3)]
    grid = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
    h = np.zeros((mics.shape[0], n_samples))
    kept = 0
    chunk = 200_000
    for start in range(0, grid.shape[0], chunk):
        n_chunk = grid[start:start + chunk]
        for p in itertools.product((0, 1), repeat=3):
            p = np.array(p)
            pos = (1 - 2 * p)[None, :] * src[None, :] + 2.0 * n_chunk * dims[None, :]
            lo, hi = np.abs(n_chunk - p[None, :]), np.abs(n_chunk)
            amp_refl = (beta[0] ** lo[:, 0] * beta[1] ** hi[:, 0]
                        * beta[2] ** lo[:, 1] * beta[3] ** hi[:, 1]
                        * beta[4] ** lo[:, 2] * beta[5] ** hi[:, 2])
            for m in range(mics.shape[0]):
                dist = np.linalg.norm(pos - mics[m][None, :], axis=1)
                keep = (dist <= max_dist) & (dist > 0) & (amp_refl > 0)
                if not np.any(keep):
                    continue
                d = dist[keep]
                kept += d.size
                amps = amp_refl[keep] / (4.0 * np.pi * np.maximum(d, MIN_SPREAD_DIST))
                _reference_place(h[m], d / SPEED_OF_SOUND * fs, amps)
    return h, kept


def test_compute_rir_matches_per_parity_reference():
    pair = [[1.0, 1.0 - 0.085, 1.2], [1.0, 1.0 + 0.085, 1.2]]
    cases = [  # dims, rt60, source, mics, minimum images kept
        ((15.0, 14.0, 11.0), 0.45, [4.0, 9.0, 3.0], [[7.5, 7.0 - 0.085, 1.6],
                                                       [7.5, 7.0 + 0.085, 1.6]], 10_000),
        ((27.0, 25.0, 22.0), 0.45, [20.0, 6.0, 5.0], [13.0, 12.0, 1.6], 1),
        ((56.0, 52.0, 45.0), 0.47, [30.0, 40.0, 4.0], [[28.0, 26.0 - 0.085, 1.6],
                                                        [28.0, 26.0 + 0.085, 1.6]], 1),
        # 0.22 m from the wall x = 0 and 0.14 m from the left mic: taps before index 0
        ((6.0, 5.0, 3.0), 0.35, [0.22, 0.95, 1.25], pair, 1),
        ((9.0, 8.0, 4.0), 0.5, [6.0, 5.0, 2.0], pair, 1),
    ]
    for dims, rt60, src, mic, min_images in cases:
        absorption = rt60_to_absorption(rt60, dims)
        expected, kept = _reference_compute_rir(dims, absorption, src, mic)
        assert kept >= min_images
        got = compute_rir(dims, absorption, src, mic, fs=16000).samples
        assert got.shape == expected.shape
        peak = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-14 * peak
        for ch in range(expected.shape[0]):
            assert np.argmax(np.abs(got[ch])) == np.argmax(np.abs(expected[ch]))


def test_compute_rirs_matches_per_position():
    cases = [  # dims, rt60, mics, sources
        # the first position splits into a full block and a tail that shares
        # a block with the second
        ((24.0, 22.0, 13.0), 0.3, [[12.0, 11.0 - 0.085, 1.5], [12.0, 11.0 + 0.085, 1.5]],
         [[0.3, 0.4, 0.5], [12.5, 11.4, 1.6], [23.7, 21.5, 12.6], [12.0, 1.0, 2.0]]),
        # a long thin room: the far source needs higher lattice orders and
        # keeps images outside the near source's lattice
        ((30.0, 6.0, 3.0), 0.4, [[1.0, 3.0 - 0.085, 1.5], [1.0, 3.0 + 0.085, 1.5]],
         [[1.5, 3.5, 1.5], [29.0, 5.0, 2.5]]),
    ]
    dims, _, mics, srcs = cases[0]
    kept = [_reference_compute_rir(dims, rt60_to_absorption(0.3, dims), s, mics)[1] for s in srcs]
    assert kept[0] >= 4096 > kept[1] and kept[0] % 4096 + kept[1] <= 4096
    for dims, rt60, mics, srcs in cases:
        absorption = rt60_to_absorption(rt60, dims)
        got = compute_rirs(dims, absorption, srcs, mics, fs=16000)
        assert len(got) == len(srcs)
        for src, rir in zip(srcs, got):
            want = compute_rir(dims, absorption, src, mics, fs=16000)
            assert rir.start == want.start
            assert np.array_equal(rir.samples, want.samples)
        lengths = np.array([rir.length for rir in got])  # differ across the batch
        assert np.unique(lengths).size == len(srcs)
        reach = (lengths + FRAC_DELAY_TAPS) / 16000 * SPEED_OF_SOUND  # and so do the
        orders = np.ceil(reach[:, None] / (2.0 * np.asarray(dims))).astype(int)  # orders
        assert np.unique(orders, axis=0).shape[0] > 1


def test_direct_path_rirs_matches_per_position():
    # the free field (absorption None): one direct impulse per mic, up to the
    # last of them, built for the whole batch at once
    dims = (70.0, 60.0, 40.0)
    mics = np.array([[25.0, 35.0 - 0.085, 25.0], [25.0, 35.0 + 0.085, 25.0]])
    srcs = np.array([[27.0, 40.0, 25.0], [25.1, 34.9, 25.0], [60.0, 7.0, 10.0]])
    got = compute_rirs(dims, None, srcs, mics, fs=16000)
    assert len(got) == len(srcs)
    assert len({rir.length for rir in got}) == len(srcs)
    for src, rir in zip(srcs, got):
        want = compute_rir(dims, None, src, mics, fs=16000)
        assert rir.start == want.start
        assert np.array_equal(rir.samples, want.samples)
    assert len({rir.start for rir in got}) == len(srcs)


@pytest.mark.parametrize("size", ["outdoors", "small", "moderate"])
def test_rir_stored_from_its_first_tap(size):
    # every column before start is zero, and start lies at most
    # FRAC_DELAY_TAPS - 1 columns before the first non-zero one
    starts = []
    for i, (direction, distance) in enumerate(itertools.product(
            ("left", "front", "front_right"), ("far", "moderate", "near"))):
        rec = AttributeRecord(size, (SourceAttributes(
            event="x", direction_label=direction, distance_label=distance),))
        scene = sample_scene(rec, SeededRng(2500 + i))
        rir = stereo_rir_for(scene, scene.sources[0].start_pos)
        h = rir.samples
        assert h.shape == (2, rir.length)
        assert np.array_equal(h[:, rir.start:], rir.taps)
        assert not h[:, :rir.start].any()
        first = int(np.flatnonzero(h.any(axis=0))[0])
        assert rir.start <= first <= rir.start + FRAC_DELAY_TAPS - 1
        starts.append(rir.start)
    assert max(starts) > 0


def test_outdoor_mode_equals_full_absorption_ism():
    # the free field matches the ISM with all walls at 1, where every image
    # but the direct one carries zero amplitude; the lengths differ, the
    # common samples do not
    dims = (50.0, 50.0, 50.0)
    pair = [[25.0, 25.0 - 0.085, 25.0], [25.0, 25.0 + 0.085, 25.0]]
    cases = [([25.0, 30.0, 25.0], [25.0, 25.0, 25.0]),
             ([27.0, 30.0, 25.0], pair),
             ([3.0, 47.0, 1.5], pair)]
    for src, mic in cases:
        free = compute_rir(dims, None, src, mic, fs=16000)
        full = compute_rir(dims, 1.0, src, mic, fs=16000)
        n = min(free.length, full.length)
        assert np.array_equal(free.samples[:, :n], full.samples[:, :n])


# ---------------------------------------------------------------------------
# image-source properties
# ---------------------------------------------------------------------------
def test_mirror_symmetry_swaps_channels():
    dims = (12.0, 12.0, 12.0)
    absorption = rt60_to_absorption(0.4, dims)
    mic_left = np.array([6.0, 6.0 - 0.085, 6.0])
    mic_right = np.array([6.0, 6.0 + 0.085, 6.0])
    # mirrored pair of source positions about the array plane y = 6
    src = np.array([7.5, 6.0 + 2.0, 6.0])
    src_mirror = np.array([7.5, 6.0 - 2.0, 6.0])
    a = compute_rir(dims, absorption, src, np.stack([mic_left, mic_right]), fs=16000)
    b = compute_rir(dims, absorption, src_mirror, np.stack([mic_left, mic_right]), fs=16000)
    np.testing.assert_allclose(a.samples[0], b.samples[1], atol=1e-12)
    np.testing.assert_allclose(a.samples[1], b.samples[0], atol=1e-12)


def test_energy_monotone_in_absorption():
    dims = (8.0, 7.0, 6.0)
    src = [2.0, 3.0, 3.0]
    mic = [5.0, 4.0, 3.0]
    energies = []
    for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
        rir = compute_rir(dims, alpha, src, mic, fs=16000)
        energies.append(float(np.sum(rir.samples[0] ** 2)))
    assert all(e1 >= e2 for e1, e2 in zip(energies, energies[1:]))


def test_rir_has_no_nan_and_positive_energy():
    dims = (9.0, 11.0, 4.0)
    rir = compute_rir(dims, rt60_to_absorption(0.35, dims), [2.0, 2.0, 2.0],
                      [6.0, 7.0, 2.5], fs=16000)
    assert np.all(np.isfinite(rir.samples))
    assert np.sum(rir.samples ** 2) > 0


def test_schroeder_decay_matches_requested_rt60_median():
    rng = SeededRng(404)
    errors = []
    for i in range(12):
        room = sample_room("small", rng.child(f"room{i}"))
        mic = sample_mic_array(room.dims, rng.child(f"mic{i}"), base_size=room.base_size)
        _, _, pos = sample_source_placement("front_left", "moderate", room.dims, mic,
                                            rng.child(f"src{i}"))
        absorption = rt60_to_absorption(room.rt60, room.dims)
        rir = compute_rir(room.dims, absorption, pos, mic.left_pos, fs=16000)
        measured = measure_rt60(rir.samples[0], 16000)
        errors.append(abs(measured - room.rt60) / room.rt60)
    assert float(np.median(errors)) < 0.2


# ---------------------------------------------------------------------------
# render_static
# ---------------------------------------------------------------------------
def test_render_impulse_reproduces_rir():
    scene = open_field_scene([still_source(40.0, 15.0)])
    rir = stereo_rir_for(scene, np.asarray(polar_pos(40.0, 15.0)))
    impulse = np.zeros(16000)
    impulse[0] = 1.0
    out = render_static(AudioBuffer(impulse, 16000), rir)
    n = min(rir.length, 16000)
    np.testing.assert_allclose(out.data[:n, 0], rir.samples[0][:n], atol=1e-12)
    np.testing.assert_allclose(out.data[:n, 1], rir.samples[1][:n], atol=1e-12)
    assert out.n_samples == 16000


def _renderer_convolution_cases():
    """(name, mono input, (2, L) kernel) on the shapes the renderer convolves."""
    rng = np.random.default_rng(21)
    clip = rng.standard_normal(160000) * 0.3  # a 10 s still clip
    dims = (6.0, 5.0, 3.0)
    indoor = compute_rir(dims, rt60_to_absorption(0.45, dims), [2.0, 3.5, 1.5],
                         [[4.0, 2.0, 1.2], [4.17, 2.0, 1.2]]).samples
    open_field = open_field_scene([])
    near = stereo_rir_for(open_field, np.asarray(polar_pos(30.0, 0.4))).samples
    far = stereo_rir_for(open_field, np.asarray(polar_pos(150.0, 37.0))).samples
    # the two runs of an instant source jumping at grain 438 of 160 samples:
    # the first falls over its last hop, the second rises over its first
    hop, jump = 160, 438 * 160
    rise = 0.5 * (1.0 - np.cos(np.pi * np.arange(hop) / hop))
    before, after = clip[:jump + hop].copy(), clip[jump:].copy()
    before[jump:] *= 1.0 - rise
    after[:hop] *= rise
    return [
        ("still-indoor", clip, indoor),
        ("still-outdoor-near", clip, near),
        ("still-outdoor-far", clip, far),
        ("run-shorter-than-kernel", clip[:480], indoor),
        ("run-outdoor", clip[:20000], far),
        ("one-tap", clip, np.array([[0.5], [-0.25]])),
        ("instant-run-before-jump", before, indoor),
        ("instant-run-after-jump", after, near),
    ]


def test_stereo_convolve_matches_per_channel_oaconvolve():
    for name, x, kernel in _renderer_convolution_cases():
        ref = np.stack([oaconvolve(x, kernel[ch]) for ch in range(2)])
        got = stereo_convolve(x, kernel)
        assert got.shape == ref.shape == (2, x.size + kernel.shape[1] - 1), name
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name
        assert np.array_equal(np.argmax(np.abs(got), axis=1), np.argmax(np.abs(ref), axis=1)), name


def test_next_fast_len_equals_scipy():
    from scipy.fft import next_fast_len as scipy_next_fast_len

    sizes = range(1, 2 ** 17 + 1)
    assert [next_fast_len(n) for n in sizes] == \
        [scipy_next_fast_len(n, real=True) for n in sizes]


def test_render_silence_is_silent():
    rir = compute_rir((3.0, 3.0, 3.0), None, [1.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    out = render_static(AudioBuffer(np.zeros(8000), 16000),
                        RirKernel(rir.samples[[0, 0]], 16000))
    assert np.all(out.data == 0)


def test_render_rejects_sample_rate_mismatch():
    rir = RirKernel(np.zeros((2, 100)) + 0.1, 8000)
    with pytest.raises(AcousticsError):
        render_static(AudioBuffer(np.zeros(100) + 0.1, 16000), rir)


def test_render_linearity():
    rng = np.random.default_rng(5)
    x = AudioBuffer(rng.standard_normal(4000), 16000)
    y = AudioBuffer(rng.standard_normal(4000), 16000)
    rir = compute_rir((5.0, 5.0, 5.0), None, [2.0, 4.0, 2.0],
                      np.array([[2.0, 2.0, 2.0], [2.0, 2.1, 2.0]]))
    a, b = 2.5, -0.7
    combo = render_static(AudioBuffer(a * x.data + b * y.data, 16000), rir)
    separate = a * render_static(x, rir).data + b * render_static(y, rir).data
    np.testing.assert_allclose(combo.data, separate, atol=1e-10)
