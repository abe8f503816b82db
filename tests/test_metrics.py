import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from stereoscene.acoustics import render_static, stereo_rir_for
from stereoscene.audio_io import AudioBuffer
from stereoscene.metrics import (
    EMBED_DIM,
    GCC_TILE_ROWS,
    MAX_LAG_S,
    EmbeddingStats,
    MetricError,
    TdoaSeries,
    TdoaWindow,
    default_embed,
    frechet_distance,
    gcc_ma,
    gcc_mae,
    gcc_phat,
    gcc_phat_correlation,
    load_embedding_dir,
    tdoa_series,
)
from stereoscene.render import render_moving

from conftest import (
    geometric_itd_s,
    moving_source,
    open_field_scene,
    polar_pos,
    rms_normalize,
    still_source,
)


def _render(scene, src_pos, noise_seed=0, seconds=10):
    rng = np.random.default_rng(noise_seed)
    mono = AudioBuffer(rng.standard_normal(16000 * seconds) * 0.2, 16000)
    rir = stereo_rir_for(scene, np.asarray(src_pos))
    out = render_static(mono, rir)
    return rms_normalize(out)


# ---------------------------------------------------------------------------
# gcc_phat
# ---------------------------------------------------------------------------
def test_identical_channels_zero_lag():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1600)
    assert gcc_phat(x, x, 16000) == 0.0


def test_integer_delay_sign_convention():
    # right channel delayed by 8 samples: the source is on the left, tau < 0
    rng = np.random.default_rng(2)
    x = rng.standard_normal(1600)
    left = x
    right = np.roll(x, 8)
    tau = gcc_phat(left, right, 16000)
    assert abs(tau - (-8 / 16000)) < 1e-9


def test_rendered_hard_right_matches_geometry():
    scene = open_field_scene([still_source(0.0, 25.0)])
    out = _render(scene, polar_pos(0.0, 25.0))
    tau = gcc_phat(out.channel(0)[:1600], out.channel(1)[:1600], 16000)
    expected = geometric_itd_s(scene, polar_pos(0.0, 25.0))
    assert expected > 0  # toward the right means positive
    assert abs(tau - expected) <= 1.0 / (16 * 16000)


def test_channel_swap_antisymmetry_exact():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.standard_normal(1600)
        b = rng.standard_normal(1600)
        assert gcc_phat(a, b, 16000) == -gcc_phat(b, a, 16000)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 2 ** 16))
def test_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(1600)
    b = np.roll(a, rng.integers(-10, 10))
    assert gcc_phat(scale * a, b, 16000) == gcc_phat(a, b, 16000)


def test_all_zero_frame_rejected():
    with pytest.raises(MetricError):
        gcc_phat(np.zeros(1600), np.zeros(1600), 16000)
    # one all-zero channel leaves no PHAT spectrum either
    rng = np.random.default_rng(9)
    x = rng.standard_normal(1600)
    with pytest.raises(MetricError):
        gcc_phat(x, np.zeros(1600), 16000)
    with pytest.raises(MetricError):
        gcc_phat(np.zeros(1600), x, 16000)
    a = rng.standard_normal((3, 1600))
    b = a.copy()
    b[1] = 0.0
    with pytest.raises(MetricError):
        gcc_phat_correlation(a, b, 16000)


def test_lag_bound_respected():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1600)
    tau = gcc_phat(x, np.roll(x, 40), 16000, max_lag_s=0.001)
    assert abs(tau) <= 0.001 + 1e-12


# ---------------------------------------------------------------------------
# tdoa series
# ---------------------------------------------------------------------------
def test_silent_clip_all_windows_invalid():
    stereo = AudioBuffer(np.zeros((160000, 2)), 16000)
    series = tdoa_series(stereo)
    assert len(series.windows) == 100
    assert series.n_valid == 0
    assert series.mean_tdoa_ms() is None


def test_static_render_windows_near_geometry():
    scene = open_field_scene([still_source(30.0, 20.0)])
    out = _render(scene, polar_pos(30.0, 20.0))
    series = tdoa_series(out)
    expected = geometric_itd_s(scene, polar_pos(30.0, 20.0))
    vals = series.valid_values()
    assert vals.size >= 95
    close = np.abs(vals - expected) <= 1.0 / (16 * 16000)
    assert close.mean() >= 0.95


def test_partial_silence_gating():
    rng = np.random.default_rng(5)
    x = np.zeros((160000, 2))
    x[:80000, 0] = rng.standard_normal(80000) * 0.5
    x[:80000, 1] = x[:80000, 0]
    series = tdoa_series(AudioBuffer(x, 16000))
    valid_flags = [w.valid for w in series.windows]
    assert all(valid_flags[:50]) and not any(valid_flags[50:])


def test_dead_channel_windows_invalid():
    # the live channel passes the loudness gate, but a window with one
    # all-zero channel has no PHAT spectrum and must not report a TDOA
    rng = np.random.default_rng(10)
    x = np.zeros((160000, 2))
    x[:, 0] = rng.standard_normal(160000) * 0.5
    x[80000:, 1] = x[80000:, 0]
    series = tdoa_series(AudioBuffer(x, 16000))
    assert [w.valid for w in series.windows] == [False] * 50 + [True] * 50
    assert series.features.shape[0] == 50
    dead = tdoa_series(AudioBuffer(x[:80000], 16000))
    assert dead.n_valid == 0 and dead.mean_tdoa_ms() is None
    score, _, skipped = gcc_mae({"c": dead, "d": series}, {"c": series, "d": series})
    assert skipped == ["c"] and score == 0.0


def _clip_kinds():
    """Seeded stereo clips with noise, chirp, gated-tone and moving content."""
    fs = 16000
    t = np.arange(fs * 10) / fs
    chirp_mono = AudioBuffer(0.5 * np.sin(2 * np.pi * (150.0 * t + 45.0 * t ** 2)), fs)
    tone = np.sin(2 * np.pi * 520.0 * t) * (np.sin(2 * np.pi * 0.7 * t) > 0)
    scene = open_field_scene([moving_source(30.0, 150.0, 12.0)])
    yield "noise", _render(open_field_scene([still_source(40.0, 15.0)]),
                           polar_pos(40.0, 15.0), noise_seed=11)
    yield "chirp", rms_normalize(render_moving(
        chirp_mono, open_field_scene([still_source(0.0, 20.0)]), still_source(0.0, 20.0)))
    yield "gated_tone", AudioBuffer(0.6 * np.stack([np.roll(tone, 4), tone], axis=1), fs)
    yield "moving", rms_normalize(render_moving(
        AudioBuffer(np.random.default_rng(12).standard_normal(fs * 10) * 0.2, fs),
        scene, scene.sources[0]))


def _per_window_reference(stereo):
    """The per-window walk: TDOA and the 80 features of every valid window."""
    fs, win = stereo.sample_rate, 1600
    left, right = stereo.channel(0), stereo.channel(1)
    lag_grid = np.linspace(-MAX_LAG_S, MAX_LAG_S, 64)
    tdoas, feats = [], []
    for start in range(0, stereo.n_samples - win + 1, win):
        seg_l, seg_r = left[start:start + win], right[start:start + win]
        rms = max(np.sqrt(np.mean(seg_l ** 2)), np.sqrt(np.mean(seg_r ** 2)))
        if rms < 10.0 ** (-16.0 / 20.0):
            tdoas.append(None)
            continue
        tdoas.append(gcc_phat(seg_l, seg_r, fs))
        lags, cc = gcc_phat_correlation(seg_l, seg_r, fs)
        corr = np.interp(lag_grid, lags, cc / np.max(np.abs(cc)))
        edges = np.clip(np.round(np.geomspace(50.0, fs / 2.0, 9) / (fs / 2.0) * 800)
                        .astype(int), 1, 800)
        bands = [np.log10(np.sum(np.abs(np.fft.rfft(seg)[lo:hi]) ** 2) + 1e-12)
                 for seg in (seg_l, seg_r) for lo, hi in zip(edges[:-1], edges[1:])]
        feats.append(np.concatenate([corr, bands]))
    return tdoas, np.array(feats)


def test_series_matches_per_window_gcc_phat_bit_for_bit():
    for kind, stereo in _clip_kinds():
        series = tdoa_series(stereo)
        tdoas, feats = _per_window_reference(stereo)
        assert [w.valid for w in series.windows] == [t is not None for t in tdoas], kind
        assert [w.tdoa_s for w in series.windows if w.valid] == \
            [t for t in tdoas if t is not None], kind
        assert 0 < series.n_valid, kind
        np.testing.assert_allclose(series.features, feats, rtol=0, atol=1e-12, err_msg=kind)


def test_default_embed_pools_per_window_reference():
    for kind, stereo in _clip_kinds():
        _, feats = _per_window_reference(stereo)
        n = feats.shape[0]
        buckets = [feats[(b * n) // 16: max((b * n) // 16 + 1, -(-(b + 1) * n // 16))]
                   for b in range(16)]
        want = np.concatenate([np.concatenate([x.mean(axis=0) for x in buckets]),
                               np.concatenate([x.max(axis=0) for x in buckets])])
        np.testing.assert_allclose(default_embed(stereo), want, rtol=0, atol=1e-12,
                                   err_msg=kind)


def test_stacked_correlation_equals_per_frame():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 1600))
    b = np.roll(a, 3, axis=1) + 0.1 * rng.standard_normal((5, 1600))
    lags, stacked = gcc_phat_correlation(a, b, 16000)
    for row in range(5):
        lags_1d, cc = gcc_phat_correlation(a[row], b[row], 16000)
        assert np.array_equal(lags, lags_1d) and np.array_equal(stacked[row], cc)


def test_frame_bits_independent_of_tile_position():
    # the lag products run in fixed GCC_TILE_ROWS-row tiles; a frame must
    # come out the same at every position of a tile, next to random frames
    # or to the zero rows that pad the last tile
    rng = np.random.default_rng(13)
    for _ in range(3):
        a = rng.standard_normal(1600)
        b = np.roll(a, int(rng.integers(-12, 12))) + 0.3 * rng.standard_normal(1600)
        _, want = gcc_phat_correlation(a, b, 16000)
        for pos in range(2 * GCC_TILE_ROWS):
            for rows in (2 * GCC_TILE_ROWS, pos + 1):
                sa = rng.standard_normal((rows, 1600))
                sb = rng.standard_normal((rows, 1600))
                sa[pos], sb[pos] = a, b
                _, cc = gcc_phat_correlation(sa, sb, 16000)
                assert np.array_equal(cc[pos], want), (pos, rows)


_ONE_THREAD_RUN = """
import json, sys
import numpy as np
from stereoscene.metrics import tdoa_series
from test_metrics import _clip_kinds
out = {}
for kind, stereo in _clip_kinds():
    series = tdoa_series(stereo)
    out[kind] = [w.tdoa_s if w.valid else None for w in series.windows]
    np.save(sys.argv[1] + "/" + kind + ".npy", series.features)
print(json.dumps(out))
"""


def test_series_on_one_blas_thread_matches_in_process(tmp_path):
    # OpenBLAS splits a tile product differently on one thread: the lag
    # values move by round-off, the TDOAs (argmax) stay put
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
    proc = subprocess.run([sys.executable, "-c", _ONE_THREAD_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    one_thread = json.loads(proc.stdout.strip().splitlines()[-1])
    for kind, stereo in _clip_kinds():
        series = tdoa_series(stereo)
        assert one_thread[kind] == [w.tdoa_s if w.valid else None for w in series.windows], kind
        feats = np.load(tmp_path / f"{kind}.npy")
        assert feats.shape == series.features.shape, kind
        assert np.max(np.abs(feats - series.features)) <= 1e-13, kind


def _zero_padded_irfft_reference(a, b, fs, max_lag_s, interp):
    """The correlation as the full interpolated inverse transform computes it."""
    max_shift = int(round(max_lag_s * fs * interp))
    nfft = 2 * a.shape[-1]
    fa, fb = np.fft.rfft(a, n=nfft), np.fft.rfft(b, n=nfft)

    def phat_lags(f1, f2):
        g = f1 * np.conj(f2)
        cc = np.fft.irfft(g / np.maximum(np.abs(g), 1e-12), n=nfft * interp)
        return np.concatenate([cc[..., -max_shift:], cc[..., :max_shift + 1]], axis=-1)

    return 0.5 * (phat_lags(fa, fb) + phat_lags(fb, fa)[..., ::-1])


@pytest.mark.parametrize("frame", [800, 1600])
@pytest.mark.parametrize("max_lag_s", [0.0005, 0.001])
@pytest.mark.parametrize("interp", [1, 4, 16])
def test_correlation_matches_zero_padded_irfft(interp, max_lag_s, frame):
    rng = np.random.default_rng(interp * 7 + frame)
    a = rng.standard_normal((6, frame))
    b = np.roll(a, 5, axis=1) + 0.5 * rng.standard_normal((6, frame))
    want = _zero_padded_irfft_reference(a, b, 16000, max_lag_s, interp)
    lags, cc = gcc_phat_correlation(a, b, 16000, max_lag_s, interp)
    assert lags.size == cc.shape[1] == want.shape[1]
    assert np.max(np.abs(cc - want)) <= 1e-13
    assert np.array_equal(np.argmax(np.abs(cc), axis=1), np.argmax(np.abs(want), axis=1))
    _, cc_1d = gcc_phat_correlation(a[2], b[2], 16000, max_lag_s, interp)
    assert np.max(np.abs(cc_1d - want[2])) <= 1e-13
    assert np.argmax(np.abs(cc_1d)) == np.argmax(np.abs(want[2]))


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------
def _const_series(tdoa_s, n=10):
    return TdoaSeries(windows=tuple(
        TdoaWindow(start_s=i * 0.1, tdoa_s=tdoa_s, valid=True) for i in range(n)
    ))


def test_gcc_mae_self_zero():
    series = {f"c{i}": _const_series(0.0001 * i) for i in range(5)}
    score, rows, skipped = gcc_mae(series, series)
    assert score == 0.0 and not skipped


def test_gcc_mae_hand_value():
    gen = {f"c{i}": _const_series(0.0001) for i in range(10)}   # +0.1 ms
    ref = {f"c{i}": _const_series(0.0002) for i in range(10)}   # +0.2 ms
    score, rows, skipped = gcc_mae(gen, ref)
    assert abs(score - 10.0) < 1e-9  # |0.1 - 0.2| ms * 100


def test_gcc_mae_skips_gated_pairs():
    empty = TdoaSeries(windows=(TdoaWindow(0.0, 0.0, False),))
    gen = {"a": _const_series(0.0001), "b": empty}
    ref = {"a": _const_series(0.0001), "b": _const_series(0.0)}
    score, rows, skipped = gcc_mae(gen, ref)
    assert skipped == ["b"]
    assert score == 0.0


def test_gcc_ma_values():
    centered = {f"c{i}": _const_series(0.0) for i in range(4)}
    score, _ = gcc_ma(centered)
    assert score == 0.0

    # hard-right anechoic set at 0.17 m spacing: |tdoa| = 0.4956 ms
    itd = 0.17 / 343.0
    right = {f"r{i}": _const_series(itd) for i in range(4)}
    score, _ = gcc_ma(right)
    assert abs(score - itd * 1e3 * 100.0) < 1e-9

    mixed = dict(centered, **right)
    mid, _ = gcc_ma(mixed)
    assert 0.0 < mid < itd * 1e3 * 100.0


# ---------------------------------------------------------------------------
# Frechet distance
# ---------------------------------------------------------------------------
def _random_stats(rng, dim=8):
    a = rng.standard_normal((dim, dim))
    samples = rng.standard_normal((100, dim)) @ a + rng.standard_normal(dim)
    return EmbeddingStats.from_embeddings(samples)


def test_frechet_identity_zero():
    stats = _random_stats(np.random.default_rng(0))
    assert frechet_distance(stats, stats) < 1e-9


def test_frechet_mean_offset_with_identity_covs():
    d = np.array([1.0, -2.0, 0.5, 0.0])
    # +-c e_i for each axis: zero mean, sample covariance exactly 2 c^2 / 7 = I
    spikes = np.sqrt(3.5) * np.concatenate([np.eye(4), -np.eye(4)])
    a = EmbeddingStats.from_embeddings(spikes)
    b = EmbeddingStats.from_embeddings(spikes + d)
    np.testing.assert_allclose(a.cov, np.eye(4), atol=1e-12)
    assert abs(frechet_distance(a, b) - float(d @ d)) < 1e-9


def test_frechet_matches_scipy_sqrtm_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a, b = _random_stats(rng), _random_stats(rng)
        got = frechet_distance(a, b)
        cross = sla.sqrtm(a.cov @ b.cov)
        want = float((a.mean - b.mean) @ (a.mean - b.mean)
                     + np.trace(a.cov + b.cov - 2.0 * np.real(cross)))
        assert abs(got - want) < 1e-6
        assert got >= 0
        assert abs(got - frechet_distance(b, a)) < 1e-8


def test_frechet_high_dim_few_samples_matches_subspace_oracle():
    # d = 2560 with ~10 samples per set: each covariance has rank n - 1, so
    # the oracle works in the row space Q of set a, where Sa^(1/2) lives:
    # Tr((Sa Sb)^(1/2)) = Tr(sqrtm(Q^T Sa Q Q^T Sb Q)). With na <= nb that
    # product has full rank na - 1, where sqrtm is accurate.
    rng = np.random.default_rng(2560)
    for na, nb in ((10, 10), (10, 12), (9, 11)):
        xa = rng.standard_normal((na, EMBED_DIM)) * rng.uniform(0.1, 2.0, EMBED_DIM)
        xb = rng.standard_normal((nb, EMBED_DIM)) + 0.3
        cov_a, cov_b = np.cov(xa, rowvar=False), np.cov(xb, rowvar=False)
        q = np.linalg.svd(xa - xa.mean(axis=0), full_matrices=False)[2][: na - 1].T
        cross = np.real(sla.sqrtm((q.T @ cov_a @ q) @ (q.T @ cov_b @ q)))
        diff = xa.mean(axis=0) - xb.mean(axis=0)
        want = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(cross))
        got = frechet_distance(EmbeddingStats.from_embeddings(xa),
                               EmbeddingStats.from_embeddings(xb))
        assert abs(got - want) < 1e-6, (na, nb, got - want)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------
def test_embed_silence_is_zero():
    vec = default_embed(AudioBuffer(np.zeros((160000, 2)), 16000))
    assert vec.shape == (EMBED_DIM,)
    assert not np.any(vec)


def test_embed_channel_swap_reverses_lag_axis():
    scene = open_field_scene([still_source(20.0, 15.0)])
    out = _render(scene, polar_pos(20.0, 15.0))
    swapped = AudioBuffer(out.data[:, ::-1], 16000)
    v = default_embed(out).reshape(2, 16, 80)
    w = default_embed(swapped).reshape(2, 16, 80)
    # correlogram block reversed; per-channel band energies exchanged
    np.testing.assert_allclose(w[0, :, :64], v[0, :, :64][:, ::-1], atol=1e-12)
    np.testing.assert_allclose(w[0, :, 64:72], v[0, :, 72:80], atol=1e-12)
    np.testing.assert_allclose(w[0, :, 72:80], v[0, :, 64:72], atol=1e-12)


def test_embed_same_scene_different_noise_high_cosine():
    scene = open_field_scene([still_source(120.0, 18.0)])
    a = default_embed(_render(scene, polar_pos(120.0, 18.0), noise_seed=1))
    b = default_embed(_render(scene, polar_pos(120.0, 18.0), noise_seed=2))
    cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert cos > 0.98

    other = open_field_scene([still_source(40.0, 18.0)])
    c = default_embed(_render(other, polar_pos(40.0, 18.0), noise_seed=3))
    cos_other = float(a @ c / (np.linalg.norm(a) * np.linalg.norm(c)))
    assert cos_other < cos


def test_external_embedding_roundtrip(tmp_path):
    import json

    rng = np.random.default_rng(8)
    for name in ("a", "b", "c"):
        vec = rng.standard_normal(16).astype(np.float32)
        (tmp_path / f"{name}.bin").write_bytes(vec.tobytes())
        (tmp_path / f"{name}.bin.json").write_text(
            json.dumps({"shape": [16], "mean_tdoa_ms": 0.1}))
    vectors, sidecars = load_embedding_dir(tmp_path)
    assert sorted(vectors) == ["a", "b", "c"]
    assert vectors["a"].shape == (16,)
    assert sidecars["b"]["mean_tdoa_ms"] == 0.1
