import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stereoscene.audio_io import AudioBuffer, AudioFormatError, read_wav, write_wav
from stereoscene.rng import SeededRng, entry_seed


def test_same_seed_same_stream():
    a = SeededRng(123)
    b = SeededRng(123)
    assert a.uniform() == b.uniform()
    assert np.array_equal(a.normal(size=10), b.normal(size=10))


def test_children_are_independent_of_sibling_usage():
    root1 = SeededRng(5)
    root2 = SeededRng(5)
    _ = root1.child("a").uniform(size=100)  # draw heavily from one child
    v1 = root1.child("b").uniform()
    v2 = root2.child("b").uniform()
    assert v1 == v2


def test_different_labels_differ():
    root = SeededRng(5)
    assert root.child("x").uniform() != root.child("y").uniform()


@given(st.integers(0, 2 ** 62), st.text(min_size=1, max_size=30))
def test_entry_seed_stable_and_spread(seed, clip_id):
    assert entry_seed(seed, clip_id) == entry_seed(seed, clip_id)
    assert entry_seed(seed, clip_id) != entry_seed(seed + 1, clip_id)


def test_wav_float32_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.standard_normal((4000, 2)) * 0.4, 16000)
    path = tmp_path / "x.wav"
    write_wav(path, buf)
    back = read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_allclose(back.data, buf.data, atol=1e-7)


def test_wav_pcm16_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    buf = AudioBuffer(np.clip(rng.standard_normal(4000) * 0.3, -0.99, 0.99), 16000)
    path = tmp_path / "x16.wav"
    write_wav(path, buf, pcm16=True)
    back = read_wav(path)
    np.testing.assert_allclose(back.data, buf.data, atol=1e-4)


def test_resample_preserves_duration():
    t = np.arange(44100) / 44100.0
    buf = AudioBuffer(np.sin(2 * np.pi * 440 * t), 44100)
    out = buf.resample(16000)
    assert out.sample_rate == 16000
    assert abs(out.duration - 1.0) < 0.001


def test_resample_equals_resample_poly():
    from scipy.signal import resample_poly

    rng = np.random.default_rng(4)
    for data in (rng.standard_normal(44100) * 0.3, rng.standard_normal((44100, 2)) * 0.3):
        out = AudioBuffer(data, 44100).resample(16000)
        assert np.array_equal(out.data, resample_poly(data, 160, 441, axis=0))


def test_bad_shapes_rejected():
    with pytest.raises(AudioFormatError):
        AudioBuffer(np.zeros((10, 3)), 16000)
    with pytest.raises(AudioFormatError):
        AudioBuffer(np.zeros((2, 2, 2)), 16000)
