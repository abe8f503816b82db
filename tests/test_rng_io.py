import ast
import contextlib
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.io import wavfile

from stereoscene import audio_io
from stereoscene.audio_io import AudioBuffer, AudioFormatError, read_wav, write_wav
from stereoscene.cli import main
from stereoscene.guidance import AzimuthStateMatrix
from stereoscene.pipeline import DatasetIndex, ManifestEntry, synthesize, synthesize_entry
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



@given(st.binary(min_size=16, max_size=16), st.integers(1, 8))
def test_choice_draws_as_generator_choice(key, n):
    # choice draws an index instead of calling Generator.choice; both the
    # element and the draw after it must stay as Generator.choice leaves them
    seq = [f"label{i}" for i in range(n)]
    ref = np.random.Generator(np.random.PCG64(int.from_bytes(key, "little")))
    rng = SeededRng(0, _key=key)
    assert rng.choice(seq) == ref.choice(seq)
    assert rng.uniform() == ref.uniform()

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


@pytest.mark.parametrize("pcm16", [False, True])
@pytest.mark.parametrize("shape", [(4001,), (4001, 2)])
def test_write_wav_bytes_equal_scipy_wavfile(tmp_path, pcm16, shape):
    data = np.random.default_rng(2).standard_normal(shape) * 0.6  # some samples clip
    write_wav(tmp_path / "ours.wav", AudioBuffer(data, 22050), pcm16=pcm16)
    samples = (np.round(np.clip(data, -1.0, 1.0) * 32767.0).astype(np.int16) if pcm16
               else data.astype(np.float32))
    wavfile.write(tmp_path / "scipy.wav", 22050, samples)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


def _scipy_read_wav(path):
    """read_wav's conversion on top of scipy's reader: the oracle for the codec."""
    rate, data = wavfile.read(path)
    if data.dtype == np.uint8:
        return rate, (data.astype(np.float64) - 128.0) / 128.0
    scale = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}.get(data.dtype, 1.0)
    return rate, data.astype(np.float64) / scale


def _riff(fmt: bytes, data: bytes, before_data: bytes = b"") -> bytes:
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + before_data
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _pcm_fmt(tag, channels, rate, width):
    return struct.pack("<HHIIHH", tag, channels, rate, rate * width * channels,
                       width * channels, 8 * width)


def _int24_bytes(samples):
    return np.ascontiguousarray(samples.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3]).tobytes()


_KS_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _oracle_files(tmp_path):
    rng = np.random.default_rng(3)
    stereo = rng.standard_normal((999, 2)) * 0.3
    files = {}
    for name, samples in (
        ("u8", np.round(stereo * 100 + 128).astype(np.uint8)),
        ("i16", np.round(stereo * 30000).astype(np.int16)),
        ("i32", np.round(stereo * 5e8).astype(np.int32)),
        ("f32", stereo.astype(np.float32)),
        ("f64", stereo[:, 0].copy()),
    ):
        files[name] = tmp_path / f"{name}.wav"
        wavfile.write(files[name], 16000, samples)
    i24 = np.round(stereo * 8e6).astype(np.int32)
    files["i24"] = tmp_path / "i24.wav"
    files["i24"].write_bytes(_riff(_pcm_fmt(1, 2, 16000, 3), _int24_bytes(i24)))
    ext = (_pcm_fmt(0xFFFE, 2, 16000, 2) + struct.pack("<HHI", 22, 16, 3)
           + struct.pack("<I", 1) + _KS_TAIL)
    pcm = np.round(stereo * 30000).astype("<i2").tobytes()
    files["extensible"] = tmp_path / "extensible.wav"
    files["extensible"].write_bytes(_riff(ext, pcm))
    files["odd_list"] = tmp_path / "odd_list.wav"
    files["odd_list"].write_bytes(
        _riff(_pcm_fmt(1, 2, 16000, 2), pcm, b"LIST" + struct.pack("<I", 5) + b"INFOx\x00"))
    return files


def test_read_wav_equals_scipy_wavfile(tmp_path):
    for name, path in _oracle_files(tmp_path).items():
        rate, want = _scipy_read_wav(path)
        buf = read_wav(path)
        assert buf.sample_rate == rate == 16000, name
        assert buf.data.dtype == np.float64 and np.array_equal(buf.data, want), name


def _valid_pcm16(tmp_path):
    path = tmp_path / "valid.wav"
    write_wav(path, AudioBuffer(np.zeros((100, 2)), 16000), pcm16=True)
    return path.read_bytes()


@pytest.mark.parametrize("make, defect", [
    (lambda ok: b"\x00" * 30, "not a RIFF/WAVE file"),
    (lambda ok: ok[:30], "fmt chunk shorter than declared (10 of 16 bytes)"),
    (lambda ok: _riff(b"\x01\x00" * 6, b""), "fmt chunk of 12 bytes, under 16"),
    (lambda ok: ok[:36], "no data chunk"),
    (lambda ok: _riff(b"", b"")[:12] + ok[36:], "no fmt chunk"),
    (lambda ok: ok[:-1], "data chunk shorter than declared (399 of 400 bytes)"),
    (lambda ok: _riff(_pcm_fmt(6, 1, 8000, 1), b"\x00" * 8), "tag 0x0006, 8 bits"),
    (lambda ok: _riff(struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 12), b"\x00" * 8),
     "tag 0x0001, 12 bits"),
    (lambda ok: _riff(_pcm_fmt(3, 1, 8000, 2), b"\x00" * 8), "tag 0x0003, 16 bits"),
    (lambda ok: _riff(_pcm_fmt(1, 1, 8000, 8), b"\x00" * 8), "tag 0x0001, 64 bits"),
    (lambda ok: _riff(_pcm_fmt(0xFFFE, 1, 8000, 2) + b"\x00" * 24, b"\x00" * 8),
     "WAVE_FORMAT_EXTENSIBLE"),
])
def test_unreadable_wav_names_path_and_defect(tmp_path, make, defect):
    path = tmp_path / "bad.wav"
    path.write_bytes(make(_valid_pcm16(tmp_path)))
    with pytest.raises(AudioFormatError) as exc:
        read_wav(path)
    assert str(path) in str(exc.value) and defect in str(exc.value)


# (target file, writer of version v into directory d); every file the
# package writes goes through audio_io.replace_file
_WRITERS = [
    ("x.wav", lambda d, v: write_wav(d / "x.wav", AudioBuffer(np.full(100, v / 2), 16000))),
    ("x.bin", lambda d, v: AzimuthStateMatrix(np.full((1, 2, 3), v), "coarse", v).save(
        d / "x.bin")),
    ("index.jsonl", lambda d, v: DatasetIndex(rows=[{"id": str(v)}]).save(d / "index.jsonl")),
    ("c.json", lambda d, v: synthesize_entry(
        ManifestEntry("c", (str(d.parent / "noise.wav"),), "SS",
                      caption="A dog barks on the left, outdoors.", seed=v), d, 0, duration=1.0)),
    ("failures.jsonl", lambda d, v: synthesize(
        [ManifestEntry("c", (str(d / f"missing{v}.wav"),), "SS", caption="A dog barks.")], d)),
    ("report.json", lambda d, v: main(
        ["validate", "--dataset", str(d / f"none{v}"), "--out-json", str(d / "report.json")])),
]


@pytest.mark.parametrize("name, write", _WRITERS, ids=[name for name, _ in _WRITERS])
def test_failed_write_leaves_old_file_and_no_temp(tmp_path, monkeypatch, name, write):
    write_wav(tmp_path / "noise.wav",
              AudioBuffer(np.random.default_rng(0).standard_normal(32000) * 0.3, 16000))
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    write(old, 0)

    def kept(d):  # the target, and for a matrix its sidecar
        return {p.name: p.read_bytes() for p in d.iterdir() if p.name.startswith(name)}

    before = kept(old)
    assert name in before
    failed, real_open = [], open

    class Failing:
        # each write stores part of its chunk, then fails
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, chunk):
            failed.append(name)
            self.f.write(bytes(chunk)[:10])
            raise OSError("disk full")

    def failing_open(file, *args):
        f = real_open(file, *args)
        return Failing(f) if Path(file).name.startswith(f".{name}.") else f

    monkeypatch.setattr(audio_io, "open", failing_open, raising=False)
    for d in (old, new):
        with contextlib.suppress(OSError):  # the CLI reports it and exits 2
            write(d, 1)
    assert len(failed) == 2
    assert kept(old) == before and kept(new) == {}
    assert not [p for d in (old, new) for p in d.iterdir() if p.suffix == ".tmp"]


def _writes_outside_replace_file(source: str) -> list[str]:
    """Calls in ``source`` that write a file anywhere but inside ``replace_file``:
    ``write_text``, ``write_bytes``, ``tofile``, or ``open`` with a w/a/x mode."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and func != "replace_file":
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            modes = [a.value for a in [*node.args, *(k.value for k in node.keywords
                                                     if k.arg == "mode")]
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            if name in ("write_text", "write_bytes", "tofile") or name == "open" and any(
                    re.fullmatch("[rwaxbt+]+", m) and set(m) & set("wax") for m in modes):
                found.append(f"line {node.lineno}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_every_file_write_goes_through_replace_file():
    planted = ('def f(p, a):\n    open(p, "w")\n    p.write_text("x")\n    a.tofile(p)\n'
               '    p.open(mode="ab")\n    p.write_bytes(b"")\n    open(p, "rb")\n')
    assert len(_writes_outside_replace_file(planted)) == 5
    assert _writes_outside_replace_file('def replace_file(p):\n    open(p, "wb")\n') == []
    src = Path(audio_io.__file__).parent
    found = {path.name: _writes_outside_replace_file(path.read_text())
             for path in sorted(src.glob("*.py"))}
    assert len(found) > 5 and {name: calls for name, calls in found.items() if calls} == {}


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
