import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stereoscene.acoustics import stereo_rir_for
from stereoscene.audio_io import AudioBuffer, read_wav, write_wav
from stereoscene.captions import parse_caption
from stereoscene.cli import build_parser, main
from stereoscene.pipeline import DatasetIndex
from stereoscene.rng import SeededRng
from stereoscene.scene import SceneSpec, sample_scene


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(2)
    clip = root / "noise.wav"
    write_wav(clip, AudioBuffer(rng.standard_normal(16000 * 11) * 0.3, 16000))
    manifest = root / "manifest.jsonl"
    entries = [
        {"id": "a", "subset": "SS", "audio": str(clip),
         "caption": "A dog barks on the right side of the scene, outdoors."},
        {"id": "b", "subset": "SD", "audio": str(clip),
         "caption": "A siren moves from left to front right quickly, outdoors."},
    ]
    manifest.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    return root, clip, manifest


@pytest.fixture(scope="module")
def dataset(workspace):
    root, _, manifest = workspace
    out = root / "ds"
    if not (out / "index.jsonl").exists():
        main(["synthesize", "--manifest", str(manifest), "--out", str(out), "--seed", "3"])
    return out


def test_synthesize_validate_evaluate_success_codes(workspace, capsys):
    root, clip, manifest = workspace
    out = root / "ds"
    assert main(["synthesize", "--manifest", str(manifest), "--out", str(out),
                 "--seed", "3"]) == 0
    assert main(["validate", "--dataset", str(out)]) == 0
    report_path = root / "report.json"
    assert main(["evaluate", "--generated", str(out), "--reference", str(out),
                 "--out-json", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["gcc_mae"] == 0.0
    stdout = capsys.readouterr().out
    assert "gcc_mae" in stdout


def test_evaluate_single_common_pair_exit_two(tmp_path, capsys):
    # one pair cannot give a covariance: a bad invocation, not skipped clips
    rng = np.random.default_rng(5)
    for name in ("gen", "ref"):
        write_wav(tmp_path / name / "only.wav",
                  AudioBuffer(rng.standard_normal((16000 * 2, 2)) * 0.3, 16000))
    assert main(["evaluate", "--generated", str(tmp_path / "gen"),
                 "--reference", str(tmp_path / "ref")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_out_json_in_missing_directory_exits_two(dataset, tmp_path, capsys, command):
    report = tmp_path / "no-such-dir" / "report.json"
    inputs = (["--dataset", str(dataset)] if command == "validate"
              else ["--generated", str(dataset), "--reference", str(dataset)])
    assert main([command, *inputs, "--out-json", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.parent.exists()


@pytest.mark.parametrize("command, option, target", [
    ("render-scene", "--out", "dir"),
    ("render-scene", "--export-rir", "file"),
    ("synthesize", "--out", "file"),
    ("synthesize", "--out", "file/sub"),
])
def test_unwritable_output_path_exits_two(workspace, tmp_path, capsys, command, option, target):
    # each used to end in a traceback and exit 1
    _, clip, manifest = workspace
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(sample_scene(parse_caption("A dog barks on the left, outdoors."),
                                       SeededRng(1)).to_json())
    options = {"render-scene": {"--scene": scene_path, "--audio": clip,
                                "--out": tmp_path / "out.wav"},
               "synthesize": {"--manifest": manifest, "--out": tmp_path / "ds"}}[command]
    options[option] = tmp_path / target
    assert main([command, *(str(a) for item in options.items() for a in item)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob(".*.tmp"))


def test_render_scene_unusable_rir_dir_writes_no_mix(workspace, tmp_path, capsys):
    # the mix used to be written (and "wrote" printed) before the RIR directory failed
    _, clip, _ = workspace
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(sample_scene(parse_caption("A dog barks on the left, outdoors."),
                                       SeededRng(1)).to_json())
    (tmp_path / "taken").write_text("")
    out_wav = tmp_path / "out.wav"
    assert main(["render-scene", "--scene", str(scene_path), "--audio", str(clip),
                 "--out", str(out_wav), "--export-rir", str(tmp_path / "taken")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "wrote" not in captured.out
    assert not out_wav.exists()


@pytest.mark.parametrize("rate", ["0", "-16000"])
def test_synthesize_nonpositive_sample_rate_exits_two(workspace, tmp_path, capsys, rate):
    _, _, manifest = workspace
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
              "--sample-rate", rate])
    assert exc.value.code == 2
    assert "--sample-rate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_synthesize_nonpositive_workers_exits_two(workspace, tmp_path, capsys, workers):
    # both used to exit 0 after a serial run
    _, _, manifest = workspace
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
              "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synthesize_partial_failure_exit_one(workspace, tmp_path):
    root, clip, _ = workspace
    manifest = tmp_path / "broken.jsonl"
    entries = [
        {"id": "good", "subset": "SS", "audio": str(clip),
         "caption": "A dog barks on the left, outdoors."},
        {"id": "bad", "subset": "SS", "audio": "no-such-file.wav",
         "caption": "A dog barks on the left."},
    ]
    manifest.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    assert main(["synthesize", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out"), "--seed", "1"]) == 1


def test_unreadable_manifest_exit_two(tmp_path):
    assert main(["synthesize", "--manifest", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "out")]) == 2
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text("{not json}\n")
    assert main(["synthesize", "--manifest", str(garbled),
                 "--out", str(tmp_path / "out")]) == 2


def test_malformed_manifest_line_exit_two(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id": "a", "audio": 5, "caption": "A dog barks."}\n')
    assert main(["synthesize", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{manifest}:1: " in capsys.readouterr().err


def test_malformed_nested_attributes_exit_two(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id": "a", "audio": "x.wav", "attributes": {"sources": [1]}}\n')
    assert main(["synthesize", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{manifest}:1: " in capsys.readouterr().err


def test_unknown_attribute_key_exit_two(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id": "a", "audio": "x.wav", "attributes": {"sources": '
                        '[{"event": "a dog", "direction": "left"}]}}\n')
    assert main(["synthesize", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{manifest}:1: " in err and "'direction'" in err


def test_validate_flags_tampering_exit_one(workspace, tmp_path):
    root, _, manifest = workspace
    out = tmp_path / "ds"
    main(["synthesize", "--manifest", str(manifest), "--out", str(out), "--seed", "3"])
    row = json.loads((out / "index.jsonl").read_text().splitlines()[0])
    buf = read_wav(out / row["wav"])
    write_wav(out / row["wav"], AudioBuffer(buf.data[: 16000 * 9], 16000))
    assert main(["validate", "--dataset", str(out)]) == 1


def test_parse_captions_stdin_like_file(tmp_path, capsys):
    src = tmp_path / "captions.txt"
    src.write_text("A dog barks on the left.\nTrumpet sound moves from right "
                   "to front left at a moderate speed.\n")
    assert main(["parse-captions", "--input", str(src)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines[0]["attributes"]["sources"][0]["direction_label"] == "left"
    assert lines[1]["attributes"]["sources"][0]["movement"] == "moving"


def test_parse_captions_skips_blank_lines(tmp_path, capsys):
    src = tmp_path / "captions.txt"
    src.write_text("\nA dog barks on the left.\n   \n\nRain falls directly in front.\n\n")
    assert main(["parse-captions", "--input", str(src)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [line["caption"] for line in lines] == [
        "A dog barks on the left.", "Rain falls directly in front."]


def test_parse_captions_reports_errors(tmp_path, capsys):
    src = tmp_path / "captions.txt"
    src.write_text("A dog barks on the left.\n...\n")
    assert main(["parse-captions", "--input", str(src)]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert "error" in lines[1]


def test_parse_captions_missing_input_exits_two(tmp_path, capsys):
    missing = tmp_path / "captions.txt"
    assert main(["parse-captions", "--input", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(missing) in captured.err
    assert captured.out == ""


def test_render_scene_with_rir_export(workspace, dataset, tmp_path, capsys):
    _, clip, _ = workspace
    row = json.loads((dataset / "index.jsonl").read_text().splitlines()[0])
    meta = json.loads((dataset / row["metadata"]).read_text())
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(meta["scene"]))
    out_wav = tmp_path / "debug.wav"
    rir_dir = tmp_path / "rirs"
    assert main(["render-scene", "--scene", str(scene_path), "--audio", str(clip),
                 "--out", str(out_wav), "--export-rir", str(rir_dir)]) == 0
    rendered = read_wav(out_wav)
    assert rendered.channels == 2 and rendered.n_samples == 160000
    exported = sorted(p.name for p in rir_dir.glob("*.wav"))
    assert exported == ["source0_left.wav", "source0_right.wav"]
    rir = read_wav(rir_dir / "source0_left.wav")
    assert rir.channels == 1 and np.any(rir.data)
    # the whole response, leading zeros included
    scene = SceneSpec.from_json(scene_path.read_text())
    full = stereo_rir_for(scene, scene.sources[0].start_pos)
    assert full.start > 0 and rir.n_samples == full.length
    assert read_wav(rir_dir / "source0_right.wav").n_samples == full.length


def test_render_scene_masters_like_synthesize(workspace, dataset, tmp_path, capsys):
    # a stored scene, its source audio and its seed give the clip's WAV bytes
    for row in map(json.loads, (dataset / "index.jsonl").read_text().splitlines()):
        meta = json.loads((dataset / row["metadata"]).read_text())
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(meta["scene"]))
        out_wav = tmp_path / f"{row['id']}.wav"
        assert main(["render-scene", "--scene", str(scene_path), "--audio",
                     *meta["source_audio"], "--out", str(out_wav),
                     "--seed", str(meta["seed"])]) == 0
        assert out_wav.read_bytes() == (dataset / row["wav"]).read_bytes()
        assert f"(master gain {meta['master_gain']!r})" in capsys.readouterr().out


@pytest.mark.parametrize("defect", ["fmt chunk shorter than declared", "No such file",
                                    "non-finite sample(s)"])
def test_render_scene_unreadable_audio_exits_two(workspace, tmp_path, capsys, defect):
    _, clip, _ = workspace
    record = parse_caption("A dog barks on the left, outdoors.")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(sample_scene(record, SeededRng(1)).to_json())
    bad = tmp_path / "bad.wav"
    if defect == "fmt chunk shorter than declared":
        bad.write_bytes(clip.read_bytes()[:30])
    elif defect == "non-finite sample(s)":
        data = read_wav(clip).data.copy()
        data[1000:1100] = np.nan
        write_wav(bad, AudioBuffer(data, 16000))
    assert main(["render-scene", "--scene", str(scene_path), "--audio", str(bad),
                 "--out", str(tmp_path / "out.wav")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and defect in err
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("defect", ["not an object", "missing field", "unknown field",
                                    "string angle", "two room dims", "NaN",
                                    "source on a capsule", "zero sample rate",
                                    "negative sample rate", "zero duration",
                                    "negative duration", "sub-sample duration",
                                    "moving at 40 Hz"])
def test_render_scene_malformed_scene_exits_two(workspace, tmp_path, capsys, defect):
    _, clip, _ = workspace
    scene = json.loads(sample_scene(parse_caption("A dog barks on the left, outdoors."),
                                    SeededRng(1)).to_json())
    moving = sample_scene(parse_caption("A siren moves from left to front right quickly, "
                                        "outdoors."), SeededRng(1))
    center, half = scene["mic_array"]["center"], scene["mic_array"]["half_spacing"]
    capsule = [center[0], center[1] - half, center[2]]

    def edited(**source):
        return json.dumps(dict(scene, sources=[dict(scene["sources"][0], **source)]))

    text, named = {
        "not an object": ("[1, 2]", "JSON object"),
        "missing field": ("{}", "'sources'"),
        "unknown field": (edited(loudness=3.0), "'loudness'"),
        "string angle": (edited(angle="90"), "SourceSpec.angle"),
        "two room dims": (json.dumps(dict(scene, room_dims=[1, 2])), "SceneSpec.room_dims"),
        "NaN": (edited(movement="moving", move_interval=float("nan")),
                "SourceSpec.move_interval"),
        "source on a capsule": (edited(start_pos=capsule, end_pos=capsule), "coincide"),
        "zero sample rate": (json.dumps(dict(scene, sample_rate=0)), "sample_rate"),
        "negative sample rate": (json.dumps(dict(scene, sample_rate=-16000)), "sample_rate"),
        "zero duration": (json.dumps(dict(scene, duration=0)), "duration"),
        "negative duration": (json.dumps(dict(scene, duration=-1)), "duration"),
        "sub-sample duration": (json.dumps(dict(scene, duration=1e-9)), "duration"),
        "moving at 40 Hz": (json.dumps(dict(json.loads(moving.to_json()), sample_rate=40)),
                            "40 Hz"),
    }[defect]
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(text)
    assert main(["render-scene", "--scene", str(scene_path), "--audio", str(clip),
                 "--out", str(tmp_path / "out.wav")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("given", ["--external-gen", "--external-ref"])
def test_evaluate_one_external_dir_exits_two(dataset, tmp_path, capsys, given):
    # one embedding directory alone used to be ignored, and the built-in
    # embedder scored instead
    assert main(["evaluate", "--generated", str(dataset), "--reference", str(dataset),
                 given, str(tmp_path)]) == 2
    missing = ({"--external-gen", "--external-ref"} - {given}).pop()
    assert missing in capsys.readouterr().err


def _truncated_copy(dataset, tmp_path):
    """A copy of ``dataset`` whose index.jsonl lost 20 bytes off its last line."""
    out = tmp_path / "ds"
    shutil.copytree(dataset, out)
    index = out / "index.jsonl"
    index.write_bytes(index.read_bytes()[:-21] + b"\n")
    return out, len(index.read_text().splitlines())


def test_validate_truncated_index_exits_two(dataset, tmp_path, capsys):
    out, last = _truncated_copy(dataset, tmp_path)
    assert main(["validate", "--dataset", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out / 'index.jsonl'}:{last}: ")


def test_evaluate_truncated_index_exits_two(dataset, tmp_path, capsys):
    out, last = _truncated_copy(dataset, tmp_path)
    assert main(["evaluate", "--generated", str(out / "index.jsonl"),
                 "--reference", str(dataset)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out / 'index.jsonl'}:{last}: ")


def _copy_without(dataset, tmp_path, key):
    """A copy of ``dataset`` whose first index.jsonl row lacks ``key``."""
    out = tmp_path / "ds"
    shutil.copytree(dataset, out)
    index = out / "index.jsonl"
    first, *rest = index.read_text().splitlines()
    row = json.loads(first)
    del row[key]
    index.write_text("\n".join([json.dumps(row), *rest]) + "\n")
    return out


@pytest.mark.parametrize("key", ["id", "wav"])
def test_validate_index_row_without_key_exits_two(dataset, tmp_path, capsys, key):
    out = _copy_without(dataset, tmp_path, key)
    assert main(["validate", "--dataset", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'index.jsonl'}:1: ") and repr(key) in err


@pytest.mark.parametrize("key", ["id", "wav"])
def test_evaluate_index_row_without_key_exits_two(dataset, tmp_path, capsys, key):
    out = _copy_without(dataset, tmp_path, key)
    assert main(["evaluate", "--generated", str(out), "--reference", str(dataset)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'index.jsonl'}:1: ") and repr(key) in err


@pytest.mark.parametrize("sidecar", ['{"shape": [4', '{"shape": [4], "mean_tdoa_ms": "x"}'],
                         ids=["truncated", "string_tdoa"])
def test_evaluate_malformed_embedding_sidecar_exits_two(dataset, tmp_path, capsys, sidecar):
    for side in ("gen", "ref"):
        for name in ("a", "b"):
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / f"{name}.bin").write_bytes(np.ones(4, np.float32).tobytes())
            (tmp_path / side / f"{name}.bin.json").write_text('{"shape": [4]}')
    (tmp_path / "ref" / "b.bin.json").write_text(sidecar)
    assert main(["evaluate", "--generated", str(dataset), "--reference", str(dataset),
                 "--external-gen", str(tmp_path / "gen"),
                 "--external-ref", str(tmp_path / "ref")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'ref' / 'b.bin.json'}: ")


def test_evaluate_one_common_external_id_exits_two(dataset, tmp_path, capsys):
    # one common id used to keep the built-in fsad while crw_mae still came
    # from the external sidecars
    for side, name in (("gen", "a"), ("gen", "b"), ("ref", "b")):
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / f"{name}.bin").write_bytes(np.ones(4, np.float32).tobytes())
        (tmp_path / side / f"{name}.bin.json").write_text('{"shape": [4], "mean_tdoa_ms": 0.1}')
    assert main(["evaluate", "--generated", str(dataset), "--reference", str(dataset),
                 "--external-gen", str(tmp_path / "gen"),
                 "--external-ref", str(tmp_path / "ref")]) == 2
    assert "share 1 clip id" in capsys.readouterr().err


def test_evaluate_prints_crw_mae_and_subset_rows(dataset, tmp_path, capsys):
    # both clips tagged SS give an [SS] row; sidecars with mean_tdoa_ms give crw_mae
    gen = tmp_path / "gen"
    shutil.copytree(dataset, gen)
    index = DatasetIndex.load(gen / "index.jsonl")
    for row in index.rows:
        row["subset"] = "SS"
    index.save(gen / "index.jsonl")
    for side, tdoa_ms in (("gen_emb", 0.1), ("ref_emb", 0.3)):
        (tmp_path / side).mkdir()
        for scale, name in enumerate(("a", "b"), start=1):
            vec = np.array([1.0, 2.0, 3.0, 5.0], np.float32) * scale
            (tmp_path / side / f"{name}.bin").write_bytes(vec.tobytes())
            (tmp_path / side / f"{name}.bin.json").write_text(
                json.dumps({"shape": [4], "mean_tdoa_ms": tdoa_ms}))
    assert main(["evaluate", "--generated", str(gen), "--reference", str(dataset),
                 "--external-gen", str(tmp_path / "gen_emb"),
                 "--external-ref", str(tmp_path / "ref_emb")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"{'crw_mae':<10} {20.0:>10.3f}" in lines
    assert [line.split(" gcc_mae=")[0] for line in lines if line.startswith("  [")] == [
        "  [SS] n=2"]


def test_positive_int_options_accept_a_positive_value():
    args = build_parser().parse_args(["synthesize", "--manifest", "m.jsonl", "--out", "ds",
                                      "--workers", "3", "--sample-rate", "22050"])
    assert (args.workers, args.sample_rate) == (3, 22050)


_EVALUATE_RUN = r"""
import sys
from stereoscene.cli import main
sys.exit(main(["evaluate", "--generated", sys.argv[1], "--reference", sys.argv[2],
               "--out-json", sys.argv[3]]))
"""


def test_evaluate_report_bytes_independent_of_blas_threads(tmp_path):
    # 4 SS and 4 DS outdoor pairs; before the lags came from FFTs alone, the
    # SS fsad of this set differed in its last digits between 1 and 2 threads
    clip = tmp_path / "noise.wav"
    write_wav(clip, AudioBuffer(np.random.default_rng(4).standard_normal(16000 * 12) * 0.3,
                                16000))
    directions = ("left", "front_left", "front", "front_right", "right")

    def source(i):
        return {"event": "a noise", "direction_label": directions[i % 5],
                "distance_label": ("far", "moderate", "near")[i % 3], "movement": "still"}

    entries = [{"id": f"ss{i}", "subset": "SS", "audio": [str(clip)],
                "attributes": {"scene_size": "outdoors", "sources": [source(i)]}}
               for i in range(4)]
    entries += [{"id": f"ds{i}", "subset": "DS", "audio": [str(clip), str(clip)],
                 "attributes": {"scene_size": "outdoors",
                                "sources": [source(i), source(i + 2)]}}
                for i in range(4)]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
    for name, seed in (("gen", "1"), ("ref", "2")):
        assert main(["synthesize", "--manifest", str(manifest), "--out",
                     str(tmp_path / name), "--seed", seed]) == 0
    src_dir = Path(__file__).resolve().parent.parent / "src"
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(src_dir))
        out = tmp_path / f"report{threads}.json"
        subprocess.run([sys.executable, "-c", _EVALUATE_RUN, str(tmp_path / "gen"),
                        str(tmp_path / "ref"), str(out)],
                       env=env, capture_output=True, text=True, timeout=300, check=True)
        reports.append(out.read_bytes())
    assert set(json.loads(reports[0])["by_subset"]) == {"SS", "DS"}
    assert reports[0] == reports[1]


def test_bad_subcommand_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_FOOTPRINT_RUN = r"""
import json, sys
from pathlib import Path

import numpy as np

import stereoscene
import stereoscene.cli
from stereoscene.audio_io import AudioBuffer, write_wav

root = Path(sys.argv[1])
clip = root / "noise.wav"
write_wav(clip, AudioBuffer(np.random.default_rng(8).standard_normal(16000 * 11) * 0.3, 16000))
entries = [
    {"id": "still", "subset": "SS", "audio": str(clip),
     "caption": "A dog barks on the right side of the scene, outdoors."},
    {"id": "moving", "subset": "SD", "audio": str(clip),
     "caption": "A siren moves from left to front right quickly, outdoors."},
    {"id": "instant", "subset": "SD", "audio": str(clip),
     "caption": "A dog barks at left, then another dog barks at right, outdoors."},
    {"id": "room", "subset": "SD", "audio": str(clip),
     "caption": "A siren moves from left to right slowly in a large space."},
]
(root / "manifest.jsonl").write_text("".join(json.dumps(e) + "\n" for e in entries))
ds = str(root / "ds")
codes = [stereoscene.cli.main(argv) for argv in (
    ["synthesize", "--manifest", str(root / "manifest.jsonl"), "--out", ds],
    ["validate", "--dataset", ds],
    ["evaluate", "--generated", ds, "--reference", ds],
)]
print(json.dumps({"codes": codes, "signal_loaded": "scipy.signal" in sys.modules,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_flow_never_imports_scipy_signal(tmp_path):
    # still, moving and instant renders on 16 kHz audio, plus a moving source
    # in a room (batched RIR builds, two render threads); evaluate needs at
    # least two pairs for its covariances. No scipy module loads at all.
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "signal_loaded": False, "scipy": []}
    assert (tmp_path / "ds" / "instant.wav").exists()
    assert (tmp_path / "ds" / "room.wav").exists()
