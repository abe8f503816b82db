import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stereoscene.audio_io import AudioBuffer, read_wav, write_wav
from stereoscene.captions import parse_caption
from stereoscene.cli import main
from stereoscene.rng import SeededRng
from stereoscene.scene import sample_scene


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


@pytest.mark.parametrize("rate", ["0", "-16000"])
def test_synthesize_nonpositive_sample_rate_exits_two(workspace, tmp_path, capsys, rate):
    _, _, manifest = workspace
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
              "--sample-rate", rate])
    assert exc.value.code == 2
    assert "--sample-rate" in capsys.readouterr().err
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


@pytest.mark.parametrize("defect", ["fmt chunk shorter than declared", "No such file"])
def test_render_scene_unreadable_audio_exits_two(workspace, tmp_path, capsys, defect):
    _, clip, _ = workspace
    record = parse_caption("A dog barks on the left, outdoors.")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(sample_scene(record, SeededRng(1)).to_json())
    bad = tmp_path / "bad.wav"
    if defect != "No such file":
        bad.write_bytes(clip.read_bytes()[:30])
    assert main(["render-scene", "--scene", str(scene_path), "--audio", str(bad),
                 "--out", str(tmp_path / "out.wav")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and defect in err
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("defect", ["not an object", "missing field", "unknown field",
                                    "string angle", "two room dims", "NaN",
                                    "source on a capsule", "zero sample rate",
                                    "negative sample rate", "zero duration",
                                    "negative duration", "sub-sample duration"])
def test_render_scene_malformed_scene_exits_two(workspace, tmp_path, capsys, defect):
    _, clip, _ = workspace
    scene = json.loads(sample_scene(parse_caption("A dog barks on the left, outdoors."),
                                    SeededRng(1)).to_json())
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
    }[defect]
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(text)
    assert main(["render-scene", "--scene", str(scene_path), "--audio", str(clip),
                 "--out", str(tmp_path / "out.wav")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out.wav").exists()


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
