"""validate: one planted defect per violation kind on 2 s clips, and the
README's list of kinds held equal to the kinds that pipeline.py reports."""

import ast
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from stereoscene import pipeline
from stereoscene.audio_io import AudioBuffer, read_wav, write_wav
from stereoscene.pipeline import DatasetIndex, read_manifest, synthesize, validate

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A 2 s tree: a lateral noise SS clip outdoors and one in a small room,
    and an outdoor SD clip."""
    d = tmp_path_factory.mktemp("validate")
    noise = d / "noise.wav"
    write_wav(noise, AudioBuffer(np.random.default_rng(5).standard_normal(16000 * 3) * 0.3, 16000))
    entries = [
        {"id": "out", "subset": "SS", "audio": str(noise),
         "caption": "A dog barks on the left, outdoors."},
        {"id": "room", "subset": "SS", "audio": str(noise),
         "caption": "A dog barks on the left, in a small space."},
        {"id": "move", "subset": "SD", "audio": str(noise),
         "caption": "A siren moves from left to right quickly, outdoors."},
    ]
    manifest = d / "m.jsonl"
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
    out = d / "tree"
    index = synthesize(read_manifest(manifest), out, global_seed=3, duration=2.0)
    assert not index.failures
    return out


@pytest.fixture(scope="module")
def angle_tree(tmp_path_factory):
    """A 2 s tree of two outdoor SS clips whose attributes give tiny angles."""
    d = tmp_path_factory.mktemp("validate-angles")
    noise = d / "noise.wav"
    write_wav(noise, AudioBuffer(np.random.default_rng(6).standard_normal(16000 * 3) * 0.3, 16000))
    entries = [
        {"id": f"deg{i}", "subset": "SS", "audio": str(noise),
         "attributes": {"scene_size": "outdoors",
                        "sources": [{"event": "a hum", "direction_degrees": degrees}]}}
        for i, degrees in enumerate((1e-05, 2.5e-07))
    ]
    manifest = d / "m.jsonl"
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
    out = d / "tree"
    index = synthesize(read_manifest(manifest), out, global_seed=3, duration=2.0)
    assert not index.failures
    return out


@pytest.fixture(scope="module")
def phrase_tree(tmp_path_factory):
    """A 2 s tree whose captions hold size words and a decimal end angle: an SS
    clip named after ``outdoor_birds.wav`` in a small room, an SS clip whose
    event holds "hall" in a moderate room, and an outdoor SD clip that ends
    at 20.5 degrees."""
    d = tmp_path_factory.mktemp("validate-phrases")
    birds = d / "outdoor_birds.wav"
    write_wav(birds, AudioBuffer(np.random.default_rng(7).standard_normal(16000 * 3) * 0.3, 16000))
    entries = [
        {"id": "birds", "subset": "SS", "audio": str(birds),
         "attributes": {"scene_size": "small", "sources": [
             {"direction_label": "left", "distance_label": "near"}]}},
        {"id": "clock", "subset": "SS", "audio": str(birds),
         "attributes": {"scene_size": "moderate", "sources": [
             {"event": "a hall clock ticking", "direction_label": "right",
              "distance_label": "far"}]}},
        {"id": "siren", "subset": "SD", "audio": str(birds),
         "attributes": {"scene_size": "outdoors", "sources": [
             {"event": "a siren", "direction_label": "left", "distance_label": "far",
              "movement": "moving", "speed_label": "fast", "end_direction_degrees": 20.5}]}},
    ]
    manifest = d / "m.jsonl"
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
    out = d / "tree"
    index = synthesize(read_manifest(manifest), out, global_seed=3, duration=2.0)
    assert not index.failures
    return out


def _violations(tree, tmp_path, plant) -> list[dict]:
    """The violations of a copy of ``tree`` that ``plant`` damaged."""
    broken = tmp_path / "broken"
    shutil.copytree(tree, broken)
    plant(broken)
    return validate(broken).violations


def _kinds(violations) -> list[tuple[str, str]]:
    return [(v["id"], v["kind"]) for v in violations]


def _set_caption(root: Path, clip_id: str, caption: str) -> None:
    index = DatasetIndex.load(root / "index.jsonl")
    for row in index.rows:
        if row["id"] == clip_id:
            row["caption"] = caption
    index.save(root / "index.jsonl")


def test_fresh_tree_validates_clean(tree):
    report = validate(tree)
    assert report.checked == 3
    assert report.ok, report.violations


def test_tiny_angle_tree_validates_clean(angle_tree):
    # "1e-05 degrees" in a caption used to parse as 5 degrees
    captions = [row["caption"] for row in DatasetIndex.load(angle_tree / "index.jsonl").rows]
    assert [c.split(" degrees")[0] for c in captions] == ["A hum at 0.00001", "A hum at 0.00000025"]
    report = validate(angle_tree)
    assert report.checked == 2
    assert report.ok, report.violations


def test_size_words_and_decimal_end_angles_validate_clean(phrase_tree):
    # the first two captions used to parse as outdoors and large, the third as
    # a still source at 20.5 degrees
    captions = [row["caption"] for row in DatasetIndex.load(phrase_tree / "index.jsonl").rows]
    assert captions == [
        "Outdoor birds on the left side of the scene, close by, in a small space.",
        "A hall clock ticking on the right side of the scene, far away, in a moderately sized "
        "space.",
        "A siren moves from left (far away) to 20.5 degrees quickly, outdoors.",
    ]
    report = validate(phrase_tree)
    assert report.checked == 3
    assert report.ok, report.violations


def test_missing_metadata_is_unreadable(tree, tmp_path):
    assert _kinds(_violations(tree, tmp_path, lambda root: (root / "out.json").unlink())) == [
        ("out", "unreadable")]


def test_missing_wav_flagged(tree, tmp_path):
    assert _kinds(_violations(tree, tmp_path, lambda root: (root / "out.wav").unlink())) == [
        ("out", "missing_file")]


def test_wav_at_another_rate_flagged(tree, tmp_path):
    def plant(root):
        write_wav(root / "move.wav", AudioBuffer(read_wav(root / "move.wav").data, 8000))

    assert _kinds(_violations(tree, tmp_path, plant)) == [("move", "sample_rate")]


def test_caption_with_another_direction_flagged(tree, tmp_path):
    def plant(root):
        _set_caption(root, "out", "A dog barks on the right, outdoors.")

    assert _kinds(_violations(tree, tmp_path, plant)) == [("out", "caption_roundtrip")]


@pytest.mark.parametrize("caption", [
    "A dog barks on the left.",
    "A dog barks on the left while a cat meows on the right, outdoors.",
    "A dog barks at 170 degrees, outdoors.",
], ids=["scene-size", "source-count", "angle-for-label"])
def test_caption_with_other_labels_flagged(tree, tmp_path, caption):
    def plant(root):
        _set_caption(root, "out", caption)

    assert _kinds(_violations(tree, tmp_path, plant)) == [("out", "caption_roundtrip")]


@pytest.mark.parametrize("caption, detail", [
    ("A dog barks on the left, in a small space.", "scene size: parsed small, stored outdoors"),
    ("A dog barks on the right, outdoors.", "source 1 direction: parsed right, stored left"),
    ("A dog barks on the left, far away, outdoors.",
     "source 1 distance: parsed far, stored near"),
], ids=["scene-size", "direction", "distance"])
def test_caption_roundtrip_names_the_first_label_that_differs(tree, tmp_path, caption, detail):
    stored = json.loads((tree / "out.json").read_text())["attributes"]["sources"][0]
    assert (stored["direction_label"], stored["distance_label"]) == ("left", "near")

    def plant(root):
        _set_caption(root, "out", caption)

    assert [v["detail"] for v in _violations(tree, tmp_path, plant)] == [detail]


def test_caption_with_another_angle_flagged(angle_tree, tmp_path):
    # angles are compared as the caption writes them; 0.4 degrees used to
    # pass for 1e-05 within a 0.51 degree tolerance
    def plant(root):
        _set_caption(root, "deg0", "A hum at 0.4 degrees, outdoors.")

    assert _kinds(_violations(angle_tree, tmp_path, plant)) == [("deg0", "caption_roundtrip")]


def test_caption_without_event_flagged(tree, tmp_path):
    def plant(root):
        _set_caption(root, "out", "On the left, outdoors.")

    assert _kinds(_violations(tree, tmp_path, plant)) == [("out", "caption_parse")]


@pytest.mark.parametrize("clip_id", ["out", "room"])
def test_swapped_channels_off_geometry(tree, tmp_path, clip_id):
    # the outdoor clip is held to the anechoic tolerance, the room clip to the
    # reverberant one; a mirrored lateral source misses both
    def plant(root):
        buf = read_wav(root / f"{clip_id}.wav")
        write_wav(root / f"{clip_id}.wav", AudioBuffer(buf.data[:, ::-1], buf.sample_rate))

    violations = _violations(tree, tmp_path, plant)
    assert _kinds(violations) == [(clip_id, "tdoa_geometry")]
    err_ms = float(re.search(r"by ([\d.]+) ms", violations[0]["detail"]).group(1))
    assert err_ms > pipeline.TDOA_GEOMETRY_TOL_REVERB_MS


def _reported_kinds() -> list:
    """The kind argument of every ``report.add`` call in pipeline.py."""
    tree = ast.parse(Path(pipeline.__file__).read_text())
    return [node.args[1] for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "report"]


def test_readme_lists_every_violation_kind():
    # a kind added to validate without its README line fails here
    readme = (ROOT / "README.md").read_text()
    block = readme.split("of one of these kinds:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = [re.match(r"- `(\w+)` — ", line).group(1) for line in block.splitlines()]
    kinds = _reported_kinds()
    assert kinds and all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in kinds)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted({k.value for k in kinds})
