import hashlib
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from stereoscene import pipeline, render
from stereoscene.audio_io import AudioBuffer, read_wav, write_wav
from stereoscene.guidance import AzimuthStateMatrix
from stereoscene.pipeline import (
    DatasetIndex,
    ManifestEntry,
    ManifestError,
    evaluate,
    read_manifest,
    synthesize,
    synthesize_entry,
    validate,
)


@pytest.fixture(scope="module")
def clip_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("clips")
    rng = np.random.default_rng(11)
    write_wav(d / "noise.wav", AudioBuffer(rng.standard_normal(16000 * 12) * 0.3, 16000))
    write_wav(d / "burst.wav", AudioBuffer(
        np.concatenate([rng.standard_normal(16000 * 6) * 0.4, np.zeros(16000)]), 16000))
    return d


def _entries(clip_dir):
    noise = str(clip_dir / "noise.wav")
    burst = str(clip_dir / "burst.wav")
    return [
        {"id": "ss-a", "subset": "SS", "audio": noise,
         "caption": "A dog barks on the right side of the scene, outdoors."},
        {"id": "ss-b", "subset": "SS", "audio": burst,
         "caption": "Rain falls directly in front, outdoors."},
        {"id": "sd-a", "subset": "SD", "audio": noise,
         "caption": "A siren moves from left to front right quickly, outdoors."},
        {"id": "sd-in", "subset": "SD", "audio": noise,
         "caption": "A siren moves from right to front left quickly, in a small space."},
        {"id": "ds-a", "subset": "DS", "audio": [noise, burst],
         "caption": "A dog barks on the left while a cat meows on the right, outdoors."},
        {"id": "m-a", "subset": "M", "audio": [noise, burst],
         "caption": "A dog barks on the left, while a bell rings from right to front "
                    "left at a moderate speed."},
    ]


def _write_manifest(path, entries):
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")


def _tree_digest(root: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------
def test_manifest_roundtrip(tmp_path, clip_dir):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, _entries(clip_dir))
    entries = read_manifest(path)
    assert [e.clip_id for e in entries] == ["ss-a", "ss-b", "sd-a", "sd-in", "ds-a", "m-a"]
    assert entries[4].audio_paths[1].endswith("burst.wav")


def test_manifest_duplicate_ids_rejected(tmp_path, clip_dir):
    path = tmp_path / "m.jsonl"
    e = _entries(clip_dir)[0]
    _write_manifest(path, [e, e])
    with pytest.raises(ManifestError):
        read_manifest(path)


def test_synthesize_rejects_duplicate_ids_before_writing(tmp_path, clip_dir):
    first, second = (ManifestEntry.from_dict(e) for e in _entries(clip_dir)[:2])
    dup = ManifestEntry.from_dict(dict(_entries(clip_dir)[1], id=first.clip_id))
    out = tmp_path / "ds"
    with pytest.raises(ManifestError, match=repr(first.clip_id)):
        synthesize([first, second, dup], out, global_seed=1)
    assert not out.exists()


@pytest.mark.parametrize("line", [
    '{"id": "a", "audio": 5, "caption": "A dog barks on the left."}',
    '{"id": "a", "audio": "x.wav", "attributes": "nope"}',
    '[1, 2]',
    '{"id": "a", "audio": "x.wav", "attributes": {"scene_size": "small", "sources": [1]}}',
    '{"id": "a", "audio": "x.wav", "attributes": {"scene_size": "small", "sources": "ab"}}',
    '{"id": "a", "audio": "x.wav", "caption": "A dog barks.", "seed": "abc"}',
    '{"id": "a", "audio": "x.wav", "caption": 5}',
    '{"id": "a", "audio": "x.wav", "attributes": {"sources": '
    '[{"event": "a dog", "direction": "left"}]}}',
    '{"id": "a", "audio": "x.wav", "caption": "A dog barks.", "subet": "SD", "sed": 3}',
    '{"id": 7, "audio": "x.wav", "caption": "A dog barks."}',
    '{"id": "a", "audio": "x.wav", "caption": "A dog barks.", "attributes": {}}',
    '{"id": "a", "audio": "x.wav", "caption": "A dog barks.", "attributes": []}',
], ids=["audio-int", "attributes-str", "non-object", "sources-int-item", "sources-str",
        "seed-str", "caption-int", "unknown-attribute", "unknown-key", "id-int",
        "attributes-empty-object", "attributes-empty-array"])
def test_malformed_manifest_line_names_path_and_line(tmp_path, line):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": "ok", "audio": "x.wav", "caption": "A dog barks."}\n' + line + "\n")
    with pytest.raises(ManifestError, match=rf"{path}:2: "):
        read_manifest(path)


def test_manifest_bad_subset_rejected():
    with pytest.raises(ManifestError):
        ManifestEntry(clip_id="x", audio_paths=("a.wav",), subset="XX", caption="hi")


def test_subset_cardinality_enforced(tmp_path, clip_dir):
    noise = str(clip_dir / "noise.wav")
    entry = ManifestEntry(
        clip_id="bad-ds", audio_paths=(noise,), subset="DS",
        caption="A dog barks on the left.",  # one source, DS needs two
    )
    with pytest.raises(ManifestError):
        synthesize_entry(entry, tmp_path, global_seed=0)

    entry = ManifestEntry(
        clip_id="bad-ss", audio_paths=(noise,), subset="SS",
        caption="A siren moves from left to right quickly.",
    )
    with pytest.raises(ManifestError):
        synthesize_entry(entry, tmp_path, global_seed=0)


def test_sd_requires_motion(tmp_path, clip_dir):
    entry = ManifestEntry(
        clip_id="bad-sd", audio_paths=(str(clip_dir / "noise.wav"),), subset="SD",
        caption="A dog barks on the left.",
    )
    with pytest.raises(ManifestError):
        synthesize_entry(entry, tmp_path, global_seed=0)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def synthesized(tmp_path_factory, clip_dir):
    manifest_path = tmp_path_factory.mktemp("manifest") / "m.jsonl"
    _write_manifest(manifest_path, _entries(clip_dir))
    out = tmp_path_factory.mktemp("dataset")
    index = synthesize(read_manifest(manifest_path), out, global_seed=21)
    return out, index


def test_synthesis_outputs_complete(synthesized):
    out, index = synthesized
    assert not index.failures
    assert len(index.rows) == 6
    for row in index.rows:
        wav = read_wav(out / row["wav"])
        assert wav.n_samples == 160000 and wav.sample_rate == 16000 and wav.channels == 2
        assert (out / row["metadata"]).exists()
        coarse = AzimuthStateMatrix.load(out / row["coarse_matrix"])
        fine = AzimuthStateMatrix.load(out / row["fine_matrix"])
        meta = json.loads((out / row["metadata"]).read_text())
        n_sources = len(meta["scene"]["sources"])
        assert coarse.data.shape == (n_sources, 64, 768)
        assert fine.data.shape == (n_sources, 64, 768)


def test_ds_entry_has_two_distinct_direction_sources(synthesized):
    out, index = synthesized
    row = next(r for r in index.rows if r["id"] == "ds-a")
    meta = json.loads((out / row["metadata"]).read_text())
    sources = meta["scene"]["sources"]
    assert len(sources) == 2
    assert sources[0]["angle"] != sources[1]["angle"]
    assert "while" in row["caption"]


def test_m_set_defaults_outdoors(synthesized):
    out, index = synthesized
    row = next(r for r in index.rows if r["id"] == "m-a")
    meta = json.loads((out / row["metadata"]).read_text())
    assert meta["scene"]["rt60"] is None
    assert meta["attributes"]["scene_size"] == "outdoors"


def test_metadata_records_gains_and_seed(synthesized):
    out, index = synthesized
    for row in index.rows:
        meta = json.loads((out / row["metadata"]).read_text())
        assert len(meta["source_gains"]) == len(meta["scene"]["sources"])
        assert meta["master_gain"] > 0
        assert meta["seed"] == row["seed"]


def test_failures_are_isolated(tmp_path, clip_dir):
    entries = _entries(clip_dir)[:2]
    entries.insert(1, {"id": "broken", "subset": "SS", "audio": "missing-file.wav",
                       "caption": "A dog barks on the left."})
    manifest_path = tmp_path / "m.jsonl"
    _write_manifest(manifest_path, entries)
    out = tmp_path / "out"
    index = synthesize(read_manifest(manifest_path), out, global_seed=3)
    assert len(index.rows) == 2
    assert len(index.failures) == 1 and index.failures[0]["id"] == "broken"
    assert (out / "failures.jsonl").exists()


def test_non_finite_source_audio_fails_entry(tmp_path, clip_dir):
    noisy = read_wav(clip_dir / "noise.wav").data.copy()
    noisy[12345] = np.nan
    write_wav(tmp_path / "nan.wav", AudioBuffer(noisy, 16000))
    entries = _entries(clip_dir)[:1] + [
        {"id": "ds-nan", "subset": "DS", "audio": [str(clip_dir / "noise.wav"),
                                                   str(tmp_path / "nan.wav")],
         "caption": "A dog barks on the left while a cat meows on the right, outdoors."}]
    manifest_path = tmp_path / "m.jsonl"
    _write_manifest(manifest_path, entries)
    out = tmp_path / "out"
    index = synthesize(read_manifest(manifest_path), out, global_seed=3, duration=2.0)
    assert [r["id"] for r in index.rows] == ["ss-a"]
    assert [f["id"] for f in index.failures] == ["ds-nan"]
    assert "non-finite" in index.failures[0]["error"]
    assert not list(out.glob("ds-nan*"))


def test_reruns_byte_identical_across_worker_counts(tmp_path, clip_dir):
    manifest_path = tmp_path / "m.jsonl"
    _write_manifest(manifest_path, _entries(clip_dir)[:3])
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    synthesize(read_manifest(manifest_path), out1, global_seed=9, workers=1)
    synthesize(read_manifest(manifest_path), out2, global_seed=9, workers=2)
    assert _tree_digest(out1) == _tree_digest(out2)


def test_indoor_moving_byte_identical_across_workers_and_threads(tmp_path, clip_dir,
                                                                 monkeypatch):
    # sd-in moves through a small room; with two entries, workers=2 renders
    # them in worker processes, each on one thread
    manifest_path = tmp_path / "m.jsonl"
    _write_manifest(manifest_path, [e for e in _entries(clip_dir) if e["id"] in ("ss-a", "sd-in")])
    digests = []
    for workers, threads in ((1, 2), (2, 2), (1, 1)):
        monkeypatch.setattr(render, "RENDER_THREADS", threads)
        out = tmp_path / f"w{workers}-t{threads}"
        index = synthesize(read_manifest(manifest_path), out, global_seed=9, workers=workers,
                           duration=2.0)
        assert [r["id"] for r in index.rows] == ["ss-a", "sd-in"]
        digests.append(_tree_digest(out))
    meta = json.loads((out / "sd-in.json").read_text())
    assert meta["scene"]["rt60"] is not None and meta["trajectories_10ms"]
    assert digests[0] == digests[1] == digests[2]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the crashing entry is planted through a fork-inherited patch")
def test_dead_worker_fails_only_unfinished_entries(tmp_path, clip_dir, monkeypatch):
    entries = _entries(clip_dir)[:3]
    manifest_path = tmp_path / "m.jsonl"
    _write_manifest(manifest_path, entries)
    out = tmp_path / "out"
    real_entry = pipeline.synthesize_entry

    def crash_on_sd_a(entry, out_dir, *args):
        if entry.clip_id != "sd-a":
            return real_entry(entry, out_dir, *args)
        # die once the other entries are written and reported
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and not all(
                (out_dir / f"{e['id']}.json").exists() for e in entries[:2]):
            time.sleep(0.05)
        time.sleep(1.0)
        os._exit(3)

    monkeypatch.setattr(pipeline, "synthesize_entry", crash_on_sd_a)
    index = synthesize(read_manifest(manifest_path), out, global_seed=9, workers=2,
                       duration=2.0)
    assert [r["id"] for r in index.rows] == ["ss-a", "ss-b"]
    assert [f["id"] for f in index.failures] == ["sd-a"]
    assert index.failures[0]["error"].startswith("BrokenProcessPool: ")
    assert [r["id"] for r in DatasetIndex.load(out / "index.jsonl").rows] == ["ss-a", "ss-b"]
    failures = [json.loads(line) for line in (out / "failures.jsonl").read_text().splitlines()]
    assert failures == index.failures


def test_entry_seed_survives_reordering(tmp_path, clip_dir):
    entries = _entries(clip_dir)[:3]
    m1 = tmp_path / "m1.jsonl"
    m2 = tmp_path / "m2.jsonl"
    _write_manifest(m1, entries)
    _write_manifest(m2, entries[::-1])
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    synthesize(read_manifest(m1), out1, global_seed=4)
    synthesize(read_manifest(m2), out2, global_seed=4)
    d1 = _tree_digest(out1)
    d2 = _tree_digest(out2)
    del d1["index.jsonl"], d2["index.jsonl"]  # ordering differs by design
    assert d1 == d2


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def test_fresh_dataset_validates_clean(synthesized):
    out, _ = synthesized
    report = validate(out)
    assert report.checked == 6
    assert report.ok, report.violations


def test_dead_channel_flagged_and_skipped(synthesized, tmp_path):
    out, index = synthesized
    import shutil

    broken = tmp_path / "dead_right"
    shutil.copytree(out, broken)
    row = next(r for r in index.rows if r["id"] == "ss-a")
    data = read_wav(broken / row["wav"]).data.copy()
    data[:, 1] = 0.0
    write_wav(broken / row["wav"], AudioBuffer(data, 16000))
    report = validate(broken)
    assert {(v["kind"], v["detail"]) for v in report.violations if v["id"] == "ss-a"} == {
        ("tdoa_geometry", "no valid windows above the gate")}
    scores = evaluate(broken, out)
    assert "ss-a" in scores.skipped


def test_truncated_wav_flagged(synthesized, tmp_path):
    out, index = synthesized
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    row = index.rows[0]
    buf = read_wav(broken / row["wav"])
    write_wav(broken / row["wav"], AudioBuffer(buf.data[: 16000 * 9], 16000))
    report = validate(broken)
    kinds = {v["kind"] for v in report.violations if v["id"] == row["id"]}
    assert "duration" in kinds


def test_non_finite_samples_flagged_for_every_subset(synthesized, tmp_path):
    out, index = synthesized
    import shutil

    broken = tmp_path / "broken_nan"
    shutil.copytree(out, broken)
    for row in index.rows:
        buf = read_wav(broken / row["wav"])
        data = buf.data.copy()
        data[5000, 1] = np.nan
        write_wav(broken / row["wav"], AudioBuffer(data, 16000))
    report = validate(broken)
    flagged = {v["id"] for v in report.violations if v["kind"] == "non_finite"}
    assert flagged == {row["id"] for row in index.rows}
    assert {row["subset"] for row in index.rows} == {"SS", "DS", "SD", "M"}


def test_master_peak_above_minus_one_dbfs_flagged(synthesized, tmp_path):
    out, index = synthesized
    import shutil

    broken = tmp_path / "broken_peak"
    shutil.copytree(out, broken)
    row = index.rows[0]
    buf = read_wav(broken / row["wav"])
    write_wav(broken / row["wav"], AudioBuffer(buf.data * 1.5, 16000))
    report = validate(broken)
    flagged = {v["id"] for v in report.violations if v["kind"] == "master_peak"}
    assert flagged == {row["id"]}


def test_zeroed_matrix_column_flagged(synthesized, tmp_path):
    out, index = synthesized
    import shutil

    broken = tmp_path / "broken2"
    shutil.copytree(out, broken)
    row = index.rows[0]
    mat = AzimuthStateMatrix.load(broken / row["coarse_matrix"])
    data = mat.data.copy()
    data[0, :, 10] = 0.0
    AzimuthStateMatrix(data=data, kind="coarse", sigma=mat.sigma).save(
        broken / row["coarse_matrix"])
    report = validate(broken)
    kinds = {v["kind"] for v in report.violations if v["id"] == row["id"]}
    assert "matrix_normalization" in kinds


def test_missing_index_reported(tmp_path):
    report = validate(tmp_path)
    assert not report.ok
    assert report.violations[0]["kind"] == "missing_index"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------
def test_evaluate_self_is_clean(synthesized):
    out, _ = synthesized
    report = evaluate(out, out)
    assert report.gcc_mae == 0.0
    assert report.fsad < 1e-6
    assert not report.skipped
    assert "SS" in report.by_subset


def test_evaluate_accepts_index_as_reference(synthesized):
    out, _ = synthesized
    report = evaluate(out, out / "index.jsonl")
    assert report.gcc_mae == 0.0
    assert report.fsad < 1e-6


def test_evaluate_unpaired_reported(synthesized, tmp_path):
    out, index = synthesized
    import shutil

    partial = tmp_path / "partial"
    partial.mkdir()
    for row in index.rows[:3]:
        shutil.copy(out / row["wav"], partial / row["wav"])
    report = evaluate(out, partial)
    assert set(report.skipped) == {r["id"] for r in index.rows[3:]}


def test_evaluate_skips_missing_reference_wav(synthesized, tmp_path):
    # the reference index lists three clips; the third one's WAV is gone
    out, index = synthesized
    rows = index.rows[:3]
    for row in rows[:2]:
        (tmp_path / row["wav"]).write_bytes((out / row["wav"]).read_bytes())
    DatasetIndex(rows=rows).save(tmp_path / "index.jsonl")
    report = evaluate(out, tmp_path / "index.jsonl")
    assert rows[2]["id"] in report.skipped
    assert set(report.skipped) == {r["id"] for r in index.rows[2:]}
    assert report.gcc_mae == 0.0


def _evaluate_with_one_bad_clip(synthesized, tmp_path, side, damage):
    """Score a three-clip set whose middle clip ``damage`` spoils on ``side``
    against the same set without that clip."""
    out, index = synthesized
    ids = [row["id"] for row in index.rows[:3]]
    dirs = {name: tmp_path / name for name in ("gen", "ref", "gen2", "ref2")}
    for i, clip_id in enumerate(ids):
        data = read_wav(out / f"{clip_id}.wav").data
        gen, ref = data, data[:, ::-1]  # the reference mirrors left and right
        write_wav(dirs["gen"] / f"{clip_id}.wav", AudioBuffer(gen, 16000))
        write_wav(dirs["ref"] / f"{clip_id}.wav", AudioBuffer(ref, 16000))
        if i != 1:
            write_wav(dirs["gen2"] / f"{clip_id}.wav", AudioBuffer(gen, 16000))
            write_wav(dirs["ref2"] / f"{clip_id}.wav", AudioBuffer(ref, 16000))
    damage(dirs[side] / f"{ids[1]}.wav")

    report = evaluate(dirs["gen"], dirs["ref"])
    clean = evaluate(dirs["gen2"], dirs["ref2"])
    assert report.skipped == [ids[1]]
    assert (report.gcc_mae, report.gcc_ma, report.fsad) == \
        (clean.gcc_mae, clean.gcc_ma, clean.fsad)
    assert clean.gcc_mae > 0 and clean.fsad > 0


@pytest.mark.parametrize("side", ["gen", "ref"])
def test_evaluate_excludes_non_finite_clip(synthesized, tmp_path, side):
    def plant_nan(bad):
        data = read_wav(bad).data.copy()
        data[2000:21900] = np.nan
        write_wav(bad, AudioBuffer(data, 16000))

    _evaluate_with_one_bad_clip(synthesized, tmp_path, side, plant_nan)


@pytest.mark.parametrize("side", ["gen", "ref"])
def test_evaluate_skips_unreadable_clip(synthesized, tmp_path, side):
    def truncate(bad):  # cut inside the fmt chunk
        bad.write_bytes(bad.read_bytes()[:30])

    _evaluate_with_one_bad_clip(synthesized, tmp_path, side, truncate)


def test_evaluate_with_external_embeddings(synthesized, tmp_path):
    out, index = synthesized
    gen_dir = tmp_path / "ext_gen"
    ref_dir = tmp_path / "ext_ref"
    gen_dir.mkdir()
    ref_dir.mkdir()
    rng = np.random.default_rng(0)
    for row in index.rows:
        vec = rng.standard_normal(32).astype(np.float32)
        for d, tdoa in ((gen_dir, 0.25), (ref_dir, 0.15)):
            (d / f"{row['id']}.bin").write_bytes(vec.tobytes())
            (d / f"{row['id']}.bin.json").write_text(
                json.dumps({"shape": [32], "mean_tdoa_ms": tdoa}))
    report = evaluate(out, out, external_embeddings=(gen_dir, ref_dir))
    assert report.fsad < 1e-6  # identical external vectors
    assert abs(report.crw_mae - 10.0) < 1e-9  # |0.25 - 0.15| * 100


def test_evaluate_left_vs_right_sets(tmp_path):
    from stereoscene.acoustics import render_static, stereo_rir_for
    from conftest import open_field_scene, polar_pos, rms_normalize, still_source

    left_dir = tmp_path / "left"
    right_dir = tmp_path / "right"
    itd = None
    for i in range(4):
        rng = np.random.default_rng(50 + i)
        mono = AudioBuffer(rng.standard_normal(160000) * 0.2, 16000)
        for theta, out_dir in ((180.0, left_dir), (0.0, right_dir)):
            scene = open_field_scene([still_source(theta, 25.0)])
            rir = stereo_rir_for(scene, np.asarray(polar_pos(theta, 25.0)))
            out = render_static(mono, rir)
            write_wav(out_dir / f"clip{i}.wav", rms_normalize(out))
        itd = 2 * 0.085 / 343.0
    report = evaluate(left_dir, right_dir)
    # left set sits at -itd, right set at +itd: MAE = 2 itd in ms x 100
    assert abs(report.gcc_mae - 2 * itd * 1e3 * 100.0) < 2.0


def test_evaluate_groups_all_four_subsets(tmp_path, clip_dir):
    noise = str(clip_dir / "noise.wav")
    burst = str(clip_dir / "burst.wav")
    entries = []
    ss = ["A dog barks on the right side of the scene, outdoors.",
          "Rain falls directly in front, outdoors."]
    sd = ["A siren moves from left to front right quickly, outdoors.",
          "a dog barks at left, then another dog barks at right"]
    ds = ["A dog barks on the left while a cat meows on the right, outdoors.",
          "A bell rings on the front left while water pours on the front right, outdoors."]
    m = ["A dog barks on the left, while a bell rings from right to front left "
         "at a moderate speed.",
         "An engine hums directly in front, while rain moves from left to right quickly."]
    for subset, captions in (("SS", ss), ("SD", sd), ("DS", ds), ("M", m)):
        for j, caption in enumerate(captions):
            audio = [noise] if subset in ("SS", "SD") else [noise, burst]
            entries.append({"id": f"{subset.lower()}{j}", "subset": subset,
                            "audio": audio, "caption": caption})
    manifest_path = tmp_path / "m.jsonl"
    _write_manifest(manifest_path, entries)
    out = tmp_path / "ds"
    index = synthesize(read_manifest(manifest_path), out, global_seed=5)
    assert not index.failures
    report = evaluate(out, out)
    assert set(report.by_subset) == {"SS", "SD", "DS", "M"}
    for row in report.by_subset.values():
        assert row["count"] == 2
        assert row["gcc_mae"] == 0.0


def test_m_set_upper_cardinality_four_sources(tmp_path, clip_dir):
    from stereoscene.scene import AttributeRecord

    attrs = {
        "scene_size": "outdoors",
        "sources": [
            {"event": "a dog barking", "direction_label": "left",
             "distance_label": "moderate", "movement": "still"},
            {"event": "rain falling", "direction_label": "front",
             "distance_label": "far", "movement": "still"},
            {"event": "a bell ringing", "direction_label": "right",
             "distance_label": "near", "movement": "moving",
             "speed_label": "fast", "end_direction_label": "front_left"},
            {"event": "an engine humming", "direction_label": "front_right",
             "distance_label": "moderate", "movement": "instant",
             "speed_label": "instant", "end_direction_label": "left"},
        ],
    }
    entry = ManifestEntry(clip_id="m4", audio_paths=(str(clip_dir / "noise.wav"),
                                                     str(clip_dir / "burst.wav")),
                          subset="M", attributes=AttributeRecord.from_dict(attrs))
    row = synthesize_entry(entry, tmp_path, global_seed=8)
    wav = read_wav(tmp_path / row["wav"])
    assert wav.channels == 2 and wav.n_samples == 160000
    meta = json.loads((tmp_path / row["metadata"]).read_text())
    assert len(meta["scene"]["sources"]) == 4
    assert len(meta["trajectories_10ms"]) == 2  # moving + instant sources
    coarse = AzimuthStateMatrix.load(tmp_path / row["coarse_matrix"])
    assert coarse.data.shape[0] == 4

    five = dict(attrs, sources=attrs["sources"] + [attrs["sources"][0]])
    bad = ManifestEntry(clip_id="m5", audio_paths=(str(clip_dir / "noise.wav"),),
                        subset="M", attributes=AttributeRecord.from_dict(five))
    with pytest.raises(ManifestError):
        synthesize_entry(bad, tmp_path, global_seed=8)


def test_unspecified_attributes_resolved_consistently(tmp_path, clip_dir):
    from stereoscene.captions import parse_caption

    entry = ManifestEntry(clip_id="nodir", audio_paths=(str(clip_dir / "noise.wav"),),
                          subset="SS", caption="A dog barks.")
    row = synthesize_entry(entry, tmp_path, global_seed=5)
    meta = json.loads((tmp_path / row["metadata"]).read_text())
    stored = meta["attributes"]["sources"][0]
    assert stored["direction_label"] is not None
    assert stored["distance_label"] is not None
    assert meta["attributes"]["scene_size"] is not None
    back = parse_caption(row["caption"])
    assert back.sources[0].direction_label == stored["direction_label"]
    assert back.scene_size_label == meta["attributes"]["scene_size"]


def test_source_clips_resampled_to_16k(tmp_path):
    rng = np.random.default_rng(12)
    hi_rate = tmp_path / "clip44k.wav"
    write_wav(hi_rate, AudioBuffer(rng.standard_normal(44100 * 11) * 0.3, 44100))
    entry = ManifestEntry(clip_id="hr", audio_paths=(str(hi_rate),), subset="SS",
                          caption="A dog barks on the left, outdoors.")
    row = synthesize_entry(entry, tmp_path, global_seed=2)
    wav = read_wav(tmp_path / row["wav"])
    assert wav.sample_rate == 16000 and wav.n_samples == 160000


def test_stereo_source_clip_downmixed(tmp_path):
    rng = np.random.default_rng(13)
    stereo = tmp_path / "stereo_src.wav"
    write_wav(stereo, AudioBuffer(rng.standard_normal((16000 * 11, 2)) * 0.3, 16000))
    entry = ManifestEntry(clip_id="st", audio_paths=(str(stereo),), subset="SS",
                          caption="Rain falls on the right, outdoors.")
    row = synthesize_entry(entry, tmp_path, global_seed=2)
    assert read_wav(tmp_path / row["wav"]).channels == 2


def test_pcm16_output_mode(tmp_path, clip_dir):
    manifest_path = tmp_path / "m.jsonl"
    _write_manifest(manifest_path, _entries(clip_dir)[:2])
    out = tmp_path / "ds16"
    index = synthesize(read_manifest(manifest_path), out, global_seed=6, pcm16=True)
    assert not index.failures
    from scipy.io import wavfile

    rate, data = wavfile.read(out / index.rows[0]["wav"])
    assert data.dtype == np.int16 and rate == 16000
    report = validate(out)
    assert report.ok, report.violations


def test_dataset_index_roundtrip(synthesized, tmp_path):
    _, index = synthesized
    path = tmp_path / "index.jsonl"
    index.save(path)
    again = DatasetIndex.load(path)
    assert again.rows == index.rows
