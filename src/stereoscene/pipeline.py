"""Batch synthesis, validation, and evaluation over JSONL manifests.

Manifest entries are independent tasks; per-entry seeds derive from
(global seed, clip id), so partial re-runs and manifest reordering never
change a clip's bytes. Output trees are byte-identical across runs and
worker counts.
"""

from __future__ import annotations

import json
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import captions as cap
from . import guidance, metrics, render
from .acoustics import SPEED_OF_SOUND
from .audio_io import (AudioBuffer, AudioFormatError, read_wav, read_wav_info, replace_file,
                       write_wav)
from .render import crop_pad, mix_scene, render_moving
from .rng import SeededRng, entry_seed
from .scene import AttributeRecord, SceneSpec, resolve_attributes, sample_scene
from .scene import ValidationError, _json_kwargs

SUBSETS = ("SS", "DS", "SD", "M")
SUBSET_SOURCE_COUNTS = {"SS": (1, 1), "DS": (2, 2), "SD": (1, 1), "M": (1, 4)}
MASTER_PEAK_DBFS = -1.0

# glibc's malloc serves a block from the heap when it is below a threshold
# that rises to the size of each larger mmapped block freed (up to 32 MiB),
# and returns free heap top to the system beyond twice that threshold.
# Freeing one block just under the cap makes clip-sized arrays come from the
# heap and stay mapped from one clip to the next. Left to chance, the
# threshold can sit low, and every clip maps, zero-fills and unmaps them
# again: 0.5-3 million page faults per 30 s benchmark run instead of
# 13-19 thousand. np.empty touches no page; other allocators just free the block.
np.empty((32 << 20) - (1 << 16), np.uint8)


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class ManifestEntry:
    clip_id: str
    audio_paths: tuple[str, ...]
    subset: str
    caption: str | None = None
    attributes: AttributeRecord | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.subset not in SUBSETS:
            raise ManifestError(f"unknown subset tag {self.subset!r}")
        if self.caption is None and self.attributes is None:
            raise ManifestError(f"entry {self.clip_id}: needs a caption or attributes")
        if not self.audio_paths:
            raise ManifestError(f"entry {self.clip_id}: needs at least one audio path")

    @staticmethod
    def from_dict(d: dict) -> "ManifestEntry":
        if isinstance(d, dict) and isinstance(d.get("audio"), str):
            d = dict(d, audio=[d["audio"]])  # a string is one path
        return ManifestEntry(**_json_kwargs(
            ManifestEntry, d, {"clip_id": "id", "audio_paths": "audio"}, subset="SS"))


def _read_jsonl(path, parse) -> list:
    """``parse`` of each JSON line of ``path``, skipping blank and ``#`` lines;
    a malformed line raises ManifestError naming ``path:line``."""
    records = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(parse(json.loads(line)))
        except (json.JSONDecodeError, ManifestError, ValidationError) as exc:
            raise ManifestError(f"{path}:{line_no}: {exc}") from exc
    return records


def _write_jsonl(path, records) -> None:
    replace_file(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode())


def read_manifest(path) -> list[ManifestEntry]:
    seen = set()

    def parse(obj) -> ManifestEntry:
        entry = ManifestEntry.from_dict(obj)
        if entry.clip_id in seen:
            raise ManifestError(f"duplicate clip id {entry.clip_id!r}")
        seen.add(entry.clip_id)
        return entry

    return _read_jsonl(path, parse)


@dataclass
class DatasetIndex:
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def save(self, path) -> None:
        _write_jsonl(path, self.rows)

    @staticmethod
    def load(path) -> "DatasetIndex":
        return DatasetIndex(rows=_read_jsonl(path, _index_row))


def _index_row(row) -> dict:
    """An index.jsonl row, refused unless it is an object with string "id" and "wav"."""
    if not isinstance(row, dict):
        raise ManifestError(f"index row must be a JSON object, got {type(row).__name__}")
    for key in ("id", "wav"):
        if not isinstance(row.get(key), str):
            raise ManifestError(f"index row needs a string {key!r}, got {row.get(key)!r:.40}")
    return row


def _check_subset_rules(entry: ManifestEntry, record: AttributeRecord) -> None:
    lo, hi = SUBSET_SOURCE_COUNTS[entry.subset]
    n = len(record.sources)
    if not (lo <= n <= hi):
        raise ManifestError(
            f"entry {entry.clip_id}: subset {entry.subset} takes {lo}..{hi} sources, got {n}"
        )
    if entry.subset in ("SS", "DS") and any(s.movement != "still" for s in record.sources):
        raise ManifestError(f"entry {entry.clip_id}: {entry.subset} sources must be still")
    if entry.subset == "SD" and record.sources[0].movement == "still":
        raise ManifestError(f"entry {entry.clip_id}: SD source must move")


def _resolve_record(entry: ManifestEntry) -> AttributeRecord:
    if entry.attributes is not None:
        record = entry.attributes
    else:
        record = cap.parse_caption(entry.caption)
    # mixed scenes default to the outdoor anechoic mode
    if entry.subset == "M" and record.scene_size_label is None:
        record = AttributeRecord(
            scene_size_label="outdoors", sources=record.sources, flags=record.flags
        )
    return record


def _events_for(record: AttributeRecord, entry: ManifestEntry) -> list[str]:
    events = []
    for i, src in enumerate(record.sources):
        if src.event:
            events.append(src.event)
        else:
            stem = Path(entry.audio_paths[i % len(entry.audio_paths)]).stem
            events.append(stem.replace("_", " ").replace("-", " ") or f"sound source {i + 1}")
    return events


def _require_finite(data: np.ndarray, what: str) -> None:
    bad = np.count_nonzero(~np.isfinite(data))
    if bad:
        raise ValueError(f"{what} has {bad} non-finite sample(s)")


def render_sources(scene: SceneSpec, audio_paths, rng: SeededRng) -> list[AudioBuffer]:
    """Each source of ``scene`` rendered from ``audio_paths[i % len(audio_paths)]``:
    read, refused if not finite, made mono, resampled, cropped or padded to
    the scene's duration (``rng.child(f"crop{i}")``) and rendered."""
    rendered = []
    for i, source in enumerate(scene.sources):
        path = audio_paths[i % len(audio_paths)]
        source_audio = read_wav(path)
        _require_finite(source_audio.data, f"source audio {path}")
        clip = source_audio.mono().resample(scene.sample_rate)
        clip = crop_pad(clip, rng.child(f"crop{i}"), target_s=scene.duration)
        rendered.append(render_moving(clip, scene, source))
    return rendered


def master(mix: AudioBuffer) -> tuple[AudioBuffer, float]:
    """``mix`` scaled to a MASTER_PEAK_DBFS peak, so the -16 dBFS metric gate
    sees the content, and the gain applied; ValueError if it is not finite."""
    peak = float(np.max(np.abs(mix.data)))
    gain = 10.0 ** (MASTER_PEAK_DBFS / 20.0) / peak if peak > 0 else 1.0
    final = AudioBuffer(mix.data * gain, mix.sample_rate)
    _require_finite(final.data, "master mix")
    return final, gain


def synthesize_entry(entry: ManifestEntry, out_dir, global_seed: int,
                     sample_rate: int = 16000, duration: float = 10.0,
                     pcm16: bool = False) -> dict:
    """Render one manifest entry; returns its index row."""
    out_dir = Path(out_dir)
    seed = entry.seed if entry.seed is not None else entry_seed(global_seed, entry.clip_id)
    rng = SeededRng(seed)

    record = _resolve_record(entry)
    _check_subset_rules(entry, record)
    # pin every unspecified label now so the caption and metadata describe
    # the scene actually rendered (idempotent with sample_scene's own pass)
    record = resolve_attributes(record, rng.child("scene"))
    events = _events_for(record, entry)

    scene = sample_scene(record, rng.child("scene"), duration=duration,
                         sample_rate=sample_rate)

    final, master_gain = master(mix_scene(render_sources(scene, entry.audio_paths, rng)))

    caption = cap.generate_caption(record, events)
    coarse, fine = guidance.matrices_for_scene(scene)

    wav_path = out_dir / f"{entry.clip_id}.wav"
    meta_path = out_dir / f"{entry.clip_id}.json"
    coarse_path = out_dir / f"{entry.clip_id}.coarse.bin"
    fine_path = out_dir / f"{entry.clip_id}.fine.bin"

    write_wav(wav_path, final, pcm16=pcm16)
    coarse.save(coarse_path)
    fine.save(fine_path)
    meta = {
        "id": entry.clip_id,
        "subset": entry.subset,
        "seed": seed,
        "caption": caption,
        "attributes": record.to_dict(),
        "scene": json.loads(scene.to_json()),
        "master_gain": master_gain,
        "source_audio": list(entry.audio_paths),
    }
    replace_file(meta_path, json.dumps(meta, indent=2, sort_keys=True).encode())

    return {
        "id": entry.clip_id,
        "subset": entry.subset,
        "seed": seed,
        "wav": wav_path.name,
        "metadata": meta_path.name,
        "coarse_matrix": coarse_path.name,
        "fine_matrix": fine_path.name,
        "caption": caption,
        "duration": duration,
        "sample_rate": sample_rate,
    }


def _entry_task(args):
    entry, out_dir, global_seed, sample_rate, duration, pcm16 = args
    try:
        return entry.clip_id, synthesize_entry(
            entry, out_dir, global_seed, sample_rate, duration, pcm16), None
    except Exception as exc:
        return entry.clip_id, None, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"


def _render_serially():
    """Worker-process initializer: the processes already fill the CPUs."""
    render.RENDER_THREADS = 1


def synthesize(manifest: list[ManifestEntry], out_dir, global_seed: int = 0,
               workers: int = 1, sample_rate: int = 16000, duration: float = 10.0,
               pcm16: bool = False, subset_filter: str | None = None) -> DatasetIndex:
    """Synthesize every manifest entry into ``out_dir``.

    Entry failures are recorded and skipped; with ``workers > 1`` that
    includes the entries lost when a worker process dies. The index is written
    in manifest order regardless of worker scheduling. A clip id that occurs
    twice raises ManifestError before anything is written.
    """
    seen = set()
    for entry in manifest:
        if entry.clip_id in seen:
            raise ManifestError(f"duplicate clip id {entry.clip_id!r}")
        seen.add(entry.clip_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if subset_filter:
        manifest = [e for e in manifest if e.subset == subset_filter]

    tasks = [(e, out_dir, global_seed, sample_rate, duration, pcm16) for e in manifest]
    results: dict[str, tuple] = {}
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_render_serially) as pool:
            # a worker that dies (killed, out of memory) breaks the pool: every
            # entry not finished by then fails with that cause, and the
            # finished ones keep their rows
            futures = {}
            for task in tasks:
                try:
                    futures[task[0].clip_id] = pool.submit(_entry_task, task)
                except BrokenProcessPool as exc:
                    results[task[0].clip_id] = (None, f"{type(exc).__name__}: {exc}")
            for clip_id, future in futures.items():
                try:
                    results[clip_id] = future.result()[1:]
                except BrokenProcessPool as exc:
                    results[clip_id] = (None, f"{type(exc).__name__}: {exc}")
    else:
        for task in tasks:
            clip_id, row, err = _entry_task(task)
            results[clip_id] = (row, err)

    index = DatasetIndex()
    for entry in manifest:
        row, err = results[entry.clip_id]
        if err is None:
            index.rows.append(row)
        else:
            index.failures.append({"id": entry.clip_id, "error": err})
    index.save(out_dir / "index.jsonl")
    failures = out_dir / "failures.jsonl"
    if index.failures:
        _write_jsonl(failures, index.failures)
    else:  # an earlier run into this directory may have left one
        failures.unlink(missing_ok=True)
    return index


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
# median TDOA vs geometry for static single-source clips; reverberant scenes
# get a loose bound because steady-state room phase legitimately shifts the
# GCC peak for narrowband content
TDOA_GEOMETRY_TOL_ANECHOIC_MS = 0.05
TDOA_GEOMETRY_TOL_REVERB_MS = 0.4


@dataclass
class ValidationReport:
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, clip_id: str, kind: str, detail: str) -> None:
        self.violations.append({"id": clip_id, "kind": kind, "detail": detail})

    def to_json(self) -> str:
        return json.dumps({"checked": self.checked, "violations": self.violations}, indent=2)


def _expected_itd_s(scene: SceneSpec, source) -> float:
    pos = np.asarray(source.start_pos)
    d_left = float(np.linalg.norm(pos - scene.mic_array.left_pos))
    d_right = float(np.linalg.norm(pos - scene.mic_array.right_pos))
    return (d_left - d_right) / SPEED_OF_SOUND


def _master_peak_limit(wav_path) -> float:
    """The master peak plus one rounding step of the WAV file's sample format."""
    target = 10.0 ** (MASTER_PEAK_DBFS / 20.0)
    return target + read_wav_info(wav_path).rounding_step(target)


def validate(dataset_dir) -> ValidationReport:
    """Check a synthesized tree against its own invariants."""
    dataset_dir = Path(dataset_dir)
    report = ValidationReport()
    index_path = dataset_dir / "index.jsonl"
    if not index_path.exists():
        report.add("-", "missing_index", str(index_path))
        return report
    index = DatasetIndex.load(index_path)

    for row in index.rows:
        clip_id = row["id"]
        report.checked += 1
        try:
            _validate_row(dataset_dir, row, report)
        except Exception as exc:
            report.add(clip_id, "unreadable", f"{type(exc).__name__}: {exc}")
    return report


def _validate_row(dataset_dir: Path, row: dict, report: ValidationReport) -> None:
    clip_id = row["id"]
    wav_path = dataset_dir / row["wav"]
    if not wav_path.exists():
        report.add(clip_id, "missing_file", str(wav_path))
        return
    buf = read_wav(wav_path)
    bad = np.count_nonzero(~np.isfinite(buf.data))
    if bad:
        report.add(clip_id, "non_finite", f"{bad} non-finite sample(s)")
    peak = float(np.max(np.abs(buf.data))) if buf.data.size else 0.0
    if peak > _master_peak_limit(wav_path):
        report.add(clip_id, "master_peak",
                   f"peak {20.0 * np.log10(peak):.4f} dBFS above {MASTER_PEAK_DBFS} dBFS")
    expected_n = int(round(row["duration"] * row["sample_rate"]))
    if buf.sample_rate != row["sample_rate"]:
        report.add(clip_id, "sample_rate", f"{buf.sample_rate} != {row['sample_rate']}")
    if buf.n_samples != expected_n:
        report.add(clip_id, "duration", f"{buf.n_samples} samples != {expected_n}")
    if buf.channels != 2:
        report.add(clip_id, "channels", f"{buf.channels} != 2")

    meta = json.loads((dataset_dir / row["metadata"]).read_text())
    scene = SceneSpec.from_json(json.dumps(meta["scene"]))

    for key, rebuilt in zip(("coarse_matrix", "fine_matrix"), guidance.matrices_for_scene(scene)):
        stored = guidance.AzimuthStateMatrix.load(dataset_dir / row[key])
        if not np.array_equal(stored.data, rebuilt.data.astype(np.float32)):
            report.add(clip_id, "matrix_mismatch",
                       f"{row[key]} differs from the {rebuilt.kind} matrix of the stored scene")

    try:
        parsed = cap.parse_caption(row["caption"])
        stored = AttributeRecord.from_dict(meta["attributes"])
        if difference := cap.label_difference(parsed, stored):
            report.add(clip_id, "caption_roundtrip", difference)
    except cap.CaptionParseError as exc:
        report.add(clip_id, "caption_parse", str(exc))

    # a buffer flagged above as not stereo has no TDOA to check
    if buf.channels == 2 and row["subset"] == "SS" and scene.sources[0].movement == "still":
        series = metrics.tdoa_series(buf)
        vals = series.valid_values()
        if vals.size == 0:
            report.add(clip_id, "tdoa_geometry", "no valid windows above the gate")
        else:
            expected = _expected_itd_s(scene, scene.sources[0])
            err_ms = abs(float(np.median(vals)) - expected) * 1e3
            tol = (TDOA_GEOMETRY_TOL_ANECHOIC_MS if scene.anechoic
                   else TDOA_GEOMETRY_TOL_REVERB_MS)
            if err_ms > tol:
                report.add(clip_id, "tdoa_geometry",
                           f"median TDOA off geometry by {err_ms:.3f} ms")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------
def _wav_paths(dir_or_index) -> tuple[dict[str, Path], dict[str, str]]:
    """WAV paths and subset tags by clip id: from an index.jsonl's listed rows,
    or from a directory's WAV files and the rows of its index.jsonl, if any."""
    path = Path(dir_or_index)
    listed = path.is_file() and path.suffix == ".jsonl"
    index_path = path if listed else path / "index.jsonl"
    rows = DatasetIndex.load(index_path).rows if index_path.is_file() else []
    if listed:
        paths = {row["id"]: path.parent / row["wav"] for row in rows}
    else:
        paths = {p.stem: p for p in sorted(path.glob("*.wav"))}
    if not paths:
        raise ManifestError(f"no WAV files in {dir_or_index}")
    return paths, {row["id"]: row.get("subset", "?") for row in rows}


def _finite_series(path) -> metrics.TdoaSeries | None:
    """The clip's TDOA series, or None when the clip is missing, unreadable,
    not stereo or has non-finite samples."""
    try:
        buf = read_wav(path)
    except (OSError, AudioFormatError):
        return None
    if buf.channels != 2 or not np.all(np.isfinite(buf.data)):
        return None
    return metrics.tdoa_series(buf)


def _fsad(gen_vecs: dict, ref_vecs: dict, ids: list[str]) -> float:
    """Frechet distance between the generated and reference vectors of ``ids``."""
    return metrics.frechet_distance(
        *(metrics.EmbeddingStats.from_embeddings(np.stack([vecs[k] for k in ids]))
          for vecs in (gen_vecs, ref_vecs)))


def evaluate(gen_dir, ref_dir_or_index,
             external_embeddings: tuple | None = None) -> metrics.MetricReport:
    """Score a generated directory against a reference set.

    The reference is a WAV directory or an index.jsonl; clips pair by id
    (filename stem). Clips are read and analysed one at a time by
    ``metrics.tdoa_series``; its window features give the embedding for
    every Frechet distance. A pair whose generated or reference clip is not
    stereo or has non-finite samples is scored like an unpaired clip: left
    out of every score and listed in ``skipped``; so is a pair with a missing
    or unreadable WAV. With ``external_embeddings`` = (gen_dir, ref_dir) of
    .bin/.json files, every Frechet distance, ``by_subset`` included, uses
    those vectors of the paired ids instead, and MetricError is raised unless
    both sets hold every paired id (``crw_mae`` appears when sidecars carry
    ``mean_tdoa_ms``).
    """
    gen, tags = _wav_paths(gen_dir)
    ref, _ = _wav_paths(ref_dir_or_index)
    # one clip in memory at a time; a pair with a missing, unreadable, mono or
    # non-finite side is left out of every score, like an unpaired clip
    gen_series, ref_series = {}, {}
    for k in sorted(set(gen) & set(ref)):
        g = _finite_series(gen[k])
        r = _finite_series(ref[k]) if g is not None else None
        if r is not None:
            gen_series[k], ref_series[k] = g, r
    common = sorted(gen_series)
    unpaired = sorted((set(gen) | set(ref)) - set(common))
    if not common:
        raise ManifestError("no clip ids with finite audio in common between the two sets")

    crw_mae = None
    if external_embeddings is None:
        gen_vecs = {k: gen_series[k].embedding() for k in common}
        ref_vecs = {k: ref_series[k].embedding() for k in common}
    else:
        gen_vecs, gen_meta = metrics.load_embedding_dir(external_embeddings[0])
        ref_vecs, ref_meta = metrics.load_embedding_dir(external_embeddings[1])
        shared = set(gen_vecs) & set(ref_vecs)
        if len(shared) < 2:
            raise metrics.MetricError(f"the external embedding sets share {len(shared)} clip "
                                      "id(s); a Frechet distance needs at least 2")
        missing = [k for k in common if k not in shared]
        if missing:
            raise metrics.MetricError("the external embedding sets lack paired clip id(s): "
                                      + ", ".join(missing))
        tdoas = [(gen_meta[k].get("mean_tdoa_ms"), ref_meta[k].get("mean_tdoa_ms"))
                 for k in common]
        pairs = [(g, r) for g, r in tdoas if g is not None and r is not None]
        if pairs:
            crw_mae = float(np.mean([abs(g - r) for g, r in pairs])) * 100.0
    mae, rows, skipped = metrics.gcc_mae(gen_series, ref_series)
    ma, _ = metrics.gcc_ma(gen_series)
    fsad = _fsad(gen_vecs, ref_vecs, common)

    report = metrics.MetricReport(gcc_mae=mae, gcc_ma=ma, fsad=fsad, crw_mae=crw_mae,
                                  rows=rows, skipped=sorted(set(skipped + unpaired)))

    for subset in SUBSETS:
        ids = [k for k in common if tags.get(k) == subset]
        if len(ids) < 2:
            continue
        s_mae, _, _ = metrics.gcc_mae({k: gen_series[k] for k in ids},
                                      {k: ref_series[k] for k in ids})
        s_ma, _ = metrics.gcc_ma({k: gen_series[k] for k in ids})
        report.by_subset[subset] = {
            "gcc_mae": s_mae,
            "gcc_ma": s_ma,
            "fsad": _fsad(gen_vecs, ref_vecs, ids),
            "count": len(ids),
        }
    return report
