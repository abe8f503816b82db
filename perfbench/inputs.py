"""Seeded inputs for the benchmark workloads: mono source clips and manifests.

Everything here is a pure function of the workload seed. The program under
test only ever sees the WAV files and the JSONL manifest written here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from stereoscene.audio_io import AudioBuffer, write_wav
from stereoscene.rng import SeededRng
from stereoscene.scene import AttributeRecord, sample_scene

FS = 16000
SOURCE_S = 11.0  # longer than a clip, so crop_pad has to pick a window
SOURCES = ("noise", "chirp", "pulses")
# Still single-source clips sit hard left or right. The known chirp defect
# (a TDOA near zero whatever the geometry) then costs the full |ITD|, which
# barely depends on the angle drawn there, so itd_err_us stays steady.
LATERAL = ("left", "right")
DIRECTIONS = ("left", "front_left", "front", "front_right", "right")
# A moving source starts off the microphone axis. "left" and "right" put it
# exactly on that axis, and when the program then draws the opposite end
# direction, the straight path runs through both microphones: a grain can land
# on a microphone and compute_rir raises (indoor seed 4003, clip sdm00).
# The benchmark must run without failing entries, so it avoids that start.
MOVING_DIRECTIONS = ("front_left", "front", "front_right")
DISTANCES = ("far", "moderate", "near")

# Indoor cost control. Image-source work grows with the number of images
# inside the response length, about (4/3) pi (c L)^3 / V for L = 1.3 rt60,
# and a moving source builds one response per distinct 10 ms position.
# Room size and rt60 are drawn by the program from the entry seed, so the
# benchmark draws candidate entry seeds from the workload seed and keeps the
# first whose scene lands in the band below. Without this, the small-room
# moving clip alone varies 70x in cost from seed to seed.
RT60_BAND = (0.43, 0.47)
TARGET_IMAGES = {"small": 6000.0, "moderate": 1000.0, "large": 150.0}
IMAGE_TOL = 0.10
# a moving source spans speed_ratio of the clip; hold it near the label's midpoint
NOMINAL_SPEED_RATIO = {"slow": 0.8, "moderate": 0.5, "fast": 0.3}
SPEED_RATIO_TOL = 0.05
MAX_DRAWS = 50_000
SPEED_OF_SOUND = 343.0


def make_sources(clip_dir: Path, seed: int, seconds: float = SOURCE_S) -> dict[str, str]:
    """Broadband noise, a 150-1050 Hz chirp and a gated 520 Hz tone."""
    clip_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n = int(round(FS * seconds))
    t = np.arange(n) / FS
    data = {
        "noise": rng.standard_normal(n) * 0.3,
        "chirp": 0.5 * np.sin(2 * np.pi * (150 + 900 * (t / seconds) ** 2) * t),
        "pulses": (np.sin(2 * np.pi * 520 * t) * (np.sin(2 * np.pi * 2.0 * t) > 0.2) * 0.6
                   + rng.standard_normal(n) * 0.02),
    }
    paths = {}
    for name in SOURCES:
        path = clip_dir / f"{name}.wav"
        write_wav(path, AudioBuffer(data[name], FS))
        paths[name] = str(path)
    return paths


def _source(event, i, movement="still", direction=None, speed=None):
    """Labels cycle with the entry index, so a seed changes the geometry
    drawn inside each label but not the labels themselves: outdoor RIR
    length, and with it convolution cost, follows the distance label."""
    src = {
        "event": event,
        "direction_label": direction or DIRECTIONS[i % len(DIRECTIONS)],
        "distance_label": DISTANCES[i % len(DISTANCES)],
        "movement": movement,
    }
    if movement == "moving":
        src["speed_label"] = speed
    elif movement == "instant":
        src["speed_label"] = "instant"
    return src


def _entry(clip_id, subset, sources, paths, names, size=None):
    attributes = {"sources": sources}
    if size is not None:  # M entries leave it unset: mixed scenes default to outdoors
        attributes["scene_size"] = size
    return {"id": clip_id, "subset": subset, "audio": [paths[n] for n in names],
            "attributes": attributes}


def _ss_entry(clip_id, size, paths, i, name, direction):
    return _entry(clip_id, "SS", [_source(f"a {name} sound", i, direction=direction)],
                  paths, [name], size)


def _ds_entry(clip_id, size, paths, i):
    a, b = SOURCES[i % 3], SOURCES[(i + 1) % 3]
    return _entry(clip_id, "DS", [_source(f"a {a} sound", i), _source(f"a {b} sound", i + 2)],
                  paths, [a, b], size)


def _sd_entry(clip_id, size, paths, i, movement, speed=None):
    name = SOURCES[i % 3]
    direction = MOVING_DIRECTIONS[i % 3] if movement == "moving" else None
    return _entry(clip_id, "SD", [_source(f"a {name} sound", i, movement, direction, speed)],
                  paths, [name], size)


def _m_entry(clip_id, paths, n_sources, i):
    kinds = (("still", None), ("moving", "moderate"), ("instant", None), ("still", None))
    names = [SOURCES[(i + k) % 3] for k in range(n_sources)]
    sources = [_source(f"a {name} sound", i + k, kinds[k][0], speed=kinds[k][1])
               for k, name in enumerate(names)]
    return _entry(clip_id, "M", sources, paths, names)


def outdoor_manifest(paths: dict) -> list[dict]:
    """All four subsets outdoors, at least two entries each: one SS per
    source, DS, SD (moving slow, then instant) and M with 2 and 3 sources.
    Scenes come from the global seed."""
    entries = [_ss_entry(f"ss{i:02d}", "outdoors", paths, i, name, LATERAL[i % len(LATERAL)])
               for i, name in enumerate(SOURCES)]
    entries += [_ds_entry(f"ds{i:02d}", "outdoors", paths, i) for i in range(2)]
    entries += [_sd_entry("sd00", "outdoors", paths, 0, "moving", "slow"),
                _sd_entry("sd01", "outdoors", paths, 1, "instant")]
    entries += [_m_entry(f"m{i:02d}", paths, 2 + i, i) for i in range(2)]
    return entries


def estimated_images(scene) -> float:
    """Images inside the response length for one microphone."""
    volume = float(np.prod(scene.room_dims))
    reach = SPEED_OF_SOUND * 1.3 * scene.rt60
    return 4.0 / 3.0 * math.pi * reach ** 3 / volume


def _in_band(scene, size: str, speed: str | None) -> bool:
    if not (RT60_BAND[0] <= scene.rt60 <= RT60_BAND[1]):
        return False
    if abs(estimated_images(scene) / TARGET_IMAGES[size] - 1.0) > IMAGE_TOL:
        return False
    src = scene.sources[0]
    if src.movement == "moving":
        return abs(src.speed_ratio / NOMINAL_SPEED_RATIO[speed] - 1.0) <= SPEED_RATIO_TOL
    return True


def pin_indoor_seed(entry: dict, workload_seed: int, duration: float) -> None:
    """Set ``entry["seed"]`` to the first candidate whose scene is in band.

    The preview draws the scene exactly as synthesis does: the per-entry
    SeededRng, its "scene" child, and sample_scene over the attributes.
    """
    record = AttributeRecord.from_dict(entry["attributes"])
    size = record.scene_size_label
    speed = record.sources[0].speed_label
    draws = SeededRng(workload_seed).child(f"pin/{entry['id']}")
    for _ in range(MAX_DRAWS):
        seed = int(draws.integers(0, 2 ** 62))
        scene = sample_scene(record, SeededRng(seed).child("scene"), duration=duration,
                             sample_rate=FS)
        if _in_band(scene, size, speed):
            entry["seed"] = seed
            return
    raise RuntimeError(f"no in-band scene for {entry['id']} after {MAX_DRAWS} draws")


def indoor_manifest(seed: int, paths: dict, duration: float) -> list[dict]:
    """Indoor entries: SS and DS in each room size, SD instant in small and
    moderate rooms, SD moving at slow and fast speed in moderate and large
    rooms, and exactly one (fast) SD moving clip in a small room. Each entry
    pins a seed drawn from the workload seed (see pin_indoor_seed)."""
    sizes = ("small", "moderate", "large")
    entries = []
    for k, size in enumerate(sizes):
        for name, direction in (("chirp", LATERAL[k % 2]),
                                (SOURCES[2 * (k % 2)], LATERAL[(k + 1) % 2])):
            entries.append(_ss_entry(f"ss{len(entries):02d}", size, paths, len(entries), name,
                                     direction))
    entries += [_ds_entry(f"ds{i:02d}", size, paths, i) for i, size in enumerate(sizes)]
    entries += [_sd_entry(f"sdi{i:02d}", size, paths, i, "instant")
                for i, size in enumerate(("small", "moderate"))]
    moving = (("moderate", "slow"), ("moderate", "fast"), ("large", "slow"), ("large", "fast"),
              ("small", "fast"))
    entries += [_sd_entry(f"sdm{i:02d}", size, paths, i, "moving", speed)
                for i, (size, speed) in enumerate(moving)]
    for entry in entries:
        pin_indoor_seed(entry, seed, duration)
    return entries


def write_manifest(path: Path, entries: list[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries))
    return path
