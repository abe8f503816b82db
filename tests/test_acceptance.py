"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as sla

from stereoscene.acoustics import (
    compute_rir,
    measure_rt60,
    render_static,
    rt60_to_absorption,
    stereo_rir_for,
)
from stereoscene.audio_io import AudioBuffer, write_wav
from stereoscene.captions import generate_caption, parse_caption
from stereoscene.guidance import (
    BinTrajectory,
    D_TIME,
    L_AZI,
    coarse_density,
    coarse_matrix,
    fine_matrix,
)
from stereoscene.metrics import (
    EmbeddingStats,
    default_embed,
    frechet_distance,
    gcc_ma,
    gcc_mae,
    gcc_phat,
    tdoa_series,
)
from stereoscene.pipeline import read_manifest, synthesize
from stereoscene.render import render_moving
from stereoscene.rng import SeededRng
from stereoscene.scene import (
    AttributeRecord,
    DIRECTION_LABELS,
    DISTANCE_LABELS,
    SIZE_LABELS,
    SourceAttributes,
    sample_mic_array,
    sample_room,
    sample_scene,
    sample_source_placement,
)

from conftest import geometric_itd_s, open_field_scene, rms_normalize, still_source

INTERP_BIN_S = 1.0 / (16 * 16000)  # one interpolated lag sample (~3.9 us)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _noise(seed, seconds=10, level=0.3):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.standard_normal(16000 * seconds) * level, 16000)


def _render_still(scene, pos, noise_seed):
    rir = stereo_rir_for(scene, np.asarray(pos))
    out = render_static(_noise(noise_seed), rir)
    return rms_normalize(out, target_dbfs=-8.0)


# ---------------------------------------------------------------------------
# 1. Geometric ITD fidelity
# ---------------------------------------------------------------------------
def test_geometric_itd_fidelity():
    t0 = time.time()
    spacing = 0.17
    distance = 30.0
    worst_frac = 1.0
    for i, theta in enumerate(range(0, 181, 15)):
        scene = open_field_scene([still_source(float(theta), distance)],
                                 half_spacing=spacing / 2.0)
        pos = scene.sources[0].start_pos
        out = _render_still(scene, pos, noise_seed=100 + i)
        series = tdoa_series(out)
        vals = series.valid_values()
        assert vals.size >= 95, f"theta={theta}: only {vals.size} valid windows"
        expected = spacing * math.cos(math.radians(theta)) / 343.0
        frac = float(np.mean(np.abs(vals - expected) <= INTERP_BIN_S))
        worst_frac = min(worst_frac, frac)
        assert frac >= 0.95, f"theta={theta}: {frac:.0%} windows within one bin"
    elapsed = time.time() - t0
    _report(
        "geometric ITD fidelity",
        worst_frac >= 0.95 and elapsed < 120.0,
        f"13 angles, worst window agreement {worst_frac:.0%}, {elapsed:.0f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# 2. Reverberation fidelity
# ---------------------------------------------------------------------------
def test_reverberation_fidelity():
    t0 = time.time()
    rng = SeededRng(2024)
    errors = []
    attempts = 0
    while len(errors) < 50:
        attempts += 1
        srng = rng.child(f"scene{attempts}")
        label = ("small", "moderate")[int(srng.child("label").integers(0, 2))]
        room = sample_room(label, srng.child("room"))
        dims = np.asarray(room.dims)
        surface = 2.0 * (dims[0] * dims[1] + dims[0] * dims[2] + dims[1] * dims[2])
        mfp_time = 4.0 * float(np.prod(dims)) / surface / 343.0
        # the decay must span several mean free paths for a reverberation
        # time to exist (diffuse-field regime); larger rooms at 0.3-0.6 s
        # are echo fields, not reverberant ones
        if room.rt60 < 8.0 * mfp_time:
            continue
        mic = sample_mic_array(room.dims, srng.child("mic"), base_size=room.base_size)
        _, _, pos = sample_source_placement(
            ("front", "front_left", "right")[attempts % 3], "moderate",
            room.dims, mic, srng.child("src"))
        absorption = rt60_to_absorption(room.rt60, room.dims)
        rir = compute_rir(room.dims, absorption, pos, mic.left_pos, fs=16000)
        measured = measure_rt60(rir.samples[0], 16000)
        errors.append(abs(measured - room.rt60) / room.rt60)
    median_err = float(np.median(errors))
    elapsed = time.time() - t0
    _report(
        "reverberation fidelity",
        median_err <= 0.2 and elapsed < 300.0,
        f"median decay-time error {median_err:.1%} over 50 RIRs "
        f"(+-20% allowed), {elapsed:.0f}s (< 300s)",
    )


# ---------------------------------------------------------------------------
# 3. Moving-source monotonicity
# ---------------------------------------------------------------------------
def _monotone_violations(vals: np.ndarray, decreasing: bool, slack: float) -> int:
    s = -vals if decreasing else vals
    violations = 0
    run_max = s[0]
    for v in s[1:]:
        if v < run_max - slack:
            violations += 1
        else:
            run_max = max(run_max, v)
    return violations


def test_moving_source_monotonicity():
    t0 = time.time()
    rng = SeededRng(777)
    accepted = 0
    attempts = 0
    while accepted < 20:
        attempts += 1
        srng = rng.child(f"sd{attempts}")
        record = AttributeRecord(
            scene_size_label="outdoors",
            sources=(SourceAttributes(
                event="noise", direction_label=DIRECTION_LABELS[attempts % 5],
                distance_label=("moderate", "far")[attempts % 2],
                movement="moving",
                speed_label=("moderate", "fast")[attempts % 2]),),
        )
        scene = sample_scene(record, srng)
        src = scene.sources[0]
        if src.move_start < 0.2 or src.move_start + src.move_interval > 9.5:
            continue
        if abs(src.end_angle - src.angle) < 20.0:
            continue
        # reject fly-through paths whose closest approach would dominate the
        # level and gate the endpoint windows
        a = np.asarray(src.start_pos)
        b = np.asarray(src.end_pos)
        c = np.asarray(scene.mic_array.center)
        seg = b - a
        t_min = float(np.clip(np.dot(c - a, seg) / np.dot(seg, seg), 0.0, 1.0))
        min_dist = float(np.linalg.norm(a + t_min * seg - c))
        if min_dist < 0.35 * max(src.distance, src.end_distance):
            continue
        accepted += 1

        out = rms_normalize(render_moving(_noise(attempts), scene, src), target_dbfs=-8.0)
        series = tdoa_series(out)
        vals = series.valid_values()
        assert vals.size >= 80, f"scene {attempts}: {vals.size} valid windows"

        itd_begin = geometric_itd_s(scene, src.start_pos)
        itd_end = geometric_itd_s(scene, src.end_pos)
        starts = series.windows
        pre = series.tdoa_s[series.valid & (starts + series.window_s <= src.move_start)].tolist()
        post = series.tdoa_s[
            series.valid & (starts >= src.move_start + src.move_interval)].tolist()
        assert pre and post, f"scene {attempts}: no plateau windows"
        assert abs(float(np.mean(pre)) - itd_begin) <= 2 * INTERP_BIN_S, \
            f"scene {attempts}: start endpoint off"
        assert abs(float(np.mean(post)) - itd_end) <= 2 * INTERP_BIN_S, \
            f"scene {attempts}: end endpoint off"

        decreasing = itd_end < itd_begin
        violations = _monotone_violations(vals, decreasing, slack=INTERP_BIN_S)
        assert violations <= 1, f"scene {attempts}: {violations} monotonicity breaks"
    elapsed = time.time() - t0
    _report(
        "moving-source monotonicity",
        True,
        f"20 scenes monotone (<=1 outlier) with endpoint ITDs within "
        f"2 bins, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 4. Matrix exactness
# ---------------------------------------------------------------------------
def test_matrix_exactness():
    rng = np.random.default_rng(31337)

    static = BinTrajectory(mu_start=32.0, mu_end=32.0, start_bin_t=0, duration_bins=0)
    peak = coarse_density(static, sigma=4.0).max()
    peak_err = abs(peak - 1.0 / math.sqrt(2.0 * math.pi * 16.0))
    assert peak_err < 1e-9

    worst_sum = 0.0
    for _ in range(100):
        mu0 = float(rng.uniform(1.0, 64.0))
        mu1 = float(rng.uniform(1.0, 64.0))
        start = int(rng.integers(0, D_TIME))
        dur = int(rng.integers(0, D_TIME - start + 1))
        traj = BinTrajectory(mu_start=mu0, mu_end=mu1, start_bin_t=start,
                             duration_bins=dur)

        coarse = coarse_matrix([traj]).data[0]
        worst_sum = max(worst_sum, float(np.max(np.abs(coarse.sum(axis=0) - 1.0))))

        fine = fine_matrix([traj]).data[0]
        # brute-force per-bin evaluation of the piecewise-linear center and
        # the floor one-hot rule, independent of the library path
        for t in range(D_TIME):
            if t < start:
                mu = mu0
            elif dur > 0 and t < start + dur:
                mu = mu0 + (t - start) / dur * (mu1 - mu0)
            else:
                mu = mu1
            hot = min(max(int(math.floor(mu)), 1), L_AZI)
            col = fine[:, t]
            assert col[hot - 1] == 1.0 and col.sum() == 1.0

    _report(
        "matrix exactness",
        worst_sum <= 1e-6 and peak_err < 1e-9,
        f"column sums within {worst_sum:.2e} of 1, peak density error "
        f"{peak_err:.1e}, one-hot matches brute force on 100 trajectories",
    )


# ---------------------------------------------------------------------------
# 5. Metric self-consistency
# ---------------------------------------------------------------------------
def test_metric_self_consistency():
    rng = np.random.default_rng(5150)

    series = {}
    for i in range(6):
        scene = open_field_scene([still_source(30.0 * i, 20.0)])
        out = _render_still(scene, scene.sources[0].start_pos, noise_seed=i)
        series[f"clip{i}"] = tdoa_series(out)
    mae_self, _, skipped = gcc_mae(series, series)
    assert mae_self == 0.0 and not skipped

    centered = {k: v for k, v in series.items() if k == "clip3"}  # theta = 90
    ma_centered, _ = gcc_ma(centered)
    assert ma_centered < 5.0  # < 0.05 ms in x100 units

    vectors = np.stack([rng.standard_normal(64) for _ in range(32)])
    stats = EmbeddingStats.from_embeddings(vectors)
    fsad_self = frechet_distance(stats, stats)
    assert fsad_self < 1e-6

    for _ in range(1000):
        a = rng.standard_normal(1600)
        b = rng.standard_normal(1600)
        assert gcc_phat(a, b, 16000) == -gcc_phat(b, a, 16000)
        scale = float(rng.uniform(0.01, 100.0))
        assert gcc_phat(scale * a, b, 16000) == gcc_phat(a, b, 16000)

    worst_frechet = 0.0
    for _ in range(20):
        def make():
            m = rng.standard_normal((8, 8))
            return EmbeddingStats.from_embeddings(
                rng.standard_normal((64, 8)) @ m + rng.standard_normal(8))
        a, b = make(), make()
        got = frechet_distance(a, b)
        cross = np.real(sla.sqrtm(a.cov @ b.cov))
        want = float((a.mean - b.mean) @ (a.mean - b.mean)
                     + np.trace(a.cov + b.cov - 2.0 * cross))
        worst_frechet = max(worst_frechet, abs(got - want))
    assert worst_frechet < 1e-6

    _report(
        "metric self-consistency",
        True,
        f"self-MAE 0, self-FSAD {fsad_self:.1e}, swap/scale exact on 1000 "
        f"frames, Frechet vs oracle within {worst_frechet:.1e}",
    )


# ---------------------------------------------------------------------------
# 6. Discriminative sanity (miniature evaluation-table analogue)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_discriminative_sanity():
    t0 = time.time()
    rng = SeededRng(9091)
    n_clips = 200
    base_series, fresh_series, scram_series = {}, {}, {}
    base_vecs, fresh_vecs, scram_vecs = [], [], []

    for i in range(n_clips):
        srng = rng.child(f"clip{i}")
        label = DIRECTION_LABELS[int(srng.child("dir").integers(0, 5))]
        record = AttributeRecord(
            scene_size_label="outdoors",
            sources=(SourceAttributes(event="noise", direction_label=label,
                                      distance_label="moderate", movement="still"),),
        )
        scene = sample_scene(record, srng.child("scene"))
        pos = scene.sources[0].start_pos

        others = [d for d in DIRECTION_LABELS if d != label]
        scram_label = others[int(srng.child("scram").integers(0, 4))]
        scram_record = AttributeRecord(
            scene_size_label="outdoors",
            sources=(SourceAttributes(event="noise", direction_label=scram_label,
                                      distance_label="moderate", movement="still"),),
        )
        scram_scene = sample_scene(scram_record, srng.child("scene2"))
        scram_pos = scram_scene.sources[0].start_pos

        cid = f"clip{i:03d}"
        base = _render_still(scene, pos, noise_seed=10_000 + i)
        fresh = _render_still(scene, pos, noise_seed=20_000 + i)
        scram = _render_still(scram_scene, scram_pos, noise_seed=10_000 + i)
        base_series[cid] = tdoa_series(base)
        fresh_series[cid] = tdoa_series(fresh)
        scram_series[cid] = tdoa_series(scram)
        base_vecs.append(default_embed(base))
        fresh_vecs.append(default_embed(fresh))
        scram_vecs.append(default_embed(scram))

    mae_fresh, _, _ = gcc_mae(fresh_series, base_series)
    mae_scram, _, _ = gcc_mae(scram_series, base_series)
    stats_base = EmbeddingStats.from_embeddings(np.stack(base_vecs))
    stats_fresh = EmbeddingStats.from_embeddings(np.stack(fresh_vecs))
    stats_scram = EmbeddingStats.from_embeddings(np.stack(scram_vecs))
    fsad_fresh = frechet_distance(stats_fresh, stats_base)
    fsad_scram = frechet_distance(stats_scram, stats_base)
    elapsed = time.time() - t0

    ok = (fsad_fresh * 3.0 < fsad_scram and mae_fresh * 3.0 < mae_scram
          and elapsed < 600.0)
    _report(
        "discriminative sanity",
        ok,
        f"FSAD faithful {fsad_fresh:.3g} vs scrambled {fsad_scram:.3g} "
        f"({fsad_scram / max(fsad_fresh, 1e-12):.0f}x), GCC-MAE {mae_fresh:.3g} vs "
        f"{mae_scram:.3g} ({mae_scram / max(mae_fresh, 1e-12):.0f}x), "
        f"{elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 7. Pipeline determinism
# ---------------------------------------------------------------------------
def test_pipeline_determinism(tmp_path):
    rng = np.random.default_rng(64)
    clips = tmp_path / "clips"
    clips.mkdir()
    names = []
    for i in range(5):
        name = clips / f"src{i}.wav"
        write_wav(name, AudioBuffer(rng.standard_normal(16000 * 11) * 0.3, 16000))
        names.append(str(name))

    captions = {
        "SS": ["A dog barks on the right side of the scene, outdoors.",
               "Rain falls directly in front, outdoors.",
               "A bell rings on the front left, outdoors.",
               "An engine hums on the left, in a small space."],
        "SD": ["A siren moves from left to front right quickly, outdoors.",
               "a dog barks at left, then another dog barks at right",
               "A drone moves from right to front left at a moderate speed, outdoors."],
        "DS": ["A dog barks on the left while a cat meows on the right, outdoors."],
        "M": ["A dog barks on the left, while a bell rings from right to front left "
              "at a moderate speed."],
    }
    manifest_path = tmp_path / "manifest.jsonl"
    with open(manifest_path, "w") as fh:
        for i in range(50):
            subset = ("SS", "SS", "SD", "DS", "M")[i % 5]
            pool = captions[subset]
            entry = {
                "id": f"clip{i:03d}",
                "subset": subset,
                "audio": [names[i % 5]] if subset in ("SS", "SD") else
                         [names[i % 5], names[(i + 1) % 5]],
                "caption": pool[i % len(pool)],
            }
            fh.write(json.dumps(entry) + "\n")

    t0 = time.time()
    manifest = read_manifest(manifest_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    idx1 = synthesize(manifest, out1, global_seed=2025, workers=2)
    idx2 = synthesize(manifest, out2, global_seed=2025, workers=1)
    assert not idx1.failures and not idx2.failures

    def digest(root: Path):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.iterdir())}

    d1, d2 = digest(out1), digest(out2)
    identical = d1 == d2
    elapsed = time.time() - t0
    _report(
        "pipeline determinism",
        identical,
        f"two 50-entry runs byte-identical across worker counts "
        f"({len(d1)} files, {elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# 8. Caption round-trip
# ---------------------------------------------------------------------------
def _label_tuple(rec):
    out = [rec.scene_size_label]
    for s in rec.sources:
        out.append((s.direction_label, s.direction_degrees, s.distance_label,
                    s.movement, s.speed_label, s.end_direction_label,
                    s.end_direction_degrees, s.end_distance_label))
    return out


def test_caption_round_trip():
    import random

    random.seed(424242)
    events = ["a dog barking", "guitar strumming", "a trumpet sound", "rain falling",
              "an engine humming", "a woman singing", "church bells", "a cat meowing"]
    for _ in range(1000):
        sources = []
        for _ in range(random.choice([1, 1, 2, 2, 3, 4])):
            movement = random.choice(["still", "moving", "instant"])
            use_deg = random.random() < 0.25
            kw = dict(
                event=random.choice(events),
                direction_label=None if use_deg else random.choice(DIRECTION_LABELS),
                direction_degrees=float(random.randint(0, 180)) if use_deg else None,
                distance_label=random.choice([None, *DISTANCE_LABELS]),
                movement=movement,
            )
            if movement != "still":
                kw["end_direction_label"] = random.choice(DIRECTION_LABELS)
                kw["end_distance_label"] = random.choice([None, *DISTANCE_LABELS])
                kw["speed_label"] = ("instant" if movement == "instant"
                                     else random.choice(["slow", "moderate", "fast"]))
            sources.append(SourceAttributes(**kw))
        rec = AttributeRecord(scene_size_label=random.choice([None, *SIZE_LABELS]),
                              sources=tuple(sources))
        back = parse_caption(generate_caption(rec))
        assert _label_tuple(back) == _label_tuple(rec)

    # worked examples from the attribute/caption tables
    rec = parse_caption(
        "A dog barks in front while a guitar strums from right to front left moderately.")
    assert [s.direction_label for s in rec.sources] == ["front", "right"]
    assert rec.sources[1].end_direction_label == "front_left"
    assert rec.sources[1].speed_label == "moderate"

    rec = parse_caption("a dog barks at left, then another dog barks at right")
    assert rec.sources[0].movement == "instant"
    assert (rec.sources[0].direction_label, rec.sources[0].end_direction_label) == \
        ("left", "right")

    rec = parse_caption("A cell phone is vibrating on the right side of the scene.")
    assert rec.sources[0].direction_label == "right"

    rec = parse_caption("Trumpet sound moves from right to front left at a moderate speed.")
    assert rec.sources[0].speed_label == "moderate"

    rec = parse_caption(
        "A man speaks in front while a dog barks from front right to left.")
    assert rec.sources[0].direction_label == "front"
    assert rec.sources[1].direction_label == "front_right"
    assert rec.sources[1].end_direction_label == "left"

    _report(
        "caption round-trip",
        True,
        "1000 random records preserve every label; worked examples parse "
        "to their stated attributes",
    )
