import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stereoscene.rng import SeededRng
from stereoscene.scene import (
    AttributeRecord,
    DIRECTION_CENTERS,
    DIRECTION_LABELS,
    DISTANCE_RATIO_RANGES,
    GeometryError,
    MicArray,
    SIZE_RANGES,
    SPEED_RATIO_RANGES,
    SceneSpec,
    SourceAttributes,
    SourceSpec,
    ValidationError,
    build_trajectory,
    max_source_distance,
    resolve_attributes,
    sample_mic_array,
    sample_room,
    sample_scene,
    sample_source_placement,
)


def _record(movement="still", direction="front", distance="near", speed=None, n=1):
    src = SourceAttributes(event="a dog barking", direction_label=direction,
                           distance_label=distance, movement=movement, speed_label=speed)
    return AttributeRecord(scene_size_label="small", sources=tuple([src] * n))


# ---------------------------------------------------------------------------
# sample_room
# ---------------------------------------------------------------------------
def test_room_small_dims_within_jittered_range():
    rng = SeededRng(1)
    for _ in range(500):
        room = sample_room("small", rng)
        assert all(4.5 <= d <= 22.0 for d in room.dims)
        assert 0.3 <= room.rt60 <= 0.6


def test_room_outdoors_is_anechoic_with_base_100():
    for seed in range(20):
        room = sample_room("outdoors", SeededRng(seed))
        assert room.rt60 is None
        assert room.base_size == 100.0
        assert all(90.0 <= d <= 110.0 for d in room.dims)


def test_room_moderate_monte_carlo_mean():
    rng = SeededRng(7)
    rs = [sample_room("moderate", rng).base_size for _ in range(10000)]
    assert abs(np.mean(rs) - 30.0) < 1.0  # mean of U(20, 40)


def test_room_unknown_label_rejected():
    with pytest.raises(ValidationError):
        sample_room("gigantic", SeededRng(0))


# ---------------------------------------------------------------------------
# sample_mic_array
# ---------------------------------------------------------------------------
def test_mic_array_centered_with_bounded_jitter():
    rng = SeededRng(3)
    for _ in range(200):
        mic = sample_mic_array((10.0, 10.0, 10.0), rng, base_size=10.0)
        assert all(4.0 <= c <= 6.0 for c in mic.center)
        assert 0.16 <= mic.spacing <= 0.18


def test_mic_array_degenerate_room_errors():
    with pytest.raises(GeometryError):
        sample_mic_array((0.1, 0.1, 0.1), SeededRng(0), base_size=0.1)


def test_mic_array_spacing_monte_carlo_mean():
    rng = SeededRng(11)
    spacings = [sample_mic_array((100.0,) * 3, rng, base_size=100.0).spacing
                for _ in range(10000)]
    assert abs(np.mean(spacings) - 0.17) < 0.001


# ---------------------------------------------------------------------------
# sample_source_placement
# ---------------------------------------------------------------------------
def test_placement_front_near_centered():
    rng = SeededRng(5)
    room = (20.0, 20.0, 20.0)
    mic = MicArray(center=(10.0, 10.0, 10.0), half_spacing=0.085)
    angles = []
    for _ in range(300):
        theta, dist, pos = sample_source_placement("front", "near", room, mic, rng)
        angles.append(theta)
        # near label keeps the source within 30% of the free range
        assert dist <= 0.3 * max_source_distance(room, mic) + 1e-9
        d_left = np.linalg.norm(pos - mic.left_pos)
        d_right = np.linalg.norm(pos - mic.right_pos)
        assert abs(d_left - d_right) < 0.2 * dist  # roughly equidistant
    assert abs(np.mean(angles) - 90.0) < 33.0 / np.sqrt(300) * 5


def test_placement_explicit_angle_zero_lands_on_axis():
    rng = SeededRng(5)
    room = (20.0, 20.0, 20.0)
    mic = MicArray(center=(10.0, 10.0, 10.0), half_spacing=0.085)
    theta, dist, pos = sample_source_placement(0.0, "far", room, mic, rng)
    assert theta == 0.0
    np.testing.assert_allclose(pos, [10.0, 10.0 + dist, 10.0], atol=1e-12)


def test_placement_left_label_clamps_to_half_normal():
    rng = SeededRng(17)
    room = (50.0, 50.0, 50.0)
    mic = MicArray(center=(25.0, 25.0, 25.0), half_spacing=0.085)
    thetas = np.array([
        sample_source_placement("left", "moderate", room, mic, rng)[0]
        for _ in range(10000)
    ])
    assert thetas.max() <= 180.0
    at_bound = thetas == 180.0
    # half the normal mass clamps onto the boundary
    assert abs(at_bound.mean() - 0.5) < 0.02
    # interior part follows the folded tail: |180 - theta| | >0 ~ halfnorm(11)
    interior = 180.0 - thetas[~at_bound]
    ks = stats.kstest(interior, stats.halfnorm(scale=11.0).cdf)
    assert ks.pvalue > 0.01


# ---------------------------------------------------------------------------
# label -> distribution conformance (Kolmogorov-Smirnov)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("label", ["small", "moderate", "large"])
def test_room_size_ks(label):
    rng = SeededRng(23)
    lo, hi = SIZE_RANGES[label]
    samples = [sample_room(label, rng).base_size for _ in range(10000)]
    ks = stats.kstest(samples, stats.uniform(loc=lo, scale=hi - lo).cdf)
    assert ks.pvalue > 0.01


@pytest.mark.parametrize("label", ["near", "moderate", "far"])
def test_distance_ratio_ks(label):
    rng = SeededRng(29)
    room = (40.0, 40.0, 40.0)
    mic = MicArray(center=(20.0, 20.0, 20.0), half_spacing=0.085)
    free = max_source_distance(room, mic)
    lo, hi = DISTANCE_RATIO_RANGES[label]
    ratios = [sample_source_placement("front", label, room, mic, rng)[1] / free
              for _ in range(10000)]
    ks = stats.kstest(ratios, stats.uniform(loc=lo, scale=hi - lo).cdf)
    assert ks.pvalue > 0.01


@pytest.mark.parametrize("label", ["front_left", "front", "front_right"])
def test_direction_ks_unclamped_labels(label):
    rng = SeededRng(31)
    room = (60.0, 60.0, 60.0)
    mic = MicArray(center=(30.0, 30.0, 30.0), half_spacing=0.085)
    thetas = [sample_source_placement(label, "moderate", room, mic, rng)[0]
              for _ in range(10000)]
    ks = stats.kstest(thetas, stats.norm(loc=DIRECTION_CENTERS[label], scale=11.0).cdf)
    assert ks.pvalue > 0.01


@pytest.mark.parametrize("label", ["slow", "moderate", "fast"])
def test_speed_ratio_ks(label):
    rng = SeededRng(37)
    room = (40.0, 40.0, 40.0)
    mic = MicArray(center=(20.0, 20.0, 20.0), half_spacing=0.085)
    lo, hi = SPEED_RATIO_RANGES[label]
    ratios = []
    for _ in range(10000):
        placement = sample_source_placement("front", "near", room, mic, rng)
        src = build_trajectory(placement, "moving", label, 10.0, rng, room, mic,
                               distance_label="near")
        ratios.append(src.speed_ratio)
    ks = stats.kstest(ratios, stats.uniform(loc=lo, scale=hi - lo).cdf)
    assert ks.pvalue > 0.01


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------
def test_still_trajectory_constant(noise_clip):
    rng = SeededRng(41)
    room = (30.0, 30.0, 30.0)
    mic = MicArray(center=(15.0, 15.0, 15.0), half_spacing=0.085)
    placement = sample_source_placement("front", "moderate", room, mic, rng)
    src = build_trajectory(placement, "still", None, 10.0, rng, room, mic)
    traj = src.trajectory(10.0)
    assert traj.shape == (1000, 3)
    assert np.all(traj == traj[0])


def test_moving_slow_occupies_expected_fraction():
    rng = SeededRng(43)
    room = (60.0, 60.0, 60.0)
    mic = MicArray(center=(30.0, 30.0, 30.0), half_spacing=0.085)
    for _ in range(200):
        placement = sample_source_placement("right", "moderate", room, mic, rng)
        src = build_trajectory(placement, "moving", "slow", 10.0, rng, room, mic,
                               distance_label="moderate")
        assert 7.5 <= src.move_interval <= 8.5
        assert 0.0 <= src.move_start <= 1.5
        assert src.move_start + src.move_interval <= 10.0 + 1e-9


def test_linear_midpoint_of_motion():
    src = SourceSpec(start_pos=(0.0, 0.0, 0.0), end_pos=(1.0, 0.0, 0.0),
                     angle=90.0, distance=1.0, movement="moving", end_angle=90.0,
                     end_distance=1.0, speed_ratio=0.2, move_start=1.0, move_interval=2.0)
    np.testing.assert_allclose(src.position_at(2.0), [0.5, 0.0, 0.0])
    np.testing.assert_allclose(src.position_at(0.5), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(src.position_at(9.0), [1.0, 0.0, 0.0])


def _scalar_position(src, t):
    """The per-time branch rules that SourceSpec.positions vectorises."""
    start, end = np.asarray(src.start_pos), np.asarray(src.end_pos)
    if src.movement == "still":
        return start
    if src.movement == "instant":
        return start if t < src.instant_time else end
    t0, dur = src.move_start, src.move_interval
    if t < t0:
        return start
    if t >= t0 + dur or dur <= 0:
        return end
    return start + (t - t0) / dur * (end - start)


def test_positions_match_scalar_rules():
    a, b = (0.1, 0.2, 0.3), (0.7, -0.9, 2.9)  # 0.2 + (-0.9 - 0.2) != -0.9
    common = dict(start_pos=a, angle=30.0, distance=2.0)
    sources = [
        SourceSpec(end_pos=a, movement="still", **common),
        SourceSpec(end_pos=b, movement="instant", end_angle=120.0, end_distance=3.0,
                   instant_time=0.37, **common),
        SourceSpec(end_pos=b, movement="moving", end_angle=120.0, end_distance=3.0,
                   speed_ratio=0.3, move_start=0.13, move_interval=0.61, **common),
        SourceSpec(end_pos=b, movement="moving", end_angle=120.0, end_distance=3.0,
                   speed_ratio=0.3, move_start=0.5, move_interval=0.0, **common),
    ]
    # the 10 ms grid plus the exact switch times
    times = np.concatenate([np.arange(120) * 0.01, [0.13, 0.37, 0.5, 0.13 + 0.61]])
    for src in sources:
        want = np.stack([_scalar_position(src, t) for t in times.tolist()])
        assert np.array_equal(src.positions(times), want)
        assert np.array_equal(src.trajectory(1.2), want[:120])


def test_moving_trajectory_continuity():
    rng = SeededRng(47)
    room = (60.0, 60.0, 60.0)
    mic = MicArray(center=(30.0, 30.0, 30.0), half_spacing=0.085)
    placement = sample_source_placement("left", "far", room, mic, rng)
    src = build_trajectory(placement, "moving", "fast", 10.0, rng, room, mic,
                           distance_label="far")
    traj = src.trajectory(10.0)
    steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
    total = np.linalg.norm(np.asarray(src.end_pos) - np.asarray(src.start_pos))
    v = total / src.move_interval
    assert steps.max() <= v * 0.01 + 1e-9


def test_instant_trajectory_steps_once():
    rng = SeededRng(53)
    room = (60.0, 60.0, 60.0)
    mic = MicArray(center=(30.0, 30.0, 30.0), half_spacing=0.085)
    placement = sample_source_placement("left", "far", room, mic, rng)
    src = build_trajectory(placement, "instant", "instant", 10.0, rng, room, mic,
                           distance_label="far")
    assert 2.0 <= src.instant_time <= 8.0
    traj = src.trajectory(10.0)
    uniq = np.unique(traj, axis=0)
    assert uniq.shape[0] == 2


# ---------------------------------------------------------------------------
# whole scenes
# ---------------------------------------------------------------------------
def test_scene_determinism_bit_identical():
    a = sample_scene(_record(), SeededRng(99))
    b = sample_scene(_record(), SeededRng(99))
    assert a.to_json() == b.to_json()


def test_adding_source_keeps_earlier_draws():
    one = sample_scene(_record(n=1), SeededRng(7))
    two = sample_scene(_record(n=2), SeededRng(7))
    assert one.room_dims == two.room_dims
    assert one.sources[0] == two.sources[0]


@pytest.mark.slow
def test_scene_containment_bulk():
    # spec invariant: geometry stays strictly inside for 1e5 random scenes;
    # SceneSpec construction raises on any violation
    rng = SeededRng(101)
    labels = ["small", "moderate", "large", "outdoors"]
    directions = list(DIRECTION_LABELS)
    n = 100_000
    for i in range(n):
        record = AttributeRecord(
            scene_size_label=labels[i % 4],
            sources=(SourceAttributes(
                event="e", direction_label=directions[i % 5],
                distance_label=("near", "moderate", "far")[i % 3],
                movement=("still", "moving", "instant")[i % 3],
                speed_label=(None, "fast", "instant")[i % 3]),),
        )
        scene = sample_scene(record, rng.child(f"{i}"))
        dims = np.asarray(scene.room_dims)
        for pos in (scene.mic_array.left_pos, scene.mic_array.right_pos,
                    np.asarray(scene.sources[0].start_pos),
                    np.asarray(scene.sources[0].end_pos)):
            assert np.all(pos > 0) and np.all(pos < dims)


def test_scene_json_roundtrip():
    scene = sample_scene(_record(movement="moving", speed="fast"), SeededRng(13))
    again = SceneSpec.from_json(scene.to_json())
    assert again == scene


def _field_by_field_to_json(scene: SceneSpec) -> str:
    # the scene writer as it was before the JSON came from the dataclass fields
    d = {
        "room_dims": list(scene.room_dims),
        "rt60": scene.rt60,
        "mic_array": {
            "center": list(scene.mic_array.center),
            "half_spacing": scene.mic_array.half_spacing,
        },
        "sources": [
            {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(s).items()}
            for s in scene.sources
        ],
        "duration": scene.duration,
        "sample_rate": scene.sample_rate,
    }
    return json.dumps(d, indent=2, sort_keys=True)


def _field_by_field_from_json(text: str) -> SceneSpec:
    # the scene reader as it was before the JSON came from the dataclass fields
    d = json.loads(text)
    sources = tuple(
        SourceSpec(
            start_pos=tuple(s["start_pos"]),
            end_pos=tuple(s["end_pos"]),
            angle=s["angle"],
            distance=s["distance"],
            movement=s.get("movement", "still"),
            end_angle=s.get("end_angle"),
            end_distance=s.get("end_distance"),
            speed_ratio=s.get("speed_ratio"),
            move_start=s.get("move_start", 0.0),
            move_interval=s.get("move_interval", 0.0),
            instant_time=s.get("instant_time"),
            audio_ref=s.get("audio_ref", ""),
        )
        for s in d["sources"]
    )
    return SceneSpec(
        room_dims=tuple(d["room_dims"]),
        rt60=d.get("rt60"),
        mic_array=MicArray(
            center=tuple(d["mic_array"]["center"]),
            half_spacing=d["mic_array"]["half_spacing"],
        ),
        sources=sources,
        duration=d.get("duration", 10.0),
        sample_rate=d.get("sample_rate", 16000),
    )


def test_scene_and_attribute_json_match_field_by_field_reference():
    rng = SeededRng(29)
    speeds = {"still": None, "moving": "slow", "instant": "instant"}
    checked = 0
    for size in SIZE_RANGES:
        for movement, speed in speeds.items():
            for i in range(5):
                src = SourceAttributes(
                    event=f"clip{i}", movement=movement, speed_label=speed,
                    direction_label=None if i % 2 else DIRECTION_LABELS[i],
                    direction_degrees=30.0 * i if i % 2 else None,
                    flags=("direction_unspecified",) if i == 4 else ())
                record = AttributeRecord(scene_size_label=size, sources=(src,) * (1 + i % 2),
                                         flags=("from_caption",) if i % 3 == 0 else ())
                srng = rng.child(f"{size}-{movement}-{i}")
                for r in (record, resolve_attributes(record, srng)):
                    assert AttributeRecord.from_dict(r.to_dict()) == r
                    assert AttributeRecord.from_dict(json.loads(json.dumps(r.to_dict()))) == r
                scene = sample_scene(record, srng)
                text = scene.to_json()
                assert text == _field_by_field_to_json(scene)
                assert SceneSpec.from_json(text) == scene
                assert _field_by_field_from_json(text) == scene
                checked += 1
    assert checked == 60


def test_scene_json_refuses_unknown_and_missing_fields():
    scene = json.loads(sample_scene(_record(), SeededRng(3)).to_json())
    del scene["rt60"], scene["duration"], scene["sample_rate"]
    for key in ("movement", "end_angle", "move_start", "audio_ref"):
        del scene["sources"][0][key]
    loaded = SceneSpec.from_json(json.dumps(scene))
    assert loaded.rt60 is None and loaded.duration == 10.0 and loaded.sample_rate == 16000
    assert loaded == _field_by_field_from_json(json.dumps(scene))
    scene["sources"][0]["loudness"] = 1.0
    with pytest.raises(ValidationError, match="SourceSpec: unknown field 'loudness'"):
        SceneSpec.from_json(json.dumps(scene))
    del scene["sources"][0]["loudness"], scene["mic_array"]["half_spacing"]
    with pytest.raises(ValidationError, match="MicArray: missing field 'half_spacing'"):
        SceneSpec.from_json(json.dumps(scene))
    with pytest.raises(ValidationError, match="SceneSpec: missing field 'room_dims'"):
        SceneSpec.from_json("{}")
    with pytest.raises(ValidationError, match="must be a JSON object"):
        SceneSpec.from_json("[]")


_WRONG_JSON_VALUES = {"string": "90", "bool": True, "wrong-length array": [1.0, 2.0],
                      "NaN": float("nan"), "object": {"value": 1.0}}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), size=st.sampled_from(sorted(SIZE_RANGES)),
       movement=st.sampled_from(("still", "moving", "instant")), data=st.data())
def test_scene_json_names_any_mistyped_field(seed, size, movement, data):
    speed = {"still": None, "moving": "fast", "instant": "instant"}[movement]
    record = replace(_record(movement=movement, speed=speed), scene_size_label=size)
    doc = json.loads(sample_scene(record, SeededRng(seed)).to_json())
    owners = {"SceneSpec": doc, "MicArray": doc["mic_array"], "SourceSpec": doc["sources"][0]}
    owner, key = data.draw(st.sampled_from([(o, k) for o, d in owners.items() for k in d]))
    kinds = [k for k in _WRONG_JSON_VALUES
             if not (k == "string" and isinstance(owners[owner][key], str))]
    owners[owner][key] = _WRONG_JSON_VALUES[data.draw(st.sampled_from(kinds))]
    with pytest.raises(ValidationError, match=rf"{owner}\.{key}\b"):
        SceneSpec.from_json(json.dumps(doc))


def test_scene_json_float_fields_take_ints_in_float_range():
    scene = json.loads(sample_scene(_record(), SeededRng(5)).to_json())
    scene["sources"][0]["angle"], scene["duration"] = 90, 10
    text = json.dumps(scene)
    assert SceneSpec.from_json(text) == _field_by_field_from_json(text)
    assert type(SceneSpec.from_json(text).sources[0].angle) is int
    scene["room_dims"][0] = 10**400  # no float64 holds it
    with pytest.raises(ValidationError, match=r"SceneSpec\.room_dims"):
        SceneSpec.from_json(json.dumps(scene))


def test_attribute_record_refuses_unknown_keys():
    src = {"event": "a dog", "direction": "left"}
    with pytest.raises(ValidationError, match="SourceAttributes: unknown field 'direction'"):
        AttributeRecord.from_dict({"sources": [src]})
    with pytest.raises(ValidationError, match="unknown field 'scene_size_label'"):
        AttributeRecord.from_dict({"scene_size_label": "small", "sources": [{"event": "x"}]})
    record = AttributeRecord.from_dict({"sources": [{"event": "a dog"}]})
    assert record == AttributeRecord(scene_size_label=None,
                                     sources=(SourceAttributes(event="a dog"),))


def test_scene_rejects_outside_source():
    mic = MicArray(center=(5.0, 5.0, 5.0), half_spacing=0.085)
    bad = SourceSpec(start_pos=(11.0, 5.0, 5.0), end_pos=(11.0, 5.0, 5.0),
                     angle=90.0, distance=6.0, movement="still")
    with pytest.raises(GeometryError):
        SceneSpec(room_dims=(10.0, 10.0, 10.0), rt60=0.4, mic_array=mic, sources=(bad,))


def test_attribute_validation():
    with pytest.raises(ValidationError):
        SourceAttributes(event="x", direction_label="behind")
    with pytest.raises(ValidationError):
        SourceAttributes(event="x", direction_degrees=270.0)
    with pytest.raises(ValidationError):
        SourceAttributes(event="x", movement="moving")  # speed missing
    with pytest.raises(ValidationError):
        SourceAttributes(event="x", movement="still", speed_label="fast")
