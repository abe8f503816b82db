import numpy as np
import pytest
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
