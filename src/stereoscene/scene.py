"""Scene domain types and the samplers that turn attribute labels into geometry.

Conventions (fixed throughout the package):
  * azimuth angle theta is measured in the horizontal plane with
    0 deg = right, 90 deg = front, 180 deg = left; elevation is fixed at
    microphone height,
  * all lengths in meters, times in seconds, angles in degrees,
  * the microphone pair is split along axis 1: left mic at M1 - half_spacing,
    right mic at M1 + half_spacing.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .rng import SeededRng

SIZE_LABELS = ("outdoors", "large", "moderate", "small")
DIRECTION_LABELS = ("left", "front_left", "front", "front_right", "right")
DISTANCE_LABELS = ("far", "moderate", "near")
MOVEMENT_MODES = ("still", "moving", "instant")
SPEED_LABELS = ("slow", "moderate", "fast", "instant")

# base room extent r per size label; jitter of +-10% is applied per axis
SIZE_RANGES = {
    "small": (5.0, 20.0),
    "moderate": (20.0, 40.0),
    "large": (40.0, 90.0),
    "outdoors": (100.0, 100.0),
}

# azimuth center per direction label; drawn N(center, 11 deg std), clamped
DIRECTION_CENTERS = {
    "left": 180.0,
    "front_left": 135.0,
    "front": 90.0,
    "front_right": 45.0,
    "right": 0.0,
}
DIRECTION_STD_DEG = 11.0

# distance ratio (fraction of free range toward the nearest wall)
DISTANCE_RATIO_RANGES = {
    "near": (0.1, 0.3),
    "moderate": (0.3, 0.6),
    "far": (0.6, 0.9),
}

# fraction of the clip occupied by the motion; slower = longer interval
SPEED_RATIO_RANGES = {
    "slow": (0.75, 0.85),
    "moderate": (0.45, 0.55),
    "fast": (0.25, 0.35),
}

RT60_RANGE = (0.3, 0.6)
HALF_SPACING_RANGE = (0.08, 0.09)
MOVE_START_MAX_FRAC = 0.15
INSTANT_TIME_FRAC = (0.2, 0.8)
MAX_PLACEMENT_TRIES = 100


class ValidationError(ValueError):
    pass


class GeometryError(ValueError):
    pass


def nearest_direction_label(angle_deg: float) -> str:
    return min(DIRECTION_CENTERS, key=lambda k: abs(DIRECTION_CENTERS[k] - angle_deg))


# ---------------------------------------------------------------------------
# Attribute records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SourceAttributes:
    """Per-source labels before geometry sampling.

    Exactly one of ``direction_label`` / ``direction_degrees`` is normally
    set; both may be None when a caption did not specify a direction, in
    which case the record carries the flag "direction_unspecified" and the
    pipeline draws a label uniformly.
    """

    event: str = ""
    direction_label: str | None = None
    direction_degrees: float | None = None
    distance_label: str | None = None
    movement: str = "still"
    speed_label: str | None = None
    end_direction_label: str | None = None
    end_direction_degrees: float | None = None
    end_distance_label: str | None = None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.movement not in MOVEMENT_MODES:
            raise ValidationError(f"unknown movement mode {self.movement!r}")
        if self.direction_label is not None and self.direction_label not in DIRECTION_LABELS:
            raise ValidationError(f"unknown direction label {self.direction_label!r}")
        if self.end_direction_label is not None and self.end_direction_label not in DIRECTION_LABELS:
            raise ValidationError(f"unknown direction label {self.end_direction_label!r}")
        for deg in (self.direction_degrees, self.end_direction_degrees):
            if deg is not None and not (0.0 <= deg <= 180.0):
                raise ValidationError(f"explicit angle {deg} outside [0, 180]")
        if self.distance_label is not None and self.distance_label not in DISTANCE_LABELS:
            raise ValidationError(f"unknown distance label {self.distance_label!r}")
        if self.movement == "still":
            if self.speed_label is not None:
                raise ValidationError("still sources carry no speed label")
        else:
            if self.speed_label is None:
                raise ValidationError("moving/instant sources require a speed label")
            if self.speed_label not in SPEED_LABELS:
                raise ValidationError(f"unknown speed label {self.speed_label!r}")
            if self.movement == "instant" and self.speed_label != "instant":
                raise ValidationError("instant movement pairs with speed label 'instant'")
            if self.movement == "moving" and self.speed_label == "instant":
                raise ValidationError("gradual movement cannot use speed label 'instant'")


@dataclass(frozen=True)
class AttributeRecord:
    """Scene-level attribute labels for one clip (one entry per source)."""

    scene_size_label: str | None
    sources: tuple[SourceAttributes, ...]
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.scene_size_label is not None and self.scene_size_label not in SIZE_LABELS:
            raise ValidationError(f"unknown scene size label {self.scene_size_label!r}")
        if not self.sources:
            raise ValidationError("record needs at least one source")

    def to_dict(self) -> dict:
        return {
            "scene_size": self.scene_size_label,
            "sources": [
                {k: v for k, v in asdict(s).items() if v not in (None, (), "")}
                for s in self.sources
            ],
            "flags": list(self.flags),
        }

    @staticmethod
    def from_dict(d: dict) -> "AttributeRecord":
        return AttributeRecord(**_json_kwargs(AttributeRecord, d,
                                              {"scene_size_label": "scene_size"},
                                              scene_size_label=None))


# ---------------------------------------------------------------------------
# Geometry types
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MicArray:
    center: tuple[float, float, float]
    half_spacing: float

    def __post_init__(self):
        if not (HALF_SPACING_RANGE[0] <= self.half_spacing <= HALF_SPACING_RANGE[1]):
            raise ValidationError(
                f"half spacing {self.half_spacing} outside {HALF_SPACING_RANGE}"
            )

    @property
    def left_pos(self) -> np.ndarray:
        c = self.center
        return np.array([c[0], c[1] - self.half_spacing, c[2]])

    @property
    def right_pos(self) -> np.ndarray:
        c = self.center
        return np.array([c[0], c[1] + self.half_spacing, c[2]])

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_spacing


@dataclass(frozen=True)
class SourceSpec:
    """Placement and motion of one source within a scene."""

    start_pos: tuple[float, float, float]
    end_pos: tuple[float, float, float]
    angle: float
    distance: float
    movement: str = "still"
    end_angle: float | None = None
    end_distance: float | None = None
    speed_ratio: float | None = None
    move_start: float = 0.0
    move_interval: float = 0.0
    instant_time: float | None = None
    audio_ref: str = ""

    def __post_init__(self):
        if self.movement not in MOVEMENT_MODES:
            raise ValidationError(f"unknown movement mode {self.movement!r}")
        if not (0.0 <= self.angle <= 180.0):
            raise ValidationError(f"angle {self.angle} outside [0, 180]")
        if self.distance <= 0:
            raise ValidationError("distance must be positive")
        if self.movement == "still" and tuple(self.start_pos) != tuple(self.end_pos):
            raise ValidationError("still source must keep end_pos == start_pos")
        if self.movement == "instant" and self.instant_time is None:
            raise ValidationError("instant source requires instant_time")

    def position_at(self, t: float) -> np.ndarray:
        return self.positions([t])[0]

    def positions(self, times) -> np.ndarray:
        """Positions at each of ``times`` (seconds), shape (len(times), 3).

        Before ``move_start`` the source sits at ``start_pos``, from
        ``move_start + move_interval`` on at ``end_pos``, and in between it
        moves linearly; instant sources jump at ``instant_time``.
        """
        t = np.asarray(times, dtype=np.float64)[:, None]
        start = np.asarray(self.start_pos, dtype=np.float64)
        end = np.asarray(self.end_pos, dtype=np.float64)
        if self.movement == "still":
            return np.repeat(start[None, :], t.shape[0], axis=0)
        if self.movement == "instant":
            return np.where(t < self.instant_time, start, end)
        t0, dur = self.move_start, self.move_interval
        if dur <= 0:
            return np.where(t < t0, start, end)
        moved = start + (t - t0) / dur * (end - start)
        return np.where(t < t0, start, np.where(t >= t0 + dur, end, moved))

    def trajectory(self, t_total: float, hop_s: float = 0.01) -> np.ndarray:
        """Positions sampled every ``hop_s`` seconds, shape (n, 3)."""
        n = int(round(t_total / hop_s))
        return self.positions(np.arange(n) * hop_s)


@dataclass(frozen=True)
class SceneSpec:
    room_dims: tuple[float, float, float]
    rt60: float | None
    mic_array: MicArray
    sources: tuple[SourceSpec, ...]
    duration: float = 10.0
    sample_rate: int = 16000

    def __post_init__(self):
        dims = np.asarray(self.room_dims, dtype=np.float64)
        if np.any(dims <= 0):
            raise ValidationError("room dimensions must be positive")
        if self.rt60 is not None and not (RT60_RANGE[0] <= self.rt60 <= RT60_RANGE[1]):
            raise ValidationError(f"rt60 {self.rt60} outside {RT60_RANGE}")
        if self.sample_rate < 1:
            raise ValidationError(f"sample_rate {self.sample_rate} must be at least 1 Hz")
        if round(self.duration * self.sample_rate) < 1:
            raise ValidationError(f"duration {self.duration} s holds no sample at "
                                  f"{self.sample_rate} Hz")
        for pos in (self.mic_array.left_pos, self.mic_array.right_pos):
            if not _inside(pos, dims):
                raise GeometryError(f"microphone at {pos} outside room {dims}")
        for src in self.sources:
            for pos in (src.start_pos, src.end_pos):
                if not _inside(np.asarray(pos), dims):
                    raise GeometryError(f"source at {pos} outside room {dims}")

    @property
    def anechoic(self) -> bool:
        return self.rt60 is None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SceneSpec":
        return SceneSpec(**_json_kwargs(SceneSpec, json.loads(text), rt60=None))


_type_hints = functools.cache(get_type_hints)


def _json_kwargs(cls, obj, renames=None, **defaults) -> dict:
    """Keyword arguments for the dataclass ``cls`` from the JSON object ``obj``.

    ``renames`` maps a field name to its JSON key, and ``defaults`` fill
    fields that ``obj`` may omit although ``cls`` gives them no default.
    Unknown keys, missing required fields and values that do not fit their
    field's annotation raise ValidationError naming them.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    keys = {(renames or {}).get(f.name, f.name): f for f in fields(cls)}
    problems = [f"unknown field {k!r}" for k in obj if k not in keys]
    problems += [f"missing field {k!r}" for k, f in keys.items()
                 if k not in obj and f.name not in defaults and f.default is MISSING]
    if problems:
        raise ValidationError(f"{cls.__name__}: {', '.join(problems)}")
    hints = _type_hints(cls)
    return {**defaults, **{keys[k].name: _json_value(hints[keys[k].name], v, f"{cls.__name__}.{k}")
                           for k, v in obj.items()}}


def _json_value(hint, value, where: str):
    """``value`` checked against the annotation ``hint``: str, int (not bool),
    a number a float64 holds (an int is kept as given), ``X | None``, a tuple of
    fixed or ``...`` length, or a dataclass (read by its ``from_dict`` if any)."""
    args = get_args(hint)
    if type(None) in args:
        return None if value is None else _json_value(args[0], value, where)
    if get_origin(hint) is tuple:
        fixed = args[-1] is not ...
        if not isinstance(value, (list, tuple)) or (fixed and len(value) != len(args)):
            raise ValidationError(f"{where}: expected {hint}, got {value!r:.40}")
        return tuple(_json_value(args[i] if fixed else args[0], v, where)
                     for i, v in enumerate(value))
    if is_dataclass(hint):
        try:
            return hint.from_dict(value) if hasattr(hint, "from_dict") else \
                hint(**_json_kwargs(hint, value))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint) \
            or (hint is float and not abs(value) <= sys.float_info.max):
        raise ValidationError(f"{where}: expected {hint.__name__}, got {value!r:.40}")
    return value


def _inside(pos: np.ndarray, dims: np.ndarray) -> bool:
    return bool(np.all(pos > 0) and np.all(pos < dims))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RoomSample:
    dims: tuple[float, float, float]
    rt60: float | None
    base_size: float


def sample_room(size_label: str, rng: SeededRng) -> RoomSample:
    """Draw room dimensions and reverberation for a size label.

    The base extent r is drawn uniformly from the label's range, each axis is
    jittered by U(-0.1r, 0.1r), and indoor rooms get rt60 ~ U(0.3, 0.6).
    The "outdoors" label fixes r = 100 and renders anechoically (rt60 None).
    """
    if size_label not in SIZE_RANGES:
        raise ValidationError(f"unknown scene size label {size_label!r}")
    lo, hi = SIZE_RANGES[size_label]
    r = float(rng.uniform(lo, hi)) if hi > lo else lo
    dims = tuple(float(r + rng.uniform(-0.1 * r, 0.1 * r)) for _ in range(3))
    rt60 = None if size_label == "outdoors" else float(rng.uniform(*RT60_RANGE))
    return RoomSample(dims=dims, rt60=rt60, base_size=r)


def sample_mic_array(room_dims, rng: SeededRng, base_size: float) -> MicArray:
    """Place the two-mic array near the room center.

    Center jitter per axis is U(-0.1r, 0.1r) with r = ``base_size``; the half
    spacing is U(0.08, 0.09) m. Jitter is redrawn (up to 100 tries) until both
    capsules sit strictly inside the room.
    """
    dims = np.asarray(room_dims, dtype=np.float64)
    r = float(base_size)
    half_spacing = float(rng.uniform(*HALF_SPACING_RANGE))
    for _ in range(MAX_PLACEMENT_TRIES):
        center = tuple(float(dims[i] / 2.0 + rng.uniform(-0.1 * r, 0.1 * r)) for i in range(3))
        mic = MicArray(center=center, half_spacing=half_spacing)
        if _inside(mic.left_pos, dims) and _inside(mic.right_pos, dims):
            return mic
    raise GeometryError(f"cannot place a {2 * half_spacing:.2f} m array inside room {dims}")


def source_position(mic: MicArray, angle_deg: float, distance: float) -> np.ndarray:
    """Position at ``angle_deg``/``distance`` from the array center, at mic height."""
    th = math.radians(angle_deg)
    c = mic.center
    return np.array([c[0] + distance * math.sin(th), c[1] + distance * math.cos(th), c[2]])


def max_source_distance(room_dims, mic: MicArray) -> float:
    dims = np.asarray(room_dims, dtype=np.float64)
    m = mic.center
    return float(min(dims[0] - m[0], dims[1] - m[1], m[0], m[1]))


def sample_source_placement(
    direction, distance_label: str, room_dims, mic: MicArray, rng: SeededRng
):
    """Draw (angle, distance, position) for one source.

    ``direction`` is either a label (angle ~ N(center, 11 deg), clamped to
    [0, 180]) or an explicit angle in degrees, which bypasses sampling.
    Distance is a label-dependent fraction of the free range toward the
    nearest wall. Draws are rejected until the position is strictly inside.
    """
    dims = np.asarray(room_dims, dtype=np.float64)
    explicit = not isinstance(direction, str)
    if explicit:
        angle = float(direction)
        if not (0.0 <= angle <= 180.0):
            raise ValidationError(f"explicit angle {angle} outside [0, 180]")
    elif direction not in DIRECTION_CENTERS:
        raise ValidationError(f"unknown direction label {direction!r}")
    if distance_label not in DISTANCE_RATIO_RANGES:
        raise ValidationError(f"unknown distance label {distance_label!r}")

    free = max_source_distance(room_dims, mic)
    if free <= 0:
        raise GeometryError("microphone array leaves no room for sources")

    for _ in range(MAX_PLACEMENT_TRIES):
        if not explicit:
            angle = float(
                np.clip(rng.normal(DIRECTION_CENTERS[direction], DIRECTION_STD_DEG), 0.0, 180.0)
            )
        ratio = float(rng.uniform(*DISTANCE_RATIO_RANGES[distance_label]))
        dist = ratio * free
        pos = source_position(mic, angle, dist)
        if dist > 0 and _inside(pos, dims):
            return angle, dist, pos
    raise GeometryError("could not place source inside room after retries")


def _pick_end_direction(start_label: str, rng: SeededRng) -> str:
    options = [lab for lab in DIRECTION_LABELS if lab != start_label]
    return str(rng.choice(options))


def build_trajectory(
    placement,
    movement: str,
    speed_label: str | None,
    t_total: float,
    rng: SeededRng,
    room_dims,
    mic: MicArray,
    distance_label: str = "moderate",
    end_direction=None,
    end_distance_label: str | None = None,
    audio_ref: str = "",
) -> SourceSpec:
    """Extend a static placement into a full SourceSpec with motion timing.

    Moving sources get interval T = ratio * t_total (ratio drawn per speed
    label) starting at U(0, 0.15) * t_total; the end placement reuses the
    sampler with a direction label different from the start (or the explicit
    ``end_direction``). Instant sources jump at U(0.2, 0.8) * t_total.
    """
    angle, dist, pos = placement
    pos_t = tuple(float(x) for x in pos)
    if movement == "still":
        return SourceSpec(
            start_pos=pos_t, end_pos=pos_t, angle=angle, distance=dist,
            movement="still", audio_ref=audio_ref,
        )

    if end_direction is None:
        end_direction = _pick_end_direction(nearest_direction_label(angle), rng)
    end_angle, end_dist, end_pos = sample_source_placement(
        end_direction, end_distance_label or distance_label, room_dims, mic, rng
    )
    end_t = tuple(float(x) for x in end_pos)

    if movement == "instant":
        t_move = float(rng.uniform(*INSTANT_TIME_FRAC)) * t_total
        return SourceSpec(
            start_pos=pos_t, end_pos=end_t, angle=angle, distance=dist,
            movement="instant", end_angle=end_angle, end_distance=end_dist,
            instant_time=t_move, audio_ref=audio_ref,
        )

    if speed_label not in SPEED_RATIO_RANGES:
        raise ValidationError(f"moving source needs slow/moderate/fast, got {speed_label!r}")
    ratio = float(rng.uniform(*SPEED_RATIO_RANGES[speed_label]))
    interval = ratio * t_total
    t_begin = float(rng.uniform(0.0, MOVE_START_MAX_FRAC)) * t_total
    if t_begin + interval > t_total + 1e-9:
        raise AssertionError("motion window exceeds clip length")  # by construction
    return SourceSpec(
        start_pos=pos_t, end_pos=end_t, angle=angle, distance=dist,
        movement="moving", end_angle=end_angle, end_distance=end_dist,
        speed_ratio=ratio, move_start=t_begin, move_interval=interval,
        audio_ref=audio_ref,
    )


def resolve_attributes(record: AttributeRecord, rng: SeededRng) -> AttributeRecord:
    """Fill unspecified labels with uniform draws so every field is concrete.

    Uses stateless substreams ("size-fallback", "source{i}"/"dir-fallback",
    ...), so resolving is idempotent: calling this (or sample_scene) again
    with the same rng yields the same record, and specified fields never
    consume draws.
    """
    size = record.scene_size_label
    if size is None:
        size = str(rng.child("size-fallback").choice(SIZE_LABELS))
    sources = []
    for i, attrs in enumerate(record.sources):
        srng = rng.child(f"source{i}")
        updates = {}
        if attrs.direction_label is None and attrs.direction_degrees is None:
            updates["direction_label"] = str(srng.child("dir-fallback").choice(DIRECTION_LABELS))
        if attrs.distance_label is None:
            updates["distance_label"] = str(srng.child("dist-fallback").choice(DISTANCE_LABELS))
        if attrs.movement != "still" and attrs.end_direction_label is None \
                and attrs.end_direction_degrees is None:
            start_label = attrs.direction_label or updates.get("direction_label")
            if start_label is None:
                start_label = nearest_direction_label(attrs.direction_degrees)
            options = [lab for lab in DIRECTION_LABELS if lab != start_label]
            updates["end_direction_label"] = str(srng.child("end-dir-fallback").choice(options))
        if updates:
            sources.append(replace(attrs, **updates))
        else:
            sources.append(attrs)
    return AttributeRecord(scene_size_label=size, sources=tuple(sources),
                           flags=record.flags)


def sample_scene(
    record: AttributeRecord,
    rng: SeededRng,
    duration: float = 10.0,
    sample_rate: int = 16000,
) -> SceneSpec:
    """Draw a full SceneSpec from an attribute record.

    Substreams: "room" for the room draw, "mic" for the array, "source{i}"
    per source, so adding a source never perturbs earlier geometry. Labels
    left unspecified by the record are resolved with resolve_attributes
    first (same rng, so pre-resolving externally changes nothing).
    """
    record = resolve_attributes(record, rng)
    room = sample_room(record.scene_size_label, rng.child("room"))
    mic = sample_mic_array(room.dims, rng.child("mic"), base_size=room.base_size)

    sources = []
    for i, attrs in enumerate(record.sources):
        srng = rng.child(f"source{i}")
        direction = attrs.direction_degrees
        if direction is None:
            direction = attrs.direction_label
        placement = sample_source_placement(direction, attrs.distance_label,
                                            room.dims, mic, srng)
        end_direction = attrs.end_direction_degrees
        if end_direction is None:
            end_direction = attrs.end_direction_label
        sources.append(
            build_trajectory(
                placement, attrs.movement, attrs.speed_label, duration, srng,
                room.dims, mic, distance_label=attrs.distance_label,
                end_direction=end_direction,
                end_distance_label=attrs.end_distance_label, audio_ref=attrs.event,
            )
        )

    return SceneSpec(
        room_dims=room.dims, rt60=room.rt60, mic_array=mic,
        sources=tuple(sources), duration=duration, sample_rate=sample_rate,
    )
