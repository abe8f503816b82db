"""Bidirectional translation between spatial captions and attribute records.

The parser is deterministic and total: any text yields either an
AttributeRecord or a CaptionParseError. A pluggable HTTP client can delegate
attribute induction to an external chat-completion endpoint; every failure
degrades to the rule-based parser.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .scene import AttributeRecord, SourceAttributes

PROMPT_DIR = Path(__file__).parent / "prompts"


class CaptionParseError(ValueError):
    pass


@dataclass(frozen=True)
class CaptionClause:
    event: str
    direction_phrase: str
    movement_phrase: str


@dataclass(frozen=True)
class SpatialCaption:
    text: str
    clauses: tuple[CaptionClause, ...]


# ---------------------------------------------------------------------------
# Lexicon
# ---------------------------------------------------------------------------
# longest match first
_DIRECTION_WORDS = [
    ("front left", "front_left"),
    ("front-left", "front_left"),
    ("front right", "front_right"),
    ("front-right", "front_right"),
    ("directly in front", "front"),
    ("directly front", "front"),
    ("straight ahead", "front"),
    ("in front", "front"),
    ("ahead", "front"),
    ("center", "front"),
    ("centre", "front"),
    ("front", "front"),
    ("left", "left"),
    ("right", "right"),
]

_DISTANCE_WORDS = [
    ("far away", "far"),
    ("in the distance", "far"),
    ("distant", "far"),
    ("faraway", "far"),
    ("far", "far"),
    ("close by", "near"),
    ("up close", "near"),
    ("nearby", "near"),
    ("close", "near"),
    ("near", "near"),
    ("at a moderate distance", "moderate"),
    ("midway", "moderate"),
]

_SPEED_WORDS = [
    ("at a slow speed", "slow"),
    ("at a slow pace", "slow"),
    ("slowly", "slow"),
    ("gently", "slow"),
    ("at a moderate speed", "moderate"),
    ("at a moderate pace", "moderate"),
    ("moderately", "moderate"),
    ("at a fast speed", "fast"),
    ("at a fast pace", "fast"),
    ("quickly", "fast"),
    ("rapidly", "fast"),
    ("swiftly", "fast"),
    ("fast", "fast"),
    ("instantly", "instant"),
    ("suddenly", "instant"),
]

_SIZE_PATTERNS = [
    (r"\boutdoors?\b|\boutside\b|\bopen air\b|\bin the open\b", "outdoors"),
    (r"\blarge (?:space|room|hall|venue)\b|\bhuge (?:space|room|hall)\b|\bhall\b", "large"),
    (r"\bmoderately sized (?:space|room)\b|\bmedium[- ]sized (?:space|room)\b", "moderate"),
    (r"\bsmall (?:space|room)\b|\btiny (?:space|room)\b", "small"),
]

_ANGLE_RE = re.compile(
    r"(\d+(?:\.\d+)?)\s*(?:degrees?|deg\b|°)"
    r"(?:\s+(?:to|toward|towards)\s+the\s+(front left|front right|left|right))?",
    re.IGNORECASE,
)

# direction mention with its introducing preposition, for event-boundary cuts
_DIR_CONTEXT_RE = re.compile(
    r"\b(?:on|at|to|toward|towards|from|in)\s+(?:the\s+)?"
    r"(?:front[- ]left|front[- ]right|front|left|right|centre|center)\b"
    r"|\bdirectly in front\b|\bstraight ahead\b|\bin front\b",
    re.IGNORECASE,
)

_FROM_TO_RE = re.compile(
    r"\bfrom\s+(?:the\s+)?(?P<src>.+?)\s+to\s+(?:the\s+)?(?P<dst>.+?)(?=\s+at\s+a\b"
    r"|\s+slowly\b|\s+moderately\b|\s+quickly\b|\s+gently\b|\s+fast\b|\s+rapidly\b"
    r"|\s+swiftly\b|[,.;]|$)",
    re.IGNORECASE,
)

_TRAILING_VERB_RE = re.compile(
    r"\s+(?:moves?|moving|moved|travels?|travelling|traveling|passes?|passing"
    r"|pans?|drifts?|drifting|glides?|gliding|goes|going|comes?|coming|is|are"
    r"|sounds?|heard|noticed)\s*$",
    re.IGNORECASE,
)

_INSTANT_SPLIT_RE = re.compile(r",?\s+then\s+another\s+", re.IGNORECASE)

# strong clause connectors; "then" only when not the instant idiom
_STRONG_SPLIT_RE = re.compile(r",?\s+while\s+|,?\s+as\s+|,?\s+then\s+(?!another\b)", re.IGNORECASE)
_AND_SPLIT_RE = re.compile(r",?\s+and\s+", re.IGNORECASE)


def _find_word(phrase: str, table) -> str | None:
    low = phrase.lower()
    for word, label in table:
        if re.search(r"(?<![\w-])" + re.escape(word) + r"(?![\w-])", low):
            return label
    return None


def _resolve_direction_phrase(phrase: str):
    """(label, degrees, distance_label) from a direction sub-phrase."""
    angle = _ANGLE_RE.search(phrase)
    degrees = None
    label = None
    if angle:
        val = float(angle.group(1))
        anchor = (angle.group(2) or "").lower()
        if anchor in ("left", "front left"):
            degrees = min(90.0 + val, 180.0)
        elif anchor in ("right", "front right"):
            degrees = max(90.0 - val, 0.0)
        elif 0.0 <= val <= 180.0:
            degrees = val
    if degrees is None:
        label = _find_word(phrase, _DIRECTION_WORDS)
    distance = _find_word(phrase, _DISTANCE_WORDS)
    return label, degrees, distance


def _extract_scene_size(text: str):
    for pattern, label in _SIZE_PATTERNS:
        m = re.search(pattern, text, re.IGNORECASE)
        if m:
            cleaned = (text[: m.start()] + text[m.end():]).strip(" ,.")
            cleaned = re.sub(r",?\s+in an?\s*[,.]?\s*$", "", cleaned)
            return label, cleaned
    return None, text


def _has_direction_evidence(text: str) -> bool:
    return bool(_DIR_CONTEXT_RE.search(text) or _ANGLE_RE.search(text))


def _split_clauses(text: str) -> list[str]:
    parts = []
    for chunk in _STRONG_SPLIT_RE.split(text):
        chunk = chunk.strip(" ,.;")
        if not chunk:
            continue
        # split on "and" only when both halves carry their own direction
        pieces = _AND_SPLIT_RE.split(chunk)
        merged = [pieces[0]]
        for piece in pieces[1:]:
            if _has_direction_evidence(merged[-1]) and _has_direction_evidence(piece):
                merged.append(piece)
            else:
                merged[-1] = merged[-1] + " and " + piece
        parts.extend(p.strip(" ,.;") for p in merged if p.strip(" ,.;"))
    return parts


def _event_from_clause(clause: str, cut: int | None, cut_end: int | None = None) -> str:
    event = (clause if cut is None else clause[:cut]).strip(" ,.;")
    while True:
        stripped = _TRAILING_VERB_RE.sub("", event)
        stripped = re.sub(r"\s+(?:slowly|gently|moderately|quickly|rapidly|swiftly|fast"
                          r"|instantly|suddenly)\s*$", "", stripped, flags=re.IGNORECASE)
        stripped = re.sub(r"(?:^|\s+)(?:at|on|in|to|toward|towards|from)(?:\s+the)?\s*$",
                          "", stripped, flags=re.IGNORECASE)
        if stripped == event:
            break
        event = stripped.strip(" ,.;")
    event = event.strip(" ,.;")
    if not event and cut_end is not None:
        # direction-led clause ("On the left, a dog barks"): take the remainder
        event = clause[cut_end:].strip(" ,.;")
    return event


def _parse_clause(clause: str):
    """One clause -> (SourceAttributes, CaptionClause)."""
    flags: list[str] = []

    instant_parts = _INSTANT_SPLIT_RE.split(clause, maxsplit=1)
    if len(instant_parts) == 2:
        head, tail = instant_parts
        h_label, h_deg, h_dist = _resolve_direction_phrase(head)
        t_label, t_deg, t_dist = _resolve_direction_phrase(tail)
        cut_m = _DIR_CONTEXT_RE.search(head) or _ANGLE_RE.search(head)
        event = _event_from_clause(head, cut_m.start() if cut_m else None,
                                   cut_m.end() if cut_m else None)
        if h_label is None and h_deg is None:
            flags.append("direction_unspecified")
        attrs = SourceAttributes(
            event=event, direction_label=h_label, direction_degrees=h_deg,
            distance_label=h_dist, movement="instant", speed_label="instant",
            end_direction_label=t_label, end_direction_degrees=t_deg,
            end_distance_label=t_dist, flags=tuple(flags),
        )
        return attrs, CaptionClause(event=event, direction_phrase=head.strip(),
                                    movement_phrase="then another " + tail.strip())

    move = _FROM_TO_RE.search(clause)
    if move:
        s_label, s_deg, s_dist = _resolve_direction_phrase(move.group("src"))
        d_label, d_deg, d_dist = _resolve_direction_phrase(move.group("dst"))
        if (s_label is not None or s_deg is not None) and (d_label is not None or d_deg is not None):
            speed = _find_word(clause, _SPEED_WORDS)
            if speed == "instant":
                movement, speed = "instant", "instant"
            else:
                movement = "moving"
                if speed is None:
                    speed = "moderate"
                    flags.append("speed_defaulted")
            cut = move.start()
            ctx = _DIR_CONTEXT_RE.search(clause)
            if ctx and ctx.start() < cut:
                cut = ctx.start()
            event = _event_from_clause(clause, cut, move.end())
            attrs = SourceAttributes(
                event=event, direction_label=s_label, direction_degrees=s_deg,
                distance_label=s_dist, movement=movement, speed_label=speed,
                end_direction_label=d_label, end_direction_degrees=d_deg,
                end_distance_label=d_dist, flags=tuple(flags),
            )
            return attrs, CaptionClause(event=event, direction_phrase=move.group("src"),
                                        movement_phrase=move.group(0))

    # still source
    label, degrees, distance = _resolve_direction_phrase(clause)
    cut_m = _DIR_CONTEXT_RE.search(clause) or _ANGLE_RE.search(clause)
    # distance-only tails ("..., far away") should not leak into the event
    if cut_m is None:
        for word, _ in _DISTANCE_WORDS:
            m = re.search(r",\s*" + re.escape(word), clause, re.IGNORECASE)
            if m:
                cut_m = m
                break
    event = _event_from_clause(clause, cut_m.start() if cut_m else None,
                               cut_m.end() if cut_m else None)
    if label is None and degrees is None:
        flags.append("direction_unspecified")
    attrs = SourceAttributes(
        event=event, direction_label=label, direction_degrees=degrees,
        distance_label=distance, movement="still", flags=tuple(flags),
    )
    dir_phrase = clause[cut_m.start():].strip(" ,.;") if cut_m else ""
    return attrs, CaptionClause(event=event, direction_phrase=dir_phrase, movement_phrase="")


def parse_caption(text: str) -> AttributeRecord:
    record, _ = parse_caption_detailed(text)
    return record


def parse_caption_detailed(text: str):
    """Parse a caption into (AttributeRecord, SpatialCaption).

    Raises CaptionParseError when the text is empty or no clause yields a
    sound-event phrase.
    """
    if not isinstance(text, str) or not text.strip():
        raise CaptionParseError(f"no sound event found in caption: {text!r}")
    size_label, body = _extract_scene_size(text.strip())
    clauses = _split_clauses(body)
    if not clauses:
        raise CaptionParseError(f"no sound event found in caption: {text!r}")

    sources, parsed_clauses = [], []
    for clause in clauses:
        attrs, pc = _parse_clause(clause)
        if attrs.event:
            sources.append(attrs)
            parsed_clauses.append(pc)
    if not sources:
        raise CaptionParseError(f"no sound event found in caption: {text!r}")
    record = AttributeRecord(scene_size_label=size_label, sources=tuple(sources))
    return record, SpatialCaption(text=text, clauses=tuple(parsed_clauses))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------
_DIR_PHRASE = {
    "left": "on the left",
    "front_left": "on the front left",
    "front": "directly in front",
    "front_right": "on the front right",
    "right": "on the right",
}
_DIR_BARE = {
    "left": "left",
    "front_left": "front left",
    "front": "directly in front",
    "front_right": "front right",
    "right": "right",
}
_DIST_PHRASE = {"far": "far away", "near": "close by", "moderate": "at a moderate distance"}
_SPEED_PHRASE = {"slow": "slowly", "moderate": "at a moderate speed", "fast": "quickly"}
_SIZE_PHRASE = {
    "outdoors": "outdoors",
    "large": "in a large space",
    "moderate": "in a moderately sized space",
    "small": "in a small space",
}
_ARTICLE_RE = re.compile(r"^(?:a|an|the)\s+", re.IGNORECASE)


def _direction_text(label, degrees, bare: bool) -> str:
    if degrees is not None:
        return f"at {degrees:g} degrees"
    table = _DIR_BARE if bare else _DIR_PHRASE
    return table[label]


def _endpoint_text(label, degrees, distance) -> str:
    base = f"{degrees:g} degrees" if degrees is not None else _DIR_BARE[label]
    if distance:
        return f"{base} ({_DIST_PHRASE[distance]})"
    return base


def generate_caption(record: AttributeRecord, event_phrases: list[str] | None = None) -> str:
    """Render an attribute record as a concise spatial caption.

    The output uses only lexicon phrasing, so it round-trips through
    parse_caption to the same labels.
    """
    events = event_phrases or [s.event for s in record.sources]
    if len(events) != len(record.sources):
        raise CaptionParseError("one event phrase required per source")
    if any(not e for e in events):
        raise CaptionParseError("empty event phrase")

    parts = []
    single = len(record.sources) == 1
    for attrs, event in zip(record.sources, events):
        if attrs.movement == "still":
            if attrs.direction_degrees is not None:
                phrase = f"{event} {_direction_text(None, attrs.direction_degrees, True)}"
            elif single and attrs.direction_label in ("left", "right"):
                phrase = f"{event} on the {attrs.direction_label} side of the scene"
            else:
                phrase = f"{event} {_DIR_PHRASE[attrs.direction_label]}"
            if attrs.distance_label:
                phrase += f", {_DIST_PHRASE[attrs.distance_label]}"
        elif attrs.movement == "instant":
            start = _endpoint_text(attrs.direction_label, attrs.direction_degrees,
                                   attrs.distance_label)
            end = _endpoint_text(attrs.end_direction_label, attrs.end_direction_degrees,
                                 attrs.end_distance_label)
            repeat = _ARTICLE_RE.sub("", event)
            phrase = f"{event} at {start}, then another {repeat} at {end}"
        else:
            start = _endpoint_text(attrs.direction_label, attrs.direction_degrees,
                                   attrs.distance_label)
            end = _endpoint_text(attrs.end_direction_label, attrs.end_direction_degrees,
                                 attrs.end_distance_label)
            phrase = f"{event} moves from {start} to {end} {_SPEED_PHRASE[attrs.speed_label]}"
        parts.append(phrase)

    connectors = [", while ", ", as ", " and "]
    text = parts[0]
    for i, part in enumerate(parts[1:]):
        text += connectors[i % len(connectors)] + part
    if record.scene_size_label:
        text += f", {_SIZE_PHRASE[record.scene_size_label]}"
    text = text[0].upper() + text[1:] + "."
    return text


# ---------------------------------------------------------------------------
# External LLM client
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LlmClientConfig:
    endpoint: str
    model: str = "gpt-4"
    prompt_template: str = "caption_attributes_v1"
    timeout_s: float = 30.0

    def __post_init__(self):
        if not re.match(r"^https?://", self.endpoint):
            raise ValueError(f"malformed endpoint {self.endpoint!r}")
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")


_SIZE_FROM_CODE = {1: "outdoors", 2: "large", 3: "moderate", 4: "small"}
_DIR_FROM_CODE = {1: "left", 2: "front_left", 3: "front", 4: "front_right", 5: "right"}
_DIST_FROM_CODE = {1: "far", 2: "moderate", 3: "near"}
_SPEED_FROM_CODE = {1: "slow", 2: "moderate", 3: "fast", 4: "instant"}


def _direction_from_value(value):
    if value is None:
        return None, None
    v = float(value)
    if v in _DIR_FROM_CODE and float(v).is_integer():
        return _DIR_FROM_CODE[int(v)], None
    # decimal scale: 1 = left (180 deg) .. 5 = right (0 deg), linear
    degrees = float(min(max((5.0 - v) * 45.0, 0.0), 180.0))
    return None, degrees


def record_from_llm_json(data: dict) -> AttributeRecord:
    """Translate the endpoint's JSON schema into an AttributeRecord."""
    if int(data.get("sound", 1)) == 0:
        raise CaptionParseError("endpoint judged the scene silent")
    size = data.get("size")
    size_label = _SIZE_FROM_CODE.get(int(size)) if size is not None else None
    objects = data.get("objects") or {}
    if not objects:
        raise CaptionParseError("endpoint returned no sounding objects")
    sources = []
    for name, attrs in objects.items():
        label, degrees = _direction_from_value(attrs.get("init_direction"))
        moving = int(attrs.get("moving", 0)) == 1
        speed = _SPEED_FROM_CODE.get(int(attrs["speed"])) if attrs.get("speed") else None
        end_label, end_degrees = _direction_from_value(attrs.get("end_direction"))
        if moving and speed is None:
            speed = "moderate"
        movement = "still"
        if moving:
            movement = "instant" if speed == "instant" else "moving"
        dist = attrs.get("init_dis")
        end_dist = attrs.get("end_dis")
        sources.append(
            SourceAttributes(
                event=str(name),
                direction_label=label, direction_degrees=degrees,
                distance_label=_DIST_FROM_CODE.get(int(dist)) if dist else None,
                movement=movement, speed_label=speed if movement != "still" else None,
                end_direction_label=end_label if movement != "still" else None,
                end_direction_degrees=end_degrees if movement != "still" else None,
                end_distance_label=_DIST_FROM_CODE.get(int(end_dist))
                if (end_dist and movement != "still") else None,
            )
        )
    return AttributeRecord(scene_size_label=size_label, sources=tuple(sources))


def load_prompt_template(name: str) -> str:
    path = PROMPT_DIR / f"{name}.txt"
    return path.read_text(encoding="utf-8")


def _fallback_record(text_or_meta, reason: str) -> AttributeRecord:
    if isinstance(text_or_meta, dict):
        caption = text_or_meta.get("caption", "")
        if caption:
            rec = parse_caption(caption)
        else:
            # image metadata: per-object horizontal position x in [0, 1]
            # maps linearly to azimuth, x = 0 at the left edge
            sources = tuple(
                SourceAttributes(event=str(name), direction_degrees=180.0 * (1.0 - float(x)))
                for name, (x, _y) in text_or_meta.get("objects", [])
            )
            if not sources:
                raise CaptionParseError("image metadata lists no objects")
            rec = AttributeRecord(scene_size_label=None, sources=sources)
    else:
        rec = parse_caption(text_or_meta)
    return AttributeRecord(
        scene_size_label=rec.scene_size_label,
        sources=rec.sources,
        flags=tuple(rec.flags) + ("fallback", f"fallback_reason:{reason}"),
    )


def induce_via_llm(text_or_meta, config: LlmClientConfig) -> AttributeRecord:
    """Ask the configured endpoint for attributes; degrade to the parser.

    Network errors, timeouts, non-JSON payloads, and schema violations all
    fall back to parse_caption with the record flagged "fallback". Needs
    ``requests`` (the ``llm`` extra).
    """
    import requests

    template = load_prompt_template(config.prompt_template)
    if isinstance(text_or_meta, dict):
        user_input = json.dumps(text_or_meta, sort_keys=True)
    else:
        user_input = str(text_or_meta)
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": template.replace("{input}", user_input)}],
    }
    try:
        resp = requests.post(config.endpoint, json=payload, timeout=config.timeout_s)
        resp.raise_for_status()
        body = resp.json()
        content = body["choices"][0]["message"]["content"]
        start = content.index("{")
        data = json.loads(content[start:])
        return record_from_llm_json(data)
    except Exception as exc:  # any failure degrades to the deterministic parser
        return _fallback_record(text_or_meta, type(exc).__name__)
