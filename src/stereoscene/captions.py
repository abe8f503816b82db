"""Bidirectional translation between spatial captions and attribute records.

The parser is deterministic and total: any text yields either an
AttributeRecord or a CaptionParseError.
"""

from __future__ import annotations

import re
from decimal import Decimal

from .scene import AttributeRecord, SourceAttributes


class CaptionParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Lexicon
# ---------------------------------------------------------------------------
# label -> phrases, scanned in this order (longest match first); each label's
# first phrase is the one generate_caption writes
_DIRECTION_WORDS = {
    "front_left": ("front left", "front-left"),
    "front_right": ("front right", "front-right"),
    "front": ("directly in front", "directly front", "straight ahead", "in front", "ahead",
              "center", "centre", "front"),
    "left": ("left",),
    "right": ("right",),
}

_DISTANCE_WORDS = {
    "far": ("far away", "in the distance", "distant", "faraway", "far"),
    "near": ("close by", "up close", "nearby", "close", "near"),
    "moderate": ("at a moderate distance", "midway"),
}

_SPEED_WORDS = {
    "slow": ("slowly", "at a slow speed", "at a slow pace", "gently"),
    "moderate": ("at a moderate speed", "at a moderate pace", "moderately"),
    "fast": ("quickly", "at a fast speed", "at a fast pace", "rapidly", "swiftly", "fast"),
    "instant": ("instantly", "suddenly"),
}

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


def _phrases(table) -> list[str]:
    return [phrase for phrases in table.values() for phrase in phrases]


def _alternation(phrases) -> str:
    return "|".join(map(re.escape, phrases))


_DIRECTION_PHRASES = _phrases(_DIRECTION_WORDS)
# a multi-word phrase whose first word names no direction ("straight ahead") is
# a cue on its own; any other phrase needs a preposition ("on the left")
_BARE_CUES = [p for p in _DIRECTION_PHRASES
              if " " in p and p.split()[0] not in _DIRECTION_PHRASES]
_ADVERBS = _alternation(p for p in _phrases(_SPEED_WORDS) if " " not in p)

# direction mention with its introducing preposition, for event-boundary cuts
_DIR_CONTEXT_RE = re.compile(
    r"(?<![\w-])(?:(?:on|at|to|toward|towards|from|in)\s+(?:the\s+)?(?:"
    + _alternation(p for p in _DIRECTION_PHRASES if p not in _BARE_CUES)
    + ")|" + _alternation(_BARE_CUES) + r")(?![\w-])",
    re.IGNORECASE,
)

_FROM_TO_RE = re.compile(
    r"\bfrom\s+(?:the\s+)?(?P<src>.+?)\s+to\s+(?:the\s+)?(?P<dst>.+?)(?=\s+at\s+a\b"
    r"|\s+(?:" + _ADVERBS + r")\b|[,.;]|$)",
    re.IGNORECASE,
)

# a verb, speed adverb or preposition that ends an event phrase
_TRAILING_RE = re.compile(
    r"\s+(?:moves?|moving|moved|travels?|travelling|traveling|passes?|passing"
    r"|pans?|drifts?|drifting|glides?|gliding|goes|going|comes?|coming|is|are"
    r"|sounds?|heard|noticed|" + _ADVERBS
    + r")\s*$|(?:^|\s+)(?:at|on|in|to|toward|towards|from)(?:\s+the)?\s*$",
    re.IGNORECASE,
)

_DIST_TAIL_RE = re.compile(r",\s*(?:" + _alternation(_phrases(_DISTANCE_WORDS)) + ")",
                           re.IGNORECASE)

_INSTANT_SPLIT_RE = re.compile(r",?\s+then\s+another\s+", re.IGNORECASE)

# strong clause connectors; "then" only when not the instant idiom
_STRONG_SPLIT_RE = re.compile(r",?\s+while\s+|,?\s+as\s+|,?\s+then\s+(?!another\b)", re.IGNORECASE)
_AND_SPLIT_RE = re.compile(r",?\s+and\s+", re.IGNORECASE)


def _find_word(phrase: str, table) -> str | None:
    low = phrase.lower()
    for label, words in table.items():
        if re.search(r"(?<![\w-])(?:" + _alternation(words) + r")(?![\w-])", low):
            return label
    return None


def _resolve_direction_phrase(phrase: str):
    """(label, degrees, distance_label) from a direction sub-phrase."""
    angle = _ANGLE_RE.search(phrase)
    degrees = None
    if angle:
        val = float(angle.group(1))
        anchor = (angle.group(2) or "").lower()
        if anchor in ("left", "front left"):
            degrees = min(90.0 + val, 180.0)
        elif anchor in ("right", "front right"):
            degrees = max(90.0 - val, 0.0)
        elif 0.0 <= val <= 180.0:
            degrees = val
    label = _find_word(phrase, _DIRECTION_WORDS) if degrees is None else None
    return label, degrees, _find_word(phrase, _DISTANCE_WORDS)


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


def _strip_trailing(text: str) -> str:
    """``text`` without the verbs, speed adverbs and prepositions that end it."""
    while (stripped := _TRAILING_RE.sub("", text.rstrip(" ,.;"))) != text:
        text = stripped
    return text


def _spatial_cut(phrase: str) -> tuple[int, int] | None:
    """Span of the cue that ends ``phrase``'s event: its first direction or
    angle mention, else a distance-only tail (", far away"); None if neither."""
    cues = [m for m in (_DIR_CONTEXT_RE.search(phrase), _ANGLE_RE.search(phrase)) if m]
    m = min(cues, key=lambda c: c.start()) if cues else _DIST_TAIL_RE.search(phrase)
    return m.span() if m else None


def _split_event(clause: str, cut: tuple[int, int] | None) -> tuple[str, str]:
    """(event, spatial phrase) of ``clause`` cut where ``cut`` starts; the words
    that end the event (verbs, adverbs) go with the phrase, a direction-led
    clause ("On the left, a dog barks") takes its event from after the cut,
    and without a cut the clause is all event."""
    if cut is None:
        return clause.strip(" ,.;"), ""
    head = _strip_trailing(clause[:cut[0]])
    if event := head.strip(" ,.;"):
        return event, clause[len(head):]
    rest = clause[cut[1]:]
    event = _strip_trailing(rest)
    return event.strip(" ,.;"), clause[:cut[1]] + rest[len(event):]


def _parse_clause(clause: str) -> SourceAttributes:
    """One clause -> its SourceAttributes."""
    flags: list[str] = []

    instant_parts = _INSTANT_SPLIT_RE.split(clause, maxsplit=1)
    if len(instant_parts) == 2:
        head, tail = instant_parts
        event, spatial = _split_event(head, _spatial_cut(head))
        h_label, h_deg, h_dist = _resolve_direction_phrase(spatial)
        t_label, t_deg, t_dist = _resolve_direction_phrase(
            _split_event(tail, _spatial_cut(tail))[1])
        if h_label is None and h_deg is None:
            flags.append("direction_unspecified")
        return SourceAttributes(
            event=event, direction_label=h_label, direction_degrees=h_deg,
            distance_label=h_dist, movement="instant", speed_label="instant",
            end_direction_label=t_label, end_direction_degrees=t_deg,
            end_distance_label=t_dist, flags=tuple(flags),
        )

    move = _FROM_TO_RE.search(clause)
    if move:
        s_label, s_deg, s_dist = _resolve_direction_phrase(move.group("src"))
        d_label, d_deg, d_dist = _resolve_direction_phrase(move.group("dst"))
        if (s_label is not None or s_deg is not None) and (d_label is not None or d_deg is not None):
            # a direction phrase before "from ... to" also ends the event
            cue = _spatial_cut(clause)
            start = min(move.start(), cue[0]) if cue else move.start()
            event, spatial = _split_event(clause, (start, move.end()))
            speed = _find_word(spatial, _SPEED_WORDS)
            movement = "instant" if speed == "instant" else "moving"
            if speed is None:
                speed = "moderate"
                flags.append("speed_defaulted")
            return SourceAttributes(
                event=event, direction_label=s_label, direction_degrees=s_deg,
                distance_label=s_dist, movement=movement, speed_label=speed,
                end_direction_label=d_label, end_direction_degrees=d_deg,
                end_distance_label=d_dist, flags=tuple(flags),
            )

    # still source
    event, spatial = _split_event(clause, _spatial_cut(clause))
    label, degrees, distance = _resolve_direction_phrase(spatial)
    if label is None and degrees is None:
        flags.append("direction_unspecified")
    return SourceAttributes(
        event=event, direction_label=label, direction_degrees=degrees,
        distance_label=distance, movement="still", flags=tuple(flags),
    )


def parse_caption(text: str) -> AttributeRecord:
    """Parse a caption into an AttributeRecord.

    Raises CaptionParseError when the text is empty or no clause yields a
    sound-event phrase.
    """
    if not isinstance(text, str) or not text.strip():
        raise CaptionParseError(f"no sound event found in caption: {text!r}")
    size_label, body = _extract_scene_size(text.strip())
    clauses = _split_clauses(body)
    if not clauses:
        raise CaptionParseError(f"no sound event found in caption: {text!r}")

    sources = tuple(attrs for attrs in map(_parse_clause, clauses) if attrs.event)
    if not sources:
        raise CaptionParseError(f"no sound event found in caption: {text!r}")
    return AttributeRecord(scene_size_label=size_label, sources=sources)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------
_SIZE_PHRASE = {
    "outdoors": "outdoors",
    "large": "in a large space",
    "moderate": "in a moderately sized space",
    "small": "in a small space",
}
_ARTICLE_RE = re.compile(r"^(?:a|an|the)\s+", re.IGNORECASE)


def _degrees_text(degrees: float) -> str:
    """``degrees`` as a caption writes it: six significant digits, no exponent."""
    return format(Decimal(f"{degrees:g}"), "f")


def _endpoint_text(label, degrees, distance) -> str:
    base = (f"{_degrees_text(degrees)} degrees" if degrees is not None
            else _DIRECTION_WORDS[label][0])
    if distance:
        return f"{base} ({_DISTANCE_WORDS[distance][0]})"
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
                phrase = f"{event} at {_degrees_text(attrs.direction_degrees)} degrees"
            elif single and attrs.direction_label in ("left", "right"):
                phrase = f"{event} on the {attrs.direction_label} side of the scene"
            else:
                words = _DIRECTION_WORDS[attrs.direction_label][0]
                phrase = f"{event} {words if words in _BARE_CUES else 'on the ' + words}"
            if attrs.distance_label:
                phrase += f", {_DISTANCE_WORDS[attrs.distance_label][0]}"
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
            phrase = f"{event} moves from {start} to {end} {_SPEED_WORDS[attrs.speed_label][0]}"
        parts.append(phrase)

    connectors = [", while ", ", as ", " and "]
    text = parts[0]
    for i, part in enumerate(parts[1:]):
        text += connectors[i % len(connectors)] + part
    if record.scene_size_label:
        text += f", {_SIZE_PHRASE[record.scene_size_label]}"
    text = text[0].upper() + text[1:] + "."
    return text


def caption_labels(record: AttributeRecord) -> tuple:
    """The labels a caption of ``record`` carries: the scene size and, per source,
    its direction, distance, movement, speed and end point, with angles written
    as generate_caption writes them."""
    def angle(degrees):
        return None if degrees is None else _degrees_text(degrees)

    return record.scene_size_label, tuple(
        (s.direction_label, angle(s.direction_degrees), s.distance_label, s.movement,
         s.speed_label, s.end_direction_label, angle(s.end_direction_degrees),
         s.end_distance_label) for s in record.sources)
