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

# a size phrase may also follow "in a", "in an" or "in the" ("in a large room")
_SIZE_WORDS = {
    "outdoors": ("outdoors", "outdoor", "outside", "open air", "in the open"),
    "large": ("in a large space", "large space", "large room", "large hall", "large venue",
              "huge space", "huge room", "huge hall", "hall"),
    "moderate": ("in a moderately sized space", "moderately sized space", "moderately sized room",
                 "medium-sized space", "medium-sized room", "medium sized space",
                 "medium sized room"),
    "small": ("in a small space", "small space", "small room", "tiny space", "tiny room"),
}


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

# "15 degrees to the front-left": the anchor's label gives the angle's side
_ANGLE_RE = re.compile(
    r"(\d+(?:\.\d+)?)\s*(?:degrees?|deg\b|°)(?:\s+(?:to|toward|towards)\s+the\s+("
    + _alternation(p for label in _DIRECTION_WORDS if label != "front"
                   for p in _DIRECTION_WORDS[label]) + "))?",
    re.IGNORECASE,
)

# direction mention with its introducing preposition, for event-boundary cuts
_DIR_CONTEXT_RE = re.compile(
    r"(?<![\w-])(?:(?:on|at|to|toward|towards|from|in)\s+(?:the\s+)?(?:"
    + _alternation(p for p in _DIRECTION_PHRASES if p not in _BARE_CUES)
    + ")|" + _alternation(_BARE_CUES) + r")(?![\w-])",
    re.IGNORECASE,
)

# a destination ends at a speed phrase or a clause mark, not at a decimal point
_FROM_TO_RE = re.compile(
    r"\bfrom\s+(?:the\s+)?(?P<src>.+?)\s+to\s+(?:the\s+)?(?P<dst>.+?)(?=\s+at\s+a\b"
    r"|\s+(?:" + _ADVERBS + r")\b|[,;]|\.(?!\d)|$)",
    re.IGNORECASE,
)

# a verb, speed adverb or preposition that ends an event phrase
_TRAILING_RE = re.compile(
    r"\s+(?:moves?|moving|moved|travels?|travelling|traveling|passes?|passing"
    r"|pans?|drifts?|drifting|glides?|gliding|goes|going|comes?|coming|is|are"
    r"|heard|noticed|" + _ADVERBS
    + r")\s*$|(?:^|\s+)(?:at|on|in|to|toward|towards|from)(?:\s+the)?\s*$",
    re.IGNORECASE,
)

_DIST_TAIL_RE = re.compile(r",\s*(?:" + _alternation(_phrases(_DISTANCE_WORDS)) + ")",
                           re.IGNORECASE)

# the scene size is the phrase that ends the caption or leads it before a comma
_SIZE = r"((?:in\s+(?:an?|the)\s+)?(?:" + _alternation(_phrases(_SIZE_WORDS)) + "))"
_SIZE_TAIL_RE = re.compile(r"(?:^|[\s,;])\s*" + _SIZE + r"[\s,.;!]*$", re.IGNORECASE)
_SIZE_HEAD_RE = re.compile(r"^\s*" + _SIZE + r"\s*,", re.IGNORECASE)

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


def _endpoint(phrase: str):
    """(label, degrees, distance_label) of one end of a source, read from the
    spatial phrase that names it; an angle wins over a direction word."""
    angle = _ANGLE_RE.search(phrase)
    degrees = None
    if angle:
        val = float(angle.group(1))
        side = angle.group(2) and _find_word(angle.group(2), _DIRECTION_WORDS)
        if side:
            degrees = min(90.0 + val, 180.0) if side.endswith("left") else max(90.0 - val, 0.0)
        elif 0.0 <= val <= 180.0:
            degrees = val
    label = _find_word(phrase, _DIRECTION_WORDS) if degrees is None else None
    return label, degrees, _find_word(phrase, _DISTANCE_WORDS)


def _scene_size(text: str):
    """(size label, ``text`` without its size phrase)."""
    if m := _SIZE_TAIL_RE.search(text) or _SIZE_HEAD_RE.search(text):
        return _find_word(m[1], _SIZE_WORDS), text[:m.start()] + text[m.end():]
    return None, text


def _has_direction_evidence(text: str) -> bool:
    return bool(_DIR_CONTEXT_RE.search(text) or _ANGLE_RE.search(text))


def _split_clauses(text: str) -> list[str]:
    parts = []
    for chunk in _STRONG_SPLIT_RE.split(text):
        # split on "and" only when both halves carry their own direction
        pieces = _AND_SPLIT_RE.split(chunk.strip(" ,.;"))
        merged = [pieces[0]]
        for piece in pieces[1:]:
            if _has_direction_evidence(merged[-1]) and _has_direction_evidence(piece):
                merged.append(piece)
            else:
                merged[-1] += " and " + piece
        parts.extend(p.strip(" ,.;") for p in merged if p.strip(" ,.;"))
    return parts


def _strip_trailing(text: str) -> str:
    """``text`` without the verbs, speed adverbs and prepositions that end it."""
    while (stripped := _TRAILING_RE.sub("", text.rstrip(" ,.;"))) != text:
        text = stripped
    return text


def _cues(phrase: str) -> list[tuple[int, int]]:
    """Spans of ``phrase``'s direction and angle cues in order, an angle's
    anchor ("to the left") being part of the angle; without either, the spans
    of its distance tails (", far away")."""
    angles = [m.span() for m in _ANGLE_RE.finditer(phrase)]
    cues = angles + [m.span() for m in _DIR_CONTEXT_RE.finditer(phrase)
                     if not any(a <= m.start() < b for a, b in angles)]
    return sorted(cues) or [m.span() for m in _DIST_TAIL_RE.finditer(phrase)]


def _split_event(clause: str, cues: list[tuple[int, int]]) -> tuple[str, str]:
    """(event, spatial phrase) of ``clause``: the event ends where the last of
    ``cues`` starts, and the words that end it (verbs, adverbs) go with the
    phrase. A clause led by its first cue ("On the left, a dog barks") takes
    its event from after that cue; without a cue the clause is all event."""
    if not cues:
        return clause.strip(" ,.;"), ""
    start, end = cues[0]
    if not _strip_trailing(clause[:start]).strip(" ,.;"):
        rest = clause[end:]
        event = _strip_trailing(rest)
        return event.strip(" ,.;"), clause[:end] + rest[len(event):]
    head = _strip_trailing(clause[:cues[-1][0]])
    return head.strip(" ,.;"), clause[len(head):]


def _last_move(clause: str):
    """The last "from ... to ..." of ``clause`` whose two endpoints resolve,
    and those endpoints; None if there is none."""
    for at in reversed([m.start() for m in re.finditer(r"\bfrom\s", clause, re.IGNORECASE)]):
        if move := _FROM_TO_RE.match(clause, at):
            src, dst = _endpoint(move["src"]), _endpoint(move["dst"])
            if src[:2] != (None, None) and dst[:2] != (None, None):
                return move, src, dst
    return None


def _parse_clause(clause: str) -> SourceAttributes:
    """One clause -> its SourceAttributes."""
    flags: list[str] = []
    end = (None, None, None)
    speed = None
    head, *tail = _INSTANT_SPLIT_RE.split(clause, maxsplit=1)
    if tail:
        event, spatial = _split_event(head, _cues(head))
        start = _endpoint(spatial)
        end = _endpoint(_split_event(tail[0], _cues(tail[0]))[1])
        movement = speed = "instant"
    elif found := _last_move(clause):
        move, start, end = found
        # a cue right before "from ... to" also ends the event
        head = _strip_trailing(clause[:move.start()])
        cut = next((a for a, b in _cues(head) if b == len(head)), move.start())
        event, spatial = _split_event(clause, [(cut, move.end())])
        speed = _find_word(spatial, _SPEED_WORDS)
        movement = "instant" if speed == "instant" else "moving"
        if speed is None:
            speed = "moderate"
            flags.append("speed_defaulted")
    else:
        event, spatial = _split_event(clause, _cues(clause))
        start = _endpoint(spatial)
        movement = "still"
    if start[:2] == (None, None):
        flags.append("direction_unspecified")
    return SourceAttributes(
        event=event, direction_label=start[0], direction_degrees=start[1],
        distance_label=start[2], movement=movement, speed_label=speed,
        end_direction_label=end[0], end_direction_degrees=end[1],
        end_distance_label=end[2], flags=tuple(flags),
    )


def parse_caption(text: str) -> AttributeRecord:
    """Parse a caption into an AttributeRecord.

    Raises CaptionParseError when the text is empty or no clause yields a
    sound-event phrase.
    """
    size_label, body = _scene_size(text.strip()) if isinstance(text, str) else (None, "")
    sources = tuple(attrs for attrs in map(_parse_clause, _split_clauses(body)) if attrs.event)
    if not sources:
        raise CaptionParseError(f"no sound event found in caption: {text!r}")
    return AttributeRecord(scene_size_label=size_label, sources=sources)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------
_ARTICLE_RE = re.compile(r"^(?:a|an|the)\s+", re.IGNORECASE)


def _degrees_text(degrees: float) -> str:
    """``degrees`` as a caption writes it: six significant digits, no exponent."""
    return format(Decimal(f"{degrees:g}"), "f")


def _endpoint_text(label, degrees, distance) -> str:
    base = (f"{_degrees_text(degrees)} degrees" if degrees is not None
            else _DIRECTION_WORDS[label][0])
    return f"{base} ({_DISTANCE_WORDS[distance][0]})" if distance else base


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
        else:
            start = _endpoint_text(attrs.direction_label, attrs.direction_degrees,
                                   attrs.distance_label)
            end = _endpoint_text(attrs.end_direction_label, attrs.end_direction_degrees,
                                 attrs.end_distance_label)
            if attrs.movement == "instant":
                phrase = f"{event} at {start}, then another {_ARTICLE_RE.sub('', event)} at {end}"
            else:
                phrase = f"{event} moves from {start} to {end} {_SPEED_WORDS[attrs.speed_label][0]}"
        parts.append(phrase)

    connectors = [", while ", ", as ", " and "]
    text = parts[0]
    for i, part in enumerate(parts[1:]):
        text += connectors[i % len(connectors)] + part
    if record.scene_size_label:
        text += f", {_SIZE_WORDS[record.scene_size_label][0]}"
    return text[0].upper() + text[1:] + "."


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


_LABEL_NAMES = ("direction", "angle", "distance", "movement", "speed", "end direction",
                "end angle", "end distance")


def label_difference(parsed: AttributeRecord, stored: AttributeRecord) -> str | None:
    """The first label whose caption_labels differ, as "<label>: parsed X,
    stored Y"; None if they all agree."""
    (p_size, p_sources), (s_size, s_sources) = caption_labels(parsed), caption_labels(stored)
    pairs = [("scene size", p_size, s_size), ("source count", len(p_sources), len(s_sources))]
    pairs += [(f"source {i} {name}", p, s) for i, sources in enumerate(zip(p_sources, s_sources), 1)
              for name, p, s in zip(_LABEL_NAMES, *sources)]
    return next((f"{name}: parsed {p}, stored {s}" for name, p, s in pairs if p != s), None)
