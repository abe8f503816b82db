import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stereoscene import captions
from stereoscene.captions import CaptionParseError, generate_caption, parse_caption
from stereoscene.rng import SeededRng
from stereoscene.scene import (
    AttributeRecord,
    DIRECTION_LABELS,
    DISTANCE_LABELS,
    SIZE_LABELS,
    SourceAttributes,
)


# ---------------------------------------------------------------------------
# parsing: worked examples
# ---------------------------------------------------------------------------
def test_two_source_merged_caption():
    rec = parse_caption(
        "A dog barks in front while a guitar strums from right to front left moderately."
    )
    assert len(rec.sources) == 2
    dog, guitar = rec.sources
    assert dog.direction_label == "front" and dog.movement == "still"
    assert guitar.direction_label == "right" and guitar.movement == "moving"
    assert guitar.end_direction_label == "front_left"
    assert guitar.speed_label == "moderate"


def test_sequential_sources_become_instant():
    rec = parse_caption("a dog barks at left, then another dog barks at right")
    assert len(rec.sources) == 1
    src = rec.sources[0]
    assert src.movement == "instant"
    assert src.direction_label == "left"
    assert src.end_direction_label == "right"
    assert src.speed_label == "instant"


def test_single_still_side_of_scene():
    rec = parse_caption("A cell phone is vibrating on the right side of the scene.")
    assert len(rec.sources) == 1
    assert rec.sources[0].direction_label == "right"
    assert rec.sources[0].movement == "still"


def test_moving_with_speed_phrase():
    rec = parse_caption("Trumpet sound moves from right to front left at a moderate speed.")
    src = rec.sources[0]
    assert (src.direction_label, src.end_direction_label) == ("right", "front_left")
    assert src.speed_label == "moderate"


def test_double_still_with_connector():
    rec = parse_caption(
        "The printer is printing on the right of the scene, "
        "while the person is playing the didgeridoo directly in front."
    )
    assert [s.direction_label for s in rec.sources] == ["right", "front"]
    assert all(s.movement == "still" for s in rec.sources)


def test_mixed_caption_with_gentle_motion():
    rec = parse_caption(
        "An engine slowly dying down is noticed on the left, as children's laughter "
        "and whistling gently move from directly in front to the left."
    )
    assert len(rec.sources) == 2
    engine, kids = rec.sources
    assert engine.direction_label == "left" and engine.movement == "still"
    assert kids.direction_label == "front" and kids.end_direction_label == "left"
    assert kids.speed_label == "slow"  # "gently"


def test_explicit_angle_parsing():
    rec = parse_caption("A dog barks at 15 degrees to the front left.")
    assert rec.sources[0].direction_degrees == 105.0  # 90 + 15 toward the left
    rec = parse_caption("A dog barks at 150 degrees.")
    assert rec.sources[0].direction_degrees == 150.0
    src = parse_caption("A dog barks 30 degrees to the right.").sources[0]
    assert (src.event, src.direction_degrees, src.direction_label) == ("A dog barks", 60.0, None)


def test_every_side_anchor_signs_its_angle():
    # "front-left" used to be no anchor, so its angle read 15 degrees
    for label, phrases in captions._DIRECTION_WORDS.items():
        for phrase in phrases if label != "front" else ():
            src = parse_caption(f"A dog barks at 15 degrees to the {phrase}.").sources[0]
            expected = 105.0 if label.endswith("left") else 75.0
            assert (src.event, src.direction_degrees, src.direction_label) == (
                "A dog barks", expected, None), phrase


def test_direction_led_clauses():
    rec = parse_caption("On the left, a dog barks.")
    assert rec.sources[0].event == "a dog barks"
    assert rec.sources[0].direction_label == "left"
    rec = parse_caption("At 45 degrees, rain falls.")
    assert rec.sources[0].event == "rain falls"
    assert rec.sources[0].direction_degrees == 45.0


def test_unspecified_direction_flagged():
    rec = parse_caption("A dog barks.")
    assert rec.sources[0].direction_label is None
    assert "direction_unspecified" in rec.sources[0].flags
    src = parse_caption("A bell rings, far away.").sources[0]
    assert (src.event, src.distance_label, src.direction_label) == ("A bell rings", "far", None)
    assert src.flags == ("direction_unspecified",)
    src = parse_caption("A knock, then another knock at the left.").sources[0]
    assert (src.event, src.movement, src.direction_label) == ("A knock", "instant", None)
    assert src.end_direction_label == "left"
    assert src.flags == ("direction_unspecified",)


def test_moving_without_adverb_defaults_moderate():
    rec = parse_caption("A dog barks from front right to left.")
    src = rec.sources[0]
    assert src.speed_label == "moderate"
    assert "speed_defaulted" in src.flags


def test_from_to_instantly_is_instant():
    for text in ("A bird flies from left to right instantly.",
                 "A car moves from left to right suddenly."):
        src = parse_caption(text).sources[0]
        assert (src.movement, src.speed_label) == ("instant", "instant"), text
        assert (src.direction_label, src.end_direction_label) == ("left", "right"), text


def test_from_to_destination_keeps_its_decimal_angle():
    for text, start in (("A siren moves from left (far away) to 20.5 degrees quickly, outdoors.",
                         ("left", None, "far")),
                        ("A siren moves from 10 degrees to 20.5 degrees quickly.",
                         (None, 10.0, None))):
        src = parse_caption(text).sources[0]
        assert (src.event, src.movement, src.speed_label) == ("A siren", "moving", "fast"), text
        assert (src.direction_label, src.direction_degrees, src.distance_label) == start, text
        assert (src.end_direction_label, src.end_direction_degrees) == (None, 20.5), text


def test_sound_stays_in_the_event():
    assert parse_caption("A trumpet sound on the left, outdoors.").sources[0].event == \
        "A trumpet sound"
    rec = AttributeRecord("outdoors", (SourceAttributes(event="a noise sound",
                                                        direction_label="left"),))
    assert parse_caption(generate_caption(rec)).sources[0].event == "A noise sound"


def test_event_ends_at_the_last_cue():
    src = parse_caption("Waves in the front yard on the right side of the scene.").sources[0]
    assert (src.event, src.direction_label) == ("Waves in the front yard", "right")
    src = parse_caption("Waves in the front yard at left, then another waves in the front yard "
                        "at right.").sources[0]
    assert (src.event, src.direction_label, src.end_direction_label) == (
        "Waves in the front yard", "left", "right")
    src = parse_caption("Music from a radio moves from left to right quickly.").sources[0]
    assert (src.event, src.movement, src.speed_label) == ("Music from a radio", "moving", "fast")
    assert (src.direction_label, src.end_direction_label) == ("left", "right")


def test_direction_phrase_before_from_to_ends_the_event():
    src = parse_caption("A car on the left moves from front left to right slowly.").sources[0]
    assert (src.event, src.movement, src.speed_label) == ("A car", "moving", "slow")
    assert (src.direction_label, src.end_direction_label) == ("front_left", "right")


# ---------------------------------------------------------------------------
# the lexicon: every phrase is read, the first one is written
# ---------------------------------------------------------------------------
def test_every_direction_phrase_parses_to_its_label():
    # a stand-alone cue ("straight ahead") is read bare, any other phrase
    # after a preposition
    for label, phrases in captions._DIRECTION_WORDS.items():
        for phrase in phrases:
            text = (f"A dog barks {phrase}." if phrase in captions._BARE_CUES
                    else f"A dog barks on the {phrase}.")
            src = parse_caption(text).sources[0]
            assert (src.event, src.direction_label) == ("A dog barks", label), text


def test_every_distance_and_speed_phrase_parses_to_its_label():
    for label, phrases in captions._DISTANCE_WORDS.items():
        for phrase in phrases:
            text = f"A dog barks on the left, {phrase}."
            src = parse_caption(text).sources[0]
            assert (src.event, src.direction_label, src.distance_label) == (
                "A dog barks", "left", label), text
    for label, phrases in captions._SPEED_WORDS.items():
        for phrase in phrases:
            text = f"A car moves from left to right {phrase}."
            src = parse_caption(text).sources[0]
            assert (src.event, src.end_direction_label, src.speed_label) == (
                "A car", "right", label), text


def test_generator_writes_each_labels_first_phrase():
    def caption(**kw):
        return generate_caption(AttributeRecord(None, (SourceAttributes(event="a car", **kw),)))

    for label, phrases in captions._DIRECTION_WORDS.items():
        assert caption(direction_label=label, movement="moving", speed_label="slow",
                       end_direction_label=label) == \
            f"A car moves from {phrases[0]} to {phrases[0]} slowly."
        if label not in ("left", "right"):  # a lone side source is "on the left side of ..."
            assert caption(direction_label=label).endswith(f" {phrases[0]}.")
    for label, phrases in captions._DISTANCE_WORDS.items():
        assert caption(direction_label="front", distance_label=label) == \
            f"A car directly in front, {phrases[0]}."
    for label in ("slow", "moderate", "fast"):
        assert caption(direction_label="left", movement="moving", speed_label=label,
                       end_direction_label="right") == \
            f"A car moves from left to right {captions._SPEED_WORDS[label][0]}."


def test_scene_size_keywords():
    assert parse_caption("A dog barks on the left, outdoors.").scene_size_label == "outdoors"
    assert parse_caption("A dog barks on the left, in a small space.").scene_size_label == "small"
    assert parse_caption("A dog barks on the left.").scene_size_label is None


def test_every_size_phrase_parses_to_its_label_at_either_end():
    for label, phrases in captions._SIZE_WORDS.items():
        for phrase in phrases:
            for text in (f"A dog barks on the left, {phrase}.",
                         f"A dog barks on the left {phrase}.",
                         f"{phrase.capitalize()}, a dog barks on the left."):
                rec = parse_caption(text)
                src = rec.sources[0]
                assert (rec.scene_size_label, src.event.lower(), src.direction_label) == (
                    label, "a dog barks", "left"), text
    assert parse_caption("A dog barks on the left, in a large room.").scene_size_label == "large"


def test_size_words_inside_the_caption_are_event_words():
    rec = parse_caption("Outdoor birds on the left side of the scene, close by, in a small space.")
    assert (rec.scene_size_label, rec.sources[0].event) == ("small", "Outdoor birds")
    rec = parse_caption("A dog barks outside the house on the left.")
    assert (rec.scene_size_label, rec.sources[0].event) == (None, "A dog barks outside the house")
    assert rec.sources[0].direction_label == "left"
    rec = parse_caption("A hall clock ticks on the right, in a moderately sized space.")
    assert (rec.scene_size_label, rec.sources[0].event) == ("moderate", "A hall clock ticks")


def test_empty_caption_errors():
    with pytest.raises(CaptionParseError):
        parse_caption("")
    with pytest.raises(CaptionParseError):
        parse_caption("   \n  ")


def test_clause_decomposition_exposed():
    record = parse_caption(
        "A dog barks in front while a guitar strums from right to front left moderately."
    )
    assert len(record.sources) == 2
    assert record.sources[0].event == "A dog barks"
    second = record.sources[1]
    assert second.movement == "moving"
    assert (second.direction_label, second.end_direction_label) == ("right", "front_left")


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parser_total_on_arbitrary_text(text):
    try:
        record = parse_caption(text)
        assert record.sources
    except CaptionParseError:
        pass


# ---------------------------------------------------------------------------
# generation and round trip
# ---------------------------------------------------------------------------
def test_generate_single_still_matches_expected_phrasing():
    rec = AttributeRecord(
        scene_size_label=None,
        sources=(SourceAttributes(event="A cell phone is vibrating",
                                  direction_label="right", movement="still"),),
    )
    assert generate_caption(rec) == "A cell phone is vibrating on the right side of the scene."


def test_generate_moving_matches_expected_phrasing():
    rec = AttributeRecord(
        scene_size_label=None,
        sources=(SourceAttributes(event="Trumpet sound", direction_label="right",
                                  movement="moving", speed_label="moderate",
                                  end_direction_label="front_left"),),
    )
    assert generate_caption(rec) == \
        "Trumpet sound moves from right to front left at a moderate speed."


def test_generate_instant_two_sequential_phrasing():
    rec = AttributeRecord(
        scene_size_label=None,
        sources=(SourceAttributes(event="a dog barks", direction_label="left",
                                  movement="instant", speed_label="instant",
                                  end_direction_label="right"),),
    )
    text = generate_caption(rec)
    assert "then another dog barks" in text
    back = parse_caption(text)
    assert back.sources[0].movement == "instant"


def test_generate_requires_events():
    rec = AttributeRecord(
        scene_size_label=None,
        sources=(SourceAttributes(event="", direction_label="left"),),
    )
    with pytest.raises(CaptionParseError):
        generate_caption(rec)
    assert generate_caption(rec, ["a dog barking"]).startswith("A dog barking")


def test_generated_captions_stay_concise():
    # table-style records (one or two sources) stay under the 30-word target
    rng = SeededRng(55)
    events = ["a dog barking", "guitar strumming", "rain falling", "a trumpet sound"]
    for i in range(200):
        n = 1 + (i % 2)
        sources = []
        for j in range(n):
            moving = (i + j) % 3 == 0
            sources.append(SourceAttributes(
                event=events[(i + j) % 4],
                direction_label=DIRECTION_LABELS[(i + j) % 5],
                movement="moving" if moving else "still",
                speed_label=("slow", "moderate", "fast")[i % 3] if moving else None,
                end_direction_label=DIRECTION_LABELS[(i + j + 2) % 5] if moving else None,
            ))
        text = generate_caption(AttributeRecord(
            scene_size_label=SIZE_LABELS[i % 4] if i % 2 else None,
            sources=tuple(sources)))
        assert len(text.split()) < 30


def _labels(rec):
    out = [rec.scene_size_label]
    for s in rec.sources:
        out.append((s.direction_label, s.direction_degrees, s.distance_label,
                    s.movement, s.speed_label, s.end_direction_label,
                    s.end_direction_degrees, s.end_distance_label))
    return out


def _random_records(seed: int, events: list[str], n: int):
    """``n`` seeded random records of one to four sources drawing on ``events``;
    angles, start and end, hold one to six significant digits, whole or
    fractional."""
    import random

    def angle():
        return min(float(f"{random.uniform(0, 180):.{random.randint(1, 6)}g}"), 180.0)

    random.seed(seed)
    for _ in range(n):
        sources = []
        for _ in range(random.choice([1, 1, 2, 2, 3, 4])):
            movement = random.choice(["still", "moving", "instant"])
            use_deg = random.random() < 0.25
            kw = dict(
                event=random.choice(events),
                direction_label=None if use_deg else random.choice(DIRECTION_LABELS),
                direction_degrees=angle() if use_deg else None,
                distance_label=random.choice([None, *DISTANCE_LABELS]),
                movement=movement,
            )
            if movement != "still":
                end_deg = random.random() < 0.25
                kw["end_direction_label"] = None if end_deg else random.choice(DIRECTION_LABELS)
                kw["end_direction_degrees"] = angle() if end_deg else None
                kw["end_distance_label"] = random.choice([None, *DISTANCE_LABELS])
                kw["speed_label"] = ("instant" if movement == "instant"
                                     else random.choice(["slow", "moderate", "fast"]))
            sources.append(SourceAttributes(**kw))
        yield AttributeRecord(
            scene_size_label=random.choice([None, *SIZE_LABELS]),
            sources=tuple(sources))


def test_roundtrip_preserves_labels_1000_records():
    events = ["a dog barking", "guitar strumming", "a trumpet sound", "rain falling",
              "an engine humming", "a woman singing", "church bells", "a cat meowing"]
    for rec in _random_records(99, events, 1000):
        back = parse_caption(generate_caption(rec))
        assert _labels(back) == _labels(rec)


def test_tiny_angles_round_trip_without_an_exponent():
    # "1e-05 degrees" used to parse as 5 degrees, and 2.5e-07 as 7
    rec = AttributeRecord("outdoors", (SourceAttributes(
        event="a car", direction_degrees=1e-05, movement="instant", speed_label="instant",
        end_direction_degrees=2.5e-07),))
    text = generate_caption(rec)
    assert text == "A car at 0.00001 degrees, then another car at 0.00000025 degrees, outdoors."
    back = parse_caption(text)
    assert (back.sources[0].direction_degrees, back.sources[0].end_direction_degrees) == (
        1e-05, 2.5e-07)
    assert captions.caption_labels(back) == captions.caption_labels(rec)


def test_angles_are_written_as_g_writes_plain_digits():
    for degrees in (0.0, 1.0, 45.5, 90.0, 123.456789, 179.9999999, 0.0001, 0.00012345678):
        assert captions._degrees_text(degrees) == f"{degrees:g}"


def test_caption_labels_compare_angles_at_caption_precision():
    def labels(degrees):
        return captions.caption_labels(AttributeRecord(None, (SourceAttributes(
            event="a dog", direction_degrees=degrees),)))

    assert labels(123.4567891) == labels(123.457) == (
        None, ((None, "123.457", None, "still", None, None, None, None),))
    assert labels(123.4567891) != labels(123.458)


# events that hold direction, distance and speed words of the lexicon
LEXICON_EVENTS = ["distant thunder", "car passing left", "front door", "gently rocking boat",
                  "left hand clap", "a fast train", "a slowly ticking clock", "nearby traffic",
                  "a far off horn", "right whale song", "a close call", "center stage applause",
                  "a suddenly slammed door", "music in the distance"]


@pytest.mark.parametrize("rec", [
    AttributeRecord(scene_size_label="outdoors", sources=(SourceAttributes(
        event="distant thunder", direction_label="right", distance_label="near"),)),
    AttributeRecord(scene_size_label="outdoors", sources=(SourceAttributes(
        event="car passing left", direction_label="right"),)),
    AttributeRecord(scene_size_label="outdoors", sources=(SourceAttributes(
        event="front door", direction_label="right"),)),
    AttributeRecord(scene_size_label="outdoors", sources=(SourceAttributes(
        event="gently rocking boat", direction_label="left", movement="moving",
        speed_label="fast", end_direction_label="right"),)),
    AttributeRecord(scene_size_label="outdoors", sources=(SourceAttributes(
        event="left hand clap", direction_label="front", movement="instant",
        speed_label="instant", end_direction_label="right"),)),
], ids=["still-distance", "still-direction", "still-front", "moving-speed", "instant-end"])
def test_event_words_do_not_become_labels(rec):
    text = generate_caption(rec)
    back = parse_caption(text)
    assert _labels(back) == _labels(rec), text
    assert back.sources[0].event.lower() == rec.sources[0].event


def test_roundtrip_with_lexicon_words_in_events():
    for rec in _random_records(7, LEXICON_EVENTS, 500):
        text = generate_caption(rec)
        back = parse_caption(text)
        assert _labels(back) == _labels(rec), text
        assert [s.event.lower() for s in back.sources] == [s.event for s in rec.sources], text


# events that hold size words, "sound", a direction cue or "from"
PHRASE_EVENTS = ["outdoor birds", "a hall clock ticking", "a small room fan", "traffic outside",
                 "an open air concert", "a tiny space heater", "a trumpet sound", "a noise sound",
                 "waves in the front yard", "music from a radio"]


def test_roundtrip_with_size_words_and_cues_in_events():
    for rec in _random_records(11, PHRASE_EVENTS, 1000):
        text = generate_caption(rec)
        back = parse_caption(text)
        assert _labels(back) == _labels(rec), text
        assert [s.event[:1].lower() + s.event[1:] for s in back.sources] == \
            [s.event for s in rec.sources], text


def test_label_difference_names_the_first_label_that_differs():
    def record(size, *directions):
        return AttributeRecord(size, tuple(SourceAttributes(event="a dog", direction_label=d)
                                           for d in directions))

    assert captions.label_difference(record("small", "left"), record("small", "left")) is None
    assert captions.label_difference(record("large", "left"), record("small", "right")) == \
        "scene size: parsed large, stored small"
    assert captions.label_difference(record(None, "left"), record(None, "left", "right")) == \
        "source count: parsed 1, stored 2"
    assert captions.label_difference(record(None, "left", "front"),
                                     record(None, "left", "right")) == \
        "source 2 direction: parsed front, stored right"
