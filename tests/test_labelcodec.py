import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slumix import Entity, LabelFormatError, SemanticLabel, parse_label, serialize_label


class TestSerialize:
    def test_single_entity(self):
        label = SemanticLabel("alarm", "set", (Entity("time", "seven am"),))
        assert serialize_label(label) == \
            "scenario: alarm | action: set | entities: [time: seven am]"

    def test_empty_entities(self):
        assert serialize_label(SemanticLabel("weather", "query", ())) == \
            "scenario: weather | action: query | entities: []"

    def test_two_entities(self):
        label = SemanticLabel("music", "play", (
            Entity("artist", "queen"), Entity("song", "bohemian rhapsody")))
        assert serialize_label(label) == ("scenario: music | action: play | "
                                          "entities: [artist: queen; song: bohemian rhapsody]")

    def test_normalizes_fields(self):
        label = SemanticLabel("  Alarm ", "SET", (Entity("Time", "  seven   am "),))
        assert serialize_label(label) == \
            "scenario: alarm | action: set | entities: [time: seven am]"

    def test_delimiter_rejected(self):
        with pytest.raises(LabelFormatError):
            serialize_label(SemanticLabel("a|b", "set", ()))
        with pytest.raises(LabelFormatError):
            serialize_label(SemanticLabel("alarm", "set", (Entity("t", "x;y"),)))

    def test_unparseable_rejected(self):
        from slumix.corpus import UNPARSEABLE
        with pytest.raises(LabelFormatError):
            serialize_label(UNPARSEABLE)


class TestParse:
    def test_canonical_roundtrip(self):
        text = "scenario: alarm | action: set | entities: [time: seven am]"
        assert parse_label(text) == SemanticLabel(
            "alarm", "set", (Entity("time", "seven am"),))

    def test_tolerant_case_and_spacing(self):
        assert parse_label("SCENARIO: Alarm|action:set|entities:[]") == \
            SemanticLabel("alarm", "set", ())

    def test_no_keys_is_unparseable(self):
        assert parse_label("I think the answer is 42").unparseable

    def test_trailing_text_ignored(self):
        got = parse_label("scenario: alarm | action: set | entities: [] "
                          "and that is my final answer")
        assert got == SemanticLabel("alarm", "set", ())

    def test_slots_synonym(self):
        got = parse_label("scenario: music | action: play | slots: [artist: queen]")
        assert got.entities == (Entity("artist", "queen"),)

    def test_missing_entities_section_means_empty(self):
        assert parse_label("scenario: iot | action: on") == SemanticLabel("iot", "on", ())

    def test_fillers_keep_case(self):
        got = parse_label("scenario: music | action: play | entities: [artist: Queen]")
        assert got.entities == (Entity("artist", "Queen"),)

    def test_bytes_accepted(self):
        assert parse_label(b"scenario: a | action: b | entities: []") == \
            SemanticLabel("a", "b", ())
        assert parse_label(b"\xff\xfe\x00garbage").unparseable

    def test_malformed_entity_chunks_skipped(self):
        got = parse_label("scenario: a | action: b | entities: [bad chunk; t: v]")
        assert got.entities == (Entity("t", "v"),)


SAFE_TEXT = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '-_.",
    min_size=1, max_size=24,
).map(lambda s: " ".join(s.split())).filter(bool)


@st.composite
def labels(draw):
    scenario = draw(SAFE_TEXT).lower()
    action = draw(SAFE_TEXT).lower()
    entities = tuple(
        Entity(draw(SAFE_TEXT).lower(), draw(SAFE_TEXT))
        for _ in range(draw(st.integers(0, 4)))
    )
    return SemanticLabel(scenario, action, entities)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(labels())
    def test_roundtrip(self, label):
        assert parse_label(serialize_label(label)) == label

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=2048))
    def test_parse_total_on_binary(self, blob):
        parse_label(blob)  # must never raise

    @settings(max_examples=200, deadline=None)
    @given(labels(), labels())
    def test_injective(self, a, b):
        if a != b:
            assert serialize_label(a) != serialize_label(b)

    def test_parse_total_on_64kib(self):
        rng = random.Random(0)
        blob = bytes(rng.randrange(256) for _ in range(64 * 1024))
        parse_label(blob)
        parse_label(blob.decode("latin-1"))

