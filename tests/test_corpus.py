import hashlib
import json
import pickle
import re
import sys
import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import slumix.corpus
from conftest import make_corpus, make_utt
from slumix import (
    Corpus,
    CorpusFormatError,
    Entity,
    SemanticLabel,
    Utterance,
    corpus_stats,
    filter_split,
    load_corpus,
    make_synthetic_corpus,
    save_corpus,
    speech_items,
    text_items,
    validate_corpus,
)
from slumix.corpus import UNPARSEABLE, read_records
from slumix.metrics import PredictionRecord


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def canonical_row(uid, split="train", text="wake me at seven am", speech=None,
                  lang="en", entities=None):
    row = {"id": uid, "lang": lang, "split": split, "text": text,
           "scenario": "alarm", "action": "set",
           "entities": entities if entities is not None
           else [{"type": "time", "filler": "seven am"}]}
    if speech:
        row["speech_ref"] = speech
    return row


class TestCanonicalProfile:
    def test_load_and_roundtrip(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.jsonl"
        save_corpus(tiny_corpus, path)
        loaded = load_corpus(path, "canonical", name=tiny_corpus.name)
        assert loaded.records == tiny_corpus.records
        # reload of the re-export is identical too
        path2 = tmp_path / "c2.jsonl"
        save_corpus(loaded, path2)
        assert load_corpus(path2, "canonical", name=tiny_corpus.name).records \
            == tiny_corpus.records

    def test_load_is_deterministic(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.jsonl"
        save_corpus(tiny_corpus, path)
        a = load_corpus(path, "canonical")
        b = load_corpus(path, "canonical")
        assert a.records == b.records

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [canonical_row("u1"), canonical_row("u1")])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path, "canonical")

    def test_mixed_languages_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_jsonl(path, [canonical_row("u1"), canonical_row("u2", lang="de")])
        with pytest.raises(CorpusFormatError, match="corpus lang"):
            load_corpus(path, "canonical")

    @pytest.mark.parametrize("rows,line,message", [
        ([canonical_row("u1"), canonical_row("u2"), canonical_row("u1"),
          canonical_row("u4", split="holdout")], 3, "duplicate record id 'u1'"),
        ([canonical_row("u1"), canonical_row("u2", lang="de"), canonical_row("u3", text=" ")],
         2, "record 'u2': lang 'de' != corpus lang 'en'"),
        ([canonical_row("u1"), canonical_row("u2", split="holdout"), canonical_row("u1")],
         2, "unknown split/partition 'holdout'"),
    ], ids=["duplicate_id", "foreign_lang", "earlier_line_fault"])
    def test_first_fault_reported_at_its_line(self, tmp_path, rows, line, message):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path, "canonical")
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_records_stream_before_a_later_fault(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [canonical_row("u1"), canonical_row("u2"), canonical_row("u1")])
        records = read_records(path, "canonical")
        assert [next(records).id, next(records).id] == ["u1", "u2"]
        with pytest.raises(CorpusFormatError, match=r":3: duplicate record id 'u1'"):
            next(records)

    @pytest.mark.parametrize("line,message", [
        (b"{} x", "invalid JSON (Extra data)"),
        (b'{"id": "u2",', "invalid JSON (Expecting property name enclosed in double quotes)"),
        (b"\xef\xbb\xbf{}", "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
        (b'{"id": "u\xe92"}', "not UTF-8 text (invalid continuation byte)"),
        (b"[1, 2]", "record is not a JSON object"),
    ], ids=["trailing_junk", "value_over_two_lines", "bom", "not_utf8", "array"])
    def test_line_fault_messages(self, tmp_path, line, message):
        # The second line of a value spanning two lines is never reached.
        path = tmp_path / "c.jsonl"
        path.write_bytes(json.dumps(canonical_row("u1")).encode() + b"\n" + line
                         + b'\n "lang": "en"}\n')
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path, "canonical")
        assert str(info.value) == f"{path}:2: {message}"

    def test_fields_that_are_not_strings(self, tmp_path):
        # Equal fields of other types than strings can stand for unequal strings
        # (1 == True): each such record gets the label of its own fields.
        path = tmp_path / "c.jsonl"
        rows = [{**canonical_row(f"u{i}"), "scenario": value}
                for i, value in enumerate([1, True, 1.0, 1, "1"])]
        write_jsonl(path, rows)
        loaded = load_corpus(path, "canonical").records
        assert [u.label.scenario for u in loaded] == ["1", "true", "1.0", "1", "1"]
        for utt, row in zip(loaded, rows):
            assert utt.label == SemanticLabel.from_dict(row)
        write_jsonl(path, rows + [{**canonical_row(7), "entities": [
            {"type": 2, "filler": ["seven"]}]}])
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path, "canonical")
        assert str(info.value) == (f"{path}:6: record '7': gold label has a delimiter "
                                   "character in entity field \"['seven']\"")

    def test_validate_corpus_checks_records_and_ids(self):
        bad = Corpus(name="c", lang="en", records=[make_utt("u1", "play x", "music|x")])
        with pytest.raises(CorpusFormatError, match="delimiter character in intent"):
            validate_corpus(bad)
        dup = Corpus(name="c", lang="en", records=[make_utt("u1", "a"), make_utt("u1", "b")])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            validate_corpus(dup)

    def test_each_label_field_normalized_at_most_twice(self, tmp_path, monkeypatch):
        path = tmp_path / "syn.jsonl"
        save_corpus(make_synthetic_corpus(200), path)
        calls = []
        normalize_space = slumix.corpus.normalize_space

        def counting(value):
            calls.append(value)
            return normalize_space(value)

        monkeypatch.setattr(slumix.corpus, "normalize_space", counting)
        corpus = load_corpus(path, "canonical")
        fields = sum(2 + 2 * len(r.label.entities) for r in corpus.records)
        assert 0 < len(calls) <= 2 * fields

    def test_each_label_field_normalized_once(self, tmp_path, monkeypatch):
        path = tmp_path / "syn.jsonl"
        save_corpus(make_synthetic_corpus(200), path)
        calls = []
        normalize_space = slumix.corpus.normalize_space

        def counting(value):
            calls.append(value)
            return normalize_space(value)

        monkeypatch.setattr(slumix.corpus, "normalize_space", counting)
        corpus = load_corpus(path, "canonical")
        labels = {r.label for r in corpus.records}
        assert len(labels) < len(corpus)
        assert len(calls) == sum(2 + 2 * len(label.entities) for label in labels)

    def test_synthetic_corpus_shares_equal_labels_and_keeps_its_bytes(self, tmp_path):
        corpus = make_synthetic_corpus(300, seed=1, lang="de")
        labels = {id(r.label): r.label for r in corpus.records}
        assert len(labels) == len({r.label for r in corpus.records}) < len(corpus)
        path = tmp_path / "syn.jsonl"
        save_corpus(corpus, path)
        # The file the generator wrote before it shared labels.
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "7ca9b69c2022383a81ec7f465c27852695ffff3878c84ea66e16fe5eff1b32fd"

    def test_equal_label_fields_share_one_label(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [canonical_row("u1"), canonical_row("u2", text="wake me up at seven am"),
                canonical_row("u3", entities=[{"type": "Time", "filler": "seven  am"}]),
                canonical_row("u4")]
        write_jsonl(path, rows)
        u1, u2, u3, u4 = load_corpus(path, "canonical").records
        # u3's fields differ in case and spacing, but its label is equal: one object.
        assert u1.label is u2.label is u3.label is u4.label
        for utt, row in zip((u1, u2, u3, u4), rows):
            assert utt.label == SemanticLabel.from_dict(row)

    def test_equal_strings_share_one_object(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [canonical_row("u1"), canonical_row("u1#r0", speech="a.flac"),
                           canonical_row("u2", text="set an alarm", entities=[])])
        u1, r0, u2 = load_corpus(path, "canonical").records
        assert u1.text is r0.text and u1.lang is r0.lang is u2.lang
        # Distinct labels share their equal fields too.
        assert u1.label is not u2.label
        assert u1.label.scenario is u2.label.scenario and u1.label.action is u2.label.action

    @pytest.mark.parametrize("change", [
        {"scenario": "alarm|x"},
        {"action": " "},
        {"entities": [{"type": "time", "filler": "seven:am"}]},
        {"entities": [{"type": "", "filler": "seven am"}]},
        {"unparseable": True},
        {"text": "  "},
        {"id": ""},
    ])
    def test_third_record_of_repeated_label_fails_at_its_line(self, tmp_path, change):
        path = tmp_path / "c.jsonl"
        rows = [canonical_row(f"u{i}") for i in range(1, 6)]
        rows[2] = {**rows[2], **change}
        write_jsonl(path, rows)
        with pytest.raises(CorpusFormatError,
                           match=rf"^{re.escape(str(path))}:3: record( 'u3'| id is empty)"):
            load_corpus(path, "canonical")

    @pytest.mark.parametrize("entities", [
        "x", 7, [5], ["time"], None, {"type": "time", "filler": "seven am"},
    ], ids=["string", "number", "list_of_numbers", "list_of_strings", "null", "object"])
    def test_malformed_entities_rejected(self, tmp_path, entities):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [canonical_row("u1"), {**canonical_row("u2"), "entities": entities}])
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:2: field 'entities'"):
            load_corpus(path, "canonical")

    def test_non_utf8_line_reported(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(json.dumps(canonical_row("u1")).encode() + b"\n"
                         + json.dumps(canonical_row("u2")).encode()[:-1] + b"\xe9}\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:2: not UTF-8"):
            load_corpus(path, "canonical")

    def test_each_record_built_once(self, tmp_path, monkeypatch):
        path = tmp_path / "syn.jsonl"
        save_corpus(make_synthetic_corpus(200), path)
        calls = []

        def counting(**fields):
            calls.append(fields["id"])
            return Utterance(**fields)

        monkeypatch.setattr(slumix.corpus, "Utterance", counting)
        corpus = load_corpus(path, "canonical")
        assert calls == [r.id for r in corpus.records]

    def test_unparseable_gold_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [canonical_row("u1"), {**canonical_row("u2"), "unparseable": True}])
        with pytest.raises(CorpusFormatError, match="gold label is unparseable"):
            load_corpus(path, "canonical")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CorpusFormatError, match="empty"):
            load_corpus(path, "canonical")

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(canonical_row("u1")) + "\n{not json\n")
        with pytest.raises(CorpusFormatError, match=r":2"):
            load_corpus(path, "canonical")

    def test_unknown_profile(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [canonical_row("u1")])
        with pytest.raises(CorpusFormatError, match="profile"):
            load_corpus(path, "nope")

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [canonical_row("u1", split="holdout")])
        with pytest.raises(CorpusFormatError, match="split"):
            load_corpus(path, "canonical")

    def test_delimiter_in_filler_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [canonical_row(
            "u1", entities=[{"type": "time", "filler": "seven|am"}])])
        with pytest.raises(CorpusFormatError, match="delimiter"):
            load_corpus(path, "canonical")

    def test_speech_partition_is_exhaustive(self, tiny_corpus):
        with_speech = [r for r in tiny_corpus if r.has_speech]
        without = [r for r in tiny_corpus if not r.has_speech]
        assert len(with_speech) + len(without) == len(tiny_corpus)


class TestSlurpProfile:
    @staticmethod
    def slurp_row(sid, n_recordings, split="train"):
        return {
            "slurp_id": sid,
            "sentence": f"wake me at seven am number {sid}",
            "sentence_annotation": f"wake me at [time : seven am] number {sid}",
            "scenario": "alarm",
            "action": "set",
            "intent": "alarm_set",
            "partition": split,
            "entities": [{"type": "time", "span": [3, 4]}],
            "recordings": [{"file": f"audio-{sid}-{i}.flac"}
                           for i in range(n_recordings)],
        }

    def test_one_text_record_plus_one_per_recording(self, tmp_path):
        path = tmp_path / "slurp.jsonl"
        write_jsonl(path, [self.slurp_row(1, 3), self.slurp_row(2, 1)])
        corpus = load_corpus(path, "slurp")
        stats = corpus_stats(corpus)
        assert stats["train"] == {"text": 2, "speech": 4}
        assert len(corpus) == 6
        fillers = {e.filler for r in corpus for e in r.label.entities}
        assert fillers == {"seven am"}

    def test_pairing_one_keeps_first_recording(self, tmp_path):
        path = tmp_path / "slurp.jsonl"
        write_jsonl(path, [self.slurp_row(1, 3)])
        corpus = load_corpus(path, "slurp", pairing="one")
        assert corpus_stats(corpus)["train"] == {"text": 1, "speech": 1}
        assert speech_items(corpus)[0].speech_ref == "audio-1-0.flac"

    @pytest.mark.parametrize("pairing", ["all", "one"])
    def test_recording_records_copy_their_text_record(self, tmp_path, pairing):
        path = tmp_path / "slurp.jsonl"
        rows = [self.slurp_row(1, 3), self.slurp_row(2, 0, split="dev"),
                {**self.slurp_row(3, 2, split="test"), "recordings": ["a.flac", "b.flac"]}]
        write_jsonl(path, rows)
        records = load_corpus(path, "slurp", pairing=pairing).records
        expected = []
        for row, text_utt in zip(rows, [r for r in records if not r.has_speech]):
            files = [rec["file"] if isinstance(rec, dict) else rec for rec in row["recordings"]]
            expected.append(text_utt)
            expected += [replace(text_utt, id=f"{text_utt.id}#r{i}", speech_ref=ref)
                         for i, ref in enumerate(files[:1] if pairing == "one" else files)]
        assert records == expected
        text_utts = {r.id: r for r in records if not r.has_speech}
        assert all(r.label is text_utts[r.id.split("#")[0]].label for r in records)

    @pytest.mark.parametrize("field,value", [
        ("entities", "x"), ("entities", 7), ("entities", [5]), ("entities", ["time"]),
        ("entities", None), ("entities", {"type": "time", "span": [3, 4]}),
        ("recordings", "a.flac"), ("recordings", None), ("recordings", {"file": "a.flac"}),
        ("recordings", [5]), ("recordings", [["a.flac"]]), ("recordings", [{"file": 7}]),
    ], ids=["entities_string", "entities_number", "entities_list_of_numbers",
            "entities_list_of_strings", "entities_null", "entities_object",
            "recordings_string", "recordings_null", "recordings_object",
            "recordings_entry_number", "recordings_entry_list", "recordings_entry_file_number"])
    def test_malformed_row_rejected(self, tmp_path, field, value):
        path = tmp_path / "slurp.jsonl"
        write_jsonl(path, [self.slurp_row(1, 2), {**self.slurp_row(2, 2), field: value}])
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:2: field '{field}'"):
            load_corpus(path, "slurp")

    def test_realistic_slurp_train_counts(self, tmp_path):
        # 11,514 sentences carrying 50,628 recordings in total.
        n_sent, n_rec = 11514, 50628
        base, extra = divmod(n_rec, n_sent)
        path = tmp_path / "slurp_train.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for i in range(n_sent):
                row = self.slurp_row(i, base + (1 if i < extra else 0))
                f.write(json.dumps(row) + "\n")
        corpus = load_corpus(path, "slurp")
        stats = corpus_stats(corpus)
        assert stats["train"] == {"text": 11514, "speech": 50628}
        assert len(text_items(filter_split(corpus, "train"))) == 11514


class TestMassiveProfile:
    @staticmethod
    def massive_row(rid, split="train", locale="fr-FR", audio=True):
        row = {
            "id": rid,
            "locale": locale,
            "partition": split,
            "utt": f"reveille moi a sept heures {rid}",
            "annot_utt": f"reveille moi a [time : sept heures] {rid}",
            "scenario": "alarm",
            "intent": "alarm_set",
        }
        if audio:
            row["path"] = f"audio/{rid}.wav"
        return row

    def test_paired_records(self, tmp_path):
        path = tmp_path / "massive.jsonl"
        write_jsonl(path, [self.massive_row(i) for i in range(3)])
        corpus = load_corpus(path, "massive")
        assert corpus.lang == "fr-FR"
        assert corpus_stats(corpus)["train"] == {"text": 3, "speech": 3}
        assert corpus.records[0].label.action == "set"
        assert corpus.records[0].label.entities[0].filler == "sept heures"

    def test_validation_partition_maps_to_dev(self, tmp_path):
        path = tmp_path / "massive.jsonl"
        write_jsonl(path, [self.massive_row(0, split="validation")])
        corpus = load_corpus(path, "massive")
        assert corpus.records[0].split == "dev"

    def test_realistic_speech_massive_fr_counts(self, tmp_path):
        sizes = {"train": 11514, "dev": 2033, "test": 2974}
        path = tmp_path / "smassive.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            rid = 0
            for split, n in sizes.items():
                for _ in range(n):
                    f.write(json.dumps(self.massive_row(rid, split=split)) + "\n")
                    rid += 1
        stats = corpus_stats(load_corpus(path, "massive"))
        assert stats == {
            "train": {"text": 11514, "speech": 11514},
            "dev": {"text": 2033, "speech": 2033, "in_train": 0},
            "test": {"text": 2974, "speech": 2974, "in_train": 0},
        }


def time_label_rows(profile, fillers):
    """Rows of ``profile``, one per filler, in language fr-FR, whose labels
    differ only in their time filler."""
    for i, filler in enumerate(fillers):
        if profile == "massive":
            row = TestMassiveProfile.massive_row(i)
            row["annot_utt"] = row["annot_utt"].replace("sept heures", filler)
        elif profile == "slurp":
            row = {**TestSlurpProfile.slurp_row(i, 0), "lang": "fr-FR",
                   "entities": [{"type": "time", "filler": filler}]}
        else:
            row = canonical_row(f"u{i}", text=f"wake me at {filler} {i}", lang="fr-FR",
                                entities=[{"type": "time", "filler": filler}])
        yield row


@pytest.mark.parametrize("profile", ["massive", "slurp", "canonical"])
def test_streamed_ingest_holds_each_distinct_label_once(tmp_path, monkeypatch, profile):
    # A streamed ingest keeps every label it wrote, with its encoding. Rows
    # that share a label share one object, checked once, so they hold far
    # less than rows whose labels all differ.
    n = 5000
    checked = []
    real_fault = slumix.corpus.label_fault
    monkeypatch.setattr(slumix.corpus, "label_fault",
                        lambda label: checked.append(label) or real_fault(label))

    def peak(path, fillers):
        write_jsonl(path, time_label_rows(profile, fillers))
        tracemalloc.start()
        try:
            with open(tmp_path / "out.jsonl", "w", encoding="utf-8") as f:
                assert len(load_corpus(path, profile, write_to=f)) == n
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    distinct = peak(tmp_path / "distinct.jsonl", [f"sept heures {i}" for i in range(n)])
    assert len(checked) == n
    checked.clear()
    shared = peak(tmp_path / "shared.jsonl", ["sept heures"] * n)
    assert len(checked) == 1
    assert shared < distinct / 2
    # Equal labels come back as one label object, equal languages as one string.
    for name, labels in (("distinct.jsonl", n), ("shared.jsonl", 1)):
        records = load_corpus(tmp_path / name, profile).records
        assert len({id(r.label) for r in records}) == labels
        assert len({id(r.lang) for r in records}) == 1 and records[0].lang == "fr-FR"


def two_label_rows(profile):
    """Two rows of ``profile`` whose labels differ in their action only: the
    same scenario, entity type and filler, each decoded from its own line."""
    if profile == "canonical":
        return [canonical_row("u1"), {**canonical_row("u2", text="when is my alarm"),
                                      "action": "query"}]
    if profile == "massive":
        row = TestMassiveProfile.massive_row
        return [row(0, audio=False), {**row(1, audio=False), "intent": "alarm_query"}]
    rows = [TestSlurpProfile.slurp_row(1, 0),
            {**TestSlurpProfile.slurp_row(2, 0), "action": "query", "intent": "alarm_query"}]
    if profile == "slurp_fillers":
        for row in rows:
            row["entities"] = [{"type": "time", "filler": "seven am"}]
    return rows


@pytest.mark.parametrize("profile", ["canonical", "slurp_fillers", "slurp_brackets", "massive"])
def test_distinct_labels_share_their_equal_field_strings(tmp_path, profile):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, two_label_rows(profile))
    first, second = (r.label for r in load_corpus(path, profile.split("_")[0]))
    assert first != second and first.action != second.action
    assert first.scenario is second.scenario
    (a,), (b,) = first.entities, second.entities
    assert a.etype is b.etype and a.filler is b.filler


@pytest.mark.parametrize("profile", ["canonical", "slurp_fillers", "slurp_brackets", "massive"])
def test_distinct_labels_share_their_normalized_field_strings(tmp_path, profile):
    # Normalization changes each of these fields, making a new string per label.
    rows = two_label_rows(profile)
    for row in rows:
        row["scenario"] = "Alarm"
        if "entities" in row and "filler" in row["entities"][0]:
            row["entities"] = [{"type": "Time", "filler": "seven  am"}]
        for key in ("sentence_annotation", "annot_utt"):
            if key in row:
                row[key] = re.sub(r"\[time : (\S+) (\S+)\]", r"[Time : \1  \2]", row[key])
    path = tmp_path / "c.jsonl"
    write_jsonl(path, rows)
    first, second = (r.label for r in load_corpus(path, profile.split("_")[0]))
    assert first != second and first.scenario == "alarm"
    (a,), (b,) = first.entities, second.entities
    assert a.etype == "time" and " " in a.filler and "  " not in a.filler
    assert first.scenario is second.scenario
    assert a.etype is b.etype and a.filler is b.filler


class TestStatsAndViews:
    def test_empty_corpus_all_zeros(self):
        stats = corpus_stats(Corpus(name="empty", lang="en", records=[]))
        assert stats == {"train": {"text": 0, "speech": 0},
                         "dev": {"text": 0, "speech": 0, "in_train": 0},
                         "test": {"text": 0, "speech": 0, "in_train": 0}}

    def test_three_records_one_speech(self):
        corpus = make_corpus([
            make_utt("a", "one two"),
            make_utt("b", "three four"),
            make_utt("c", "five six", speech=True),
        ])
        assert corpus_stats(corpus)["train"] == {"text": 3, "speech": 1}

    def test_in_train_counts_dev_and_test_records_whose_text_is_in_train(self):
        # Train records may come after the dev and test records that share their text.
        corpus = make_corpus([
            make_utt("a", "seen earlier"),
            make_utt("d1", "seen later", split="dev"),
            make_utt("d2", "seen later", split="dev", speech=True),
            make_utt("d3", "only in dev", split="dev"),
            make_utt("t1", "seen earlier", split="test", speech=True),
            make_utt("t2", "only in dev", split="test"),
            make_utt("b", "seen later", speech=True),
        ])
        stats = corpus_stats(corpus)
        assert stats == {"train": {"text": 2, "speech": 1},
                         "dev": {"text": 2, "speech": 1, "in_train": 2},
                         "test": {"text": 2, "speech": 1, "in_train": 1}}
        assert corpus_stats(iter(corpus.records)) == stats  # any iterable, read once

    def test_filter_split_preserves_order(self):
        corpus = make_corpus([
            make_utt("a", "t a", split="train"),
            make_utt("b", "t b", split="dev"),
            make_utt("c", "t c", split="train"),
            make_utt("d", "t d", split="dev"),
            make_utt("e", "t e", split="test"),
        ])
        dev = filter_split(corpus, "dev")
        assert [r.id for r in dev.records] == ["b", "d"]

    def test_filter_split_empty_corpus(self):
        corpus = Corpus(name="empty", lang="en", records=[])
        assert filter_split(corpus, "train").records == []

    def test_filter_split_rejects_unknown(self, tiny_corpus):
        with pytest.raises(CorpusFormatError):
            filter_split(tiny_corpus, "holdout")

    def test_text_items_prefers_text_only_representative(self):
        corpus = make_corpus([
            make_utt("s1", "shared transcript", speech=True),
            make_utt("t1", "shared transcript"),
            make_utt("s2", "other transcript", speech=True),
        ])
        items = {u.id for u in text_items(corpus)}
        assert items == {"t1", "s2"}


class TestLabels:
    def test_normalized_when_built(self):
        label = SemanticLabel(" Alarm ", "SET", (Entity("Time", " seven  am "),))
        assert label == SemanticLabel("alarm", "set", (Entity("time", "seven am"),))
        assert (label.scenario, label.action) == ("alarm", "set")
        assert label.entities[0].to_dict() == {"type": "time", "filler": "seven am"}

    def test_rebuilt_label_shares_strings(self):
        # Gold labels are read back from prediction rows at scoring time; an
        # already-normalized field must not be copied.
        label = SemanticLabel("alarm", "set", (Entity("time", "Seven am"),))
        rebuilt = SemanticLabel.from_dict(label.to_dict())
        assert rebuilt == label
        assert rebuilt.scenario is label.scenario
        assert rebuilt.entities[0].filler is label.entities[0].filler


class TestRecordTypes:
    @pytest.mark.parametrize("record", [
        Entity("time", "seven am"),
        SemanticLabel("alarm", "set", (Entity("time", "seven am"),)),
        make_utt("u1", "wake me up", entities=[("time", "seven am")], speech=True),
        PredictionRecord("u1", SemanticLabel("alarm", "set"), UNPARSEABLE),
    ], ids=["entity", "label", "utterance", "prediction"])
    def test_slotted_picklable_and_replaceable(self, record):
        assert not hasattr(record, "__dict__")
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        name = fields(record)[0].name
        changed = replace(record, **{name: "x"})
        assert getattr(changed, name) == "x" and changed != record
        assert replace(changed, **{name: getattr(record, name)}) == record


# Every character str.isspace accepts; re's \s matches the same ones.
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


class TestNormalizeSpace:
    @staticmethod
    def regex_normalize(value):
        return re.sub(r"\s+", " ", value.strip())

    def test_the_29_whitespace_characters(self):
        assert len(WHITESPACE) == 29
        assert all(re.fullmatch(r"\s", c) for c in WHITESPACE)
        for c in WHITESPACE:
            for value in (c, f"{c}a{c}", f"a{c}{c}b", f"{c} a {c}\u00a0b{c}{c}"):
                assert slumix.corpus.normalize_space(value) == self.regex_normalize(value)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from(WHITESPACE) | st.characters(), max_size=40))
    def test_matches_regex_on_fuzzed_strings(self, value):
        assert slumix.corpus.normalize_space(value) == self.regex_normalize(value)


# Text with JSON escapes (quotes, backslashes, control characters), U+2028 and
# non-ASCII characters.
_TRICKY = st.text(alphabet=st.sampled_from('ab "\\\x00\x1f\t\n\u2028\u00e9\u4e2d\U0001f600|'),
                  max_size=12)


@st.composite
def corpora(draw):
    """Records over a small pool of label objects (the unparseable label
    among them): a record shares a pool label, or carries an equal label that
    is a distinct object."""
    pool = draw(st.lists(st.builds(
        SemanticLabel, _TRICKY, _TRICKY,
        st.lists(st.builds(Entity, _TRICKY, _TRICKY), max_size=3).map(tuple))
        | st.just(UNPARSEABLE), min_size=1, max_size=4))
    records = []
    for i in range(draw(st.integers(1, 12))):
        label = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            label = SemanticLabel(label.scenario, label.action, label.entities,
                                  label.unparseable)
        records.append(Utterance(
            id=f"u{i}{draw(_TRICKY)}", lang=draw(_TRICKY), split="train",
            text=draw(_TRICKY), label=label,
            speech_ref=draw(st.none() | _TRICKY)))
    return Corpus(name="fuzz", lang="en", records=records)


class TestSaveCorpus:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corpora())
    def test_bytes_match_per_record_dumps(self, tmp_path, corpus):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        expected = "".join(json.dumps(u.to_dict(), ensure_ascii=False) + "\n"
                           for u in corpus.records)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_stream_of_fresh_labels_matches_per_record_dumps(self, tmp_path):
        # Each record's label is freed once the record is written and handed
        # on, so a later label may be built at its address: the encoding cache
        # must not take the new label for the freed one.
        def records():
            for i in range(2000):
                yield Utterance(id=f"u{i}", lang="en", split="train", text=f"wake me at {i}",
                                label=SemanticLabel("alarm", f"set {i}",
                                                    (Entity("time", f"{i} am"),)))

        path = tmp_path / "c.jsonl"
        save_corpus(records(), path)
        expected = "".join(json.dumps(u.to_dict(), ensure_ascii=False) + "\n"
                           for u in records())
        assert path.read_bytes() == expected.encode("utf-8")
