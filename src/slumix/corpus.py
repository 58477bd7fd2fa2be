"""Corpus records for intent/slot-annotated utterances.

The canonical on-disk format is JSONL, one utterance per line:

    {"id": ..., "lang": ..., "split": "train|dev|test", "text": ...,
     "speech_ref": ...,              # optional; present iff a speech-label pair
     "scenario": ..., "action": ..., "entities": [{"type": ..., "filler": ...}]}

Import profiles translate SLURP-style and MASSIVE-style source files into this
format. A record with ``speech_ref`` counts as a speech-label pair; every
record carries a transcript. For SLURP-style sources, each audio recording
becomes its own record (sharing the transcript), so the number of distinct
transcripts and the number of speech records differ.

``read_records`` streams a file's records, each checked as it is read (its
fields, its label, a new id, the file's language) and a fault reported with
path and line; ``load_corpus`` keeps them as a ``Corpus``. Any read hands out
equal labels as one ``SemanticLabel``, checked at its first record, and equal
languages and normalized label field strings (scenario, action, entity type,
filler) as one string, shared across labels; a canonical read also shares
transcripts.

``write_records`` writes records' canonical lines as they stream past, each
shared label encoded once, and hands the records on; ``save_corpus`` writes a
file of them and ``corpus_stats`` counts any iterable of them. ``load_corpus``
with ``write_to`` reads, checks, writes and counts in one pass, as ``slumix
ingest`` does, and keeps only the counts: the pass holds the ids, the
transcripts and the label objects it has seen rather than the records.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from itertools import chain, islice
from json.encoder import encode_basestring
from typing import Iterator, Optional

from .errors import CorpusFormatError
from .jsonio import replacing

SPLITS = ("train", "dev", "test")

_SPLIT_ALIASES = {"train": "train", "dev": "dev", "validation": "dev", "val": "dev",
                  "devel": "dev", "test": "test"}

# Characters reserved by the label serialization grammar; forbidden in any
# label field.
DELIMITER_CHARS = frozenset("|;:[]")


def normalize_space(value: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces."""
    return " ".join(value.split())


# The two label-field normalizations return an already-normalized value as the
# same object, so a label rebuilt from another label's fields (a gold label
# read back from a predictions row) shares its strings instead of copying them.
def normalize_key(value: str) -> str:
    """Normalization for scenario/action/entity-type fields: also lowercased."""
    key = normalize_space(value).lower()
    return value if key == value else key


def normalize_filler(value: str) -> str:
    """Normalization for filler strings: whitespace only, case preserved."""
    filler = normalize_space(value)
    return value if filler == value else filler


@dataclass(frozen=True, slots=True)
class Entity:
    """One slot: an entity-type name and the surface string filling it.

    Both are normalized when the entity is built: whitespace trimmed and
    collapsed, the type lowercased, the filler's case kept.
    """

    etype: str
    filler: str

    def __post_init__(self):
        object.__setattr__(self, "etype", normalize_key(self.etype))
        object.__setattr__(self, "filler", normalize_filler(self.filler))

    def to_dict(self) -> dict:
        return {"type": self.etype, "filler": self.filler}

    @classmethod
    def from_dict(cls, obj: dict) -> "Entity":
        return cls(etype=str(obj["type"]), filler=str(obj["filler"]))


@dataclass(frozen=True, slots=True)
class SemanticLabel:
    """Scenario/action intent plus an ordered entity list.

    Scenario and action are normalized (whitespace collapsed, lowercased) when
    the label is built, and its entities when they are built, so every label
    is normalized exactly once. ``unparseable`` marks predictions that could
    not be recovered from a raw model output; such labels score as fully wrong
    but flow through scoring without raising.
    """

    scenario: str
    action: str
    entities: tuple[Entity, ...] = ()
    unparseable: bool = False

    def __post_init__(self):
        object.__setattr__(self, "scenario", normalize_key(self.scenario))
        object.__setattr__(self, "action", normalize_key(self.action))
        object.__setattr__(self, "entities", tuple(self.entities))

    @property
    def intent(self) -> tuple[str, str]:
        return (self.scenario, self.action)

    def to_dict(self) -> dict:
        if self.unparseable:
            return {"unparseable": True}
        return {
            "scenario": self.scenario,
            "action": self.action,
            "entities": [e.to_dict() for e in self.entities],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "SemanticLabel":
        if obj.get("unparseable"):
            return UNPARSEABLE
        return cls(
            scenario=str(obj.get("scenario", "")),
            action=str(obj.get("action", "")),
            entities=tuple(Entity.from_dict(e) for e in obj.get("entities", [])),
        )


UNPARSEABLE = SemanticLabel(scenario="", action="", entities=(), unparseable=True)


def label_fault(label: SemanticLabel) -> Optional[str]:
    """Why a label cannot be a gold label or a target string, worded to follow
    "label" (e.g. "is unparseable"), or None when it can: it must be
    parseable, and every field non-empty and free of delimiter characters."""
    if label.unparseable:
        return "is unparseable"
    fields = [("intent field", label.scenario), ("intent field", label.action)]
    fields += [("entity field", v) for e in label.entities for v in (e.etype, e.filler)]
    for kind, value in fields:
        if not value:
            return f"has an empty {kind}"
        if not DELIMITER_CHARS.isdisjoint(value):
            return f"has a delimiter character in {kind} {value!r}"
    return None


@dataclass(frozen=True, slots=True)
class Utterance:
    """One corpus record: transcript, optional speech reference, gold label."""

    id: str
    lang: str
    split: str
    text: str
    label: SemanticLabel
    speech_ref: Optional[str] = None

    @property
    def has_speech(self) -> bool:
        return self.speech_ref is not None

    def to_dict(self) -> dict:
        obj = {
            "id": self.id,
            "lang": self.lang,
            "split": self.split,
            "text": self.text,
        }
        if self.speech_ref is not None:
            obj["speech_ref"] = self.speech_ref
        return {**obj, **self.label.to_dict()}


@dataclass
class Corpus:
    name: str
    lang: str
    records: list[Utterance] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def by_id(self) -> dict[str, Utterance]:
        return {r.id: r for r in self.records}


def _validate_record(utt_id, lang, split, text, path=None, line=None):
    """Check one record's fields; ``_one_label`` checks its label when new to the read."""
    if not utt_id:
        raise CorpusFormatError("record id is empty", path, line)
    if not lang:
        raise CorpusFormatError(f"record {utt_id!r}: language code is empty", path, line)
    if split not in SPLITS:
        raise CorpusFormatError(
            f"record {utt_id!r}: split {split!r} not in {SPLITS}", path, line)
    if not text.strip():
        raise CorpusFormatError(f"record {utt_id!r}: transcript is empty", path, line)


def _one_label(shared: dict, label: SemanticLabel, utt_id, path=None, line=None) -> SemanticLabel:
    """The one label of ``label``'s value in ``shared``. A label new to it is
    checked, and its normalized field strings swapped for ``shared``'s."""
    one = shared.get(label)
    if one is None:
        fault = label_fault(label)
        if fault is not None:
            raise CorpusFormatError(f"record {utt_id!r}: gold label {fault}", path, line)
        share, swap = shared.setdefault, object.__setattr__
        swap(label, "scenario", share(label.scenario, label.scenario))
        swap(label, "action", share(label.action, label.action))
        for entity in label.entities:
            swap(entity, "etype", share(entity.etype, entity.etype))
            swap(entity, "filler", share(entity.filler, entity.filler))
        one = shared[label] = label
    return one


def _checked(numbered, lang: Optional[str] = None, path=None) -> Iterator[Utterance]:
    """The records of ``(line, record)`` pairs, each after a check that its id
    is new and its language ``lang`` (the first record's if None, any if "mul")."""
    seen: set[str] = set()
    for line, utt in numbered:
        if utt.id in seen:
            raise CorpusFormatError(f"duplicate record id {utt.id!r}", path, line)
        seen.add(utt.id)
        lang = utt.lang if lang is None else lang
        if utt.lang != lang and lang != "mul":
            raise CorpusFormatError(
                f"record {utt.id!r}: lang {utt.lang!r} != corpus lang {lang!r}", path, line)
        yield utt


def _check_ids_and_lang(corpus: Corpus) -> None:
    for _ in _checked(((None, utt) for utt in corpus.records), corpus.lang):
        pass


def validate_corpus(corpus: Corpus) -> None:
    """Check corpus invariants: valid splits/labels, unique ids, one language
    (combined multilingual corpora use lang "mul" and skip that check)."""
    shared: dict = {}
    for utt in _checked(((None, utt) for utt in corpus.records), corpus.lang):
        _validate_record(utt.id, utt.lang, utt.split, utt.text)
        _one_label(shared, utt.label, utt.id)


def _map_split(raw, path, line) -> str:
    split = _SPLIT_ALIASES.get(raw) if raw.__class__ is str else None
    split = split or _SPLIT_ALIASES.get(str(raw).strip().lower())
    if split is None:
        raise CorpusFormatError(f"unknown split/partition {raw!r}", path, line)
    return split


_BRACKET_SLOT_RE = re.compile(r"\[\s*([^\[\]:]+?)\s*:\s*([^\[\]]+?)\s*\]")


def _entities_from_annotation(annotated: str) -> tuple[Entity, ...]:
    """Extract (type, filler) pairs from ``[type : filler]`` bracket markup."""
    return tuple(Entity(*m.groups()) for m in _BRACKET_SLOT_RE.finditer(annotated))


def _entity_objects(obj: dict, path, line) -> list[dict]:
    entities = obj.get("entities", [])
    if not isinstance(entities, list) or not all(isinstance(e, dict) for e in entities):
        raise CorpusFormatError("field 'entities' is not a list of objects", path, line)
    return entities


def _entities_from_list(raw: list[dict], annotated: str) -> tuple[Entity, ...]:
    ents = []
    fallback = None
    for item in raw:
        etype = str(item.get("type", ""))
        filler = item.get("filler")
        if filler is not None:
            filler = str(filler)
            ents.append(Entity(etype, filler))
            continue
        # Span-only entity lists (real SLURP): recover fillers from the
        # annotated sentence, in order.
        if fallback is None:
            fallback = list(_entities_from_annotation(annotated))
        etype = normalize_key(etype)
        match = next((f for f in fallback if f.etype == etype), None)
        if match is not None:
            fallback.remove(match)
            ents.append(match)
    return tuple(ents)


def _split_intent(intent: str, scenario: str) -> tuple[str, str]:
    intent = str(intent or "").strip()
    scenario = str(scenario or "").strip()
    if scenario and intent.startswith(scenario + "_"):
        return scenario, intent[len(scenario) + 1:]
    if "_" in intent:
        s, a = intent.split("_", 1)
        return scenario or s, a
    return scenario, intent


@dataclass(frozen=True)
class FileBytes:
    """A file's contents, read once. ``load_corpus`` parses ``data`` and names
    ``path`` in its messages, so a caller that also hashes ``data`` hashes
    exactly what was parsed."""

    path: str
    data: bytes = field(repr=False)

    def __str__(self) -> str:
        return self.path


def _load_jsonl(path) -> Iterator[tuple[int, dict]]:
    # Lines are split on b"\n" and decoded one by one, so a file that is not
    # UTF-8 is reported at the line that holds the bad bytes.
    decode = json.JSONDecoder().raw_decode
    with io.BytesIO(path.data) if isinstance(path, FileBytes) else open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(f"not UTF-8 text ({exc.reason})", path, lineno) from exc
            if not line:
                continue
            try:
                obj, end = decode(line)
            except ValueError:
                end = -1
            if end != len(line):  # not one JSON value: json.loads words the fault
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(f"invalid JSON ({exc.msg})", path, lineno) from exc
            if obj.__class__ is not dict:
                raise CorpusFormatError("record is not a JSON object", path, lineno)
            yield lineno, obj


def _label_key(obj: dict, path, line) -> tuple:
    """The record fields ``SemanticLabel.from_dict`` reads, as a hashable key:
    records with equal keys get equal labels."""
    if obj.get("unparseable"):
        return (True,)
    entities = obj.get("entities", [])
    if entities.__class__ is list:
        try:
            return (False, str(obj.get("scenario", "")), str(obj.get("action", "")),
                    *[(str(e["type"]), str(e["filler"])) for e in entities])
        except (TypeError, KeyError):  # a non-object entry, or an entry's missing field
            _entity_objects(obj, path, line)
            raise
    raise CorpusFormatError("field 'entities' is not a list of objects", path, line)


def _canonical_records(path, shared: dict) -> Iterator[tuple[int, Utterance]]:
    # Each key's label is built once (recordings repeat their sentence's label).
    labels: dict[tuple, SemanticLabel] = {}
    share = shared.setdefault
    for lineno, obj in _load_jsonl(path):
        try:
            split = _map_split(obj["split"], path, lineno)
            utt_id, lang, text = obj["id"], obj["lang"], obj["text"]
            key = _label_key(obj, path, lineno)
        except KeyError as exc:
            raise CorpusFormatError(f"missing field {exc.args[0]!r}", path, lineno) from exc
        if utt_id.__class__ is not str or lang.__class__ is not str or text.__class__ is not str:
            utt_id, lang, text = str(utt_id), str(lang), str(text)
        _validate_record(utt_id, lang, split, text, path, lineno)
        label = labels.get(key)
        if label is None:
            if key[0]:
                label = UNPARSEABLE
            else:  # the key kept holds the read's shared strings, not this line's copies
                key = (False, *[share(v, v) for v in key[1:3]],
                       *[(share(t, t), share(f, f)) for t, f in key[3:]])
                label = SemanticLabel(*key[1:3], tuple(Entity(*e) for e in key[3:]))
            label = labels[key] = _one_label(shared, label, utt_id, path, lineno)
        ref = obj.get("speech_ref")
        yield lineno, Utterance(id=utt_id, lang=share(lang, lang), split=split,
                                text=share(text, text), label=label,
                                speech_ref=None if ref is None else str(ref))


def _slurp_records(path, shared: dict, pairing: str,
                   default_lang: str) -> Iterator[tuple[int, Utterance]]:
    if pairing not in ("all", "one"):
        raise CorpusFormatError(f"unknown recording pairing {pairing!r} (use 'all' or 'one')")
    share = shared.setdefault
    for lineno, obj in _load_jsonl(path):
        base_id = obj.get("slurp_id", obj.get("id"))
        if base_id is None:
            raise CorpusFormatError("missing 'slurp_id'/'id'", path, lineno)
        base_id = str(base_id)
        text = str(obj.get("sentence", obj.get("text", "")))
        annotated = str(obj.get("sentence_annotation", obj.get("annotated", "")))
        scenario = str(obj.get("scenario", ""))
        action = obj.get("action")
        if action is None:
            scenario, action = _split_intent(obj.get("intent", ""), scenario)
        action = str(action)
        label = SemanticLabel(scenario, action, _entities_from_list(
            _entity_objects(obj, path, lineno), annotated))
        split = _map_split(obj.get("partition", obj.get("split", "train")), path, lineno)
        lang = str(obj.get("lang", obj.get("locale", default_lang)))
        _validate_record(base_id, lang, split, text, path, lineno)
        label = _one_label(shared, label, base_id, path, lineno)
        lang = share(lang, lang)
        recordings = obj.get("recordings", [])
        if not isinstance(recordings, list):
            raise CorpusFormatError("field 'recordings' is not a list", path, lineno)
        refs = [rec.get("file") if isinstance(rec, dict) else rec for rec in recordings]
        for i, ref in enumerate(refs):
            if not isinstance(ref, str) or not ref:
                raise CorpusFormatError(
                    f"field 'recordings': entry #{i} is not a file name (a non-empty "
                    f"string, or an object whose 'file' is one)", path, lineno)
        yield lineno, Utterance(id=base_id, lang=lang, split=split, text=text, label=label)
        for i, ref in enumerate(refs[:1] if pairing == "one" else refs):
            yield lineno, Utterance(id=f"{base_id}#r{i}", lang=lang, split=split, text=text,
                                    label=label, speech_ref=ref)


def _massive_records(path, shared: dict, default_lang: str) -> Iterator[tuple[int, Utterance]]:
    share = shared.setdefault
    for lineno, obj in _load_jsonl(path):
        rec_id = obj.get("id")
        if rec_id is None:
            raise CorpusFormatError("missing 'id'", path, lineno)
        text = str(obj.get("utt", obj.get("text", "")))
        annotated = str(obj.get("annot_utt", ""))
        scenario, action = _split_intent(obj.get("intent", ""), obj.get("scenario", ""))
        label = SemanticLabel(scenario, action, _entities_from_annotation(annotated))
        split = _map_split(obj.get("partition", obj.get("split", "train")), path, lineno)
        lang = str(obj.get("locale", obj.get("lang", default_lang)))
        _validate_record(str(rec_id), lang, split, text, path, lineno)
        label = _one_label(shared, label, str(rec_id), path, lineno)
        lang = share(lang, lang)
        ref = obj.get("path") or obj.get("audio_path") or obj.get("file")
        yield lineno, Utterance(id=str(rec_id), lang=lang, split=split, text=text,
                                label=label, speech_ref=None if ref is None else str(ref))


PROFILES = ("canonical", "slurp", "massive")


def read_records(path, profile: str = "canonical", *, pairing: str = "all",
                 default_lang: str = "en") -> Iterator[Utterance]:
    """The records of a corpus file under the given format profile, in file
    order, each checked as it is read (fields, label, a new id, the first
    record's language unless that is "mul"), a fault at its line.

    ``path`` is a file path, or a ``FileBytes`` holding contents already read.
    ``pairing`` applies to SLURP-style sources only: "all" keeps every
    recording as its own speech record, "one" keeps only the first.
    """
    shared: dict = {}  # the read's one object of each label (``_one_label``) and string
    if profile == "canonical":
        numbered = _canonical_records(path, shared)
    elif profile == "slurp":
        numbered = _slurp_records(path, shared, pairing, default_lang)
    elif profile == "massive":
        numbered = _massive_records(path, shared, default_lang)
    else:
        raise CorpusFormatError(f"unknown profile {profile!r} (expected one of {PROFILES})")
    utt = None
    for utt in _checked(numbered, path=path):
        yield utt
    if utt is None:
        raise CorpusFormatError("empty corpus file", path)


@dataclass
class CorpusCounts:
    """What ``load_corpus`` keeps of a corpus it writes out rather than keeps:
    its language, its number of records and their ``corpus_stats``."""
    lang: str
    records: int
    stats: dict[str, dict[str, int]]

    def __len__(self) -> int:
        return self.records


def load_corpus(path, profile: str = "canonical", *, name: Optional[str] = None,
                pairing: str = "all", default_lang: str = "en",
                write_to=None) -> Corpus | CorpusCounts:
    """The corpus of ``read_records``, named ``name`` (``path`` if None).

    With ``write_to``, a text file open for writing, the records are not kept:
    each is written there (``write_records``) and counted as it is read, and
    the result is their ``CorpusCounts``."""
    records = read_records(path, profile, pairing=pairing, default_lang=default_lang)
    if write_to is not None:
        first = next(records)  # its language is the corpus's; an empty file raises here
        stats, total = _count(write_records(chain((first,), records), write_to))
        return CorpusCounts(lang=first.lang, records=total, stats=stats)
    records = list(records)
    return Corpus(name=name or str(path), lang=records[0].lang, records=records)


def _head_json(utt: Utterance) -> str:
    """``json.dumps(utt.to_dict(), ensure_ascii=False)`` up to the label's
    fields: the record's own fields, each string encoded as that call does."""
    enc = encode_basestring
    head = (f'{{"id": {enc(utt.id)}, "lang": {enc(utt.lang)}, '
            f'"split": {enc(utt.split)}, "text": {enc(utt.text)}')
    if utt.speech_ref is None:
        return head
    return f'{head}, "speech_ref": {enc(utt.speech_ref)}'


# Records a stream takes, writes and hands on at a time. Taking one record at
# a time through reader, writer and counter cost about 9% more CPU time than
# reading all, then writing all (44,459 SLURP records, 2-vCPU Xeon host);
# batches of 256 cost none.
_WRITE_BATCH = 256


def write_records(records, f) -> Iterator[Utterance]:
    """Each of ``records`` (a ``Corpus`` or any iterable of records), once its
    canonical line ``json.dumps(utt.to_dict(), ensure_ascii=False)`` is
    written to the text file ``f``.

    Each label object's fields are encoded once, so records that share a
    label (a SLURP sentence's recordings) share its encoding. Records are
    taken, written and handed on in batches of ``_WRITE_BATCH``."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    # id(label) -> the label and the line's tail from its first field on. The
    # entry holds its label, so a stream cannot free it and reuse its id.
    tails: dict[int, tuple[SemanticLabel, str]] = {}
    records = iter(records)
    while batch := list(islice(records, _WRITE_BATCH)):
        lines = []
        for utt in batch:
            entry = tails.get(id(utt.label))
            if entry is None:
                entry = tails[id(utt.label)] = (
                    utt.label, ", " + encode(utt.label.to_dict())[1:] + "\n")
            lines.append(_head_json(utt) + entry[1])
        f.writelines(lines)
        yield from batch


def save_corpus(records, path) -> None:
    """Write the canonical JSONL file of ``records`` (a ``Corpus`` or any
    iterable of records): one ``write_records`` line per record."""
    with replacing(path) as f:
        for _ in write_records(records, f):
            pass


def filter_split(corpus: Corpus, split: str) -> Corpus:
    """View of one split, record order preserved."""
    if split not in SPLITS:
        raise CorpusFormatError(f"split {split!r} not in {SPLITS}")
    return Corpus(name=corpus.name, lang=corpus.lang,
                  records=[r for r in corpus.records if r.split == split])


def text_items(corpus: Corpus) -> list[Utterance]:
    """One record per distinct transcript: the text-label pairs.

    Records without a speech reference are preferred as representatives, so
    SLURP-style corpora (text record + N recording records per sentence)
    yield exactly the text records.
    """
    chosen: dict[str, Utterance] = {}
    for utt in corpus.records:
        prev = chosen.get(utt.text)
        if prev is None or (prev.has_speech and not utt.has_speech):
            chosen[utt.text] = utt
    return list(chosen.values())


def speech_items(corpus: Corpus) -> list[Utterance]:
    """Records carrying a speech reference: the speech-label pairs."""
    return [r for r in corpus.records if r.has_speech]


def corpus_stats(records) -> dict[str, dict[str, int]]:
    """Per-split counts of ``records`` (a ``Corpus`` or any iterable of
    records, read once): text-label pairs (distinct transcripts, as
    ``text_items`` picks them) and speech-label pairs (``speech_items``), and
    for dev and test, ``in_train``: the records whose transcript also occurs
    in train."""
    return _count(records)[0]


def _count(records) -> tuple[dict[str, dict[str, int]], int]:
    """``corpus_stats`` of ``records``, and how many of them have a split in ``SPLITS``."""
    # Per split, each distinct transcript's record count; train may come last.
    texts: dict[str, dict[str, int]] = {split: {} for split in SPLITS}
    speech = dict.fromkeys(SPLITS, 0)
    for utt in records:
        counts = texts.get(utt.split)
        if counts is not None:
            counts[utt.text] = counts.get(utt.text, 0) + 1
            speech[utt.split] += utt.has_speech
    stats = {split: {"text": len(texts[split]), "speech": speech[split]} for split in SPLITS}
    train = texts["train"]
    for split in ("dev", "test"):
        stats[split]["in_train"] = sum(n for text, n in texts[split].items() if text in train)
    return stats, sum(sum(counts.values()) for counts in texts.values())
