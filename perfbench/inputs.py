"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed
writes byte-identical files. slumix receives only the generated files (and,
for the grids, the synthetic corpora slumix itself defines).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from slumix import Corpus, make_synthetic_corpus, save_corpus

# --------------------------------------------------------------------------
# Grid corpora


def write_mono_corpus(path: Path, seed: int, n: int) -> None:
    save_corpus(make_synthetic_corpus(n, seed=seed), path)


XL_CORPORA = (
    # manifest name, lang, seed tag, speech kept
    ("fr", "fr", 0, True),
    ("de", "de", 1, True),
    ("ko", "ko", 2, True),
    ("de_text", "de", 3, False),
    ("ko_text", "ko", 4, False),
)


def write_xl_corpora(directory: Path, seed: int, n: int) -> dict[str, str]:
    """Source fr, targets de/ko, and text-only de/ko corpora for ``massive``."""
    paths = {}
    for name, lang, tag, speech in XL_CORPORA:
        corpus = make_synthetic_corpus(n, seed=seed * 10 + tag, lang=lang, name=name)
        if not speech:
            corpus = Corpus(name=name, lang=lang,
                            records=[replace(r, speech_ref=None) for r in corpus.records])
        path = directory / f"{name}.jsonl"
        save_corpus(corpus, path)
        paths[name] = str(path)
    return paths


# --------------------------------------------------------------------------
# SLURP-style source file and free-form predictions


@dataclass(frozen=True)
class SlurpSize:
    """Sentences and recordings per split (defaults: the SLURP release)."""

    train: tuple[int, int] = (11514, 50628)
    devel: tuple[int, int] = (2033, 8690)
    test: tuple[int, int] = (2974, 13078)

    def splits(self):
        return (("train", self.train), ("devel", self.devel), ("test", self.test))

    @property
    def canonical_records(self) -> int:
        return sum(s + r for _, (s, r) in self.splits())


_INTENTS = {
    "alarm": ("set", "query", "remove"),
    "audio": ("volume_up", "volume_mute"),
    "calendar": ("set", "query", "remove"),
    "cooking": ("recipe",),
    "datetime": ("query", "convert"),
    "email": ("sendemail", "query", "addcontact"),
    "general": ("joke", "quirky"),
    "iot": ("hue_lightoff", "hue_lightchange", "cleaning", "coffee"),
    "lists": ("createoradd", "query", "remove"),
    "music": ("query", "likeness", "settings"),
    "news": ("query",),
    "play": ("music", "radio", "podcasts", "audiobook"),
    "qa": ("factoid", "definition", "maths"),
    "recommendation": ("events", "locations", "movies"),
    "social": ("post", "query"),
    "takeaway": ("order", "query"),
    "transport": ("query", "ticket", "taxi", "traffic"),
    "weather": ("query",),
}

_ENTITY_TYPES = (
    "date", "time", "place_name", "person", "event_name", "business_name",
    "device_type", "food_type", "media_type", "song_name", "artist_name",
    "weather_descriptor", "timeofday", "relation", "house_place", "color_type",
    "transport_type", "currency_name", "news_topic", "player_setting",
)

_WORDS = (
    "alpha bright canyon delta ember falcon garden harbor island jasmine kettle "
    "lantern meadow nectar orchard pepper quartz river saffron timber umber "
    "velvet willow yarrow zephyr amber basil cedar dune fjord grove heron iris "
    "juniper kelp lotus maple nova onyx pine quill reed sage tulip vale wren"
).split()

_FILLER_WORDS = (
    "please could you the a my for me to at on with about today now then "
    "some that this what when where how can would"
).split()

_LIST_ITEM = "list_item"


def _label(rng: random.Random):
    scenario = rng.choice(sorted(_INTENTS))
    action = rng.choice(_INTENTS[scenario])
    if rng.random() < 0.01:
        # Shopping-list style sentence: six same-type spans, so the matcher
        # sees groups of more than five spans on a side.
        n_ent = rng.choice((6, 7))
        types = [_LIST_ITEM] * 6 + [rng.choice(_ENTITY_TYPES)] * (n_ent - 6)
    else:
        n_ent = rng.choices(range(6), weights=(16, 32, 26, 14, 8, 4))[0]
        types = [rng.choice(_ENTITY_TYPES) for _ in range(n_ent)]
    entities = [(t, " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3))))
                for t in types]
    return scenario, action, entities


def _sentence(rng: random.Random, entities):
    """Plain transcript and its ``[type : filler]`` annotation."""
    plain, annotated = [], []
    for etype, filler in entities:
        words = [rng.choice(_FILLER_WORDS) for _ in range(rng.randint(0, 3))]
        plain += words + [filler]
        annotated += words + [f"[{etype} : {filler}]"]
    tail = [rng.choice(_FILLER_WORDS) for _ in range(rng.randint(1, 4))]
    return " ".join(plain + tail), " ".join(annotated + tail)


def _recording_counts(rng: random.Random, sentences: int, recordings: int):
    counts = [1] * sentences
    for i in rng.choices(range(sentences), k=recordings - sentences):
        counts[i] += 1
    return counts


def write_slurp_source(path: Path, seed: int, size: SlurpSize) -> dict[str, tuple]:
    """Write a SLURP-style JSONL file; returns test recording id -> gold label.

    Half of the entity lists carry fillers, half only spans (as in the SLURP
    release), so the loader also recovers fillers from the annotation.
    """
    rng = random.Random(f"perfbench-slurp-{seed}")
    gold = {}
    sid = 0
    with open(path, "w", encoding="utf-8") as f:
        for partition, (sentences, recordings) in size.splits():
            for n_rec in _recording_counts(rng, sentences, recordings):
                sid += 1
                scenario, action, entities = _label(rng)
                text, annotated = _sentence(rng, entities)
                span_only = rng.random() < 0.5
                obj = {
                    "slurp_id": sid,
                    "sentence": text,
                    "sentence_annotation": annotated,
                    "intent": f"{scenario}_{action}",
                    "scenario": scenario,
                    "action": action,
                    "entities": [{"type": t, "span": [k]} if span_only
                                 else {"type": t, "filler": fill}
                                 for k, (t, fill) in enumerate(entities)],
                    "partition": partition,
                    "recordings": [{"file": f"audio-{sid}-{i}.flac"}
                                   for i in range(n_rec)],
                }
                f.write(json.dumps(obj) + "\n")
                if partition == "test":
                    for i in range(n_rec):
                        gold[f"{sid}#r{i}"] = (scenario, action, entities)
    return gold


def _render(label, keyword: str) -> str:
    scenario, action, entities = label
    body = "; ".join(f"{t}: {fill}" for t, fill in entities)
    return f"scenario: {scenario} | action: {action} | {keyword}: [{body}]"


def _perturb(label, rng: random.Random):
    scenario, action, entities = label
    entities = list(entities)
    kind = rng.randrange(4)
    if kind == 0 and entities:
        entities.pop(rng.randrange(len(entities)))
    elif kind == 1 and entities:
        k = rng.randrange(len(entities))
        etype, filler = entities[k]
        entities[k] = (etype, filler + " " + rng.choice(_WORDS))
    elif kind == 2 and entities:
        k = rng.randrange(len(entities))
        entities[k] = (rng.choice(_ENTITY_TYPES), entities[k][1])
    else:
        action = rng.choice([a for s in _INTENTS.values() for a in s])
    return scenario, action, entities


_CHATTER = ("Sure! Here is the parse ->", "Okay, my answer is", "Result =",
            "I think it is this one")
_JUNK = ("", "no idea", "scenario: | action: ", "action: query",
         "the weather is nice today", "[] [] []", "scenario = music; action = play")


def write_predictions(path: Path, seed: int, gold: dict[str, tuple]) -> dict[str, tuple]:
    """Free-form predictions, one per test recording.

    Returns utt_id -> the label each prediction string encodes, or None for
    junk that cannot be parsed, so the checks never depend on slumix's parser.
    """
    rng = random.Random(f"perfbench-preds-{seed}")
    expected = {}
    with open(path, "w", encoding="utf-8") as f:
        for utt_id in sorted(gold):
            label = gold[utt_id]
            u = rng.random()
            if u < 0.10:
                raw, label = rng.choice(_JUNK), None
            else:
                if u < 0.35:
                    label = _perturb(label, rng)
                raw = _render(label, "slots" if rng.random() < 0.1 else "entities")
                if u > 0.80:
                    raw = f"{rng.choice(_CHATTER)} {raw.upper() if u > 0.97 else raw}"
                    if u > 0.97:
                        # Upper-cased output: keys and intent normalise back,
                        # fillers keep their (now upper) case.
                        s, a, ents = label
                        label = (s, a, [(t, fill.upper()) for t, fill in ents])
            expected[utt_id] = label
            f.write(json.dumps({"utt_id": utt_id, "pred_raw": raw}) + "\n")
    return expected
