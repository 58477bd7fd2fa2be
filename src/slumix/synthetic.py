"""Deterministic synthetic corpus for desk-scale runs and tests.

Templates cover a handful of assistant-style scenarios with slot fillers that
appear verbatim in the transcript, so both the intent classifier and the
filler lexicon of the reference learner have signal to pick up. Every record
carries a ``sim://`` speech reference, which the trainer renders through the
speech-corruption simulator.
"""

from __future__ import annotations

from .corpus import Corpus, Entity, SemanticLabel, Utterance, validate_corpus
from .errors import ConfigError
from .scheduler import derive_rng

_FILLERS = {
    "time": ["seven am", "nine pm", "six thirty", "noon", "midnight", "eight fifteen"],
    "date": ["monday", "tomorrow", "next friday", "march second", "the weekend"],
    "person": ["alice", "uncle bob", "doctor smith", "maria", "my boss"],
    "place": ["new york", "the office", "rome", "central park", "the gym"],
    "artist": ["queen", "the beatles", "miles davis", "nina simone"],
    "song": ["bohemian rhapsody", "yesterday", "so what", "feeling good"],
    "food": ["two pizzas", "a caesar salad", "sushi", "pad thai"],
    "device": ["the kitchen lights", "the heater", "the tv", "the front door"],
}

# scenario -> action -> transcript templates ({slot} names key into _FILLERS)
_TEMPLATES = {
    "alarm": {
        "set": ["wake me up at {time}", "set an alarm for {time} on {date}",
                "i need an alarm at {time}"],
        "cancel": ["cancel my {time} alarm", "remove the alarm for {date}",
                   "stop all my alarms"],
    },
    "music": {
        "play": ["play {song} by {artist}", "put on some {artist}",
                 "i want to hear {song}"],
        "stop": ["stop the music now", "turn the song off", "pause {song}"],
    },
    "weather": {
        "query": ["what is the weather in {place}", "will it rain on {date}",
                  "forecast for {place} please"],
    },
    "calendar": {
        "add": ["schedule a meeting with {person} on {date}",
                "add lunch with {person} at {time}"],
        "remove": ["delete my meeting on {date}", "clear my calendar for {date}"],
    },
    "takeaway": {
        "order": ["order {food} from downtown", "get me {food} for {time}"],
        "query": ["where is my {food} order", "how long until the {food} arrives"],
    },
    "iot": {
        "on": ["turn on {device}", "switch {device} on please"],
        "off": ["turn off {device}", "power down {device}"],
    },
    "transport": {
        "taxi": ["book a taxi to {place}", "get me a cab to {place} at {time}"],
        "query": ["when is the next train to {place}", "traffic to {place} right now"],
    },
    "social": {
        "post": ["tell {person} i am running late", "message {person} about {date}"],
        "query": ["any news from {person}", "did {person} reply yet"],
    },
}


def make_synthetic_corpus(n: int = 2000, seed: int = 0, lang: str = "xx",
                          name: str = "synthetic") -> Corpus:
    """Generate n utterances with train/dev/test splits of roughly 70/15/15."""
    if n < 1:
        raise ConfigError(f"a synthetic corpus needs n >= 1 (got {n})")
    rng = derive_rng(seed, "synthetic-corpus")
    # (scenario, action, template, the template's slots in _FILLERS order)
    flat = [(scenario, action, template, [s for s in _FILLERS if f"{{{s}}}" in template])
            for scenario, actions in _TEMPLATES.items()
            for action, templates in actions.items()
            for template in templates]
    labels = {}  # one object per distinct label, as the corpus readers share them
    records = []
    n_train = int(n * 0.7)
    n_dev = int(n * 0.15)
    for i in range(n):
        scenario, action, template, slots = rng.choice(flat)
        pairs = tuple((slot, rng.choice(_FILLERS[slot])) for slot in slots)
        if (scenario, action, pairs) not in labels:
            labels[scenario, action, pairs] = SemanticLabel(
                scenario=scenario, action=action,
                entities=tuple(Entity(etype=s, filler=f) for s, f in pairs))
        split = "train" if i < n_train else ("dev" if i < n_train + n_dev else "test")
        uid = f"syn-{split}-{i:05d}"
        records.append(Utterance(
            id=uid, lang=lang, split=split, text=template.format_map(dict(pairs)),
            speech_ref=f"sim://{uid}", label=labels[scenario, action, pairs]))
    corpus = Corpus(name=name, lang=lang, records=records)
    validate_corpus(corpus)
    return corpus
