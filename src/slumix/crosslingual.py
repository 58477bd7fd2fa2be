"""Mixed-language training corpora for zero-shot and few-shot transfer.

Modes compose three ingredients: the source-language training data, a small
seeded few-shot sample per target language (transcripts only, or paired
transcripts+speech), and optionally the full target-language text-only NLU
corpus. ``no_source_*`` variants drop the source data entirely, and
``zero_shot`` uses the source alone (no target-language exposure at all).

Few-shot samples are the first ``fewshot_pairs`` items of one seeded
permutation per target language over its speech-paired training records, so
the T and T+S variants use the same underlying sample and repeated builds
with one seed are prefix-nested.

A combined corpus is a concatenation of parts: the source's train split
with its speech, a target's few-shot sample (with or without its speech) and
a text-only corpus's train split. Each part's records are built as new
``Utterance`` objects, their ids namespaced and, where the mode drops speech,
their speech references removed. A ``CorpusParts`` store builds each
target-side part once and serves it to every later call that asks for it;
the source part is built by each call, since a grid restricts the source's
speech anew for each speech level and seed. The combined corpus is checked
only for duplicate ids: combining changes nothing else of validated records.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .corpus import Corpus, Utterance, _check_ids_and_lang, filter_split
from .errors import ConfigError
from .scheduler import derive_seed, nested_permutation
from .trainer_recipes import is_int

CROSSLINGUAL_MODES = (
    "zero_shot",
    "T", "T_S", "T_M", "T_S_M",
    "no_source_T", "no_source_T_S", "no_source_T_M", "no_source_T_S_M",
)

DEFAULT_FEWSHOT_PAIRS = 115


def _namespaced(corpus_name: str, records, keep_speech: bool) -> list[Utterance]:
    return [Utterance(f"{corpus_name}/{r.id}", r.lang, r.split, r.text, r.label,
                      r.speech_ref if keep_speech else None)
            for r in records]


class CorpusParts:
    """The namespaced target-side record lists of combined corpora, each built
    once: a text-only corpus's train split, and a target's few-shot sample per
    (pairs, seed, speech kept). Parts are keyed by the corpus object and the
    store keeps that object alive, so every ``make_crosslingual_corpus`` call
    given the same corpora (a grid run loads each corpus once) shares them,
    and a store holds at most one copy of each such corpus's train split.
    Every part is a pure function of its key, so a call's output is the same
    with or without a store."""

    def __init__(self):
        self._parts: dict[tuple, tuple[Corpus, list[Utterance]]] = {}

    def get(self, corpus: Corpus, key: tuple,
            build: Callable[[], list[Utterance]]) -> list[Utterance]:
        entry = self._parts.get((id(corpus), *key))
        if entry is None:
            entry = self._parts[(id(corpus), *key)] = (corpus, build())
        return entry[1]


def _fewshot_records(target: Corpus, fewshot_pairs: int, seed: int) -> list[Utterance]:
    train = filter_split(target, "train")
    paired = [r for r in train.records if r.has_speech]
    if len(paired) < fewshot_pairs:
        raise ConfigError(
            f"target {target.name!r} has only {len(paired)} speech-paired train "
            f"records (need {fewshot_pairs})")
    order = nested_permutation([r.id for r in paired],
                               derive_seed(seed, "fewshot", target.lang))
    by_id = {r.id: r for r in paired}
    return [by_id[i] for i in order[:fewshot_pairs]]


def check_settings(modes: Sequence[str], fewshot_pairs) -> None:
    """The rules of combined corpora's settings: every one of ``modes`` is in
    ``CROSSLINGUAL_MODES``, and ``fewshot_pairs`` is an integer >= 0."""
    for mode in modes:
        if mode not in CROSSLINGUAL_MODES:
            raise ConfigError(f"unknown cross-lingual mode {mode!r} "
                              f"(expected one of {CROSSLINGUAL_MODES})")
    if not is_int(fewshot_pairs):
        raise ConfigError(f"fewshot_pairs must be an integer (got {fewshot_pairs!r})")
    if fewshot_pairs < 0:
        raise ConfigError(f"fewshot_pairs must be >= 0 (got {fewshot_pairs})")


def check_languages(source: Corpus, targets: Sequence[Corpus], massive: Sequence[Corpus],
                    modes: Sequence[str]) -> None:
    """The language rules of combined corpora: the source and the targets are
    in distinct languages, and if any of ``modes`` trains on text-only corpora
    (``T_M``, ``T_S_M`` and their ``no_source_`` forms), ``massive`` holds one
    in each target's language."""
    langs = [source.lang] + [t.lang for t in targets]
    if len(set(langs)) != len(langs):
        raise ConfigError(f"source/target languages must be distinct (got {langs})")
    mode = next((mode for mode in modes if mode.endswith("_M")), None)
    have = {c.lang for c in massive}
    missing = [lang for lang in langs[1:] if lang not in have]
    if mode is not None and missing:
        raise ConfigError(f"mode {mode!r}: no text-only corpus for target lang {missing[0]!r}")


def make_crosslingual_corpus(source: Corpus, targets: Sequence[Corpus],
                             massive_text: Optional[Sequence[Corpus]] = None,
                             mode: str = "zero_shot",
                             fewshot_pairs: int = DEFAULT_FEWSHOT_PAIRS,
                             seed: int = 0, parts: Optional[CorpusParts] = None) -> Corpus:
    """Combined training corpus for one cross-lingual mode.

    Only train splits are taken; evaluation always runs against the target
    corpora's own test splits. Record ids are namespaced by corpus name so
    same-numbered ids across languages cannot collide. The inputs must be
    validated corpora, as ``load_corpus`` returns them. Target-side parts
    come from ``parts`` (a store of its own if None).
    """
    check_settings((mode,), fewshot_pairs)

    base = mode
    use_source = not mode.startswith("no_source_")
    if not use_source:
        base = mode[len("no_source_"):]
    use_targets = base != "zero_shot"
    use_speech = base in ("T_S", "T_S_M")
    use_massive = base in ("T_M", "T_S_M")

    if use_targets and not targets:
        raise ConfigError(f"mode {mode!r} requires target corpora")
    if use_massive and massive_text is None:
        raise ConfigError(f"mode {mode!r} requires target-language text corpora")
    check_languages(source, targets, massive_text or (), (mode,))

    parts = CorpusParts() if parts is None else parts
    records: list[Utterance] = []
    if use_source:
        records += _namespaced(source.name, filter_split(source, "train").records,
                               keep_speech=True)

    if use_targets:
        for target in targets:
            records += parts.get(target, ("fewshot", fewshot_pairs, seed, use_speech),
                                 lambda: _namespaced(
                                     target.name, _fewshot_records(target, fewshot_pairs, seed),
                                     keep_speech=use_speech))

    if use_massive:
        by_lang = {c.lang: c for c in massive_text}
        for target in targets:
            extra = by_lang[target.lang]
            records += parts.get(extra, ("train",), lambda: _namespaced(
                extra.name, filter_split(extra, "train").records, keep_speech=False))

    combined = Corpus(name=f"xl-{mode}", lang="mul", records=records)
    _check_ids_and_lang(combined)
    return combined
