"""Desk-scale execution of mix plans, plus manifests for external trainers.

The reference learner is intentionally small: a multinomial linear intent
classifier over hashed token n-gram features trained by SGD under the cosine
schedule, plus a filler lexicon that accumulates gold (filler -> entity type)
counts from every item consumed. It exists to exercise plans, schemes and
metrics end to end with bit-for-bit determinism, not to approximate a real
audio LM; the real-model settings (optimizer, precision, beams, frozen
modules) travel only in the exported manifest.

A model holds its weights as one dense matrix, a row per hashed feature it
was trained on (``features``, ascending) and a column per class (``classes``,
ascending), as ``model.json`` stores them. Training and prediction run whole
batches through flat-index numpy kernels whose float sums follow the
per-item loops of ``tests/reference_trainer.py``, so both give the loops'
results bit for bit. numpy is imported only inside the functions that
compute with it, so a command that neither trains nor predicts never loads it.

Speech inputs are simulated by a seeded per-token corruption of the
transcript (substitution/deletion), so speech items contribute systematically
noisier features than their text counterparts.
"""

from __future__ import annotations

import base64
import json
import math
import zlib
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .corpus import UNPARSEABLE, Corpus, Entity, SemanticLabel
from .errors import TrainError
from .jsonio import read_json, write_json, write_text
from .scheduler import MixPlan, derive_rng, epoch_batches, plan_totals
from .trainer_recipes import TrainRecipe, epoch_phases, is_number, lr_at

if TYPE_CHECKING:
    import numpy as np

FEATURE_DIM = 2 ** 18  # hashed feature space; crc32 keeps it platform-stable
_SUB_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SpeechSimConfig:
    """Seeded token corruption standing in for the speech modality."""

    substitution_rate: float = 0.15
    deletion_rate: float = 0.10
    seed: int = 0

    def __post_init__(self):
        for name in ("substitution_rate", "deletion_rate"):
            rate = getattr(self, name)
            if not 0 <= rate <= 1:
                raise TrainError(f"{name} must be in [0, 1] (got {rate})")
        if self.substitution_rate + self.deletion_rate > 1:
            raise TrainError("substitution_rate + deletion_rate must be <= 1")


def tokenize(text: str) -> list[str]:
    return text.split()


def simulate_speech(text: str, cfg: SpeechSimConfig) -> list[str]:
    """Corrupted token sequence for a transcript; a pure function of
    (text, cfg), so the same utterance always renders the same way."""
    rng = derive_rng(cfg.seed, "speech-sim", text)
    out = []
    for token in tokenize(text):
        u = rng.random()
        if u < cfg.substitution_rate:
            out.append("".join(rng.choice(_SUB_ALPHABET)
                               for _ in range(rng.randint(2, 7))))
        elif u < cfg.substitution_rate + cfg.deletion_rate:
            continue
        else:
            out.append(token)
    return out


def hashed_features(tokens: Sequence[str]) -> dict[int, float]:
    """Unigram + bigram counts hashed into the fixed feature space."""
    feats: dict[int, float] = {}
    lowered = [t.lower() for t in tokens]
    grams = lowered + [f"{a} {b}" for a, b in zip(lowered, lowered[1:])]
    for gram in grams:
        idx = zlib.crc32(gram.encode("utf-8")) % FEATURE_DIM
        feats[idx] = feats.get(idx, 0.0) + 1.0
    return feats


def _zeros(shape, dtype: str = "float64") -> np.ndarray:
    import numpy as np
    return np.zeros(shape, dtype=dtype)


@dataclass
class ModelState:
    """Learned state: intent weights, filler lexicon, training trace and speech simulation.

    ``features`` holds the hashed features with a weight row, ascending, and
    ``weights`` their rows, one column per class."""

    classes: tuple[tuple[str, str], ...] = ()
    bias: Optional[np.ndarray] = None
    features: np.ndarray = field(default_factory=lambda: _zeros(0, "int64"))
    weights: np.ndarray = field(default_factory=lambda: _zeros((0, 0)))
    filler_lexicon: dict[str, dict[str, int]] = field(default_factory=dict)
    prior_intent: Optional[tuple[str, str]] = None
    train_log: list[dict] = field(default_factory=list)
    sim: Optional[SpeechSimConfig] = None

    @property
    def trained(self) -> bool:
        return bool(self.classes)


def _best_etype(counts: dict[str, int]) -> str:
    return min(counts, key=lambda t: (-counts[t], t))


def _lexicon_index(lexicon) -> tuple[dict[tuple[str, ...], Entity], dict[str, int]]:
    """Each filler's token tuple -> the entity it is predicted as (its best
    entity type), and each first token -> the most tokens of a filler it
    starts."""
    index: dict[tuple[str, ...], Entity] = {}
    longest: dict[str, int] = {}
    for filler, counts in lexicon.items():
        toks = tuple(tokenize(filler))
        if not toks:
            continue
        index[toks] = Entity(etype=_best_etype(counts), filler=" ".join(toks))
        longest[toks[0]] = max(longest.get(toks[0], 0), len(toks))
    return index, longest


def _fillers(tokens: tuple[str, ...], index: dict[tuple[str, ...], Entity],
             longest: dict[str, int]) -> tuple[Entity, ...]:
    """Longest-match scan of the tokens against the lexicon index, left to
    right, non-overlapping."""
    entities = []
    i, n = 0, len(tokens)
    while i < n:
        for length in range(min(longest.get(tokens[i], 0), n - i), 0, -1):
            entity = index.get(tokens[i:i + length])
            if entity is not None:
                entities.append(entity)
                i += length
                break
        else:
            i += 1
    return tuple(entities)


_PREDICT_ROWS = 256  # rows scored per matrix step, bounding its index arrays


class FeatureStore:
    """Tokens and hashed feature row of each distinct ``(text, sim)`` input,
    built once: ``sim`` is None for a transcript and the ``SpeechSimConfig``
    for simulated speech. ``rows`` returns the row numbers of inputs;
    ``tokens``, ``indices`` and ``counts`` hold each row, its features in
    ``hashed_features`` order. ``phase1_states`` holds the state ``train``
    reaches after curriculum's last phase-1 epoch (the features phase 1 read,
    the bias and their weight rows, and the phase-1 training log), keyed by
    what it is computed from, store rows included. One store may serve any
    number of ``train`` and ``predict_records`` calls, since every row and
    state is a pure function of its key; a grid run shares one."""

    def __init__(self):
        self._rows: dict[Optional[SpeechSimConfig], dict[str, int]] = {}
        self.tokens: list[tuple[str, ...]] = []
        self.indices: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []
        self.phase1_states: dict[tuple, tuple[np.ndarray, np.ndarray, list[dict]]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def rows(self, inputs: Iterable[tuple[str, bool]],
             sim: Optional[SpeechSimConfig]) -> list[int]:
        """The row number of each ``(text, spoken)`` input: a spoken one is
        simulated under ``sim`` (read as a transcript if ``sim`` is None)."""
        import numpy as np
        tables = (self._rows.setdefault(None, {}), self._rows.setdefault(sim, {}))
        out = []
        for text, spoken in inputs:
            table = tables[spoken]
            k = table.get(text)
            if k is None:
                k = table[text] = len(self.tokens)
                tokens = (simulate_speech(text, sim) if spoken and sim is not None
                          else tokenize(text))
                feats = hashed_features(tokens)
                self.tokens.append(tuple(tokens))
                self.indices.append(np.fromiter(feats, dtype=np.int64, count=len(feats)))
                self.counts.append(np.fromiter(feats.values(), dtype=np.float64,
                                               count=len(feats)))
            out.append(k)
        return out

    def predict(self, model: ModelState, rows: Sequence[int]) -> list[SemanticLabel]:
        """The model's label for each row: intent by argmax over the linear
        model (a row without features takes ``prior_intent``); entities by
        longest-match scan of the row's tokens against the learned filler
        lexicon. An untrained model gives unparseable labels.

        Each row's logits are its bias plus its known features' weight rows
        scaled by their counts, summed in the row's feature order, and the
        first of equal top logits wins: ``classes`` is sorted, so that is the
        least class."""
        import numpy as np
        if not model.trained:
            return [UNPARSEABLE] * len(rows)
        index, longest = _lexicon_index(model.filler_lexicon)
        classes, n_classes = model.classes, len(model.classes)
        class_cols = np.arange(n_classes)
        labels = []
        for start in range(0, len(rows), _PREDICT_ROWS):
            chunk = rows[start:start + _PREDICT_ROWS]
            lens = [len(self.indices[k]) for k in chunk]
            hashed = np.concatenate([self.indices[k] for k in chunk])
            counts = np.concatenate([self.counts[k] for k in chunk])
            at = np.searchsorted(model.features, hashed)
            # -1 past the last feature matches no hashed feature
            known = np.append(model.features, -1)[at] == hashed
            entry_rows = np.repeat(np.arange(len(chunk)), lens)[known]
            logits = np.tile(model.bias, len(chunk))
            np.add.at(logits, (entry_rows[:, None] * n_classes + class_cols).ravel(),
                      (counts[known, None] * model.weights[at[known]]).ravel())
            winners = logits.reshape(len(chunk), n_classes).argmax(axis=1).tolist()
            for k, n, winner in zip(chunk, lens, winners):
                scenario, action = classes[winner] if n else model.prior_intent
                labels.append(SemanticLabel(scenario=scenario, action=action,
                                            entities=_fillers(self.tokens[k], index, longest)))
        return labels


def train(plan: MixPlan, corpus: Corpus, recipe: TrainRecipe,
          sim: SpeechSimConfig, features: Optional[FeatureStore] = None) -> ModelState:
    """Run the plan through the reference learner.

    Consumes epochs and batches exactly as ``epoch_batches`` dictates; the
    per-epoch item counts in the training log therefore match ``plan_totals``
    identically. Fully deterministic in (plan, corpus, recipe, sim).

    Each item's tokens and feature row come from ``features``, which holds
    one row per distinct (text, sim) input: a transcript is keyed by its text
    and None, a speech item by its text and ``sim``. A store shared across
    calls simulates and hashes each input once per run; without one, the call
    builds its own.

    The weights are one dense matrix whose row 0 is the bias and whose other
    rows are the model's ``features``, ascending. The bias starts at +0.0 and
    each feature row at -0.0, so a batch subtracts its update from its rows:
    ``-0.0 - y`` is ``-y`` for every float ``y``, the ``-scale * g`` that the
    per-item loop stores at a feature's first update, and an untouched row
    adds -0.0, which changes no logit. Each batch is one matrix step: its
    logits are one flat ``np.add.at`` and its gradient one ``np.bincount``
    over the batch's own distinct rows (one ``np.unique`` over every batch's
    (batch, row) pairs finds them before the first batch), whose float sums
    run in the order of the per-item loop in ``tests/reference_trainer.py``,
    so the model is the same bit for bit. A batch's work therefore grows with
    its own entries, not the vocabulary.

    When a phase-2 epoch follows phase 1 (curriculum), the state after the
    last phase-1 epoch also goes into the store, keyed by all it is computed
    from: the classes, the recipe, the batches of each phase-1 epoch and each
    phase-1 item's store row and target. A later call whose phase 1 has the
    same key, such as curriculum at another speech level of the same corpus
    and seed, starts from that state at phase 2: the bias and the rows of the
    features phase 1 read, restored by feature.
    """
    import numpy as np
    features = FeatureStore() if features is None else features
    by_id = corpus.by_id()
    all_batches = [epoch_batches(plan, e, recipe.batch_size, plan.config.seed)
                   for e in range(1, plan.config.epochs + 1)]
    flat = [key for epoch in all_batches for batch in epoch for key in batch]
    if not flat:
        raise TrainError("plan contains no training items")

    # k numbers the distinct (item id, modality) keys in first-use order.
    keys = dict.fromkeys(flat)
    utts = []
    for k, key in enumerate(keys):
        utt = by_id.get(key[0])
        if utt is None:
            raise TrainError(f"plan item {key[0]!r} not found in corpus")
        utts.append(utt)
        keys[key] = k
    stream = np.fromiter(map(keys.__getitem__, flat), dtype=np.intp, count=len(flat))
    spoken = [modality == "speech" for _, modality in keys]
    rows = features.rows(zip([utt.text for utt in utts], spoken), sim)

    # Counts scaled by each key's multiplicity are the stream's integer sums,
    # and keys in k order touch fillers and entity types in the stream's order.
    multiplicity = np.bincount(stream, minlength=len(utts)).tolist()
    intents = [utt.label.intent for utt in utts]
    lexicon: dict[str, dict[str, int]] = {}
    intent_counts: dict[tuple[str, str], int] = {}
    for utt, intent, m in zip(utts, intents, multiplicity):
        intent_counts[intent] = intent_counts.get(intent, 0) + m
        for ent in utt.label.entities:
            slots = lexicon.setdefault(ent.filler, {})
            slots[ent.etype] = slots.get(ent.etype, 0) + m

    # Row 0 of the weight matrix is the bias, which each item reads first
    # with count 1; row r >= 1 is the hashed feature vocab[r - 1].
    lens = np.array([len(features.indices[r]) for r in rows], dtype=np.intp)
    hashed = np.concatenate([features.indices[r] for r in rows])
    vocab, inverse = np.unique(hashed, return_inverse=True)
    # Key k's entries, its bias first: weight rows key_feats[indptr[k]:indptr[k + 1]]
    # read with counts key_counts[indptr[k]:indptr[k + 1]].
    indptr = np.concatenate(([0], np.cumsum(lens + 1)))
    is_feature = np.ones(indptr[-1], dtype=bool)
    is_feature[indptr[:-1]] = False
    key_feats = np.zeros(indptr[-1], dtype=np.intp)
    key_feats[is_feature] = inverse + 1
    key_counts = np.ones(indptr[-1])
    key_counts[is_feature] = np.concatenate([features.counts[r] for r in rows])

    classes = tuple(sorted(intent_counts))
    class_of = {c: i for i, c in enumerate(classes)}
    targets = np.array([class_of[intent] for intent in intents], dtype=np.intp)
    n_classes = len(classes)

    # Each phase runs its own warmup+decay over its own step span.
    phase_of_epoch = epoch_phases(plan.config.scheme, plan.config.epochs)
    epoch_lens = [len(epoch) for epoch in all_batches]
    phase_steps = {1: 0, 2: 0}
    for phase, n_batches in zip(phase_of_epoch, epoch_lens):
        phase_steps[phase] += n_batches
    batch_lens = [len(batch) for epoch in all_batches for batch in epoch]
    epoch_items = [sum(len(batch) for batch in epoch) for epoch in all_batches]
    item_at = np.cumsum([0] + epoch_items).tolist()
    speech_at = np.concatenate(([0], np.cumsum(np.array(spoken, dtype=np.intp)[stream])))
    epoch_speech = np.diff(speech_at[item_at]).tolist()

    weights = np.full((len(vocab) + 1, n_classes), -0.0)
    weights[0] = 0.0
    train_log: list[dict] = []
    step_in_phase = {1: 0, 2: 0}
    start = skip = 0  # first epoch and first batch to run
    split = phase_of_epoch.index(2) if 2 in phase_of_epoch else None
    if split is not None:
        phase1 = stream[:item_at[split]]
        phase1_key = (classes, recipe,
                      tuple(tuple(map(len, epoch)) for epoch in all_batches[:split]),
                      np.array(rows)[phase1].tobytes(), targets[phase1].tobytes())
        cached = features.phase1_states.get(phase1_key)
        if cached is not None:
            phase1_feats, phase1_rows, log = cached
            weights[np.append(0, np.searchsorted(vocab, phase1_feats) + 1)] = phase1_rows
            train_log = [dict(rec) for rec in log]
            step_in_phase[1] = phase_steps[1]
            start, skip = split, sum(epoch_lens[:split])

    # Flat index arrays of the items and entries still to run, in stream
    # order: run batch j holds items batch_at[j]:batch_at[j+1], entries
    # entry_at[j]:entry_at[j+1] and distinct weight rows
    # uniq[uniq_at[j]:uniq_at[j+1]], ascending; entry_slot is each entry's
    # place among its batch's distinct rows.
    run_keys = stream[item_at[start]:]
    run_lens = batch_lens[skip:]
    batch_at = np.cumsum([0] + run_lens)
    item_batch = np.repeat(np.arange(len(run_lens)), run_lens)
    item_row = np.arange(len(run_keys)) - batch_at[item_batch]
    item_targets = targets[run_keys]
    target_at = item_row * n_classes + item_targets  # in the batch's flat logits
    item_lens = lens[run_keys] + 1
    entry_start = np.concatenate(([0], np.cumsum(item_lens)))
    entries = np.arange(entry_start[-1]) + np.repeat(indptr[run_keys] - entry_start[:-1],
                                                     item_lens)
    entry_rows = np.repeat(item_row, item_lens)
    entry_batch = np.repeat(item_batch, item_lens)
    entry_feats = key_feats[entries]
    entry_counts = key_counts[entries, None]
    n_rows = len(vocab) + 1
    uniq, entry_slot = np.unique(entry_batch * n_rows + entry_feats, return_inverse=True)
    uniq_at = np.searchsorted(uniq, np.arange(len(run_lens) + 1) * n_rows)
    entry_slot -= uniq_at[entry_batch]
    uniq %= n_rows
    entry_at = entry_start[batch_at].tolist()
    batch_at, uniq_at = batch_at.tolist(), uniq_at.tolist()
    del entries, entry_batch, item_batch
    logit_at = entry_rows * n_classes  # first flat logit of each entry
    grad_at = entry_slot * n_classes  # first flat gradient of each entry
    class_cols = np.arange(n_classes)
    predicted = np.empty(len(run_keys), dtype=np.intp)
    log = math.log

    j = 0
    for e0 in range(start, len(all_batches)):
        phase = phase_of_epoch[e0]
        loss_sum = 0.0
        for _ in range(epoch_lens[e0]):
            lr = lr_at(recipe, step_in_phase[phase], phase_steps[phase], phase)
            step_in_phase[phase] += 1
            i0, i1 = batch_at[j], batch_at[j + 1]
            n0, n1 = entry_at[j], entry_at[j + 1]
            n_items = i1 - i0
            batch_counts = entry_counts[n0:n1]
            batch_targets = target_at[i0:i1]

            # np.add.at applies entries in order: each item's bias, then its
            # features, as the per-item sum does.
            terms = weights.take(entry_feats[n0:n1], axis=0)
            terms *= batch_counts
            logits = np.zeros(n_items * n_classes)
            np.add.at(logits, (logit_at[n0:n1, None] + class_cols).ravel(), terms.ravel())
            logits = logits.reshape(n_items, n_classes)
            logits -= logits.max(axis=1, keepdims=True)
            predicted[i0:i1] = logits.argmax(axis=1)
            probs = np.exp(logits, out=logits)
            probs /= probs.sum(axis=1, keepdims=True)
            flat_probs = probs.ravel()
            for p in np.maximum(flat_probs[batch_targets], 1e-300).tolist():
                loss_sum -= log(p)
            flat_probs[batch_targets] -= 1.0  # probs now holds d loss / d logits

            # bincount adds each weight row's entries in item order, as the
            # per-item gradient does, into a block of the batch's distinct rows.
            batch_uniq = uniq[uniq_at[j]:uniq_at[j + 1]]
            terms = probs.take(entry_rows[n0:n1], axis=0)
            terms *= batch_counts
            grad = np.bincount((grad_at[n0:n1, None] + class_cols).ravel(), terms.ravel(),
                               len(batch_uniq) * n_classes).reshape(-1, n_classes)
            grad *= lr / n_items
            weights[batch_uniq] -= grad
            j += 1
        n_items, n_speech = epoch_items[e0], epoch_speech[e0]
        i0, i1 = item_at[e0] - item_at[start], item_at[e0 + 1] - item_at[start]
        hits = int(np.count_nonzero(predicted[i0:i1] == item_targets[i0:i1]))
        train_log.append({
            "epoch": e0 + 1,
            "text_items": n_items - n_speech,
            "speech_items": n_speech,
            "mean_loss": loss_sum / n_items if n_items else 0.0,
            "train_intent_accuracy": hits / n_items if n_items else 0.0,
        })
        if e0 + 1 == split:
            # Phase 1 ran as batches 0..j-1; the bias is cached even if it had no items.
            read = np.zeros(len(weights), dtype=bool)
            read[np.append(0, uniq[:uniq_at[j]])] = True
            at = np.flatnonzero(read)
            features.phase1_states[phase1_key] = (vocab[at[1:] - 1], weights[at],
                                                  [dict(rec) for rec in train_log])
    model = ModelState(classes=classes, bias=weights[0].copy(), features=vocab,
                       weights=weights[1:], filler_lexicon=lexicon,
                       prior_intent=min(intent_counts, key=lambda c: (-intent_counts[c], c)),
                       train_log=train_log, sim=sim)

    totals = plan_totals(plan)
    logged = [(rec["text_items"], rec["speech_items"]) for rec in train_log]
    planned = list(zip(totals["per_epoch_text"], totals["per_epoch_speech"]))
    if logged != planned:
        raise TrainError(f"consumed item counts {logged} diverged from the plan {planned}")
    return model


def _b64(arr: np.ndarray) -> str:
    return base64.b64encode(arr.astype(float, copy=False).tobytes()).decode()


def _unb64(blob: str, shape) -> np.ndarray:
    import numpy as np
    return np.frombuffer(base64.b64decode(blob), dtype=np.float64).reshape(shape).copy()


def model_to_dict(model: ModelState) -> dict:
    return {
        "kind": "model_state",
        "model_version": 1,
        "feature_dim": FEATURE_DIM,
        "classes": [list(c) for c in model.classes],
        "bias": None if model.bias is None else _b64(model.bias),
        "features": model.features.tolist(),
        "weights": _b64(model.weights),
        "filler_lexicon": model.filler_lexicon,
        "prior_intent": None if model.prior_intent is None else list(model.prior_intent),
        "train_log": model.train_log,
        "sim": asdict(model.sim),
    }


def sim_from_dict(obj, where: str, seeded: bool = True) -> SpeechSimConfig:
    """The speech simulation an object names: known fields only (``seed``
    only if ``seeded``), each a number that is not a bool. Errors name
    ``where``, the object's place in its file."""
    if not isinstance(obj, dict):
        raise TrainError(f"{where} is not an object")
    known = {f.name for f in fields(SpeechSimConfig) if seeded or f.name != "seed"}
    for name, value in obj.items():
        if name not in known:
            raise TrainError(f"{where} has unknown field {name!r}")
        if not is_number(value):
            raise TrainError(f"{where} has a non-numeric field {name!r}")
    try:
        return SpeechSimConfig(**obj)
    except TrainError as exc:
        raise TrainError(f"{where}: {exc}") from exc


def model_from_dict(obj: dict, where: str = "model") -> ModelState:
    """The model an object holds; errors name ``where``, the model's place.

    ``classes`` must be strictly increasing pairs of strings (the first of
    equal top logits is then the least class), with a bias exactly when there
    are any, and ``features`` strictly increasing integers in the hashed
    feature space, one per weight row; ``filler_lexicon`` counts integers >= 1,
    and ``prior_intent`` one of the classes, null when there are none."""
    import numpy as np
    if obj["feature_dim"] != FEATURE_DIM:
        raise TrainError(f"{where} was trained on {obj['feature_dim']} hashed features, "
                         f"not {FEATURE_DIM}")
    if not all(isinstance(c, list) and len(c) == 2 and all(isinstance(s, str) for s in c)
               for c in obj["classes"]):
        raise ValueError("classes are not pairs of strings")
    classes = tuple(tuple(c) for c in obj["classes"])
    if any(a >= b for a, b in zip(classes, classes[1:])):
        raise ValueError("classes are not strictly increasing")
    if (obj["bias"] is None) != (not classes):
        raise ValueError("a model has a bias exactly when it has classes")
    features = obj["features"]
    if not (isinstance(features, list)
            and all(type(f) is int and 0 <= f < FEATURE_DIM for f in features)):
        raise ValueError(f"features are not integers in [0, {FEATURE_DIM})")
    if any(a >= b for a, b in zip(features, features[1:])):
        raise ValueError("features are not strictly increasing")
    lexicon = obj["filler_lexicon"]
    if not (isinstance(lexicon, dict) and all(isinstance(c, dict) and c and all(
            type(n) is int and n >= 1 for n in c.values()) for c in lexicon.values())):
        raise ValueError("filler_lexicon is not an object of objects of counts >= 1")
    prior = obj["prior_intent"]
    if (tuple(prior) if isinstance(prior, list) else prior) not in (classes or (None,)):
        raise ValueError("prior_intent is not one of the classes (null when there are none)")
    return ModelState(
        classes=classes,
        bias=None if obj["bias"] is None else _unb64(obj["bias"], (len(classes),)),
        features=np.array(features, dtype=np.int64),
        weights=_unb64(obj["weights"], (len(features), len(classes))),
        filler_lexicon={k: dict(v) for k, v in lexicon.items()},
        prior_intent=None if prior is None else tuple(prior),
        train_log=list(obj["train_log"]),
        sim=sim_from_dict(obj["sim"], f"{where} field 'sim'"),
    )


def save_model(model: ModelState, path) -> None:
    """``model_to_dict`` as one line of JSON, with the base64 weights (which
    need no escaping) spliced in at their key, past the encoder's escape scan."""
    obj = model_to_dict(model)
    weights, obj["weights"] = obj["weights"], ""
    head, tail = json.dumps(obj, ensure_ascii=False).split('"weights": ""', 1)
    write_text(path, f'{head}"weights": "{weights}"{tail}')


def load_model(path) -> ModelState:
    return read_json(path, TrainError, "model",
                     lambda obj: model_from_dict(obj, f"{path}: model"))


FREEZE_HINT_TEXT_ONLY = ("audio_encoder", "adapter")


def export_manifest(plan: MixPlan, recipe: TrainRecipe, corpus_ref: str,
                    path=None) -> dict:
    """Replayable description of the run for external (real-model) trainers:
    per-epoch item lists, per-phase LR schedule, batching and decode hints."""
    phase_of_epoch = epoch_phases(plan.config.scheme, plan.config.epochs)
    phases = []
    for phase in sorted(set(phase_of_epoch)):
        peak_lr, warmup_ratio = recipe.phase_settings(phase)
        phases.append({"phase": phase, "schedule": "cosine", "peak_lr": peak_lr,
                       "warmup_ratio": warmup_ratio,
                       "epochs": [e for e, p in enumerate(phase_of_epoch, 1) if p == phase]})
    manifest = {
        "kind": "train_manifest",
        "manifest_version": 1,
        "scheme": plan.config.scheme,
        "speech_proportion": plan.config.p,
        "seed": plan.config.seed,
        "corpus_ref": str(corpus_ref),
        "batch_size": recipe.batch_size,
        "grad_accum": recipe.grad_accum,
        "optimizer_hint": "adamw",
        "precision_hint": "bfloat16",
        "decode_hint": {"strategy": "beam_search", "beams": recipe.beams},
        "freeze": list(FREEZE_HINT_TEXT_ONLY) if plan.config.scheme == "text_only" else [],
        "lr_phases": phases,
        "epochs": [{"epoch": ep.epoch, "text_item_ids": list(ep.text_item_ids),
                    "speech_item_ids": list(ep.speech_item_ids)} for ep in plan.epochs],
        "totals": plan_totals(plan),
    }
    if path is not None:
        write_json(path, manifest)
    return manifest
