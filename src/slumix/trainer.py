"""Desk-scale execution of mix plans, plus manifests for external trainers.

The reference learner is intentionally small: a multinomial linear intent
classifier over hashed token n-gram features trained by SGD under the cosine
schedule, plus a filler lexicon that accumulates gold (filler -> entity type)
counts from every item consumed. It exists to exercise plans, schemes and
metrics end to end with bit-for-bit determinism, not to approximate a real
audio LM; the real-model settings (optimizer, precision, beams, frozen
modules) travel only in the exported manifest.

Speech inputs are simulated by a seeded per-token corruption of the
transcript (substitution/deletion), so speech items contribute systematically
noisier features than their text counterparts.
"""

from __future__ import annotations

import base64
import math
import zlib
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .corpus import UNPARSEABLE, Corpus, Entity, SemanticLabel
from .errors import TrainError
from .jsonio import read_json, write_json
from .scheduler import MixPlan, derive_rng, epoch_batches, plan_totals
from .trainer_recipes import TrainRecipe, epoch_phases, is_number, lr_at

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


@dataclass
class ModelState:
    """Learned state: intent weights, filler lexicon, training trace and speech simulation."""

    classes: tuple[tuple[str, str], ...] = ()
    bias: Optional[np.ndarray] = None
    weights: dict[int, np.ndarray] = field(default_factory=dict)
    filler_lexicon: dict[str, dict[str, int]] = field(default_factory=dict)
    prior_intent: Optional[tuple[str, str]] = None
    train_log: list[dict] = field(default_factory=list)
    sim: Optional[SpeechSimConfig] = None

    @property
    def trained(self) -> bool:
        return bool(self.classes)


def _best_etype(counts: dict[str, int]) -> str:
    return min(counts, key=lambda t: (-counts[t], t))


def _lexicon_index(lexicon) -> tuple[dict[tuple[str, ...], str], int]:
    index = {}
    max_len = 0
    for filler, counts in lexicon.items():
        toks = tuple(tokenize(filler))
        if not toks:
            continue
        index[toks] = _best_etype(counts)
        max_len = max(max_len, len(toks))
    return index, max_len


class FeatureStore:
    """Tokens and hashed feature row of each distinct ``(text, sim)`` input,
    built once: ``sim`` is None for a transcript and the ``SpeechSimConfig``
    for simulated speech. ``row(text, sim)`` returns the input's row number;
    ``tokens``, ``indices`` and ``counts`` hold each row, its features in
    ``hashed_features`` order. ``phase1_states`` holds the state ``train``
    reaches after curriculum's last phase-1 epoch (bias, the weight rows of
    the features seen so far, and the phase-1 training log), keyed by what
    it is computed from, store rows included. One store may serve any number
    of ``train`` and ``predict_records`` calls, since every row and state is
    a pure function of its key; a grid run shares one."""

    def __init__(self):
        self._rows: dict[tuple[str, Optional[SpeechSimConfig]], int] = {}
        self.tokens: list[tuple[str, ...]] = []
        self.indices: list[np.ndarray] = []
        self.counts: list[np.ndarray] = []
        self.phase1_states: dict[tuple, tuple[np.ndarray, np.ndarray, list[dict]]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def row(self, text: str, sim: Optional[SpeechSimConfig]) -> int:
        k = self._rows.get((text, sim))
        if k is None:
            k = self._rows[(text, sim)] = len(self.tokens)
            tokens = tokenize(text) if sim is None else simulate_speech(text, sim)
            feats = hashed_features(tokens)
            self.tokens.append(tuple(tokens))
            self.indices.append(np.fromiter(feats, dtype=np.int64, count=len(feats)))
            self.counts.append(np.fromiter(feats.values(), dtype=np.float64,
                                           count=len(feats)))
        return k

    def predict(self, model: ModelState, rows: Sequence[int]) -> list[SemanticLabel]:
        """The model's label for each row: intent by argmax over the linear
        model; entities by longest-match scan of the row's tokens against the
        learned filler lexicon (left to right, non-overlapping). An untrained
        model gives unparseable labels."""
        if not model.trained:
            return [UNPARSEABLE] * len(rows)
        index, max_len = _lexicon_index(model.filler_lexicon)
        return [_predict(model, self.tokens[k], self.indices[k].tolist(),
                         self.counts[k].tolist(), index, max_len) for k in rows]


def _predict(model: ModelState, tokens: Sequence[str], indices: list[int],
             counts: list[float], index: dict[tuple[str, ...], str],
             max_len: int) -> SemanticLabel:
    if not indices:
        scenario, action = model.prior_intent
        return SemanticLabel(scenario=scenario, action=action, entities=())
    logits = model.bias.copy()
    for idx, count in zip(indices, counts):
        w = model.weights.get(idx)
        if w is not None:
            logits += count * w
    best = logits.max()
    winner = min(c for c, l in zip(model.classes, logits) if l == best)

    entities = []
    i, n = 0, len(tokens)
    while i < n:
        hit = None
        for length in range(min(max_len, n - i), 0, -1):
            span = tuple(tokens[i:i + length])
            if span in index:
                hit = (index[span], " ".join(span), length)
                break
        if hit is None:
            i += 1
        else:
            entities.append(Entity(etype=hit[0], filler=hit[1]))
            i += hit[2]
    return SemanticLabel(scenario=winner[0], action=winner[1], entities=tuple(entities))


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
    builds its own. Each batch is one matrix step whose float sums run in the
    order of the per-item loop in ``tests/reference_trainer.py``, and the
    feature columns are ranked by first occurrence in the item stream, so the
    model is the same bit for bit.

    When a phase-2 epoch follows phase 1 (curriculum), the state after the
    last phase-1 epoch also goes into the store, keyed by all it is computed
    from: the classes, the recipe, the batches of each phase-1 epoch and each
    phase-1 item's store row and target. A later call whose phase 1 has the
    same key, such as curriculum at another speech level of the same corpus
    and seed, starts from that state at phase 2. Phase-1 features take the
    lowest columns, so the cached weight rows fit any later call's matrix.
    """
    features = FeatureStore() if features is None else features
    by_id = corpus.by_id()
    all_batches = [epoch_batches(plan, e, recipe.batch_size, plan.config.seed)
                   for e in range(1, plan.config.epochs + 1)]
    if not any(batch for epoch in all_batches for batch in epoch):
        raise TrainError("plan contains no training items")

    keys: dict[tuple[str, str], int] = {}  # (item id, modality) -> k, in first-use order
    labels: list[SemanticLabel] = []
    rows: list[int] = []  # store row of each k
    stream: list[int] = []  # k of each item, in stream order
    batch_lens: list[int] = []  # items of each batch, in stream order
    for epoch in all_batches:
        for batch in epoch:
            for key in batch:
                k = keys.get(key)
                if k is None:
                    item_id, modality = key
                    utt = by_id.get(item_id)
                    if utt is None:
                        raise TrainError(f"plan item {item_id!r} not found in corpus")
                    k = keys[key] = len(labels)
                    labels.append(utt.label)
                    rows.append(features.row(utt.text, sim if modality == "speech" else None))
                stream.append(k)
            batch_lens.append(len(batch))
    stream = np.array(stream)

    # Counts scaled by each key's multiplicity are the stream's integer sums,
    # and keys in k order touch fillers and entity types in the stream's order.
    multiplicity = np.bincount(stream, minlength=len(labels))
    lexicon: dict[str, dict[str, int]] = {}
    intent_counts: dict[tuple[str, str], int] = {}
    for label, m in zip(labels, multiplicity.tolist()):
        intent_counts[label.intent] = intent_counts.get(label.intent, 0) + m
        for ent in label.entities:
            slots = lexicon.setdefault(ent.filler, {})
            slots[ent.etype] = slots.get(ent.etype, 0) + m

    # Columns of the weight matrix are the hashed features ranked by first
    # occurrence in the rows of keys 0, 1, ..., the order in which the stream
    # first touches them, so a batch's new features have the highest columns.
    lens = np.array([len(features.indices[r]) for r in rows])
    indptr = np.concatenate(([0], np.cumsum(lens)))
    hashed = np.concatenate([features.indices[r] for r in rows])
    counts = np.concatenate([features.counts[r] for r in rows])
    distinct, first_at, inverse = np.unique(hashed, return_index=True, return_inverse=True)
    by_first = np.argsort(first_at)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    cols = rank[inverse]
    vocab = distinct[by_first].tolist()  # column -> hashed feature

    classes = tuple(sorted({label.intent for label in labels}))
    targets = np.array([classes.index(label.intent) for label in labels])
    n_classes = len(classes)
    model = ModelState(classes=classes, bias=np.zeros(n_classes), filler_lexicon=lexicon,
                       prior_intent=min(intent_counts, key=lambda c: (-intent_counts[c], c)),
                       sim=sim)

    # Each phase runs its own warmup+decay over its own step span.
    phase_of_epoch = epoch_phases(plan.config.scheme, plan.config.epochs)
    phase_steps = {1: 0, 2: 0}
    for e0, epoch in enumerate(all_batches):
        phase_steps[phase_of_epoch[e0]] += len(epoch)

    weights = np.zeros((len(vocab), n_classes))
    touched = 0  # feature rows below this have had an update
    step_in_phase = {1: 0, 2: 0}
    start = skip = 0  # first epoch and first batch to run
    split = phase_of_epoch.index(2) if 2 in phase_of_epoch else None
    if split is not None:
        phase1_batches = sum(len(epoch) for epoch in all_batches[:split])
        phase1 = stream[:sum(batch_lens[:phase1_batches])]
        phase1_key = (classes, recipe,
                      tuple(tuple(map(len, epoch)) for epoch in all_batches[:split]),
                      np.array(rows)[phase1].tobytes(), targets[phase1].tobytes())
        cached = features.phase1_states.get(phase1_key)
        if cached is not None:
            bias, touched_rows, log = cached
            model.bias = bias.copy()
            touched = len(touched_rows)
            weights[:touched] = touched_rows
            model.train_log = [dict(rec) for rec in log]
            step_in_phase[1] = phase_steps[1]
            start, skip = split, phase1_batches

    # Index arrays of every batch to run, built in one pass: run batch j holds
    # items item_at[j]:item_at[j+1], their feature entries
    # entry_at[j]:entry_at[j+1] and its distinct columns uniq_at[j]:uniq_at[j+1].
    n_cols = len(vocab)
    run_lens = np.array(batch_lens[skip:], dtype=np.int64)
    run_keys = stream[sum(batch_lens[:skip]):]
    item_at = np.concatenate(([0], np.cumsum(run_lens)))
    item_batch = np.repeat(np.arange(len(run_lens)), run_lens)
    item_row = np.arange(len(run_keys)) - item_at[item_batch]  # row within its batch
    item_targets = targets[run_keys]
    item_lens = indptr[run_keys + 1] - indptr[run_keys]
    entry_start = np.concatenate(([0], np.cumsum(item_lens)))
    # positions in cols/counts of the items' entries, in item order
    entries = np.arange(entry_start[-1]) + np.repeat(indptr[run_keys] - entry_start[:-1],
                                                     item_lens)
    entry_row = np.repeat(item_row, item_lens)
    entry_batch = np.repeat(item_batch, item_lens)
    entry_cols = cols[entries]
    entry_counts = counts[entries, None]
    uniq, uniq_inverse = np.unique(entry_batch * n_cols + entry_cols, return_inverse=True)
    uniq_at = np.searchsorted(uniq, np.arange(len(run_lens) + 1) * n_cols)
    uniq_inverse -= uniq_at[entry_batch]  # index into the batch's own distinct columns
    uniq %= max(n_cols, 1)  # each batch's columns, ascending within it
    entry_at = entry_start[item_at].tolist()
    item_at, uniq_at = item_at.tolist(), uniq_at.tolist()

    j = 0
    for e0 in range(start, len(all_batches)):
        phase = phase_of_epoch[e0]
        n_items = sum(len(batch) for batch in all_batches[e0])
        n_speech = sum(modality == "speech" for batch in all_batches[e0] for _, modality in batch)
        loss_sum = 0.0
        hits = 0
        for _ in all_batches[e0]:
            lr = lr_at(recipe, step_in_phase[phase], phase_steps[phase], phase)
            step_in_phase[phase] += 1
            i0, i1 = item_at[j], item_at[j + 1]
            n0, n1 = entry_at[j], entry_at[j + 1]
            batch_rows = item_row[i0:i1]
            batch_targets = item_targets[i0:i1]
            batch_entry_rows = entry_row[n0:n1]
            batch_counts = entry_counts[n0:n1]

            # np.add.at applies entries in order: bias, then each feature in
            # item order, as the per-item sum does.
            logits = np.tile(model.bias, (i1 - i0, 1))
            np.add.at(logits, batch_entry_rows, batch_counts * weights[entry_cols[n0:n1]])
            logits -= logits.max(axis=1, keepdims=True)
            probs = np.exp(logits)
            probs /= probs.sum(axis=1, keepdims=True)
            for p in probs[batch_rows, batch_targets].tolist():
                loss_sum += -math.log(max(p, 1e-300))
            hits += int((logits.argmax(axis=1) == batch_targets).sum())

            dlogits = probs
            dlogits[batch_rows, batch_targets] -= 1.0
            batch_uniq = uniq[uniq_at[j]:uniq_at[j + 1]]
            grad = np.zeros((len(batch_uniq), n_classes))
            np.add.at(grad, uniq_inverse[n0:n1], batch_counts * dlogits[batch_entry_rows])
            scale = lr / (i1 - i0)
            # cumsum adds the rows one by one in item order; sum may pair them
            model.bias -= scale * np.cumsum(dlogits, axis=0)[-1]
            # A feature's first update sets it to -scale * g, keeping the sign
            # of zero that the per-item dict of weights would store.
            first = np.searchsorted(batch_uniq, touched)
            weights[batch_uniq[:first]] -= scale * grad[:first]
            weights[batch_uniq[first:]] = -scale * grad[first:]
            touched += len(batch_uniq) - first
            j += 1
        model.train_log.append({
            "epoch": e0 + 1,
            "text_items": n_items - n_speech,
            "speech_items": n_speech,
            "mean_loss": loss_sum / n_items if n_items else 0.0,
            "train_intent_accuracy": hits / n_items if n_items else 0.0,
        })
        if e0 + 1 == split:
            features.phase1_states[phase1_key] = (
                model.bias.copy(), weights[:touched].copy(),
                [dict(rec) for rec in model.train_log])
    model.weights = {idx: weights[col] for col, idx in enumerate(vocab)}

    totals = plan_totals(plan)
    logged = [(rec["text_items"], rec["speech_items"]) for rec in model.train_log]
    planned = list(zip(totals["per_epoch_text"], totals["per_epoch_speech"]))
    if logged != planned:
        raise TrainError(f"consumed item counts {logged} diverged from the plan {planned}")
    return model


def _b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).decode()


def _unb64(blob: str, shape) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype=np.float64).reshape(shape).copy()


def model_to_dict(model: ModelState) -> dict:
    features = sorted(model.weights)
    stacked = (np.stack([model.weights[f] for f in features])
               if features else np.zeros((0, len(model.classes))))
    return {
        "kind": "model_state",
        "model_version": 1,
        "feature_dim": FEATURE_DIM,
        "classes": [list(c) for c in model.classes],
        "bias": None if model.bias is None else _b64(model.bias),
        "features": features,
        "weights": _b64(stacked),
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
    """The model an object holds; errors name ``where``, the model's place."""
    if obj["feature_dim"] != FEATURE_DIM:
        raise TrainError(f"{where} was trained on {obj['feature_dim']} hashed features, "
                         f"not {FEATURE_DIM}")
    classes = tuple(tuple(c) for c in obj["classes"])
    features = obj["features"]
    stacked = _unb64(obj["weights"], (len(features), len(classes)))
    return ModelState(
        classes=classes,
        bias=None if obj["bias"] is None else _unb64(obj["bias"], (len(classes),)),
        weights={f: stacked[i] for i, f in enumerate(features)},
        filler_lexicon={k: dict(v) for k, v in obj["filler_lexicon"].items()},
        prior_intent=None if obj["prior_intent"] is None else tuple(obj["prior_intent"]),
        train_log=list(obj["train_log"]),
        sim=sim_from_dict(obj["sim"], f"{where} field 'sim'"),
    )


def save_model(model: ModelState, path) -> None:
    write_json(path, model_to_dict(model))


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
        write_json(path, manifest, indent=2)
    return manifest
