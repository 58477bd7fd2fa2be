"""Per-item training and prediction loops used as oracles in trainer tests.

This is the reference learner's original implementation: one Python pass
per consumed item, re-normalising its label and re-simulating its speech
every time, with dict-of-vectors weights, and one Python pass per predicted
row. The package's batched ``train`` and ``FeatureStore.predict`` must give
the same model bit for bit and the same labels; ``tests/test_trainer_oracle.py``
checks that. Shared with the package only through the feature hashing, the
speech simulator, the plan's batching, the LR schedule and the model's
fields.
"""

import math

import numpy as np

from slumix.corpus import UNPARSEABLE, Entity, SemanticLabel
from slumix.errors import TrainError
from slumix.scheduler import epoch_batches, plan_totals
from slumix.trainer import ModelState, hashed_features, simulate_speech, tokenize
from slumix.trainer_recipes import lr_at


def _item_tokens(utt, modality, sim):
    if modality == "speech":
        return simulate_speech(utt.text, sim)
    return tokenize(utt.text)


def train(plan, corpus, recipe, sim):
    """Run the plan through the reference learner, one item at a time."""
    by_id = corpus.by_id()
    all_batches = [epoch_batches(plan, e, recipe.batch_size, plan.config.seed)
                   for e in range(1, plan.config.epochs + 1)]
    if not any(batch for epoch in all_batches for batch in epoch):
        raise TrainError("plan contains no training items")
    for epoch in all_batches:
        for batch in epoch:
            for item_id, _ in batch:
                if item_id not in by_id:
                    raise TrainError(f"plan item {item_id!r} not found in corpus")

    class_set = sorted({by_id[i].label.intent
                        for epoch in all_batches for batch in epoch for i, _ in batch})
    classes = tuple(class_set)
    class_idx = {c: k for k, c in enumerate(classes)}
    n_classes = len(classes)
    model = ModelState(classes=classes, bias=np.zeros(n_classes), sim=sim)
    weights = {}

    # Phase 2 (curriculum only) covers the final epoch; each phase runs its
    # own warmup+decay over its own step span.
    if plan.config.scheme == "curriculum" and plan.config.epochs > 1:
        phase_of_epoch = [1] * (plan.config.epochs - 1) + [2]
    else:
        phase_of_epoch = [1] * plan.config.epochs
    phase_steps = {1: 0, 2: 0}
    for e0, epoch in enumerate(all_batches):
        phase_steps[phase_of_epoch[e0]] += len(epoch)

    intent_counts = {}
    step_in_phase = {1: 0, 2: 0}
    for e0, batches in enumerate(all_batches):
        phase = phase_of_epoch[e0]
        n_text = n_speech = 0
        loss_sum = 0.0
        hits = 0
        n_items = 0
        for batch in batches:
            lr = lr_at(recipe, step_in_phase[phase], phase_steps[phase], phase)
            step_in_phase[phase] += 1
            grad = {}
            grad_bias = np.zeros(n_classes)
            for item_id, modality in batch:
                utt = by_id[item_id]
                if modality == "speech":
                    n_speech += 1
                else:
                    n_text += 1
                label = utt.label
                intent_counts[label.intent] = intent_counts.get(label.intent, 0) + 1
                for ent in label.entities:
                    slots = model.filler_lexicon.setdefault(ent.filler, {})
                    slots[ent.etype] = slots.get(ent.etype, 0) + 1

                feats = hashed_features(_item_tokens(utt, modality, sim))
                logits = model.bias.copy()
                for idx, count in feats.items():
                    w = weights.get(idx)
                    if w is not None:
                        logits += count * w
                logits -= logits.max()
                probs = np.exp(logits)
                probs /= probs.sum()
                target = class_idx[label.intent]
                loss_sum += -math.log(max(probs[target], 1e-300))
                hits += int(int(np.argmax(logits)) == target)
                n_items += 1
                dlogits = probs.copy()
                dlogits[target] -= 1.0
                grad_bias += dlogits
                for idx, count in feats.items():
                    g = grad.get(idx)
                    if g is None:
                        grad[idx] = count * dlogits
                    else:
                        g += count * dlogits
            scale = lr / len(batch)
            model.bias -= scale * grad_bias
            for idx, g in grad.items():
                w = weights.get(idx)
                if w is None:
                    weights[idx] = -scale * g
                else:
                    w -= scale * g
        model.train_log.append({
            "epoch": e0 + 1,
            "text_items": n_text,
            "speech_items": n_speech,
            "mean_loss": loss_sum / n_items if n_items else 0.0,
            "train_intent_accuracy": hits / n_items if n_items else 0.0,
        })
    model.prior_intent = min(
        (c for c in intent_counts),
        key=lambda c: (-intent_counts[c], c),
    )
    totals = plan_totals(plan)
    logged = [(rec["text_items"], rec["speech_items"]) for rec in model.train_log]
    planned = list(zip(totals["per_epoch_text"], totals["per_epoch_speech"]))
    assert logged == planned, "consumed item counts diverged from the plan"
    features = sorted(weights)
    model.features = np.array(features, dtype=np.int64)
    model.weights = (np.stack([weights[f] for f in features]) if features
                     else np.zeros((0, n_classes)))
    return model


def predict(model, tokens):
    """The model's label for one input, given as its tokens.

    Intent by argmax over the linear model (the least of tied classes; the
    prior intent if the input has no features); entities by longest-match
    scan of the tokens against the learned filler lexicon, left to right,
    non-overlapping. An untrained model gives an unparseable label."""
    if not model.trained:
        return UNPARSEABLE
    feats = hashed_features(tokens)
    if not feats:
        scenario, action = model.prior_intent
        return SemanticLabel(scenario=scenario, action=action, entities=())
    weights = dict(zip(model.features.tolist(), model.weights))
    logits = model.bias.copy()
    for idx, count in feats.items():
        w = weights.get(idx)
        if w is not None:
            logits += count * w
    best = logits.max()
    winner = min(c for c, l in zip(model.classes, logits) if l == best)

    index = {}
    max_len = 0
    for filler, slots in model.filler_lexicon.items():
        toks = tuple(tokenize(filler))
        if toks:
            index[toks] = min(slots, key=lambda t: (-slots[t], t))
            max_len = max(max_len, len(toks))
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
