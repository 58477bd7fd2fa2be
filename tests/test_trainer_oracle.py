"""The batched trainer against the per-item loop in ``reference_trainer``.

Equality here is exact: the batched trainer sums in the loop's order, so any
difference in a weight, the bias, the lexicon (including its key order) or
the training log is a defect, not rounding.
"""

import random
import string
from dataclasses import replace

import numpy as np
import pytest

import reference_trainer
import slumix.trainer
from conftest import make_corpus, make_utt
from slumix import (
    ExperimentManifest,
    SchedulerConfig,
    SpeechSimConfig,
    build_plan,
    desk_recipe,
    epoch_batches,
    make_synthetic_corpus,
    run_grid,
    save_corpus,
    train,
)
from slumix.grid import make_plan_for_corpus, predict_records
from slumix.trainer import FeatureStore, ModelState, hashed_features

SIM = SpeechSimConfig(substitution_rate=0.15, deletion_rate=0.10, seed=7)


def assert_same_model(new, old):
    assert new.classes == old.classes
    assert new.bias.tobytes() == old.bias.tobytes()
    assert new.features.dtype == old.features.dtype == np.int64
    assert new.features.tobytes() == old.features.tobytes()
    assert new.weights.shape == old.weights.shape
    assert new.weights.tobytes() == old.weights.tobytes()
    assert list(new.filler_lexicon.items()) == list(old.filler_lexicon.items())
    assert [list(slots) for slots in new.filler_lexicon.values()] == \
        [list(slots) for slots in old.filler_lexicon.values()]
    assert new.prior_intent == old.prior_intent
    assert new.train_log == old.train_log
    assert new.sim == old.sim


def both(plan, corpus, recipe, sim):
    new = train(plan, corpus, recipe, sim)
    assert_same_model(new, reference_trainer.train(plan, corpus, recipe, sim))
    return new


def speech_only_intent_corpus():
    """Two text-only intents and a third carried only by speech-only records:
    the corpus, its text ids and its speech ids."""
    records = [make_utt(f"t{i}", f"wake me at {i} am", "alarm", "set",
                        [("time", f"{i} am")]) for i in range(6)]
    records += [make_utt(f"m{i}", f"play song {i}", "music", "play",
                         [("song", f"song {i}")]) for i in range(6)]
    records += [make_utt(f"s{i}", f"is it raining in city {i}", "weather", "query",
                         [("place", f"city {i}")], speech=True) for i in range(5)]
    text_ids = [r.id for r in records if r.speech_ref is None]
    speech_ids = [r.id for r in records if r.speech_ref is not None]
    return make_corpus(records), text_ids, speech_ids


@pytest.fixture(scope="module")
def synthetic():
    return make_synthetic_corpus(300, seed=0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scheme,level", [
    ("text_only", 0.0),
    *[(scheme, level) for scheme in ("direct", "curriculum")
      for level in (0.02, 0.25, 1.0)],
])
def test_synthetic_grid_cells(synthetic, scheme, level, seed):
    plan = make_plan_for_corpus(synthetic, scheme, level, seed, 3)
    sim = SpeechSimConfig(substitution_rate=0.15, deletion_rate=0.10, seed=seed)
    both(plan, synthetic, desk_recipe(), sim)


@pytest.mark.parametrize("batch_size", [1, 7])
def test_batch_sizes(synthetic, batch_size):
    plan = make_plan_for_corpus(synthetic, "direct", 0.25, 1, 2)
    if batch_size > 1:
        assert len(epoch_batches(plan, 1, batch_size, 1)[-1]) < batch_size
    both(plan, synthetic, desk_recipe(batch_size=batch_size), SIM)


@pytest.mark.parametrize("batch_size", [2, 16])
def test_vocabulary_growing_with_the_corpus(synthetic, batch_size):
    # Two seeded random words per record give each a few features of its own,
    # so batches mix rows touched long before with rows they touch first.
    rng = random.Random(3)
    corpus = make_corpus([replace(u, text=" ".join(
        [u.text, *("".join(rng.choices(string.ascii_lowercase, k=6)) for _ in range(2))]))
        for u in synthetic.records[:150]], lang=synthetic.lang)
    plan = make_plan_for_corpus(corpus, "direct", 0.5, 2, 2)
    model = both(plan, corpus, desk_recipe(batch_size=batch_size), SIM)
    assert len(model.features) > 4 * len(plan.epochs[0].text_item_ids)


def test_curriculum_single_epoch(synthetic):
    plan = make_plan_for_corpus(synthetic, "curriculum", 0.25, 3, 1)
    model = both(plan, synthetic, desk_recipe(), SIM)
    assert model.train_log[0]["speech_items"] > 0


def test_speech_without_features(synthetic):
    plan = make_plan_for_corpus(synthetic, "direct", 1.0, 1, 2)
    silent = SpeechSimConfig(substitution_rate=0.0, deletion_rate=1.0, seed=1)
    both(plan, synthetic, desk_recipe(), silent)


def test_shared_store_matches_oracle(synthetic):
    # Calls that share one store, each checked against the per-item loop. The
    # first call compiles every text and every seed-1 speech input, so the
    # second finds all its items compiled; the seed-2 and silent calls add rows.
    store = FeatureStore()
    silent = SpeechSimConfig(substitution_rate=0.0, deletion_rate=1.0, seed=1)
    calls = [
        ("curriculum", 1.0, 1, 7, SpeechSimConfig(seed=1)),
        ("direct", 0.25, 1, 1, SpeechSimConfig(seed=1)),
        ("text_only", 0.0, 2, 7, SpeechSimConfig(seed=2)),
        ("direct", 1.0, 2, 7, SpeechSimConfig(seed=2)),
        ("curriculum", 0.25, 2, 1, SpeechSimConfig(seed=2)),
        ("direct", 1.0, 1, 7, silent),
    ]
    sizes = []
    for scheme, level, seed, batch_size, sim in calls:
        plan = make_plan_for_corpus(synthetic, scheme, level, seed, 2)
        recipe = desk_recipe(batch_size=batch_size)
        model = train(plan, synthetic, recipe, sim, store)
        assert_same_model(model, reference_trainer.train(plan, synthetic, recipe, sim))
        sizes.append(len(store))
    assert sizes[1] == sizes[0]
    assert sizes[2] == sizes[1] < sizes[3] < sizes[5]


@pytest.mark.parametrize("levels", [(0.02, 0.25, 1.0), (1.0, 0.25, 0.02)],
                         ids=["ascending", "descending"])
def test_curriculum_levels_share_phase1_state(synthetic, levels):
    # Curriculum's phase-1 epochs read the same transcripts at every level of
    # one seed, so each seed's phase-1 state is computed once and reused.
    store = FeatureStore()
    for seed in (1, 2):
        sim = SpeechSimConfig(seed=seed)
        for level in levels:
            plan = make_plan_for_corpus(synthetic, "curriculum", level, seed, 3)
            model = train(plan, synthetic, desk_recipe(), sim, store)
            assert_same_model(model, reference_trainer.train(plan, synthetic, desk_recipe(),
                                                             sim))
    assert len(store.phase1_states) == 2


def test_curriculum_phase1_state_not_reused_across_classes():
    # Only the higher level adds the speech-only intent; its phase-1 epochs see
    # the same rows and targets, but the model has one more class.
    corpus, text_ids, speech_ids = speech_only_intent_corpus()
    store = FeatureStore()
    recipe = desk_recipe(batch_size=4)
    for level in (0.0, 1.0):
        config = SchedulerConfig(scheme="curriculum", p=level, epochs=3, seed=4,
                                 n_speech=len(speech_ids))
        plan = build_plan(config, text_ids, speech_ids)
        model = train(plan, corpus, recipe, SIM, store)
        assert_same_model(model, reference_trainer.train(plan, corpus, recipe, SIM))
        assert (("weather", "query") in model.classes) == (level > 0)
    assert len(store.phase1_states) == 2


def test_curriculum_phase1_state_not_reused_across_targets():
    # Two corpora with the same ids, texts and classes whose intents are
    # swapped: phase 1 reads the same store rows with other targets.
    def corpus(intents):
        return make_corpus([make_utt(f"u{i}", f"turn it up {i} times", *intents[i % 2],
                                     speech=i % 3 == 0) for i in range(12)])

    store = FeatureStore()
    recipe = desk_recipe(batch_size=4)
    for swapped in (False, True):
        intents = [("alarm", "set"), ("music", "play")]
        data = corpus(intents[::-1] if swapped else intents)
        plan = make_plan_for_corpus(data, "curriculum", 1.0, 2, 3)
        model = train(plan, data, recipe, SIM, store)
        assert_same_model(model, reference_trainer.train(plan, data, recipe, SIM))
    assert len(store.phase1_states) == 2


@pytest.mark.parametrize("recipes", [
    (desk_recipe(batch_size=7), desk_recipe(batch_size=16)),
    (desk_recipe(), replace(desk_recipe(), peak_lr=0.4)),
], ids=["batch_size", "peak_lr"])
def test_curriculum_phase1_state_not_reused_across_recipes(synthetic, recipes):
    store = FeatureStore()
    sim = SpeechSimConfig(seed=1)
    for recipe, level in zip(recipes, (0.25, 1.0)):
        plan = make_plan_for_corpus(synthetic, "curriculum", level, 1, 3)
        model = train(plan, synthetic, recipe, sim, store)
        assert_same_model(model, reference_trainer.train(plan, synthetic, recipe, sim))
    assert len(store.phase1_states) == 2


def test_reused_phase1_state_runs_only_the_final_epoch(synthetic, monkeypatch):
    steps = []
    lr_at = slumix.trainer.lr_at
    monkeypatch.setattr(slumix.trainer, "lr_at",
                        lambda recipe, step, total, phase: steps.append(phase)
                        or lr_at(recipe, step, total, phase))
    store = FeatureStore()
    sim = SpeechSimConfig(seed=1)
    plans = [make_plan_for_corpus(synthetic, "curriculum", level, 1, 3)
             for level in (0.25, 1.0)]
    train(plans[0], synthetic, desk_recipe(), sim, store)
    batches = [len(epoch_batches(plans[0], e, 16, 1)) for e in (1, 2, 3)]
    assert steps == [1] * (batches[0] + batches[1]) + [2] * batches[2]
    steps.clear()
    train(plans[1], synthetic, desk_recipe(), sim, store)
    assert steps == [2] * len(epoch_batches(plans[1], 3, 16, 1))


def test_curriculum_without_text_items_reuses_its_empty_phase1(synthetic):
    # With no text ids, the phase-1 epochs have no items: their state is the
    # untouched bias alone, which the second call restores.
    speech_ids = [u.id for u in synthetic.records if u.split == "train" and u.has_speech]
    config = SchedulerConfig(scheme="curriculum", p=0.25, epochs=3, seed=1,
                             n_speech=len(speech_ids))
    plan = build_plan(config, [], speech_ids)
    assert not plan.epochs[0].text_item_ids and not plan.epochs[0].speech_item_ids
    store = FeatureStore()
    want = reference_trainer.train(plan, synthetic, desk_recipe(), SIM)
    for _ in range(2):
        assert_same_model(train(plan, synthetic, desk_recipe(), SIM, store), want)
    assert len(store.phase1_states) == 1


@pytest.mark.parametrize("oracle_transcripts", [False, True])
def test_predict_records_with_shared_store(synthetic, oracle_transcripts):
    sim = SpeechSimConfig(seed=1)
    store = FeatureStore()
    plan = make_plan_for_corpus(synthetic, "direct", 0.25, 1, 2)
    model = train(plan, synthetic, desk_recipe(), sim, store)
    records = synthetic.records
    shared = predict_records(model, records, oracle_transcripts, features=store)
    assert shared == predict_records(model, records, oracle_transcripts)
    inputs = [(u.text, u.has_speech and not oracle_transcripts) for u in records]
    alone = [FeatureStore() for _ in inputs]
    assert [r.pred for r in shared] == \
        [store.predict(model, store.rows([key], sim))[0] for store, key in zip(alone, inputs)]


def test_predict_matches_oracle(synthetic):
    sim = SpeechSimConfig(seed=1)
    silent = SpeechSimConfig(substitution_rate=0.0, deletion_rate=1.0, seed=1)
    trained = train(make_plan_for_corpus(synthetic, "direct", 0.25, 1, 2), synthetic,
                    desk_recipe(), sim)
    # Bias and one known feature tie the first two classes; unknown tokens
    # leave the bias alone, whose top two tie in the other model.
    tie_feature = next(iter(hashed_features(["tie"])))
    tied = [ModelState(classes=(("a", "x"), ("b", "y"), ("c", "z")), bias=np.array(bias),
                       features=np.array([tie_feature], dtype=np.int64),
                       weights=np.array([[0.25, 0.25, 0.0]]),
                       filler_lexicon={"tie": {"word": 2}, "tie tie": {"pair": 1}},
                       prior_intent=("b", "y"), sim=sim)
            for bias in ([0.0, 0.0, 0.1], [0.3, 0.0, 0.3])]
    store = FeatureStore()
    unknown = "qqqq zzzz qqqq"
    rows = store.rows([(u.text, u.has_speech) for u in synthetic.records], sim)
    rows += store.rows([(u.text, True) for u in synthetic.records[:50]], silent)
    rows += store.rows([(text, False) for text in (unknown, "tie", "tie tie", "tie qqqq tie")],
                       None)
    assert not set(hashed_features(unknown.split())) & set(trained.features.tolist())
    assert any(not store.tokens[k] for k in rows)
    for model in (trained, *tied, ModelState()):
        assert store.predict(model, rows) == \
            [reference_trainer.predict(model, store.tokens[k]) for k in rows]
    assert [label.intent for label in store.predict(tied[0], rows[-4:])] == \
        [("c", "z"), ("a", "x"), ("a", "x"), ("a", "x")]
    assert store.predict(tied[1], rows[-4:])[0].intent == ("a", "x")


def test_intent_seen_only_in_speech():
    corpus, text_ids, speech_ids = speech_only_intent_corpus()
    config = SchedulerConfig(scheme="direct", p=1.0, epochs=3, seed=4,
                             n_speech=len(speech_ids))
    plan = build_plan(config, text_ids, speech_ids)
    model = both(plan, corpus, desk_recipe(batch_size=4), SIM)
    assert ("weather", "query") in model.classes


def test_grid_outputs_byte_identical(tmp_path, monkeypatch):
    corpus_path = tmp_path / "syn.jsonl"
    save_corpus(make_synthetic_corpus(200, seed=1), corpus_path)
    manifest = ExperimentManifest(
        corpora={"syn": str(corpus_path)},
        schemes=("text_only", "direct", "curriculum"),
        speech_levels=(0.1, 1.0),
        seeds=(1, 2),
        epochs=2,
        recipe={"profile": "desk"},
        sim={"substitution_rate": 0.15, "deletion_rate": 0.1},
    )
    run_grid(manifest, tmp_path / "new")
    with monkeypatch.context() as m:
        m.setattr("slumix.grid.train", lambda plan, corpus, recipe, sim, features:
                  reference_trainer.train(plan, corpus, recipe, sim))
        run_grid(manifest, tmp_path / "oracle")

    new_files = sorted(p.relative_to(tmp_path / "new")
                       for p in (tmp_path / "new").rglob("*") if p.is_file())
    oracle_files = sorted(p.relative_to(tmp_path / "oracle")
                          for p in (tmp_path / "oracle").rglob("*") if p.is_file())
    assert new_files == oracle_files
    assert sum(p.name == "model.json" for p in new_files) == 10
    assert any(p.name == "aggregate.csv" for p in new_files)
    for rel in new_files:
        assert (tmp_path / "new" / rel).read_bytes() == \
            (tmp_path / "oracle" / rel).read_bytes(), rel
