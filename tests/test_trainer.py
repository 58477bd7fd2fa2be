import dataclasses
import json
from collections import Counter

import pytest

from conftest import make_corpus, make_utt
from slumix import (
    SchedulerConfig,
    SpeechSimConfig,
    TrainError,
    TrainRecipe,
    build_plan,
    desk_recipe,
    export_manifest,
    filter_split,
    lr_at,
    make_synthetic_corpus,
    nested_permutation,
    published_recipe,
    plan_totals,
    simulate_speech,
    speech_items,
    text_items,
    train,
)
from slumix.corpus import UNPARSEABLE, Corpus
from slumix.grid import prediction_rows, predict_records
from slumix.labelcodec import parse_label, serialize_label
import slumix.trainer as trainer_module
from slumix.trainer import (
    FeatureStore,
    ModelState,
    hashed_features,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from slumix.trainer_recipes import RECIPE_PROFILES

SIM0 = SpeechSimConfig(substitution_rate=0.0, deletion_rate=0.0, seed=0)


def predict(model, text, sim=None):
    """The model's label for one input: a transcript, or speech simulated by
    ``sim``."""
    store = FeatureStore()
    return store.predict(model, store.rows([(text, True)], sim))[0]


def plan_for(corpus, scheme, p, epochs=3, seed=1):
    train_view = filter_split(corpus, "train")
    text_ids = [u.id for u in text_items(train_view)]
    speech_ids = [u.id for u in speech_items(train_view)]
    config = SchedulerConfig(scheme=scheme, p=p, epochs=epochs, seed=seed,
                             n_speech=len(speech_ids))
    return build_plan(config, text_ids, nested_permutation(speech_ids, seed))


def speech_train_corpus(n=100):
    records = []
    scenarios = [("alarm", "set"), ("music", "play"), ("weather", "query"),
                 ("iot", "on")]
    for i in range(n):
        scenario, action = scenarios[i % len(scenarios)]
        records.append(make_utt(
            f"u{i:03d}", f"{scenario} utterance number {i} {action} please",
            scenario, action, entities=[("idx", f"number {i}")], speech=True))
    for i, (scenario, action) in enumerate(scenarios):
        records.append(make_utt(f"d{i}", f"{scenario} held out {action}",
                                scenario, action, split="dev"))
    return make_corpus(records)


class TestSimulateSpeech:
    def test_zero_rates_identity(self):
        assert simulate_speech("wake me at seven", SIM0) == \
            ["wake", "me", "at", "seven"]

    def test_full_deletion_empty(self):
        cfg = SpeechSimConfig(substitution_rate=0.0, deletion_rate=1.0, seed=3)
        assert simulate_speech("wake me at seven", cfg) == []

    def test_golden_corruption(self):
        # frozen once from the seeded stream; guards PRNG/derivation changes
        cfg = SpeechSimConfig(substitution_rate=0.5, deletion_rate=0.0, seed=3)
        assert simulate_speech("wake me at seven", cfg) == \
            ["mx", "gmei", "at", "pzbsrjc"]

    def test_deterministic_per_text(self):
        cfg = SpeechSimConfig(substitution_rate=0.3, deletion_rate=0.3, seed=11)
        assert simulate_speech("play queen now", cfg) == \
            simulate_speech("play queen now", cfg)

    def test_rate_validation(self):
        with pytest.raises(TrainError):
            SpeechSimConfig(substitution_rate=0.8, deletion_rate=0.4, seed=0)
        with pytest.raises(TrainError):
            SpeechSimConfig(substitution_rate=-0.1, deletion_rate=0.0, seed=0)


class TestLrSchedule:
    RECIPE = TrainRecipe(peak_lr=1.0, warmup_ratio=0.1, batch_size=2, grad_accum=1, beams=1,
                         phase2_peak_lr=0.5, phase2_warmup_ratio=0.0)

    def test_warmup_start_is_zero(self):
        assert lr_at(self.RECIPE, 0, 100) == 0.0

    def test_warmup_end_is_peak(self):
        assert lr_at(self.RECIPE, 10, 100) == 1.0

    def test_decay_midpoint_is_half_peak(self):
        assert lr_at(self.RECIPE, 55, 100) == pytest.approx(0.5)

    def test_end_is_zero(self):
        assert lr_at(self.RECIPE, 100, 100) == pytest.approx(0.0, abs=1e-15)

    def test_continuity(self):
        total = 200
        lrs = [lr_at(self.RECIPE, s, total) for s in range(total + 1)]
        min_phase = self.RECIPE.warmup_ratio * total
        bound = self.RECIPE.peak_lr / min_phase
        for a, b in zip(lrs, lrs[1:]):
            assert abs(a - b) <= bound + 1e-12

    def test_phase2_uses_reduced_settings(self):
        recipe = published_recipe()
        assert lr_at(recipe, 2, 100, phase=2) == pytest.approx(3.0e-6 * 2 / 2.0)
        assert lr_at(recipe, 4, 100, phase=1) == pytest.approx(5.0e-6)

    def test_zero_total_steps_rejected(self):
        with pytest.raises(TrainError):
            lr_at(self.RECIPE, 0, 0)


class TestRecipes:
    def test_published_values(self):
        recipe = published_recipe()
        assert (recipe.peak_lr, recipe.warmup_ratio) == (5.0e-6, 0.04)
        assert (recipe.phase2_peak_lr, recipe.phase2_warmup_ratio) == (3.0e-6, 0.02)
        assert (recipe.batch_size, recipe.grad_accum, recipe.beams) == (2, 8, 3)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 2.5), ("batch_size", "8"), ("beams", True), ("grad_accum", 0),
        ("peak_lr", "x"), ("warmup_ratio", False), ("phase2_peak_lr", -1),
        ("phase2_warmup_ratio", 1.0),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(TrainError, match=field):
            dataclasses.replace(desk_recipe(), **{field: value})


class TestTrain:
    def test_text_only_consumes_no_speech(self):
        corpus = speech_train_corpus(20)
        model = train(plan_for(corpus, "text_only", 0.0), corpus,
                      desk_recipe(), SIM0)
        assert [rec["speech_items"] for rec in model.train_log] == [0, 0, 0]

    def test_curriculum_speech_counts(self):
        corpus = speech_train_corpus(100)
        model = train(plan_for(corpus, "curriculum", 0.1), corpus,
                      desk_recipe(), SIM0)
        assert [rec["speech_items"] for rec in model.train_log] == [0, 0, 30]

    def test_item_count_fidelity(self):
        corpus = speech_train_corpus(60)
        for scheme, p in (("text_only", 0.0), ("direct", 0.25), ("curriculum", 0.25)):
            plan = plan_for(corpus, scheme, p)
            model = train(plan, corpus, desk_recipe(), SIM0)
            totals = plan_totals(plan)
            assert [rec["text_items"] for rec in model.train_log] == \
                totals["per_epoch_text"]
            assert [rec["speech_items"] for rec in model.train_log] == \
                totals["per_epoch_speech"]

    def test_deterministic(self):
        corpus = speech_train_corpus(40)
        sim = SpeechSimConfig(substitution_rate=0.2, deletion_rate=0.1, seed=5)
        plan = plan_for(corpus, "direct", 0.5)
        a = train(plan, corpus, desk_recipe(), sim)
        b = train(plan, corpus, desk_recipe(), sim)
        assert model_to_dict(a) == model_to_dict(b)

    def test_unresolved_id(self):
        corpus = speech_train_corpus(10)
        plan = plan_for(corpus, "direct", 0.5)
        broken = Corpus(name="broken", lang="en", records=corpus.records[:5])
        with pytest.raises(TrainError, match="not found"):
            train(plan, broken, desk_recipe(), SIM0)

    def test_speech_simulated_once_per_item(self, monkeypatch):
        corpus = speech_train_corpus(40)
        plan = plan_for(corpus, "direct", 1.0)
        calls = Counter()
        real = trainer_module.simulate_speech

        def counting(text, cfg):
            calls[text] += 1
            return real(text, cfg)

        monkeypatch.setattr(trainer_module, "simulate_speech", counting)
        train(plan, corpus, desk_recipe(), SIM0)
        speech_texts = {u.text for u in speech_items(filter_split(corpus, "train"))}
        assert plan_totals(plan)["total_speech"] == 3 * len(speech_texts)
        assert set(calls) == speech_texts
        assert set(calls.values()) == {1}

    def test_count_divergence_raises(self, monkeypatch):
        corpus = speech_train_corpus(20)
        real = trainer_module.plan_totals

        def skewed(plan):
            totals = real(plan)
            totals["per_epoch_speech"] = [n + 1 for n in totals["per_epoch_speech"]]
            return totals

        monkeypatch.setattr(trainer_module, "plan_totals", skewed)
        with pytest.raises(TrainError, match="diverged from the plan"):
            train(plan_for(corpus, "direct", 0.5), corpus, desk_recipe(), SIM0)

    def test_empty_plan(self):
        corpus = speech_train_corpus(10)
        config = SchedulerConfig(scheme="text_only", p=0.0, epochs=2, seed=0,
                                 n_speech=0)
        plan = build_plan(config, [], [])
        with pytest.raises(TrainError, match="no training items"):
            train(plan, corpus, desk_recipe(), SIM0)


@pytest.fixture(scope="module")
def model():
    corpus = speech_train_corpus(80)
    return train(plan_for(corpus, "text_only", 0.0), corpus,
                 desk_recipe(), SIM0)


class TestPredict:
    def test_learned_intents(self, model):
        label = predict(model, "alarm utterance number 0 set please")
        assert (label.scenario, label.action) == ("alarm", "set")

    def test_lexicon_hit(self, model):
        label = predict(model, "alarm utterance number 3 set please")
        assert ("idx", "number 3") in [(e.etype, e.filler) for e in label.entities]

    def test_empty_input_prior_class(self, model):
        label = predict(model, "")
        assert (label.scenario, label.action) == model.prior_intent
        assert label.entities == ()

    def test_untrained_unparseable(self):
        from slumix.trainer import ModelState
        assert predict(ModelState(), "anything").unparseable

    def test_longest_match_wins(self):
        records = [
            make_utt("a", "fly to new york", "transport", "taxi",
                     entities=[("place", "new york")]),
            make_utt("b", "york is lovely", "weather", "query",
                     entities=[("city", "york")]),
        ]
        corpus = make_corpus(records)
        model = train(plan_for(corpus, "text_only", 0.0), corpus,
                      desk_recipe(), SIM0)
        label = predict(model, "drive me to new york")
        spans = [(e.etype, e.filler) for e in label.entities]
        assert ("place", "new york") in spans
        assert ("city", "york") not in spans

    def test_etype_tie_most_frequent_then_lexicographic(self):
        records = [
            make_utt("a", "meet alice", "social", "post", [("person", "alice")]),
            make_utt("b", "call alice", "social", "post", [("person", "alice")]),
            make_utt("c", "alice street", "transport", "query", [("address", "alice")]),
        ]
        corpus = make_corpus(records)
        model = train(plan_for(corpus, "text_only", 0.0), corpus,
                      desk_recipe(), SIM0)
        # counts accumulate per exposure: 3 epochs x gold occurrences
        assert model.filler_lexicon["alice"] == {"person": 6, "address": 3}
        label = predict(model, "alice")
        assert label.entities[0].etype == "person"

    def test_ngram_features_include_bigrams(self):
        feats = hashed_features(["wake", "me"])
        assert len(feats) == 3  # wake, me, "wake me"


class TestPredictionRoundTrip:
    # Grid cells score the labels FeatureStore.predict returns; `slumix evaluate`
    # scores what parse_label reads back from preds.jsonl. The two agree only
    # if every predicted label survives serialization.
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("scheme", ["text_only", "direct", "curriculum"])
    def test_predicted_labels_round_trip(self, scheme, seed):
        corpus = make_synthetic_corpus(200, seed=seed)
        model = train(plan_for(corpus, scheme, 0.0 if scheme == "text_only" else 0.5,
                               epochs=2, seed=seed),
                      corpus, desk_recipe(), SpeechSimConfig(seed=seed))
        store = FeatureStore()
        rows = [k for sim in (
            None, SpeechSimConfig(seed=seed),
            SpeechSimConfig(substitution_rate=0.0, deletion_rate=1.0, seed=seed))
            for k in store.rows([(u.text, True) for u in corpus.records], sim)]
        preds = store.predict(model, rows)
        assert model.prior_intent in {p.intent for p, k in zip(preds, rows)
                                      if not store.tokens[k]}
        assert [p for p in preds if parse_label(serialize_label(p)) != p] == []

    def test_untrained_model_written_as_empty(self):
        corpus = make_synthetic_corpus(20)
        preds = predict_records(ModelState(), corpus.records)
        assert {p.pred for p in preds} == {UNPARSEABLE}
        assert {row["pred_raw"] for row in prediction_rows(preds)} == {""}
        assert parse_label("") == UNPARSEABLE


class TestSerializationAndEstimator:
    def test_model_roundtrip(self, tmp_path):
        corpus = speech_train_corpus(30)
        model = train(plan_for(corpus, "direct", 0.5), corpus,
                      desk_recipe(), SIM0)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert model_to_dict(loaded) == model_to_dict(model)
        text = "music utterance number 1 play please"
        assert predict(loaded, text) == predict(model, text)

    @pytest.mark.parametrize("scheme,p", [("text_only", 0.0), ("direct", 0.5)])
    def test_saved_bytes_are_the_encoders(self, tmp_path, scheme, p):
        # save_model splices the base64 weights in at their key.
        corpus = speech_train_corpus(30)
        corpus.records.append(make_utt("q", 'say "weights": "" in café', 'quote "x"', "say"))
        model = train(plan_for(corpus, scheme, p), corpus, desk_recipe(), SIM0)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_text(encoding="utf-8") == json.dumps(model_to_dict(model),
                                                              ensure_ascii=False)

    def test_foreign_feature_dim_rejected(self):
        corpus = speech_train_corpus(30)
        obj = model_to_dict(train(plan_for(corpus, "direct", 0.5), corpus,
                                  desk_recipe(), SIM0))
        assert obj["feature_dim"] == trainer_module.FEATURE_DIM
        with pytest.raises(TrainError, match="1024 hashed features"):
            model_from_dict({**obj, "feature_dim": 1024})


class TestManifest:
    @pytest.mark.parametrize("profile,phase1,phase2", [
        ("desk", (0.5, 0.04), (0.3, 0.02)),
        ("published", (5.0e-6, 0.04), (3.0e-6, 0.02)),
    ])
    @pytest.mark.parametrize("scheme,p,epochs,epochs_by_phase", [
        ("text_only", 0.0, 3, [[1, 2, 3]]),
        ("direct", 0.25, 3, [[1, 2, 3]]),
        ("curriculum", 0.25, 3, [[1, 2], [3]]),
        ("curriculum", 0.25, 1, [[1]]),
    ], ids=["text_only", "direct", "curriculum", "curriculum_one_epoch"])
    def test_lr_phases(self, profile, phase1, phase2, scheme, p, epochs, epochs_by_phase):
        plan = plan_for(speech_train_corpus(40), scheme, p, epochs=epochs)
        manifest = export_manifest(plan, RECIPE_PROFILES[profile], "corpus.jsonl")
        assert manifest["lr_phases"] == [
            {"phase": n, "schedule": "cosine", "peak_lr": peak_lr, "warmup_ratio": warmup_ratio,
             "epochs": phase_epochs}
            for n, ((peak_lr, warmup_ratio), phase_epochs)
            in enumerate(zip((phase1, phase2), epochs_by_phase), 1)]

    def test_curriculum_two_phases(self, tmp_path):
        corpus = speech_train_corpus(40)
        plan = plan_for(corpus, "curriculum", 0.25)
        manifest = export_manifest(plan, published_recipe(), "corpus.jsonl",
                                   tmp_path / "m.json")
        assert manifest["manifest_version"] == 1
        phases = manifest["lr_phases"]
        assert [(p["peak_lr"], p["warmup_ratio"]) for p in phases] == \
            [(5.0e-6, 0.04), (3.0e-6, 0.02)]
        assert phases[0]["epochs"] == [1, 2]
        assert phases[1]["epochs"] == [3]
        assert manifest["decode_hint"] == {"strategy": "beam_search", "beams": 3}
        assert (tmp_path / "m.json").exists()

    def test_direct_single_phase(self):
        corpus = speech_train_corpus(40)
        manifest = export_manifest(plan_for(corpus, "direct", 0.25),
                                   published_recipe(), "corpus.jsonl")
        assert len(manifest["lr_phases"]) == 1
        assert manifest["freeze"] == []

    def test_text_only_freeze_and_empty_speech(self):
        corpus = speech_train_corpus(40)
        manifest = export_manifest(plan_for(corpus, "text_only", 0.0),
                                   published_recipe(), "corpus.jsonl")
        assert manifest["freeze"] == ["audio_encoder", "adapter"]
        assert all(ep["speech_item_ids"] == [] for ep in manifest["epochs"])

    @pytest.mark.parametrize("scheme", ["text_only", "direct", "curriculum"])
    def test_epochs_are_the_expanded_plan(self, scheme):
        plan = plan_for(speech_train_corpus(40), scheme, 0.25)
        manifest = export_manifest(plan, published_recipe(), "corpus.jsonl")
        assert manifest["epochs"] == [
            {"epoch": ep.epoch, "text_item_ids": list(ep.text_item_ids),
             "speech_item_ids": list(ep.speech_item_ids)} for ep in plan.epochs]
        assert all(list(ep) == ["epoch", "text_item_ids", "speech_item_ids"]
                   for ep in manifest["epochs"])


class TestMonotoneDataBenefit:
    def test_full_corpus_beats_one_percent(self):
        corpus = make_synthetic_corpus(2000, seed=0)
        sim = SpeechSimConfig(substitution_rate=0.15, deletion_rate=0.10, seed=7)
        train_view = filter_split(corpus, "train")
        small_records = train_view.records[:len(train_view.records) // 100]
        small = Corpus(name="small", lang=corpus.lang,
                       records=small_records + [r for r in corpus.records
                                                if r.split != "train"])

        def dev_accuracy(c):
            model = train(plan_for(c, "text_only", 0.0), c,
                          desk_recipe(), sim)
            dev = filter_split(c, "dev")
            hits = 0
            for utt in dev.records:
                pred = predict(model, utt.text, sim)
                hits += int((pred.scenario, pred.action) == utt.label.intent)
            return hits / len(dev.records)

        assert dev_accuracy(corpus) >= dev_accuracy(small)
