import dataclasses
import json
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import slumix.corpus
from label_fuzz import random_gold as random_label, random_pred, to_label
from reference_scorer import ref_evaluate, ref_max_credit
from slumix import (
    Entity,
    MetricsError,
    PredictionRecord,
    SemanticLabel,
    evaluate,
)
from slumix.corpus import UNPARSEABLE
from slumix.metrics import (
    MetricReport,
    _max_credit,
    char_credit,
    report_from_dict,
    report_to_dict,
    word_credit,
)


def rec(uid, gold, pred):
    return PredictionRecord(utt_id=uid, gold=gold, pred=pred)


def lab(scenario, action, entities=()):
    return SemanticLabel(scenario, action, tuple(Entity(t, f) for t, f in entities))


PERFECT = [
    rec("a", lab("alarm", "set", [("time", "seven am")]),
        lab("alarm", "set", [("time", "seven am")])),
    rec("b", lab("music", "play", [("artist", "queen")]),
        lab("music", "play", [("artist", "queen")])),
]


class TestIntentAccuracy:
    def test_all_correct(self):
        records = [rec(str(i), lab("a", "b"), lab("a", "b")) for i in range(4)]
        assert evaluate(records).intent_accuracy == 1.0

    def test_half_correct(self):
        records = [rec("1", lab("a", "b"), lab("a", "b")),
                   rec("2", lab("a", "b"), lab("a", "b")),
                   rec("3", lab("a", "b"), lab("x", "b")),
                   rec("4", lab("a", "b"), lab("a", "y"))]
        assert evaluate(records).intent_accuracy == 0.5

    def test_scenario_right_action_wrong_is_wrong(self):
        records = [rec("1", lab("alarm", "set"), lab("alarm", "cancel"))]
        assert evaluate(records).intent_accuracy == 0.0

    def test_unparseable_is_wrong(self):
        assert evaluate([rec("1", lab("a", "b"), UNPARSEABLE)]).intent_accuracy == 0.0

    def test_normalization_applied(self):
        records = [rec("1", lab(" Alarm ", "SET"), lab("alarm", "set"))]
        assert evaluate(records).intent_accuracy == 1.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError, match="empty"):
            evaluate([])

    def test_duplicate_ids_rejected(self):
        records = [rec("1", lab("a", "b"), lab("a", "b"))] * 2
        with pytest.raises(MetricsError, match="duplicate"):
            evaluate(records)


class TestEntityPRF:
    def test_exact_match(self):
        report = evaluate([rec("1", lab("a", "b", [("time", "seven am")]),
                               lab("a", "b", [("time", "seven am")]))])
        assert (report.entity_precision, report.entity_recall, report.entity_f1) == \
            (1.0, 1.0, 1.0)

    def test_empty_prediction(self):
        report = evaluate([rec("1", lab("a", "b", [("time", "seven am")]), lab("a", "b"))])
        assert (report.entity_precision, report.entity_recall, report.entity_f1) == \
            (0.0, 0.0, 0.0)

    def test_mixed_counts(self):
        # gold {(a,x),(b,y)}, pred {(a,x),(b,z),(c,x)} -> TP=1 FP=2 FN=1
        records = [rec("1", lab("s", "t", [("a", "x"), ("b", "y")]),
                       lab("s", "t", [("a", "x"), ("b", "z"), ("c", "x")]))]
        report = evaluate(records)
        assert report.entity_precision == pytest.approx(1 / 3)
        assert report.entity_recall == pytest.approx(1 / 2)
        assert report.entity_f1 == pytest.approx(0.4)
        counts = report.counts
        assert (counts["tp"], counts["fp"], counts["fn"]) == (1, 2, 1)

    def test_duplicate_entities_as_multiset(self):
        records = [rec("1", lab("s", "t", [("a", "x"), ("a", "x")]),
                       lab("s", "t", [("a", "x")]))]
        counts = evaluate(records).counts
        assert (counts["tp"], counts["fp"], counts["fn"]) == (1, 0, 1)


class TestCredits:
    def test_word_credit_partial(self):
        assert word_credit("seven am", "seven") == pytest.approx(2 / 3)

    def test_char_credit_partial(self):
        assert char_credit("seven am", "seven") == pytest.approx(10 / 13)

    def test_exact_is_one(self):
        assert word_credit("seven am", "seven am") == 1.0
        assert char_credit("seven am", "seven am") == 1.0

    def test_disjoint_is_zero(self):
        assert word_credit("seven", "nine") == 0.0


class TestSluF1:
    def test_perfect(self):
        assert evaluate(PERFECT).slu_f1 == 1.0

    def test_all_unparseable(self):
        records = [rec("1", lab("a", "b", [("t", "v")]), UNPARSEABLE)]
        assert evaluate(records).slu_f1 == 0.0

    def test_intent_only_records(self):
        # no entities anywhere: perfect intents give slu_f1 = 1
        records = [rec("1", lab("a", "b"), lab("a", "b")),
                   rec("2", lab("c", "d"), lab("c", "d"))]
        assert evaluate(records).slu_f1 == 1.0
        assert evaluate(records).intent_accuracy == 1.0

    def test_partial_filler_matches_oracle(self):
        gold = lab("alarm", "set", [("time", "seven am")])
        pred = lab("alarm", "set", [("time", "seven")])
        ours = evaluate([rec("1", gold, pred)]).slu_f1
        ref = ref_evaluate([(("alarm", "set", [("time", "seven am")]),
                             ("alarm", "set", [("time", "seven")]))])[4]
        assert ours == pytest.approx(ref, abs=1e-12)


class TestEvaluateBundle:
    def test_single_perfect_record(self):
        report = evaluate(PERFECT[:1])
        assert (report.intent_accuracy, report.entity_f1, report.slu_f1) == (1, 1, 1)
        assert report.counts["n_utts"] == 1

    def test_all_unparseable(self):
        report = evaluate([rec("1", lab("a", "b", [("t", "v")]), UNPARSEABLE)])
        assert (report.intent_accuracy, report.entity_f1, report.slu_f1) == (0, 0, 0)

    def test_unknown_metric_name(self):
        with pytest.raises(MetricsError):
            evaluate(PERFECT).value("wer")

    def test_report_file_fields_are_the_report_fields(self):
        report = evaluate(PERFECT)
        obj = json.loads(json.dumps(report_to_dict(report)))
        assert list(obj) == [f.name for f in dataclasses.fields(MetricReport)]
        assert report_from_dict(obj) == report


class TestOracleEquivalence:
    def test_fixed_ten_record_fixture(self):
        rng = random.Random(2024)
        triples = []
        for _ in range(10):
            gold = random_label(rng)
            triples.append((gold, random_pred(rng, gold)))
        records = [rec(str(i), to_label(g), to_label(p))
                   for i, (g, p) in enumerate(triples)]
        ref = ref_evaluate(triples)
        report = evaluate(records)
        got = (report.intent_accuracy, report.entity_precision,
               report.entity_recall, report.entity_f1, report.slu_f1)
        for ours, theirs in zip(got, ref):
            assert ours == pytest.approx(theirs, abs=1e-12)

    def test_thousand_random_utterances(self):
        rng = random.Random(123)
        triples = []
        for _ in range(1000):
            gold = random_label(rng)
            triples.append((gold, random_pred(rng, gold)))
        records = [rec(str(i), to_label(g), to_label(p))
                   for i, (g, p) in enumerate(triples)]
        ref_acc, ref_p, ref_r, ref_f1, ref_slu = ref_evaluate(triples)
        report = evaluate(records)
        assert report.intent_accuracy == pytest.approx(ref_acc, abs=1e-12)
        assert report.entity_precision == pytest.approx(ref_p, abs=1e-12)
        assert report.entity_recall == pytest.approx(ref_r, abs=1e-12)
        assert report.entity_f1 == pytest.approx(ref_f1, abs=1e-12)
        assert report.slu_f1 == pytest.approx(ref_slu, abs=1e-12)


class _Twin(SemanticLabel):
    """A label that equals no label of another class, so ``evaluate`` scores
    it against its gold label without the exact-match shortcut."""

    __slots__ = ()


class TestExactMatchShortcut:
    def test_scores_equal_oracle_and_full_path(self):
        rng = random.Random(77)
        triples = []
        for _ in range(300):
            scenario, action, ents = random_label(rng)
            # Repeat entity types and whole entities, also the "scenario" type.
            ents += [rng.choice(ents) for _ in range(rng.randint(0, 2))] if ents else []
            gold = (scenario, action, ents)
            pred = gold if rng.random() < 0.5 else random_pred(rng, gold)
            triples.append((gold, pred))
        records = [rec(str(i), to_label(g), to_label(p)) for i, (g, p) in enumerate(triples)]
        assert sum(r.pred == r.gold for r in records) > 150
        assert any(len({e.etype for e in r.gold.entities}) < len(r.gold.entities)
                   for r in records if r.pred == r.gold)
        report = evaluate(records)
        full = evaluate([rec(r.utt_id, r.gold, r.pred if r.pred.unparseable
                             else _Twin(r.pred.scenario, r.pred.action, r.pred.entities))
                         for r in records])
        assert report == full  # bit for bit
        got = (report.intent_accuracy, report.entity_precision,
               report.entity_recall, report.entity_f1, report.slu_f1)
        assert got == pytest.approx(ref_evaluate(triples), abs=1e-12)


class TestInvariances:
    def _random_records(self, seed, n=40):
        rng = random.Random(seed)
        out = []
        for i in range(n):
            gold = random_label(rng)
            out.append(rec(str(i), to_label(gold), to_label(random_pred(rng, gold))))
        return out

    def test_record_permutation_invariant(self):
        records = self._random_records(7)
        shuffled = list(records)
        random.Random(9).shuffle(shuffled)
        assert evaluate(records) == evaluate(shuffled)

    def test_entity_order_invariant(self):
        gold = lab("s", "t", [("a", "x"), ("b", "y")])
        pred1 = lab("s", "t", [("a", "x"), ("b", "y")])
        pred2 = lab("s", "t", [("b", "y"), ("a", "x")])
        assert evaluate([rec("1", gold, pred1)]) == evaluate([rec("1", gold, pred2)])

    def test_metrics_in_unit_interval(self):
        for seed in range(5):
            report = evaluate(self._random_records(seed))
            for name in ("intent_accuracy", "entity_precision", "entity_recall",
                         "entity_f1", "slu_f1"):
                assert 0.0 <= report.value(name) <= 1.0

    def test_removing_fp_never_decreases_precision(self):
        gold = lab("s", "t", [("a", "x")])
        with_fp = [rec("1", gold, lab("s", "t", [("a", "x"), ("b", "z")]))]
        without = [rec("1", gold, lab("s", "t", [("a", "x")]))]
        assert evaluate(without).entity_precision >= evaluate(with_fp).entity_precision

    def test_adding_tp_never_decreases_f1(self):
        gold = lab("s", "t", [("a", "x"), ("b", "y")])
        partial = [rec("1", gold, lab("s", "t", [("a", "x")]))]
        fuller = [rec("1", gold, lab("s", "t", [("a", "x"), ("b", "y")]))]
        assert evaluate(fuller).entity_f1 >= evaluate(partial).entity_f1

    # Square groups of 1-7 spans per side, and every rectangular shape with
    # 8 spans in all (the oracle's cost grows factorially with the sizes).
    @pytest.mark.parametrize("n_gold,n_pred", [(n, n) for n in range(1, 8)]
                             + [(n, 8 - n) for n in range(1, 8) if n != 4])
    def test_same_type_group_matches_oracle(self, n_gold, n_pred):
        # Every group size goes through the assignment solver; a repeated
        # filler on each side gives tied optimal matchings.
        rng = random.Random(100 * n_gold + n_pred)
        words = ["a", "b", "c", "d", "e"]

        def spans(n):
            fillers = [" ".join(rng.choice(words) for _ in range(2)) for _ in range(n)]
            if n > 1:
                fillers[-1] = fillers[0]
            return [("t", f) for f in fillers]

        gold, pred = ("s", "v", spans(n_gold)), ("s", "v", spans(n_pred))
        report = evaluate([rec("1", to_label(gold), to_label(pred))])
        _, ref_p, ref_r, _, ref_slu = ref_evaluate([(gold, pred)])
        assert report.slu_f1 == pytest.approx(ref_slu, abs=1e-12)
        assert (report.entity_precision, report.entity_recall) == \
            pytest.approx((ref_p, ref_r), abs=1e-12)

    def test_evaluate_does_not_normalize(self, monkeypatch):
        # Labels are normalized when they are built; scoring compares them as they are.
        records = self._random_records(11)
        calls = []
        normalize_space = slumix.corpus.normalize_space

        def counting(value):
            calls.append(value)
            return normalize_space(value)

        monkeypatch.setattr(slumix.corpus, "normalize_space", counting)
        evaluate(records)
        assert calls == []


def _solve(matrix):
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    return float(sum(matrix[i][j] for i, j in zip(rows, cols)))


def _assignment_oracle_counts(records):
    """The counts ``evaluate`` reports, from every pair's credit and one
    assignment per span-type group, 1x1 groups included, summed in the same
    order as ``evaluate``."""
    word_tp = char_tp = 0.0
    tp = fp = fn = 0
    for r in records:
        groups = {}
        for side, label in ((0, r.gold), (1, r.pred)):
            if not label.unparseable:
                spans = [("scenario", label.scenario), ("action", label.action)]
                for etype, filler in spans + [(e.etype, e.filler) for e in label.entities]:
                    groups.setdefault(etype, ([], []))[side].append(filler)
        word = char = 0.0
        for golds, preds in groups.values():
            if golds and preds:
                word += _solve([[word_credit(g, p) for p in preds] for g in golds])
                char += _solve([[char_credit(g, p) for p in preds] for g in golds])
        word_tp += word
        char_tp += char
        gold_bag = Counter((e.etype, e.filler) for e in r.gold.entities)
        pred_bag = Counter() if r.pred.unparseable else Counter(
            (e.etype, e.filler) for e in r.pred.entities)
        hit = sum((gold_bag & pred_bag).values())
        tp, fp, fn = tp + hit, fp + sum(pred_bag.values()) - hit, fn + sum(gold_bag.values()) - hit
    return {"n_utts": len(records), "tp": tp, "fp": fp, "fn": fn,
            "word_tp_frac": word_tp, "char_tp_frac": char_tp}


# A small vocabulary, so equal fillers, overlapping unequal fillers, 1x1
# groups and one-sided (empty) groups are all common; at most 4 spans per
# type gives groups up to 4x4.
_fillers = st.lists(st.sampled_from(["seven", "am", "new", "york", "a"]),
                    min_size=1, max_size=3).map(" ".join)
_entities = st.lists(st.tuples(st.sampled_from(["time", "place", "date"]), _fillers),
                     max_size=8).filter(
    lambda ents: max(Counter(t for t, _ in ents).values(), default=0) <= 4)
_labels = st.builds(lab, st.sampled_from(["alarm", "alarm clock", "music"]),
                    st.sampled_from(["set", "set up", "play"]), _entities)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_labels, st.one_of(st.just(UNPARSEABLE), _labels)),
                min_size=1, max_size=5))
def test_counts_equal_assignment_oracle(pairs):
    records = [rec(str(i), gold, pred) for i, (gold, pred) in enumerate(pairs)]
    # Among equally good matchings the matcher may choose another one than
    # scipy; the two sums then differ only by rounding.
    counts, oracle = evaluate(records).counts, _assignment_oracle_counts(records)
    exact = ("n_utts", "tp", "fp", "fn")
    assert {k: counts[k] for k in exact} == {k: oracle[k] for k in exact}
    assert counts == pytest.approx(oracle, abs=1e-12)


# Tie-heavy credits: the values overlap F1 takes most often on short fillers.
_credit_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 2 / 3, 0.8, 1.0]),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


@settings(max_examples=300, deadline=None)
@given(_credit_matrices)
def test_max_credit_matches_brute_force_and_scipy(matrix):
    best = _max_credit(matrix)
    spans = lambda n: [("t", i) for i in range(n)]
    brute = ref_max_credit(spans(len(matrix)), spans(len(matrix[0])),
                           lambda g, p: matrix[g][p])
    assert best == pytest.approx(brute, abs=1e-12)
    assert best == pytest.approx(_solve(matrix), abs=1e-12)


def test_max_credit_large_group_is_fast():
    rng = random.Random(60)
    matrix = [[rng.random() for _ in range(60)] for _ in range(60)]
    start = time.perf_counter()
    best = _max_credit(matrix)
    assert time.perf_counter() - start < 1.0
    assert best == pytest.approx(_solve(matrix), abs=1e-12)
