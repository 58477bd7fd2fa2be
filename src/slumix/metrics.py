"""Evaluation metrics: intent accuracy, micro entity F1, and SLU-F1.

All comparisons run on normalized labels (whitespace collapsed; scenario,
action and entity types lowercased; fillers case-preserving). Labels are
normalized when they are built, so gold labels and predictions, predicted or
parsed, compare as they are.

SLU-F1 jointly scores intent and entities: each utterance contributes its
entity spans plus two pseudo-spans carrying the scenario and action values.
Same-type gold/predicted spans are matched by one optimal assignment per span
type, with fractional credit per matched pair given by multiset-overlap F1 of
the filler strings, computed once over word tokens and once over characters.
The final score is the arithmetic mean of the micro word-level F1 and the
micro character-level F1 (the SLURP-toolkit convention). The assignment is
solved here, exactly, by the Hungarian method (``_max_credit``), so scoring
needs no SciPy; nothing in the package does.

``evaluate`` computes every metric in one pass over the records.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import SemanticLabel
from .errors import MetricsError


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    utt_id: str
    gold: SemanticLabel
    pred: SemanticLabel


@dataclass(frozen=True)
class MetricReport:
    intent_accuracy: float
    entity_precision: float
    entity_recall: float
    entity_f1: float
    slu_f1: float
    counts: dict

    def value(self, metric: str) -> float:
        try:
            return getattr(self, metric)
        except AttributeError:
            raise MetricsError(f"unknown metric {metric!r}") from None


def _check_records(records) -> list[PredictionRecord]:
    records = list(records)
    if not records:
        raise MetricsError("empty record list")
    seen = set()
    for r in records:
        if r.utt_id in seen:
            raise MetricsError(f"duplicate utterance id {r.utt_id!r}")
        seen.add(r.utt_id)
    return records


def overlap_f1(gold: Counter, pred: Counter) -> float:
    """Multiset-overlap F1 between two bags of tokens or characters."""
    if not gold and not pred:
        return 1.0
    inter = sum((gold & pred).values())
    if inter == 0:
        return 0.0
    precision = inter / sum(pred.values())
    recall = inter / sum(gold.values())
    return 2 * precision * recall / (precision + recall)


def word_credit(gold_filler: str, pred_filler: str) -> float:
    return overlap_f1(Counter(gold_filler.split()), Counter(pred_filler.split()))


def char_credit(gold_filler: str, pred_filler: str) -> float:
    return overlap_f1(Counter(gold_filler), Counter(pred_filler))


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def _ratio(num: float, denom: float) -> float:
    return num / denom if denom > 0 else 0.0


def _spans(label: SemanticLabel) -> list[tuple[str, str]]:
    """Entity spans plus the scenario/action pseudo-spans."""
    if label.unparseable:
        return []
    spans = [("scenario", label.scenario), ("action", label.action)]
    spans += [(e.etype, e.filler) for e in label.entities]
    return spans


def _max_credit(matrix: list[list[float]]) -> float:
    """Maximum total credit of an injective partial matching, summed in row order.

    Credits are non-negative, so a maximum-weight assignment of the smaller
    side attains it. The Hungarian method finds one: each row of the smaller
    side joins the matching along a shortest augmenting path of reduced costs,
    O(n^2 m) for n <= m.
    """
    flip = len(matrix) > len(matrix[0])
    # cost[i][j], 1-based: column 0 is the root of each path search, row 0 unused.
    cost = [None] + [[0.0] + [-c for c in row] for row in (zip(*matrix) if flip else matrix)]
    n, m = len(cost) - 1, len(cost[1]) - 1
    u, v = [0.0] * (n + 1), [0.0] * (m + 1)
    owner, way = [0] * (m + 1), [0] * (m + 1)  # owner[j]: row matched to column j, 0 if none
    for i in range(1, n + 1):
        owner[0], j0 = i, 0
        minv, used = [math.inf] * (m + 1), [False] * (m + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], math.inf, 0
            row, ui = cost[i0], u[i0]
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = row[j] - ui - v[j]
                    if reduced < minv[j]:
                        minv[j], way[j] = reduced, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:  # flip the path's edges: each column takes its predecessor's row
            j1 = way[j0]
            owner[j0], j0 = owner[j1], j1
    pairs = sorted((j - 1, owner[j] - 1) if flip else (owner[j] - 1, j - 1)
                   for j in range(1, m + 1) if owner[j])
    return float(sum(matrix[r][c] for r, c in pairs))


def _group_credit(golds: list[str], preds: list[str]) -> tuple[float, float]:
    """Optimal (word, char) matching credit of one span type's fillers."""
    if len(golds) == len(preds) == 1:
        # One pair is its own best matching. Equal fillers have equal bags,
        # whose overlap F1 is exactly 1.0.
        gold, pred = golds[0], preds[0]
        if gold == pred:
            return 1.0, 1.0
        return word_credit(gold, pred), char_credit(gold, pred)
    gold_bags = [(Counter(g.split()), Counter(g)) for g in golds]
    pred_bags = [(Counter(p.split()), Counter(p)) for p in preds]
    word = _max_credit([[overlap_f1(gw, pw) for pw, _ in pred_bags] for gw, _ in gold_bags])
    char = _max_credit([[overlap_f1(gc, pc) for _, pc in pred_bags] for _, gc in gold_bags])
    return word, char


def _matched_credit(gold_spans, pred_spans) -> tuple[float, float]:
    """Optimal same-type matching credit for one utterance: (word, char)."""
    by_type: dict[str, tuple[list, list]] = {}
    for etype, filler in gold_spans:
        by_type.setdefault(etype, ([], []))[0].append(filler)
    for etype, filler in pred_spans:
        by_type.setdefault(etype, ([], []))[1].append(filler)
    word = char = 0.0
    for golds, preds in by_type.values():
        if golds and preds:
            dword, dchar = _group_credit(golds, preds)
            word += dword
            char += dchar
    return word, char


def _entity_counts(gold: SemanticLabel, pred: SemanticLabel) -> tuple[int, int, int]:
    """(tp, fp, fn) for exact-match entity scoring on one utterance."""
    gold_bag = Counter((e.etype, e.filler) for e in gold.entities)
    pred_bag = Counter() if pred.unparseable else Counter(
        (e.etype, e.filler) for e in pred.entities)
    tp = sum((gold_bag & pred_bag).values())
    return tp, sum(pred_bag.values()) - tp, sum(gold_bag.values()) - tp


def evaluate(records) -> MetricReport:
    """All three metrics in one pass over the records, with the underlying
    counts. A prediction equal to its gold label adds its span count to each
    credit sum without matching: the same sums, bit for bit."""
    records = _check_records(records)
    hits = tp = fp = fn = n_gold = n_pred = 0
    word_tp = char_tp = 0.0
    for r in records:
        gold, pred = r.gold, r.pred
        if pred == gold and not pred.unparseable:
            # Each span credits 1.0, the most a pair can, against its equal twin.
            n = len(gold.entities)
            hits, tp, n_gold, n_pred = hits + 1, tp + n, n_gold + 2 + n, n_pred + 2 + n
            word_tp, char_tp = word_tp + 2 + n, char_tp + 2 + n
            continue
        if not pred.unparseable and pred.intent == gold.intent:
            hits += 1
        dtp, dfp, dfn = _entity_counts(gold, pred)
        tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
        gold_spans, pred_spans = _spans(gold), _spans(pred)
        n_gold += len(gold_spans)
        n_pred += len(pred_spans)
        word, char = _matched_credit(gold_spans, pred_spans)
        word_tp += word
        char_tp += char
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    word_f1 = _f1(_ratio(word_tp, n_pred), _ratio(word_tp, n_gold))
    char_f1 = _f1(_ratio(char_tp, n_pred), _ratio(char_tp, n_gold))
    return MetricReport(
        intent_accuracy=hits / len(records),
        entity_precision=precision,
        entity_recall=recall,
        entity_f1=_f1(precision, recall),
        slu_f1=(word_f1 + char_f1) / 2,
        counts={
            "n_utts": len(records),
            "tp": tp,
            "fp": fp,
            "fn": fn,
            "word_tp_frac": word_tp,
            "char_tp_frac": char_tp,
        },
    )


def report_to_dict(report: MetricReport) -> dict:
    return {**vars(report), "counts": dict(report.counts)}


def report_from_dict(obj: dict) -> MetricReport:
    return MetricReport(**obj)
