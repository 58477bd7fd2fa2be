"""Independent brute-force scorer used as the oracle in metric tests.

Deliberately dumb and separate from the package implementation: per
utterance it enumerates every injective same-type pairing of gold and
predicted spans to maximize credit, instead of decomposing per type or
solving an assignment problem. Shared with the implementation only through
the metric *definitions* (normalization, credit formulas, micro formulas).
"""

from collections import Counter


def norm_key(s):
    return " ".join(s.split()).lower()


def norm_filler(s):
    return " ".join(s.split())


def ref_overlap_f1(gold_items, pred_items):
    if not gold_items and not pred_items:
        return 1.0
    g, p = Counter(gold_items), Counter(pred_items)
    inter = sum((g & p).values())
    if inter == 0:
        return 0.0
    prec = inter / sum(p.values())
    rec = inter / sum(g.values())
    return 2 * prec * rec / (prec + rec)


def ref_word_credit(gold_filler, pred_filler):
    return ref_overlap_f1(gold_filler.split(), pred_filler.split())


def ref_char_credit(gold_filler, pred_filler):
    return ref_overlap_f1(list(gold_filler), list(pred_filler))


def _label_spans(label):
    """label: (scenario, action, [(etype, filler), ...]) or None (unparseable)."""
    if label is None:
        return []
    scenario, action, entities = label
    spans = [("scenario", norm_key(scenario)), ("action", norm_key(action))]
    spans += [(norm_key(t), norm_filler(f)) for t, f in entities]
    return spans


def ref_max_credit(gold_spans, pred_spans, credit_fn):
    """Maximum summed credit over every injective same-type pairing."""
    best = [0.0]
    # Each same-type pair's credit, computed once; the walk sums them in its own order.
    credit = {(gi, pi): credit_fn(gval, pval)
              for pi, (ptype, pval) in enumerate(pred_spans)
              for gi, (gtype, gval) in enumerate(gold_spans) if gtype == ptype}

    def walk(pi, used, acc):
        if pi == len(pred_spans):
            best[0] = max(best[0], acc)
            return
        walk(pi + 1, used, acc)  # leave this prediction unmatched
        ptype = pred_spans[pi][0]
        for gi, (gtype, _) in enumerate(gold_spans):
            if gtype == ptype and not used >> gi & 1:
                walk(pi + 1, used | 1 << gi, acc + credit[gi, pi])

    walk(0, 0, 0.0)
    return best[0]


def ref_entity_counts(gold_entities, pred_entities):
    """(tp, fp, fn) maximizing exact matches by the same enumeration."""
    gold = [(norm_key(t), norm_filler(f)) for t, f in gold_entities]
    pred = [(norm_key(t), norm_filler(f)) for t, f in pred_entities]
    exact = lambda g, p: 1.0 if g == p else 0.0
    tp = round(ref_max_credit(gold, pred, exact))
    return tp, len(pred) - tp, len(gold) - tp


def _f1(p, r):
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def ref_evaluate(records):
    """records: [(gold, pred)] with labels as in _label_spans.

    Returns (intent_accuracy, entity_p, entity_r, entity_f1, slu_f1).
    """
    hits = 0
    tp = fp = fn = 0
    word_tp = char_tp = 0.0
    n_gold_spans = n_pred_spans = 0
    for gold, pred in records:
        g_scenario, g_action, g_entities = gold
        if pred is not None:
            p_scenario, p_action, p_entities = pred
            if (norm_key(p_scenario), norm_key(p_action)) == \
                    (norm_key(g_scenario), norm_key(g_action)):
                hits += 1
            dtp, dfp, dfn = ref_entity_counts(g_entities, p_entities)
        else:
            dtp, dfp, dfn = ref_entity_counts(g_entities, [])
        tp, fp, fn = tp + dtp, fp + dfp, fn + dfn
        gold_spans = _label_spans(gold)
        pred_spans = _label_spans(pred)
        n_gold_spans += len(gold_spans)
        n_pred_spans += len(pred_spans)
        word_tp += ref_max_credit(gold_spans, pred_spans, ref_word_credit)
        char_tp += ref_max_credit(gold_spans, pred_spans, ref_char_credit)
    n = len(records)
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    word_f1 = _f1(_ratio(word_tp, n_pred_spans), _ratio(word_tp, n_gold_spans))
    char_f1 = _f1(_ratio(char_tp, n_pred_spans), _ratio(char_tp, n_gold_spans))
    return hits / n, precision, recall, _f1(precision, recall), (word_f1 + char_f1) / 2
