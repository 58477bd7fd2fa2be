"""Output checks. Each returns a list of problems; an empty list passes.

The checks read what slumix wrote (cell directories, ``aggregate.csv``,
``report.json``) and compare it with values derived independently of the
code under test: plan totals, seed counts, recorded reference means and the
brute-force scorer in ``tests/reference_scorer.py``.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
from collections import defaultdict
from pathlib import Path

from slumix import ExperimentManifest, make_synthetic_corpus, run_grid, save_corpus
from slumix.grid import read_rows_csv

ROOT = Path(__file__).resolve().parent.parent
CANARY_PATH = Path(__file__).resolve().parent / "canary.json"

# Aggregate means are averages of per-seed scores; a change that only
# reorders float sums (e.g. a vectorised trainer) moves them by far less.
MEAN_TOL = 1e-9
REPORT_TOL = 1e-9


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def cell_metas(runs: Path) -> dict[str, dict]:
    return {p.parent.name: _read_json(p) for p in sorted(runs.glob("*/meta.json"))}


def check_train_counts(metas: dict[str, dict]) -> list[str]:
    """Every cell consumed exactly the items its plan scheduled."""
    problems = []
    for cell, meta in metas.items():
        totals = meta["plan_totals"]
        logged = [(r["text_items"], r["speech_items"]) for r in meta["train_log"]]
        planned = list(zip(totals["per_epoch_text"], totals["per_epoch_speech"]))
        if logged != planned:
            problems.append(f"{cell}: train_log {logged} != plan_totals {planned}")
    return problems


def check_equal_exposure(metas: dict[str, dict]) -> list[str]:
    """direct and curriculum consume the same total speech at each (level, seed)."""
    speech = defaultdict(dict)
    for meta in metas.values():
        if meta.get("scheme") in ("direct", "curriculum") and "mode" not in meta:
            key = (meta["corpus"], meta["speech_level"], meta["seed"])
            speech[key][meta["scheme"]] = meta["plan_totals"]["total_speech"]
    problems = []
    for key, by_scheme in sorted(speech.items()):
        if len(by_scheme) != 2 or by_scheme["direct"] != by_scheme["curriculum"]:
            problems.append(f"{key}: unequal speech exposure {by_scheme}")
    return problems


def check_seed_counts(aggregate_csv: Path, n_seeds: int) -> list[str]:
    rows = read_rows_csv(aggregate_csv)
    if not rows:
        return [f"{aggregate_csv}: no rows"]
    return [f"{r['scheme']}@{r['speech_level']} {r['metric']}: n={r['cell'].n} != {n_seeds}"
            for r in rows if r["cell"].n != n_seeds]


def check_means_from_cells(runs: Path, aggregate_csv: Path) -> list[str]:
    """aggregate.csv means equal the seed means of the cells' report.json."""
    values = defaultdict(list)
    for cell, meta in cell_metas(runs).items():
        report = _read_json(runs / cell / "report.json")
        for metric in ("intent_accuracy", "entity_f1", "slu_f1"):
            key = (meta["corpus"], meta["scheme"], meta["speech_level"], metric)
            values[key].append(report[metric])
    problems = []
    rows = read_rows_csv(aggregate_csv)
    for r in rows:
        key = (r["corpus"], r["scheme"], r["speech_level"], r["metric"])
        seeds = values.pop(key, [])
        mean = sum(seeds) / len(seeds) if seeds else math.nan
        if not abs(r["cell"].mean - mean) <= MEAN_TOL:
            problems.append(f"{key}: aggregate mean {r['cell'].mean!r} != cell mean {mean!r}")
    problems += [f"{key}: cells missing from aggregate.csv" for key in sorted(values)]
    return problems


def check_targets(runs: Path, targets: tuple[str, ...]) -> list[str]:
    """Every cross-lingual cell reports every target language."""
    problems = []
    for cell in cell_metas(runs):
        per_target = _read_json(runs / cell / "report.json").get("per_target", {})
        missing = [t for t in targets
                   if "slu_f1" not in per_target.get(t, {})]
        if missing:
            problems.append(f"{cell}: no report for targets {missing}")
    return problems


# --------------------------------------------------------------------------
# Canary grid: a small fixed grid whose aggregate means were recorded at the
# commit that introduced the benchmark. It pins the trainer's and scorer's
# arithmetic independently of the workload seed.


def run_canary(work: Path) -> dict[str, float]:
    work.mkdir(parents=True, exist_ok=True)
    spec = _read_json(CANARY_PATH)["grid"]
    corpus_path = work / "canary.jsonl"
    save_corpus(make_synthetic_corpus(spec["n"], seed=spec["corpus_seed"]), corpus_path)
    manifest = ExperimentManifest(
        corpora={"synthetic": str(corpus_path)}, schemes=tuple(spec["schemes"]),
        speech_levels=tuple(spec["speech_levels"]), seeds=tuple(spec["seeds"]),
        epochs=spec["epochs"], recipe={"profile": "desk"})
    outcome = run_grid(manifest, work / "runs")
    return {f"{r['scheme']}@{r['speech_level']:g}/{r['metric']}": r["cell"].mean
            for r in outcome.rows}


def check_canary(work: Path) -> list[str]:
    expected = _read_json(CANARY_PATH)["means"]
    got = run_canary(work)
    problems = [f"canary {key}: {got.get(key)!r} != {value!r}"
                for key, value in expected.items()
                if key not in got or not abs(got[key] - value) <= MEAN_TOL]
    problems += [f"canary {key}: unexpected row" for key in got if key not in expected]
    return problems


# --------------------------------------------------------------------------
# External scoring: reference values from the brute-force scorer


def _load_reference_scorer():
    path = ROOT / "tests" / "reference_scorer.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference_scorer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_type(spans):
    groups = defaultdict(list)
    for span in spans:
        groups[span[0]].append(span)
    return groups


def reference_scores(pairs) -> dict:
    """Scores of (gold, pred) label pairs by the brute-force reference scorer.

    Labels are (scenario, action, [(type, filler), ...]), pred None when the
    string encodes nothing parseable. Same-type spans are matched
    independently of other types, so enumerating each type group on its own
    gives the same maxima as one enumeration over all spans, without the
    product of the groups' search spaces; identical pairs are scored once.
    """
    ref = _load_reference_scorer()
    word = functools.lru_cache(maxsize=None)(ref.ref_word_credit)
    char = functools.lru_cache(maxsize=None)(ref.ref_char_credit)
    memo = {}
    totals = [0] * 8
    for gold, pred in pairs:
        key = (gold[0], gold[1], tuple(gold[2]),
               None if pred is None else (pred[0], pred[1], tuple(pred[2])))
        contrib = memo.get(key)
        if contrib is None:
            hit = pred is not None and (
                (ref.norm_key(pred[0]), ref.norm_key(pred[1]))
                == (ref.norm_key(gold[0]), ref.norm_key(gold[1])))
            g_ents = _by_type((ref.norm_key(t), f) for t, f in gold[2])
            p_ents = _by_type((ref.norm_key(t), f) for t, f in (pred[2] if pred else ()))
            counts = [ref.ref_entity_counts(g_ents.get(t, []), p_ents.get(t, []))
                      for t in set(g_ents) | set(p_ents)]
            g_spans, p_spans = ref._label_spans(gold), ref._label_spans(pred)
            g_groups, p_groups = _by_type(g_spans), _by_type(p_spans)
            shared = [t for t in g_groups if t in p_groups]
            contrib = memo[key] = (
                int(hit),
                sum(c[0] for c in counts), sum(c[1] for c in counts),
                sum(c[2] for c in counts),
                len(g_spans), len(p_spans),
                sum(ref.ref_max_credit(g_groups[t], p_groups[t], word) for t in shared),
                sum(ref.ref_max_credit(g_groups[t], p_groups[t], char) for t in shared),
            )
        totals = [a + b for a, b in zip(totals, contrib)]
    hits, tp, fp, fn, n_gold, n_pred, word_tp, char_tp = totals
    precision = ref._ratio(tp, tp + fp)
    recall = ref._ratio(tp, tp + fn)
    word_f1 = ref._f1(ref._ratio(word_tp, n_pred), ref._ratio(word_tp, n_gold))
    char_f1 = ref._f1(ref._ratio(char_tp, n_pred), ref._ratio(char_tp, n_gold))
    return {
        "intent_accuracy": hits / len(pairs),
        "entity_precision": precision,
        "entity_recall": recall,
        "entity_f1": ref._f1(precision, recall),
        "slu_f1": (word_f1 + char_f1) / 2,
        "counts": {"n_utts": len(pairs), "tp": tp, "fp": fp, "fn": fn},
    }


def check_report(report_path: Path, expected: dict) -> list[str]:
    report = _read_json(report_path)
    problems = [f"{name}: {report.get(name)!r} != reference {value!r}"
                for name, value in expected.items() if name != "counts"
                and not abs(report.get(name, math.nan) - value) <= REPORT_TOL]
    problems += [f"counts.{name}: {report['counts'].get(name)!r} != reference {value!r}"
                 for name, value in expected["counts"].items()
                 if report["counts"].get(name) != value]
    return problems


def check_record_count(path: Path, expected: int) -> list[str]:
    with open(path, "rb") as f:
        lines = sum(1 for line in f if line.strip())
    return [] if lines == expected else [f"{path.name}: {lines} records, expected {expected}"]
