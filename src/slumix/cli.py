"""Command-line entry points.

Exit codes: 0 success, 1 data/processing error, 2 usage error (argparse).
With ``--json``, progress and result lines are emitted as JSON objects.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import grid as gridmod
from .corpus import (
    PROFILES,
    SPLITS,
    _load_jsonl,
    filter_split,
    load_corpus,
    read_records,
    save_corpus,
)
from .errors import CorpusFormatError, SlumixError
from .grid import (
    load_manifest,
    read_rows_csv,
    run_grid,
    score_prediction_rows,
    write_predictions,
    write_report,
    write_rows_csv,
)
from .jsonio import replacing, write_text
from .metrics import report_to_dict
from .report import REPORT_STYLES, render_report
from .scheduler import load_plan, save_plan
from .synthetic import make_synthetic_corpus
from .trainer import SpeechSimConfig, export_manifest, load_model, save_model, train
from .trainer_recipes import RECIPE_PROFILES


class _Log:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def emit(self, event: str, **fields):
        if self.as_json:
            print(json.dumps({"event": event, **fields}, ensure_ascii=False,
                             sort_keys=True))
        else:
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            print(f"{event}: {detail}" if detail else event)


def _cmd_ingest(args, log: _Log) -> int:
    # One pass: each record is read, checked, written and counted.
    with replacing(args.out) as f:
        written = load_corpus(args.infile, args.profile, pairing=args.pairing,
                              default_lang=args.lang, write_to=f)
    counts = {f"{split}_{kind}": n for split, by_kind in written.stats.items()
              for kind, n in by_kind.items()}
    log.emit("ingested", records=len(written), lang=written.lang, **counts, out=str(args.out))
    return 0


def _cmd_synth(args, log: _Log) -> int:
    corpus = make_synthetic_corpus(n=args.n, seed=args.seed, lang=args.lang)
    save_corpus(corpus, args.out)
    log.emit("synthesized", records=len(corpus), out=str(args.out))
    return 0


def _cmd_plan(args, log: _Log) -> int:
    corpus = load_corpus(args.corpus, "canonical")
    plan = gridmod.make_plan_for_corpus(corpus, args.scheme, args.p, args.seed, args.epochs)
    save_plan(plan, args.out)
    log.emit("planned", scheme=args.scheme, p=args.p, epochs=args.epochs,
             budget=plan.config.budget, out=str(args.out))
    return 0


def _cmd_train(args, log: _Log) -> int:
    plan = load_plan(args.plan)
    corpus = load_corpus(args.corpus, "canonical")
    recipe = RECIPE_PROFILES[args.recipe_profile]
    sim = SpeechSimConfig(substitution_rate=args.sim_substitution,
                          deletion_rate=args.sim_deletion, seed=args.sim_seed)
    model = train(plan, corpus, recipe, sim)
    save_model(model, args.out)
    log.emit("trained", epochs=len(model.train_log),
             classes=len(model.classes), out=str(args.out))
    return 0


def _cmd_predict(args, log: _Log) -> int:
    model = load_model(args.model)
    corpus = load_corpus(args.corpus, "canonical")
    records = (gridmod.eval_records(corpus) if args.split == "test"
               else filter_split(corpus, args.split).records)
    rows = gridmod.prediction_rows(gridmod.predict_records(
        model, records, oracle_transcripts=args.oracle_transcripts))
    write_predictions(args.out, rows)
    log.emit("predicted", records=len(rows), out=str(args.out))
    return 0


def _cmd_evaluate(args, log: _Log) -> int:
    preds = {}  # utt_id -> pred_raw, in file order
    repeated = None  # the first utt_id a later row repeats
    for lineno, row in _load_jsonl(args.pred):
        utt_id = row.get("utt_id")
        if not isinstance(utt_id, str) or "pred_raw" not in row:
            raise CorpusFormatError("prediction row needs a string 'utt_id' and a 'pred_raw'",
                                    args.pred, lineno)
        if utt_id not in preds:
            preds[utt_id] = row["pred_raw"]
        elif repeated is None:
            repeated = utt_id
    # Every gold record is read and checked; only the predicted ids' labels are kept.
    gold = {utt.id: utt.label for utt in read_records(args.gold, "canonical")
            if utt.id in preds}
    report = score_prediction_rows(preds, gold, repeated)
    write_report(args.out, report_to_dict(report))
    log.emit("evaluated", n=report.counts["n_utts"],
             intent_accuracy=round(report.intent_accuracy, 6),
             entity_f1=round(report.entity_f1, 6),
             slu_f1=round(report.slu_f1, 6), out=str(args.out))
    return 0


def _cmd_aggregate(args, log: _Log) -> int:
    results, missing = gridmod.read_results(load_manifest(args.config), args.runs)
    rows = gridmod.aggregate_results(results)
    write_rows_csv(rows, args.out)
    log.emit("aggregated", rows=len(rows), missing=len(missing), out=str(args.out))
    return 1 if missing else 0


def _cmd_report(args, log: _Log) -> int:
    rendered = render_report(read_rows_csv(args.agg), args.style)
    md_path, csv_path = Path(f"{args.out_prefix}.md"), Path(f"{args.out_prefix}.csv")
    write_text(md_path, rendered["markdown"])
    write_text(csv_path, rendered["csv"])
    log.emit("reported", style=args.style, markdown=str(md_path), csv=str(csv_path))
    return 0


def _cmd_grid(args, log: _Log) -> int:
    manifest = load_manifest(args.config)
    outcome = run_grid(manifest, args.out)
    log.emit("grid", cells_run=outcome.cells_run,
             cells_skipped=outcome.cells_skipped, failures=len(outcome.failures),
             out=str(args.out))
    for failure in outcome.failures:
        log.emit("cell_failed", **failure)
    return 0 if outcome.ok else 1


def _cmd_export_manifest(args, log: _Log) -> int:
    plan = load_plan(args.plan)
    export_manifest(plan, RECIPE_PROFILES[args.recipe_profile], args.corpus_ref, args.out)
    log.emit("exported", scheme=plan.config.scheme, out=str(args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slumix",
        description="Speech/text mix scheduling, desk-scale training, and "
                    "SLU evaluation toolkit.")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON log lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a source corpus to canonical JSONL")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--profile", choices=PROFILES, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairing", choices=("all", "one"), default="all",
                   help="SLURP recordings per transcript to keep")
    p.add_argument("--lang", default="en")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate the bundled synthetic corpus")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lang", default="xx")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("plan", help="build a deterministic mix plan")
    p.add_argument("--scheme", choices=("text_only", "direct", "curriculum"),
                   required=True)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("train", help="run a plan through the reference learner")
    p.add_argument("--plan", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--recipe-profile", choices=RECIPE_PROFILES, default="desk")
    p.add_argument("--sim-substitution", type=float, default=0.15)
    p.add_argument("--sim-deletion", type=float, default=0.10)
    p.add_argument("--sim-seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict labels for a corpus split")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--oracle-transcripts", action="store_true",
                   help="feed gold transcripts instead of the model's simulated speech")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("aggregate", help="aggregate a manifest's grid cell reports to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("report", help="render aggregate results as tables")
    p.add_argument("--agg", required=True)
    p.add_argument("--style", choices=REPORT_STYLES, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("grid", help="run a full experiment grid from a manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("export-manifest",
                       help="export a replayable train manifest for a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--recipe-profile", choices=RECIPE_PROFILES, default="published")
    p.add_argument("--corpus-ref", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_manifest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    log = _Log(args.json)
    try:
        return args.func(args, log)
    except (SlumixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
