"""Experiment grids: plan -> train -> predict -> evaluate -> aggregate.

A grid is described by a versioned experiment manifest (JSON). Monolingual
grids run every (corpus, scheme, speech level, seed) cell; cross-lingual
grids run (mode, source speech level, seed) cells over combined corpora and
evaluate each target language's test split separately.

Cells are content-addressed by a hash of the manifest settings that affect
them, so an interrupted grid resumes by skipping finished cells. Every cell
persists ``plan.json``, ``model.json``, ``preds.jsonl`` and ``report.json``
under ``runs/<cell_id>/``; aggregation re-reads the reports, so two runs of
one manifest produce byte-identical aggregate CSVs.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

from .corpus import (
    Corpus,
    SemanticLabel,
    filter_split,
    load_corpus,
    speech_items,
    text_items,
)
from .crosslingual import DEFAULT_FEWSHOT_PAIRS, make_crosslingual_corpus
from .errors import ConfigError
from .labelcodec import parse_label, serialize_label
from .metrics import (
    MetricReport,
    PredictionRecord,
    evaluate,
    report_from_dict,
    report_to_dict,
)
from .scheduler import (
    SCHEMES,
    MixPlan,
    SchedulerConfig,
    build_plan,
    derive_seed,
    nested_permutation,
    plan_totals,
    save_plan,
    speech_budget,
)
from .stats import AggregateCell, SeedRun, aggregate, comparison_marks
from .trainer import SpeechSimConfig, predict_many, save_model, simulate_speech, tokenize, train
from .trainer_recipes import TrainRecipe, desk_recipe, published_recipe

DEFAULT_SPEECH_LEVELS = (0.02, 0.05, 0.10, 0.25, 0.50, 1.0)
REPORTED_METRICS = ("intent_accuracy", "entity_f1", "slu_f1")

CSV_COLUMNS = ("corpus", "mode", "target_lang", "scheme", "speech_level",
               "metric", "mean", "half_width", "n", "significant")


@dataclass(frozen=True)
class CrossLingualSpec:
    source: str
    targets: tuple[str, ...]
    modes: tuple[str, ...]
    massive: tuple[str, ...] = ()
    fewshot_pairs: int = DEFAULT_FEWSHOT_PAIRS


@dataclass(frozen=True)
class ExperimentManifest:
    corpora: dict[str, str]
    schemes: tuple[str, ...]
    speech_levels: tuple[float, ...]
    seeds: tuple[int, ...]
    epochs: int = 3
    recipe: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    crosslingual: Optional[CrossLingualSpec] = None

    def __post_init__(self):
        if not self.corpora:
            raise ConfigError("manifest needs at least one corpus")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ConfigError(f"unknown scheme {scheme!r}")
        for level in self.speech_levels:
            if not 0 <= level <= 1:
                raise ConfigError(f"speech level {level} outside [0, 1]")
        if not self.seeds:
            raise ConfigError("manifest needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("duplicate seeds in manifest")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1 (got {self.epochs})")
        if self.crosslingual is not None:
            names = set(self.corpora)
            missing = ({self.crosslingual.source} | set(self.crosslingual.targets)
                       | set(self.crosslingual.massive)) - names
            if missing:
                raise ConfigError(f"cross-lingual section references unknown "
                                  f"corpora: {sorted(missing)}")


def manifest_to_dict(manifest: ExperimentManifest) -> dict:
    obj = {
        "kind": "experiment_manifest",
        "manifest_version": 1,
        "corpora": dict(manifest.corpora),
        "schemes": list(manifest.schemes),
        "speech_levels": list(manifest.speech_levels),
        "seeds": list(manifest.seeds),
        "epochs": manifest.epochs,
        "recipe": dict(manifest.recipe),
        "sim": dict(manifest.sim),
    }
    if manifest.crosslingual is not None:
        obj["crosslingual"] = {
            "source": manifest.crosslingual.source,
            "targets": list(manifest.crosslingual.targets),
            "modes": list(manifest.crosslingual.modes),
            "massive": list(manifest.crosslingual.massive),
            "fewshot_pairs": manifest.crosslingual.fewshot_pairs,
        }
    return obj


def manifest_from_dict(obj: dict) -> ExperimentManifest:
    if obj.get("kind", "experiment_manifest") != "experiment_manifest":
        raise ConfigError(f"not an experiment manifest: kind={obj.get('kind')!r}")
    if obj.get("manifest_version", 1) != 1:
        raise ConfigError(f"unsupported manifest version {obj.get('manifest_version')!r}")
    xl = None
    if obj.get("crosslingual"):
        raw = obj["crosslingual"]
        xl = CrossLingualSpec(
            source=raw["source"],
            targets=tuple(raw["targets"]),
            modes=tuple(raw["modes"]),
            massive=tuple(raw.get("massive", ())),
            fewshot_pairs=int(raw.get("fewshot_pairs", DEFAULT_FEWSHOT_PAIRS)),
        )
    try:
        return ExperimentManifest(
            corpora=dict(obj["corpora"]),
            schemes=tuple(obj.get("schemes", ("text_only", "direct", "curriculum"))),
            speech_levels=tuple(obj.get("speech_levels", DEFAULT_SPEECH_LEVELS)),
            seeds=tuple(obj["seeds"]),
            epochs=int(obj.get("epochs", 3)),
            recipe=dict(obj.get("recipe", {})),
            sim=dict(obj.get("sim", {})),
            crosslingual=xl,
        )
    except KeyError as exc:
        raise ConfigError(f"manifest missing field {exc.args[0]!r}") from exc


def load_manifest(path) -> ExperimentManifest:
    with open(path, "r", encoding="utf-8") as f:
        return manifest_from_dict(json.load(f))


def recipe_from_config(cfg: dict, scheme: str, epochs: int) -> TrainRecipe:
    """Materialize the per-scheme recipe from the manifest's recipe section."""
    cfg = dict(cfg or {})
    profile = cfg.pop("profile", "desk")
    if profile == "desk":
        base = desk_recipe(scheme, epochs=epochs)
    elif profile == "published":
        base = published_recipe(scheme, epochs=epochs)
    else:
        raise ConfigError(f"unknown recipe profile {profile!r}")
    if scheme != "curriculum":
        cfg.pop("phase2_peak_lr", None)
        cfg.pop("phase2_warmup_ratio", None)
    allowed = {"peak_lr", "warmup_ratio", "batch_size", "grad_accum", "beams",
               "phase2_peak_lr", "phase2_warmup_ratio"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown recipe fields: {sorted(unknown)}")
    return dataclasses.replace(base, **cfg)


def sim_from_config(cfg: dict, seed: int) -> SpeechSimConfig:
    cfg = dict(cfg or {})
    unknown = set(cfg) - {"substitution_rate", "deletion_rate"}
    if unknown:
        raise ConfigError(f"unknown sim fields: {sorted(unknown)}")
    return SpeechSimConfig(seed=derive_seed(seed, "speech-sim"), **cfg)


def _cell_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _fmt_level(level: float) -> str:
    return f"{level:g}"


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name)


def eval_records(corpus: Corpus) -> list:
    """The evaluation set: spoken test utterances (all test records carry
    speech on speech corpora; text-only corpora fall back to transcripts)."""
    test = filter_split(corpus, "test")
    spoken = speech_items(test)
    return spoken if spoken else text_items(test)


def predict_records(model, records, sim: SpeechSimConfig,
                    oracle_transcripts: bool = False) -> list[dict]:
    token_seqs = [simulate_speech(utt.text, sim)
                  if utt.has_speech and not oracle_transcripts else tokenize(utt.text)
                  for utt in records]
    rows = []
    for utt, pred in zip(records, predict_many(model, token_seqs)):
        pred_raw = "" if pred.unparseable else serialize_label(pred)
        rows.append({"utt_id": utt.id, "gold": utt.label.to_dict(),
                     "pred_raw": pred_raw})
    return rows


def score_prediction_rows(rows) -> MetricReport:
    records = [
        PredictionRecord(
            utt_id=row["utt_id"],
            gold=SemanticLabel.from_dict(row["gold"]),
            pred=parse_label(row["pred_raw"]),
        )
        for row in rows
    ]
    return evaluate(records)


def make_plan_for_corpus(corpus: Corpus, scheme: str, level: float, seed: int,
                         epochs: int) -> MixPlan:
    train_view = filter_split(corpus, "train")
    text_ids = [u.id for u in text_items(train_view)]
    speech_ids = [u.id for u in speech_items(train_view)]
    ordering = nested_permutation(speech_ids, derive_seed(seed, "speech-selection"))
    config = SchedulerConfig(scheme=scheme, p=0.0 if scheme == "text_only" else level,
                             epochs=epochs, seed=seed, n_speech=len(speech_ids))
    return build_plan(config, text_ids, ordering)


def _write_cell(cell_dir: Path, plan, model, pred_rows, report, meta) -> None:
    cell_dir.mkdir(parents=True, exist_ok=True)
    save_plan(plan, cell_dir / "plan.json")
    save_model(model, cell_dir / "model.json")
    with open(cell_dir / "preds.jsonl", "w", encoding="utf-8") as f:
        for row in pred_rows:
            f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
    with open(cell_dir / "report.json", "w", encoding="utf-8") as f:
        json.dump(report, f, ensure_ascii=False, sort_keys=True, indent=2)
    with open(cell_dir / "meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, ensure_ascii=False, sort_keys=True, indent=2)


def _cell_is_done(cell_dir: Path, cell_hash: str) -> bool:
    meta_path = cell_dir / "meta.json"
    if not meta_path.exists() or not (cell_dir / "report.json").exists():
        return False
    try:
        with open(meta_path, "r", encoding="utf-8") as f:
            return json.load(f).get("cell_hash") == cell_hash
    except (OSError, json.JSONDecodeError):
        return False


@dataclass
class GridOutcome:
    cells_run: int = 0
    cells_skipped: int = 0
    failures: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _mono_cells(manifest: ExperimentManifest):
    for corpus_name in sorted(manifest.corpora):
        for scheme in manifest.schemes:
            levels = (0.0,) if scheme == "text_only" else manifest.speech_levels
            for level in levels:
                for seed in manifest.seeds:
                    yield corpus_name, scheme, level, seed


def _run_mono_cell(manifest: ExperimentManifest, corpora: Callable[[str], Corpus],
                   out_dir: Path, corpus_name: str, scheme: str, level: float, seed: int,
                   manifest_hash: str) -> tuple[str, bool]:
    cell_id = f"{_safe_name(corpus_name)}__{scheme}__p{_fmt_level(level)}__s{seed}"
    cell_hash = _cell_hash({
        "manifest": manifest_hash, "corpus": corpus_name, "scheme": scheme,
        "level": _fmt_level(level), "seed": seed,
    })
    cell_dir = out_dir / cell_id
    if _cell_is_done(cell_dir, cell_hash):
        return cell_id, False
    corpus = corpora(corpus_name)
    plan = make_plan_for_corpus(corpus, scheme, level, seed, manifest.epochs)
    recipe = recipe_from_config(manifest.recipe, scheme, manifest.epochs)
    sim = sim_from_config(manifest.sim, seed)
    model = train(plan, corpus, recipe, sim)
    pred_rows = predict_records(model, eval_records(corpus), sim)
    report = score_prediction_rows(pred_rows)
    meta = {
        "cell_hash": cell_hash, "corpus": corpus_name, "scheme": scheme,
        "speech_level": level, "seed": seed, "plan_totals": plan_totals(plan),
        "train_log": model.train_log,
    }
    _write_cell(cell_dir, plan, model, pred_rows, report_to_dict(report), meta)
    return cell_id, True


def _xl_scheme(combined: Corpus) -> str:
    return "curriculum" if any(r.has_speech for r in combined.records) else "text_only"


def _restrict_source_speech(source: Corpus, level: float, seed: int) -> Corpus:
    """Keep only the nested speech subset at the given level; records outside
    it stay as text-only (speech_ref stripped)."""
    train_view = filter_split(source, "train")
    pool = [u.id for u in speech_items(train_view)]
    ordering = nested_permutation(pool, derive_seed(seed, "speech-selection"))
    keep = set(ordering[:speech_budget(len(pool), level)])
    records = []
    for r in source.records:
        if r.split == "train" and r.has_speech and r.id not in keep:
            r = replace(r, speech_ref=None)
        records.append(r)
    return Corpus(name=source.name, lang=source.lang, records=records)


def _xl_cells(manifest: ExperimentManifest):
    xl = manifest.crosslingual
    for mode in xl.modes:
        levels = ((0.0,) if mode.startswith("no_source_")
                  else tuple(dict.fromkeys((0.0,) + manifest.speech_levels)))
        for level in levels:
            for seed in manifest.seeds:
                yield mode, level, seed


def _run_xl_cell(manifest: ExperimentManifest, corpora: Callable[[str], Corpus],
                 out_dir: Path, mode: str, level: float, seed: int,
                 manifest_hash: str) -> tuple[str, bool]:
    xl = manifest.crosslingual
    cell_id = f"xl__{mode}__p{_fmt_level(level)}__s{seed}"
    cell_hash = _cell_hash({
        "manifest": manifest_hash, "mode": mode,
        "level": _fmt_level(level), "seed": seed,
    })
    cell_dir = out_dir / cell_id
    if _cell_is_done(cell_dir, cell_hash):
        return cell_id, False
    source = _restrict_source_speech(corpora(xl.source), level, seed)
    targets = [corpora(name) for name in xl.targets]
    massive = [corpora(name) for name in xl.massive]
    combined = make_crosslingual_corpus(
        source, targets, massive or None, mode,
        fewshot_pairs=xl.fewshot_pairs, seed=derive_seed(seed, "fewshot-selection"))
    scheme = _xl_scheme(combined)
    # All speech surviving the source-level restriction is used every epoch.
    plan = make_plan_for_corpus(combined, scheme, 1.0, seed, manifest.epochs)
    recipe = recipe_from_config(manifest.recipe, scheme, manifest.epochs)
    sim = sim_from_config(manifest.sim, seed)
    model = train(plan, combined, recipe, sim)

    per_target = {}
    pred_rows_all = []
    for target in targets:
        rows = predict_records(model, eval_records(target), sim)
        per_target[target.lang] = report_to_dict(score_prediction_rows(rows))
        pred_rows_all.extend({"target_lang": target.lang, **row} for row in rows)
    report = {"kind": "crosslingual_report", "scheme": scheme, "per_target": per_target}
    meta = {
        "cell_hash": cell_hash, "mode": mode, "speech_level": level, "seed": seed,
        "scheme": scheme, "plan_totals": plan_totals(plan),
        "train_log": model.train_log,
    }
    _write_cell(cell_dir, plan, model, pred_rows_all, report, meta)
    return cell_id, True


def run_grid(manifest: ExperimentManifest, out_dir) -> GridOutcome:
    """Run every cell (skipping finished ones), then aggregate to CSV.

    Any exception in a cell is recorded as that cell's failure (type and
    message) and the grid continues; the outcome carries the failure list so
    callers can exit nonzero. Each corpus is loaded once, on first use.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_hash = _cell_hash(manifest_to_dict(manifest))
    corpora = functools.cache(
        lambda name: load_corpus(manifest.corpora[name], "canonical", name=name))
    outcome = GridOutcome()
    if manifest.crosslingual is None:
        cells = [("mono", c) for c in _mono_cells(manifest)]
    else:
        cells = [("xl", c) for c in _xl_cells(manifest)]
    for kind, cell in cells:
        try:
            if kind == "mono":
                _, ran = _run_mono_cell(manifest, corpora, out, *cell,
                                        manifest_hash=manifest_hash)
            else:
                _, ran = _run_xl_cell(manifest, corpora, out, *cell,
                                      manifest_hash=manifest_hash)
            outcome.cells_run += int(ran)
            outcome.cells_skipped += int(not ran)
        except Exception as exc:
            outcome.failures.append({"cell": repr(cell), "type": type(exc).__name__,
                                     "error": str(exc)})
    outcome.rows = aggregate_results(out)
    write_rows_csv(outcome.rows, out / "aggregate.csv")
    return outcome


def _collect_cell_meta(out_dir: Path):
    for meta_path in sorted(out_dir.glob("*/meta.json")):
        with open(meta_path, "r", encoding="utf-8") as f:
            meta = json.load(f)
        report_path = meta_path.parent / "report.json"
        if not report_path.exists():
            continue
        with open(report_path, "r", encoding="utf-8") as f:
            yield meta, json.load(f)


def _aggregate_group(key: dict, seed_reports) -> list[dict]:
    rows = []
    runs = [SeedRun(seed=s, report=report_from_dict(rep)) for s, rep in seed_reports]
    for metric in REPORTED_METRICS:
        cell = aggregate(runs, metric, allow_single=True)
        rows.append({**key, "metric": metric, "cell": cell})
    return rows


def aggregate_results(out_dir) -> list[dict]:
    """One row per (group, metric): mean, CI half-width and n."""
    out_dir = Path(out_dir)
    groups: dict[tuple, list] = {}
    for meta, report in _collect_cell_meta(out_dir):
        if "mode" in meta:
            for lang, rep in report["per_target"].items():
                key = (meta["mode"], lang, meta["scheme"], meta["speech_level"])
                groups.setdefault(("xl",) + key, []).append((meta["seed"], rep))
        else:
            key = (meta["corpus"], meta["scheme"], meta["speech_level"])
            groups.setdefault(("mono",) + key, []).append((meta["seed"], report))
    rows = []
    for gkey in sorted(groups, key=repr):
        seed_reports = sorted(groups[gkey], key=lambda sr: sr[0])
        if gkey[0] == "mono":
            _, corpus, scheme, level = gkey
            key = {"corpus": corpus, "mode": "", "target_lang": "",
                   "scheme": scheme, "speech_level": level}
        else:
            _, mode, lang, scheme, level = gkey
            key = {"corpus": "", "mode": mode, "target_lang": lang,
                   "scheme": scheme, "speech_level": level}
        rows.extend(_aggregate_group(key, seed_reports))
    return rows


def write_rows_csv(rows, path) -> None:
    """Deterministic CSV: fixed column order, shortest-repr floats, LF ends.

    The ``significant`` column is recomputed from the rows' cells.
    """
    lines = [",".join(CSV_COLUMNS)]
    for row, marked in zip(rows, comparison_marks(rows)):
        cell: AggregateCell = row["cell"]
        values = {
            "corpus": row["corpus"],
            "mode": row["mode"],
            "target_lang": row["target_lang"],
            "scheme": row["scheme"],
            "speech_level": _fmt_level(row["speech_level"]),
            "metric": row["metric"],
            "mean": repr(cell.mean),
            "half_width": "" if cell.half_width is None else repr(cell.half_width),
            "n": str(cell.n),
            "significant": "yes" if marked else "",
        }
        lines.append(",".join(values[c] for c in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines) + "\n")


def read_rows_csv(path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        for raw in csv.DictReader(f):
            rows.append({
                "corpus": raw["corpus"],
                "mode": raw["mode"],
                "target_lang": raw["target_lang"],
                "scheme": raw["scheme"],
                "speech_level": float(raw["speech_level"]),
                "metric": raw["metric"],
                "cell": AggregateCell(
                    metric=raw["metric"],
                    mean=float(raw["mean"]),
                    half_width=None if raw["half_width"] == "" else float(raw["half_width"]),
                    n=int(raw["n"]),
                ),
            })
    return rows
