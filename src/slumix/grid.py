"""Experiment grids: plan -> train -> predict -> evaluate -> aggregate.

A grid is described by a versioned experiment manifest (JSON). Monolingual
grids run every (corpus, scheme, speech level, seed) cell; cross-lingual
grids run (mode, source speech level, seed) cells over combined corpora and
evaluate each target language's test split separately.

Each cell is keyed by a hash of its own inputs (the contents of the corpus
files it reads included), so an interrupted or extended grid skips the cells
it finished before. Every cell persists ``plan.json``, ``model.json``,
``preds.jsonl``, ``report.json`` and ``meta.json`` under ``runs/<cell_id>/``.
A run aggregates the results its cells return (the reports a fresh cell
computed, or those a finished cell's skip check read) in manifest order, so
two runs of one manifest produce byte-identical aggregate CSVs.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import re
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional

from .corpus import (
    Corpus,
    FileBytes,
    Utterance,
    filter_split,
    load_corpus,
    speech_items,
    text_items,
)
from .crosslingual import (
    DEFAULT_FEWSHOT_PAIRS,
    CorpusParts,
    check_languages,
    check_settings,
    make_crosslingual_corpus,
)
from .errors import ConfigError, MetricsError, StatsError, TrainError
from .jsonio import read_json, write_json, write_text
from .labelcodec import parse_label, serialize_label
from .metrics import (
    MetricReport,
    PredictionRecord,
    evaluate,
    report_from_dict,
    report_to_dict,
)
from .report import csv_text
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
from .trainer import FeatureStore, SpeechSimConfig, save_model, sim_from_dict, train
from .trainer_recipes import RECIPE_PROFILES, TrainRecipe, is_int, is_number

DEFAULT_SPEECH_LEVELS = (0.02, 0.05, 0.10, 0.25, 0.50, 1.0)
REPORTED_METRICS = ("intent_accuracy", "entity_f1", "slu_f1")

CSV_COLUMNS = ("corpus", "mode", "target_lang", "scheme", "speech_level",
               "metric", "mean", "half_width", "n", "significant")


def _arrays(section, *names) -> None:
    """Each field ``names`` of a frozen ``section`` as a tuple: a list field
    that is not a list or tuple is an error, not read as its items."""
    for name in names:
        value = getattr(section, name)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"manifest field {name!r} is not an array (got {value!r})")
        object.__setattr__(section, name, tuple(value))


def _from_fields(cls, obj: dict, where: str):
    """``cls(**obj)`` of the JSON object at ``where``, which must name only
    fields of ``cls``; a missing required field is a ``KeyError`` naming it."""
    fields = dataclasses.fields(cls)
    unknown = [key for key in obj.keys() if key not in {f.name for f in fields}]
    if unknown:
        raise ConfigError(f"{where} has unknown field {unknown[0]!r}")
    for f in fields:
        if f.name not in obj and f.default is dataclasses.MISSING:
            raise KeyError(f.name)
    return cls(**obj)


@dataclass(frozen=True)
class CrossLingualSpec:
    source: str
    targets: tuple[str, ...]
    modes: tuple[str, ...]
    massive: tuple[str, ...] = ()
    fewshot_pairs: int = DEFAULT_FEWSHOT_PAIRS

    def __post_init__(self):
        _arrays(self, "targets", "modes", "massive")
        check_settings(self.modes, self.fewshot_pairs)
        roles: dict[str, str] = {}  # a corpus in two roles would fail cells at run time
        for role, names in (("source", (self.source,)), ("target", self.targets),
                            ("massive", self.massive)):
            for name in names:
                if name in roles:
                    raise ConfigError(f"cross-lingual corpus {name!r} is listed as "
                                      f"{roles[name]} and again as {role}")
                roles[name] = role


@dataclass(frozen=True, kw_only=True)
class ExperimentManifest:
    corpora: dict[str, str]
    schemes: tuple[str, ...] = SCHEMES
    speech_levels: tuple[float, ...] = DEFAULT_SPEECH_LEVELS
    seeds: tuple[int, ...]
    epochs: int = 3
    recipe: TrainRecipe = RECIPE_PROFILES["desk"]
    sim: SpeechSimConfig = SpeechSimConfig()
    crosslingual: Optional[CrossLingualSpec] = None

    def __post_init__(self):
        # A crosslingual, recipe or sim section given as its manifest object (a
        # dict) is built here, and each list field kept as a tuple.
        xl = self.crosslingual
        if xl is not None and not isinstance(xl, CrossLingualSpec):
            object.__setattr__(self, "crosslingual", _from_fields(
                CrossLingualSpec, xl, "manifest section 'crosslingual'"))
        _arrays(self, "schemes", "speech_levels", "seeds")
        if not self.corpora:
            raise ConfigError("manifest needs at least one corpus")
        for name, path in self.corpora.items():
            if not isinstance(path, str) or not path:
                raise ConfigError(f"corpus {name!r} path is not a non-empty string ({path!r})")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ConfigError(f"unknown scheme {scheme!r}")
        for level in self.speech_levels:
            if not is_number(level):
                raise ConfigError(f"speech level {level!r} is not a number")
            if not 0 <= level <= 1:
                raise ConfigError(f"speech level {level} outside [0, 1]")
        if not self.seeds:
            raise ConfigError("manifest needs at least one seed")
        for seed in self.seeds:
            if not is_int(seed):
                raise ConfigError(f"seed {seed!r} is not an integer")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("duplicate seeds in manifest")
        if not is_int(self.epochs) or self.epochs < 1:
            raise ConfigError(f"epochs must be an integer >= 1 (got {self.epochs!r})")
        if self.crosslingual is not None:
            names = set(self.corpora)
            missing = ({self.crosslingual.source} | set(self.crosslingual.targets)
                       | set(self.crosslingual.massive)) - names
            if missing:
                raise ConfigError(f"cross-lingual section references unknown "
                                  f"corpora: {sorted(missing)}")
        seen: dict[str, _Cell] = {}
        for cell in _grid_cells(self):
            other = seen.setdefault(cell.cell_id, cell)
            if other is not cell:
                a, b = ({**c.key, "speech level": c.level, "seed": c.seed}
                        for c in (other, cell))
                differ = [f"{k} {a[k]!r} and {b[k]!r}" for k in a if a[k] != b[k]]
                raise ConfigError(f"{', '.join(differ) or 'two cells'} share the cell id "
                                  f"{cell.cell_id!r}")
        if not seen:
            raise ConfigError("manifest enumerates no cell (check its schemes, "
                              "speech levels and cross-lingual modes)")
        # The sim is built at seed 0 whatever seed it is given: each cell derives its own.
        if not isinstance(self.recipe, TrainRecipe):
            object.__setattr__(self, "recipe", recipe_from_config(self.recipe))
        sim = self.sim
        if not isinstance(sim, SpeechSimConfig):
            try:
                sim = sim_from_dict(sim, "manifest section 'sim'", seeded=False)
            except TrainError as exc:
                raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "sim", replace(sim, seed=0))
        if self.crosslingual is not None and not self.crosslingual.targets:
            raise ConfigError("cross-lingual section needs at least one target")


def manifest_to_dict(manifest: ExperimentManifest) -> dict:
    obj = {"kind": "experiment_manifest", "manifest_version": 1,
           **dataclasses.asdict(manifest)}
    del obj["sim"]["seed"]
    if obj["crosslingual"] is None:
        del obj["crosslingual"]
    return obj


def manifest_from_dict(obj: dict) -> ExperimentManifest:
    fields = dict(obj)
    if fields.pop("kind", "experiment_manifest") != "experiment_manifest":
        raise ConfigError(f"not an experiment manifest: kind={obj.get('kind')!r}")
    if fields.pop("manifest_version", 1) != 1:
        raise ConfigError(f"unsupported manifest version {obj.get('manifest_version')!r}")
    return _from_fields(ExperimentManifest, fields, "manifest")


def load_manifest(path) -> ExperimentManifest:
    return read_json(path, ConfigError, "manifest", manifest_from_dict)


def recipe_from_config(cfg: dict) -> TrainRecipe:
    """The recipe of a manifest's ``recipe`` section: its profile's recipe
    (``desk`` if none is named) with the section's other fields replaced."""
    if not isinstance(cfg, dict):
        raise ConfigError("manifest section 'recipe' is not an object")
    cfg = dict(cfg)
    profile = cfg.pop("profile", "desk")
    if profile not in RECIPE_PROFILES:
        raise ConfigError(f"unknown recipe profile {profile!r}")
    unknown = set(cfg) - {f.name for f in dataclasses.fields(TrainRecipe)}
    if unknown:
        raise ConfigError(f"unknown recipe fields: {sorted(unknown)}")
    try:
        return dataclasses.replace(RECIPE_PROFILES[profile], **cfg)
    except TrainError as exc:
        raise ConfigError(f"manifest section 'recipe': {exc}") from exc


# Part of every cell hash: bump it when a cell's outputs change for the same inputs.
CELL_FORMAT = 4


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


def predict_records(model, records, oracle_transcripts: bool = False,
                    features: Optional[FeatureStore] = None) -> list[PredictionRecord]:
    """Predict each record from its speech as simulated by ``model.sim`` (its
    transcript if it has no speech or ``oracle_transcripts`` is set), reading
    inputs from ``features`` (a store of its own if None)."""
    features = FeatureStore() if features is None else features
    sim = None if oracle_transcripts else model.sim
    rows = features.rows([(utt.text, utt.has_speech) for utt in records], sim)
    return [PredictionRecord(utt_id=utt.id, gold=utt.label, pred=pred)
            for utt, pred in zip(records, features.predict(model, rows))]


def prediction_rows(records) -> list[dict]:
    """The ``preds.jsonl`` rows of predictions ("" for an unparseable one)."""
    return [{"utt_id": r.utt_id, "gold": r.gold.to_dict(),
             "pred_raw": "" if r.pred.unparseable else serialize_label(r.pred)}
            for r in records]


def score_prediction_rows(preds: dict, gold: dict, repeated=None) -> MetricReport:
    """Score the predictions of a ``preds.jsonl`` file, ``{utt_id: pred_raw}``
    in file order, against the gold labels of their ids; each ``pred_raw`` is
    parsed. ``repeated``, an id the file gave twice, is an error once every
    id is known to ``gold``."""
    records = []
    for utt_id, raw in preds.items():
        label = gold.get(utt_id)
        if label is None:
            raise MetricsError(f"prediction for unknown utterance {utt_id!r}")
        records.append(PredictionRecord(utt_id=utt_id, gold=label, pred=parse_label(raw)))
    if repeated is not None:
        raise MetricsError(f"duplicate utterance id {repeated!r}")
    return evaluate(records)


def _speech_ordering(train_view: Corpus, seed: int) -> list[str]:
    """The seeded permutation of a train split's speech ids, whose prefixes are
    the nested speech subsets of both grid kinds' levels."""
    pool = [u.id for u in speech_items(train_view)]
    return nested_permutation(pool, derive_seed(seed, "speech-selection"))


def make_plan_for_corpus(corpus: Corpus, scheme: str, level: float, seed: int,
                         epochs: int) -> MixPlan:
    train_view = filter_split(corpus, "train")
    text_ids = [u.id for u in text_items(train_view)]
    ordering = _speech_ordering(train_view, seed)
    config = SchedulerConfig(scheme=scheme, p=0.0 if scheme == "text_only" else level,
                             epochs=epochs, seed=seed, n_speech=len(ordering))
    return build_plan(config, text_ids, ordering)


def write_report(path, obj) -> None:
    """The bytes of ``report.json`` and ``meta.json``."""
    write_json(path, obj, sort_keys=True)


def write_predictions(path, rows) -> None:
    """The bytes of ``preds.jsonl``: one sorted-key JSON object per row."""
    write_text(path, "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"
                             for row in rows))


def _write_cell(cell_dir: Path, plan, model, pred_rows, report, meta) -> None:
    """``meta.json`` is removed first and written last, so no ``meta.json``
    vouches for half-written files; temporary files a killed run left go with it."""
    cell_dir.mkdir(parents=True, exist_ok=True)
    for stale in (cell_dir / "meta.json", *cell_dir.glob("*.tmp")):
        stale.unlink(missing_ok=True)
    save_plan(plan, cell_dir / "plan.json")
    save_model(model, cell_dir / "model.json")
    write_predictions(cell_dir / "preds.jsonl", pred_rows)
    write_report(cell_dir / "report.json", report)
    write_report(cell_dir / "meta.json", meta)


def _read_cell(cell_dir: Path, cell_hash: str, xl: Optional[CrossLingualSpec]
               ) -> Optional[tuple[str, dict[str, MetricReport]]]:
    """The scheme and the report of each eval target language ("" on a
    monolingual grid) of a cell finished under ``cell_hash``. None if
    ``meta.json`` or ``report.json`` is missing, is not JSON or lacks a field
    that aggregation reads, if a report (a target's included) does not hold
    exactly the fields of a ``MetricReport``, or if the meta carries another hash."""
    def meta_fields(meta):
        if meta["scheme"] not in SCHEMES:
            raise ValueError(f"unknown scheme {meta['scheme']!r}")
        return meta["cell_hash"], meta["scheme"]

    def reports(report):
        per_target = {"": report} if xl is None else report["per_target"]
        by_lang = {lang: report_from_dict(rep) for lang, rep in per_target.items()}
        if xl is not None and len(by_lang) != len(xl.targets):
            raise ValueError(f"{len(by_lang)} target reports, not {len(xl.targets)}")
        if not all(is_number(r.value(m)) for r in by_lang.values() for m in REPORTED_METRICS):
            raise ValueError("a metric is not a number")
        return by_lang

    try:
        meta_hash, scheme = read_json(cell_dir / "meta.json", ConfigError, "cell meta",
                                      meta_fields)
        if meta_hash != cell_hash:
            return None
        return scheme, read_json(cell_dir / "report.json", ConfigError, "cell report", reports)
    except (ConfigError, OSError):
        return None


@dataclass(frozen=True)
class _Cell:
    """One cell of a grid: its directory name and what it is computed from."""

    cell_id: str
    key: dict  # identity fields of meta.json: corpus and scheme, or mode
    level: float
    seed: int


class CellResult(NamedTuple):
    """One finished cell: whether this run computed it (else it was found
    finished), its scheme and the report of each eval target language ("" on
    a monolingual grid)."""

    cell: _Cell
    ran: bool
    scheme: str
    reports: dict[str, MetricReport]


def _grid_cells(manifest: ExperimentManifest) -> list[_Cell]:
    """Every cell the manifest enumerates, in run and aggregation order."""
    xl = manifest.crosslingual
    if xl is None:
        return [_Cell(f"{_safe_name(name)}__{scheme}__p{_fmt_level(level)}__s{seed}",
                      {"corpus": name, "scheme": scheme}, level, seed)
                for name in sorted(manifest.corpora) for scheme in manifest.schemes
                for level in ((0.0,) if scheme == "text_only" else manifest.speech_levels)
                for seed in manifest.seeds]
    levels = tuple(dict.fromkeys((0.0,) + manifest.speech_levels))
    return [_Cell(f"xl__{mode}__p{_fmt_level(level)}__s{seed}", {"mode": mode}, level, seed)
            for mode in xl.modes
            for level in ((0.0,) if mode.startswith("no_source_") else levels)
            for seed in manifest.seeds]


class _GridInputs:
    """One run's inputs: each corpus file's bytes, read once, with their digest
    and the corpus parsed from them, each on first use; the settings every
    cell hash covers; one feature store that every cell of the run trains
    and predicts from; and, on a cross-lingual grid, one store of the
    combined corpora's target-side parts. The caches capture locals, never
    ``self``, so a run's inputs are freed when the run returns, without
    waiting for a garbage collection."""

    def __init__(self, manifest: ExperimentManifest):
        self.manifest = manifest
        xl = manifest.crosslingual
        self.settings = {"format": CELL_FORMAT, "epochs": manifest.epochs,
                         "recipe": dataclasses.asdict(manifest.recipe),
                         "sim": dataclasses.asdict(manifest.sim)}
        if xl is not None:
            self.settings.update(source=xl.source, targets=xl.targets, massive=xl.massive,
                                 fewshot_pairs=xl.fewshot_pairs)
        contents = functools.cache(
            lambda name: FileBytes(manifest.corpora[name],
                                   Path(manifest.corpora[name]).read_bytes()))
        self.corpus = functools.cache(
            lambda name: load_corpus(contents(name), "canonical", name=name))
        self.digest = functools.cache(
            lambda name: hashlib.sha256(contents(name).data).hexdigest())
        self.features = FeatureStore()
        if xl is not None:
            self.parts = CorpusParts()

    def cell_hash(self, cell: _Cell) -> str:
        """SHA-256 of exactly the inputs the cell's outputs depend on."""
        xl = self.manifest.crosslingual
        reads = (cell.key["corpus"],) if xl is None else (xl.source, *xl.targets, *xl.massive)
        payload = {**self.settings, **cell.key, "level": _fmt_level(cell.level),
                   "seed": cell.seed, "corpora": {name: self.digest(name) for name in reads}}
        blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _run_cell(manifest: ExperimentManifest, inputs: _GridInputs, out_dir: Path,
              cell: _Cell, build) -> CellResult:
    """Skip a finished cell; otherwise plan, train, predict and score each
    eval target, and write the cell. ``build()`` returns the training corpus,
    its scheme, the speech level to plan at and the eval target corpora."""
    cell_hash = inputs.cell_hash(cell)
    cell_dir = out_dir / cell.cell_id
    done = _read_cell(cell_dir, cell_hash, manifest.crosslingual)
    if done is not None:
        return CellResult(cell, False, *done)
    corpus, scheme, plan_level, targets = build()
    plan = make_plan_for_corpus(corpus, scheme, plan_level, cell.seed, manifest.epochs)
    sim = replace(manifest.sim, seed=derive_seed(cell.seed, "speech-sim"))
    model = train(plan, corpus, manifest.recipe, sim, inputs.features)
    xl = manifest.crosslingual is not None
    reports, pred_rows = {}, []
    for target in targets:
        preds = predict_records(model, eval_records(target), features=inputs.features)
        reports[target.lang if xl else ""] = evaluate(preds)
        rows = prediction_rows(preds)
        pred_rows += [{"target_lang": target.lang, **row} for row in rows] if xl else rows
    report = ({"kind": "crosslingual_report", "scheme": scheme,
               "per_target": {lang: report_to_dict(r) for lang, r in reports.items()}}
              if xl else report_to_dict(reports[""]))
    meta = {**cell.key, "cell_hash": cell_hash, "scheme": scheme,
            "speech_level": cell.level, "seed": cell.seed,
            "plan_totals": plan_totals(plan), "train_log": model.train_log}
    _write_cell(cell_dir, plan, model, pred_rows, report, meta)
    return CellResult(cell, True, scheme, reports)


def _run_mono_cell(manifest: ExperimentManifest, inputs: _GridInputs, out_dir: Path,
                   corpus_name: str, scheme: str, level: float, seed: int,
                   cell: _Cell) -> CellResult:
    def build():
        corpus = inputs.corpus(corpus_name)
        return corpus, scheme, level, [corpus]
    return _run_cell(manifest, inputs, out_dir, cell, build)


def _restrict_source_speech(source: Corpus, level: float, seed: int) -> Corpus:
    """Keep only the nested speech subset at the given level; records outside
    it stay as text-only (speech_ref stripped)."""
    ordering = _speech_ordering(filter_split(source, "train"), seed)
    keep = set(ordering[:speech_budget(len(ordering), level)])
    records = []
    for r in source.records:
        if r.split == "train" and r.has_speech and r.id not in keep:
            r = Utterance(r.id, r.lang, r.split, r.text, r.label)
        records.append(r)
    return Corpus(name=source.name, lang=source.lang, records=records)


def _run_xl_cell(manifest: ExperimentManifest, inputs: _GridInputs, out_dir: Path,
                 mode: str, level: float, seed: int, cell: _Cell) -> CellResult:
    def build():
        xl = manifest.crosslingual
        targets = [inputs.corpus(name) for name in xl.targets]
        massive = [inputs.corpus(name) for name in xl.massive]
        combined = make_crosslingual_corpus(
            _restrict_source_speech(inputs.corpus(xl.source), level, seed), targets,
            massive, mode,
            fewshot_pairs=xl.fewshot_pairs, seed=derive_seed(seed, "fewshot-selection"),
            parts=inputs.parts)
        scheme = "curriculum" if any(r.has_speech for r in combined.records) else "text_only"
        # All speech surviving the source-level restriction is used every epoch.
        return combined, scheme, 1.0, targets
    return _run_cell(manifest, inputs, out_dir, cell, build)


@dataclass(frozen=True)
class GridOutcome:
    results: list  # a CellResult per cell that did not fail, in manifest order
    failures: list
    rows: list

    @property
    def cells_run(self) -> int:
        return sum(result.ran for result in self.results)

    @property
    def cells_skipped(self) -> int:
        return len(self.results) - self.cells_run

    @property
    def ok(self) -> bool:
        return not self.failures


def run_grid(manifest: ExperimentManifest, out_dir) -> GridOutcome:
    """Run every cell of the manifest (skipping finished ones), then
    aggregate its cells to CSV.

    Every corpus the cells read is loaded once, and a cross-lingual grid's
    languages checked, before the runs directory is made: a fault there raises
    before any cell. An exception in a cell is recorded as that cell's failure
    (type, message and traceback) and the grid continues; the outcome carries
    the failure list so callers can exit nonzero.
    """
    out = Path(out_dir)
    inputs = _GridInputs(manifest)
    xl = manifest.crosslingual
    corpora = {name: inputs.corpus(name)
               for name in (manifest.corpora if xl is None
                            else (xl.source, *xl.targets, *xl.massive))}
    if xl is not None:
        check_languages(corpora[xl.source], [corpora[name] for name in xl.targets],
                        [corpora[name] for name in xl.massive], xl.modes)
    out.mkdir(parents=True, exist_ok=True)
    runner = _run_mono_cell if xl is None else _run_xl_cell
    results, failures = [], []
    for cell in _grid_cells(manifest):
        try:
            results.append(runner(manifest, inputs, out, *cell.key.values(), cell.level,
                                  cell.seed, cell))
        except Exception as exc:
            failures.append({"cell": cell.cell_id, "type": type(exc).__name__,
                             "error": str(exc), "traceback": traceback.format_exc()})
    rows = aggregate_results(results)
    write_rows_csv(rows, out / "aggregate.csv")
    return GridOutcome(results, failures, rows)


def read_results(manifest: ExperimentManifest, out_dir) -> tuple[list[CellResult], list[str]]:
    """The results of the manifest's cells finished in ``out_dir`` under their
    current inputs, in manifest order, and the ids of its other cells (those
    of a missing corpus file included). Each cell's ``meta.json`` and
    ``report.json`` are read once; nothing else in ``out_dir`` is read."""
    out_dir = Path(out_dir)
    inputs = _GridInputs(manifest)
    results, missing = [], []
    for cell in _grid_cells(manifest):
        try:
            done = _read_cell(out_dir / cell.cell_id, inputs.cell_hash(cell),
                              manifest.crosslingual)
        except OSError:
            done = None
        if done is None:
            missing.append(cell.cell_id)
        else:
            results.append(CellResult(cell, False, *done))
    return results, missing


def aggregate_results(results) -> list[dict]:
    """One row per (group, metric) over the cell results: mean, CI
    half-width and n."""
    groups: dict[tuple, tuple[dict, list]] = {}
    for result in results:
        for lang, report in result.reports.items():
            key = {"corpus": "", "mode": "", "target_lang": lang, **result.cell.key,
                   "scheme": result.scheme, "speech_level": result.cell.level}
            groups.setdefault(tuple(key.values()), (key, []))[1].append(
                SeedRun(seed=result.cell.seed, report=report))
    rows = []
    for gkey in sorted(groups, key=repr):
        key, runs = groups[gkey]
        runs.sort(key=lambda run: run.seed)
        rows += [{**key, "metric": metric, "cell": aggregate(runs, metric)}
                 for metric in REPORTED_METRICS]
    return rows


def write_rows_csv(rows, path) -> None:
    """Deterministic CSV: fixed column order, shortest-repr floats, LF ends.

    The ``significant`` column is recomputed from the rows' cells.
    """
    body = []
    for row, marked in zip(rows, comparison_marks(rows)):
        cell: AggregateCell = row["cell"]
        body.append([row["corpus"], row["mode"], row["target_lang"], row["scheme"],
                     _fmt_level(row["speech_level"]), row["metric"], repr(cell.mean),
                     "" if cell.half_width is None else repr(cell.half_width),
                     str(cell.n), "yes" if marked else ""])
    write_text(path, csv_text(CSV_COLUMNS, body))


def read_rows_csv(path) -> list[dict]:
    """The rows ``write_rows_csv`` wrote; a missing column or a malformed
    number is a ``StatsError`` naming the file and line."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        try:
            return [{
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
            } for raw in reader]
        except KeyError as exc:
            raise StatsError(f"{path}:{reader.line_num}: missing column "
                             f"{exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise StatsError(f"{path}:{reader.line_num}: malformed row ({exc})") from exc
