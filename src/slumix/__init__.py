"""slumix: speech/text mix scheduling and SLU evaluation toolkit.

Corpus ingestion, a structured label codec, deterministic epoch-wise mix
plans for text-only / direct-mixing / curriculum fine-tuning, a desk-scale
reference learner with a speech-corruption simulator, SLU metrics, seed-level
aggregation with t-distribution CIs, and experiment grid orchestration.
"""

from .corpus import (
    Corpus,
    Entity,
    SemanticLabel,
    Utterance,
    corpus_stats,
    filter_split,
    load_corpus,
    save_corpus,
    speech_items,
    text_items,
    validate_corpus,
)
from .crosslingual import CROSSLINGUAL_MODES, make_crosslingual_corpus
from .errors import (
    ConfigError,
    CorpusFormatError,
    LabelFormatError,
    MetricsError,
    PlanError,
    SlumixError,
    StatsError,
    TrainError,
)
from .grid import ExperimentManifest, load_manifest, run_grid
from .labelcodec import parse_label, serialize_label
from .metrics import (
    MetricReport,
    PredictionRecord,
    evaluate,
)
from .report import render_report
from .scheduler import (
    EpochPlan,
    MixPlan,
    SchedulerConfig,
    build_plan,
    epoch_batches,
    nested_permutation,
    plan_totals,
    speech_budget,
)
from .stats import (
    AggregateCell,
    ComparisonMark,
    SeedRun,
    aggregate,
    relative_improvement,
    significant,
    t_crit_95,
)
from .synthetic import make_synthetic_corpus
from .trainer import (
    ModelState,
    SpeechSimConfig,
    export_manifest,
    simulate_speech,
    train,
)
from .trainer_recipes import TrainRecipe, desk_recipe, lr_at, published_recipe

__version__ = "0.1.0"

__all__ = [
    "AggregateCell", "ComparisonMark", "ConfigError", "Corpus",
    "CorpusFormatError", "CROSSLINGUAL_MODES", "Entity",
    "EpochPlan", "ExperimentManifest", "LabelFormatError", "MetricReport",
    "MetricsError", "MixPlan", "ModelState", "PlanError", "PredictionRecord",
    "SchedulerConfig",
    "SeedRun", "SemanticLabel", "SlumixError", "SpeechSimConfig", "StatsError",
    "TrainError", "TrainRecipe", "Utterance", "aggregate", "build_plan",
    "corpus_stats", "desk_recipe", "epoch_batches",
    "evaluate", "export_manifest", "filter_split",
    "load_corpus", "load_manifest", "lr_at", "make_crosslingual_corpus",
    "make_synthetic_corpus", "nested_permutation", "published_recipe", "parse_label",
    "plan_totals", "relative_improvement", "render_report",
    "run_grid", "save_corpus", "serialize_label", "significant", "simulate_speech",
    "speech_budget", "speech_items", "t_crit_95", "text_items", "train",
    "validate_corpus",
]
