"""The three workloads: set-up, one timed pass, and the pass's output checks.

Every workload has ``setup(inputs_dir)``, ``prepare_checks(work)`` (once per
run, untimed: run-level checks and reference values) and
``run(inputs_dir, out, tracer)`` (one timed pass, checked).

Each pass has two timed phases, reported as ``phase1_s`` and ``phase2_s``:

* ``grid_mono``      phase 1 = fresh monolingual grid + report render,
                     phase 2 = extend (one more seed into the same runs dir)
* ``grid_xl``        phase 1 = fresh cross-lingual grid + report render,
                     phase 2 = extend (one more seed into the same runs dir)
* ``score_external`` phase 1 = ``slumix ingest --profile slurp``,
                     phase 2 = ``slumix evaluate`` (gold load included)

slumix is driven only through its public functions and ``slumix.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from slumix import ExperimentManifest, render_report, run_grid
from slumix.cli import main as slumix_main
from slumix.grid import CrossLingualSpec

from . import checks, inputs


@dataclass
class PassResult:
    phase1_s: float
    phase2_s: float
    attempted: int                     # grid cells and CLI commands
    failed: int                        # failed cells and commands
    problems: list[str] = field(default_factory=list)   # failed output checks
    reuse: tuple[int, int] = (0, 0)    # (cells skipped, cells with unchanged inputs)
    named: dict[str, float] = field(default_factory=dict)   # workload-specific names

    @property
    def seconds(self) -> float:
        return self.phase1_s + self.phase2_s


def _report_failures(failures) -> None:
    for failure in failures:
        print(f"operation failed: {failure}", file=sys.stderr)


def _timed(tracer, name, fn, *args):
    t0 = time.perf_counter()
    with tracer.span(name):
        result = fn(*args)
    return result, time.perf_counter() - t0


@dataclass(frozen=True)
class GridSize:
    corpus: int
    levels: tuple[float, ...]
    seeds: tuple[int, ...]
    epochs: int = 3


MONO_SIZE = GridSize(corpus=300, levels=(0.02, 0.05, 0.1, 0.25, 0.5, 1.0), seeds=(1, 2, 3))
XL_SIZE = GridSize(corpus=250, levels=(0.1, 1.0), seeds=(1, 2))
XL_MODES = ("zero_shot", "T", "T_S", "T_S_M", "no_source_T_S")
XL_TARGETS = ("de", "ko")
XL_FEWSHOT = 50
# Half of the SLURP release per split (sentences, recordings).
SCORE_SIZE = inputs.SlurpSize(train=(5757, 25314), devel=(1017, 4345), test=(1487, 6539))


class _Grid:
    """Shared shape of the two grid workloads: fresh grid + render, extend."""

    name = ""
    style = ""
    default_size: GridSize

    def __init__(self, seed: int, size: GridSize | None = None):
        self.seed, self.size = seed, size or self.default_size

    def manifest(self, inputs_dir: Path, seeds) -> ExperimentManifest:
        raise NotImplementedError

    def check_cells(self, runs: Path) -> list[str]:
        raise NotImplementedError

    def run(self, inputs_dir: Path, out: Path, tracer) -> PassResult:
        runs = out / "runs"
        fresh = self.manifest(inputs_dir, self.size.seeds)
        more = self.size.seeds + (max(self.size.seeds) + 1,)
        extend = self.manifest(inputs_dir, more)

        t0 = time.perf_counter()
        with tracer.span("bench.grid"):
            first = run_grid(fresh, runs)
        with tracer.span("report.render"):
            rendered = render_report(first.rows, self.style)
        phase1 = time.perf_counter() - t0
        problems = [] if rendered["markdown"] else ["empty rendered report"]
        problems += checks.check_seed_counts(runs / "aggregate.csv", len(fresh.seeds))
        n_fresh = first.cells_run + first.cells_skipped

        second, phase2 = _timed(tracer, "bench.grid", run_grid, extend, runs)
        problems += checks.check_seed_counts(runs / "aggregate.csv", len(extend.seeds))
        problems += self.check_cells(runs)
        _report_failures(first.failures + second.failures)
        if first.cells_skipped:
            problems.append(f"fresh grid skipped {first.cells_skipped} cells")
        n_extend = second.cells_run + second.cells_skipped
        return PassResult(
            phase1_s=phase1, phase2_s=phase2,
            attempted=n_fresh + n_extend,
            failed=len(first.failures) + len(second.failures),
            problems=problems,
            reuse=(second.cells_skipped, n_fresh),
            named={"grid_s": phase1, "extend_s": phase2})


class GridMono(_Grid):
    name = "grid_mono"
    style = "monolingual"
    default_size = MONO_SIZE

    def setup(self, inputs_dir: Path) -> None:
        inputs.write_mono_corpus(inputs_dir / "synthetic.jsonl", self.seed, self.size.corpus)

    def manifest(self, inputs_dir: Path, seeds) -> ExperimentManifest:
        return ExperimentManifest(
            corpora={"synthetic": str(inputs_dir / "synthetic.jsonl")},
            schemes=("text_only", "direct", "curriculum"),
            speech_levels=self.size.levels, seeds=tuple(seeds),
            epochs=self.size.epochs, recipe={"profile": "desk"})

    def check_cells(self, runs: Path) -> list[str]:
        metas = checks.cell_metas(runs)
        return (checks.check_train_counts(metas) + checks.check_equal_exposure(metas)
                + checks.check_means_from_cells(runs, runs / "aggregate.csv"))

    def prepare_checks(self, work: Path) -> list[str]:
        return checks.check_canary(work)


class GridXl(_Grid):
    name = "grid_xl"
    style = "fewshot"
    default_size = XL_SIZE

    def setup(self, inputs_dir: Path) -> None:
        inputs.write_xl_corpora(inputs_dir, self.seed, self.size.corpus)

    def manifest(self, inputs_dir: Path, seeds) -> ExperimentManifest:
        return ExperimentManifest(
            corpora={name: str(inputs_dir / f"{name}.jsonl")
                     for name, *_ in inputs.XL_CORPORA},
            schemes=("text_only", "direct", "curriculum"),
            speech_levels=self.size.levels, seeds=tuple(seeds),
            epochs=self.size.epochs, recipe={"profile": "desk"},
            crosslingual=CrossLingualSpec(
                source="fr", targets=XL_TARGETS, modes=XL_MODES,
                massive=("de_text", "ko_text"), fewshot_pairs=XL_FEWSHOT))

    def check_cells(self, runs: Path) -> list[str]:
        return (checks.check_train_counts(checks.cell_metas(runs))
                + checks.check_targets(runs, XL_TARGETS))

    def prepare_checks(self, work: Path) -> list[str]:
        return []


class ScoreExternal:
    """Outputs of a real model: ingest a SLURP-size source, score predictions."""

    name = "score_external"

    def __init__(self, seed: int, size: inputs.SlurpSize = SCORE_SIZE):
        self.seed, self.size = seed, size
        self._pairs = []       # (gold label, label the prediction encodes)
        self.expected = {}     # reference scores of the predictions

    def setup(self, inputs_dir: Path) -> None:
        gold = inputs.write_slurp_source(inputs_dir / "slurp.jsonl", self.seed, self.size)
        expected = inputs.write_predictions(inputs_dir / "preds.jsonl", self.seed, gold)
        self._pairs = [(gold[k], expected[k]) for k in sorted(gold)]

    def _cli(self, tracer, name: str, argv: list[str]) -> tuple[int, float]:
        # slumix prints one progress line per command; keep it off the
        # benchmark's own output.
        with contextlib.redirect_stdout(io.StringIO()):
            return _timed(tracer, name, slumix_main, argv)

    def run(self, inputs_dir: Path, out: Path, tracer) -> PassResult:
        out.mkdir(parents=True, exist_ok=True)
        canonical, report = out / "canonical.jsonl", out / "report.json"
        code1, phase1 = self._cli(tracer, "bench.ingest", [
            "ingest", "--in", str(inputs_dir / "slurp.jsonl"), "--profile", "slurp",
            "--out", str(canonical)])
        code2, phase2 = self._cli(tracer, "bench.evaluate", [
            "evaluate", "--gold", str(canonical), "--pred", str(inputs_dir / "preds.jsonl"),
            "--out", str(report)])
        _report_failures([f"slumix {cmd} exited {code}"
                          for cmd, code in (("ingest", code1), ("evaluate", code2)) if code])
        problems = []
        if not code1:
            problems += checks.check_record_count(canonical, self.size.canonical_records)
        if not code2:
            problems += checks.check_report(report, self.expected)
        utts = self.size.test[1]
        return PassResult(
            phase1_s=phase1, phase2_s=phase2, attempted=2,
            failed=int(bool(code1)) + int(bool(code2)), problems=problems,
            named={"ingest_records_per_s": self.size.canonical_records / phase1,
                   "evaluate_utts_per_s": utts / phase2})

    def prepare_checks(self, work: Path) -> list[str]:
        self.expected = checks.reference_scores(self._pairs)
        return []


WORKLOADS = {w.name: w for w in (GridMono, GridXl, ScoreExternal)}
