import contextlib
import csv
import errno
import gc
import json
import os
import resource
import shutil
import signal
import stat
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import slumix
import slumix.grid
import slumix.trainer
from conftest import make_corpus, make_utt
from slumix import (
    Corpus,
    Entity,
    SemanticLabel,
    Utterance,
    corpus_stats,
    load_corpus,
    make_synthetic_corpus,
    save_corpus,
    serialize_label,
)
from slumix.cli import build_parser, main
from slumix.grid import (
    CSV_COLUMNS,
    CrossLingualSpec,
    ExperimentManifest,
    aggregate_results,
    load_manifest,
    manifest_from_dict,
    manifest_to_dict,
    read_results,
    read_rows_csv,
    run_grid,
)
from slumix.errors import ConfigError, CorpusFormatError
from slumix.scheduler import derive_seed
from slumix.trainer import FeatureStore, SpeechSimConfig


@pytest.fixture(scope="module")
def syn_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "syn.jsonl"
    save_corpus(make_synthetic_corpus(300, seed=0), path)
    return path


def mini_manifest(syn_path, **overrides):
    base = dict(
        corpora={"syn": str(syn_path)},
        schemes=("text_only", "direct", "curriculum"),
        speech_levels=(0.1, 0.5),
        seeds=(1, 2),
        epochs=2,
        recipe={"profile": "desk"},
        sim={"substitution_rate": 0.15, "deletion_rate": 0.1},
    )
    base.update(overrides)
    return ExperimentManifest(**base)


@pytest.fixture(scope="module")
def one_cell(syn_path, tmp_path_factory):
    """The paths of a finished one-cell grid on ``syn_path``: the corpus, the
    manifest file, the runs directory, its ``aggregate.csv`` and the cell's
    plan, model and predictions."""
    d = tmp_path_factory.mktemp("one_cell")
    manifest = mini_manifest(syn_path, schemes=("text_only",), speech_levels=(0.1,),
                             seeds=(1,), epochs=1)
    (d / "m.json").write_text(json.dumps(manifest_to_dict(manifest)))
    assert run_grid(manifest, d / "runs").ok
    cell, = (p for p in (d / "runs").iterdir() if p.is_dir())
    return {"syn": str(syn_path), "config": str(d / "m.json"), "runs": str(d / "runs"),
            "agg": str(d / "runs" / "aggregate.csv"), "plan": str(cell / "plan.json"),
            "model": str(cell / "model.json"), "preds": str(cell / "preds.jsonl")}


# Per kind of output file, the command that writes it to ``out`` from the
# files of ``one_cell``; "table" writes ``out``.md and ``out``.csv.
OUTPUT_KINDS = {
    "report": lambda c, out: ["evaluate", "--gold", c["syn"], "--pred", c["preds"],
                              "--out", out],
    "plan": lambda c, out: ["plan", "--scheme", "direct", "--p", "0.5", "--seed", "1",
                            "--corpus", c["syn"], "--out", out],
    "model": lambda c, out: ["train", "--plan", c["plan"], "--corpus", c["syn"],
                             "--out", out],
    "preds": lambda c, out: ["predict", "--model", c["model"], "--corpus", c["syn"],
                             "--out", out],
    "corpus": lambda c, out: ["synth", "--n", "50", "--out", out],
    "aggregate": lambda c, out: ["aggregate", "--config", c["config"], "--runs", c["runs"],
                                 "--out", out],
    "table": lambda c, out: ["report", "--agg", c["agg"], "--style", "monolingual",
                             "--out-prefix", out],
    "export": lambda c, out: ["export-manifest", "--plan", c["plan"], "--corpus-ref",
                              c["syn"], "--out", out],
    "ingest": lambda c, out: ["ingest", "--in", c["syn"], "--profile", "canonical",
                              "--out", out],
}


def output_files(kind, out: Path) -> list[Path]:
    """The files ``OUTPUT_KINDS[kind]`` writes, in the order it writes them."""
    return ([out.with_name(out.name + ".md"), out.with_name(out.name + ".csv")]
            if kind == "table" else [out])


@contextlib.contextmanager
def file_size_limit(limit: int):
    """This process may write no file past ``limit`` bytes: with SIGXFSZ
    ignored, such a write fails with EFBIG."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    try:
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


class TestManifest:
    def test_json_roundtrip(self, syn_path):
        manifest = mini_manifest(syn_path)
        assert manifest_from_dict(manifest_to_dict(manifest)) == manifest

    def test_load_from_file(self, syn_path, tmp_path):
        manifest = mini_manifest(syn_path)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest_to_dict(manifest)))
        assert load_manifest(path) == manifest

    @pytest.mark.parametrize("section,spellings", [
        ("recipe", ({}, {"profile": "desk"}, {"peak_lr": 0.5})),
        ("sim", ({}, {"substitution_rate": 0.15})),
    ])
    def test_spellings_of_one_setting_are_one_manifest(self, syn_path, tmp_path, section,
                                                       spellings):
        manifests = [mini_manifest(syn_path, **{section: value}) for value in spellings]
        assert all(m == manifests[0] for m in manifests)
        cell = slumix.grid._grid_cells(manifests[0])[0]
        assert len({slumix.grid._GridInputs(m).cell_hash(cell) for m in manifests}) == 1
        path = tmp_path / "m.json"
        for value in spellings:
            path.write_text(json.dumps({**manifest_to_dict(manifests[0]), section: value}))
            assert load_manifest(path) == manifests[0]

    def test_defaults_and_sections_apply_in_code_as_in_json(self, syn_path):
        corpora = {"syn": str(syn_path), "other": str(syn_path)}
        xl = {"source": "syn", "targets": ["other"], "modes": ["T"]}
        in_code = ExperimentManifest(corpora=corpora, seeds=[1], crosslingual=xl)
        assert in_code == manifest_from_dict({"corpora": corpora, "seeds": [1],
                                              "crosslingual": xl})
        assert in_code.schemes == ("text_only", "direct", "curriculum")
        assert in_code.speech_levels == (0.02, 0.05, 0.10, 0.25, 0.50, 1.0)
        assert in_code.seeds == (1,)
        assert in_code.crosslingual == CrossLingualSpec(source="syn", targets=("other",),
                                                        modes=("T",))

    def test_sim_seed_is_not_a_manifest_setting(self, syn_path):
        # Each cell derives its own sim seed, so the manifest's sim is at seed 0.
        seeded = mini_manifest(syn_path, sim=SpeechSimConfig(seed=5))
        unseeded = mini_manifest(syn_path)
        assert seeded == unseeded and seeded.sim.seed == 0
        assert manifest_from_dict(manifest_to_dict(seeded)) == seeded
        cell = slumix.grid._grid_cells(seeded)[0]
        assert slumix.grid._GridInputs(seeded).cell_hash(cell) == \
            slumix.grid._GridInputs(unseeded).cell_hash(cell)

    def test_written_sections_are_the_built_settings(self, syn_path):
        obj = manifest_to_dict(mini_manifest(syn_path, recipe={"peak_lr": 0.7}))
        assert obj["recipe"] == {"peak_lr": 0.7, "warmup_ratio": 0.04, "batch_size": 16,
                                 "grad_accum": 1, "beams": 1, "phase2_peak_lr": 0.3,
                                 "phase2_warmup_ratio": 0.02}
        assert obj["sim"] == {"substitution_rate": 0.15, "deletion_rate": 0.1}

    def test_validation(self, syn_path):
        with pytest.raises(ConfigError, match="scheme"):
            mini_manifest(syn_path, schemes=("sliding",))
        with pytest.raises(ConfigError, match="seed"):
            mini_manifest(syn_path, seeds=(1, 1))
        with pytest.raises(ConfigError, match="level"):
            mini_manifest(syn_path, speech_levels=(1.5,))
        with pytest.raises(ConfigError, match="unknown corpora"):
            mini_manifest(syn_path, crosslingual=CrossLingualSpec(
                source="syn", targets=("nope",), modes=("T",)))

    def test_colliding_cell_ids_rejected(self, syn_path):
        # "x y" and "x-y" would share the cell directories x-y__...
        with pytest.raises(ConfigError, match="'x y' and 'x-y'"):
            mini_manifest(syn_path, corpora={"x-y": str(syn_path), "x y": str(syn_path)})


    @pytest.mark.parametrize("overrides,message", [
        ({"schemes": ("direct", "direct")}, "two cells share the cell id 'syn__direct__p0.1__s1'"),
        ({"speech_levels": (0.1, 0.1)}, "two cells share the cell id 'syn__direct__p0.1__s1'"),
        ({"speech_levels": (0.1234561, 0.1234562)},
         "speech level 0.1234561 and 0.1234562 share the cell id 'syn__direct__p0.123456__s1'"),
        ({"crosslingual": CrossLingualSpec(source="syn", targets=(), modes=("T", "T"))},
         "two cells share the cell id 'xl__T__p0__s1'"),
    ], ids=["scheme_twice", "level_twice", "levels_formatted_alike", "mode_twice"])
    def test_repeated_cells_rejected(self, syn_path, overrides, message):
        with pytest.raises(ConfigError) as info:
            mini_manifest(syn_path, **{"schemes": ("direct",), "speech_levels": (0.1,),
                                       "seeds": (1,), **overrides})
        assert str(info.value) == message

    @pytest.mark.parametrize("overrides", [
        {"schemes": ()},
        {"schemes": ("direct", "curriculum"), "speech_levels": ()},
        {"crosslingual": CrossLingualSpec(source="syn", targets=(), modes=())},
    ], ids=["no_scheme", "no_speech_level", "no_mode"])
    def test_manifest_with_no_cell_rejected(self, syn_path, overrides):
        with pytest.raises(ConfigError) as info:
            mini_manifest(syn_path, **overrides)
        assert str(info.value) == ("manifest enumerates no cell (check its schemes, "
                                   "speech levels and cross-lingual modes)")

    @pytest.mark.parametrize("spec,message", [
        ({"modes": ("T", "Q")}, "unknown cross-lingual mode 'Q'"),
        ({"modes": ("T",), "fewshot_pairs": -5}, "fewshot_pairs must be >= 0"),
    ], ids=["unknown_mode", "negative_fewshot_pairs"])
    def test_bad_crosslingual_section_rejected(self, syn_path, spec, message):
        with pytest.raises(ConfigError, match=message):
            mini_manifest(syn_path, crosslingual=CrossLingualSpec(source="syn", targets=(),
                                                                  **spec))


class TestRunGrid:
    def test_cell_count_and_outputs(self, syn_path, tmp_path):
        outcome = run_grid(mini_manifest(syn_path), tmp_path / "runs")
        # text_only collapses to level 0: (1 + 2 + 2) x 2 seeds
        assert outcome.cells_run == 10
        assert outcome.ok
        cell_dirs = [d for d in (tmp_path / "runs").iterdir() if d.is_dir()]
        assert len(cell_dirs) == 10
        for d in cell_dirs:
            for name in ("plan.json", "model.json", "preds.jsonl",
                         "report.json", "meta.json"):
                assert (d / name).exists()

    def test_single_cell_grid(self, syn_path, tmp_path):
        manifest = mini_manifest(syn_path, schemes=("text_only",),
                                 speech_levels=(0.0,), seeds=(1,))
        outcome = run_grid(manifest, tmp_path / "runs")
        assert outcome.cells_run == 1
        assert len(list((tmp_path / "runs").glob("*/report.json"))) == 1

    def test_fault_while_writing_model_leaves_cell_unfinished(self, syn_path, tmp_path,
                                                               monkeypatch):
        manifest = mini_manifest(syn_path, schemes=("text_only", "direct"),
                                 speech_levels=(0.1,), seeds=(1,), epochs=1)
        runs, faulty = tmp_path / "runs", "syn__direct__p0.1__s1"
        save_model = slumix.grid.save_model

        def failing_save_model(model, path):
            if Path(path).parent.name != faulty:
                return save_model(model, path)
            with file_size_limit(100):
                return save_model(model, path)

        monkeypatch.setattr(slumix.grid, "save_model", failing_save_model)
        outcome = run_grid(manifest, runs)
        assert [(f["cell"], f["type"]) for f in outcome.failures] == [(faulty, "OSError")]
        assert [p.name for p in (runs / faulty).iterdir()] == ["plan.json"]
        monkeypatch.undo()
        again = run_grid(manifest, runs)
        assert again.ok and (again.cells_run, again.cells_skipped) == (1, 1)
        assert again.results[1].cell.cell_id == faulty and again.results[1].ran

    def test_rerun_removes_temporary_files_of_a_killed_run(self, syn_path, tmp_path):
        manifest = mini_manifest(syn_path, schemes=("text_only",), seeds=(1,), epochs=1)
        cell = tmp_path / "runs" / "syn__text_only__p0__s1"
        assert run_grid(manifest, tmp_path / "runs").ok
        (cell / "meta.json").unlink()  # killed before the cell's last write
        stale = cell / "plan.json.0123456789abcdef.tmp"
        stale.write_text("{")
        again = run_grid(manifest, tmp_path / "runs")
        assert again.ok and again.cells_run == 1
        assert not stale.exists() and (cell / "meta.json").exists()

    def test_resume_skips_everything(self, syn_path, tmp_path):
        manifest = mini_manifest(syn_path)
        run_grid(manifest, tmp_path / "runs")
        again = run_grid(manifest, tmp_path / "runs")
        assert again.cells_run == 0
        assert again.cells_skipped == 10

    def test_changed_manifest_recomputes(self, syn_path, tmp_path):
        run_grid(mini_manifest(syn_path), tmp_path / "runs")
        changed = mini_manifest(syn_path, sim={"substitution_rate": 0.3,
                                               "deletion_rate": 0.1})
        outcome = run_grid(changed, tmp_path / "runs")
        assert outcome.cells_run == 10

    def test_two_dirs_byte_identical_csv(self, syn_path, tmp_path):
        manifest = mini_manifest(syn_path)
        run_grid(manifest, tmp_path / "a")
        run_grid(manifest, tmp_path / "b")
        assert (tmp_path / "a" / "aggregate.csv").read_bytes() == \
            (tmp_path / "b" / "aggregate.csv").read_bytes()

    def test_train_log_matches_plan_totals(self, syn_path, tmp_path):
        run_grid(mini_manifest(syn_path), tmp_path / "runs")
        for meta_path in (tmp_path / "runs").glob("*/meta.json"):
            meta = json.loads(meta_path.read_text())
            totals = meta["plan_totals"]
            assert [r["text_items"] for r in meta["train_log"]] == \
                totals["per_epoch_text"]
            assert [r["speech_items"] for r in meta["train_log"]] == \
                totals["per_epoch_speech"]

    def test_scores_predictions_as_predicted(self, syn_path, tmp_path, monkeypatch):
        calls = []
        parse_label = slumix.grid.parse_label

        def counting(raw):
            calls.append(raw)
            return parse_label(raw)

        monkeypatch.setattr(slumix.grid, "parse_label", counting)
        assert run_grid(mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,)),
                        tmp_path / "runs").ok
        assert calls == []

    def test_failed_cell_recorded_not_fatal(self, tmp_path, xl_setup):
        # fewshot_pairs larger than the target pool makes every T cell fail
        manifest = replace(xl_manifest(xl_setup[0]), crosslingual=CrossLingualSpec(
            source="fr", targets=("de",), modes=("zero_shot", "T"), fewshot_pairs=10_000))
        outcome = run_grid(manifest, tmp_path / "runs")
        assert [f["cell"] for f in outcome.failures] == ["xl__T__p0__s1", "xl__T__p0.1__s1"]
        assert outcome.cells_run == 2

    @pytest.mark.parametrize("fault,error", [("missing", FileNotFoundError),
                                             ("malformed", CorpusFormatError)],
                             ids=["missing", "malformed"])
    def test_bad_corpus_exit_1_before_any_cell(self, syn_path, tmp_path, capsys,
                                               fault, error):
        # Every corpus is read before the runs directory is made, so a bad one
        # listed after a good one fails the grid once, before any cell.
        bad = tmp_path / "bad.jsonl"
        if fault == "malformed":
            bad.write_text("{not json\n")
        manifest = mini_manifest(syn_path, corpora={"syn": str(syn_path), "zz": str(bad)})
        with pytest.raises(error):
            run_grid(manifest, tmp_path / "runs")
        assert not (tmp_path / "runs").exists()
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest_to_dict(manifest)))
        assert main(["grid", "--config", str(manifest_path),
                     "--out", str(tmp_path / "cli")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err
        assert not (tmp_path / "cli").exists()


class TestCellIdentity:
    """A cell is keyed by its own inputs; aggregation covers the manifest's cells."""

    def test_narrowed_manifest_runs_nothing_and_pools_its_seeds(self, syn_path, tmp_path):
        run_grid(mini_manifest(syn_path, seeds=(1, 2, 3)), tmp_path / "runs")
        narrowed = run_grid(mini_manifest(syn_path), tmp_path / "runs")
        assert (narrowed.cells_run, narrowed.cells_skipped) == (0, 10)
        assert {r["cell"].n for r in narrowed.rows} == {2}
        assert {r["cell"].n for r in read_rows_csv(tmp_path / "runs" / "aggregate.csv")} == {2}
        # New sim settings rerun seeds 1 and 2 and never pool the old seed-3 cells.
        changed = run_grid(mini_manifest(syn_path, sim={"substitution_rate": 0.3}),
                           tmp_path / "runs")
        assert changed.cells_run == 10
        assert {r["cell"].n for r in changed.rows} == {2}

    def test_added_seed_runs_only_its_cells(self, syn_path, tmp_path):
        run_grid(mini_manifest(syn_path), tmp_path / "runs")
        before = {p.parent.name: p.read_bytes()
                  for p in (tmp_path / "runs").glob("*/meta.json")}
        extended = run_grid(mini_manifest(syn_path, seeds=(1, 2, 3)), tmp_path / "runs")
        assert (extended.cells_run, extended.cells_skipped) == (5, 10)
        assert {r["cell"].n for r in extended.rows} == {3}
        for cell_id, meta in before.items():
            assert (tmp_path / "runs" / cell_id / "meta.json").read_bytes() == meta

    def test_edited_corpus_reruns_its_cells(self, syn_path, tmp_path):
        edited = tmp_path / "edited.jsonl"
        shutil.copyfile(syn_path, edited)
        manifest = mini_manifest(syn_path, corpora={"a": str(syn_path), "b": str(edited)},
                                 seeds=(1,), speech_levels=(0.1,))
        assert run_grid(manifest, tmp_path / "runs").cells_run == 6
        save_corpus(make_synthetic_corpus(300, seed=1), edited)
        again = run_grid(manifest, tmp_path / "runs")
        assert (again.cells_run, again.cells_skipped) == (3, 3)
        # The rerun cells are those of the edited corpus, and match a fresh run.
        fresh = run_grid(manifest, tmp_path / "fresh")
        for cell_dir in sorted((tmp_path / "fresh").glob("b__*")):
            assert (tmp_path / "runs" / cell_dir.name / "report.json").read_bytes() == \
                (cell_dir / "report.json").read_bytes()
        assert (tmp_path / "runs" / "aggregate.csv").read_bytes() == \
            (tmp_path / "fresh" / "aggregate.csv").read_bytes()

    def test_other_spelling_of_the_settings_runs_nothing(self, syn_path, tmp_path):
        first = run_grid(mini_manifest(syn_path), tmp_path / "runs")
        again = run_grid(mini_manifest(syn_path, recipe={}, sim={"substitution_rate": 0.15}),
                         tmp_path / "runs")
        assert (first.cells_run, again.cells_run, again.cells_skipped) == (10, 0, 10)

    @pytest.mark.parametrize("name,damage", [
        ("report.json", lambda report: {}),
        ("report.json", lambda report: []),
        ("report.json", lambda report: {**report, "slu_f1": "high"}),
        ("report.json", lambda report: {k: v for k, v in report.items() if k != "counts"}),
        ("report.json", lambda report: {**report, "wer": 0.5}),
        ("meta.json", lambda meta: {k: v for k, v in meta.items() if k != "scheme"}),
    ], ids=["report_empty_object", "report_array", "report_metric_string",
            "report_no_counts", "report_unknown_field", "meta_no_scheme"])
    def test_damaged_cell_is_rerun_and_counted_missing(self, syn_path, tmp_path, name,
                                                       damage):
        manifest = mini_manifest(syn_path)
        runs = tmp_path / "runs"
        assert run_grid(manifest, runs).ok
        path = runs / "syn__direct__p0.1__s1" / name
        whole, aggregate_csv = path.read_bytes(), (runs / "aggregate.csv").read_bytes()
        path.write_text(json.dumps(damage(json.loads(whole))))
        results, missing = read_results(manifest, runs)
        assert missing == ["syn__direct__p0.1__s1"]
        assert {r["cell"].n for r in aggregate_results(results) if r["scheme"] == "direct"
                and r["speech_level"] == 0.1} == {1}
        again = run_grid(manifest, runs)
        assert again.ok and (again.cells_run, again.cells_skipped) == (1, 9)
        assert path.read_bytes() == whole
        assert (runs / "aggregate.csv").read_bytes() == aggregate_csv

    def test_truncated_report_is_rerun(self, syn_path, tmp_path):
        manifest = mini_manifest(syn_path)
        run_grid(manifest, tmp_path / "runs")
        report = tmp_path / "runs" / "syn__direct__p0.1__s1" / "report.json"
        whole = report.read_bytes()
        report.write_bytes(whole[:len(whole) // 2])
        again = run_grid(manifest, tmp_path / "runs")
        assert (again.cells_run, again.cells_skipped) == (1, 9)
        assert report.read_bytes() == whole

    def test_interrupted_rewrite_is_done_under_no_hash(self, syn_path, tmp_path,
                                                       monkeypatch):
        manifest = mini_manifest(syn_path, schemes=("direct",), speech_levels=(0.1,),
                                 seeds=(1,))
        cell_dir = tmp_path / "runs" / "syn__direct__p0.1__s1"
        run_grid(manifest, tmp_path / "runs")
        assert sorted(p.name for p in cell_dir.iterdir()) == [
            "meta.json", "model.json", "plan.json", "preds.jsonl", "report.json"]

        def interrupted(model, path):
            raise KeyboardInterrupt

        monkeypatch.setattr(slumix.grid, "save_model", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_grid(mini_manifest(syn_path, schemes=("direct",), speech_levels=(0.1,),
                                   seeds=(1,), epochs=3), tmp_path / "runs")
        assert not (cell_dir / "meta.json").exists()
        monkeypatch.undo()
        # plan.json now holds the 3-epoch plan, so the 2-epoch cell must rerun.
        assert run_grid(manifest, tmp_path / "runs").cells_run == 1

    def test_cell_trains_on_the_bytes_it_is_hashed_by(self, syn_path, tmp_path, monkeypatch):
        # The corpus file is replaced after the cell hashed it and before it
        # would be parsed: the cell must still be computed from what it hashed.
        corpus = tmp_path / "syn.jsonl"
        shutil.copyfile(syn_path, corpus)
        manifest = mini_manifest(corpus, schemes=("direct",), speech_levels=(0.1,),
                                 seeds=(1,))
        assert run_grid(manifest, tmp_path / "clean").ok
        real = slumix.grid._read_cell

        def edit_then_read(*args):
            save_corpus(make_synthetic_corpus(300, seed=1), corpus)
            return real(*args)

        monkeypatch.setattr(slumix.grid, "_read_cell", edit_then_read)
        assert run_grid(manifest, tmp_path / "edited").ok
        for name in ("meta.json", "plan.json", "model.json", "preds.jsonl", "report.json"):
            rel = f"syn__direct__p0.1__s1/{name}"
            assert (tmp_path / "edited" / rel).read_bytes() == \
                (tmp_path / "clean" / rel).read_bytes(), name

    def test_run_aggregates_the_cells_it_hashed(self, syn_path, tmp_path, monkeypatch):
        # The corpus file changes after the last cell is written: the run's
        # rows still cover every cell it ran, checked against the bytes it hashed.
        corpus = tmp_path / "syn.jsonl"
        shutil.copyfile(syn_path, corpus)
        manifest = mini_manifest(corpus, seeds=(1,), speech_levels=(0.1,))
        real = slumix.grid.aggregate_results

        def append_then_aggregate(*args):
            with open(corpus, "a", encoding="utf-8") as f:
                f.write("\n")
            return real(*args)

        monkeypatch.setattr(slumix.grid, "aggregate_results", append_then_aggregate)
        outcome = run_grid(manifest, tmp_path / "runs")
        assert outcome.ok and outcome.cells_run == 3
        assert {(r["scheme"], r["cell"].n) for r in outcome.rows} == {
            ("text_only", 1), ("direct", 1), ("curriculum", 1)}

    def test_run_reads_each_corpus_file_once(self, syn_path, tmp_path, monkeypatch):
        reads = Counter()
        real = Path.read_bytes

        def counted(self):
            reads[str(self)] += 1
            return real(self)

        monkeypatch.setattr(Path, "read_bytes", counted)
        manifest = mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,))
        for expected_run in (3, 0):
            reads.clear()
            assert run_grid(manifest, tmp_path / "runs").cells_run == expected_run
            assert reads[str(syn_path)] == 1

    def test_run_reads_each_cell_file_once(self, syn_path, tmp_path, monkeypatch):
        # A run aggregates what its cells return: a fresh cell's reports are
        # never read back, and a finished cell's files are read by its skip
        # check only.
        reads = Counter()
        real = slumix.grid.read_json

        def counted(path, *args):
            reads[Path(path).name] += 1
            return real(path, *args)

        monkeypatch.setattr(slumix.grid, "read_json", counted)
        manifest = mini_manifest(syn_path, schemes=("direct",), speech_levels=(0.1,),
                                 seeds=(1,))
        runs = tmp_path / "runs"
        assert run_grid(manifest, runs).cells_run == 1
        assert reads == {"meta.json": 1}  # the skip check, which finds none
        reads.clear()
        assert run_grid(manifest, runs).cells_skipped == 1
        assert reads == {"meta.json": 1, "report.json": 1}
        reads.clear()
        assert read_results(manifest, runs)[1] == []
        assert reads == {"meta.json": 1, "report.json": 1}

    def test_failure_records_traceback(self, tmp_path):
        # A corpus with no train split loads, but no cell can train on it.
        path = tmp_path / "test_only.jsonl"
        save_corpus(make_corpus([make_utt("u1", "wake me at seven am", split="test")]), path)
        outcome = run_grid(mini_manifest(path, seeds=(1,)), tmp_path / "runs")
        failure = outcome.failures[0]
        assert failure["cell"] == "syn__text_only__p0__s1"
        assert failure["traceback"].startswith("Traceback")
        assert "TrainError: plan contains no training items" in failure["traceback"]


def xl_manifest(tmp, seeds=(1,)):
    return ExperimentManifest(
        corpora={"fr": str(tmp / "fr.jsonl"), "de": str(tmp / "de.jsonl"),
                 "ko": str(tmp / "ko.jsonl")},
        schemes=("text_only", "curriculum"),
        speech_levels=(0.1,),
        seeds=seeds,
        epochs=2,
        recipe={"profile": "desk"},
        sim={"substitution_rate": 0.1, "deletion_rate": 0.1},
        crosslingual=CrossLingualSpec(source="fr", targets=("de", "ko"),
                                      modes=("zero_shot", "T", "T_S"),
                                      fewshot_pairs=8),
    )


@pytest.fixture(scope="module")
def xl_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("xl")
    for lang, seed in (("fr", 0), ("de", 1), ("ko", 2)):
        save_corpus(make_synthetic_corpus(160, seed=seed, lang=lang,
                                          name=f"c-{lang}"),
                    tmp / f"{lang}.jsonl")
    outcome = run_grid(xl_manifest(tmp), tmp / "runs")
    return tmp, outcome


class TestCrossLingualGrid:
    def test_cells_and_rows(self, xl_setup):
        tmp, outcome = xl_setup
        assert outcome.ok
        # 3 modes x (level 0 + level 0.1) x 1 seed
        assert outcome.cells_run == 6
        rows = read_rows_csv(tmp / "runs" / "aggregate.csv")
        langs = {r["target_lang"] for r in rows}
        assert langs == {"de", "ko"}

    def test_zero_shot_cells_use_source_scheme_rule(self, xl_setup):
        tmp, _ = xl_setup
        metas = [json.loads(p.read_text())
                 for p in (tmp / "runs").glob("xl__zero_shot*/meta.json")]
        by_level = {m["speech_level"]: m["scheme"] for m in metas}
        assert by_level == {0.0: "text_only", 0.1: "curriculum"}


@pytest.mark.parametrize("kind", ["mono", "xl"])
def test_run_frees_its_store_without_gc(kind, syn_path, xl_setup, tmp_path, monkeypatch):
    # No reference cycle holds a run's inputs: with the collector off, the
    # feature store a run made is freed as soon as run_grid returns.
    if kind == "mono":
        manifest = mini_manifest(syn_path)
    else:
        tmp, _ = xl_setup
        corpora = {lang: str(tmp / f"{lang}.jsonl") for lang in ("fr", "de", "ko")}
        for lang, seed in (("de", 3), ("ko", 4)):
            corpora[f"text-{lang}"] = str(tmp_path / f"text-{lang}.jsonl")
            save_corpus(make_synthetic_corpus(40, seed=seed, lang=lang), corpora[f"text-{lang}"])
        manifest = ExperimentManifest(
            corpora=corpora, schemes=("text_only", "curriculum"), speech_levels=(0.1, 1.0),
            seeds=(1, 2), epochs=2, recipe={"profile": "desk"},
            crosslingual=CrossLingualSpec(source="fr", targets=("de", "ko"),
                                          modes=("zero_shot", "T_S_M"),
                                          massive=("text-de", "text-ko"), fewshot_pairs=8))
    stores = []

    class WatchedStore(FeatureStore):
        def __init__(self):
            super().__init__()
            stores.append(weakref.ref(self))

    monkeypatch.setattr(slumix.grid, "FeatureStore", WatchedStore)
    gc.collect()
    gc.disable()
    try:
        outcome = run_grid(manifest, tmp_path / "runs")
        assert outcome.ok and outcome.cells_run >= 10
        assert len(stores) == 1 and stores[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["mono", "xl"])
def test_each_input_compiled_once_per_run(kind, syn_path, xl_setup, tmp_path, monkeypatch):
    if kind == "mono":
        manifest = mini_manifest(syn_path)
    else:
        tmp, _ = xl_setup
        manifest = ExperimentManifest(
            corpora={lang: str(tmp / f"{lang}.jsonl") for lang in ("fr", "de", "ko")},
            schemes=("text_only", "curriculum"), speech_levels=(0.1, 1.0), seeds=(1, 2),
            epochs=2, recipe={"profile": "desk"},
            crosslingual=CrossLingualSpec(source="fr", targets=("de", "ko"),
                                          modes=("zero_shot", "T_S"), fewshot_pairs=8))
    stores, simulated = [], Counter()
    hashed = [0]
    real_simulate, real_hash = slumix.trainer.simulate_speech, slumix.trainer.hashed_features

    class RecordedStore(FeatureStore):
        def __init__(self):
            super().__init__()
            stores.append(self)

    def simulate(text, cfg):
        simulated[text, cfg] += 1
        return real_simulate(text, cfg)

    def hash_features(tokens):
        hashed[0] += 1
        return real_hash(tokens)

    monkeypatch.setattr(slumix.grid, "FeatureStore", RecordedStore)
    monkeypatch.setattr(slumix.trainer, "simulate_speech", simulate)
    monkeypatch.setattr(slumix.trainer, "hashed_features", hash_features)
    outcome = run_grid(manifest, tmp_path / "runs")
    assert outcome.ok and outcome.cells_run >= 10
    used = [store for store in stores if len(store)]
    assert len(used) == 1
    # Two seeds simulate each text under two configurations.
    assert len({cfg for _, cfg in simulated}) == 2
    assert set(simulated.values()) == {1}
    assert hashed[0] == len(used[0])


def test_crosslingual_added_seed_runs_only_its_cells(xl_setup, tmp_path):
    tmp, _ = xl_setup
    shutil.copytree(tmp / "runs", tmp_path / "runs")
    outcome = run_grid(xl_manifest(tmp, seeds=(1, 2)), tmp_path / "runs")
    assert outcome.ok
    assert (outcome.cells_run, outcome.cells_skipped) == (6, 6)
    assert {r["cell"].n for r in outcome.rows} == {2}
    assert {r["target_lang"] for r in outcome.rows} == {"de", "ko"}


def test_crosslingual_report_missing_a_target_is_rerun(xl_setup, tmp_path):
    tmp, _ = xl_setup
    runs = tmp_path / "runs"
    shutil.copytree(tmp / "runs", runs)
    manifest = xl_manifest(tmp)
    report = runs / "xl__T__p0.1__s1" / "report.json"
    whole = report.read_bytes()
    obj = json.loads(whole)
    del obj["per_target"]["ko"]
    report.write_text(json.dumps(obj))
    assert read_results(manifest, runs)[1] == ["xl__T__p0.1__s1"]
    outcome = run_grid(manifest, runs)
    assert outcome.ok and (outcome.cells_run, outcome.cells_skipped) == (1, 5)
    assert report.read_bytes() == whole
    assert (runs / "aggregate.csv").read_bytes() == (tmp / "runs" / "aggregate.csv").read_bytes()


@pytest.mark.parametrize("kind", ["mono", "xl"])
def test_fresh_run_resume_and_aggregate_command_write_the_same_csv(kind, syn_path, xl_setup,
                                                                   tmp_path):
    runs = tmp_path / "runs"
    if kind == "mono":
        manifest = mini_manifest(syn_path, speech_levels=(0.1,))
        assert run_grid(manifest, runs).ok
    else:
        tmp, _ = xl_setup
        manifest = xl_manifest(tmp)
        shutil.copytree(tmp / "runs", runs)
    fresh = (runs / "aggregate.csv").read_bytes()
    (runs / "aggregate.csv").unlink()
    resumed = run_grid(manifest, runs)
    assert resumed.ok and resumed.cells_run == 0
    assert (runs / "aggregate.csv").read_bytes() == fresh
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text(json.dumps(manifest_to_dict(manifest)))
    assert main(["aggregate", "--config", str(manifest_path), "--runs", str(runs),
                 "--out", str(tmp_path / "agg.csv")]) == 0
    assert (tmp_path / "agg.csv").read_bytes() == fresh


class TestCli:
    @staticmethod
    def _run_python(code):
        src = str(Path(slumix.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout

    def test_import_loads_no_scipy(self):
        # The package needs no scipy: t critical values past the table are computed.
        code = ("import sys, slumix.cli; "
                "print([m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules])")
        assert self._run_python(code) == "[]\n"

    def test_evaluate_loads_no_scipy(self, tmp_path):
        # Three gold and three predicted date spans: one 3x3 group to match.
        dates = [("date", "monday"), ("date", "next week"), ("date", "the fifth")]
        gold = tmp_path / "gold.jsonl"
        save_corpus(Corpus(name="gold", lang="en", records=[Utterance(
            id="u1", lang="en", split="test", text="monday next week the fifth",
            label=SemanticLabel("calendar", "query", tuple(Entity(*d) for d in dates)))]), gold)
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"utt_id": "u1", "pred_raw": serialize_label(SemanticLabel(
            "calendar", "query", (Entity("date", "the week"), Entity("date", "monday fifth"),
                                  Entity("date", "next"))))}) + "\n")
        code = ("import sys; from slumix.cli import main; "
                f"code = main(['evaluate', '--gold', {str(gold)!r}, '--pred', {str(preds)!r}, "
                f"'--out', {str(tmp_path / 'report.json')!r}]); "
                "print(code, 'scipy.optimize' in sys.modules)")
        assert self._run_python(code).splitlines()[-1] == "0 False"
        assert 0.0 < json.loads((tmp_path / "report.json").read_text())["slu_f1"] < 1.0

    def test_only_training_loads_numpy(self, syn_path, tmp_path):
        # A grid in this process gives aggregate its runs and evaluate its predictions.
        manifest = mini_manifest(syn_path, schemes=("text_only",), speech_levels=(0.1,),
                                 seeds=(1,), epochs=1)
        config = tmp_path / "m.json"
        config.write_text(json.dumps(manifest_to_dict(manifest)))
        runs = tmp_path / "runs"
        assert run_grid(manifest, runs).ok
        preds = next(runs.glob("*/preds.jsonl"))
        d, syn = str(tmp_path), str(syn_path)
        commands = [
            ["synth", "--n", "50", "--out", f"{d}/s.jsonl"],
            ["ingest", "--in", syn, "--profile", "canonical", "--out", f"{d}/i.jsonl"],
            ["plan", "--scheme", "curriculum", "--p", "0.5", "--epochs", "2", "--seed", "1",
             "--corpus", syn, "--out", f"{d}/plan.json"],
            ["export-manifest", "--plan", f"{d}/plan.json", "--corpus-ref", syn,
             "--out", f"{d}/export.json"],
            ["evaluate", "--gold", syn, "--pred", str(preds), "--out", f"{d}/report.json"],
            ["aggregate", "--config", str(config), "--runs", str(runs),
             "--out", f"{d}/agg.csv"],
            ["report", "--agg", f"{d}/agg.csv", "--style", "monolingual",
             "--out-prefix", f"{d}/table"],
        ]
        # Training the curriculum plan caches its phase-1 state, which loads no numpy.ma.
        train = ["train", "--plan", f"{d}/plan.json", "--corpus", syn,
                 "--out", f"{d}/model.json"]
        code = ("import sys, slumix, slumix.cli; "
                "loaded = lambda: [m for m in ('numpy', 'numpy.ma', 'scipy') "
                "if m in sys.modules]; "
                "seen = [loaded()]; "
                f"codes = [slumix.cli.main(argv) for argv in {commands!r}]; "
                "seen.append(loaded()); "
                f"codes.append(slumix.cli.main({train!r})); "
                "print(codes, seen + [loaded()])")
        assert self._run_python(code).splitlines()[-1] == (
            f"{[0] * (len(commands) + 1)} [[], [], ['numpy']]")

    def test_full_pipeline(self, tmp_path, capsys):
        d = tmp_path
        assert main(["synth", "--n", "200", "--seed", "3",
                     "--out", str(d / "c.jsonl")]) == 0
        assert main(["plan", "--scheme", "curriculum", "--p", "0.25",
                     "--epochs", "2", "--seed", "5", "--corpus", str(d / "c.jsonl"),
                     "--out", str(d / "plan.json")]) == 0
        assert main(["train", "--plan", str(d / "plan.json"),
                     "--corpus", str(d / "c.jsonl"),
                     "--out", str(d / "model.json")]) == 0
        assert main(["predict", "--model", str(d / "model.json"),
                     "--corpus", str(d / "c.jsonl"), "--split", "test",
                     "--out", str(d / "preds.jsonl")]) == 0
        assert main(["--json", "evaluate", "--gold", str(d / "c.jsonl"),
                     "--pred", str(d / "preds.jsonl"),
                     "--out", str(d / "report.json")]) == 0
        logged = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert logged["event"] == "evaluated"
        report = json.loads((d / "report.json").read_text())
        assert 0.0 <= report["slu_f1"] <= 1.0
        assert main(["export-manifest", "--plan", str(d / "plan.json"),
                     "--corpus-ref", str(d / "c.jsonl"),
                     "--out", str(d / "manifest.json")]) == 0
        manifest = json.loads((d / "manifest.json").read_text())
        assert len(manifest["lr_phases"]) == 2

    def test_ingest_profiles(self, tmp_path):
        src = tmp_path / "slurp.jsonl"
        src.write_text(json.dumps({
            "slurp_id": 1, "sentence": "wake me at seven am",
            "sentence_annotation": "wake me at [time : seven am]",
            "scenario": "alarm", "action": "set", "partition": "train",
            "entities": [{"type": "time", "filler": "seven am"}],
            "recordings": [{"file": "a.flac"}, {"file": "b.flac"}],
        }) + "\n")
        out = tmp_path / "canon.jsonl"
        assert main(["ingest", "--in", str(src), "--profile", "slurp",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("field,value", [
        ("recordings", "a.flac"), ("recordings", [5]), ("entities", ["time"]),
        ("entities", "time"),
    ], ids=["recordings_string", "recordings_entry_number", "entities_list_of_strings",
            "entities_string"])
    def test_malformed_slurp_row_exit_1(self, tmp_path, capsys, field, value):
        src = tmp_path / "slurp.jsonl"
        src.write_text(json.dumps({
            "slurp_id": 1, "sentence": "wake me at seven am", "scenario": "alarm",
            "action": "set", "partition": "train", "entities": [], "recordings": [],
            field: value}) + "\n")
        out = tmp_path / "canon.jsonl"
        assert main(["ingest", "--in", str(src), "--profile", "slurp", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:1: field '{field}'")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_ingest_logs_split_counts(self, tmp_path, capsys):
        src = tmp_path / "slurp.jsonl"
        src.write_text("".join(json.dumps({
            "slurp_id": i, "sentence": f"wake me at seven am {i}", "scenario": "alarm",
            "action": "set", "partition": split, "entities": [],
            "recordings": [f"{i}-{r}.flac" for r in range(n)],
        }) + "\n" for i, (split, n) in enumerate([("train", 2), ("train", 0), ("test", 3)])))
        assert main(["--json", "ingest", "--in", str(src), "--profile", "slurp",
                     "--out", str(tmp_path / "canon.jsonl")]) == 0
        logged = json.loads(capsys.readouterr().out)
        assert logged["records"] == 8
        assert {k: logged[k] for k in logged if k.endswith(("_text", "_speech"))} == {
            "train_text": 2, "train_speech": 2, "dev_text": 0, "dev_speech": 0,
            "test_text": 1, "test_speech": 3}

    @staticmethod
    def _ingest_source(tmp_path, profile):
        """A source file whose dev and test records share transcripts with
        train records that come later in the file."""
        src = tmp_path / f"{profile}.jsonl"
        texts = ["wake me at seven am", "play queen", "what is the weather", "wake me at seven am"]
        if profile == "slurp":
            rows = [{"slurp_id": i, "sentence": text, "scenario": "alarm", "action": "set",
                     "sentence_annotation": text.replace("seven am", "[time : seven am]"),
                     "partition": split, "recordings": [f"{i}-{r}.flac" for r in range(n)],
                     "entities": [{"type": "time", "span": [3, 4]}] if "seven" in text else []}
                    for i, (text, split, n) in enumerate(zip(
                        texts + ["play queen"], ["devel", "test", "train", "train", "train"],
                        [2, 0, 3, 1, 2]))]
        elif profile == "massive":
            rows = [{"id": str(i), "locale": "fr-FR", "partition": split, "utt": text,
                     "annot_utt": text.replace("seven am", "[time : seven am]"),
                     "intent": "alarm_set", **({"path": f"{i}.wav"} if i % 2 else {})}
                    for i, (text, split) in enumerate(zip(
                        texts + ["play queen"], ["dev", "test", "train", "train", "train"]))]
        else:
            rows = [{"id": f"u{i}", "lang": "en", "split": split, "text": text,
                     "scenario": "alarm", "action": "set", "entities": [],
                     **({"speech_ref": f"{i}.wav"} if i % 2 else {})}
                    for i, (text, split) in enumerate(zip(
                        texts + ["play queen"], ["dev", "test", "test", "train", "train"]))]
        src.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return src

    @pytest.mark.parametrize("profile,pairing", [
        ("slurp", "all"), ("slurp", "one"), ("massive", "all"), ("canonical", "all"),
    ], ids=["slurp_all", "slurp_one", "massive", "canonical"])
    def test_ingest_equals_load_then_save(self, tmp_path, capsys, profile, pairing):
        src = self._ingest_source(tmp_path, profile)
        out = tmp_path / "out.jsonl"
        assert main(["--json", "ingest", "--in", str(src), "--profile", profile,
                     "--pairing", pairing, "--out", str(out)]) == 0
        corpus = load_corpus(src, profile, pairing=pairing)
        save_corpus(corpus, tmp_path / "expected.jsonl")
        assert out.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        counts = {f"{split}_{kind}": n for split, by_kind in corpus_stats(corpus).items()
                  for kind, n in by_kind.items()}
        assert json.loads(capsys.readouterr().out) == {
            "event": "ingested", "records": len(corpus), "lang": corpus.lang, **counts,
            "out": str(out)}
        assert counts["dev_in_train"] > 0 and counts["test_in_train"] > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [src.name, "out.jsonl", "expected.jsonl"])

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["no_out", "existing_out"])
    def test_malformed_last_slurp_line_writes_nothing(self, tmp_path, capsys, existing):
        src = self._ingest_source(tmp_path, "slurp")
        src.write_text(src.read_text() + "{not json\n")
        out = tmp_path / "out.jsonl"
        if existing is not None:
            out.write_bytes(existing)
        assert main(["ingest", "--in", str(src), "--profile", "slurp", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:6: invalid JSON")
        assert len(err.splitlines()) == 1
        assert (out.read_bytes() if out.exists() else None) == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["slurp.jsonl"] + (["out.jsonl"] if existing else []))

    def test_in_place_canonical_ingest_keeps_the_bytes(self, syn_path, tmp_path):
        path = tmp_path / "syn.jsonl"
        shutil.copy(syn_path, path)
        assert main(["ingest", "--in", str(path), "--profile", "canonical",
                     "--out", str(path)]) == 0
        assert path.read_bytes() == syn_path.read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["syn.jsonl"]

    def test_ingest_keeps_a_file_named_like_a_temporary_one(self, tmp_path, capsys):
        src = self._ingest_source(tmp_path, "slurp")
        out, mine = tmp_path / "out.jsonl", tmp_path / "out.jsonl.tmp"
        mine.write_bytes(b"mine\n")
        args = ["ingest", "--in", str(src), "--profile", "slurp", "--out", str(out)]
        assert main(args) == 0
        src.write_text(src.read_text() + "{not json\n")
        assert main(args) == 1
        assert mine.read_bytes() == b"mine\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "out.jsonl", "out.jsonl.tmp", "slurp.jsonl"]

    def test_ingest_into_a_missing_directory_names_the_out_path(self, syn_path, tmp_path,
                                                                capsys):
        out = tmp_path / "missing" / "out.jsonl"
        assert main(["ingest", "--in", str(syn_path), "--profile", "canonical",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")

    @pytest.mark.parametrize("kind", OUTPUT_KINDS)
    def test_output_permissions_and_symlink(self, kind, one_cell, tmp_path):
        umask = os.umask(0o022)
        try:
            fresh = tmp_path / "fresh"
            assert main(OUTPUT_KINDS[kind](one_cell, str(fresh))) == 0
            for path in output_files(kind, fresh):
                assert stat.S_IMODE(path.stat().st_mode) == 0o644
        finally:
            os.umask(umask)
        # An existing output keeps its permissions; a symlink stays a symlink
        # and its target gets the new bytes.
        links = output_files(kind, tmp_path / "link")
        targets = [tmp_path / f"target_{link.name}" for link in links]
        for link, target in zip(links, targets):
            target.write_text("old\n")
            target.chmod(0o600)
            link.symlink_to(target.name)
        assert main(OUTPUT_KINDS[kind](one_cell, str(tmp_path / "link"))) == 0
        for link, target, fresh_file in zip(links, targets, output_files(kind, fresh)):
            assert link.is_symlink() and target.read_bytes() == fresh_file.read_bytes()
            assert stat.S_IMODE(target.stat().st_mode) == 0o600

    @pytest.mark.parametrize("kind", OUTPUT_KINDS)
    def test_failed_write_leaves_the_output_as_it_was(self, kind, one_cell, tmp_path):
        written = tmp_path / "written"
        assert main(OUTPUT_KINDS[kind](one_cell, str(written))) == 0
        limit = min(p.stat().st_size for p in output_files(kind, written)) // 2
        out = tmp_path / "out"
        for path in output_files(kind, out):
            path.write_bytes(b"old\n")
            path.chmod(0o640)
        # The command without main's error handling, so its OSError is seen.
        args = build_parser().parse_args(OUTPUT_KINDS[kind](one_cell, str(out)))
        with file_size_limit(limit), pytest.raises(OSError) as info:
            args.func(args, None)
        assert info.value.errno == errno.EFBIG
        for path in output_files(kind, out):
            assert path.read_bytes() == b"old\n"
            assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert not list(tmp_path.glob("*.tmp"))

    def test_ingest_writes_through_to_a_pipe(self, tmp_path):
        src = self._ingest_source(tmp_path, "canonical")  # well under a pipe's buffer
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["ingest", "--in", str(src), "--profile", "canonical",
                         "--out", str(fifo)]) == 0
            written = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        save_corpus(load_corpus(src, "canonical"), tmp_path / "expected.jsonl")
        assert written == (tmp_path / "expected.jsonl").read_bytes()
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_grid_command_and_resume(self, syn_path, tmp_path, capsys):
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest_to_dict(
            mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,)))))
        out = tmp_path / "runs"
        assert main(["grid", "--config", str(manifest_path),
                     "--out", str(out)]) == 0
        assert (out / "aggregate.csv").exists()
        assert main(["--json", "grid", "--config", str(manifest_path),
                     "--out", str(out)]) == 0
        logged = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert logged["cells_run"] == 0

    def test_json_grid_logs_each_failed_cell(self, xl_setup, tmp_path, capsys):
        # fewshot_pairs larger than the target pool makes every T cell fail
        manifest = manifest_to_dict(xl_manifest(xl_setup[0]))
        manifest["crosslingual"].update(modes=["zero_shot", "T"], fewshot_pairs=10_000)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "runs"
        assert main(["--json", "grid", "--config", str(path), "--out", str(out)]) == 1
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [line["event"] for line in lines] == ["grid", "cell_failed", "cell_failed"]
        assert (lines[0]["cells_run"], lines[0]["failures"]) == (2, 2)
        for line, level in zip(lines[1:], ("0", "0.1")):
            assert sorted(line) == ["cell", "error", "event", "traceback", "type"]
            assert line["cell"] == f"xl__T__p{level}__s1" and line["type"] == "ConfigError"
            assert line["error"].endswith("speech-paired train records (need 10000)")
            assert line["traceback"].startswith("Traceback") and line["error"] in \
                line["traceback"]
        assert (out / "aggregate.csv").exists()

    def test_aggregate_and_report_commands(self, syn_path, tmp_path):
        out = tmp_path / "runs"
        manifest = mini_manifest(syn_path, seeds=(1, 2), speech_levels=(0.1,))
        run_grid(manifest, out)
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest_to_dict(manifest)))
        assert main(["aggregate", "--config", str(manifest_path), "--runs", str(out),
                     "--out", str(tmp_path / "agg.csv")]) == 0
        assert (tmp_path / "agg.csv").read_bytes() == \
            (out / "aggregate.csv").read_bytes()
        assert main(["report", "--agg", str(tmp_path / "agg.csv"),
                     "--style", "monolingual",
                     "--out-prefix", str(tmp_path / "table")]) == 0
        assert (tmp_path / "table.md").exists()
        assert (tmp_path / "table.csv").exists()

    def test_report_logs_normalised_paths(self, syn_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "runs"
        run_grid(mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,)), out)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["--json", "report", "--agg", str(out / "aggregate.csv"),
                     "--style", "monolingual", "--out-prefix", "./t"]) == 0
        logged = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (logged["markdown"], logged["csv"]) == ("t.md", "t.csv")

    def test_aggregate_command_reports_missing_cells(self, syn_path, tmp_path, capsys):
        out = tmp_path / "runs"
        run_grid(mini_manifest(syn_path, seeds=(1,)), out)
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest_to_dict(mini_manifest(syn_path))))
        capsys.readouterr()
        assert main(["--json", "aggregate", "--config", str(manifest_path),
                     "--runs", str(out), "--out", str(tmp_path / "agg.csv")]) == 1
        logged = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert logged["event"] == "aggregated"
        assert logged["missing"] == 5
        assert {r["cell"].n for r in read_rows_csv(tmp_path / "agg.csv")} == {1}

    def test_aggregate_command_counts_a_damaged_cell_missing(self, syn_path, tmp_path,
                                                             capsys):
        manifest = mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,))
        run_grid(manifest, tmp_path / "runs")
        (tmp_path / "runs" / "syn__direct__p0.1__s1" / "report.json").write_text("{}")
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest_to_dict(manifest)))
        assert main(["--json", "aggregate", "--config", str(manifest_path),
                     "--runs", str(tmp_path / "runs"), "--out", str(tmp_path / "agg.csv")]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["missing"] == 1
        assert captured.err == ""

    def test_corpus_name_with_a_comma_round_trips(self, syn_path, tmp_path):
        # The name is quoted in both CSVs, so no row gains a column.
        manifest = mini_manifest(syn_path, corpora={"a,b": str(syn_path)}, seeds=(1,),
                                 speech_levels=(0.1,))
        config, runs, agg = tmp_path / "m.json", tmp_path / "runs", tmp_path / "agg.csv"
        config.write_text(json.dumps(manifest_to_dict(manifest)))
        assert main(["grid", "--config", str(config), "--out", str(runs)]) == 0
        assert main(["aggregate", "--config", str(config), "--runs", str(runs),
                     "--out", str(agg)]) == 0
        assert main(["report", "--agg", str(agg), "--style", "monolingual",
                     "--out-prefix", str(tmp_path / "table")]) == 0
        assert {row["corpus"] for row in read_rows_csv(agg)} == {"a,b"}
        for path, width in ((agg, len(CSV_COLUMNS)), (tmp_path / "table.csv", 8)):
            with open(path, encoding="utf-8", newline="") as f:
                rows = list(csv.reader(f))
            assert len(rows) > 1 and {len(row) for row in rows} == {width}
            assert {row[0] for row in rows[1:]} == {"a,b"}

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_synth_of_no_record_exit_1(self, tmp_path, capsys, n):
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--n", n, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: a synthetic corpus needs n >= 1 (got {n})\n"
        assert not out.exists()

    @pytest.mark.parametrize("content,message", [
        ("corpus,mode\nsyn,\n", "2: missing column 'target_lang'"),
        (",".join(CSV_COLUMNS) + "\nsyn,,,direct,0.1,slu_f1,high,,1,\n",
         "2: malformed row (could not convert string to float: 'high')"),
        (",".join(CSV_COLUMNS) + "\nsyn,,,direct,0.1,slu_f1,0.5,,1,\nsyn,,,direct,x,slu_f1,"
         "0.5,,1,\n", "3: malformed row (could not convert string to float: 'x')"),
        (",".join(CSV_COLUMNS) + "\nsyn,,,direct,0.1,slu_f1,0.5,,one,\n",
         "2: malformed row (invalid literal for int() with base 10: 'one')"),
    ], ids=["missing_column", "mean_not_a_number", "level_not_a_number", "n_not_an_int"])
    def test_malformed_aggregate_csv_exit_1(self, tmp_path, capsys, content, message):
        agg = tmp_path / "agg.csv"
        agg.write_text(content)
        assert main(["report", "--agg", str(agg), "--style", "monolingual",
                     "--out-prefix", str(tmp_path / "table")]) == 1
        assert capsys.readouterr().err == f"error: {agg}:{message}\n"
        assert not (tmp_path / "table.md").exists()

    def test_empty_predictions_exit_1(self, syn_path, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["evaluate", "--gold", str(syn_path), "--pred", str(empty),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "empty record list" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "{not json",
        json.dumps({"utt_id": "x"}),
        json.dumps({"pred_raw": ""}),
        json.dumps(["x", ""]),
    ], ids=["not_json", "no_pred_raw", "no_utt_id", "array"])
    def test_bad_prediction_line_exit_1(self, syn_path, tmp_path, capsys, line):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"utt_id": "x", "pred_raw": ""}) + "\n\n" + line + "\n")
        code = main(["evaluate", "--gold", str(syn_path), "--pred", str(preds),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {preds}:3: ")

    def test_non_utf8_predictions_exit_1(self, syn_path, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_bytes(b"\xff\xfe" + json.dumps({"utt_id": "x", "pred_raw": ""}).encode())
        code = main(["evaluate", "--gold", str(syn_path), "--pred", str(preds),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {preds}:1: not UTF-8 text")

    @pytest.mark.parametrize("filler,exit_code", [("seven am", 0), ("seven|am", 1)],
                             ids=["good", "delimiter"])
    def test_every_gold_record_validated(self, tmp_path, capsys, filler, exit_code):
        # Only u1 is scored; u3 repeats u1's label except for its filler.
        gold = tmp_path / "gold.jsonl"
        rows = [{"id": f"u{i}", "lang": "en", "split": "test", "text": "wake me at seven am",
                 "scenario": "alarm", "action": "set",
                 "entities": [{"type": "time", "filler": "seven am"}]} for i in (1, 2, 3)]
        rows[2]["entities"] = [{"type": "time", "filler": filler}]
        gold.write_text("".join(json.dumps(row) + "\n" for row in rows))
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"utt_id": "u1", "pred_raw": "alarm|set"}) + "\n")
        assert main(["evaluate", "--gold", str(gold), "--pred", str(preds),
                     "--out", str(tmp_path / "r.json")]) == exit_code
        if exit_code:
            assert capsys.readouterr().err.startswith(f"error: {gold}:3: record 'u3': gold label")

    @pytest.mark.parametrize("change,message", [
        ({"id": "u1"}, "duplicate record id 'u1'"),
        ({"lang": "de"}, "record 'u3': lang 'de' != corpus lang 'en'"),
    ], ids=["duplicate_id", "foreign_lang"])
    def test_gold_id_or_lang_fault_exit_1_at_its_line(self, tmp_path, capsys, change,
                                                     message):
        gold = tmp_path / "gold.jsonl"
        rows = [{"id": f"u{i}", "lang": "en", "split": "test", "text": "wake me up",
                 "scenario": "alarm", "action": "set", "entities": []} for i in (1, 2, 3, 4)]
        rows[2].update(change)
        gold.write_text("".join(json.dumps(row) + "\n" for row in rows))
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"utt_id": "u1", "pred_raw": "alarm|set"}) + "\n")
        assert main(["evaluate", "--gold", str(gold), "--pred", str(preds),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == f"error: {gold}:3: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_prediction_for_unknown_id_exit_1(self, syn_path, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"utt_id": "nope", "pred_raw": "alarm|set"}) + "\n")
        assert main(["evaluate", "--gold", str(syn_path), "--pred", str(preds),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == "error: prediction for unknown utterance 'nope'\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("ids,message", [
        (["u1", "u2", "u1"], "duplicate utterance id 'u1'"),
        (["u1", "u2", "u2", "u1"], "duplicate utterance id 'u2'"),
        (["nope", "u1", "u2", "u1"], "prediction for unknown utterance 'nope'"),
        (["u1", "u1", "nope"], "prediction for unknown utterance 'nope'"),
    ], ids=["repeat", "first_repeat", "unknown_first", "unknown_after"])
    def test_repeated_prediction_id_exit_1(self, tmp_path, capsys, ids, message):
        # A repeated id is reported after the gold read, once every id is known.
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(json.dumps({
            "id": f"u{i}", "lang": "en", "split": "test", "text": "wake me up",
            "scenario": "alarm", "action": "set", "entities": []}) + "\n" for i in (1, 2, 3)))
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps({"utt_id": utt_id, "pred_raw": "alarm|set"}) + "\n"
                                 for utt_id in ids))
        assert main(["evaluate", "--gold", str(gold), "--pred", str(preds),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_bad_predictions_reported_before_bad_gold(self, tmp_path, capsys):
        # The predictions are read first, so their fault is the one reported.
        gold = tmp_path / "gold.jsonl"
        gold.write_text("".join(json.dumps({
            "id": "u1", "lang": "en", "split": "test", "text": "wake me up",
            "scenario": "alarm", "action": "set", "entities": []}) + "\n" for _ in range(2)))
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"utt_id": "u1", "pred_raw": "alarm|set"}) + "\n"
                         + json.dumps({"utt_id": "u1"}) + "\n")
        assert main(["evaluate", "--gold", str(gold), "--pred", str(preds),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {preds}:2: prediction row needs a string 'utt_id' and a 'pred_raw'\n")
        preds.write_text(json.dumps({"utt_id": "u1", "pred_raw": "alarm|set"}) + "\n")
        assert main(["evaluate", "--gold", str(gold), "--pred", str(preds),
                     "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == f"error: {gold}:2: duplicate record id 'u1'\n"

    @pytest.mark.parametrize("content", [
        "{not json", json.dumps({"kind": "model_state"}), json.dumps([1]),
    ], ids=["not_json", "missing_field", "array"])
    def test_bad_model_file_exit_1(self, syn_path, tmp_path, capsys, content):
        model = tmp_path / "model.json"
        model.write_text(content)
        code = main(["predict", "--model", str(model), "--corpus", str(syn_path),
                     "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("content", ["{not json", json.dumps([1]), *[
        json.dumps({"corpora": {"a": "a.jsonl"}, "seeds": [1], **fields}) for fields in (
            {"crosslingual": {"targets": ["a"], "modes": ["T"]}},
            {"crosslingual": ["a"]},
            {"corpora": ["a.jsonl"]},
            {"epochs": "x"},
        )]], ids=["not_json", "array", "crosslingual_no_source", "crosslingual_array",
                  "corpora_array", "epochs_string"])
    def test_bad_manifest_file_exit_1(self, tmp_path, capsys, content):
        manifest = tmp_path / "m.json"
        manifest.write_text(content)
        code = main(["grid", "--config", str(manifest), "--out", str(tmp_path / "runs")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("section,value", [
        ("sim", {"substitution_rate": "x"}),
        ("sim", {"seed": 3}),
        ("sim", {"substitution_rate": 2}),
        ("recipe", {"batch_size": "8"}),
        ("recipe", {"batch_size": 2.5}),
        ("recipe", {"phase2_peak_lr": -1}),
        ("recipe", {"warmup": 0.1}),
    ], ids=["sim_string", "sim_seed", "sim_out_of_range", "batch_size_string",
            "batch_size_float", "phase2_peak_lr_negative", "recipe_unknown_field"])
    def test_bad_recipe_or_sim_exit_1_before_any_cell(self, syn_path, tmp_path, capsys,
                                                      section, value):
        manifest = manifest_to_dict(mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,)))
        manifest[section] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "runs"
        assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert next(iter(value)) in err
        if section == "sim":
            assert "manifest section 'sim'" in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("seeds", [1, 1.5], "seed 1.5 is not an integer"),
        ("seeds", [True], "seed True is not an integer"),
        ("epochs", 2.9, "epochs must be an integer >= 1 (got 2.9)"),
        ("epochs", "5", "epochs must be an integer >= 1 (got '5')"),
        ("speech_levels", [True], "speech level True is not a number"),
        ("fewshot_pairs", 7.8, "fewshot_pairs must be an integer (got 7.8)"),
    ], ids=["fractional_seed", "bool_seed", "fractional_epochs", "string_epochs",
            "bool_level", "fractional_fewshot_pairs"])
    def test_non_integer_manifest_number_exit_1_before_any_cell(self, syn_path, tmp_path,
                                                                 capsys, field, value,
                                                                 message):
        manifest = manifest_to_dict(mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,)))
        if field == "fewshot_pairs":
            manifest["crosslingual"] = {"source": "syn", "targets": [], "modes": ["T"],
                                        field: value}
        else:
            manifest[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "runs"
        assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("schemes", []),
        ("speech_levels", []),
        ("crosslingual", {"source": "syn", "targets": [], "modes": []}),
    ], ids=["no_scheme", "no_speech_level", "no_mode"])
    def test_manifest_with_no_cell_exit_1(self, syn_path, tmp_path, capsys, field, value):
        manifest = manifest_to_dict(mini_manifest(syn_path, schemes=("direct",)))
        manifest[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "runs"
        assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: manifest enumerates no cell (check its schemes, speech levels and "
            "cross-lingual modes)\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["schemes", "speech_levels", "seeds", "targets",
                                       "modes", "massive"])
    def test_list_field_that_is_not_an_array_exit_1_before_any_cell(
            self, syn_path, tmp_path, capsys, field):
        # tuple("de") would read a string as the list of its characters.
        manifest = manifest_to_dict(mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,)))
        manifest["crosslingual"] = {"source": "syn", "targets": [], "modes": ["T"]}
        xl = field in ("targets", "modes", "massive")
        (manifest["crosslingual"] if xl else manifest)[field] = "de"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "runs"
        assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: manifest field '{field}' is not an array (got 'de')\n")
        assert not out.exists()

    @pytest.mark.parametrize("langs,xl,message", [
        ({"fr": "fr", "de": "fr"}, {"targets": ["de"], "modes": ["T"]},
         "source/target languages must be distinct (got ['fr', 'fr'])"),
        ({"fr": "fr", "de": "de", "ko": "de"}, {"targets": ["de", "ko"], "modes": ["T"]},
         "source/target languages must be distinct (got ['fr', 'de', 'de'])"),
        ({"fr": "fr", "de": "de", "de_text": "fr"},
         {"targets": ["de"], "modes": ["zero_shot", "T_M"], "massive": ["de_text"]},
         "mode 'T_M': no text-only corpus for target lang 'de'"),
        ({"fr": "fr", "de": "de"}, {"targets": ["de"], "modes": ["no_source_T_S_M"]},
         "mode 'no_source_T_S_M': no text-only corpus for target lang 'de'"),
    ], ids=["target_in_source_lang", "targets_in_one_lang", "massive_in_wrong_lang",
            "no_massive"])
    def test_crosslingual_languages_checked_once_before_any_cell(
            self, tmp_path, capsys, langs, xl, message):
        corpora = {}
        for seed, (name, lang) in enumerate(langs.items()):
            corpora[name] = str(tmp_path / f"{name}.jsonl")
            save_corpus(make_synthetic_corpus(60, seed, lang=lang), corpora[name])
        manifest = {"corpora": corpora, "schemes": ["text_only", "curriculum"],
                    "speech_levels": [0.5], "seeds": [1], "epochs": 1,
                    "crosslingual": {"source": "fr", "fewshot_pairs": 10, **xl}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "runs"
        assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_crosslingual_missing_corpus_exit_1_before_any_cell(self, tmp_path, capsys):
        # The language checks read every corpus first: a missing one is one error.
        save_corpus(make_synthetic_corpus(60, 0, lang="fr"), tmp_path / "fr.jsonl")
        absent = tmp_path / "absent.jsonl"
        manifest = {"corpora": {"fr": str(tmp_path / "fr.jsonl"), "de": str(absent)},
                    "schemes": ["text_only"], "speech_levels": [0.5], "seeds": [1],
                    "epochs": 1, "crosslingual": {"source": "fr", "targets": ["de"],
                                                  "modes": ["zero_shot", "T"]}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "runs"
        assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{absent}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("corpora", {"x": 5}, "corpus 'x' path is not a non-empty string (5)"),
        ("corpora", {"x": ""}, "corpus 'x' path is not a non-empty string ('')"),
        ("crosslingual", {}, "manifest missing field 'source'"),
        ("crosslingual", [], "manifest has a malformed field"),
        ("crosslingual", {"source": "syn", "targets": [], "modes": ["zero_shot", "T"]},
         "cross-lingual section needs at least one target"),
        ("crosslingual", {"source": "syn", "targets": [], "modes": ["T"], "fewshot_pair": 3},
         "manifest section 'crosslingual' has unknown field 'fewshot_pair'"),
        ("epoch", 1, "manifest has unknown field 'epoch'"),
        ("speech_level", [0.02], "manifest has unknown field 'speech_level'"),
        ("kind", "model_state", "not an experiment manifest: kind='model_state'"),
        ("manifest_version", 2, "unsupported manifest version 2"),
        ("corpora", {}, "manifest needs at least one corpus"),
        ("seeds", [], "manifest needs at least one seed"),
        ("recipe", {"profile": "huge"}, "unknown recipe profile 'huge'"),
        ("recipe", [], "manifest section 'recipe' is not an object"),
        ("recipe", [["peak_lr", 0.7]], "manifest section 'recipe' is not an object"),
    ], ids=["corpus_path_number", "corpus_path_empty", "crosslingual_empty_object",
            "crosslingual_empty_array", "crosslingual_no_target",
            "crosslingual_unknown_field", "unknown_field", "misspelt_list_field",
            "other_kind", "other_version", "no_corpus", "no_seed", "unknown_profile",
            "recipe_empty_array", "recipe_array_of_pairs"])
    def test_bad_corpus_path_or_crosslingual_section_exit_1_before_any_cell(
            self, syn_path, tmp_path, capsys, field, value, message):
        manifest = manifest_to_dict(mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,)))
        manifest[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "runs"
        assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("xl,name,roles", [
        ({"targets": ["de", "ko"], "massive": ["de"]}, "de", "target and again as massive"),
        ({"targets": ["fr", "de"]}, "fr", "source and again as target"),
        ({"targets": ["de", "de"]}, "de", "target and again as target"),
        ({"targets": ["de"], "massive": ["fr"]}, "fr", "source and again as massive"),
        ({"targets": ["de"], "massive": ["ko", "ko"]}, "ko", "massive and again as massive"),
    ], ids=["massive_names_target", "source_is_target", "target_twice",
            "massive_names_source", "massive_twice"])
    def test_crosslingual_corpus_in_two_roles_exit_1_before_any_cell(
            self, tmp_path, capsys, xl, name, roles):
        # Each of these manifests would fail cells at run time, not once at load.
        corpora = {}
        for seed, lang in enumerate(("fr", "de", "ko")):
            corpora[lang] = str(tmp_path / f"{lang}.jsonl")
            save_corpus(make_synthetic_corpus(60, seed, lang=lang), corpora[lang])
        manifest = {"corpora": corpora, "schemes": ["text_only", "curriculum"],
                    "speech_levels": [0.5], "seeds": [1], "epochs": 1,
                    "crosslingual": {"source": "fr", "modes": ["zero_shot", "T_S_M"],
                                     "fewshot_pairs": 10, **xl}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "runs"
        assert main(["grid", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cross-lingual corpus {name!r} is listed as {roles}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "export-manifest"])
    @pytest.mark.parametrize("edit,message", [
        (lambda obj: obj["text_item_ids"].append(obj["text_item_ids"][0]),
         ": text ids contain duplicates"),
        (lambda obj: obj["permutation"].append(obj["permutation"][0]),
         ": speech ordering contains duplicates"),
        (lambda obj: obj.update(permutation=obj["permutation"][:1]),
         "exceeds available speech ordering (1)"),
        (lambda obj: obj.update(epochs=[]) or obj.pop("text_item_ids"),
         "plan missing field 'text_item_ids'"),
    ], ids=["repeated_text_id", "repeated_speech_id", "budget_over_permutation",
            "earlier_layout"])
    def test_plan_file_breaking_the_scheduler_rules_exit_1(self, syn_path, tmp_path, capsys,
                                                           command, edit, message):
        plan = tmp_path / "plan.json"
        assert main(["plan", "--scheme", "direct", "--p", "0.5", "--epochs", "2",
                     "--seed", "1", "--corpus", str(syn_path), "--out", str(plan)]) == 0
        obj = json.loads(plan.read_text())
        edit(obj)
        plan.write_text(json.dumps(obj))
        capsys.readouterr()
        source = (["--corpus", str(syn_path)] if command == "train"
                  else ["--corpus-ref", str(syn_path)])
        out = tmp_path / "out.json"
        assert main([command, "--plan", str(plan), *source, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {plan}: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "export-manifest"])
    @pytest.mark.parametrize("field,value,message", [
        *((field, value, f"{field} must be an integer (got {value!r})")
          for field in ("seed", "epochs", "n_speech") for value in (4.5, True, "5")),
        ("p", True, "speech proportion must be a number (got True)"),
    ], ids=[f"{field}_{kind}" for field in ("seed", "epochs", "n_speech")
            for kind in ("fractional", "bool", "string")] + ["p_bool"])
    def test_plan_config_number_of_wrong_type_exit_1(self, syn_path, tmp_path, capsys,
                                                     command, field, value, message):
        plan = tmp_path / "plan.json"
        assert main(["plan", "--scheme", "direct", "--p", "0.5", "--epochs", "2",
                     "--seed", "4", "--corpus", str(syn_path), "--out", str(plan)]) == 0
        obj = json.loads(plan.read_text())
        obj["config"][field] = value
        plan.write_text(json.dumps(obj))
        capsys.readouterr()
        source = (["--corpus", str(syn_path)] if command == "train"
                  else ["--corpus-ref", str(syn_path)])
        out = tmp_path / "out.json"
        assert main([command, "--plan", str(plan), *source, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {plan}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "export-manifest"])
    @pytest.mark.parametrize("content", [
        "{not json", json.dumps([1]), json.dumps({}),
        json.dumps({"config": [1], "epochs": [], "permutation": []}),
    ], ids=["not_json", "array", "missing_field", "config_array"])
    def test_bad_plan_file_exit_1(self, syn_path, tmp_path, capsys, command, content):
        plan = tmp_path / "plan.json"
        plan.write_text(content)
        source = (["--corpus", str(syn_path)] if command == "train"
                  else ["--corpus-ref", str(syn_path)])
        code = main([command, "--plan", str(plan), *source,
                     "--out", str(tmp_path / "out.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "plan" in err

    @pytest.mark.parametrize("sim", [{"rate": 1}, [1], "fast", {"seed": "7"}],
                             ids=["unknown_field", "array", "string", "not_a_number"])
    def test_bad_sim_in_model_file_exit_1(self, syn_path, tmp_path, capsys, sim):
        model = tmp_path / "model.json"
        assert main(["plan", "--scheme", "direct", "--p", "0.1", "--epochs", "1",
                     "--seed", "1", "--corpus", str(syn_path),
                     "--out", str(tmp_path / "plan.json")]) == 0
        assert main(["train", "--plan", str(tmp_path / "plan.json"), "--corpus", str(syn_path),
                     "--out", str(model)]) == 0
        obj = json.loads(model.read_text())
        obj["sim"] = sim
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--corpus", str(syn_path),
                     "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: model field 'sim")
        if isinstance(sim, dict):
            assert next(iter(sim)) in err

    def test_predict_and_evaluate_reproduce_grid_cells(self, syn_path, tmp_path):
        runs = tmp_path / "runs"
        assert run_grid(mini_manifest(syn_path, seeds=(1,), speech_levels=(0.1,)), runs).ok
        cells = sorted(p for p in runs.iterdir() if p.is_dir())
        assert len(cells) == 3
        for cell in cells:
            assert main(["predict", "--model", str(cell / "model.json"),
                         "--corpus", str(syn_path), "--split", "test",
                         "--out", str(tmp_path / "preds.jsonl")]) == 0
            assert (tmp_path / "preds.jsonl").read_bytes() == (cell / "preds.jsonl").read_bytes()
            assert main(["evaluate", "--gold", str(syn_path),
                         "--pred", str(cell / "preds.jsonl"),
                         "--out", str(tmp_path / "report.json")]) == 0
            assert (tmp_path / "report.json").read_bytes() == (cell / "report.json").read_bytes()

    def test_predict_replays_grid_cells_under_their_sim(self, syn_path, tmp_path):
        # The model file says how speech was simulated, so a non-default sim
        # section needs no predict option to reproduce the cell.
        manifest = manifest_to_dict(mini_manifest(syn_path, speech_levels=(0.1,)))
        manifest["sim"] = {"substitution_rate": 0.3}
        manifest_path = tmp_path / "m.json"
        manifest_path.write_text(json.dumps(manifest))
        runs = tmp_path / "runs"
        assert main(["grid", "--config", str(manifest_path), "--out", str(runs)]) == 0
        cells = sorted(p for p in runs.iterdir() if p.is_dir())
        assert len(cells) == 6
        for cell in cells:
            seed = json.loads((cell / "meta.json").read_text())["seed"]
            assert json.loads((cell / "model.json").read_text())["sim"] == {
                "substitution_rate": 0.3, "deletion_rate": 0.1,
                "seed": derive_seed(seed, "speech-sim")}
            assert main(["predict", "--model", str(cell / "model.json"),
                         "--corpus", str(syn_path), "--split", "test",
                         "--out", str(tmp_path / "preds.jsonl")]) == 0
            assert (tmp_path / "preds.jsonl").read_bytes() == \
                (cell / "preds.jsonl").read_bytes(), cell.name

    def test_model_without_sim_exit_1(self, syn_path, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert run_grid(mini_manifest(syn_path, schemes=("direct",), speech_levels=(0.1,),
                                      seeds=(1,)), runs).ok
        obj = json.loads((runs / "syn__direct__p0.1__s1" / "model.json").read_text())
        del obj["sim"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(obj))
        code = main(["predict", "--model", str(model), "--corpus", str(syn_path),
                     "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {model}: model missing field 'sim'\n"

    def test_predict_takes_no_sim_options(self, syn_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--sim-seed", "1", "--model", str(tmp_path / "model.json"),
                  "--corpus", str(syn_path), "--out", str(tmp_path / "preds.jsonl")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("field,value", [
        ("classes", 5), ("filler_lexicon", []), ("weights", "@@"),
        # Features must be strictly increasing ints in the hashed space, one per
        # weight row, and classes strictly increasing pairs of strings: predict
        # looks features up by binary search and breaks ties by class order.
        ("features", lambda f: [str(x) for x in f]),
        ("features", lambda f: [float(x) for x in f]),
        ("features", lambda f: [True] + f[1:]),
        ("features", lambda f: f[:1] + f[:-1]),
        ("features", lambda f: f[::-1]),
        ("features", lambda f: [-1] + f[1:]),
        ("features", lambda f: f[:-1] + [2 ** 18]),
        ("features", lambda f: f[:-1]),
        ("features", lambda f: {str(x): x for x in f}),
        ("classes", lambda c: c[::-1]),
        ("classes", lambda c: c[:1] + c[:-1]),
        ("classes", lambda c: [[s, a, "x"] for s, a in c]),
        ("classes", lambda c: [[s, 1] for s, _ in c]),
        ("classes", lambda c: ["".join(pair) for pair in c]),
        ("bias", None),
        # Lexicon counts are integers >= 1 (predict ranks entity types by them),
        # and featureless rows are labelled with prior_intent, one of the classes.
        ("filler_lexicon", lambda lex: {f: {t: "y" for t in c} for f, c in lex.items()}),
        ("filler_lexicon", lambda lex: {f: {t: True for t in c} for f, c in lex.items()}),
        ("filler_lexicon", lambda lex: {f: {t: 0 for t in c} for f, c in lex.items()}),
        ("filler_lexicon", lambda lex: {f: {} for f in lex}),
        ("filler_lexicon", lambda lex: {f: list(c) for f, c in lex.items()}),
        ("prior_intent", ["nope", "nope"]),
        ("prior_intent", None),
        ("prior_intent", "ab"),
    ], ids=["classes_int", "lexicon_array", "weights_not_base64",
            "features_strings", "features_floats", "features_bool", "features_duplicated",
            "features_reversed", "features_negative", "features_outside_space",
            "features_fewer_than_rows", "features_object",
            "classes_reversed", "classes_duplicated", "classes_triples",
            "classes_int_action", "classes_strings", "bias_null",
            "lexicon_count_string", "lexicon_count_bool", "lexicon_count_zero",
            "lexicon_counts_empty", "lexicon_counts_array",
            "prior_intent_unknown", "prior_intent_null", "prior_intent_string"])
    def test_wrong_typed_model_field_exit_1(self, syn_path, tmp_path, capsys, field, value):
        model = tmp_path / "model.json"
        assert main(["plan", "--scheme", "direct", "--p", "0.1", "--epochs", "1",
                     "--seed", "1", "--corpus", str(syn_path),
                     "--out", str(tmp_path / "plan.json")]) == 0
        assert main(["train", "--plan", str(tmp_path / "plan.json"), "--corpus", str(syn_path),
                     "--out", str(model)]) == 0
        obj = json.loads(model.read_text())
        assert len(obj["features"]) > 2 and len(obj["classes"]) > 2
        obj[field] = value(obj[field]) if callable(value) else value
        model.write_text(json.dumps(obj))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--corpus", str(syn_path),
                     "--out", str(tmp_path / "preds.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: model has a malformed field (") and \
            err.count("\n") == 1
        assert not (tmp_path / "preds.jsonl").exists()

    def test_data_error_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = main(["plan", "--scheme", "direct", "--p", "0.1", "--seed", "1",
                     "--corpus", str(missing), "--out", str(tmp_path / "p.json")])
        assert code == 1

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--in", "x"])  # missing required args
        assert exc.value.code == 2
