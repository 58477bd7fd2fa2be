"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, inputs, run, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    GridMono,
    GridSize,
    GridXl,
    ScoreExternal,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SLURP = inputs.SlurpSize(train=(30, 60), devel=(10, 20), test=(40, 90))


def tiny(name: str, seed: int = 3):
    if name == "grid_mono":
        return GridMono(seed, GridSize(corpus=200, levels=(0.1, 1.0), seeds=(1, 2), epochs=1))
    if name == "grid_xl":
        return GridXl(seed, GridSize(corpus=300, levels=(1.0,), seeds=(1,), epochs=1))
    return ScoreExternal(seed, TINY_SLURP)


@pytest.fixture
def bench_work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path / "work"


# --------------------------------------------------------------------------
# The BENCHMARK.json contract and the metrics it names


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_named_metric_appears_with_its_unit(name, traced, bench_work):
    out = run.run_workload(tiny(name), 0.0, traced, SPEC)
    result = out["result"]
    assert out["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not traced:
            assert got["value"] > 0
    json.dumps(result)  # printed as the last line of output
    if traced:
        trace = json.loads((bench_work / "traces" / f"{name}-seed3.json").read_text())
        assert trace["unpatched"] == []
        assert {"id", "name", "start", "end", "parent", "cell"} <= set(trace["spans"][0])
    assert not list(bench_work.glob(f"{name}-*"))  # work dirs are removed


def test_traced_grid_reports_layers_and_reuse(bench_work):
    metrics = run.run_workload(tiny("grid_mono"), 0.0, True, SPEC)["result"]["metrics"]
    value = {k: v["value"] for k, v in metrics.items()}
    # 2 levels x 2 schemes + text_only, 2 seeds; extend adds seed 3.
    assert value["grid.cells_run"] + value["grid.cells_skipped"] == 10 + 15
    assert value["grid.reuse_base"] == 10
    assert value["scheduler.plans"] == value["trainer.cells"] == value["grid.cells_run"]
    assert value["trainer.train_s"] > 0 and value["grid.self_s"] > 0
    assert value["crosslingual.records"] == 0


def test_traced_score_external_reaches_large_groups(bench_work):
    size = inputs.SlurpSize(train=(20, 40), devel=(10, 20), test=(400, 900))
    out = run.run_workload(ScoreExternal(5, size), 0.0, True, SPEC)
    value = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert value["metrics.utts"] == 900
    assert value["corpus.ingest_records"] == size.canonical_records
    assert 0 < value["metrics.groups_over_5"] < 0.05
    assert 0.05 < value["labelcodec.unparseable_ratio"] < 0.2
    assert value["trainer.train_s"] == 0


def test_instrument_restores_the_program():
    import slumix.grid

    before = slumix.grid.train
    with tracing.instrument(tracing.Tracer()):
        assert slumix.grid.train is not before
    assert slumix.grid.train is before


def test_self_time_and_tail():
    tracer = tracing.Tracer()
    tracer.start("a")
    tracer.start("b")
    tracer.finish()
    tracer.finish()
    tracer.spans[0].start, tracer.spans[0].end = 0.0, 3.0
    tracer.spans[1].start, tracer.spans[1].end = 1.0, 2.0
    assert tracer.self_times() == [2.0, 1.0]
    assert tracer.spans[1].parent == 0
    value, pct = tracing._tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90)  # ten samples above the 90th percentile
    assert tracing._tail([1.0, 5.0]) == (5.0, 100)


# --------------------------------------------------------------------------
# Each output check fails on a deliberately corrupted output


@pytest.fixture(scope="module")
def mono_pass(tmp_path_factory):
    base = tmp_path_factory.mktemp("mono")
    workload = tiny("grid_mono")
    (base / "inputs").mkdir()
    workload.setup(base / "inputs")
    result = workload.run(base / "inputs", base / "out", tracing.NullTracer())
    assert result.problems == []
    return base / "out" / "runs"


@pytest.fixture
def runs(mono_pass, tmp_path):
    shutil.copytree(mono_pass, tmp_path / "runs")
    return tmp_path / "runs"


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _edit_csv(path: Path, column: str, value) -> None:
    rows = list(csv.DictReader(path.open()))
    rows[0][column] = value
    with path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _mono_checks(runs: Path) -> list[str]:
    return tiny("grid_mono").check_cells(runs)


def test_grid_checks_pass_on_intact_output(runs):
    assert _mono_checks(runs) == []
    assert checks.check_seed_counts(runs / "aggregate.csv", 3) == []


def test_train_count_check_catches_edited_log(runs):
    meta = next(runs.glob("*direct*/meta.json"))
    _edit_json(meta, lambda m: m["train_log"][0].update(text_items=0))
    assert any("train_log" in p for p in checks.check_train_counts(checks.cell_metas(runs)))


def test_exposure_check_catches_unequal_speech(runs):
    meta = next(runs.glob("*direct*/meta.json"))
    _edit_json(meta, lambda m: m["plan_totals"].update(total_speech=-1))
    assert any("exposure" in p for p in checks.check_equal_exposure(checks.cell_metas(runs)))


def test_seed_count_check_catches_edited_n(runs):
    _edit_csv(runs / "aggregate.csv", "n", "2")
    assert checks.check_seed_counts(runs / "aggregate.csv", 3)


def test_mean_check_catches_edited_aggregate_mean(runs):
    _edit_csv(runs / "aggregate.csv", "mean", "0.123")
    assert any("aggregate mean" in p for p in _mono_checks(runs))


def test_mean_check_catches_dropped_cell(runs):
    shutil.rmtree(next(runs.glob("*curriculum*")))
    assert any("cell mean" in p or "exposure" in p for p in _mono_checks(runs))


def test_canary_check_catches_edited_reference(tmp_path, monkeypatch):
    doc = json.loads(checks.CANARY_PATH.read_text())
    assert checks.check_canary(tmp_path / "ok") == []
    key = sorted(doc["means"])[0]
    doc["means"][key] += 1e-6
    edited = tmp_path / "canary.json"
    edited.write_text(json.dumps(doc))
    monkeypatch.setattr(checks, "CANARY_PATH", edited)
    assert any(key in p for p in checks.check_canary(tmp_path / "bad"))


def test_target_check_catches_missing_target(tmp_path):
    workload = tiny("grid_xl")
    (tmp_path / "inputs").mkdir()
    workload.setup(tmp_path / "inputs")
    result = workload.run(tmp_path / "inputs", tmp_path / "out", tracing.NullTracer())
    assert result.problems == []
    runs = tmp_path / "out" / "runs"
    report = next(runs.glob("xl__T_S__*/report.json"))
    _edit_json(report, lambda r: r["per_target"].pop("ko"))
    assert any("ko" in p for p in checks.check_targets(runs, ("de", "ko")))


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    base = tmp_path_factory.mktemp("score")
    workload = tiny("score_external")
    (base / "inputs").mkdir()
    workload.setup(base / "inputs")
    workload.prepare_checks(base / "checks")
    result = workload.run(base / "inputs", base / "out", tracing.NullTracer())
    assert result.problems == []
    return workload, base / "out"


def test_report_check_catches_edited_score(scored, tmp_path):
    workload, out = scored
    report = tmp_path / "report.json"
    shutil.copy(out / "report.json", report)
    assert checks.check_report(report, workload.expected) == []
    _edit_json(report, lambda r: r.update(slu_f1=r["slu_f1"] + 1e-6))
    assert any("slu_f1" in p for p in checks.check_report(report, workload.expected))
    _edit_json(report, lambda r: r["counts"].update(tp=r["counts"]["tp"] - 1))
    assert any("counts.tp" in p for p in checks.check_report(report, workload.expected))


def test_record_count_check_catches_dropped_record(scored, tmp_path):
    _, out = scored
    lines = (out / "canonical.jsonl").read_text().splitlines()
    assert checks.check_record_count(out / "canonical.jsonl", TINY_SLURP.canonical_records) == []
    (tmp_path / "c.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_record_count(tmp_path / "c.jsonl", TINY_SLURP.canonical_records)


def test_setup_determinism_check_catches_unseeded_inputs(tmp_path):
    class Unseeded:
        def setup(self, directory):
            (directory / "x").write_text(directory.name)  # differs per set-up

    _, _, problems = run._set_up(Unseeded(), tmp_path)
    assert problems


def test_same_seed_same_inputs(tmp_path):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        tiny("score_external", seed=9).setup(tmp_path / d)
    assert run._digest(tmp_path / "a") == run._digest(tmp_path / "b")


def test_fails_without_a_checkout(tmp_path):
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid_mono",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
