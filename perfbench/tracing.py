"""In-memory spans for the traced run, and the per-layer metrics built from them.

A span records name, start, end, parent and cell id. Spans come from two
places: the benchmark's own calls into slumix (``Tracer.span``), and, while
``instrument`` is active, wrappers around the functions the grid and CLI
modules call in each layer. slumix itself is not modified; the wrappers are
installed on the calling module's attributes and removed afterwards.
Everything stays in memory until ``write`` at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "cell", "attrs")

    def __init__(self, name, start, parent, cell):
        self.name, self.start, self.parent, self.cell = name, start, parent, cell
        self.end = None
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.unpatched: list[str] = []

    def start(self, name: str, cell=None) -> None:
        """Open a span inside the innermost open one; it inherits its cell id."""
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent].cell
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, time.perf_counter(), parent, cell))

    def finish(self) -> Span:
        """End the innermost open span."""
        span = self.spans[self._stack.pop()]
        span.end = time.perf_counter()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        self.start(name)
        try:
            yield
        finally:
            self.finish()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children run sequentially inside their parent)."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**extra, "unpatched": self.unpatched, "spans": [
                {"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "cell": s.cell, **(s.attrs or {})}
                for i, s in enumerate(self.spans)]}, f)


class NullTracer:
    """Tracing off: the benchmark's spans cost one context-manager call."""

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


# --------------------------------------------------------------------------
# Wrappers around layer calls


def _records(args, kwargs, result):
    return {"records": len(result)}


def _plan(args, kwargs, result):
    return {"items": sum(len(e.text_item_ids) + len(e.speech_item_ids) for e in result.epochs)}


def _train(args, kwargs, result):
    log = result.train_log
    return {"scheme": args[0].config.scheme,
            "items": sum(r["text_items"] + r["speech_items"] for r in log),
            "speech_items": sum(r["speech_items"] for r in log),
            "final_loss": log[-1]["mean_loss"]}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _parsed(args, kwargs, result):
    return {"unparseable": result.unparseable}


def _evaluate(args, kwargs, result):
    spans = groups = over_5 = 0
    for r in args[0]:
        sides = []
        for label in (r.gold, r.pred):
            by_type = defaultdict(int)
            if not label.unparseable:
                by_type["scenario"] = by_type["action"] = 1
                for e in label.entities:
                    by_type[e.etype] += 1
            spans += sum(by_type.values())
            sides.append(by_type)
        for etype in sides[0].keys() & sides[1].keys():
            groups += 1
            over_5 += max(sides[0][etype], sides[1][etype]) > 5
    return {"utts": len(args[0]), "spans": spans, "groups": groups, "groups_over_5": over_5}


def _written(args, kwargs, result):
    return {"bytes": sum(p.stat().st_size for p in Path(args[0]).iterdir())}


def _cell_ran(args, kwargs, result):
    return {"ran": bool(result[1])}


def _mono_cell(args, kwargs):
    return "mono/" + "/".join(str(a) for a in args[3:7])


def _xl_cell(args, kwargs):
    return "xl/" + "/".join(str(a) for a in args[3:6])


def _load_kind(args, kwargs):
    profile = args[1] if len(args) > 1 else kwargs.get("profile", "canonical")
    return "corpus.load" if profile == "canonical" else "corpus.ingest"


# (module, attribute, span name or name function, attrs function, cell function)
WRAPPED = (
    ("slumix.grid", "load_corpus", _load_kind, _records, None),
    ("slumix.cli", "load_corpus", _load_kind, _records, None),
    ("slumix.cli", "save_corpus", "corpus.save", None, None),
    ("slumix.grid", "filter_split", "corpus.view", None, None),
    ("slumix.grid", "text_items", "corpus.view", None, None),
    ("slumix.grid", "speech_items", "corpus.view", None, None),
    ("slumix.crosslingual", "filter_split", "corpus.view", None, None),
    ("slumix.grid", "build_plan", "scheduler.plan", _plan, None),
    ("slumix.grid", "train", "trainer.train", _train, None),
    ("slumix.grid", "predict_records", "trainer.predict", _rows, None),
    ("slumix.grid", "serialize_label", "labelcodec.serialize", None, None),
    ("slumix.grid", "parse_label", "labelcodec.parse", _parsed, None),
    ("slumix.grid", "evaluate", "metrics.evaluate", _evaluate, None),
    ("slumix.grid", "aggregate", "stats.aggregate", None, None),
    ("slumix.grid", "aggregate_results", "grid.aggregate", None, None),
    ("slumix.grid", "_write_cell", "grid.write", _written, None),
    ("slumix.grid", "_run_mono_cell", "grid.cell", _cell_ran, _mono_cell),
    ("slumix.grid", "_run_xl_cell", "grid.cell", _cell_ran, _xl_cell),
    ("slumix.grid", "make_crosslingual_corpus", "crosslingual.combine", _records, None),
)


def _wrap(tracer: Tracer, fn, name, attrs, cell):
    def wrapper(*args, **kwargs):
        tracer.start(name if isinstance(name, str) else name(args, kwargs),
                     cell(args, kwargs) if cell else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.finish()
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers for the duration of the block.

    A name the program no longer has is skipped and listed in
    ``tracer.unpatched``, so its layer metrics read zero instead of the
    benchmark failing.
    """
    saved = []
    try:
        for module_name, attr, name, attrs, cell in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.unpatched.append(f"{module_name}.{attr}")
                print(f"perfbench: cannot trace {module_name}.{attr}", file=sys.stderr)
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, attrs, cell))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# --------------------------------------------------------------------------
# Per-layer metrics


def _tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples above it
    (nearest rank), and that percentile; the maximum below eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), 100
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    return ordered[rank - 1], pct


def layer_metrics(tracer: Tracer, reuse: tuple[int, int], untraced_s: float,
                  traced_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    ``reuse`` is (cells skipped in the re-run phase, cells of that phase
    whose inputs were unchanged); the median untraced and traced pass times
    give the tracing overhead.
    """
    spans = tracer.spans
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    def ratio(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    own = tracer.self_times()
    cells = [(i, s) for i, s in enumerate(spans) if s.name == "grid.cell"]
    ran = [s.duration for _, s in cells if s.attrs["ran"]]
    tail, tail_pct = _tail(ran)
    trains = by_name["trainer.train"]
    parses = by_name["labelcodec.parse"]

    m = {
        "corpus.load_s": total("corpus.load"),
        "corpus.load_records": attr_sum("corpus.load", "records"),
        "corpus.ingest_s": total("corpus.ingest"),
        "corpus.ingest_records": attr_sum("corpus.ingest", "records"),
        "corpus.save_s": total("corpus.save"),
        "corpus.view_s": total("corpus.view"),
        "corpus.view_calls": len(by_name["corpus.view"]),
        "labelcodec.parse_s": total("labelcodec.parse"),
        "labelcodec.parse_calls": len(parses),
        "labelcodec.unparseable_ratio": ratio(
            sum(s.attrs["unparseable"] for s in parses), len(parses)),
        "labelcodec.serialize_s": total("labelcodec.serialize"),
        "labelcodec.serialize_calls": len(by_name["labelcodec.serialize"]),
        "scheduler.plan_s": total("scheduler.plan"),
        "scheduler.plans": len(by_name["scheduler.plan"]),
        "scheduler.items_planned": attr_sum("scheduler.plan", "items"),
        "trainer.train_s": total("trainer.train"),
        "trainer.cells": len(trains),
        "trainer.items": attr_sum("trainer.train", "items"),
        "trainer.speech_items": attr_sum("trainer.train", "speech_items"),
        "trainer.predict_s": total("trainer.predict"),
        "trainer.final_loss": (statistics.fmean(s.attrs["final_loss"] for s in trains)
                               if trains else 0.0),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "metrics.utts": attr_sum("metrics.evaluate", "utts"),
        "metrics.spans": attr_sum("metrics.evaluate", "spans"),
        "metrics.groups": attr_sum("metrics.evaluate", "groups"),
        "stats.aggregate_s": total("stats.aggregate"),
        "stats.groups": len(by_name["stats.aggregate"]),
        "grid.cells_run": len(ran),
        "grid.cells_skipped": len(cells) - len(ran),
        "grid.reuse_ratio": ratio(reuse[0], reuse[1]),
        "grid.reuse_base": reuse[1],
        "grid.cell_s.p50": statistics.median(ran) if ran else 0.0,
        "grid.cell_s.tail": tail,
        "grid.cell_s.tail_pct": tail_pct,
        "grid.cell_s.samples": len(ran),
        "grid.self_s": sum(own[i] for i, _ in cells),
        "grid.write_s": total("grid.write"),
        "grid.bytes_written": attr_sum("grid.write", "bytes"),
        "grid.aggregate_s": total("grid.aggregate"),
        "crosslingual.combine_s": total("crosslingual.combine"),
        "crosslingual.records": attr_sum("crosslingual.combine", "records"),
        "report.render_s": total("report.render"),
        "trace.spans": len(spans),
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    m["corpus.load_records_per_s"] = ratio(m["corpus.load_records"], m["corpus.load_s"])
    m["corpus.ingest_records_per_s"] = ratio(m["corpus.ingest_records"], m["corpus.ingest_s"])
    for scheme in ("text_only", "direct", "curriculum"):
        times = [s.duration for s in trains if s.attrs["scheme"] == scheme]
        m[f"trainer.train_s.{scheme}"] = statistics.median(times) if times else 0.0
    m["trainer.items_per_s"] = ratio(m["trainer.items"], m["trainer.train_s"])
    m["metrics.utts_per_s"] = ratio(m["metrics.utts"], m["metrics.evaluate_s"])
    m["metrics.groups_over_5"] = ratio(attr_sum("metrics.evaluate", "groups_over_5"),
                                       m["metrics.groups"])
    m["trace.overhead_ratio"] = ratio(m["trace.overhead_s"], untraced_s)
    return m
