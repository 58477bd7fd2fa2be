"""Rendering of aggregated results as review-ready tables.

Three styles:

* ``monolingual``       -- mean ± half-width per (level, scheme, metric), one
                           table per corpus (or cross-lingual mode/target),
                           with a dagger on the scheme whose 95% CI beats the
                           other scheme's CI outright at that level.
* ``zeroshot_relative`` -- per-target relative SLU-F1 improvement over the
                           text-only (0% speech) baseline.
* ``fewshot``           -- SLU-F1 per (source speech level, scheme, target
                           data mode) across target languages.

Every style emits both a machine CSV and a human Markdown table. Daggers are
recomputed from the cells' means and half-widths, so rendering hand-entered
published values reproduces the published marks.
"""

from __future__ import annotations

from .errors import ConfigError
from .stats import comparison_marks, relative_improvement

REPORT_STYLES = ("monolingual", "zeroshot_relative", "fewshot")

DAGGER = "†"


def _fmt_level(level: float) -> str:
    return f"{level * 100:g}%"


def _fmt_cell(cell, dagger: bool) -> str:
    if cell.half_width is None:
        text = f"{cell.mean:.4f}"
    else:
        text = f"{cell.mean:.4f} ± {cell.half_width:.4f}"
    return f"{text} {DAGGER}" if dagger else text


def _markdown_table(header: list[str], body: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in body]
    return "\n".join(lines) + "\n"


def _csv_table(header: list[str], body: list[list[str]]) -> str:
    return "\n".join([",".join(header)] + [",".join(row) for row in body]) + "\n"


def _render_monolingual(rows) -> dict[str, str]:
    metrics = []
    for row in rows:
        if row["metric"] not in metrics:
            metrics.append(row["metric"])
    # One table per group of stats.comparison_marks: corpus, or mode and target.
    tables: dict[tuple, dict] = {}
    for row, marked in zip(rows, comparison_marks(rows)):
        group = (row.get("corpus", ""), row.get("mode", ""), row.get("target_lang", ""))
        cells = tables.setdefault(group, {}).setdefault((row["speech_level"], row["scheme"]), {})
        cells[row["metric"]] = (row["cell"], marked)

    md_parts = []
    csv_body = []
    for group in sorted(tables):
        name = "/".join(part for part in group if part)
        body = []
        for (level, scheme), cells in sorted(tables[group].items(), key=lambda kv: kv[0]):
            line = [_fmt_level(level), scheme]
            for metric in metrics:
                if metric not in cells:
                    line.append("")
                    continue
                cell, dagger = cells[metric]
                line.append(_fmt_cell(cell, dagger))
                csv_body.append([name, _fmt_level(level), scheme, metric,
                                 f"{cell.mean:.6f}",
                                 "" if cell.half_width is None else f"{cell.half_width:.6f}",
                                 str(cell.n), "yes" if dagger else ""])
            body.append(line)
        title = f"## {name}\n\n" if name else ""
        md_parts.append(title + _markdown_table(["Speech", "Scheme"] + list(metrics), body))
    return {
        "markdown": "\n".join(md_parts),
        "csv": _csv_table(["corpus", "speech", "scheme", "metric", "mean",
                           "half_width", "n", "significant"], csv_body),
    }


def _slu_rows(rows):
    return [r for r in rows if r["metric"] == "slu_f1"]


def _render_zeroshot_relative(rows) -> dict[str, str]:
    rows = _slu_rows(rows)
    targets = sorted({r["target_lang"] for r in rows})
    baselines = {}
    for row in rows:
        if row["scheme"] == "text_only" and row["speech_level"] == 0:
            baselines[row["target_lang"]] = row["cell"].mean
    missing = [t for t in targets if t not in baselines]
    if missing:
        raise ConfigError(f"missing text-only baseline cell for targets: {missing}")
    levels = sorted({r["speech_level"] for r in rows if r["scheme"] != "text_only"})
    table: dict[tuple, float] = {}
    for row in rows:
        if row["scheme"] == "text_only":
            continue
        rel = relative_improvement(baselines[row["target_lang"]], row["cell"].mean)
        table[(row["speech_level"], row["target_lang"])] = rel
    body = []
    csv_body = []
    for level in levels:
        line = [_fmt_level(level)]
        for target in targets:
            rel = table.get((level, target))
            line.append("" if rel is None else f"{rel * 100:+.1f}%")
            if rel is not None:
                csv_body.append([target, _fmt_level(level), f"{rel:.6f}"])
        body.append(line)
    return {
        "markdown": _markdown_table(["Speech"] + targets, body),
        "csv": _csv_table(["target_lang", "speech", "relative_improvement"], csv_body),
    }


def _mode_label(mode: str) -> tuple[bool, str]:
    no_source = mode.startswith("no_source_")
    base = mode[len("no_source_"):] if no_source else mode
    return no_source, base.replace("_", "+")


def _render_fewshot(rows) -> dict[str, str]:
    rows = _slu_rows(rows)
    targets = sorted({r["target_lang"] for r in rows})
    grouped: dict[tuple, dict] = {}
    for row in rows:
        no_source, label = _mode_label(row["mode"])
        key = (label, 0 if no_source else 1, row["speech_level"], row["scheme"],
               no_source)
        grouped.setdefault(key, {})[row["target_lang"]] = row["cell"]
    body = []
    csv_body = []
    for key in sorted(grouped):
        label, _, level, scheme, no_source = key
        source = "no source" if no_source else _fmt_level(level)
        line = [source, scheme if not no_source else "", label]
        for target in targets:
            cell = grouped[key].get(target)
            line.append("" if cell is None else f"{cell.mean:.4f}")
            if cell is not None:
                csv_body.append([label, source, scheme, target,
                                 f"{cell.mean:.6f}", str(cell.n)])
        body.append(line)
    return {
        "markdown": _markdown_table(["Source speech", "Scheme", "Target"] + targets, body),
        "csv": _csv_table(["target_mode", "source_speech", "scheme", "target_lang",
                           "slu_f1_mean", "n"], csv_body),
    }


def render_report(rows, style: str) -> dict[str, str]:
    """Render aggregated rows (as produced by grid aggregation or loaded from
    an aggregate CSV) into {"markdown": ..., "csv": ...}."""
    if style == "monolingual":
        return _render_monolingual(rows)
    if style == "zeroshot_relative":
        return _render_zeroshot_relative(rows)
    if style == "fewshot":
        return _render_fewshot(rows)
    raise ConfigError(f"unknown report style {style!r} (expected one of {REPORT_STYLES})")
