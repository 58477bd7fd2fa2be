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

Every style emits both a machine CSV and a human Markdown table, built
together by one pivot. Daggers are recomputed from the cells' means and
half-widths, so rendering hand-entered published values reproduces the
published marks.
"""

from __future__ import annotations

import csv
import io

from .errors import ConfigError
from .stats import comparison_marks, relative_improvement

DAGGER = "†"


def _fmt_level(level: float) -> str:
    return f"{level * 100:g}%"


def _fmt_cell(cell, dagger: bool) -> str:
    if cell.half_width is None:
        text = f"{cell.mean:.4f}"
    else:
        text = f"{cell.mean:.4f} ± {cell.half_width:.4f}"
    return f"{text} {DAGGER}" if dagger else text


def csv_text(header, rows) -> str:
    """``header`` and ``rows`` as CSV text: LF line ends, a field quoted only
    when it holds a comma, a quote or a line break."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _table(rows: dict, lead: list[str], columns) -> tuple[str, list[list[str]]]:
    """One table's Markdown, headed ``lead`` and ``columns``, and its CSV rows,
    both in sorted row order.

    ``rows`` maps each row key to the row's cells under ``lead`` and its cells
    by column, each of those its text and its CSV row. A column that a row
    lacks is an empty Markdown cell and no CSV row."""
    header = lead + list(columns)
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    csv_rows = []
    for key in sorted(rows):
        first, cells = rows[key]
        line = first + [cells[column][0] if column in cells else "" for column in columns]
        lines.append("| " + " | ".join(line) + " |")
        csv_rows += [cells[column][1] for column in columns if column in cells]
    return "\n".join(lines) + "\n", csv_rows


def _render_monolingual(rows):
    metrics = []
    for row in rows:
        if row["metric"] not in metrics:
            metrics.append(row["metric"])
    # One table per group of stats.comparison_marks: corpus, or mode and target.
    tables: dict[tuple, dict] = {}
    for row, marked in zip(rows, comparison_marks(rows)):
        group = (row.get("corpus", ""), row.get("mode", ""), row.get("target_lang", ""))
        name = "/".join(part for part in group if part)
        level, scheme, metric, cell = (row["speech_level"], row["scheme"], row["metric"],
                                       row["cell"])
        table = tables.setdefault((group, name), {})
        _, cells = table.setdefault((level, scheme), ([_fmt_level(level), scheme], {}))
        cells[metric] = (_fmt_cell(cell, marked), [
            name, _fmt_level(level), scheme, metric, f"{cell.mean:.6f}",
            "" if cell.half_width is None else f"{cell.half_width:.6f}",
            str(cell.n), "yes" if marked else ""])

    md_parts = []
    csv_rows = []
    for group, name in sorted(tables):
        markdown, table_rows = _table(tables[group, name], ["Speech", "Scheme"], metrics)
        csv_rows += table_rows
        title = f"## {name}\n\n" if name else ""
        md_parts.append(title + markdown)
    header = ["corpus", "speech", "scheme", "metric", "mean", "half_width", "n", "significant"]
    return "\n".join(md_parts), header, csv_rows


def _slu_rows(rows):
    return [r for r in rows if r["metric"] == "slu_f1"]


def _render_zeroshot_relative(rows):
    rows = _slu_rows(rows)
    targets = sorted({r["target_lang"] for r in rows})
    baselines = {}
    for row in rows:
        if row["scheme"] == "text_only" and row["speech_level"] == 0:
            baselines[row["target_lang"]] = row["cell"].mean
    missing = [t for t in targets if t not in baselines]
    if missing:
        raise ConfigError(f"missing text-only baseline cell for targets: {missing}")
    table: dict[float, tuple] = {}
    for row in rows:
        if row["scheme"] == "text_only":
            continue
        level, target = row["speech_level"], row["target_lang"]
        rel = relative_improvement(baselines[target], row["cell"].mean)
        _, cells = table.setdefault(level, ([_fmt_level(level)], {}))
        cells[target] = (f"{rel * 100:+.1f}%", [target, _fmt_level(level), f"{rel:.6f}"])
    markdown, csv_rows = _table(table, ["Speech"], targets)
    return markdown, ["target_lang", "speech", "relative_improvement"], csv_rows


def _mode_label(mode: str) -> tuple[bool, str]:
    no_source = mode.startswith("no_source_")
    base = mode[len("no_source_"):] if no_source else mode
    return no_source, base.replace("_", "+")


def _render_fewshot(rows):
    rows = _slu_rows(rows)
    targets = sorted({r["target_lang"] for r in rows})
    table: dict[tuple, tuple] = {}
    for row in rows:
        no_source, label = _mode_label(row["mode"])
        level, scheme, target, cell = (row["speech_level"], row["scheme"], row["target_lang"],
                                       row["cell"])
        source = "no source" if no_source else _fmt_level(level)
        key = (label, 0 if no_source else 1, level, scheme)
        _, cells = table.setdefault(key, ([source, scheme if not no_source else "", label], {}))
        cells[target] = (f"{cell.mean:.4f}", [label, source, scheme, target,
                                              f"{cell.mean:.6f}", str(cell.n)])
    markdown, csv_rows = _table(table, ["Source speech", "Scheme", "Target"], targets)
    header = ["target_mode", "source_speech", "scheme", "target_lang", "slu_f1_mean", "n"]
    return markdown, header, csv_rows


# Each style's renderer gives its Markdown, its CSV header and its CSV rows.
_RENDERERS = {"monolingual": _render_monolingual,
              "zeroshot_relative": _render_zeroshot_relative,
              "fewshot": _render_fewshot}
REPORT_STYLES = tuple(_RENDERERS)


def render_report(rows, style: str) -> dict[str, str]:
    """Render aggregated rows (as produced by grid aggregation or loaded from
    an aggregate CSV) into {"markdown": ..., "csv": ...}."""
    if style not in _RENDERERS:
        raise ConfigError(f"unknown report style {style!r} (expected one of {REPORT_STYLES})")
    markdown, header, csv_rows = _RENDERERS[style](rows)
    return {"markdown": markdown, "csv": csv_text(header, csv_rows)}
