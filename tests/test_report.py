import csv

import pytest

from slumix import AggregateCell, ConfigError, render_report
from slumix.grid import write_rows_csv
from slumix.stats import comparison_marks
from published_table import DAGGERS, published_rows

PUBLISHED_MARKS = {(corpus, level, metric, "curriculum")
                   for corpus, level, metric in DAGGERS}


def xl_row(mode, target, scheme, level, mean, metric="slu_f1", n=5, hw=0.01):
    return {"corpus": "", "mode": mode, "target_lang": target, "scheme": scheme,
            "speech_level": level, "metric": metric,
            "cell": AggregateCell(metric=metric, mean=mean, half_width=hw, n=n)}


class TestMonolingualStyle:
    def test_dagger_set_matches_published_table(self):
        rows = published_rows()
        marked = {(r["corpus"], r["speech_level"], r["metric"], r["scheme"])
                  for r, mark in zip(rows, comparison_marks(rows)) if mark}
        assert marked == PUBLISHED_MARKS

    def test_aggregate_csv_flags_match_published_table(self, tmp_path):
        path = tmp_path / "aggregate.csv"
        write_rows_csv(published_rows(), path)
        with open(path, encoding="utf-8", newline="") as f:
            flagged = {(r["corpus"], float(r["speech_level"]), r["metric"], r["scheme"])
                       for r in csv.DictReader(f) if r["significant"] == "yes"}
        assert flagged == PUBLISHED_MARKS

    def test_markdown_dagger_count(self):
        rendered = render_report(published_rows(), "monolingual")
        assert rendered["markdown"].count("†") == len(DAGGERS)
        assert rendered["csv"].count(",yes") == len(DAGGERS)

    def test_values_rendered(self):
        rendered = render_report(published_rows(), "monolingual")
        assert "0.7335 ± 0.0011 †" in rendered["markdown"]
        assert "0.7167 ± 0.0038" in rendered["markdown"]

    def test_mean_only_cells_render_without_interval(self):
        rows = [{"corpus": "c", "mode": "", "target_lang": "", "scheme": "direct",
                 "speech_level": 0.02, "metric": "slu_f1",
                 "cell": AggregateCell("slu_f1", 0.5, None, 1)}]
        rendered = render_report(rows, "monolingual")
        assert "0.5000" in rendered["markdown"]
        assert "±" not in rendered["markdown"]

    def test_crosslingual_rows_get_one_table_per_mode_and_target(self):
        rows = [xl_row("T_S", "de", "curriculum", 0.1, 0.61),
                xl_row("T_S", "ko", "curriculum", 0.1, 0.42)]
        rendered = render_report(rows, "monolingual")
        assert "## T_S/de" in rendered["markdown"]
        assert "## T_S/ko" in rendered["markdown"]
        assert "0.6100 ± 0.0100" in rendered["markdown"]
        assert "0.4200 ± 0.0100" in rendered["markdown"]
        assert rendered["csv"].splitlines()[1:] == [
            "T_S/de,10%,curriculum,slu_f1,0.610000,0.010000,5,",
            "T_S/ko,10%,curriculum,slu_f1,0.420000,0.010000,5,",
        ]


class TestZeroShotRelativeStyle:
    def test_published_ratio(self):
        rows = [xl_row("zero_shot", "de", "text_only", 0.0, 0.6145),
                xl_row("zero_shot", "de", "curriculum", 1.0, 0.6739)]
        rendered = render_report(rows, "zeroshot_relative")
        assert "de,100%,0.096664" in rendered["csv"]
        assert "+9.7%" in rendered["markdown"]

    def test_variant_equal_baseline_is_zero(self):
        rows = [xl_row("zero_shot", "de", "text_only", 0.0, 0.61),
                xl_row("zero_shot", "de", "curriculum", 0.02, 0.61),
                xl_row("zero_shot", "de", "curriculum", 0.05, 0.61)]
        rendered = render_report(rows, "zeroshot_relative")
        assert rendered["csv"].count("0.000000") == 2
        assert "+0.0%" in rendered["markdown"]

    def test_missing_baseline_rejected(self):
        rows = [xl_row("zero_shot", "de", "curriculum", 0.02, 0.61)]
        with pytest.raises(ConfigError, match="baseline"):
            render_report(rows, "zeroshot_relative")


class TestFewShotStyle:
    def test_table_structure(self):
        rows = [
            xl_row("no_source_T", "de", "text_only", 0.0, 0.2246, n=1, hw=None),
            xl_row("T", "de", "text_only", 0.0, 0.6145),
            xl_row("T", "de", "curriculum", 0.02, 0.6378),
            xl_row("T_S", "de", "curriculum", 0.02, 0.6537),
            xl_row("T_S_M", "de", "curriculum", 1.0, 0.7319),
        ]
        rendered = render_report(rows, "fewshot")
        md = rendered["markdown"]
        assert "no source" in md
        assert "| T |" in md
        assert "T+S" in md and "T+S+M" in md
        assert "0.7319" in md
        # no-source rows come before sourced rows for the same mode
        assert md.index("no source") < md.index("| 0% |")

    def test_unknown_style(self):
        with pytest.raises(ConfigError, match="style"):
            render_report([], "table-9")
