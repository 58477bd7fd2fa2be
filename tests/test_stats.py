import math

import pytest
from scipy import stats as scipy_stats
from scipy.special import stdtrit

from slumix import (
    AggregateCell,
    MetricReport,
    SeedRun,
    StatsError,
    aggregate,
    relative_improvement,
    significant,
    t_crit_95,
)


def run_with(seed, value):
    report = MetricReport(intent_accuracy=value, entity_precision=value,
                          entity_recall=value, entity_f1=value, slu_f1=value,
                          counts={})
    return SeedRun(seed=seed, report=report)


class TestTTable:
    def test_matches_reference_quantiles(self):
        for df in range(2, 31):
            assert t_crit_95(df) == pytest.approx(scipy_stats.t.ppf(0.975, df), abs=1e-4)

    def test_tail_of_table_and_fallback(self):
        assert t_crit_95(200) == pytest.approx(scipy_stats.t.ppf(0.975, 200), abs=1e-4)
        assert t_crit_95(5000) == pytest.approx(1.9600, abs=1e-3)

    def test_beyond_table_continues_the_quantile(self):
        assert t_crit_95(201) == pytest.approx(1.971837, abs=1e-6)
        values = [t_crit_95(df) for df in range(1, 10001)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_beyond_table_matches_scipy(self):
        # The closed form past the table against scipy's exact quantile.
        dfs = [*range(201, 5000), 10 ** 5, 10 ** 7]
        exact = stdtrit(dfs, 0.975).tolist()
        assert max(abs(t_crit_95(df) - q) for df, q in zip(dfs, exact)) < 1e-9

    def test_df_zero_rejected(self):
        with pytest.raises(StatsError):
            t_crit_95(0)


class TestAggregate:
    def test_identical_values_zero_width(self):
        cell = aggregate([run_with(s, 0.8) for s in range(5)], "slu_f1")
        assert cell.mean == 0.8
        assert cell.half_width == 0.0
        assert cell.n == 5

    def test_one_to_five(self):
        runs = [run_with(s, float(v)) for s, v in enumerate([1, 2, 3, 4, 5])]
        cell = aggregate(runs, "slu_f1")
        assert cell.mean == 3.0
        assert cell.half_width == pytest.approx(2.7764 * 1.5811 / math.sqrt(5), abs=1e-4)

    def test_single_run_allowed_when_asked(self):
        cell = aggregate([run_with(1, 0.5)], "slu_f1")
        assert (cell.mean, cell.half_width, cell.n) == (0.5, None, 1)

    def test_no_run_rejected(self):
        with pytest.raises(StatsError, match="n=0"):
            aggregate([], "slu_f1")

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(StatsError, match="duplicate"):
            aggregate([run_with(1, 0.5), run_with(1, 0.6)], "slu_f1")

    def test_affine_scaling(self):
        runs = [run_with(s, v) for s, v in enumerate([0.1, 0.3, 0.2, 0.5, 0.4])]
        scaled = [run_with(s, 3 * v) for s, v in enumerate([0.1, 0.3, 0.2, 0.5, 0.4])]
        a = aggregate(runs, "slu_f1")
        b = aggregate(scaled, "slu_f1")
        assert b.mean == pytest.approx(3 * a.mean)
        assert b.half_width == pytest.approx(3 * a.half_width)


def cell(mean, hw, metric="slu_f1"):
    return AggregateCell(metric=metric, mean=mean, half_width=hw, n=5)


class TestSignificant:
    def test_slurp_2pct_slu_dagger(self):
        mark = significant(cell(0.7167, 0.0038), cell(0.7335, 0.0011),
                           "direct", "curriculum")
        assert mark.significant and mark.winner == "curriculum"

    def test_slurp_50pct_intent_no_dagger(self):
        mark = significant(cell(0.8779, 0.0027, "intent_accuracy"),
                           cell(0.8771, 0.0033, "intent_accuracy"))
        assert not mark.significant and mark.winner is None

    def test_identical_cells_not_significant(self):
        c = cell(0.5, 0.01)
        assert not significant(c, c).significant

    def test_touching_intervals_not_significant(self):
        # boundary case from the 2% intent column: 0.8132+0.0078 == 0.8287-0.0077
        mark = significant(cell(0.8132, 0.0078), cell(0.8287, 0.0077))
        assert not mark.significant

    def test_symmetric_except_winner(self):
        a, b = cell(0.1, 0.01), cell(0.5, 0.01)
        m1 = significant(a, b, "a", "b")
        m2 = significant(b, a, "b", "a")
        assert m1.significant == m2.significant
        assert m1.winner == m2.winner == "b"

    def test_metric_mismatch(self):
        with pytest.raises(StatsError, match="mismatch"):
            significant(cell(0.5, 0.1, "slu_f1"), cell(0.5, 0.1, "entity_f1"))

    def test_single_run_cell_never_significant(self):
        lone = AggregateCell(metric="slu_f1", mean=0.9, half_width=None, n=1)
        assert not significant(lone, cell(0.1, 0.01)).significant


class TestRelativeImprovement:
    def test_fewshot_de_transfer(self):
        assert relative_improvement(0.6145, 0.6739) == pytest.approx(0.0967, abs=1e-4)

    def test_no_change(self):
        assert relative_improvement(0.5, 0.5) == 0.0

    def test_plus_twenty_percent(self):
        assert relative_improvement(0.5, 0.6) == pytest.approx(0.2)

    def test_zero_base_rejected(self):
        with pytest.raises(StatsError):
            relative_improvement(0.0, 0.5)
