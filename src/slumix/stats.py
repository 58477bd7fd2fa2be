"""Multi-seed aggregation: means, 95% t-distribution CIs, CI-overlap tests.

Two results are called significantly different exactly when their 95%
confidence intervals are disjoint; this is the (conservative) rule used for
the dagger marks in published comparison tables, applied verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import StatsError
from .metrics import MetricReport

# Two-sided 95% critical values of Student's t (0.975 quantile) for
# df = 1..200; beyond the table the quantile is computed.
_T95 = (
    12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624, 2.306004,
    2.262157, 2.228139, 2.200985, 2.178813, 2.160369, 2.144787, 2.131450, 2.119905,
    2.109816, 2.100922, 2.093024, 2.085963, 2.079614, 2.073873, 2.068658, 2.063899,
    2.059539, 2.055529, 2.051831, 2.048407, 2.045230, 2.042272, 2.039513, 2.036933,
    2.034515, 2.032245, 2.030108, 2.028094, 2.026192, 2.024394, 2.022691, 2.021075,
    2.019541, 2.018082, 2.016692, 2.015368, 2.014103, 2.012896, 2.011741, 2.010635,
    2.009575, 2.008559, 2.007584, 2.006647, 2.005746, 2.004879, 2.004045, 2.003241,
    2.002465, 2.001717, 2.000995, 2.000298, 1.999624, 1.998972, 1.998341, 1.997730,
    1.997138, 1.996564, 1.996008, 1.995469, 1.994945, 1.994437, 1.993943, 1.993464,
    1.992997, 1.992543, 1.992102, 1.991673, 1.991254, 1.990847, 1.990450, 1.990063,
    1.989686, 1.989319, 1.988960, 1.988610, 1.988268, 1.987934, 1.987608, 1.987290,
    1.986979, 1.986675, 1.986377, 1.986086, 1.985802, 1.985523, 1.985251, 1.984984,
    1.984723, 1.984467, 1.984217, 1.983972, 1.983731, 1.983495, 1.983264, 1.983038,
    1.982815, 1.982597, 1.982383, 1.982173, 1.981967, 1.981765, 1.981567, 1.981372,
    1.981180, 1.980992, 1.980808, 1.980626, 1.980448, 1.980272, 1.980100, 1.979930,
    1.979764, 1.979600, 1.979439, 1.979280, 1.979124, 1.978971, 1.978820, 1.978671,
    1.978524, 1.978380, 1.978239, 1.978099, 1.977961, 1.977826, 1.977692, 1.977561,
    1.977431, 1.977304, 1.977178, 1.977054, 1.976931, 1.976811, 1.976692, 1.976575,
    1.976460, 1.976346, 1.976233, 1.976122, 1.976013, 1.975905, 1.975799, 1.975694,
    1.975590, 1.975488, 1.975387, 1.975288, 1.975189, 1.975092, 1.974996, 1.974902,
    1.974808, 1.974716, 1.974625, 1.974535, 1.974446, 1.974358, 1.974271, 1.974185,
    1.974100, 1.974017, 1.973934, 1.973852, 1.973771, 1.973691, 1.973612, 1.973534,
    1.973457, 1.973381, 1.973305, 1.973231, 1.973157, 1.973084, 1.973012, 1.972941,
    1.972870, 1.972800, 1.972731, 1.972663, 1.972595, 1.972528, 1.972462, 1.972396,
    1.972332, 1.972268, 1.972204, 1.972141, 1.972079, 1.972017, 1.971957, 1.971896,
)


def t_crit_95(df: int) -> float:
    """Two-sided 95% t critical value for the given degrees of freedom."""
    if df < 1:
        raise StatsError(f"degrees of freedom must be >= 1 (got {df})")
    if df <= len(_T95):
        return _T95[df - 1]
    # Past the table: the Cornish-Fisher expansion of the t quantile in powers
    # of 1/df (Abramowitz & Stegun 26.7.5), four terms, within 3e-12 of it.
    z, x = 1.959963984540054, 1 / df  # z: the 0.975 quantile of the normal
    g1 = (z ** 3 + z) / 4
    g2 = (5 * z ** 5 + 16 * z ** 3 + 3 * z) / 96
    g3 = (3 * z ** 7 + 19 * z ** 5 + 17 * z ** 3 - 15 * z) / 384
    g4 = (79 * z ** 9 + 776 * z ** 7 + 1482 * z ** 5 - 1920 * z ** 3 - 945 * z) / 92160
    return z + x * (g1 + x * (g2 + x * (g3 + x * g4)))


@dataclass(frozen=True)
class SeedRun:
    seed: int
    report: MetricReport


@dataclass(frozen=True)
class AggregateCell:
    """Mean and CI half-width of one metric over seed runs.

    ``half_width`` is None for single-run cells, which are reported mean-only
    (a CI over one observation is undefined).
    """

    metric: str
    mean: float
    half_width: Optional[float]
    n: int

    @property
    def low(self) -> float:
        return self.mean - (self.half_width or 0.0)

    @property
    def high(self) -> float:
        return self.mean + (self.half_width or 0.0)


def aggregate(runs, metric: str) -> AggregateCell:
    """Mean and 95% CI half-width of one metric across seed runs; a single
    run is reported mean-only.

    half_width = t_{0.975, n-1} * sample_sd / sqrt(n), with the sample
    standard deviation using the n-1 denominator.
    """
    runs = list(runs)
    seeds = [r.seed for r in runs]
    if len(set(seeds)) != len(seeds):
        raise StatsError("duplicate seeds in aggregation cell")
    n = len(runs)
    if n == 0:
        raise StatsError("no runs to aggregate (n=0)")
    values = [r.report.value(metric) for r in runs]
    mean = sum(values) / n
    if n == 1:
        return AggregateCell(metric=metric, mean=mean, half_width=None, n=1)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
    half_width = t_crit_95(n - 1) * sd / math.sqrt(n)
    return AggregateCell(metric=metric, mean=mean, half_width=half_width, n=n)


@dataclass(frozen=True)
class ComparisonMark:
    winner: Optional[str]
    significant: bool


def significant(a: AggregateCell, b: AggregateCell, a_id: str = "a",
                b_id: str = "b") -> ComparisonMark:
    """CI-overlap comparison: significant iff the intervals are disjoint."""
    if a.metric != b.metric:
        raise StatsError(f"metric mismatch: {a.metric!r} vs {b.metric!r}")
    if a.half_width is None or b.half_width is None:
        return ComparisonMark(winner=None, significant=False)
    disjoint = a.high < b.low or b.high < a.low
    if not disjoint:
        return ComparisonMark(winner=None, significant=False)
    return ComparisonMark(winner=a_id if a.mean > b.mean else b_id, significant=True)


def comparison_marks(rows) -> list[bool]:
    """For each aggregate row, whether it carries the direct-vs-curriculum mark.

    Rows are compared within one group (corpus, or cross-lingual mode and
    target language), speech level and metric; the mark goes to the winner
    of a significant comparison.
    """
    def key(row):
        return (row.get("corpus", ""), row.get("mode", ""), row.get("target_lang", ""),
                row["speech_level"], row["metric"])

    pairs: dict[tuple, dict] = {}
    for row in rows:
        pairs.setdefault(key(row), {})[row["scheme"]] = row["cell"]
    winners = {k: significant(pair["direct"], pair["curriculum"],
                              "direct", "curriculum").winner
               for k, pair in pairs.items() if "direct" in pair and "curriculum" in pair}
    return [winners.get(key(row)) == row["scheme"] for row in rows]


def relative_improvement(base: float, variant: float) -> float:
    """(variant - base) / base; the base must be positive."""
    if base <= 0:
        raise StatsError(f"baseline must be > 0 (got {base})")
    return (variant - base) / base
