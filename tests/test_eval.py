"""Tests for stats, the duration model, suite runners, and reporting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ExperimentError
from repro.eval.durations import DEFAULT_ANCHORS, HijackDurationModel
from repro.eval.experiments import (
    per_source_detection,
    run_artemis_suite,
    summarize_results,
)
from repro.eval.report import (
    format_duration,
    format_series,
    format_table,
    summary_rows,
)
from repro.eval.stats import Summary, percentile, summarize
from repro.sim.rng import SeededRNG

from conftest import fast_scenario


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7], 95) == 7

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestSummary:
    def test_basic(self):
        summary = Summary([1, 2, 3, 4])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.minimum == 1 and summary.maximum == 4

    def test_stdev(self):
        summary = Summary([2, 4])
        assert summary.stdev == pytest.approx(math.sqrt(2))
        assert Summary([5]).stdev == 0.0

    def test_empty(self):
        summary = Summary([])
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_summarize_skips_none(self):
        summary = summarize([1.0, None, 3.0])
        assert summary.count == 2

    def test_a_run_without_a_value_counts_as_a_miss(self):
        summary = summarize([40.0, None, 20.0])
        assert (summary.count, summary.runs, summary.mean) == (2, 3, 30.0)
        assert summary.to_dict()["runs"] == 3
        assert summary_rows({"detect": summary})[0][-1] == "2/3"
        assert summary_rows({"none": Summary([None])})[0][-1] == "0/1"

    def test_to_dict(self):
        data = Summary([1, 2]).to_dict()
        assert data["count"] == 2 and data["mean"] == 1.5


class TestDurationModel:
    def test_anchor_statistics_hold(self):
        model = HijackDurationModel()
        # ">20% of hijacks last < 10 min" (paper citing Argus).
        assert model.cdf(10 * 60) == pytest.approx(0.22)
        # ARTEMIS' ~6 min cycle beats more than 80% of events.
        assert model.fraction_outlived_by(6 * 60) > 0.80

    def test_cdf_monotone(self):
        model = HijackDurationModel()
        previous = 0.0
        for seconds in [1, 10, 60, 300, 600, 3600, 86400, 30 * 86400]:
            value = model.cdf(seconds)
            assert value >= previous
            previous = value
        assert model.cdf(10**9) == 1.0
        assert model.cdf(0) == 0.0

    def test_sample_within_support(self):
        model = HijackDurationModel()
        rng = SeededRNG(1)
        samples = model.sample_many(rng, 500)
        assert all(1.0 <= s <= 30 * 24 * 3600 for s in samples)

    def test_sample_matches_cdf(self):
        model = HijackDurationModel()
        rng = SeededRNG(2)
        samples = model.sample_many(rng, 3000)
        short = sum(1 for s in samples if s < 600) / len(samples)
        assert abs(short - 0.22) < 0.04

    def test_validation(self):
        with pytest.raises(ExperimentError):
            HijackDurationModel([(60, 0.5)])
        with pytest.raises(ExperimentError):
            HijackDurationModel([(60, 0.5), (30, 1.0)])
        with pytest.raises(ExperimentError):
            HijackDurationModel([(60, 0.5), (120, 0.4), (240, 1.0)])
        with pytest.raises(ExperimentError):
            HijackDurationModel([(60, 0.5), (120, 0.9)])

    @given(st.floats(min_value=1.0, max_value=2_000_000.0))
    def test_cdf_bounded(self, duration):
        model = HijackDurationModel()
        assert 0.0 <= model.cdf(duration) <= 1.0


class TestSuiteRunners:
    @pytest.fixture(scope="class")
    def results(self):
        return run_artemis_suite(fast_scenario(), seeds=[21, 22])

    def test_one_result_per_seed(self, results):
        assert [r.seed for r in results] == [21, 22]

    def test_template_not_mutated(self, results):
        template = fast_scenario(seed=99)
        run_artemis_suite(template, seeds=[21])
        assert template.seed == 99

    def test_summarize_results(self, results):
        table = summarize_results(results)
        assert table["detection_delay"].count == 2
        assert table["total_time"].mean > 0

    def test_per_source_detection(self, results):
        table = per_source_detection(results)
        assert "combined" in table
        assert table["combined"].count == 2
        # Combined (min) can never be slower than any individual source mean
        # within the same runs; check against the fastest source mean.
        fastest = min(
            s.mean for name, s in table.items() if name != "combined"
        )
        assert table["combined"].mean <= fastest + 1e-9

    def test_on_result_hook(self):
        seen = []
        run_artemis_suite(fast_scenario(), seeds=[23], on_result=seen.append)
        assert len(seen) == 1


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1.234], ["bb", None]], title="T", precision=2
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.23" in text and "-" in text
        assert len(lines) == 5

    def test_format_duration(self):
        assert format_duration(None) == "-"
        assert format_duration(45) == "45s"
        assert format_duration(330) == "5.5min"
        assert format_duration(7200) == "2.0h"

    def test_format_series(self):
        series = [(0.0, 0.0), (10.0, 0.5), (20.0, 1.0)]
        text = format_series(series, title="recovery", width=20)
        assert "recovery" in text
        assert "|" in text

    def test_format_series_empty(self):
        assert "empty" in format_series([])

    def test_summary_rows(self):
        rows = summary_rows({"detect": Summary([10.0, 20.0]), "none": Summary([])})
        assert rows[0][0] == "detect" and rows[0][2] == 15.0
        assert rows[1][1] == 0 and rows[1][2] is None
