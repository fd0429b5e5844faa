"""Tests for the process-wide perf counters (:mod:`repro.perf`)."""

import pytest

from repro.perf import (
    COUNTERS,
    METRICS,
    PerfCounters,
    format_profile,
    profile_rows,
)
from repro.sim.engine import Engine


class TestPerfCounters:
    def test_starts_at_zero(self):
        counters = PerfCounters()
        assert all(value == 0 for value in counters.as_dict().values())

    def test_each_metric_is_declared_once(self):
        names = [metric.name for metric in METRICS]
        assert len(set(names)) == len(names)

    def test_reset_zeroes_everything(self):
        counters = PerfCounters()
        counters.events_scheduled = 7
        counters.path_intern_hits = 3
        counters.reset()
        assert counters.as_dict() == {metric.name: 0 for metric in METRICS}

    def test_merge_adds_snapshot(self):
        counters = PerfCounters()
        counters.events_processed = 5
        counters.merge({"events_processed": 10, "flushes_run": 2})
        assert counters.events_processed == 15
        assert counters.flushes_run == 2

    def test_merge_ignores_unknown_fields(self):
        counters = PerfCounters()
        counters.merge({"not_a_counter": 99, "updates_processed": 1})
        assert counters.updates_processed == 1
        assert "not_a_counter" not in counters.as_dict()

    def test_merge_takes_max_for_gauges(self):
        counters = PerfCounters()
        counters.peak_rss_kb = 500
        counters.merge({"peak_rss_kb": 300, "checkpoint_bytes": 1024})
        assert counters.peak_rss_kb == 500
        counters.merge({"peak_rss_kb": 900})
        assert counters.peak_rss_kb == 900
        assert counters.checkpoint_bytes == 1024

    def test_delta_since_subtracts_counters_passes_gauges(self):
        counters = PerfCounters()
        counters.events_processed = 10
        counters.peak_rss_kb = 400
        before = counters.as_dict()
        counters.events_processed = 25
        counters.peak_rss_kb = 700
        delta = counters.delta_since(before)
        assert delta["events_processed"] == 15
        assert delta["peak_rss_kb"] == 700

    def test_merge_worker_deltas_sum_counters_max_rss(self):
        """Parent fold: worker counter deltas add, RSS gauges race.

        ``ParallelDetectionPlane.finish`` merges one delta per worker;
        traffic totals must accumulate across workers while the
        per-process peak-RSS gauge takes the worst worker, not the sum.
        """
        counters = PerfCounters()
        counters.merge({
            "detect_events_routed": 5,
            "frames_bytes": 1000,
            "detect_worker_batches": 2,
            "frames_sent": 40,
            "peak_rss_kb": 900,
        })
        counters.merge({
            "detect_events_routed": 3,
            "frames_bytes": 700,
            "detect_worker_batches": 1,
            "frames_sent": 40,
            "peak_rss_kb": 400,
        })
        assert counters.detect_events_routed == 8
        assert counters.frames_bytes == 1700
        assert counters.detect_worker_batches == 3
        assert counters.frames_sent == 80
        assert counters.peak_rss_kb == 900

    def test_tombstone_ratio(self):
        counters = PerfCounters()
        assert counters.tombstone_ratio == 0.0
        counters.events_scheduled = 10
        counters.events_cancelled = 4
        assert counters.tombstone_ratio == pytest.approx(0.4)

    def test_verdict_cache_hit_ratio(self):
        counters = PerfCounters()
        assert counters.verdict_cache_hit_ratio == 0.0
        counters.verdict_cache_hits = 3
        counters.verdict_cache_misses = 9
        assert counters.verdict_cache_hit_ratio == pytest.approx(0.25)

    def test_allocations_avoided_sums_cache_wins(self):
        counters = PerfCounters()
        counters.announcements_reused = 1
        counters.path_intern_hits = 2
        counters.prefix_parse_hits = 3
        counters.dirty_marks_skipped = 4
        assert counters.allocations_avoided == 10


@pytest.mark.parametrize("metric", METRICS, ids=[metric.name for metric in METRICS])
def test_metric_merges_by_its_declared_rule(metric):
    """A ``sum`` metric adds under ``merge`` and subtracts under
    ``delta_since``; a ``max`` metric max-folds and passes through."""
    assert metric.merge in ("sum", "max")
    counters = PerfCounters()
    setattr(counters, metric.name, 7)
    before = counters.as_dict()
    counters.merge({metric.name: 5})
    merged = getattr(counters, metric.name)
    delta = counters.delta_since(before)[metric.name]
    if metric.merge == "sum":
        assert (merged, delta) == (12, 5)
    else:
        assert (merged, delta) == (7, 7)
        counters.merge({metric.name: 9})
        assert getattr(counters, metric.name) == 9


class TestGlobalWiring:
    def test_engine_increments_global_counters(self):
        baseline = COUNTERS.as_dict()
        engine = Engine()
        doomed = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        doomed.cancel()
        engine.run()
        assert COUNTERS.events_scheduled == baseline["events_scheduled"] + 2
        assert COUNTERS.events_processed == baseline["events_processed"] + 1
        assert COUNTERS.events_cancelled == baseline["events_cancelled"] + 1

    def test_profile_rows_cover_all_fields(self):
        names = [name for name, _value in profile_rows()]
        for metric in METRICS:
            assert metric.name.replace("_", " ") in names
        assert "allocations avoided" in names
        assert "queue tombstone ratio" in names

    def test_profile_rows_sample_memory_gauges(self):
        from repro.net.prefix import Prefix

        Prefix.parse("10.99.0.0/16")  # the parse cache is certainly non-empty
        rows = dict(profile_rows())
        assert int(rows["prefix cache size"]) > 0
        # resource.getrusage is available on every platform CI runs on.
        assert int(rows["peak rss kb"]) > 0

    def test_profile_rows_with_wall_time(self):
        names = [name for name, _value in profile_rows(wall_seconds=1.5)]
        assert "wall time (s)" in names
        assert "events / sec" in names

    def test_format_profile_renders_table(self):
        text = format_profile(0.5)
        assert text.startswith("perf counters")
        assert "events processed" in text
        assert "wall time (s)" in text
