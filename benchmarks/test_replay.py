"""Replay-ingest load bench: the detection plane against a recorded trace.

Not a paper artefact — this bench guards the pure-ingest path that
``repro.feeds.replay`` adds: a recorded feed trace streamed straight into
Detection/Monitoring with no network or AS graph in the loop.
The workload is the pinned 1000-AS scenario of ``test_scale.py``: one
recorded live run (whose seed-pinned outcome doubles as the proof that
recording perturbs nothing), then replays of that trace —

* **flat-out** — sustained updates/sec with everything enabled
  (supervision on the tap's event-time engine, lag accounting, alert digesting),
  guarded by a configurable throughput floor;
* **paced via a virtual timer** — the 1x replay finishes instantly on the
  virtual clock while remaining bit-identical to flat-out (the event-time
  contract, at scale);
* **fault soak** — the PR-4 chaos plan on the replay path: drops, dups,
  reorder backlog, and recorded-outage failover, with alert-level
  idempotence asserted under a dup-heavy burst.

The correctness bar everywhere: the replayed detection run must be
*digest-identical* to the live run that produced the trace.

``BENCH_replay.json`` (next to this file) records the measured numbers;
regenerate with::

    REPLAY_BENCH_WRITE=1 PYTHONPATH=src \
        python -m pytest benchmarks/test_replay.py -s --benchmark-only

Environment knobs (for CI smoke runs on small machines):

``REPLAY_MIN_RATE``
    Flat-out updates/sec floor (default 2000; 0 disables the guard).
``REPLAY_REGRESSION_FRACTION``
    Allowed flat-out slowdown versus the committed ``BENCH_replay.json``
    baseline (default 0.3 — fail on a >30% regression; 0 disables).
    Unlike the absolute floor above, this guard tracks the repo's own
    recorded performance, so a creeping ingest-path regression fails CI
    even while still comfortably above the hard floor.
``REPLAY_BENCH_WRITE``
    Write ``BENCH_replay.json`` when set to 1.
"""

from __future__ import annotations

import json
import os

import pytest

from conftest import run_once
from repro.faults import Fault, FaultPlan
from repro.feeds.replay import ReplaySession, VirtualTimer
from repro.perf import COUNTERS
from repro.testbed.scenario import HijackExperiment
from test_scale import EXPECTED, scale_config

_BENCH_JSON = os.path.join(os.path.dirname(__file__), "BENCH_replay.json")

_bench_numbers: dict = {}


@pytest.fixture(scope="module")
def recorded_scale(tmp_path_factory):
    """The pinned 1000-AS run, recorded; plus its live-side references.

    Asserting ``EXPECTED`` here is the recording-neutrality guard: the
    tap subscribes like any consumer, draws no randomness and schedules
    nothing, so the recorded run must hit the exact seed-pinned outcome
    of the unrecorded bench.
    """
    path = str(tmp_path_factory.mktemp("trace") / "scale.trace")
    experiment = HijackExperiment(scale_config())
    experiment.config.record_trace = path
    result = experiment.run()
    assert result.mitigated is EXPECTED["mitigated"]
    assert result.detection_delay == EXPECTED["detection_delay"]
    assert result.total_time == EXPECTED["total_time"]
    return {
        "path": path,
        "result": result,
        "live_digest": experiment.artemis.detection.digest(),
        "live_lag": experiment.artemis.monitoring.mean_lag_by_source(),
    }


@pytest.mark.slow
def test_replay_flat_out_throughput(benchmark, recorded_scale):
    """Flat-out ingest of the scale trace; digest-identical, floor-guarded."""
    COUNTERS.reset()
    session = ReplaySession(
        recorded_scale["path"],
        supervise=True,
        supervision=dict(check_interval=5.0, staleness_timeout=30.0),
    )
    report = run_once(benchmark, session.run)

    assert report["finished"]
    assert report["merged_alert_digest"] == recorded_scale["live_digest"]
    assert (
        report["per_source_delay_final"]
        == recorded_scale["result"].per_source_delay_final
    )
    assert report["mean_lag_by_source"] == recorded_scale["live_lag"]
    # Flat-out must not fail over healthy recorded sources (one clock).
    assert report["supervisor_transitions"] == []

    floor = float(os.environ.get("REPLAY_MIN_RATE", "2000"))
    if floor > 0:
        assert report["updates_per_second"] > floor, (
            f"replay ingest {report['updates_per_second']:.0f} updates/s "
            f"under the {floor:.0f}/s floor"
        )

    # Relative regression guard: the committed baseline is the repo's own
    # measured rate on the reference box; a fresh measurement more than
    # REPLAY_REGRESSION_FRACTION below it fails the run.
    fraction = float(os.environ.get("REPLAY_REGRESSION_FRACTION", "0.3"))
    if fraction > 0 and os.path.exists(_BENCH_JSON):
        with open(_BENCH_JSON, encoding="utf-8") as handle:
            committed = json.load(handle)
        baseline_rate = committed.get("flat_out", {}).get("updates_per_second", 0)
        if baseline_rate > 0:
            allowed = baseline_rate * (1.0 - fraction)
            assert report["updates_per_second"] >= allowed, (
                f"replay ingest regressed: {report['updates_per_second']:.0f} "
                f"updates/s vs committed baseline {baseline_rate:.0f}/s "
                f"(>{fraction:.0%} regression; floor {allowed:.0f}/s). "
                "If the slowdown is intended, regenerate BENCH_replay.json "
                "with REPLAY_BENCH_WRITE=1."
            )

    numbers = {
        "records": report["records_read"],
        "updates_per_second": round(report["updates_per_second"], 1),
        "wall_seconds": round(report["wall_seconds"], 4),
        "time_to_first_alert_wall": round(report["time_to_first_alert_wall"], 4),
        "detection_delay": report["detection_delay"],
        "peak_rss_kb": report["peak_rss_kb"],
        "merged_alert_digest": report["merged_alert_digest"],
    }
    benchmark.extra_info.update(numbers)
    _bench_numbers["flat_out"] = numbers


@pytest.mark.slow
def test_replay_paced_virtual_bit_identity(benchmark, recorded_scale):
    """1x on a virtual timer: instant on the wall, bit-identical output."""
    timer = VirtualTimer()
    session = ReplaySession(recorded_scale["path"], speed=1.0, timer=timer)
    report = run_once(benchmark, session.run)

    assert report["merged_alert_digest"] == recorded_scale["live_digest"]
    assert report["mean_lag_by_source"] == recorded_scale["live_lag"]
    # The virtual timer absorbed the pacing: it "slept" roughly the trace
    # span, while the wall clock saw only the ingest work itself.
    assert timer.slept > 0
    benchmark.extra_info["virtual_sleep_seconds"] = round(timer.slept, 1)
    _bench_numbers["paced_1x_virtual"] = {
        "virtual_sleep_seconds": round(timer.slept, 1),
        "merged_alert_digest": report["merged_alert_digest"],
    }


@pytest.mark.slow
def test_replay_fault_soak(benchmark, recorded_scale):
    """The PR-4 chaos plan on the replay path, plus a dup-everything burst.

    Asserts the ingest loop survives drops, duplicated bursts, and the
    reorder backlog while keeping alert-level idempotence: dup copies are
    byte-identical, so they must neither add incidents nor move the
    per-source first-evidence table relative to a clean replay.
    """
    plans_dir = os.path.join(os.path.dirname(__file__), "..", "examples", "fault_plans")
    chaos = os.path.join(plans_dir, "chaos_mix.json")
    clean = ReplaySession(recorded_scale["path"]).run()

    def soak():
        reports = {}
        session = ReplaySession(recorded_scale["path"], faults=chaos, supervise=True,
                                supervision=dict(check_interval=5.0,
                                                 staleness_timeout=15.0))
        reports["chaos"] = session.run()
        dup_plan = FaultPlan(
            [
                Fault("dup", target, at=0.0, duration=100000.0, probability=1.0)
                for target in ("ris", "bgpmon", "periscope")
            ],
            name="dup-everything",
        )
        dup_session = ReplaySession(recorded_scale["path"], faults=dup_plan)
        reports["dup"] = dup_session.run()
        reports["dup_skipped"] = dup_session.detection.duplicate_events_skipped
        return reports

    reports = run_once(benchmark, soak)
    chaos_report = reports["chaos"]
    assert chaos_report["finished"]
    assert chaos_report["events_dropped"] > 0
    assert chaos_report["fault_channel"]["duplicated"] > 0
    assert chaos_report["fault_channel"]["reordered"] > 0
    # The recorded ris outage must surface as DEAD → LIVE on the tap's engine.
    states = [
        (source, state)
        for _w, source, state in chaos_report["supervisor_transitions"]
    ]
    assert ("ris", "dead") in states and ("ris", "live") in states

    dup_report = reports["dup"]
    assert dup_report["alerts"] == clean["alerts"]
    assert dup_report["detection_delay"] == clean["detection_delay"]
    assert dup_report["per_source_delay_final"] == clean["per_source_delay_final"]
    assert reports["dup_skipped"] > 0

    numbers = {
        "chaos_events_dropped": chaos_report["events_dropped"],
        "chaos_backlog_peak": chaos_report["backlog_peak"],
        "chaos_updates_per_second": round(chaos_report["updates_per_second"], 1),
        "dup_duplicates_detected": reports["dup_skipped"],
        "dup_alerts": dup_report["alerts"],
    }
    benchmark.extra_info.update(numbers)
    _bench_numbers["fault_soak"] = numbers

    if os.environ.get("REPLAY_BENCH_WRITE") == "1" and "flat_out" in _bench_numbers:
        payload = {
            "description": (
                "Replay ingest of the pinned 1000-AS scale trace "
                "(benchmarks/test_scale.py world, seed 11): recorded live, "
                "replayed flat-out / paced-virtual / under fault soak."
            ),
            "records": _bench_numbers["flat_out"]["records"],
            "live_detection_delay": EXPECTED["detection_delay"],
            **_bench_numbers,
        }
        with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
