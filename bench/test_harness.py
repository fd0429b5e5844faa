"""Tests of the benchmark harness itself (``pytest bench -q``).

They run on a small hand-made base trace, not the 1000-AS recording, so
the whole file takes a second; ``run.py --smoke`` is the end-to-end check
on the real scenario.
"""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

import run  # noqa: F401  (puts bench/ and src/ on sys.path)
import amplify
import rep
from tracer import LayerProfiler, Spans

from repro.feeds.events import ANNOUNCE, WITHDRAW, FeedEvent
from repro.feeds.replay import TraceWriter, load_trace
from repro.net.prefix import Prefix
from repro.tenants import DetectionPlane
from repro.tenants.synth import build_synth_registry, observed_origin_map

VICTIM, HIJACKER = 61000, 61001


@pytest.fixture()
def base_trace(tmp_path):
    """A miniature of the recorded run: churn, then an exact-prefix hijack
    of 10.0.0.0/23 answered by de-aggregation into its two /24s."""
    events = []
    clock = 1.0

    def emit(kind, prefix, path, vantage):
        nonlocal clock
        clock += 0.37
        events.append(
            FeedEvent(source="ris", collector="rrc00", vantage_asn=vantage, kind=kind,
                      prefix=Prefix.parse(prefix), as_path=tuple(path),
                      observed_at=clock, delivered_at=clock + 5.0)
        )

    emit(ANNOUNCE, "10.0.0.0/23", (7, 3, VICTIM), 7)
    for k in range(6):
        for vantage in (7, 8, 9):
            emit(ANNOUNCE, f"172.16.{k}.0/24", (vantage, 2 + k % 3, 100 + k), vantage)
        emit(WITHDRAW, f"172.16.{k}.0/24", (), 8)
    for vantage in (7, 8, 9):
        emit(ANNOUNCE, "10.0.0.0/23", (vantage, 4, HIJACKER), vantage)
    for sub in ("10.0.0.0/24", "10.0.1.0/24"):
        emit(ANNOUNCE, sub, (8, 3, VICTIM), 8)
    events.sort(key=lambda event: event.delivered_at)
    path = str(tmp_path / "base.trace")
    with TraceWriter(path, meta={"seed": 1}) as writer:
        for event in events:
            writer.append(event)
    return path


def test_amplifier_is_deterministic_and_loads_clean(base_trace, tmp_path):
    for mode in amplify.MODES:
        one, two = str(tmp_path / f"{mode}1"), str(tmp_path / f"{mode}2")
        first = amplify.amplify(base_trace, one, mode, loops=5, seed=3)
        second = amplify.amplify(base_trace, two, mode, loops=5, seed=3)
        with open(one, "rb") as a, open(two, "rb") as b:
            assert a.read() == b.read()
        assert first == second
        trace = load_trace(one)  # verifies count and sha256
        assert len(trace) == first["records"] == 5 * len(load_trace(base_trace))
        assert trace.digest == first["sha256"]
        times = [event.delivered_at for event in trace.events]
        assert times == sorted(times)
        per_loop = len(trace) // 5
        assert trace.events[per_loop].observed_at > trace.events[per_loop - 1].delivered_at


def test_seed_changes_only_the_diverse_block_order(base_trace, tmp_path):
    a = amplify.amplify(base_trace, str(tmp_path / "a"), "diverse", loops=5, seed=3)
    b = amplify.amplify(base_trace, str(tmp_path / "b"), "diverse", loops=5, seed=4)
    assert a["sha256"] != b["sha256"]
    assert a["distinct_keys"] == b["distinct_keys"]


def test_max_records_cuts_the_last_loop(base_trace, tmp_path):
    out = str(tmp_path / "cut")
    summary = amplify.amplify(base_trace, out, "steady", loops=3, seed=1, max_records=70)
    assert summary["records"] == len(load_trace(out)) == 70


def test_remap_preserves_lengths_and_containment(base_trace):
    _header, records, _footer = amplify.read_base(base_trace)
    layout = amplify.block_layout([r[4] for r in records])
    assert {text: length for text, (_o, length) in layout.items()} == {
        r[4]: int(r[4].split("/")[1]) for r in records
    }
    root = layout["10.0.0.0/23"][0]
    assert layout["10.0.0.0/24"][0] == root and layout["10.0.1.0/24"][0] == root + 256
    offsets = sorted((offset, 1 << (32 - length)) for offset, length in layout.values() if length == 24)
    assert all(offset % size == 0 for offset, size in offsets)
    assert amplify.block_of(amplify.format_v4(amplify.BLOCK_SPACE_START + (9 << amplify.BLOCK_BITS) + root, 23)) == 9


def test_diverse_outgrows_the_cache_and_every_loop_alerts(base_trace, tmp_path):
    cache = 16
    _header, records, _footer = amplify.read_base(base_trace)
    loops = math.ceil(3 * cache / amplify.distinct_keys(records))
    out = str(tmp_path / "diverse")
    summary = amplify.amplify(base_trace, out, "diverse", loops=loops, seed=7)
    assert summary["distinct_keys"] >= 3 * cache
    assert summary["live_prefixes"] == loops * 9
    trace = load_trace(out)
    assert {str(p): o for p, o in observed_origin_map(trace.events).items()} == summary["origins"]
    registry = build_synth_registry(
        rep.origin_map(summary), num_tenants=10, num_prefixes=200,
        live_per_tenant=math.ceil(summary["live_prefixes"] / 10),
    )
    plane = DetectionPlane(registry, batch_size=32, verdict_cache_size=cache)
    for event in trace.events:
        plane.ingest(event)
    plane.flush()
    checked = rep.incident_check(plane.incident_rows(), plane.digest())
    assert checked["alert_blocks"] == loops
    assert checked["incidents"] >= loops


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    spans = Spans("t", clock=lambda: next(ticks))
    spans.open("a", "outer")        # 0
    spans.open("b", "child")        # 1
    spans.open("a", "grandchild")   # 2
    assert spans.close() == 2.0     # 4
    assert spans.close() == 4.0     # 5
    spans.open("b", "child")        # 6
    assert spans.close() == 3.0     # 9
    assert spans.close() == 10.0    # 10
    assert spans.aggregates[("a", "outer")] == [1, 10.0, 3.0]
    assert spans.aggregates[("b", "child")] == [2, 7.0, 5.0]
    layers = spans.by_layer()
    assert layers["a"]["self_s"] == 5.0 and layers["b"]["self_s"] == 5.0
    assert layers["a"]["share"] == 0.5
    assert sum(row["self_s"] for row in layers.values()) == 10.0
    by_id = {span["id"]: span for span in spans.sample}
    assert by_id[3]["parent"] == 2 and by_id[2]["parent"] == 1 and by_id[1]["parent"] is None


def test_profiler_opens_spans_at_package_crossings_and_restores_the_hook():
    previous = sys.getprofile()
    spans = Spans("t")
    with LayerProfiler(spans):
        assert sys.getprofile() not in (None, previous)
        Prefix.parse("192.0.2.0/24").contains(Prefix.parse("192.0.2.0/25"))
    assert sys.getprofile() is previous
    assert set(layer for layer, _name in spans.aggregates) == {"net"}
    with pytest.raises(ZeroDivisionError):
        with LayerProfiler(spans):
            1 / 0
    assert sys.getprofile() is previous
    spans.open("x", "after")  # nothing was left open: a new span is a root
    spans.close()
    assert spans.sample[-1]["parent"] is None


def test_results_document_validates(tmp_path):
    benchmark = run.load_benchmark()
    reps = [
        {"setup_s": 1.0 + i / 10, "wall_s": 3.0 + i / 10, "cpu_s": 3.0, "work": 100,
         "peak_rss_mb": 50.0, "attempted": 1, "failed": 0, "check": {}}
        for i in range(4)
    ]
    entry = run.end_to_end({}, reps, problems=[])
    entry["problems"] = []
    assert entry["metrics"]["wall_s"]["median"] == pytest.approx(3.15)
    assert entry["metrics"]["wall_s"]["n"] == 4 and entry["failed_share"] == 0
    document = run.results_document(
        benchmark, 11, run.protocol_of(4, {"sim_1000as": entry}), {"sim_1000as": entry})
    assert run.validate_results(document, benchmark) == []
    assert json.loads(json.dumps(document)) == document
    del document["workloads"]["sim_1000as"]["metrics"]["wall_s"]["bound"]
    document["workloads"]["nonsense"] = {"failed_share": 2, "metrics": {}}
    assert len(run.validate_results(document, benchmark)) == 3
    wrong = run.end_to_end({}, reps, problems=["digest differs"])
    assert wrong["failed_share"] == 1.0


def test_benchmark_json_names_what_the_harness_measures():
    benchmark = run.load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(rep.TIMED)
    assert benchmark["paths"] == [os.path.basename(run.BENCH_DIR)]
    assert "setup_s" in {m["name"] for m in benchmark["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in benchmark["end_to_end"])
