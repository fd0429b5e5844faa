"""The plane's line entry: ``ingest_lines`` ≡ ``ingest(parse_event(line))``.

Contracts under test (see DESIGN.md "Detection plane", "Record decoder
contract"):

* however a list of well-formed lines is cut into ``ingest_lines`` calls,
  the plane ends up exactly where ``ingest(parse_event(line))`` one line at
  a time leaves it — digest, incident rows, batch boundaries, prune
  cadence, verdict-cache traffic, probe calls, notifications — for any
  batch size, with a corroborator probe (per-batch cache lifetime), with
  byte-identical duplicate lines, and across a registry edit between two
  calls (epoch invalidation);
* building the event only for a record that carries a verdict skips no
  check: a damaged copy of a line whose verdict and lead are already
  cached raises, through ``load_trace``, ``ingest_lines`` and a detection
  worker, the ``FeedError`` text a cold decoder gives ``parse_event``.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.errors import FeedError
from repro.feeds.dumpfile import parse_event
from repro.feeds.replay import TraceError, load_trace
from repro.perf import COUNTERS
from repro.tenants import DetectionPlane, TenantRegistry, frames
from repro.tenants.workers import tenant_worker_main

from test_decoder import GOOD, HOSTILE, clear_decoder_tables, seal
from test_tenants import two_tenant_registry

# -------------------------------------------------------------- equivalence

#: Monitored (/23 and its /24s, a sub-prefix) and unmonitored space.
_PREFIXES = ["10.0.0.0/23", "10.0.0.0/24", "10.0.1.0/24", "10.0.0.0/25", "192.0.2.0/24"]
#: Legitimate, wrong-origin, wrong-upstream and single-hop paths ("" on W).
_PATHS = ["64600 65001", "64600 65002", "64600 666", "1 65001", "666", "65001", "65002"]

_LINES = st.builds(
    lambda kind, source, vantage, prefix, path, observed, lag: "|".join(
        [kind, source, "rrc00", str(vantage), prefix, path if kind == "A" else "",
         repr(observed), repr(observed + lag)]
    ),
    st.sampled_from(["A", "A", "A", "W"]),
    st.sampled_from(["ris", "bgpmon"]),
    st.integers(min_value=100, max_value=102),
    st.sampled_from(_PREFIXES),
    st.sampled_from(_PATHS),
    st.floats(min_value=0.0, max_value=50.0).map(lambda t: round(t, 2)),
    st.sampled_from([0.0, 0.25, 30.0]),
)

#: What the two spellings must agree on, beyond the incidents themselves.
_COUNTED = (
    "pipeline_events_ingested",
    "pipeline_batches",
    "pipeline_trie_walks",
    "pipeline_queue_depth_peak",
    "pipeline_backpressure_stalls",
    "verdict_cache_hits",
    "verdict_cache_misses",
    "verdict_cache_evictions",
    "duplicate_evidence_skipped",
    "notifier_alerts_dropped",
    "autoignore_suppressed",
)


def _edit(registry):
    """A rule edit that changes verdicts: 666 becomes 10.0.0.0/24's owner."""
    registry.add_tenant("gamma", ArtemisConfig([OwnedPrefix("10.0.0.0/24", [666])]))


def _replay(lines, cuts, by_line, batch_size, cache_size, capacity, probed, edit_at):
    """Run ``lines`` through a fresh plane; everything observable about it."""
    registry = two_tenant_registry(cooldown_a=5.0, cooldown_b=5.0)
    probes = []

    def probe(prefix):
        probes.append(prefix)
        return prefix.length % 2 == 0

    COUNTERS.reset()
    plane = DetectionPlane(
        registry,
        batch_size=batch_size,
        queue_capacity=capacity,
        notifier_capacity=4,
        verdict_cache_size=cache_size,
        corroborator=probe if probed else None,
    )
    sweeps = []
    prune_state = plane.prune_state
    plane.prune_state = lambda now=None: sweeps.append(now) or prune_state(now)
    start = 0
    for stop in sorted({*cuts, len(lines)} | ({edit_at} - {None})):
        if by_line:
            for text in lines[start:stop]:
                plane.ingest(parse_event(text))
        else:
            plane.ingest_lines(lines[start:stop])
        if stop == edit_at:
            _edit(registry)
        start = stop
    plane.flush()
    return {
        "digest": plane.digest(),
        "rows": plane.incident_rows(),
        "events_ingested": plane.events_ingested,
        "batches_drained": plane.batches_drained,
        "duplicates": plane.duplicate_events_skipped,
        "last_event_time": plane._last_event_time,
        "sweeps": sweeps,
        "probes": probes,
        "notified": [(tenant, alert.key) for tenant, alert in plane.drain_notifications()],
        "counters": {name: getattr(COUNTERS, name) for name in _COUNTED},
    }


@settings(max_examples=120, deadline=None)
@given(
    base=st.lists(_LINES, min_size=1, max_size=40),
    repeats=st.sampled_from([1, 1, 2, 30, 120]),
    batch_size=st.sampled_from([1, 7, 256, 1024]),
    cache_size=st.sampled_from([2, 65536]),
    capacity=st.sampled_from([3, 8192]),
    probed=st.booleans(),
    data=st.data(),
)
def test_any_cut_into_calls_equals_one_line_at_a_time(
    base, repeats, batch_size, cache_size, capacity, probed, data
):
    # Repeating the block makes byte-identical duplicate lines the common
    # case, and takes the list past a 1024 batch and a 4096-event sweep.
    lines = base * repeats
    positions = st.integers(min_value=0, max_value=len(lines))
    cuts = data.draw(st.lists(positions, max_size=6), label="cuts")
    edit_at = data.draw(st.one_of(st.none(), positions), label="registry edit at")
    shape = (batch_size, cache_size, capacity, probed, edit_at)
    expected = _replay(lines, cuts, True, *shape)
    assert _replay(lines, cuts, False, *shape) == expected
    # ... and neither depends on where the calls were cut.
    assert _replay(lines, [], False, *shape) == expected


def test_lines_and_events_interleave_in_one_queue():
    """A partial batch left by either entry is finished by the other."""
    lines = [
        f"A|ris|rrc00|100|10.0.0.0/24|64600 {origin}|{t}.0|{t}.5"
        for t, origin in enumerate([65002, 666, 65002, 667, 65002, 668, 65002])
    ]

    def run(feed):
        COUNTERS.reset()
        plane = DetectionPlane(two_tenant_registry(), batch_size=4)
        feed(plane)
        plane.flush()
        return plane.digest(), plane.batches_drained, COUNTERS.verdict_cache_misses

    def one_by_one(plane):
        for text in lines:
            plane.ingest(parse_event(text))

    def mixed(plane):
        plane.ingest_lines(lines[:3])  # waits in the queue
        plane.ingest(parse_event(lines[3]))  # ... and this event drains it
        plane.ingest(parse_event(lines[4]))
        plane.ingest_lines(lines[5:])  # two lines top the batch up; flush takes none

    assert run(mixed) == run(one_by_one)
    assert run(mixed)[1] == 2


def test_an_iterator_is_consumed_once_and_no_further_than_given():
    plane = DetectionPlane(two_tenant_registry(), batch_size=2)
    source = iter([GOOD] * 5)
    plane.ingest_lines(source)
    assert next(source, None) is None
    assert (plane.events_ingested, plane.batches_drained) == (5, 2)
    plane.ingest_lines(iter(()))
    assert (plane.events_ingested, plane.batches_drained) == (5, 2)


def test_prune_state_defaults_to_the_last_event_time():
    plane = DetectionPlane(two_tenant_registry(cooldown_a=5.0, cooldown_b=5.0), batch_size=1)
    plane.state_retention = 100.0
    plane.ingest_lines(["A|ris|rrc00|100|10.0.0.0/24|1 666|0.5|1.0"])
    for manager in plane.alert_managers().values():
        manager.alerts[0].resolve(2.0)
    assert plane.prune_state() == 0  # "now" is 1.0: nothing has expired
    plane.ingest_lines(["A|ris|rrc00|100|192.0.2.0/24|1 2|199.5|200.0"])
    assert plane.prune_state() == 4
    assert plane.detection_state_entries() == 0


# ------------------------------------------------ laziness skips no check


def warm_registry():
    """One tenant for whom ``GOOD`` is benign: its verdict caches as ()."""
    registry = TenantRegistry()
    registry.add_tenant("owner", ArtemisConfig([OwnedPrefix("10.0.0.0/24", [3])]))
    return registry


def feed_error_text(bad):
    """The cold decoder's text for ``bad``: no lead, prefix or path warm."""
    clear_decoder_tables()
    with pytest.raises(FeedError) as caught:
        parse_event(bad)
    return str(caught.value)


@pytest.mark.parametrize("bad", HOSTILE.values(), ids=HOSTILE.keys())
class TestHostileLinesBehindAWarmCache:
    """Three benign copies of the line, then the damaged copy."""

    def test_load_trace(self, bad, tmp_path):
        path = tmp_path / "hostile.trace"
        path.write_text(seal([GOOD, GOOD, GOOD, bad]), encoding="utf-8")
        with pytest.raises(TraceError) as caught:
            load_trace(str(path))
        assert str(caught.value) == f"bad record at line 5: {feed_error_text(bad)}"

    # Batch 1: the benign copies are judged, and cached, before the damaged
    # one is read.  Batch 4: all four are one block of one batch.
    @pytest.mark.parametrize("batch_size", [1, 4, 256])
    def test_ingest_lines(self, bad, batch_size):
        COUNTERS.reset()
        plane = DetectionPlane(warm_registry(), batch_size=batch_size)
        with pytest.raises(FeedError) as caught:
            plane.ingest_lines([GOOD, GOOD, GOOD, bad])
        assert str(caught.value) == feed_error_text(bad)
        assert type(caught.value) is FeedError
        if batch_size == 1:
            assert (COUNTERS.verdict_cache_misses, COUNTERS.verdict_cache_hits) == (1, 2)
        assert plane.total_alerts() == 0

    def test_worker(self, bad):
        registry = warm_registry()
        parent_conn, child_conn = multiprocessing.Pipe()
        thread = threading.Thread(
            target=tenant_worker_main,
            args=(0, registry, 1, child_conn),
            daemon=True,
        )
        thread.start()
        lines = [text.encode("utf-8") for text in (GOOD, GOOD, GOOD, bad)]
        parent_conn.send_bytes(frames.encode_batch(1, lines))
        # A worker that accepts the line waits for the next frame: no reply.
        assert parent_conn.poll(10.0), "the worker accepted the damaged line"
        assert parent_conn.recv() == ("error", repr(FeedError(feed_error_text(bad))))
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def test_a_cached_benign_verdict_builds_no_event(monkeypatch):
    """The point of the line entry: no verdict, no ``FeedEvent``."""
    built = []
    real = DetectionPlane.ingest_lines.__globals__["validated_event"]
    monkeypatch.setitem(
        DetectionPlane.ingest_lines.__globals__,
        "validated_event",
        lambda record: built.append(record) or real(record),
    )
    hijack = GOOD.replace("1 2 3", "1 2 666")
    plane = DetectionPlane(warm_registry(), batch_size=2)
    plane.ingest_lines([GOOD, GOOD, hijack, GOOD, GOOD, GOOD])
    assert len(built) == 1 and built[0][2] == (1, 2, 666)  # (lead, prefix, path, ...)
    assert plane.total_alerts() == 1
    plane.ingest_lines([hijack])  # a tail waits as a record: judged at the boundary
    assert len(built) == 1
    plane.flush()
    assert len(built) == 2
