"""A loaded trace is record columns; ``Trace.events`` builds each event on access.

The contract under test (see DESIGN.md "Record decoder contract" and
"Replay resident set"):

* ``trace.events`` is a read-only sequence: every index, negative index,
  slice (steps and empty ranges included) and full iteration gives, field
  for field and with exact types, ``parse_event`` of the same record line;
  an index out of range is an ``IndexError``, a slice is a list, and
  ``len`` and ``bool`` agree with the footer's record count;
* events are built fresh on every access, so identity is not preserved;
* a load holds no event objects — at most 64 B per record, traced, and no
  ``FeedEvent`` tracked by the collector after loading the recorded fixture;
* ``span()`` is the extent of the delivery times, in whatever order they
  come;
* a ``ReplayTap`` holds none of this: its traced peak does not grow with
  the trace's length.
"""

from __future__ import annotations

import gc
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.feeds.dumpfile import parse_event
from repro.feeds.events import ANNOUNCE, WITHDRAW, FeedEvent
from repro.feeds.replay import (
    ReplayTap,
    TraceEvents,
    TraceWriter,
    _RecordReader,
    iter_trace_lines,
    load_trace,
)
from repro.net.prefix import Prefix

from test_decoder import write_trace
from test_tenants import write_mini_trace

#: A trace recorded from a seeded experiment (three sources, embedded config).
RECORDED = os.path.join(os.path.dirname(__file__), "fixtures", "recorded_s4.trace")

PREFIX = Prefix.parse("10.0.0.0/23")


def write_backstep_trace(path):
    """Twelve records half a second after observation, one withdrawal among
    them, then a last record whose delivery time steps back 9 s."""
    with TraceWriter(str(path)) as writer:
        for i in range(12):
            withdrawn = i == 5
            writer.append(
                FeedEvent("ris", "ris-rrc0", 100 + i, WITHDRAW if withdrawn else ANNOUNCE,
                          PREFIX, () if withdrawn else (100 + i, 666), float(i), i + 0.5)
            )
        writer.append(FeedEvent("bgpmon", "bgpmon-0", 99, ANNOUNCE, PREFIX,
                                (99, 666), 2.0, 11.5 - 9.0))
    return str(path)


def footer_records(path):
    with open(path, "r", encoding="utf-8") as handle:
        last = handle.read().splitlines()[-1]
    return json.loads(last[len("#%END "):])["records"]


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Name -> (loaded trace, its record lines, the footer's record count)."""
    folder = tmp_path_factory.mktemp("columns")
    empty = str(folder / "empty.trace")
    TraceWriter(empty).close()
    paths = {
        "mini": write_mini_trace(folder / "mini.trace"),
        "decoder": write_trace(folder / "decoder.trace"),
        "recorded": RECORDED,
        "backstep": write_backstep_trace(folder / "backstep.trace"),
        "empty": empty,
    }
    return {
        name: (load_trace(path), list(iter_trace_lines(path)), footer_records(path))
        for name, path in paths.items()
    }


def fields(event):
    """Every field of ``event``, and the exact type of each and of each hop."""
    values = tuple(getattr(event, name) for name in FeedEvent.__slots__)
    return (
        type(event),
        values,
        tuple(map(type, values)),
        tuple(map(type, event.as_path)),
    )


_SLICE_BOUND = st.one_of(st.none(), st.integers(min_value=-400, max_value=400))
_STEP = st.one_of(st.none(), st.integers(min_value=-5, max_value=5).filter(bool))


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(["mini", "decoder", "recorded", "backstep", "empty"]),
    data=st.data(),
)
def test_every_access_is_parse_event_of_its_line(traces, name, data):
    trace, lines, count = traces[name]
    events = trace.events
    expected = [fields(parse_event(line)) for line in lines]
    assert isinstance(events, TraceEvents)
    assert len(events) == len(trace) == count == len(expected)
    assert bool(events) is (count > 0)
    bound = 2 * count + 2
    for _ in range(data.draw(st.integers(min_value=1, max_value=8), label="accesses")):
        if data.draw(st.booleans(), label="slice"):
            window = slice(
                data.draw(_SLICE_BOUND, label="start"),
                data.draw(_SLICE_BOUND, label="stop"),
                data.draw(_STEP, label="step"),
            )
            got = events[window]
            assert type(got) is list
            assert [fields(event) for event in got] == expected[window]
        else:
            index = data.draw(st.integers(min_value=-bound, max_value=bound), label="index")
            if -count <= index < count:
                assert fields(events[index]) == expected[index]
            else:
                with pytest.raises(IndexError):
                    events[index]


def test_two_full_iterations_build_fresh_equal_events(traces):
    for trace, lines, _count in traces.values():
        first, second = list(trace.events), list(trace.events)
        expected = [fields(parse_event(line)) for line in lines]
        assert [fields(event) for event in first] == expected
        assert [fields(event) for event in second] == expected
        # Identity is not preserved: every access is a new object.
        assert all(a is not b for a, b in zip(first, second))


def test_the_view_is_read_only(traces):
    events = traces["mini"][0].events
    with pytest.raises(TypeError):
        events[0] = events[1]
    with pytest.raises(AttributeError):
        events.extra = 1


def test_trace_bytes_per_record_ceiling(tmp_path):
    """What a load keeps per record: three references and two doubles,
    ≈40 B — an event object (96 B) or a boxed float (24 B) re-materialised
    per record breaks the ceiling."""
    path = write_mini_trace(tmp_path / "long.trace", rounds=6400)  # 51,200 records
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = load_trace(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 51_200
    assert held / len(trace) <= 64, f"{held / len(trace):.1f} B per record"


def test_a_loaded_recording_holds_columns_not_events():
    """Right after a load of the committed recording the collector tracks
    no FeedEvent the load made, and the view's length is the footer's
    record count."""
    gc.collect()
    before = sum(type(o) is FeedEvent for o in gc.get_objects())
    trace = load_trace(RECORDED)
    tracked = sum(type(o) is FeedEvent for o in gc.get_objects()) - before
    assert tracked == 0
    assert len(trace.events) == footer_records(RECORDED) == 72


def test_span_is_the_extent_of_unordered_delivery_times(tmp_path):
    trace = load_trace(write_backstep_trace(tmp_path / "backstep.trace"))
    # First delivery 0.5, latest 11.5, last record 2.5: the extent is 11 s,
    # not last minus first.
    assert trace.span() == 11.0
    assert "span=11.0s" in repr(trace)
    assert trace.source_names() == ("bgpmon", "ris")


def test_span_of_one_record_is_zero(tmp_path):
    path = str(tmp_path / "one.trace")
    with TraceWriter(path) as writer:
        writer.append(FeedEvent("ris", "c", 1, ANNOUNCE, PREFIX, (1, 2), 3.0, 4.0))
    assert load_trace(path).span() == 0.0


def traced(action):
    """Bytes ``action()`` leaves live and its peak, both traced above what
    was live when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        held, peak = tracemalloc.get_traced_memory()
        return held - before, peak - before
    finally:
        tracemalloc.stop()


def tap_replay(path):
    """``ReplayTap(path).run()`` with one no-op subscriber per source."""
    tap = ReplayTap(path)
    for source in tap.sources.values():
        source.subscribe(lambda event: None)
    tap.run()
    assert tap.finished and tap.records_read == tap.records


def test_tap_peak_memory_is_constant_in_trace_length(tmp_path, monkeypatch):
    """The tap holds one block of records, never the trace.  Blocks shrink
    to 16 KiB (≈230 records) so test-sized traces span many of them: a
    trace 8x longer peaks within 1.25x as high, and below what
    ``load_trace`` keeps of it."""
    monkeypatch.setattr(_RecordReader, "BLOCK", 1 << 14)
    short = write_mini_trace(tmp_path / "short.trace", rounds=200)  # 1,600 records
    long = write_mini_trace(tmp_path / "long.trace", rounds=1600)  # 12,800 records
    tap_replay(short)  # warm the decoder's tables
    _, short_peak = traced(lambda: tap_replay(short))
    _, long_peak = traced(lambda: tap_replay(long))
    loaded = []
    load_held, _ = traced(lambda: loaded.append(load_trace(long)))
    assert long_peak <= 1.25 * short_peak, (short_peak, long_peak)
    assert long_peak < load_held, (long_peak, load_held)
    # The replay delivered every record, in file order.
    seen = []
    tap = ReplayTap(long)
    for source in tap.sources.values():
        source.subscribe(seen.append)
    tap.run()
    assert [e.content_key() for e in seen] == [e.content_key() for e in loaded[0].events]
