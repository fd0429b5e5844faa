"""Tests for the feed-event record codec, trace archives and offline replay."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.errors import FeedError
from repro.feeds.dumpfile import format_event, parse_event
from repro.feeds.events import FeedEvent
from repro.feeds.replay import ReplaySession, TraceRecorder, TraceWriter, load_trace
from repro.net.prefix import Prefix


def P(text):
    return Prefix.parse(text)


def make_event(kind="A", prefix="10.0.0.0/23", path=(3, 2, 666), t=10.0):
    return FeedEvent(
        source="ris", collector="rrc00", vantage_asn=3, kind=kind,
        prefix=P(prefix), as_path=path, observed_at=t - 1.5, delivered_at=t,
    )


class TestLineFormat:
    def test_roundtrip_announce(self):
        event = make_event()
        back = parse_event(format_event(event))
        assert back.kind == event.kind
        assert back.prefix == event.prefix
        assert back.as_path == event.as_path
        assert back.observed_at == event.observed_at
        assert back.delivered_at == event.delivered_at

    def test_roundtrip_withdraw(self):
        event = make_event(kind="W", path=())
        back = parse_event(format_event(event))
        assert back.kind == "W"
        assert back.as_path == ()

    def test_roundtrip_exact_floats(self):
        event = make_event(t=123.456789012345)
        assert parse_event(format_event(event)).delivered_at == event.delivered_at

    @pytest.mark.parametrize(
        "bad",
        [
            "A|ris|c0|3|10.0.0.0/23|3 2 1|1.0",          # too few fields
            "Z|ris|c0|3|10.0.0.0/23|3 2 1|1.0|2.0",      # bad kind
            "A|ris|c0|x|10.0.0.0/23|3 2 1|1.0|2.0",      # bad vantage
            "A|ris|c0|3|10.0.0.0/23|3 2 1|one|2.0",      # bad timestamp
        ],
    )
    def test_malformed_lines(self, bad):
        with pytest.raises(FeedError):
            parse_event(bad)


class TestFileIO:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "dump.trace")
        events = [make_event(t=float(t)) for t in range(5, 10)]
        with TraceWriter(path) as writer:
            for event in events:
                writer.append(event)
        assert writer.records == 5
        loaded = load_trace(path).events
        assert [e.delivered_at for e in loaded] == [e.delivered_at for e in events]

    def test_stream_objects(self):
        buffer = io.StringIO()
        with TraceWriter(buffer) as writer:
            writer.append(make_event())
        buffer.seek(0)
        assert len(load_trace(buffer)) == 1


class TestRecorder:
    def test_records_from_live_source(self, net7, tmp_path):
        from conftest import ris_stream

        stream = ris_stream(net7, [3, 4])
        recorder = TraceRecorder(str(tmp_path / "live.trace"))
        recorder.attach(stream)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(5.0)
        recorder.close()
        assert recorder.records > 0

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "rec.trace")
        recorder = TraceRecorder(path)
        recorder(make_event(t=1.0))
        recorder(make_event(t=2.0))
        recorder.close()
        assert len(load_trace(path)) == 2

    def test_offline_replay_detects(self, tmp_path):
        # Archive a hijack observation, re-run detection offline.
        path = str(tmp_path / "hijack.trace")
        recorder = TraceRecorder(path)
        recorder(make_event(path=(3, 64500), t=1.0))   # legit
        recorder(make_event(path=(3, 666), t=2.0))     # hijack evidence
        recorder.close()
        config = ArtemisConfig([OwnedPrefix("10.0.0.0/23", {64500})])
        session = ReplaySession(path, config=config)
        assert session.run()["records_read"] == 2
        assert len(session.alerts) == 1
        assert session.alerts[0].offender_asn == 666


path_elements = st.lists(
    st.integers(min_value=1, max_value=(1 << 32) - 1), min_size=1, max_size=6
)


@given(
    path_elements,
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
    st.floats(min_value=0, max_value=1e7, allow_nan=False),
)
def test_roundtrip_property(path, value, length, observed):
    event = FeedEvent(
        source="src", collector="col", vantage_asn=path[0], kind="A",
        prefix=Prefix(value, length, 4), as_path=tuple(path),
        observed_at=observed, delivered_at=observed + 1.25,
    )
    back = parse_event(format_event(event))
    assert back.prefix == event.prefix
    assert back.as_path == event.as_path
    assert back.observed_at == event.observed_at
