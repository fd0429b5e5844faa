"""The feed-source contract, written once and held by every source.

Two pieces, each one implementation:

* **subscription** (:class:`repro.feeds.interest.Subscribable`) — the
  route collector, both deployed streams, the archive, Periscope and a recorded
  source: a prefix filter, ``unsubscribe``, and a subscription whose
  ``active`` flag was cleared dropped from the index on the next lookup;
* **transport** (:class:`repro.feeds.health.Transport`) — both streams,
  the archive and a recorded source: ``reconnect()`` fails before the
  outage window ends and succeeds after it, ``restore_transport()`` ends
  an open-ended outage, and each outage is counted once.

Each rig returns a source and ``emit(prefix)``, which pushes one
announcement for ``prefix`` through that source's own delivery path.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.bgp.messages import Announcement, UpdateMessage
from repro.feeds.batch import BatchArchive
from repro.feeds.collector import RouteCollector
from repro.feeds.deploy import BGPMON_LATENCY, RIS_LATENCY
from repro.feeds.events import ANNOUNCE, FeedEvent
from repro.feeds.periscope import PeriscopeAPI
from repro.feeds.replay import RecordedSource
from repro.feeds.stream import StreamingService
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG

WATCHED = Prefix.parse("10.0.0.0/23")
OTHER = Prefix.parse("99.0.0.0/16")
VANTAGE = 3


def _announce(prefix):
    return UpdateMessage(VANTAGE, announcements=[Announcement(prefix, (VANTAGE, 666))])


def collector_rig():
    collector = RouteCollector("c0", Engine())
    return collector, lambda prefix: collector.deliver(VANTAGE, _announce(prefix))


def stream_rig(name, latency):
    # RIS live and BGPmon are one class; each rig is a deployed feed's data.
    engine = Engine()
    collector = RouteCollector("c0", engine)
    stream = StreamingService(engine, latency, SeededRNG(0).substream(name), name)
    stream.attach_collector(collector)

    def emit(prefix):
        collector.deliver(VANTAGE, _announce(prefix))
        engine.run_for(3600.0)  # past any latency these seeds draw

    return stream, emit


def archive_rig():
    engine = Engine()
    collector = RouteCollector("c0", engine)
    archive = BatchArchive(
        engine, update_interval=10.0, fetch_delay=Constant(1.0), publish_ribs=False
    )
    archive.attach_collector(collector)

    def emit(prefix):
        collector.deliver(VANTAGE, _announce(prefix))
        engine.run_for(20.0)  # one update file published and fetched

    return archive, emit


def periscope_rig():
    # Polling needs routers; drive Periscope's delivery step directly.
    engine = Engine()
    periscope = PeriscopeAPI(engine, [])
    lg = SimpleNamespace(name="lg0", asn=VANTAGE)
    return periscope, lambda prefix: periscope._deliver(
        lg, ANNOUNCE, prefix, (VANTAGE, 666), engine.now
    )


def recorded_rig():
    source = RecordedSource("ris", Engine())
    return source, lambda prefix: source.deliver(
        FeedEvent("ris", "ris-rrc00", VANTAGE, ANNOUNCE, prefix, (VANTAGE, 666), 0, 0)
    )


SUBSCRIBABLE = {
    "collector": collector_rig,
    "ris": lambda: stream_rig("ris", RIS_LATENCY),
    "bgpmon": lambda: stream_rig("bgpmon", BGPMON_LATENCY),
    "archive": archive_rig,
    "periscope": periscope_rig,
    "recorded": recorded_rig,
}
TRANSPORT = ("ris", "bgpmon", "archive", "recorded")


@pytest.fixture(params=sorted(SUBSCRIBABLE))
def subscribable(request):
    return SUBSCRIBABLE[request.param]()


@pytest.fixture(params=TRANSPORT)
def transport(request):
    source, _emit = SUBSCRIBABLE[request.param]()
    return source


class TestSubscription:
    def test_prefix_filter(self, subscribable):
        source, emit = subscribable
        watched, everything = [], []
        source.subscribe(lambda *delivery: watched.append(delivery), prefixes=[WATCHED])
        source.subscribe(lambda *delivery: everything.append(delivery))
        emit(WATCHED)
        emit(OTHER)
        assert len(watched) == 1
        assert len(everything) == 2

    def test_unsubscribe(self, subscribable):
        source, emit = subscribable
        gone, kept = [], []
        subscription = source.subscribe(
            lambda *delivery: gone.append(delivery), prefixes=[WATCHED]
        )
        source.subscribe(lambda *delivery: kept.append(delivery), prefixes=[WATCHED])
        source.unsubscribe(subscription)
        assert not subscription.active
        emit(WATCHED)
        assert gone == []
        assert len(kept) == 1

    def test_inactive_subscription_dropped_on_next_lookup(self, subscribable):
        # A second, active subscriber keeps streams and archives from
        # rejecting the observation before their delivery-time lookup.
        source, emit = subscribable
        gone, kept = [], []
        subscription = source.subscribe(
            lambda *delivery: gone.append(delivery), prefixes=[WATCHED]
        )
        source.subscribe(lambda *delivery: kept.append(delivery), prefixes=[WATCHED])
        subscription.active = False
        assert len(source._interest) == 2
        emit(WATCHED)
        assert gone == []
        assert len(kept) == 1
        assert len(source._interest) == 1


class TestTransport:
    def test_reconnect_fails_until_the_window_ends(self, transport):
        engine = transport.engine
        end = engine.now + 10.0
        transport.disconnect(down_until=end)
        assert not transport.transport_up
        engine.run(until=end - 0.5)
        assert not transport.reconnect()
        engine.run(until=end)
        assert transport.reconnect()
        assert transport.transport_up
        assert transport.last_activity_at == end

    def test_restore_transport_ends_an_open_outage(self, transport):
        engine = transport.engine
        transport.disconnect()
        engine.run(until=engine.now + 1000.0)
        assert not transport.reconnect()
        transport.restore_transport()
        assert transport.transport_up
        assert transport.last_activity_at == engine.now

    def test_each_outage_counted_once(self, transport):
        transport.disconnect(down_until=5.0)
        transport.disconnect()  # already down: the same outage
        assert transport.outages == 1
        transport.restore_transport()
        transport.disconnect()
        assert transport.outages == 2
