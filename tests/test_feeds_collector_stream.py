"""Tests for route collectors and streaming services."""

import pytest

from repro.errors import FeedError
from repro.feeds.collector import RouteCollector
from repro.feeds.deploy import (
    BGPMON_LATENCY,
    RIS_LATENCY,
    deploy_monitors,
    vantages,
    wire_collectors,
)
from repro.feeds.events import FeedEvent
from repro.feeds.stream import StreamingService
from repro.net.prefix import Prefix
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG


def P(text):
    return Prefix.parse(text)


class TestFeedEvent:
    def make(self, **kw):
        defaults = dict(
            source="ris",
            collector="rrc00",
            vantage_asn=3,
            kind="A",
            prefix=P("10.0.0.0/23"),
            as_path=(3, 2, 1),
            observed_at=10.0,
            delivered_at=15.0,
        )
        defaults.update(kw)
        return FeedEvent(**defaults)

    def test_fields(self):
        event = self.make()
        assert event.origin_as == 1
        assert event.latency == 5.0
        assert event.is_announcement

    def test_withdraw_event(self):
        event = self.make(kind="W", as_path=())
        assert event.origin_as is None
        assert not event.is_announcement

    def test_invalid_kind(self):
        with pytest.raises(FeedError):
            self.make(kind="X")

    def test_announce_needs_path(self):
        with pytest.raises(FeedError):
            self.make(as_path=())

    def test_time_travel_rejected(self):
        with pytest.raises(FeedError):
            self.make(delivered_at=5.0)


class TestCollector:
    def test_receives_and_records(self, net7):
        collector = RouteCollector("rrc-test", net7.engine)
        collector.register_vantage(3)
        net7.add_monitor_session(3, collector)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        assert collector.observations > 0
        snapshot = collector.rib_snapshot()
        assert any(prefix == P("10.0.0.0/23") for _v, prefix, _p in snapshot)

    def test_withdraw_clears_table(self, net7):
        collector = RouteCollector("rrc-test", net7.engine)
        net7.add_monitor_session(3, collector)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.speaker(6).withdraw_origin(P("10.0.0.0/23"))
        net7.run_until_converged()
        assert collector.rib_snapshot() == []

    def test_observer_callback(self, net7):
        collector = RouteCollector("rrc-test", net7.engine)
        seen = []
        collector.subscribe(
            lambda c, vantage, kind, prefix, path, when: seen.append(
                (vantage, kind, prefix)
            )
        )
        net7.add_monitor_session(3, collector)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        assert (3, "A", P("10.0.0.0/23")) in seen

    def test_duplicate_vantage_rejected(self, net7):
        collector = RouteCollector("rrc-test", net7.engine)
        collector.register_vantage(3)
        with pytest.raises(FeedError):
            collector.register_vantage(3)

    def test_unique_pseudo_asns(self, net7):
        a = RouteCollector("a", net7.engine)
        b = RouteCollector("b", net7.engine)
        assert a.asn != b.asn


class TestStreamingService:
    def _service(self, net, latency=5.0):
        service = StreamingService(net.engine, Constant(latency), SeededRNG(0), "test")
        collector = RouteCollector("c0", net.engine)
        service.attach_collector(collector)
        net.add_monitor_session(3, collector)
        return service

    def test_latency_applied(self, net7):
        service = self._service(net7, latency=5.0)
        events = []
        service.subscribe(events.append)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(10.0)
        assert events
        assert all(e.latency == 5.0 for e in events)
        assert all(e.source == "test" for e in events)

    def test_prefix_filter(self, net7):
        service = self._service(net7)
        watched, all_events = [], []
        service.subscribe(watched.append, prefixes=[P("10.0.0.0/23")])
        service.subscribe(all_events.append)
        net7.announce(6, "10.0.0.0/23")
        net7.announce(6, "99.0.0.0/16")
        net7.run_until_converged()
        net7.run_for(10.0)
        assert {e.prefix for e in watched} == {P("10.0.0.0/23")}
        assert {e.prefix for e in all_events} == {P("10.0.0.0/23"), P("99.0.0.0/16")}

    def test_filter_matches_overlap_both_directions(self, net7):
        service = self._service(net7)
        events = []
        # Watch a /23: a hijacked more-specific /24 AND a covering /16 both match.
        service.subscribe(events.append, prefixes=[P("10.0.0.0/23")])
        net7.announce(6, "10.0.0.0/24")
        net7.announce(6, "10.0.0.0/16")
        net7.run_until_converged()
        net7.run_for(10.0)
        assert {e.prefix for e in events} == {P("10.0.0.0/24"), P("10.0.0.0/16")}

    def test_unsubscribe(self, net7):
        service = self._service(net7)
        events = []
        subscription = service.subscribe(events.append)
        service.unsubscribe(subscription)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(10.0)
        assert events == []

    def test_no_subscriber_no_publication_machinery(self, net7):
        service = self._service(net7)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        assert service.events_published > 0
        assert service.events_delivered == 0

    def test_double_attach_rejected(self, net7):
        service = StreamingService(net7.engine, Constant(1.0))
        collector = RouteCollector("c1", net7.engine)
        service.attach_collector(collector)
        with pytest.raises(FeedError):
            service.attach_collector(collector)


class TestDeployHelpers:
    def test_wire_collectors_round_robins_in_session_order(self, net7):
        service = StreamingService(net7.engine, Constant(1.0))
        opened = []
        open_session = net7.add_monitor_session

        def record(vantage, box):
            opened.append((vantage, box.name, list(box.vantage_asns)))
            return open_session(vantage, box)

        net7.add_monitor_session = record
        assert wire_collectors(net7, service, ["a", "b"], [5, 1, 4, 2, 3]) is service
        assert [box.name for box in service.collectors] == ["a", "b"]
        assert [box.vantage_asns for box in service.collectors] == [[5, 4, 3], [1, 2]]
        # Each vantage is registered, then its session opened, in list order.
        assert opened == [
            (5, "a", [5]), (1, "b", [1]), (4, "a", [5, 4]), (2, "b", [1, 2]),
            (3, "a", [5, 4, 3]),
        ]

    def test_ris_deploy_round_robins_collectors(self, net7):
        deployment = deploy_monitors(
            net7, num_ris_vantages=5, num_bgpmon_vantages=2, num_lgs=1,
            with_batch=False,
        )
        ris = deployment.ris
        assert (ris.name, ris.latency) == ("ris", RIS_LATENCY)
        assert [box.name for box in ris.collectors] == [
            "ris-rrc00", "ris-rrc01", "ris-rrc02",
        ]
        picked = vantages(ris)
        assert [box.vantage_asns for box in ris.collectors] == [
            picked[0::3], picked[1::3], picked[2::3],
        ]

    @pytest.mark.parametrize("count, boxes", [(0, 1), (2, 2)])
    def test_ris_collectors_capped_at_vantage_count(self, net7, count, boxes):
        deployment = deploy_monitors(
            net7, num_ris_vantages=count, num_bgpmon_vantages=1, num_lgs=1,
            with_batch=False,
        )
        assert len(deployment.ris.collectors) == boxes

    def test_bgpmon_deploy_single_collector(self, net7):
        deployment = deploy_monitors(
            net7, num_ris_vantages=1, num_bgpmon_vantages=3, num_lgs=1,
            with_batch=False,
        )
        bgpmon = deployment.bgpmon
        assert (bgpmon.name, bgpmon.latency) == ("bgpmon", BGPMON_LATENCY)
        assert [box.name for box in bgpmon.collectors] == ["bgpmon-collector"]
        assert bgpmon.collectors[0].vantage_asns == vantages(bgpmon)
        assert len(vantages(bgpmon)) == 3

    def test_deployed_stream_sees_announcements(self, net7):
        service = wire_collectors(
            net7, StreamingService(net7.engine, Constant(1.0)), ["c0"], [1, 2]
        )
        events = []
        service.subscribe(events.append, prefixes=[P("10.0.0.0/23")])
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(5.0)
        assert {e.vantage_asn for e in events} == {1, 2}
