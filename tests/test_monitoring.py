"""Tests for the ARTEMIS monitoring service."""

import pytest

from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.core.monitoring import MonitoringService, VantageState
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix


def P(text):
    return Prefix.parse(text)


def event(prefix, path, t, vantage=3, kind="A", source="ris"):
    return FeedEvent(
        source=source, collector="c0", vantage_asn=vantage, kind=kind,
        prefix=P(prefix), as_path=tuple(path),
        observed_at=t - 0.5, delivered_at=t,
    )


def make_service():
    config = ArtemisConfig([OwnedPrefix("10.0.0.0/23", {64500})])
    return MonitoringService(config)


class TestVantageState:
    def test_probe_origins_longest_match(self):
        state = VantageState(3)
        state.apply(event("10.0.0.0/23", (3, 64500), t=1.0))
        assert state.probe_origins(P("10.0.0.0/23")) == (64500, 64500)
        state.apply(event("10.0.0.0/24", (3, 666), t=2.0))
        # The hijacked /24 wins longest-match on its half only.
        assert state.probe_origins(P("10.0.0.0/23")) == (666, 64500)

    def test_withdraw_removes_route(self):
        state = VantageState(3)
        state.apply(event("10.0.0.0/23", (3, 64500), t=1.0))
        state.apply(event("10.0.0.0/23", (), t=2.0, kind="W"))
        assert state.probe_origins(P("10.0.0.0/23")) == (None, None)
        assert state.origin_for_address(P("10.0.0.0/24").network) is None

    def test_routes_listing(self):
        state = VantageState(3)
        state.apply(event("10.0.0.0/23", (3, 64500), t=1.0))
        assert state.routes() == [(P("10.0.0.0/23"), 64500, (3, 64500))]


class TestMonitoringService:
    def test_hijack_flips_vantage(self):
        service = make_service()
        service.handle_event(event("10.0.0.0/23", (3, 64500), t=1.0))
        assert service.fraction_legitimate(P("10.0.0.0/23")) == 1.0
        service.handle_event(event("10.0.0.0/23", (3, 666), t=2.0))
        assert service.fraction_legitimate(P("10.0.0.0/23")) == 0.0
        assert service.hijacked_vantages(P("10.0.0.0/23")) == [3]

    def test_fraction_across_vantages(self):
        service = make_service()
        service.handle_event(event("10.0.0.0/23", (3, 64500), t=1.0, vantage=3))
        service.handle_event(event("10.0.0.0/23", (4, 64500), t=1.5, vantage=4))
        service.handle_event(event("10.0.0.0/23", (5, 666), t=2.0, vantage=5))
        assert service.fraction_legitimate(P("10.0.0.0/23")) == pytest.approx(2 / 3)

    def test_mitigation_visible_via_more_specific(self):
        service = make_service()
        service.handle_event(event("10.0.0.0/23", (3, 666), t=1.0))
        assert service.fraction_legitimate(P("10.0.0.0/23")) == 0.0
        # De-aggregated /24s arrive: effective origin flips back.
        service.handle_event(event("10.0.0.0/24", (3, 64500), t=2.0))
        service.handle_event(event("10.0.1.0/24", (3, 64500), t=2.1))
        assert service.fraction_legitimate(P("10.0.0.0/23")) == 1.0

    def test_transitions_logged_once_per_flip(self):
        service = make_service()
        service.handle_event(event("10.0.0.0/23", (3, 64500), t=1.0))
        service.handle_event(event("10.0.0.0/23", (3, 2, 64500), t=2.0))  # same origin
        service.handle_event(event("10.0.0.0/23", (3, 666), t=3.0))
        origins = [origin for _t, _v, _p, origin in service.transitions]
        assert origins == [64500, 666]

    def test_fraction_series_replay(self):
        service = make_service()
        service.handle_event(event("10.0.0.0/23", (3, 64500), t=1.0, vantage=3))
        service.handle_event(event("10.0.0.0/23", (4, 64500), t=2.0, vantage=4))
        service.handle_event(event("10.0.0.0/23", (3, 666), t=3.0, vantage=3))
        # Half-recovered is still hijacked (representative = offender) ...
        service.handle_event(event("10.0.0.0/24", (3, 64500), t=4.0, vantage=3))
        # ... until both halves are covered by legit more-specifics.
        service.handle_event(event("10.0.1.0/24", (3, 64500), t=5.0, vantage=3))
        series = service.fraction_series(P("10.0.0.0/23"))
        assert series == [
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 0.5),
            (5.0, 1.0),
        ]

    def test_unrelated_events_ignored_for_owned_view(self):
        service = make_service()
        service.handle_event(event("99.0.0.0/16", (3, 1), t=1.0))
        assert service.transitions == []

    def test_origin_by_vantage(self):
        service = make_service()
        service.handle_event(event("10.0.0.0/23", (3, 64500), t=1.0, vantage=3))
        service.handle_event(event("10.0.0.0/23", (4, 666), t=2.0, vantage=4))
        assert service.origin_by_vantage(P("10.0.0.0/23")) == {3: 64500, 4: 666}

    def test_fraction_empty_when_no_reports(self):
        service = make_service()
        assert service.fraction_legitimate(P("10.0.0.0/23")) == 0.0

    def test_live_subscription(self, net7):
        # End-to-end: monitoring fed by a real stream on a real network.
        from conftest import ris_stream

        service = make_service()
        stream = ris_stream(net7, [3, 4])
        subscription = stream.subscribe(
            service.handle_event, prefixes=service.config.owned_prefixes
        )
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(5.0)
        # Vantages report the path origin 6 — not in the legit set {64500}.
        assert service.fraction_legitimate(P("10.0.0.0/23")) == 0.0
        assert set(service.vantages) == {3, 4}
        seen = service.events_seen
        subscription.active = False
        net7.speaker(6).withdraw_origin(P("10.0.0.0/23"))
        net7.run_until_converged()
        net7.run_for(5.0)
        assert service.events_seen == seen
