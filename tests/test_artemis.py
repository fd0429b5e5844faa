"""Tests for the wired Artemis application."""

import pytest

from repro.bgp.messages import Announcement, UpdateMessage
from repro.bgp.speaker import BGPSpeaker
from repro.core.artemis import Artemis
from repro.core.config import ArtemisConfig, OwnedPrefix, OwnedSpace
from repro.errors import ConfigError
from repro.feeds.collector import RouteCollector
from repro.feeds.health import SourceSupervisor
from repro.feeds.periscope import LookingGlass, PeriscopeAPI
from repro.feeds.stream import StreamingService
from repro.net.prefix import Prefix
from repro.sdn.controller import BGPController
from repro.sim.engine import Engine
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG

from conftest import fraction_routing_to, ris_stream


def P(text):
    return Prefix.parse(text)


@pytest.fixture
def setup(net7):
    """Victim = AS6, ARTEMIS over a RIS stream + 2 LGs, hijacker = AS7."""
    stream = ris_stream(net7, [3, 4])
    lgs = [
        LookingGlass(f"lg-{asn}", net7.speaker(asn), net7.engine,
                     query_delay=Constant(0.2), min_query_interval=0.0,
                     rng=SeededRNG(asn))
        for asn in (1, 5)
    ]
    periscope = PeriscopeAPI(net7.engine, lgs, poll_interval=10.0, rng=SeededRNG(0))
    controller = BGPController(
        net7.engine, [net7.speaker(6)],
        programming_delay=Constant(15.0), rng=SeededRNG(9),
    )
    config = ArtemisConfig([OwnedPrefix("10.0.0.0/23", {6})])
    artemis = Artemis(config, controller, sources=[stream], periscope=periscope)
    return net7, artemis


class TestWiring:
    def test_needs_sources(self, net7):
        controller = BGPController(net7.engine, [net7.speaker(6)])
        config = ArtemisConfig([OwnedPrefix("10.0.0.0/23", {6})])
        with pytest.raises(ConfigError):
            Artemis(config, controller, sources=[])

    def test_periscope_added_to_sources(self, setup):
        _net, artemis = setup
        assert artemis.periscope in artemis.sources

    def test_start_stop_idempotent(self, setup):
        net, artemis = setup
        artemis.start()
        artemis.start()
        assert artemis.running
        assert artemis.periscope.polling
        net.announce(6, "10.0.0.0/23")
        net.run_until_converged()
        net.run_for(5.0)
        ingested = artemis.detection.events_ingested
        seen = artemis.monitoring.events_seen
        assert ingested > 0 and seen > 0
        artemis.stop()
        artemis.stop()
        assert not artemis.running
        assert not artemis.periscope.polling
        # Stopped: no source reaches detection or monitoring any more.
        net.announce(7, "10.0.0.0/23")
        net.run_until_converged()
        net.run_for(30.0)
        assert artemis.detection.events_ingested == ingested
        assert artemis.monitoring.events_seen == seen
        assert artemis.alerts == []


class TestEndToEnd:
    def test_legit_announcement_no_alert(self, setup):
        net, artemis = setup
        artemis.start()
        net.announce(6, "10.0.0.0/23")
        net.run_until_converged()
        net.run_for(30.0)
        assert artemis.alerts == []

    def test_hijack_detected_and_auto_mitigated(self, setup):
        net, artemis = setup
        artemis.start()
        net.announce(6, "10.0.0.0/23")
        net.run_until_converged()
        net.run_for(15.0)
        hijack_time = net.engine.now
        net.announce(7, "10.0.0.0/23")
        net.run_until_converged()
        net.run_for(30.0)
        assert len(artemis.alerts) == 1
        alert = artemis.alerts[0]
        assert alert.type.value == "exact-origin"
        assert alert.offender_asn == 7
        assert alert.detected_at > hijack_time
        # Auto-mitigation programmed the de-aggregated /24s.
        assert len(artemis.actions) == 1
        action = artemis.actions[0]
        assert action.prefixes == [P("10.0.0.0/24"), P("10.0.1.0/24")]
        assert action.announced_at is not None
        net.run_until_converged()
        assert fraction_routing_to(net, "10.0.0.7", 6) == 1.0
        assert fraction_routing_to(net, "10.0.1.7", 6) == 1.0

    def test_auto_mitigate_disabled(self, net7):
        # Vantages at 4 and 5 (the hijacker AS7's providers) see the bogus
        # route for sure.
        stream = ris_stream(net7, [4, 5])
        controller = BGPController(net7.engine, [net7.speaker(6)])
        config = ArtemisConfig(
            [OwnedPrefix("10.0.0.0/23", {6})], auto_mitigate=False
        )
        artemis = Artemis(config, controller, sources=[stream])
        artemis.start()
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.announce(7, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(30.0)
        assert len(artemis.alerts) == 1
        assert artemis.actions == []

    def test_alert_observer_called_after_mitigation_trigger(self, setup):
        net, artemis = setup
        statuses = []
        artemis.on_alert(lambda alert: statuses.append(alert.status.value))
        artemis.start()
        net.announce(6, "10.0.0.0/23")
        net.run_until_converged()
        net.announce(7, "10.0.0.0/23")
        net.run_until_converged()
        net.run_for(30.0)
        assert statuses == ["mitigating"]

    def test_monitoring_runs_in_parallel(self, setup):
        net, artemis = setup
        artemis.start()
        net.announce(6, "10.0.0.0/23")
        net.run_until_converged()
        net.run_for(15.0)
        net.announce(7, "10.0.0.0/23")
        net.run_until_converged()
        net.run_for(60.0)
        net.run_until_converged()
        series = artemis.monitoring.fraction_series(P("10.0.0.0/23"))
        assert series
        # The curve ends fully legitimate after mitigation.
        assert series[-1][1] == 1.0


def failover_rig():
    """An engine and an unstarted ARTEMIS over a supervised primary stream
    ``ris`` with one backup stream; each has one collector, peered with AS3."""
    engine = Engine()
    router = BGPSpeaker(64500, engine, rng=SeededRNG(1))
    controller = BGPController(engine, [router])
    config = ArtemisConfig(
        [OwnedPrefix("10.0.0.0/24", {64500})],
        owned_space=[OwnedSpace("10.0.0.0/23", {64500})],
        auto_mitigate=False,
    )
    primary, backup = (
        StreamingService(engine, Constant(1.0), SeededRNG(7), name)
        for name in ("ris", "backup")
    )
    for stream in (primary, backup):
        collector = RouteCollector(f"{stream.name}-c0", engine)
        collector.register_vantage(3)
        stream.attach_collector(collector)
    supervisor = SourceSupervisor(engine, [primary], staleness_timeout=30.0)
    supervisor.add_backup(backup)
    artemis = Artemis(config, controller, sources=[primary], supervisor=supervisor)
    return engine, artemis


class TestOneConsumerList:
    """Primary subscriptions and failover come from one (callback, prefixes)
    list, so a backup feeds each consumer exactly what a primary does."""

    def test_owned_space_reaches_detection_not_monitoring_on_any_source(self):
        engine, artemis = failover_rig()
        supervisor = artemis.supervisor
        (primary,), (backup,) = artemis.sources, supervisor.backups
        artemis.start()
        # Owned space, outside the owned prefix: squatting for detection,
        # nothing monitoring reads.
        squat = UpdateMessage(
            3, announcements=[Announcement(P("10.0.1.0/24"), (3, 666))]
        )

        primary.collectors[0].deliver(3, squat)
        engine.run_for(5.0)
        assert [alert.type.value for alert in artemis.alerts] == ["squatting"]
        primary.disconnect()
        engine.run_for(60.0)
        assert supervisor.failover_engaged
        backup.collectors[0].deliver(3, squat)
        engine.run_for(5.0)

        assert [event.source for event in artemis.alerts[0].evidence] == [
            "ris", "backup",
        ]
        assert artemis.monitoring.events_seen == 0
        assert artemis.monitoring.mean_lag_by_source() == {}


class TestSupervisorLifecycle:
    def test_stop_takes_consumers_off_the_backups(self):
        engine, artemis = failover_rig()
        (primary,), (backup,) = artemis.sources, artemis.supervisor.backups
        artemis.start()
        primary.disconnect()
        engine.run_for(60.0)
        assert artemis.supervisor.failover_engaged
        artemis.stop()
        assert not artemis.supervisor.failover_engaged
        # Stopped: nothing through the backup reaches detection or monitoring.
        hijack = Announcement(P("10.0.0.0/24"), (3, 666))
        backup.collectors[0].deliver(3, UpdateMessage(3, announcements=[hijack]))
        engine.run_for(5.0)
        assert artemis.detection.events_ingested == 0
        assert artemis.monitoring.events_seen == 0
        assert artemis.alerts == []

    def test_restart_retries_a_source_that_was_dead_at_stop(self):
        engine, artemis = failover_rig()
        supervisor = artemis.supervisor
        (primary,) = artemis.sources
        artemis.start()
        primary.disconnect()
        engine.run_for(60.0)
        assert supervisor.dead_sources() == ("ris",)
        artemis.stop()
        primary.restore_transport()
        artemis.start()
        assert supervisor.failover_engaged
        engine.run_for(600.0)
        assert supervisor.dead_sources() == ()
        assert not supervisor.failover_engaged
        assert supervisor.report()["ris"]["state"] == "live"
