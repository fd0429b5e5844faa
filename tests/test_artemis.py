"""Tests for the wired Artemis application."""

import pytest

from repro.core.artemis import Artemis
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.errors import ConfigError
from repro.feeds.periscope import LookingGlass, PeriscopeAPI
from repro.feeds.ris import RISLiveStream
from repro.net.prefix import Prefix
from repro.sdn.controller import BGPController
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG

from conftest import fraction_routing_to


def P(text):
    return Prefix.parse(text)


@pytest.fixture
def setup(net7):
    """Victim = AS6, ARTEMIS over a RIS stream + 2 LGs, hijacker = AS7."""
    stream = RISLiveStream.deploy(net7, [3, 4], seed=0, latency=Constant(1.0))
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
        _net, artemis = setup
        artemis.start()
        artemis.start()
        assert artemis.running
        assert artemis.periscope.polling
        artemis.stop()
        artemis.stop()
        assert not artemis.running
        assert not artemis.periscope.polling


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
        stream = RISLiveStream.deploy(net7, [4, 5], seed=0, latency=Constant(1.0))
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
