"""Multi-prefix and multi-origin (MOAS/anycast) ARTEMIS behaviour."""

import pytest

from repro.core.artemis import Artemis
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.net.prefix import Prefix
from repro.sdn.controller import BGPController
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG

from conftest import ris_stream


def P(text):
    return Prefix.parse(text)


@pytest.fixture
def world(net7):
    """AS6 owns two prefixes; ARTEMIS over a 2-vantage RIS stream."""
    stream = ris_stream(net7, [4, 5])
    controller = BGPController(
        net7.engine, [net7.speaker(6)],
        programming_delay=Constant(10.0), rng=SeededRNG(1),
    )
    config = ArtemisConfig(
        [
            OwnedPrefix("10.0.0.0/23", {6}),
            OwnedPrefix("10.8.0.0/22", {6}),
        ]
    )
    artemis = Artemis(config, controller, sources=[stream])
    artemis.start()
    net7.announce(6, "10.0.0.0/23")
    net7.announce(6, "10.8.0.0/22")
    net7.run_until_converged()
    net7.run_for(10.0)
    return net7, artemis


class TestMultiPrefix:
    def test_both_prefixes_protected_independently(self, world):
        net, artemis = world
        net.announce(7, "10.0.0.0/23")
        net.run_until_converged()
        net.run_for(15.0)
        assert len(artemis.alerts) == 1
        assert artemis.alerts[0].owned_prefix == P("10.0.0.0/23")
        # Second incident against the other prefix → separate alert+action.
        net.announce(7, "10.8.0.0/22")
        net.run_until_converged()
        net.run_for(15.0)
        assert len(artemis.alerts) == 2
        owned = {alert.owned_prefix for alert in artemis.alerts}
        assert owned == {P("10.0.0.0/23"), P("10.8.0.0/22")}
        assert len(artemis.actions) == 2

    def test_mitigations_target_their_own_prefix(self, world):
        net, artemis = world
        net.announce(7, "10.8.0.0/22")
        net.run_until_converged()
        net.run_for(30.0)
        net.run_until_converged()
        action = artemis.actions[0]
        assert action.prefixes == [P("10.8.0.0/23"), P("10.8.2.0/23")]
        # The unrelated owned prefix is untouched.
        assert not net.speaker(6).originates(P("10.0.0.0/24"))


class TestAnycastMOAS:
    def test_second_legit_origin_never_alerts(self, net7):
        # Anycast: both AS6 and AS7 legitimately originate the prefix.
        stream = ris_stream(net7, [4, 5])
        controller = BGPController(net7.engine, [net7.speaker(6)])
        config = ArtemisConfig([OwnedPrefix("10.0.0.0/23", {6, 7})])
        artemis = Artemis(config, controller, sources=[stream])
        artemis.start()
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.announce(7, "10.0.0.0/23")  # the second anycast site, not a hijack
        net7.run_until_converged()
        net7.run_for(30.0)
        assert artemis.alerts == []
        # Monitoring counts both origins as legitimate.
        assert artemis.monitoring.fraction_legitimate(P("10.0.0.0/23")) == 1.0

    def test_third_origin_still_caught(self, net7):
        stream = ris_stream(net7, [3, 4, 5])
        controller = BGPController(net7.engine, [net7.speaker(6)])
        config = ArtemisConfig(
            [OwnedPrefix("10.0.0.0/23", {6, 7})], auto_mitigate=False
        )
        artemis = Artemis(config, controller, sources=[stream])
        artemis.start()
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.announce(5, "10.0.0.0/23")  # a transit AS squats the prefix
        net7.run_until_converged()
        net7.run_for(30.0)
        assert len(artemis.alerts) == 1
        assert artemis.alerts[0].offender_asn == 5
