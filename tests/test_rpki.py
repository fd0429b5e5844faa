"""Tests for RPKI ROAs, RFC 6811 validation, and ROV enforcement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.messages import Announcement, UpdateMessage
from repro.bgp.policy import Relationship
from repro.bgp.rpki import ROA, RPKIRegistry, Validity
from repro.bgp.session import Session
from repro.bgp.speaker import BGPSpeaker
from repro.errors import BGPError
from repro.internet.network import Network, NetworkConfig
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.testbed.scenario import HijackExperiment

from conftest import fast_network_config, fast_scenario, fraction_routing_to, tiny_graph


def P(text):
    return Prefix.parse(text)


def A(prefix, origin, first_hop=3):
    return Announcement(P(prefix), (first_hop, origin))


class TestROA:
    def test_defaults_to_exact_length(self):
        roa = ROA(P("10.0.0.0/23"), 64500)
        assert roa.max_length == 23

    def test_max_length_validation(self):
        with pytest.raises(BGPError):
            ROA(P("10.0.0.0/23"), 64500, max_length=22)
        with pytest.raises(BGPError):
            ROA(P("10.0.0.0/23"), 64500, max_length=33)

    def test_matches(self):
        roa = ROA(P("10.0.0.0/23"), 64500, max_length=24)
        assert roa.matches(A("10.0.0.0/23", 64500))
        assert roa.matches(A("10.0.1.0/24", 64500))
        assert not roa.matches(A("10.0.0.0/23", 666))     # wrong origin
        assert not roa.matches(A("10.0.0.0/25", 64500))   # too long
        assert not roa.matches(A("10.0.2.0/24", 64500))   # not covered


class TestRegistry:
    def make(self):
        registry = RPKIRegistry()
        registry.add_roa(ROA(P("10.0.0.0/23"), 64500, max_length=24))
        return registry

    def test_valid(self):
        assert self.make().validate(A("10.0.0.0/23", 64500)) is Validity.VALID
        assert self.make().validate(A("10.0.1.0/24", 64500)) is Validity.VALID

    def test_invalid_wrong_origin(self):
        assert self.make().validate(A("10.0.0.0/23", 666)) is Validity.INVALID

    def test_invalid_too_specific(self):
        assert self.make().validate(A("10.0.0.0/25", 64500)) is Validity.INVALID

    def test_not_found(self):
        assert self.make().validate(A("99.0.0.0/16", 666)) is Validity.NOT_FOUND

    def test_multiple_roas_any_match_is_valid(self):
        registry = self.make()
        registry.add_roa(ROA(P("10.0.0.0/23"), 666))  # MOAS authorisation
        assert registry.validate(A("10.0.0.0/23", 666)) is Validity.VALID
        assert registry.validate(A("10.0.0.0/23", 64500)) is Validity.VALID

    def test_duplicate_rejected(self):
        registry = self.make()
        with pytest.raises(BGPError):
            registry.add_roa(ROA(P("10.0.0.0/23"), 64500, max_length=24))

    def test_covering_roas(self):
        registry = self.make()
        registry.add_roa(ROA(P("10.0.0.0/8"), 1))
        assert len(registry.covering_roas(P("10.0.0.0/24"))) == 2

    def test_rov_filter(self):
        registry = self.make()
        registry.add_roa(ROA(P("10.0.0.0/23"), 64500, max_length=25))
        engine = Engine()
        speaker = BGPSpeaker(1, engine, rov=registry)
        for peer_asn, announcements in (
            (3, [A("10.0.0.0/23", 64500), A("10.0.0.0/25", 64500)]),
            (4, [A("10.0.0.0/23", 666, 4), A("99.0.0.0/16", 666, 4)]),
        ):
            peer = BGPSpeaker(peer_asn, engine)
            session = Session(engine, speaker, peer)
            speaker.add_peer(session, Relationship.CUSTOMER)
            peer.add_peer(session, Relationship.PROVIDER)
            speaker.deliver(peer_asn, UpdateMessage(peer_asn, announcements, []))
        engine.run()
        rib = speaker.adj_rib_in
        # Valid accepted; invalid dropped while the same prefix's valid
        # route stays; not-found passes.
        assert [r.peer_asn for r in rib.candidates(P("10.0.0.0/23"))] == [3]
        assert [r.peer_asn for r in rib.candidates(P("99.0.0.0/16"))] == [4]
        # The length limit holds at a ROV speaker too: a ROA-valid /25 is dropped.
        assert rib.candidates(P("10.0.0.0/25")) == []


@st.composite
def nested_roa(draw):
    """A ROA in the top 10 bits of either family, so draws nest and collide."""
    version = draw(st.sampled_from([4, 6]))
    bits = 32 if version == 4 else 128
    value = draw(st.integers(0, (1 << 10) - 1)) << (bits - 10)
    prefix = Prefix(value, draw(st.integers(0, 14)), version)
    max_length = prefix.length + draw(st.integers(0, 3))
    return ROA(prefix, draw(st.sampled_from([1, 2])), max_length)


@settings(max_examples=200, deadline=None)
@given(
    roas=st.lists(nested_roa(), max_size=12, unique=True),
    announced=st.lists(st.tuples(nested_roa(), st.sampled_from([1, 2, 3]))),
)
def test_validate_equals_brute_force(roas, announced):
    """RFC 6811 over the whole ROA list ≡ the registry's table reads
    (covering ROAs least specific first)."""
    registry = RPKIRegistry(roas)
    assert len(registry) == len(roas)
    for probe, origin in announced:
        announcement = Announcement(probe.prefix, (64999, origin))
        covering = sorted(
            (roa for roa in roas if roa.prefix.contains(probe.prefix)),
            key=lambda roa: roa.prefix.length,
        )
        if not covering:
            expected = Validity.NOT_FOUND
        elif any(roa.matches(announcement) for roa in covering):
            expected = Validity.VALID
        else:
            expected = Validity.INVALID
        assert registry.covering_roas(probe.prefix) == covering
        assert registry.validate(announcement) is expected


class TestROVInNetwork:
    def test_full_adoption_blocks_exact_hijack(self):
        config = fast_network_config()
        config.rov_adoption = 1.0
        net = Network(tiny_graph(), config=config, seed=1)
        assert net.rov_adopters == set(net.asns())
        net.rpki.add_roa(ROA(P("10.0.0.0/23"), 6, max_length=24))
        net.announce(6, "10.0.0.0/23")
        net.run_until_converged()
        assert fraction_routing_to(net, "10.0.0.1", 6) == 1.0
        net.announce(7, "10.0.0.0/23")  # invalid at every adopter
        net.run_until_converged()
        origins = net.origin_map("10.0.0.1")
        hijacked = [asn for asn, origin in origins.items() if origin == 7]
        assert hijacked == [7]  # only the hijacker itself

    def test_rov_cannot_stop_forged_path(self):
        # Type-1: the forged path ends at the legitimate origin → VALID.
        config = fast_network_config()
        config.rov_adoption = 1.0
        net = Network(tiny_graph(), config=config, seed=1)
        net.rpki.add_roa(ROA(P("10.0.0.0/23"), 6, max_length=24))
        net.speaker(7).originate_forged(P("10.0.0.0/23"), (6,))
        net.run_until_converged()
        infected = [
            asn
            for asn in net.asns()
            if asn != 7
            and (route := net.speaker(asn).best_route(P("10.0.0.0/23"))) is not None
            and 7 in route.as_path
        ]
        assert infected, "ROV must not stop a forged-origin announcement"

    def test_adoption_validated(self):
        import pytest as _pytest
        from repro.errors import SimulationError

        with _pytest.raises(SimulationError):
            NetworkConfig(rov_adoption=1.5)


class TestROVScenario:
    def test_adoption_shrinks_hijack(self):
        peaks = {}
        for adoption in (0.0, 1.0):
            config = fast_scenario(
                seed=11,
                rov_adoption=adoption,
                auto_mitigate=False,
                observation_window=150.0,
                detection_timeout=300.0,
            )
            result = HijackExperiment(config).run()
            peaks[adoption] = result.hijack_fraction_peak
        assert peaks[1.0] < peaks[0.0] / 3

    def test_roa_published_for_victim(self):
        config = fast_scenario(seed=11, rov_adoption=0.5)
        experiment = HijackExperiment(config)
        experiment.setup()
        roas = experiment.network.rpki.covering_roas(P("10.0.0.0/23"))
        assert len(roas) == 1
        assert roas[0].origin_asn == experiment.victim.asn
        assert roas[0].max_length == 24

    def test_mitigation_deaggregation_stays_valid_under_rov(self):
        # The victim's /24s must be VALID (ROA max_length 24) so ROV
        # adopters accept the mitigation announcements.
        config = fast_scenario(seed=11, rov_adoption=0.5)
        result = HijackExperiment(config).run()
        assert result.mitigated
