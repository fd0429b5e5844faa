"""Failure-injection tests: sessions dying, peers vanishing, mid-flight loss."""

import pytest

from repro.errors import TopologyError
from repro.net.prefix import Prefix

from conftest import fraction_routing_to


def P(text):
    return Prefix.parse(text)


class TestLinkFailure:
    def test_routes_heal_around_failed_link(self, net7):
        # AS7 multihomes to 4 and 5; losing one upstream must not cut it off.
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        route_before = net7.speaker(7).best_route(P("10.0.0.0/23"))
        assert route_before is not None
        primary = route_before.peer_asn
        net7.fail_link(7, primary)
        net7.run_until_converged()
        route_after = net7.speaker(7).best_route(P("10.0.0.0/23"))
        assert route_after is not None
        assert route_after.peer_asn != primary

    def test_single_homed_stub_goes_dark(self, net7):
        # AS6's only upstream is AS3: failing it removes all routes.
        net7.announce(7, "10.9.0.0/24")
        net7.run_until_converged()
        assert net7.speaker(6).best_route(P("10.9.0.0/24")) is not None
        net7.fail_link(6, 3)
        net7.run_until_converged()
        assert net7.speaker(6).best_route(P("10.9.0.0/24")) is None

    def test_withdrawals_propagate_after_origin_cut(self, net7):
        # Cut the victim's only upstream: the whole Internet must lose the route.
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.fail_link(6, 3)
        net7.run_until_converged()
        for asn in net7.asns():
            if asn == 6:
                continue
            assert net7.speaker(asn).best_route(P("10.0.0.0/23")) is None

    def test_unknown_link_rejected(self, net7):
        with pytest.raises(TopologyError):
            net7.fail_link(6, 7)  # no direct session in the tiny graph

    def test_messages_in_flight_dropped(self, net7):
        # Announce, then fail the link before the update is delivered: the
        # far side never learns the route, and no crash occurs.
        net7.announce(6, "10.0.0.0/23")  # queued towards AS3
        net7.fail_link(6, 3)
        net7.run_until_converged()
        assert net7.speaker(3).best_route(P("10.0.0.0/23")) is None

    def test_hijack_mitigated_even_with_failed_lateral_link(self, net7):
        # Failing the 3–4 peering removes a shortcut but strands nobody;
        # hijack and mitigation must still work end to end.
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.fail_link(3, 4)
        net7.run_until_converged()
        net7.announce(7, "10.0.0.0/23")
        net7.run_until_converged()
        net7.announce(6, "10.0.0.0/24")
        net7.announce(6, "10.0.1.0/24")
        net7.run_until_converged()
        assert fraction_routing_to(net7, "10.0.0.9", 6) == 1.0


class TestLinkRestoration:
    def test_routes_return_after_restore(self, net7):
        net7.announce(7, "10.9.0.0/24")
        net7.run_until_converged()
        net7.fail_link(6, 3)
        net7.run_until_converged()
        assert net7.speaker(6).best_route(P("10.9.0.0/24")) is None
        net7.restore_link(6, 3)
        net7.run_until_converged()
        # Full-table exchange on session-up brings the route back.
        assert net7.speaker(6).best_route(P("10.9.0.0/24")) is not None

    def test_restore_up_session_rejected(self, net7):
        from repro.errors import TopologyError
        import pytest as _pytest

        with _pytest.raises(TopologyError):
            net7.restore_link(6, 3)

    def test_restore_preserves_relationship(self, net7):
        from repro.bgp.policy import Relationship

        net7.fail_link(7, 4)
        net7.run_until_converged()
        net7.restore_link(7, 4)
        assert net7.speaker(7).peers[4].relationship is Relationship.PROVIDER
        assert net7.speaker(4).peers[7].relationship is Relationship.CUSTOMER

    def test_flap_cycle_converges_cleanly(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        for _ in range(3):
            net7.fail_link(3, 4)
            net7.run_until_converged()
            net7.restore_link(3, 4)
            net7.run_until_converged()
        assert fraction_routing_to(net7, "10.0.0.1", 6) == 1.0


class TestSessionSemantics:
    def test_deliver_after_remove_peer_ignored(self, net7):
        # Removing the peer while a message is in flight must not raise.
        net7.announce(6, "10.0.0.0/23")
        net7.speaker(3).remove_peer(6)
        net7.run_until_converged()
        assert net7.speaker(3).best_route(P("10.0.0.0/23")) is None

    def test_restore_allows_traffic_again(self, net7):
        session = net7._find_session(6, 3)
        session.tear_down()
        assert not session.up
        session.restore()
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        assert net7.speaker(3).best_route(P("10.0.0.0/23")) is not None
