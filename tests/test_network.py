"""Integration tests for the wired Network layer."""

import copy

import pytest

from repro.errors import SimulationError, TopologyError
from repro.faults import Fault, FaultInjector, FaultPlan
from repro.internet.network import Network, NetworkConfig
from repro.net.prefix import Prefix
from repro.sim.latency import Constant
from repro.testbed.scenario import HijackExperiment

from conftest import fast_network_config, fast_scenario, fraction_routing_to, tiny_graph


def P(text):
    return Prefix.parse(text)


class TestBuild:
    def test_one_speaker_per_as(self, net7):
        assert sorted(net7.speakers) == [1, 2, 3, 4, 5, 6, 7]

    def test_one_session_per_link(self, net7):
        assert len(net7.sessions) == net7.graph.link_count()

    def test_speaker_lookup_error(self, net7):
        with pytest.raises(TopologyError):
            net7.speaker(99)


class TestAnnouncePropagation:
    def test_announcement_reaches_everyone(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        for asn in net7.asns():
            assert net7.resolve_origin(asn, "10.0.0.5") == 6

    def test_origin_map_and_fraction(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        origins = net7.origin_map("10.0.0.5")
        assert set(origins.values()) == {6}
        assert fraction_routing_to(net7, "10.0.0.5", 6) == 1.0
        assert sorted(origins) == net7.asns()

    def test_withdraw_clears_routes(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.speaker(6).withdraw_origin(P("10.0.0.0/23"))
        net7.run_until_converged()
        assert fraction_routing_to(net7, "10.0.0.5", 6) == 0.0

    def test_string_and_prefix_accepted(self, net7):
        net7.announce(6, P("10.0.0.0/24"))
        net7.announce(6, "10.0.1.0/24")
        net7.run_until_converged()
        assert net7.resolve_origin(7, "10.0.1.1") == 6


class TestHijackDynamics:
    def test_exact_hijack_splits_internet(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.announce(7, "10.0.0.0/23")  # hijacker
        net7.run_until_converged()
        origins = set(net7.origin_map("10.0.0.5").values())
        assert origins == {6, 7}
        # The hijacker itself and its closest upstream flip.
        assert net7.resolve_origin(7, "10.0.0.5") == 7

    def test_deaggregation_reclaims_everything(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.announce(7, "10.0.0.0/23")
        net7.run_until_converged()
        net7.announce(6, "10.0.0.0/24")
        net7.announce(6, "10.0.1.0/24")
        net7.run_until_converged()
        # Everyone except... nobody: /24s beat the hijacked /23 everywhere,
        # including at the hijacker itself.
        assert fraction_routing_to(net7, "10.0.0.5", 6) == 1.0
        assert fraction_routing_to(net7, "10.0.1.5", 6) == 1.0

    def test_slash24_deaggregation_filtered(self, graph7):
        # With the default /24 import limit, /25s never propagate.
        net = Network(graph7, config=fast_network_config(), seed=1)
        net.announce(6, "10.0.0.0/24")
        net.run_until_converged()
        net.announce(7, "10.0.0.0/24")
        net.run_until_converged()
        net.announce(6, "10.0.0.0/25")
        net.announce(6, "10.0.0.128/25")
        net.run_until_converged()
        hijacked = [
            asn for asn in net.asns() if net.resolve_origin(asn, "10.0.0.5") == 7
        ]
        assert hijacked  # the /25s were filtered, hijack persists somewhere
        # And no speaker except the victim has a /25 route.
        for asn in net.asns():
            if asn == 6:
                continue
            assert net.speaker(asn).best_route(P("10.0.0.0/25")) is None


class TestAttachment:
    def test_attach_stub(self, net7):
        speaker = net7.attach_stub(100, [3, 5])
        assert net7.speaker(100) is speaker
        assert net7.graph.providers_of(100) == [3, 5]
        net7.announce(100, "10.9.0.0/24")
        net7.run_until_converged()
        assert fraction_routing_to(net7, "10.9.0.1", 100) == 1.0

    def test_attach_existing_asn_rejected(self, net7):
        with pytest.raises(TopologyError):
            net7.attach_stub(6, [3])

    def test_attach_needs_provider(self, net7):
        with pytest.raises(TopologyError):
            net7.attach_stub(100, [])

    @pytest.mark.parametrize(
        "providers", [[3, 3], [3, 99], [100], [3, 5, 3]], ids=str
    )
    def test_failed_attach_changes_nothing(self, net7, providers):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        before = network_state(net7)
        with pytest.raises(TopologyError):
            net7.attach_stub(100, providers)
        assert network_state(net7) == before
        assert 100 not in net7.graph
        # The retry with valid providers is not refused as "already exists".
        speaker = net7.attach_stub(100, [3, 5])
        net7.run_until_converged()
        assert net7.graph.providers_of(100) == [3, 5]
        assert list(speaker.peers) == [3, 5]
        assert net7.resolve_origin(100, "10.0.0.5") == 6

    def test_attach_over_a_monitor_session_changes_nothing(self, net7):
        class Sink:
            asn = 100

            def deliver(self, sender_asn, message):
                pass

        net7.add_monitor_session(5, Sink())
        before = network_state(net7)
        with pytest.raises(TopologyError):
            net7.attach_stub(100, [3, 5])
        assert network_state(net7) == before

    def test_monitor_session(self, net7):
        class Sink:
            asn = 4_199_999_999
            received = []

            def deliver(self, sender_asn, message):
                self.received.append(message)

        sink = Sink()
        net7.add_monitor_session(3, sink)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        prefixes = [a.prefix for m in sink.received for a in m.announcements]
        assert P("10.0.0.0/23") in prefixes


class TestConvergenceGuards:
    def test_convergence_timeout_raises(self, graph7):
        # Glacial MRAI + tiny max_time forces the timeout path.
        config = NetworkConfig(
            processing_delay=Constant(10.0),
            mrai=Constant(10.0),
            session_delay_override=Constant(5.0),
        )
        net = Network(graph7, config=config, seed=1)
        net.announce(6, "10.0.0.0/23")
        with pytest.raises(SimulationError):
            net.run_until_converged(max_time=1.0)

    def test_run_for_advances_clock(self, net7):
        before = net7.engine.now
        net7.run_for(12.5)
        assert net7.engine.now == before + 12.5

    def test_converged_network_is_quiet(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        assert not net7.tracker.busy


class TestSessionIndex:
    def test_fail_and_restore_via_index(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.fail_link(3, 6)
        net7.run_until_converged()
        # Routes re-route or disappear, but the network stays consistent.
        assert net7.resolve_origin(6, "10.0.0.5") == 6
        net7.restore_link(3, 6)
        net7.run_until_converged()
        assert fraction_routing_to(net7, "10.0.0.5", 6) == 1.0

    def test_find_session_order_insensitive(self, net7):
        assert net7._find_session(3, 6) is net7._find_session(6, 3)

    def test_unknown_pair_raises(self, net7):
        with pytest.raises(TopologyError):
            net7.fail_link(1, 99)
        with pytest.raises(TopologyError):
            net7.fail_link(6, 7)  # both exist but are not adjacent

    def test_duplicate_session_rejected(self, net7):
        with pytest.raises(TopologyError):
            net7.attach_stub(100, [3, 3])

    def test_index_covers_every_session(self, net7):
        net7.attach_stub(100, [3, 5])
        assert len(net7._session_index) == len(net7.sessions)
        for session in net7.sessions:
            assert net7._find_session(session.a.asn, session.b.asn) is session



class TestOriginMap:
    def test_attached_stub_included(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.attach_stub(100, [3])
        net7.run_until_converged()
        assert net7.origin_map("10.0.0.5")[100] == 6

    def test_matches_fresh_resolution_after_link_failure(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.fail_link(3, 6)
        net7.run_until_converged()
        assert net7.origin_map("10.0.0.5") == {
            asn: net7.resolve_origin(asn, "10.0.0.5") for asn in net7.asns()
        }

    def test_prefix_probed_at_its_network_address(self, net7):
        # AS6 holds its own /25 (the /24 import limit keeps it there): a
        # /24 target reads the /25's origin, as the /24's first address does.
        net7.announce(7, "10.0.0.0/24")
        net7.announce(6, "10.0.0.0/25")
        net7.run_until_converged()
        assert net7.origin_map("10.0.0.0/24") == net7.origin_map("10.0.0.0")
        assert net7.origin_map("10.0.0.0/24")[6] == 6


def network_state(net):
    """What an attach may touch: graph, speakers, sessions and peer rows."""
    return (
        sorted(node.asn for node in net.graph.nodes()),
        sorted((a, b) for a, b, _view in net.graph.links()),
        sorted(net.speakers),
        len(net.sessions),
        sorted(net._session_index),
        {asn: list(s.peers) for asn, s in net.speakers.items()},
        {asn: peer_rows(s) for asn, s in net.speakers.items()},
    )


def peer_rows(speaker):
    """``speaker._mark_targets`` by identity of each row's members."""
    return [
        (asn, id(state), rel_index, id(out), id(dirty))
        for asn, state, rel_index, out, dirty in speaker._mark_targets
    ]


def rebuilt_rows(speaker):
    """The rows ``_mark_targets`` must hold: one per peer, in peer order."""
    return [
        (asn, id(state), state.rel_index, id(state.adj_rib_out), id(state.dirty))
        for asn, state in speaker.peers.items()
    ]


def assert_rows_follow_peers(net):
    for speaker in net.speakers.values():
        assert peer_rows(speaker) == rebuilt_rows(speaker), speaker


class TestPeerOrder:
    """``add_peer`` appends one row; the rows stay ``peers`` in order."""

    def test_build(self, net7):
        assert_rows_follow_peers(net7)
        # Peer order is link order: the build's whole-graph link walk.
        expected = {asn: [] for asn in net7.speakers}
        for a, b, _view in net7.graph.links():
            expected[a].append(b)
            expected[b].append(a)
        assert {asn: list(s.peers) for asn, s in net7.speakers.items()} == expected

    def test_fail_and_restore_link(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        peers_of_3 = list(net7.speaker(3).peers)
        net7.fail_link(3, 6)
        assert_rows_follow_peers(net7)
        assert 6 not in net7.speaker(3).peers
        net7.restore_link(3, 6)
        assert_rows_follow_peers(net7)
        # The restored peer goes last.
        assert list(net7.speaker(3).peers) == [p for p in peers_of_3 if p != 6] + [6]
        net7.run_until_converged()
        assert_rows_follow_peers(net7)

    def test_attach_stub_and_monitor(self, net7):
        class Sink:
            asn = 4_199_999_999

            def deliver(self, sender_asn, message):
                pass

        net7.attach_stub(100, [3, 5])
        net7.add_monitor_session(3, Sink())
        assert_rows_follow_peers(net7)
        assert list(net7.speaker(3).peers)[-2:] == [100, Sink.asn]

    def test_collector_crash_and_restart(self):
        plan = FaultPlan([Fault("collector_crash", "ris-rrc00", 10.0, duration=20.0)])
        experiment = HijackExperiment(fast_scenario(seed=5))
        experiment.setup()
        network = experiment.network
        box = next(c for c in experiment.monitors.ris.collectors if c.name == "ris-rrc00")
        hosts = [network.speaker(asn) for asn in box.vantage_asns]
        injector = FaultInjector(network, experiment.monitors, plan)
        injector.arm(network.engine.now)
        network.engine.run_for(15.0)
        assert not box.up
        assert all(box.asn not in host.peers for host in hosts)
        assert_rows_follow_peers(network)
        network.engine.run_for(20.0)
        assert box.up
        assert all(list(host.peers)[-1] == box.asn for host in hosts)
        assert_rows_follow_peers(network)

    def test_fork_rows_equal_masters(self, net7):
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.fail_link(3, 6)
        net7.restore_link(3, 6)
        net7.run_until_converged()
        fork = copy.deepcopy(net7, net7.fork_memo())
        assert_rows_follow_peers(fork)
        for asn, speaker in net7.speakers.items():
            twin = fork.speakers[asn]
            assert twin is not speaker
            assert [row[0] for row in twin._mark_targets] == [
                row[0] for row in speaker._mark_targets
            ]
            assert [row[2] for row in twin._mark_targets] == [
                row[2] for row in speaker._mark_targets
            ]
            # The fork's rows alias the fork's own per-peer dicts.
            for mine, theirs in zip(twin._mark_targets, speaker._mark_targets):
                assert mine[1] is not theirs[1] and mine[4] is not theirs[4]

    def test_policies_are_shared_per_import_rule(self, graph7):
        config = fast_network_config()
        config.rov_adoption = 0.5
        net = Network(graph7, config=config, seed=3)
        assert net.rov_adopters and len(net.rov_adopters) < len(net.speakers)
        for asn, speaker in net.speakers.items():
            assert speaker.rov is (net.rpki if asn in net.rov_adopters else None)
        fork = copy.deepcopy(net, net.fork_memo())
        assert all(
            fork.speakers[asn].rov is s.rov for asn, s in net.speakers.items()
        )
