"""Behavioural tests for BGPSpeaker on hand-wired micro-networks."""

import pytest

from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import Relationship
from repro.bgp.session import ActivityTracker, Session
from repro.bgp.speaker import BGPSpeaker
from repro.errors import BGPError
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG


def P(text):
    return Prefix.parse(text)


class World:
    """A tiny hand-wired BGP world for tests."""

    def __init__(self):
        self.engine = Engine()
        self.tracker = ActivityTracker()
        self.speakers = {}

    def speaker(self, asn, mrai=0.0):
        speaker = BGPSpeaker(
            asn,
            self.engine,
            rng=SeededRNG(asn),
            tracker=self.tracker,
            processing_delay=Constant(0.01),
            mrai=Constant(mrai),
        )
        self.speakers[asn] = speaker
        return speaker

    def link(self, a, b, rel_a_to_b, delay=0.01):
        """Connect speakers; ``rel_a_to_b`` is a's view of b."""
        session = Session(
            self.engine,
            self.speakers[a],
            self.speakers[b],
            delay=Constant(delay),
            rng=SeededRNG(a * 1000 + b),
            tracker=self.tracker,
        )
        self.speakers[a].add_peer(session, rel_a_to_b)
        self.speakers[b].add_peer(session, rel_a_to_b.inverse())
        return session

    def converge(self, max_time=600.0):
        while self.tracker.busy:
            if self.engine.peek_time() is None or self.engine.now > max_time:
                raise AssertionError("did not converge")
            self.engine.step()
        return self.engine.now


def chain(*relationships):
    """Speakers 1..n+1 linked in a chain with the given relationships."""
    world = World()
    for asn in range(1, len(relationships) + 2):
        world.speaker(asn)
    for index, rel in enumerate(relationships):
        world.link(index + 1, index + 2, rel)
    return world


class TestPropagation:
    def test_single_hop(self):
        world = chain(Relationship.PROVIDER)  # 1 buys from 2
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        route = world.speakers[2].best_route(P("10.0.0.0/23"))
        assert route is not None
        assert route.as_path == (1,)

    def test_multi_hop_path_grows(self):
        world = chain(Relationship.PROVIDER, Relationship.PROVIDER)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        assert world.speakers[3].best_route(P("10.0.0.0/23")).as_path == (2, 1)

    def test_late_peer_gets_full_table(self):
        world = chain(Relationship.PROVIDER)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        late = world.speaker(3)
        world.link(2, 3, Relationship.CUSTOMER)  # 3 is 2's customer... wait
        world.converge()
        assert late.best_route(P("10.0.0.0/23")) is not None

    def test_loop_prevention(self):
        # Triangle of peers: routes should never loop.
        world = World()
        for asn in (1, 2, 3):
            world.speaker(asn)
        world.link(1, 2, Relationship.PEER)
        world.link(2, 3, Relationship.PEER)
        world.link(1, 3, Relationship.PEER)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        for asn in (2, 3):
            route = world.speakers[asn].best_route(P("10.0.0.0/23"))
            # Peer-learned routes are not re-exported to peers, so both
            # neighbors learn the one-hop path only.
            assert route.as_path == (1,)

    def test_withdrawal_propagates(self):
        world = chain(Relationship.PROVIDER, Relationship.PROVIDER)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        world.speakers[1].withdraw_origin(P("10.0.0.0/23"))
        world.converge()
        assert world.speakers[3].best_route(P("10.0.0.0/23")) is None

    def test_implicit_withdraw_replaces_route(self):
        # 3 learns the prefix from both 1 (direct peer) and via 2; when the
        # direct session to 1 goes away, 3 falls back to the longer path.
        world = World()
        for asn in (1, 2, 3):
            world.speaker(asn)
        world.link(1, 2, Relationship.PROVIDER)   # 1 buys from 2
        world.link(2, 3, Relationship.PROVIDER)   # 2 buys from 3
        world.link(1, 3, Relationship.PROVIDER)   # 1 buys from 3 too
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        assert world.speakers[3].best_route(P("10.0.0.0/23")).as_path == (1,)
        world.speakers[3].remove_peer(1)
        world.converge()
        assert world.speakers[3].best_route(P("10.0.0.0/23")).as_path == (2, 1)


class TestPolicyEnforcement:
    def test_valley_free_blocks_peer_to_peer_transit(self):
        # 2 peers with both 1 and 3: it must not provide transit between them.
        world = World()
        for asn in (1, 2, 3):
            world.speaker(asn)
        world.link(1, 2, Relationship.PEER)
        world.link(2, 3, Relationship.PEER)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        assert world.speakers[2].best_route(P("10.0.0.0/23")) is not None
        assert world.speakers[3].best_route(P("10.0.0.0/23")) is None

    def test_customer_route_reaches_provider_and_peer(self):
        world = World()
        for asn in (1, 2, 3, 4):
            world.speaker(asn)
        world.link(1, 2, Relationship.PROVIDER)  # 1 customer of 2
        world.link(2, 3, Relationship.PEER)
        world.link(2, 4, Relationship.PROVIDER)  # 2 customer of 4
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        assert world.speakers[3].best_route(P("10.0.0.0/23")) is not None
        assert world.speakers[4].best_route(P("10.0.0.0/23")) is not None

    def test_customer_preferred_over_peer(self):
        # 4 hears the prefix from a customer (2, longer path) and from a
        # peer (3, shorter path); customer must win.
        world = World()
        for asn in (1, 2, 3, 4):
            world.speaker(asn)
        world.link(1, 2, Relationship.PROVIDER)
        world.link(1, 3, Relationship.PROVIDER)
        world.link(2, 4, Relationship.PROVIDER)  # 2 is 4's customer
        world.link(3, 4, Relationship.PEER)      # 3 peers with 4... wait
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        best = world.speakers[4].best_route(P("10.0.0.0/23"))
        assert best.peer_asn == 2  # via the customer

    def test_import_filter_rejects_long_prefix(self):
        # Every speaker applies the length limit; the receiver is built
        # with no import arguments at all.
        world = World()
        world.speaker(1)
        world.speaker(2)
        world.link(1, 2, Relationship.PROVIDER)
        world.speakers[1].originate(P("10.0.0.0/25"))
        world.speakers[1].originate(P("10.0.0.0/24"))
        world.converge()
        assert world.speakers[2].best_route(P("10.0.0.0/25")) is None
        assert world.speakers[2].best_route(P("10.0.0.0/24")) is not None


class TestMraiBatching:
    def test_updates_batched_within_mrai(self):
        world = World()
        world.speaker(1, mrai=10.0)
        world.speaker(2)
        world.link(1, 2, Relationship.PROVIDER)
        # Originate many prefixes at once: first flush sends one message,
        # and later originations batch behind the MRAI timer.
        for index in range(5):
            world.speakers[1].originate(P(f"10.0.{index}.0/24"))
        world.converge()
        assert world.speakers[1].updates_sent <= 2
        for index in range(5):
            assert world.speakers[2].best_route(P(f"10.0.{index}.0/24")) is not None

    def test_mrai_delays_second_update(self):
        world = World()
        world.speaker(1, mrai=30.0)
        world.speaker(2)
        world.link(1, 2, Relationship.PROVIDER)
        world.speakers[1].originate(P("10.0.0.0/24"))
        world.converge()
        t_first = world.engine.now
        world.speakers[1].originate(P("10.0.1.0/24"))
        world.converge()
        # Second prefix had to wait for the MRAI window to reopen.
        assert world.engine.now - t_first >= 29.0


class TestMonitors:
    class Sink:
        def __init__(self, asn):
            self.asn = asn
            self.received = []

        def deliver(self, sender_asn, message):
            self.received.append((sender_asn, message))

    def test_monitor_receives_best_routes(self):
        world = chain(Relationship.PROVIDER)
        sink = self.Sink(99999)
        session = Session(
            world.engine,
            world.speakers[2],
            sink,
            delay=Constant(0.01),
            tracker=world.tracker,
        )
        world.speakers[2].add_peer(session, Relationship.MONITOR)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        announced = [
            a.prefix
            for _s, m in sink.received
            for a in m.announcements
        ]
        assert P("10.0.0.0/23") in announced

    def test_monitor_sees_peer_learned_routes_too(self):
        # Valley-free would hide peer routes from peers/providers, but a
        # monitor session must see everything.
        world = World()
        for asn in (1, 2):
            world.speaker(asn)
        world.link(1, 2, Relationship.PEER)
        sink = self.Sink(99998)
        session = Session(
            world.engine, world.speakers[2], sink,
            delay=Constant(0.01), tracker=world.tracker,
        )
        world.speakers[2].add_peer(session, Relationship.MONITOR)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        prefixes = [a.prefix for _s, m in sink.received for a in m.announcements]
        assert P("10.0.0.0/23") in prefixes


class TestErrors:
    def test_duplicate_peer_rejected(self):
        world = World()
        world.speaker(1)
        world.speaker(2)
        session = world.link(1, 2, Relationship.PEER)
        with pytest.raises(BGPError):
            world.speakers[1].add_peer(session, Relationship.PEER)

    def test_remove_unknown_peer(self):
        world = World()
        world.speaker(1)
        with pytest.raises(BGPError):
            world.speakers[1].remove_peer(42)

    def test_withdraw_not_originated(self):
        world = World()
        world.speaker(1)
        with pytest.raises(BGPError):
            world.speakers[1].withdraw_origin(P("10.0.0.0/24"))

    def test_originate_idempotent(self):
        world = World()
        world.speaker(1)
        world.speakers[1].originate(P("10.0.0.0/24"))
        world.speakers[1].originate(P("10.0.0.0/24"))
        assert world.speakers[1].originated_prefixes == [P("10.0.0.0/24")]

    def test_session_to_self_rejected(self):
        world = World()
        speaker = world.speaker(1)
        with pytest.raises(BGPError):
            Session(world.engine, speaker, speaker)


class TestHotPath:
    """The allocation-avoidance machinery must not change observable behaviour."""

    def test_export_announcement_shared_across_peers(self):
        # One origin, one transit, three customers: the transit builds the
        # export announcement once and fans the same object out to everyone.
        world = World()
        for asn in (1, 2, 3, 4):
            world.speaker(asn)
        world.link(1, 2, Relationship.PROVIDER)  # 1 buys from 2
        sinks = []
        for asn in (90001, 90002):
            sink = TestMonitors.Sink(asn)
            session = Session(
                world.engine, world.speakers[2], sink,
                delay=Constant(0.01), tracker=world.tracker,
            )
            world.speakers[2].add_peer(session, Relationship.MONITOR)
            sinks.append(sink)
        world.link(3, 2, Relationship.PROVIDER)
        world.link(4, 2, Relationship.PROVIDER)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        received = [
            a
            for sink in sinks
            for _s, m in sink.received
            for a in m.announcements
            if a.prefix == P("10.0.0.0/23")
        ]
        assert len(received) == 2
        assert received[0] is received[1]  # one object, shared across peers

    def test_route_export_announcement_cached(self):
        from repro.bgp.route import Route

        route = Route(P("10.0.0.0/24"), (7, 8), peer_asn=7, local_pref=100)
        first = route.export_announcement(5)
        assert route.export_announcement(5) is first
        assert first.as_path == (5, 7, 8)
        # A different sender rebuilds rather than serving a stale path.
        other = route.export_announcement(6)
        assert other.as_path == (6, 7, 8)

    def test_peer_route_never_dirties_other_peer(self):
        # Valley-free: 2 can't export a peer-learned route to another peer,
        # so the peer-3 session must never even be marked dirty.
        world = World()
        for asn in (1, 2, 3):
            world.speaker(asn)
        world.link(1, 2, Relationship.PEER)
        world.link(2, 3, Relationship.PEER)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        assert world.speakers[2].best_route(P("10.0.0.0/23")) is not None
        assert not world.speakers[2].peers[3].dirty
        assert not world.speakers[2].peers[3].adj_rib_out
        assert world.speakers[2].updates_sent == 0

    def test_withdraw_still_reaches_peer_with_stale_adj_rib_out(self):
        # The dirty-skip must not swallow withdrawals: once a prefix sits in
        # a peer's Adj-RIB-Out, losing the route must dirty that peer even
        # though neither old nor new best is exportable any more.
        world = World()
        for asn in (1, 2, 3):
            world.speaker(asn)
        world.link(1, 2, Relationship.PROVIDER)  # 1 buys from 2
        world.link(2, 3, Relationship.PROVIDER)  # 2 buys from 3
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        assert world.speakers[3].best_route(P("10.0.0.0/23")) is not None
        world.speakers[1].withdraw_origin(P("10.0.0.0/23"))
        world.converge()
        assert world.speakers[3].best_route(P("10.0.0.0/23")) is None
        assert not world.speakers[2].peers[3].adj_rib_out


class TestResolution:
    def test_resolve_origin_prefers_specific(self):
        world = World()
        for asn in (1, 2, 3):
            world.speaker(asn)
        world.link(1, 3, Relationship.PROVIDER)
        world.link(2, 3, Relationship.PROVIDER)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.speakers[2].originate(P("10.0.0.0/24"))
        world.converge()
        assert world.speakers[3].resolve_origin("10.0.0.5") == 2
        assert world.speakers[3].resolve_origin("10.0.1.5") == 1
        assert world.speakers[3].resolve_origin("99.0.0.1") is None

    def test_resolve_origin_local(self):
        world = World()
        world.speaker(1)
        world.speakers[1].originate(P("10.0.0.0/24"))
        assert world.speakers[1].resolve_origin("10.0.0.1") == 1

    def test_table_dump(self):
        world = chain(Relationship.PROVIDER)
        world.speakers[1].originate(P("10.0.0.0/23"))
        world.converge()
        dump = world.speakers[2].table_dump()
        assert len(dump) == 1
        assert dump[0].prefix == P("10.0.0.0/23")
