"""Tests for Route objects and the Adj-RIB-In / Loc-RIB structures."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DictAdjRibIn
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.route import Route
from repro.errors import BGPError
from repro.net.prefix import Prefix


def P(text):
    return Prefix.parse(text)


def learned(prefix, path, peer, lp=100, at=0.0):
    return Route(P(prefix), path, peer, lp, learned_at=at)


class TestRoute:
    def test_local(self):
        route = Route.local(P("10.0.0.0/23"))
        assert route.is_local
        assert route.origin_as is None

    def test_learned_requires_path(self):
        with pytest.raises(BGPError):
            Route(P("10.0.0.0/23"), [], peer_asn=5, local_pref=100)

    def test_to_announcement_prepends(self):
        route = learned("10.0.0.0/23", [5, 6], peer=5)
        out = route.to_announcement(sender_asn=9)
        assert out.as_path == (9, 5, 6)

    def test_local_to_announcement(self):
        route = Route.local(P("10.0.0.0/23"))
        out = route.to_announcement(sender_asn=9)
        assert out.as_path == (9,)
        assert out.origin_as == 9


class TestAdjRibIn:
    def test_insert_and_candidates(self):
        rib = AdjRibIn()
        rib.insert(learned("10.0.0.0/23", [5, 6], peer=5))
        rib.insert(learned("10.0.0.0/23", [7, 6], peer=7))
        assert len(rib.candidates(P("10.0.0.0/23"))) == 2
        assert len(rib) == 2

    def test_insert_replaces_per_peer(self):
        rib = AdjRibIn()
        rib.insert(learned("10.0.0.0/23", [5, 6], peer=5))
        replaced = rib.insert(learned("10.0.0.0/23", [5, 9, 6], peer=5))
        assert replaced is not None
        assert len(rib.candidates(P("10.0.0.0/23"))) == 1

    def test_withdraw(self):
        rib = AdjRibIn()
        rib.insert(learned("10.0.0.0/23", [5, 6], peer=5))
        removed = rib.withdraw(5, P("10.0.0.0/23"))
        assert removed is not None
        assert rib.candidates(P("10.0.0.0/23")) == []
        assert rib.withdraw(5, P("10.0.0.0/23")) is None

    def test_drop_peer(self):
        rib = AdjRibIn()
        rib.insert(learned("10.0.0.0/23", [5, 6], peer=5))
        rib.insert(learned("10.0.1.0/24", [5, 8], peer=5))
        rib.insert(learned("10.0.0.0/23", [7, 6], peer=7))
        dropped = rib.drop_peer_routes(5)
        assert [str(p) for p, _route in dropped] == ["10.0.0.0/23", "10.0.1.0/24"]
        assert len(rib) == 1


#: Mixed lengths and families, so ``ikey`` order differs from text order.
ORACLE_PREFIXES = [P("10.0.1.0/24"), P("10.0.0.0/23"), P("2001:db8::/32")]
ORACLE_PEERS = [5, 6, 7, 8]

#: One step: ``("insert", peer, prefix index, path tail)``,
#: ``("withdraw", peer, prefix index)`` or ``("drop", peer)``.
RIB_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from(ORACLE_PEERS),
            st.integers(0, len(ORACLE_PREFIXES) - 1),
            st.integers(1, 3),
        ),
        st.tuples(
            st.just("withdraw"),
            st.sampled_from(ORACLE_PEERS),
            st.integers(0, len(ORACLE_PREFIXES) - 1),
        ),
        st.tuples(st.just("drop"), st.sampled_from(ORACLE_PEERS)),
    ),
    max_size=40,
)


def _same(left, right):
    """Element-wise identity (routes) or identity pairs (teardown pairs)."""
    if left is None or right is None:
        return left is right
    if isinstance(left, tuple):
        return all(_same(a, b) for a, b in zip(left, right))
    if isinstance(left, list):
        return len(left) == len(right) and all(_same(a, b) for a, b in zip(left, right))
    return left is right


class TestAgainstDictRows:
    """The tuple rows answer every read exactly as one ``{peer: route}``
    dict per prefix did: same routes by identity, same candidate order."""

    @settings(max_examples=300, deadline=None)
    @given(RIB_STEPS)
    def test_matches_dict_oracle(self, steps):
        rib, oracle = AdjRibIn(), DictAdjRibIn()
        for step in steps:
            if step[0] == "insert":
                _kind, peer, index, tail = step
                route = Route(ORACLE_PREFIXES[index], [peer] * tail + [9], peer, 100)
                got, want = rib.insert(route), oracle.insert(route)
            elif step[0] == "withdraw":
                _kind, peer, index = step
                prefix = ORACLE_PREFIXES[index]
                got, want = rib.withdraw(peer, prefix), oracle.withdraw(peer, prefix)
            else:
                got, want = rib.drop_peer_routes(step[1]), oracle.drop_peer_routes(step[1])
            assert _same(got, want), step
            for prefix in ORACLE_PREFIXES:
                assert _same(rib.candidates(prefix), oracle.candidates(prefix)), prefix
            assert _same(list(rib.prefixes()), list(oracle.prefixes()))
            assert len(rib) == len(oracle)
            for peer in ORACLE_PEERS:
                assert _same(rib._routes_from(peer), oracle._routes_from(peer)), peer


class TestRowMemory:
    """A row costs at most 64 bytes per candidate route (the row container
    only; the routes themselves are shared).

    On this world (74 rows, 175 candidates; CPython 3.11, 64-bit) tuple
    rows read 24.9 B per candidate and ``{peer: route}`` dict rows 94.7 B.
    """

    BOUND = 64

    def test_rows_bytes_per_candidate(self, gen_network):
        gen_network.announce(gen_network.asns()[0], "10.0.0.0/23")
        gen_network.announce(gen_network.asns()[-1], "10.0.0.0/23")
        gen_network.announce(gen_network.asns()[-1], "10.0.0.0/24")
        gen_network.run_until_converged()
        rows = [
            row
            for speaker in gen_network.speakers.values()
            for row in speaker.adj_rib_in.prefix_table().values()
        ]
        candidates = sum(map(len, rows))
        assert candidates > len(rows) > 0
        per_candidate = sum(map(sys.getsizeof, rows)) / candidates
        assert per_candidate <= self.BOUND


class TestTeardownOrder:
    """Session teardown order is ascending ``ikey`` (= prefix order),
    whatever order the routes were learned or re-learned in."""

    #: Shuffled on purpose: v6 first, more-specific before covering,
    #: descending /24s; 10.0.3.0/24 is re-learned last.
    LEARN_ORDER = [
        "2001:db8::/32",
        "10.0.3.0/24",
        "10.0.0.0/24",
        "10.0.2.0/24",
        "10.0.0.0/16",
        "10.0.1.0/24",
        "10.0.3.0/24",
    ]
    ASCENDING = [
        "10.0.0.0/16",
        "10.0.0.0/24",
        "10.0.1.0/24",
        "10.0.2.0/24",
        "10.0.3.0/24",
        "2001:db8::/32",
    ]

    def test_classic_drops_in_ascending_ikey(self):
        rib = AdjRibIn()
        for text in self.LEARN_ORDER:
            rib.insert(learned(text, [5, 6], peer=5))
            rib.insert(learned(text, [7, 6], peer=7))
        rib.withdraw(5, P("10.0.2.0/24"))
        rib.insert(learned("10.0.2.0/24", [5, 9], peer=5))
        pairs = rib.drop_peer_routes(5)
        assert [str(p) for p, _route in pairs] == self.ASCENDING
        assert all(route.peer_asn == 5 and route.prefix is p for p, route in pairs)
        ikeys = [p.ikey for p, _route in pairs]
        assert ikeys == sorted(ikeys)
        assert rib.drop_peer_routes(5) == []
        assert [str(p) for p, _route in rib.drop_peer_routes(7)] == self.ASCENDING


class TestLocRib:
    def test_install_get_remove(self):
        rib = LocRib()
        route = learned("10.0.0.0/23", [5, 6], peer=5)
        assert rib.install(route) is None
        assert rib.get(P("10.0.0.0/23")) is route
        assert P("10.0.0.0/23") in rib
        assert rib.remove(P("10.0.0.0/23")) is route
        assert rib.remove(P("10.0.0.0/23")) is None

    def test_install_returns_previous(self):
        rib = LocRib()
        first = learned("10.0.0.0/23", [5, 6], peer=5)
        second = learned("10.0.0.0/23", [7, 6], peer=7)
        rib.install(first)
        assert rib.install(second) is first

    def test_resolve_longest_match(self):
        rib = LocRib()
        covering = learned("10.0.0.0/23", [5, 6], peer=5)
        specific = learned("10.0.0.0/24", [7, 8], peer=7)
        rib.install(covering)
        rib.install(specific)
        assert rib.resolve("10.0.0.1") is specific
        assert rib.resolve("10.0.1.1") is covering
        assert rib.resolve("10.9.0.1") is None

    def test_covered(self):
        rib = LocRib()
        rib.install(learned("10.0.0.0/24", [5, 6], peer=5))
        rib.install(learned("10.0.1.0/24", [5, 6], peer=5))
        rib.install(learned("10.1.0.0/24", [5, 6], peer=5))
        inside = [p for p, _r in rib.covered(P("10.0.0.0/23"))]
        assert inside == [P("10.0.0.0/24"), P("10.0.1.0/24")]

    def test_len_and_iteration(self):
        rib = LocRib()
        rib.install(learned("10.0.0.0/24", [5, 6], peer=5))
        rib.install(learned("10.0.1.0/24", [5, 6], peer=5))
        assert len(rib) == 2
        assert len(list(rib.routes())) == 2
        assert list(rib.prefixes()) == [P("10.0.0.0/24"), P("10.0.1.0/24")]
