"""Tests for Route objects and the Adj-RIB-In / Loc-RIB structures."""

import pytest

from repro.bgp.messages import Announcement
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
        assert route.path_length == 0

    def test_learned_requires_path(self):
        with pytest.raises(BGPError):
            Route(P("10.0.0.0/23"), [], peer_asn=5, local_pref=100)

    def test_from_announcement(self):
        announcement = Announcement(P("10.0.0.0/23"), [5, 6])
        route = Route.from_announcement(announcement, peer_asn=5, local_pref=200, learned_at=3.0)
        assert route.origin_as == 6
        assert route.peer_asn == 5
        assert route.learned_at == 3.0

    def test_to_announcement_prepends(self):
        route = learned("10.0.0.0/23", [5, 6], peer=5)
        out = route.to_announcement(sender_asn=9)
        assert out.as_path == (9, 5, 6)

    def test_local_to_announcement(self):
        route = Route.local(P("10.0.0.0/23"))
        out = route.to_announcement(sender_asn=9)
        assert out.as_path == (9,)
        assert out.origin_as == 9

    def test_same_attributes(self):
        a = learned("10.0.0.0/23", [5, 6], peer=5, at=1.0)
        b = learned("10.0.0.0/23", [5, 6], peer=5, at=9.0)
        c = learned("10.0.0.0/23", [5, 7], peer=5)
        assert a.same_attributes(b)
        assert not a.same_attributes(c)


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

    def test_route_from(self):
        rib = AdjRibIn()
        rib.insert(learned("10.0.0.0/23", [5, 6], peer=5))
        assert rib.route_from(5, P("10.0.0.0/23")).origin_as == 6
        assert rib.route_from(9, P("10.0.0.0/23")) is None

    def test_drop_peer(self):
        rib = AdjRibIn()
        rib.insert(learned("10.0.0.0/23", [5, 6], peer=5))
        rib.insert(learned("10.0.1.0/24", [5, 8], peer=5))
        rib.insert(learned("10.0.0.0/23", [7, 6], peer=7))
        dropped = rib.drop_peer(5)
        assert sorted(str(p) for p in dropped) == ["10.0.0.0/23", "10.0.1.0/24"]
        assert len(rib) == 1

    def test_prefixes_from(self):
        rib = AdjRibIn()
        rib.insert(learned("10.0.0.0/23", [5, 6], peer=5))
        assert rib.prefixes_from(5) == [P("10.0.0.0/23")]
        assert rib.prefixes_from(6) == []


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
        assert [str(p) for p in rib.prefixes_from(5)] == self.ASCENDING
        pairs = rib.drop_peer_routes(5)
        assert [str(p) for p, _route in pairs] == self.ASCENDING
        assert all(route.peer_asn == 5 and route.prefix is p for p, route in pairs)
        ikeys = [p.ikey for p, _route in pairs]
        assert ikeys == sorted(ikeys)
        assert rib.prefixes_from(5) == []
        assert [str(p) for p in rib.prefixes_from(7)] == self.ASCENDING


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
