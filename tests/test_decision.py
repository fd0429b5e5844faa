"""Tests for the BGP decision process."""

from repro.bgp.decision import better, preference_key, rank, select_best
from repro.bgp.route import Route
from repro.net.prefix import Prefix

P23 = Prefix.parse("10.0.0.0/23")


def route(path, peer, lp=100, at=0.0):
    return Route(P23, path, peer, lp, learned_at=at)


class TestOrdering:
    def test_local_pref_dominates_path_length(self):
        customer = route([5, 6, 7, 8], peer=5, lp=300)
        provider = route([9, 8], peer=9, lp=100)
        assert better(customer, provider)
        assert select_best([provider, customer]) is customer

    def test_shorter_path_wins_at_equal_pref(self):
        short = route([5, 8], peer=5)
        long = route([6, 7, 8], peer=6)
        assert select_best([long, short]) is short

    def test_older_route_preferred(self):
        old = route([5, 8], peer=5, at=1.0)
        new = route([6, 8], peer=6, at=2.0)
        assert select_best([new, old]) is old

    def test_lowest_peer_asn_final_tiebreak(self):
        a = route([5, 8], peer=5)
        b = route([6, 8], peer=6)
        assert select_best([b, a]) is a

    def test_local_route_beats_everything(self):
        local = Route.local(P23)
        learned = route([5, 8], peer=5, lp=300)
        assert select_best([learned, local]) is local

    def test_empty_candidates(self):
        assert select_best([]) is None

    def test_single_candidate(self):
        only = route([5, 8], peer=5)
        assert select_best([only]) is only


class TestRank:
    def test_rank_orders_best_first(self):
        best = route([5, 8], peer=5, lp=300)
        middle = route([6, 8], peer=6, lp=200)
        worst = route([7, 8, 9], peer=7, lp=200)
        assert rank([worst, best, middle]) == [best, middle, worst]

    def test_preference_key_total_order(self):
        routes = [
            route([5, 8], peer=5, lp=300),
            route([6, 8], peer=6, lp=200),
            route([7, 8], peer=7, lp=200, at=5.0),
        ]
        keys = [preference_key(r) for r in routes]
        assert keys == sorted(keys)
