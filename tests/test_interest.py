"""Tests for the subscription interest index."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.feeds.interest import InterestIndex, Subscription
from repro.net.prefix import Prefix


def P(text):
    return Prefix.parse(text)


#: Filter prefixes: nested, disjoint, both families and both default routes.
_FILTERS = [
    P(text)
    for text in (
        "0.0.0.0/0", "10.0.0.0/8", "10.0.0.0/16", "10.0.0.0/23", "10.0.0.0/24",
        "10.0.1.0/24", "10.0.2.0/23", "99.1.0.0/24", "::/0", "2001:db8::/32",
        "2001:db8::/48",
    )
]

#: Every filter prefix plus observations inside, around and outside them.
_OBSERVED = _FILTERS + [
    P(text)
    for text in (
        "10.0.0.0/25", "10.200.0.0/16", "99.1.0.128/25", "99.2.0.0/16",
        "172.16.0.0/12", "2001:db8:1::/48", "2001:db9::/32",
    )
]

#: ("add", None | filter list), ("discard" | "deactivate", which subscription).
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.none() | st.lists(st.sampled_from(_FILTERS), min_size=1, max_size=3),
        ),
        st.tuples(st.sampled_from(["discard", "deactivate"]), st.integers(0, 63)),
    ),
    max_size=25,
)


class TestSubscription:
    def test_wildcard_matches_everything(self):
        sub = Subscription(lambda e: None, None)
        assert sub.matches(P("10.0.0.0/23"))
        assert sub.matches(P("2001:db8::/32"))

    def test_filter_matches_overlap_both_directions(self):
        sub = Subscription(lambda e: None, [P("10.0.0.0/23")])
        assert sub.matches(P("10.0.0.0/23"))  # exact
        assert sub.matches(P("10.0.0.0/24"))  # more specific
        assert sub.matches(P("10.0.0.0/16"))  # covering
        assert not sub.matches(P("10.0.2.0/24"))  # sibling


class TestInterestIndex:
    def test_wildcard_lookup(self):
        index = InterestIndex()
        sub = index.add(lambda e: None)
        assert index.lookup(P("99.0.0.0/16")) == [sub]
        assert index.any_match(P("2001:db8::/32"))

    def test_covering_and_covered_both_match(self):
        index = InterestIndex()
        sub = index.add(lambda e: None, [P("10.0.0.0/23")])
        assert index.lookup(P("10.0.0.0/23")) == [sub]  # exact
        assert index.lookup(P("10.0.0.0/24")) == [sub]  # observed inside filter
        assert index.lookup(P("10.0.0.0/8")) == [sub]  # observed covers filter
        assert index.lookup(P("10.0.2.0/24")) == []  # disjoint
        assert index.lookup(P("11.0.0.0/23")) == []

    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_lookup_agrees_with_linear_scan(self, ops):
        """After every add, ``discard`` or ``active = False``, each lookup is
        the linear scan over ``Subscription.matches`` in subscription order,
        ``any_match`` agrees, and a lookup round leaves only active
        subscriptions behind (the inactive ones are dropped lazily)."""
        index = InterestIndex()
        subs = []
        lookups = hits = 0
        for op, arg in ops:
            if op == "add":
                subs.append(index.add(lambda e: None, arg))
            elif subs:
                sub = subs[arg % len(subs)]
                if op == "discard":
                    index.discard(sub)
                else:
                    sub.active = False
            for prefix in _OBSERVED:
                expected = [s for s in subs if s.active and s.matches(prefix)]
                assert index.any_match(prefix) == bool(expected)
                assert index.lookup(prefix) == expected
                lookups, hits = lookups + 1, hits + bool(expected)
            assert len(index) == sum(s.active for s in subs)
        assert (index.lookups, index.hits) == (lookups, hits)

    def test_delivery_order_is_subscription_order(self):
        index = InterestIndex()
        # Register in a deliberately "bad" trie order: the covering /8
        # first would otherwise be visited before the /24.
        a = index.add(lambda e: None, [P("10.0.0.0/24")])
        b = index.add(lambda e: None)
        c = index.add(lambda e: None, [P("10.0.0.0/8")])
        assert index.lookup(P("10.0.0.0/24")) == [a, b, c]

    def test_multiple_filters_deduplicated(self):
        index = InterestIndex()
        sub = index.add(lambda e: None, [P("10.0.0.0/16"), P("10.0.0.0/24")])
        # Both filter prefixes overlap the observation; one delivery only.
        assert index.lookup(P("10.0.0.0/23")) == [sub]

    def test_shared_filter_prefix(self):
        index = InterestIndex()
        a = index.add(lambda e: None, [P("10.0.0.0/23")])
        b = index.add(lambda e: None, [P("10.0.0.0/23")])
        assert index.lookup(P("10.0.0.0/24")) == [a, b]
        index.discard(a)
        assert index.lookup(P("10.0.0.0/24")) == [b]

    def test_discard_is_idempotent_and_updates_size(self):
        index = InterestIndex()
        sub = index.add(lambda e: None, [P("10.0.0.0/23")])
        assert len(index) == 1
        index.discard(sub)
        index.discard(sub)
        assert len(index) == 0
        assert not index.any_match(P("10.0.0.0/23"))

    def test_inactive_subscription_skipped_and_lazily_dropped(self):
        index = InterestIndex()
        sub = index.add(lambda e: None, [P("10.0.0.0/23")])
        sub.active = False
        assert index.lookup(P("10.0.0.0/23")) == []
        # Lazy cleanup removed it from the index entirely.
        assert len(index) == 0

    def test_mixed_versions_do_not_cross_match(self):
        index = InterestIndex()
        v4 = index.add(lambda e: None, [P("10.0.0.0/8")])
        v6 = index.add(lambda e: None, [P("2001:db8::/32")])
        assert index.lookup(P("10.1.0.0/16")) == [v4]
        assert index.lookup(P("2001:db8::/48")) == [v6]

    def test_default_route_filter_matches_whole_version(self):
        index = InterestIndex()
        sub = index.add(lambda e: None, [P("0.0.0.0/0")])
        assert index.lookup(P("203.0.113.0/24")) == [sub]
        assert index.lookup(P("2001:db8::/32")) == []

    def test_counters(self):
        index = InterestIndex()
        index.add(lambda e: None, [P("10.0.0.0/23")])
        index.lookup(P("10.0.0.0/24"))
        index.lookup(P("99.0.0.0/16"))
        assert index.lookups == 2
        assert index.hits == 1

    def test_any_match_does_not_touch_counters(self):
        index = InterestIndex()
        index.add(lambda e: None, [P("10.0.0.0/23")])
        assert index.any_match(P("10.0.0.0/24"))
        assert not index.any_match(P("99.0.0.0/16"))
        assert index.lookups == 0
