"""Tests for prefix-set aggregation."""

from hypothesis import given, strategies as st

from repro.net.aggregate import (
    aggregate,
    covers_same_space,
    merge_siblings,
    remove_covered,
)
from repro.net.prefix import Prefix


def P(text):
    return Prefix.parse(text)


class TestRemoveCovered:
    def test_drops_more_specifics(self):
        result = remove_covered([P("10.0.0.0/23"), P("10.0.0.0/24"), P("10.0.1.0/24")])
        assert result == [P("10.0.0.0/23")]

    def test_keeps_disjoint(self):
        prefixes = [P("10.0.0.0/24"), P("10.0.2.0/24")]
        assert remove_covered(prefixes) == prefixes

    def test_deduplicates(self):
        assert remove_covered([P("10.0.0.0/24"), P("10.0.0.0/24")]) == [P("10.0.0.0/24")]

    def test_empty(self):
        assert remove_covered([]) == []


class TestMergeSiblings:
    def test_merges_halves(self):
        assert merge_siblings([P("10.0.0.0/24"), P("10.0.1.0/24")]) == [P("10.0.0.0/23")]

    def test_merges_recursively(self):
        quarters = [
            P("10.0.0.0/24"), P("10.0.1.0/24"), P("10.0.2.0/24"), P("10.0.3.0/24")
        ]
        assert merge_siblings(quarters) == [P("10.0.0.0/22")]

    def test_non_siblings_untouched(self):
        # Adjacent but not complementary halves of the same parent.
        prefixes = [P("10.0.1.0/24"), P("10.0.2.0/24")]
        assert merge_siblings(prefixes) == prefixes

    def test_mixed_lengths(self):
        result = merge_siblings([P("10.0.0.0/24"), P("10.0.1.0/25"), P("10.0.1.128/25")])
        assert result == [P("10.0.0.0/23")]

    def test_default_routes_of_both_families_stay(self):
        # A /0 has no parent (Prefix.supernet raises), so the pair walk
        # must not try to merge the v4 and v6 default routes.
        defaults = [P("0.0.0.0/0"), P("::/0")]
        assert merge_siblings(defaults) == defaults


class TestAggregate:
    def test_deaggregation_roundtrip(self):
        prefix = P("10.0.0.0/22")
        assert aggregate(prefix.deaggregate(25)) == [prefix]

    def test_covered_plus_siblings(self):
        result = aggregate(
            [P("10.0.0.0/23"), P("10.0.0.0/24"), P("10.0.1.0/24"), P("10.0.2.0/24")]
        )
        assert result == [P("10.0.0.0/23"), P("10.0.2.0/24")]

    def test_covers_same_space(self):
        assert covers_same_space(
            [P("10.0.0.0/24"), P("10.0.1.0/24")], [P("10.0.0.0/23")]
        )
        assert not covers_same_space([P("10.0.0.0/24")], [P("10.0.0.0/23")])

    def test_halves_merge_into_the_default_route(self):
        assert aggregate([P("128.0.0.0/1"), P("0.0.0.0/1")]) == [P("0.0.0.0/0")]

    def test_v4_v6_do_not_merge(self):
        prefixes = [P("10.0.0.0/24"), P("2001:db8::/48")]
        assert aggregate(prefixes) == sorted(prefixes)


@st.composite
def prefix_sets(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    prefixes = []
    for _ in range(count):
        value = draw(st.integers(min_value=0, max_value=(1 << 16) - 1)) << 16
        length = draw(st.integers(min_value=8, max_value=26))
        prefixes.append(Prefix(value, length, 4))
    return prefixes


@given(prefix_sets())
def test_aggregate_idempotent(prefixes):
    once = aggregate(prefixes)
    assert aggregate(once) == once


@given(prefix_sets())
def test_aggregate_never_grows(prefixes):
    assert len(aggregate(prefixes)) <= len(set(prefixes))


@given(prefix_sets())
def test_aggregate_preserves_membership(prefixes):
    aggregated = aggregate(prefixes)
    # Every input prefix is covered by some aggregate.
    for prefix in prefixes:
        assert any(agg.contains(prefix) for agg in aggregated)
    # Every aggregate is fully decomposable into input coverage: its
    # address count never exceeds what the inputs covered (exactness).
    input_space = sum(p.num_addresses for p in remove_covered(prefixes))
    output_space = sum(p.num_addresses for p in aggregated)
    assert output_space == input_space
