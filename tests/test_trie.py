"""The ``ikey`` prefix-table helpers against the radix-trie oracle.

``src/`` keeps every prefix table as a dict keyed by ``Prefix.ikey`` and
reads it through ``repro.net.prefix``'s ``longest_match``, ``covering``,
``covered_range`` and ``present_lengths``.  The property tests below hold
each of them equal to ``PrefixTrie`` (``tests/oracles.py``, the bit-per-level
trie those tables replaced) over mixed v4/v6 sets, both default routes and
random insert/remove sequences, with and without a present-lengths list;
the unit tests first pin the oracle itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.prefix import (
    Address,
    Prefix,
    covered_range,
    covering,
    longest_match,
    present_lengths,
)

from oracles import PrefixTrie


def P(text):
    return Prefix.parse(text)


class TestBasicOps:
    def test_insert_get(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/24")] = "a"
        assert trie[P("10.0.0.0/24")] == "a"
        assert trie.get(P("10.0.0.0/24")) == "a"

    def test_get_default(self):
        trie = PrefixTrie()
        assert trie.get(P("10.0.0.0/24"), "missing") == "missing"

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            PrefixTrie()[P("10.0.0.0/24")]

    def test_len_and_bool(self):
        trie = PrefixTrie()
        assert not trie and len(trie) == 0
        trie[P("10.0.0.0/24")] = 1
        trie[P("10.0.0.0/23")] = 2
        assert trie and len(trie) == 2

    def test_replace_does_not_grow(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/24")] = 1
        trie[P("10.0.0.0/24")] = 2
        assert len(trie) == 1
        assert trie[P("10.0.0.0/24")] == 2

    def test_contains(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/23")] = 1
        assert P("10.0.0.0/23") in trie
        # Interior node on the path is not a stored key.
        assert P("10.0.0.0/22") not in trie
        assert P("10.0.0.0/24") not in trie

    def test_remove(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/24")] = 1
        assert trie.remove(P("10.0.0.0/24")) == 1
        assert len(trie) == 0
        with pytest.raises(KeyError):
            trie.remove(P("10.0.0.0/24"))

    def test_remove_keeps_other_keys(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/24")] = 1
        trie[P("10.0.0.0/23")] = 2
        del trie[P("10.0.0.0/24")]
        assert trie[P("10.0.0.0/23")] == 2
        assert len(trie) == 1

    def test_root_key(self):
        trie = PrefixTrie()
        trie[P("0.0.0.0/0")] = "default"
        assert trie[P("0.0.0.0/0")] == "default"
        assert trie.longest_match("203.0.113.5")[1] == "default"

    def test_v4_v6_coexist(self):
        trie = PrefixTrie()
        trie[P("0.0.0.0/0")] = "v4"
        trie[P("::/0")] = "v6"
        assert trie.longest_match("10.0.0.1")[1] == "v4"
        assert trie.longest_match(Address.parse("::1"))[1] == "v6"
        assert len(trie) == 2


class TestLongestMatch:
    def test_prefers_more_specific(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/23")] = "covering"
        trie[P("10.0.0.0/24")] = "specific"
        assert trie.longest_match("10.0.0.1") == (P("10.0.0.0/24"), "specific")
        assert trie.longest_match("10.0.1.1") == (P("10.0.0.0/23"), "covering")

    def test_none_when_uncovered(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/24")] = 1
        assert trie.longest_match("11.0.0.1") is None

    def test_prefix_target_not_matched_by_longer(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/24")] = 1
        # A /23 query must not match the stored /24 (it does not cover it).
        assert trie.longest_match(P("10.0.0.0/23")) is None

    def test_prefix_target_matched_by_equal_or_shorter(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/23")] = "x"
        assert trie.longest_match(P("10.0.0.0/23"))[0] == P("10.0.0.0/23")
        assert trie.longest_match(P("10.0.0.0/24"))[0] == P("10.0.0.0/23")

    def test_string_targets(self):
        trie = PrefixTrie()
        trie[P("10.0.0.0/23")] = "x"
        assert trie.longest_match("10.0.0.0/24")[1] == "x"
        assert trie.longest_match("10.0.0.7")[1] == "x"


class TestSubtreeQueries:
    def setup_method(self):
        self.trie = PrefixTrie()
        for text in ["10.0.0.0/22", "10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "11.0.0.0/8"]:
            self.trie[P(text)] = text

    def test_covered(self):
        inside = [p for p, _v in self.trie.covered(P("10.0.0.0/23"))]
        assert inside == [P("10.0.0.0/24"), P("10.0.1.0/24")]

    def test_covered_includes_exact(self):
        inside = [p for p, _v in self.trie.covered(P("10.0.0.0/22"))]
        assert P("10.0.0.0/22") in inside and len(inside) == 4

    def test_covering(self):
        above = [p for p, _v in self.trie.covering(P("10.0.0.0/24"))]
        assert above == [P("10.0.0.0/22"), P("10.0.0.0/24")]

    def test_covering_address(self):
        above = [p for p, _v in self.trie.covering(Address.parse("10.0.2.9"))]
        assert above == [P("10.0.0.0/22"), P("10.0.2.0/24")]

    def test_items_sorted(self):
        keys = list(self.trie.keys())
        assert keys == sorted(keys)
        assert len(keys) == 5

    def test_values_match_items(self):
        assert list(self.trie.values()) == [str(p) for p in self.trie.keys()]


# --------------------------------------------------------------- properties

@st.composite
def v4_prefix(draw):
    value = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    length = draw(st.integers(min_value=0, max_value=32))
    return Prefix(value, length, 4)


@given(st.lists(v4_prefix(), min_size=1, max_size=30), st.integers(0, (1 << 32) - 1))
def test_longest_match_equals_bruteforce(prefixes, probe_value):
    trie = PrefixTrie()
    for index, prefix in enumerate(prefixes):
        trie[prefix] = index
    probe = Address(probe_value, 4)
    expected = None
    for prefix in prefixes:
        if prefix.contains_address(probe):
            if expected is None or prefix.length > expected.length:
                expected = prefix
    match = trie.longest_match(probe)
    if expected is None:
        assert match is None
    else:
        assert match[0] == expected


@st.composite
def nested_prefix(draw):
    """v4 or v6, crowded into the top 10 bits so draws nest and collide."""
    version = draw(st.sampled_from([4, 6]))
    bits = 32 if version == 4 else 128
    value = draw(st.integers(0, (1 << 10) - 1)) << (bits - 10)
    return Prefix(value, draw(st.integers(0, 14)), version)


@given(
    stored=st.lists(nested_prefix(), max_size=30),
    probes=st.lists(nested_prefix(), max_size=10),
    default_routes=st.booleans(),
)
def test_walk_up_longest_match_equals_trie(stored, probes, default_routes):
    """``longest_match`` over an ikey dict ≡ ``PrefixTrie.longest_match``."""
    if default_routes:
        stored = stored + [Prefix(0, 0, 4), Prefix(0, 0, 6)]
    trie, table = PrefixTrie(), {}
    for index, prefix in enumerate(stored):  # index 0: a falsy stored value
        trie[prefix] = index
        table[prefix.ikey] = index
    shortest = min((prefix.length for prefix in stored), default=0)
    # Drawn probes, every stored prefix itself, and a supernet of each that
    # is shorter than anything stored (or the /0 itself).
    shorter = [prefix.supernet(max(0, shortest - 1)) for prefix in stored]
    for probe in probes + stored + shorter:
        match = trie.longest_match(probe)
        assert longest_match(table, probe) == (None if match is None else match[1])


@given(st.lists(v4_prefix(), min_size=1, max_size=30))
def test_insert_remove_leaves_trie_empty(prefixes):
    trie = PrefixTrie()
    unique = list(dict.fromkeys(prefixes))
    for prefix in unique:
        trie[prefix] = str(prefix)
    assert len(trie) == len(unique)
    for prefix in unique:
        assert trie.remove(prefix) == str(prefix)
    assert len(trie) == 0
    assert list(trie.items()) == []


@given(st.lists(v4_prefix(), min_size=1, max_size=30))
def test_iteration_is_sorted_and_complete(prefixes):
    trie = PrefixTrie()
    for prefix in prefixes:
        trie[prefix] = 0
    keys = list(trie.keys())
    assert keys == sorted(keys)
    assert set(keys) == set(prefixes)


class TestDefaultRouteEdgeCases:
    """Default-route (0.0.0.0/0, ::/0) and mixed-version behaviour of the
    subtree queries — the paths the feed interest index leans on."""

    def setup_method(self):
        self.trie = PrefixTrie()
        for text, value in [
            ("0.0.0.0/0", "v4-default"),
            ("10.0.0.0/8", "ten"),
            ("10.0.0.0/24", "ten-24"),
            ("::/0", "v6-default"),
            ("2001:db8::/32", "db8"),
        ]:
            self.trie[P(text)] = value

    def test_covering_yields_default_first(self):
        above = [v for _p, v in self.trie.covering(P("10.0.0.0/24"))]
        assert above == ["v4-default", "ten", "ten-24"]

    def test_covering_address_includes_default(self):
        above = [v for _p, v in self.trie.covering(Address.parse("99.0.0.1"))]
        assert above == ["v4-default"]

    def test_covering_v6_uses_v6_default(self):
        above = [v for _p, v in self.trie.covering(P("2001:db8::/48"))]
        assert above == ["v6-default", "db8"]

    def test_covered_from_default_route_is_version_scoped(self):
        inside_v4 = {v for _p, v in self.trie.covered(P("0.0.0.0/0"))}
        assert inside_v4 == {"v4-default", "ten", "ten-24"}
        inside_v6 = {v for _p, v in self.trie.covered(P("::/0"))}
        assert inside_v6 == {"v6-default", "db8"}

    def test_longest_match_falls_back_to_default(self):
        assert self.trie.longest_match("99.0.0.1")[0] == P("0.0.0.0/0")
        assert self.trie.longest_match("10.1.0.1")[0] == P("10.0.0.0/8")
        assert self.trie.longest_match("10.0.0.1")[0] == P("10.0.0.0/24")
        assert self.trie.longest_match(Address.parse("fe80::1"))[0] == P("::/0")

    def test_longest_match_prefix_target_with_default(self):
        # A /0 target can only be matched by the stored /0.
        match = self.trie.longest_match(P("0.0.0.0/0"))
        assert match == (P("0.0.0.0/0"), "v4-default")

    def test_default_route_removal(self):
        assert self.trie.remove(P("0.0.0.0/0")) == "v4-default"
        assert self.trie.longest_match("99.0.0.1") is None
        # v6 default untouched.
        assert self.trie.longest_match(Address.parse("fe80::1"))[1] == "v6-default"

    def test_mixed_version_iteration_deterministic(self):
        keys = list(self.trie.keys())
        assert keys == sorted(keys)
        assert len(keys) == 5


# ------------------------------------------------- ikey helpers ≡ the oracle

#: Probes beyond the stored prefixes: both default routes, space inside and
#: outside the drawn prefixes in each family, and host addresses (an
#: ``Address`` target is its host prefix).
_EXTRA_PROBES = [
    Prefix.parse(text)
    for text in (
        "0.0.0.0/0", "::/0", "10.0.0.0/25", "11.0.0.0/8", "172.16.0.0/12",
        "2001:db9::/32",
    )
] + [
    Address.parse(text)
    for text in ("10.0.1.77", "99.0.0.1", "2001:db8::1", "fe80::1")
]

_OPS = st.lists(
    st.tuples(st.booleans(), nested_prefix()),  # (insert?, prefix)
    min_size=1,
    max_size=40,
)


def _assert_helpers_equal_trie(table, trie, probes):
    lengths = present_lengths(table)
    for version in (4, 6):
        held = {p.length for p in trie.keys() if p.version == version}
        assert lengths[version] == sorted(held, reverse=True)
    keys = sorted(table)
    for probe in probes:
        match = trie.longest_match(probe)
        expected = None if match is None else match[1]
        above = [value for _p, value in trie.covering(probe)]
        for probe_lengths in (None, lengths[probe.version]):
            assert longest_match(table, probe, probe_lengths) == expected
            assert covering(table, probe, probe_lengths) == above
        if isinstance(probe, Prefix):
            low, high = covered_range(probe)
            inside = [table[key] for key in keys if low <= key < high]
            assert inside == [value for _p, value in trie.covered(probe)]


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, default_routes=st.booleans())
def test_helpers_equal_trie_under_insert_remove(ops, default_routes):
    """After every insert or remove, each helper over the ``ikey`` dict
    answers what the trie answers — content and order — for every stored
    prefix, a supernet, the extra probes and both default routes."""
    table, trie = {}, PrefixTrie()
    if default_routes:
        ops = [(True, Prefix(0, 0, 4)), (True, Prefix(0, 0, 6))] + ops
    for serial, (insert, prefix) in enumerate(ops):
        if insert:
            table[prefix.ikey] = serial  # serial 0: a falsy stored value
            trie[prefix] = serial
        elif prefix in trie:
            assert table.pop(prefix.ikey) == trie.remove(prefix)
        stored = list(trie.keys())
        supernets = [p.supernet(p.length // 2) for p in stored]
        _assert_helpers_equal_trie(table, trie, stored + supernets + _EXTRA_PROBES)


def test_covered_range_is_version_scoped_and_excludes_the_next_network():
    """Both /0 ranges stay inside their family, and a shorter prefix sitting
    at the next network value is outside the range."""
    v4, v6 = covered_range(P("0.0.0.0/0")), covered_range(P("::/0"))
    assert v4[1] <= v6[0]
    for text in ("255.255.255.255/32", "0.0.0.0/0", "10.0.0.0/8"):
        assert v4[0] <= P(text).ikey < v4[1]
    assert v6[0] <= P("ffff::/16").ikey < v6[1]
    low, high = covered_range(P("10.0.1.0/24"))
    assert P("10.0.1.255/32").ikey < high <= P("10.0.2.0/23").ikey
    assert not low <= P("10.0.0.0/23").ikey < high


def test_present_lengths_reads_every_length_field():
    """Host routes and both defaults: /128 needs the length field's top bit."""
    texts = ("0.0.0.0/0", "10.0.0.1/32", "::/0", "::1/128")
    table = {P(text).ikey: text for text in texts}
    assert present_lengths(table) == {4: [32, 0], 6: [128, 0]}
    assert covering(table, Address.parse("::1")) == ["::/0", "::1/128"]
    assert longest_match(table, Address.parse("10.0.0.1"), [32, 0]) == "10.0.0.1/32"
