"""Unit and property tests for repro.net.prefix."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.errors import PrefixError
from repro.net.prefix import Address, Prefix


# ----------------------------------------------------------------- Address

class TestAddressParsing:
    def test_parse_v4(self):
        address = Address.parse("10.0.0.1")
        assert address.version == 4
        assert address.value == (10 << 24) | 1

    def test_parse_v4_boundaries(self):
        assert Address.parse("0.0.0.0").value == 0
        assert Address.parse("255.255.255.255").value == (1 << 32) - 1

    def test_str_roundtrip_v4(self):
        assert str(Address.parse("192.168.1.200")) == "192.168.1.200"

    @pytest.mark.parametrize(
        "bad", ["10.0.0", "10.0.0.0.0", "256.0.0.1", "1.2.3.04", "a.b.c.d", ""]
    )
    def test_invalid_v4(self, bad):
        with pytest.raises(PrefixError):
            Address.parse(bad)

    def test_parse_v6_full(self):
        address = Address.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert address.version == 6
        assert str(address) == "2001:db8::1"

    def test_parse_v6_compressed(self):
        assert Address.parse("::").value == 0
        assert Address.parse("::1").value == 1
        assert Address.parse("2001:db8::").value == 0x20010DB8 << 96

    @pytest.mark.parametrize("bad", ["::1::2", "2001:db8", "1:2:3:4:5:6:7:8:9", ":::"])
    def test_invalid_v6(self, bad):
        with pytest.raises(PrefixError):
            Address.parse(bad)

    def test_v6_str_compresses_longest_zero_run(self):
        assert str(Address.parse("1:0:0:2:0:0:0:3")) == "1:0:0:2::3"

    def test_ordering_and_hash(self):
        a = Address.parse("10.0.0.1")
        b = Address.parse("10.0.0.2")
        v6 = Address.parse("::1")
        assert a < b
        assert a < v6  # version orders first
        assert hash(a) == hash(Address.parse("10.0.0.1"))

    def test_value_range_checked(self):
        with pytest.raises(PrefixError):
            Address(1 << 32, version=4)
        with pytest.raises(PrefixError):
            Address(-1, version=4)
        with pytest.raises(PrefixError):
            Address(0, version=5)


# ------------------------------------------------------------------ Prefix

class TestPrefixBasics:
    def test_parse(self):
        prefix = Prefix.parse("10.0.0.0/23")
        assert prefix.length == 23
        assert str(prefix) == "10.0.0.0/23"

    def test_host_bits_zeroed(self):
        assert Prefix.parse("10.0.1.77/23") == Prefix.parse("10.0.0.0/23")

    def test_bare_address_is_host_prefix(self):
        assert Prefix.parse("10.0.0.1").length == 32
        assert Prefix.parse("::1").length == 128

    @pytest.mark.parametrize("bad", ["10.0.0.0/33", "10.0.0.0/x", "::/129"])
    def test_invalid(self, bad):
        with pytest.raises(PrefixError):
            Prefix.parse(bad)

    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/23").num_addresses == 512
        assert Prefix.parse("10.0.0.0/32").num_addresses == 1

    def test_bit_at(self):
        prefix = Prefix.parse("128.0.0.0/1")
        assert prefix.bit_at(0) == 1
        with pytest.raises(PrefixError):
            prefix.bit_at(32)

    def test_equality_and_hash(self):
        a = Prefix.parse("10.0.0.0/24")
        assert a == Prefix.parse("10.0.0.0/24")
        assert a != Prefix.parse("10.0.0.0/23")
        assert hash(a) == hash(Prefix.parse("10.0.0.0/24"))

    def test_ordering_groups_supernets_first(self):
        p23 = Prefix.parse("10.0.0.0/23")
        p24 = Prefix.parse("10.0.0.0/24")
        p24b = Prefix.parse("10.0.1.0/24")
        assert sorted([p24b, p24, p23]) == [p23, p24, p24b]


class TestContainment:
    def test_contains_equal(self):
        p = Prefix.parse("10.0.0.0/23")
        assert p.contains(p)

    def test_contains_more_specific(self):
        assert Prefix.parse("10.0.0.0/23").contains(Prefix.parse("10.0.1.0/24"))

    def test_not_contains_sibling(self):
        assert not Prefix.parse("10.0.0.0/24").contains(Prefix.parse("10.0.1.0/24"))

    def test_not_contains_shorter(self):
        assert not Prefix.parse("10.0.0.0/24").contains(Prefix.parse("10.0.0.0/23"))

    def test_version_mismatch(self):
        assert not Prefix.parse("::/0").contains(Prefix.parse("10.0.0.0/8"))

    def test_default_route_contains_everything_v4(self):
        default = Prefix.parse("0.0.0.0/0")
        assert default.contains(Prefix.parse("203.0.113.0/24"))

    def test_is_more_specific_of(self):
        assert Prefix.parse("10.0.0.0/24").is_more_specific_of(
            Prefix.parse("10.0.0.0/23")
        )
        assert not Prefix.parse("10.0.0.0/23").is_more_specific_of(
            Prefix.parse("10.0.0.0/23")
        )

    def test_overlaps(self):
        a = Prefix.parse("10.0.0.0/23")
        b = Prefix.parse("10.0.1.0/24")
        c = Prefix.parse("10.0.2.0/24")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_contains_address(self):
        p = Prefix.parse("10.0.0.0/23")
        assert p.contains_address("10.0.1.255")
        assert not p.contains_address("10.0.2.0")
        assert not p.contains_address("::1")


class TestSplitAndDeaggregate:
    def test_split(self):
        low, high = Prefix.parse("10.0.0.0/23").split()
        assert low == Prefix.parse("10.0.0.0/24")
        assert high == Prefix.parse("10.0.1.0/24")

    def test_split_host_prefix_fails(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.1/32").split()

    def test_deaggregate_default_one_level(self):
        children = Prefix.parse("10.0.0.0/23").deaggregate()
        assert children == [
            Prefix.parse("10.0.0.0/24"),
            Prefix.parse("10.0.1.0/24"),
        ]

    def test_deaggregate_deeper(self):
        children = Prefix.parse("10.0.0.0/22").deaggregate(24)
        assert len(children) == 4
        assert children[0] == Prefix.parse("10.0.0.0/24")
        assert children[-1] == Prefix.parse("10.0.3.0/24")

    def test_deaggregate_invalid_targets(self):
        p = Prefix.parse("10.0.0.0/24")
        with pytest.raises(PrefixError):
            p.deaggregate(24)
        with pytest.raises(PrefixError):
            p.deaggregate(23)
        with pytest.raises(PrefixError):
            p.deaggregate(33)

    def test_subnets_requires_longer(self):
        with pytest.raises(PrefixError):
            list(Prefix.parse("10.0.0.0/24").subnets(23))

    def test_supernet(self):
        assert Prefix.parse("10.0.1.0/24").supernet() == Prefix.parse("10.0.0.0/23")
        assert Prefix.parse("10.0.1.0/24").supernet(16) == Prefix.parse("10.0.0.0/16")
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/24").supernet(25)

    def test_common_prefix_length(self):
        a = Prefix.parse("10.0.0.0/24")
        b = Prefix.parse("10.0.1.0/24")
        assert a.common_prefix_length(b) == 23
        assert a.common_prefix_length(Prefix.parse("::/0")) == 0


# --------------------------------------------------------------- properties

octet = st.integers(min_value=0, max_value=255)


@st.composite
def v4_prefixes(draw):
    value = draw(st.integers(min_value=0, max_value=(1 << 32) - 1))
    length = draw(st.integers(min_value=0, max_value=32))
    return Prefix(value, length, 4)


@st.composite
def v6_prefixes(draw):
    value = draw(st.integers(min_value=0, max_value=(1 << 128) - 1))
    length = draw(st.integers(min_value=0, max_value=128))
    return Prefix(value, length, 6)


@given(st.lists(st.one_of(v4_prefixes(), v6_prefixes()), max_size=30))
def test_one_key_orders_compares_and_hashes(prefixes):
    """``ikey`` is the only key a Prefix carries: ``sorted``, ``<``, ``==``,
    ``hash`` and dict lookup must read as (version, network, length) does."""

    def triple(p):
        return (p.version, p.value, p.length)

    assert sorted(prefixes) == sorted(prefixes, key=triple)
    assert [p.ikey for p in sorted(prefixes)] == sorted(p.ikey for p in prefixes)
    table = {p: triple(p) for p in prefixes}
    for a in prefixes:
        twin = Prefix(a.value, a.length, a.version)
        assert twin == a and hash(twin) == hash(a) and table[twin] == triple(a)
        assert copy.deepcopy(a) is a
        for b in prefixes:
            assert (a < b) == (triple(a) < triple(b))
            assert (a == b) == (triple(a) == triple(b))
            assert (a <= b) == (triple(a) <= triple(b))
    assert len(table) == len({triple(p) for p in prefixes})


@given(v4_prefixes())
def test_parse_str_roundtrip(prefix):
    assert Prefix.parse(str(prefix)) == prefix


@given(v4_prefixes())
def test_split_children_partition_parent(prefix):
    if prefix.length >= 32:
        return
    low, high = prefix.split()
    assert prefix.contains(low) and prefix.contains(high)
    assert not low.overlaps(high)
    assert low.num_addresses + high.num_addresses == prefix.num_addresses

@given(v4_prefixes(), v4_prefixes())
def test_containment_antisymmetry(a, b):
    if a.contains(b) and b.contains(a):
        assert a == b


@given(v4_prefixes(), v4_prefixes())
def test_overlap_symmetry(a, b):
    assert a.overlaps(b) == b.overlaps(a)


@given(v4_prefixes(), st.integers(min_value=0, max_value=32))
def test_supernet_contains(prefix, new_length):
    if new_length > prefix.length:
        return
    assert prefix.supernet(new_length).contains(prefix)
