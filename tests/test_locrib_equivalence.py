"""Property test: the trie-less Loc-RIB reads like a radix trie.

``LocRib`` keeps one ``ikey``-keyed dict and serves its ordered reads
(``routes``, ``prefixes``, ``covered``, ``snapshot``) by sorting keys on
demand.  The claim it rests on — integer ``ikey`` order is the
(version, value, length) order is radix-trie bit order — is checked here against the thing it
replaced: hypothesis drives one install/remove sequence through a
``LocRib`` and through a ``PrefixTrie`` (the oracle, same idea as
``tests/oracles.py``), and after every step the four reads must equal the
trie's ``values()`` / ``keys()`` / ``covered(p)`` in content *and order*.
Longest-match resolution rides along, against ``longest_match``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bgp.rib import LocRib
from repro.bgp.route import Route
from repro.net.prefix import Prefix

from oracles import PrefixTrie

#: Nested and disjoint, both address families, the two default routes and
#: host routes: every ordering edge the trie walk has.  Each family also has
#: a *shorter* prefix sitting exactly at a probe's next network value
#: (10.0.2.0/23 after 10.0.1.0/24, 192.168.0.2/31 after 192.168.0.1/32,
#: 2001:db8:0:2::/63 after 2001:db8:0:1::/64): the first key past a
#: ``covered`` range, which an upper bound that carries the length bits lets in.
_POOL = [
    Prefix.parse(text)
    for text in (
        "0.0.0.0/0",
        "10.0.0.0/8",
        "10.0.0.0/16",
        "10.0.0.0/23",
        "10.0.0.0/24",
        "10.0.1.0/24",
        "10.0.1.128/25",
        "10.0.2.0/23",
        "10.1.0.0/16",
        "10.128.0.0/9",
        "128.0.0.0/1",
        "192.168.0.0/24",
        "192.168.0.1/32",
        "192.168.0.2/31",
        "255.255.255.255/32",
        "::/0",
        "2001:db8::/32",
        "2001:db8::/64",
        "2001:db8:0:1::/64",
        "2001:db8:0:2::/63",
        "2001:db8::1/128",
        "8000::/1",
    )
]

_PROBES = _POOL + [
    Prefix.parse(text)
    for text in ("10.0.0.0/25", "11.0.0.0/8", "172.16.0.0/12", "2001:db9::/32")
]

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["install", "install", "remove"]),
        st.integers(min_value=0, max_value=len(_POOL) - 1),
        st.integers(min_value=1, max_value=5),
    ),
    min_size=1,
    max_size=40,
)


def _assert_reads_like(rib: LocRib, trie: PrefixTrie) -> None:
    routes = list(trie.values())
    assert all(a is b for a, b in zip(rib.routes(), routes))
    assert len(list(rib.routes())) == len(routes) == len(rib)
    assert list(rib.prefixes()) == list(trie.keys())
    snapshot = rib.snapshot()
    assert isinstance(snapshot, tuple)
    assert list(snapshot) == routes
    for probe in _PROBES:
        assert list(rib.covered(probe)) == list(trie.covered(probe))
        match = trie.longest_match(probe)
        assert rib.resolve(probe) is (match[1] if match else None)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_loc_rib_reads_equal_trie_walks(ops):
    rib = LocRib()
    trie: PrefixTrie[Route] = PrefixTrie()
    for op, index, peer in ops:
        prefix = _POOL[index]
        if op == "install":
            # Re-installs replace in place (a fresh object each time).
            route = Route(prefix, (peer, 65000), peer_asn=peer, local_pref=100)
            previous = rib.install(route)
            assert previous is trie.get(prefix)
            trie[prefix] = route
        else:
            removed = rib.remove(prefix)
            assert removed is trie.get(prefix)
            if removed is not None:
                trie.remove(prefix)
        _assert_reads_like(rib, trie)


def test_covered_equals_trie_on_an_exhaustive_subtree():
    """Every prefix of a small subtree installed at once, every one probed.

    No hand-picked pool: all 63 prefixes under 192.168.0.0/27 plus three
    ancestors (and the same bit patterns under 2001:db8::/123), so every
    "shorter prefix right after the probed range" neighbour exists.
    """
    for version, base, top in ((4, 0xC0A80000, 27), (6, 0x20010DB8 << 96, 123)):
        bits = 32 if version == 4 else 128
        prefixes = [Prefix(base, top - up, version) for up in (1, 2, 3)]
        for length in range(top, bits + 1):
            step = 1 << (bits - length)
            prefixes += [
                Prefix(base + i * step, length, version)
                for i in range(1 << (length - top))
            ]
        rib = LocRib()
        trie: PrefixTrie[Route] = PrefixTrie()
        for prefix in reversed(prefixes):
            route = Route(prefix, (1, 65000), peer_asn=1, local_pref=100)
            rib.install(route)
            trie[prefix] = route
        for probe in prefixes:
            assert list(rib.covered(probe)) == list(trie.covered(probe))
