"""Property test: the flat tree is observationally equal to the node tree.

Same shape as ``test_classify_equivalence.py``: hypothesis drives
randomized operation sequences — tenant onboarding and resolve probes —
through the oracle ``PrefixTree``, handed each onboarded tenant's rows,
and the registry's own ``FlatPrefixTree``, and every observable must
agree at every step: resolve results (rule identity, exact flags, and order), stored
size, epoch, rule count, monitored-prefix listing, and exact-tenant
lookups.  Rules are interned per registry, so result equality is object
identity — the strictest possible match.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings, strategies as st

from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.net.prefix import Prefix, present_lengths
from repro.tenants import FlatPrefixTree, TenantRegistry
from repro.tenants.registry import TenantPolicy, TenantRule

from oracles import PrefixTree

#: Deliberately nested monitored pool: overlaps exercise the
#: most-specific-per-tenant overwrite and the exact flags.
_POOL = [
    "10.0.0.0/8",
    "10.0.0.0/16",
    "10.0.0.0/23",
    "10.0.0.0/24",
    "10.0.1.0/24",
    "10.1.0.0/16",
    "10.128.0.0/9",
    "192.168.0.0/24",
    "0.0.0.0/0",
    "2001:db8::/32",
    "2001:db8::/64",
]

_PROBES = [Prefix.parse(text) for text in _POOL] + [
    Prefix.parse("10.0.0.0/25"),
    Prefix.parse("10.0.0.128/25"),
    Prefix.parse("10.2.0.0/16"),
    Prefix.parse("11.0.0.0/8"),
    Prefix.parse("192.168.0.1/32"),
    Prefix.parse("172.16.0.0/12"),
    Prefix.parse("2001:db8::1/128"),
    Prefix.parse("2001:db9::/32"),
]

#: One onboarded tenant per seed, its config drawn from the seed.
_OPS = st.lists(st.integers(min_value=0, max_value=2 ** 16), min_size=1, max_size=24)


def _config(seed: int) -> ArtemisConfig:
    count = 1 + seed % 3
    chosen = {(seed + i * 7) % len(_POOL) for i in range(count)}
    entries = [
        OwnedPrefix(_POOL[index], [65000 + seed % 50])
        for index in sorted(chosen)
    ]
    return ArtemisConfig(entries)


def _observe(tree, probe):
    return [(id(rule), rule.policy.tenant, exact) for rule, exact in tree.resolve(probe)]


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_flat_tree_equivalent_under_randomized_onboarding(ops):
    registry = TenantRegistry()
    node = PrefixTree()
    flat = registry.tree
    for serial, seed in enumerate(ops):
        node.insert_rules(registry.add_tenant(f"tenant-{serial:04d}", _config(seed)))
        assert node.epoch == flat.epoch
        assert node.num_rules == flat.num_rules
        assert len(node) == len(flat)
        for probe in _PROBES:
            assert _observe(node, probe) == _observe(flat, probe), probe
    assert node.monitored_prefixes() == flat.monitored_prefixes()
    for prefix in node.monitored_prefixes():
        assert node.tenants_at(prefix) == flat.tenants_at(prefix)


# ------------------------------------------------------------ batch mutation
#
# ``FlatPrefixTree.insert_rules`` takes a batch of rows and bumps the epoch
# once for it.  The property: whatever the batches, the
# table is the one the same rows build one at a time — in the node oracle
# and in a second table fed single-row batches.

_BULK_POOL = [Prefix.parse(text) for text in _POOL + [
    "::/0",
    "2001:db8:0:1::/64",
    "2001:db9::/32",
    "10.0.0.0/25",
    "255.255.255.255/32",
]]

_BULK_PROBES = _PROBES + _BULK_POOL[len(_POOL):]

_BULK_POLICIES = [
    TenantPolicy(name, True, True, 0.0, 0, None, None, True)
    for name in ("t-a", "t-b", "t-c")
]

#: Insert batches of (tenant, prefix) picks — the same pick twice is the
#: same prefix twice under one tenant.
_BULK_OPS = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, len(_BULK_POLICIES) - 1),
            st.integers(0, len(_BULK_POOL) - 1),
        ),
        min_size=1,
        max_size=10,
    ),
    min_size=1,
    max_size=14,
)


def _batch(picks):
    return [
        TenantRule(_BULK_POLICIES[tenant], _BULK_POOL[index], frozenset({65000}))
        for tenant, index in picks
    ]


@settings(max_examples=200, deadline=None)
@given(ops=_BULK_OPS)
def test_bulk_load_is_the_one_at_a_time_insert(ops):
    bulk, single, node = FlatPrefixTree(), FlatPrefixTree(), PrefixTree()
    live = []
    for picks in ops:
        batch = _batch(picks)
        live.extend(batch)
        bulk.insert_rules(batch)
        for rule in batch:
            single.insert_rules([rule])
            node.insert_rules([rule])
        assert bulk.num_rules == single.num_rules == node.num_rules == len(live)
        assert len(bulk) == len(single) == len(node)
        assert bulk.nbytes() == single.nbytes()
        for probe in _BULK_PROBES:
            expected = _observe(node, probe)
            assert _observe(bulk, probe) == expected, probe
            assert _observe(single, probe) == expected, probe
        monitored = node.monitored_prefixes()
        assert bulk.monitored_prefixes() == single.monitored_prefixes() == monitored
        for prefix in monitored:
            assert bulk.tenants_at(prefix) == node.tenants_at(prefix)


# ------------------------------------------------------------ O(batch) upkeep
#
# An insert batch keeps the tree's lengths and shared-tuple bytes up to date
# from its own rows.  The property: whatever the batches, the tree answers as
# a tree freshly built from the live rows, and ``nbytes()`` is a full recount.

_RANDOM_PROBES = st.lists(
    st.one_of(
        st.builds(
            lambda value, length: Prefix(value, length, 4),
            st.integers(0, (1 << 32) - 1),
            st.integers(0, 32),
        ),
        st.builds(
            lambda value, length: Prefix(value, length, 6),
            st.integers(0, (1 << 128) - 1),
            st.integers(0, 128),
        ),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(ops=_BULK_OPS, probes=_RANDOM_PROBES)
def test_mutated_tree_answers_as_a_fresh_build(ops, probes):
    tree = FlatPrefixTree()
    live = []
    for picks in ops:
        batch = _batch(picks)
        live.extend(batch)
        tree.insert_rules(batch)
        fresh = FlatPrefixTree()
        fresh.insert_rules(live)
        assert tree.nbytes() == sys.getsizeof(tree._table) + sum(
            sys.getsizeof(held) for held in tree._table.values() if type(held) is tuple
        )
        assert tree._lengths == present_lengths(tree._table)
        for probe in _BULK_PROBES + fresh.monitored_prefixes() + probes:
            assert _observe(tree, probe) == _observe(fresh, probe), probe
