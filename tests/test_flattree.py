"""Unit contracts of the shared tenant prefix table.

``FlatPrefixTree`` must agree with the node-object oracle ``PrefixTree``:
same resolve semantics (most specific rule per tenant, sorted tenant
order, per-bucket exact flags), same incremental onboarding (one epoch
bump per batch: per tenant in the registry's own table, once for a
``FlatPrefixTree(registry)`` snapshot), plus the ``tree_bytes`` gauge.
Cross-implementation equivalence under randomized operation sequences is
property-tested separately in ``test_flattree_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.net.prefix import Prefix, present_lengths
from repro.perf import COUNTERS
from repro.tenants import FlatPrefixTree, TenantRegistry, flattree

from oracles import PrefixTree


def small_registry():
    registry = TenantRegistry()
    registry.add_tenant(
        "alpha",
        ArtemisConfig(
            [
                OwnedPrefix("10.0.0.0/16", [65001]),
                OwnedPrefix("10.0.1.0/24", [65001]),
            ]
        ),
    )
    registry.add_tenant(
        "beta", ArtemisConfig([OwnedPrefix("10.0.0.0/23", [65002])])
    )
    return registry


class TestResolveSemantics:
    def test_exact_and_covering_matches(self):
        tree = FlatPrefixTree(small_registry())
        matches = tree.resolve(Prefix.parse("10.0.0.0/16"))
        assert [(m[0].policy.tenant, m[1]) for m in matches] == [("alpha", True)]
        matches = tree.resolve(Prefix.parse("10.0.0.0/24"))
        # Covered by alpha's /16 and beta's /23, exactly equal to neither.
        assert [(m[0].policy.tenant, m[1]) for m in matches] == [
            ("alpha", False),
            ("beta", False),
        ]

    def test_most_specific_rule_per_tenant_wins(self):
        tree = FlatPrefixTree(small_registry())
        matches = tree.resolve(Prefix.parse("10.0.1.0/24"))
        by_tenant = {m[0].policy.tenant: m for m in matches}
        # Alpha monitors both the /16 and the /24; the /24 must win.
        assert str(by_tenant["alpha"][0].prefix) == "10.0.1.0/24"
        assert by_tenant["alpha"][1] is True

    def test_results_sorted_by_tenant_name(self):
        registry = TenantRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.add_tenant(
                name, ArtemisConfig([OwnedPrefix("10.0.0.0/16", [65001])])
            )
        tree = FlatPrefixTree(registry)
        matches = tree.resolve(Prefix.parse("10.0.0.0/24"))
        assert [m[0].policy.tenant for m in matches] == ["alpha", "mid", "zeta"]

    def test_miss_returns_shared_empty_list(self):
        tree = FlatPrefixTree(small_registry())
        one = tree.resolve(Prefix.parse("192.168.0.0/24"))
        two = tree.resolve(Prefix.parse("172.16.0.0/12"))
        assert one == [] and one is two  # no per-miss allocation

    def test_resolve_counts_trie_walks(self):
        tree = FlatPrefixTree(small_registry())
        COUNTERS.reset()
        tree.resolve(Prefix.parse("10.0.0.0/24"))
        tree.resolve(Prefix.parse("192.168.0.0/24"))
        assert COUNTERS.pipeline_trie_walks == 2

    def test_ipv6_full_length_prefix(self):
        registry = TenantRegistry()
        registry.add_tenant(
            "v6", ArtemisConfig([OwnedPrefix("2001:db8::/32", [65001])])
        )
        tree = FlatPrefixTree(registry)
        # A /128 probe: the longest IPv6 length, against a /32 entry.
        matches = tree.resolve(Prefix.parse("2001:db8::1/128"))
        assert [(m[0].policy.tenant, m[1]) for m in matches] == [("v6", False)]

    def test_tenants_at_and_monitored_prefixes(self):
        registry = small_registry()
        flat = FlatPrefixTree(registry)
        node = PrefixTree(registry)
        assert flat.monitored_prefixes() == node.monitored_prefixes()
        for prefix in flat.monitored_prefixes():
            assert flat.tenants_at(prefix) == node.tenants_at(prefix)
        assert flat.tenants_at(Prefix.parse("10.99.0.0/16")) == []


class TestMutation:
    def test_epoch_bumps_once_per_batch(self):
        registry = small_registry()
        tree = registry.tree
        assert tree.epoch == 2  # one insert_rules batch per tenant
        assert FlatPrefixTree(registry).epoch == 1  # a snapshot is one batch
        registry.add_tenant(
            "gamma", ArtemisConfig([OwnedPrefix("10.7.0.0/16", [65007])])
        )
        assert tree.epoch == 3
        registry.add_tenant(
            "delta",
            ArtemisConfig(
                [OwnedPrefix("10.8.0.0/16", [65008]), OwnedPrefix("10.8.1.0/24", [65008])]
            ),
        )
        assert tree.epoch == 4
        assert tree.num_rules == 6

    def test_failed_insert_counts_what_it_linked(self):
        """A row that cannot name its tenant, or names no prefix, stops the
        batch: the rows before it in arrival order are linked, counted and
        epoch-stamped, and the bad row's prefix is not left behind."""

        class Nameless:
            prefix = Prefix.parse("10.200.0.0/16")

        registry = small_registry()
        tree = FlatPrefixTree(registry)
        tenant = TenantRegistry()
        good = tenant.add_tenant(
            "gamma", ArtemisConfig([OwnedPrefix("10.7.0.0/16", [65007])])
        )[0]
        later = tenant.add_tenant(
            "delta", ArtemisConfig([OwnedPrefix("10.8.0.0/16", [65008])])
        )[0]
        epoch, rules, size = tree.epoch, tree.num_rules, len(tree)
        # A batch that fails on its first row changed nothing: no bump.
        with pytest.raises(AttributeError):
            tree.insert_rules([Nameless(), good])
        assert (tree.epoch, tree.num_rules, len(tree)) == (epoch, rules, size)
        assert tree.resolve(good.prefix) == []
        with pytest.raises(AttributeError):
            tree.insert_rules([good, Nameless()])
        assert tree.resolve(good.prefix) == [(good, True)]
        assert (tree.epoch, tree.num_rules, len(tree)) == (epoch + 1, rules + 1, size + 1)
        assert Nameless.prefix not in tree.monitored_prefixes()
        with pytest.raises(AttributeError):
            tree.insert_rules([later, object()])
        assert tree.resolve(later.prefix) == [(later, True)]
        assert (tree.epoch, tree.num_rules, len(tree)) == (epoch + 2, rules + 2, size + 2)

    def test_failed_insert_keeps_the_lengths_it_linked(self):
        """The rows before a bad one are resolvable even at a prefix length
        the table did not hold before the batch."""
        tree = FlatPrefixTree(small_registry())
        good = TenantRegistry().add_tenant(
            "gamma", ArtemisConfig([OwnedPrefix("10.7.0.0/17", [65007])])
        )[0]
        with pytest.raises(AttributeError):
            tree.insert_rules([good, object()])
        assert tree.resolve(Prefix.parse("10.7.1.0/24")) == [(good, False)]

    def test_tenant_add_reads_only_its_own_keys(self, monkeypatch):
        """On a registry's 10k-prefix table, onboarding a tenant hands
        ``present_lengths`` that tenant's new keys and nothing else: a
        mutation costs its own rows."""
        from repro.tenants.synth import build_synth_registry

        registry = build_synth_registry(
            {Prefix.parse("10.0.0.0/24"): 65001}, num_tenants=10, num_prefixes=10_000
        )
        tree = registry.tree
        assert len(tree) > 9_000
        passed = []

        def recording(ikeys):
            ikeys = list(ikeys)
            passed.append(ikeys)
            return present_lengths(ikeys)

        monkeypatch.setattr(flattree, "present_lengths", recording)
        rows = registry.add_tenant(
            "newcomer",
            ArtemisConfig(
                [
                    OwnedPrefix("10.200.0.0/16", [65200]),
                    OwnedPrefix("10.0.0.0/24", [65201]),  # a key already stored
                    OwnedPrefix("2001:db8::/48", [65200]),
                ]
            ),
        )
        assert len(passed) == 1
        assert sorted(passed[0]) == [rows[0].prefix.ikey, rows[2].prefix.ikey]
        assert tree.resolve(Prefix.parse("10.200.7.0/24")) == [(rows[0], False)]
        assert tree.resolve(Prefix.parse("2001:db8::/48")) == [(rows[2], True)]

    def test_size_tracks_distinct_prefixes(self):
        registry = small_registry()
        tree = registry.tree
        node = PrefixTree(registry)
        assert len(tree) == len(node) == 3
        # A shared prefix is one entry; only the new one adds to the size.
        rows = registry.add_tenant(
            "gamma",
            ArtemisConfig(
                [OwnedPrefix("10.0.0.0/23", [65003]), OwnedPrefix("10.3.0.0/16", [65003])]
            ),
        )
        node.insert_rules(rows)
        assert len(tree) == len(node) == 4
        assert tree.num_rules == node.num_rules == 5


class TestMemoryAccounting:
    def test_nbytes_positive_and_refreshes_gauge(self):
        COUNTERS.reset()
        tree = FlatPrefixTree(small_registry())
        assert tree.nbytes() > 0
        assert COUNTERS.tree_bytes >= tree.nbytes()

    def test_flat_layout_beats_node_objects_at_scale(self):
        import sys

        from repro.tenants.synth import build_synth_registry

        origins = {Prefix.parse("10.0.0.0/24"): 65001}
        registry = build_synth_registry(
            origins, num_tenants=20, num_prefixes=5000
        )
        flat = FlatPrefixTree(registry)
        node = PrefixTree(registry)
        # Measure the node tree's storage: every _Node object, its children
        # list, and each stored bucket list (rule/prefix objects excluded on
        # both sides — they are registry-owned either way).
        node_bytes = 0
        stack = list(node._trie._roots.values())
        while stack:
            current = stack.pop()
            node_bytes += sys.getsizeof(current)
            node_bytes += sys.getsizeof(current.children)
            if current.has_value:
                node_bytes += sys.getsizeof(current.value)
            stack.extend(c for c in current.children if c is not None)
        assert flat.nbytes() * 3 <= node_bytes
