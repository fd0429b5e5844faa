"""Reference oracles for the detection plane — test tree only.

``src/`` ships one tenant tree (``FlatPrefixTree``) and one rule selection
(the tree's most-specific-per-tenant resolve).  The implementations here
answer the same questions a *different* way, so the property tests compare
two independent derivations rather than a thing with itself:

* :class:`PrefixTree` — the node-object radix tree the flat tree replaced
  (one ``PrefixTrie`` node per level, one ``list`` bucket per prefix);
* :func:`config_tries` / :func:`classify_with_config_tries` — the
  owned-prefix and owned-space ``PrefixTrie`` pair ``ArtemisConfig`` kept
  before its tables became ``ikey`` dicts, and single-operator rule
  selection read straight off that pair.

Neither is imported by anything under ``src/``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.alerts import AlertType
from repro.core.config import ArtemisConfig
from repro.core.rules import classify_announcement, classify_squat
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie
from repro.tenants.flattree import Match
from repro.tenants.registry import TenantRule


class PrefixTree:
    """Node-object twin of ``FlatPrefixTree`` (same public surface)."""

    def __init__(self, registry=None) -> None:
        self._trie: PrefixTrie[List[TenantRule]] = PrefixTrie()
        self.epoch = 0
        self.num_rules = 0
        if registry is not None:
            self.insert_rules(registry.all_rules())
            registry.attach_tree(self)

    def __len__(self) -> int:
        """Distinct monitored prefixes (not rules) stored."""
        return len(self._trie)

    def insert_rules(self, rules: Iterable[TenantRule]) -> None:
        """Add rule rows (a tenant onboarding); one epoch bump per call."""
        added = 0
        for rule in rules:
            bucket = self._trie.get(rule.prefix)
            if bucket is None:
                self._trie.insert(rule.prefix, [rule])
            else:
                bucket.append(rule)
            added += 1
        if added:
            self.num_rules += added
            self.epoch += 1

    def remove_rules(self, rules: Iterable[TenantRule]) -> None:
        """Drop rule rows (a tenant retiring); one epoch bump per call."""
        removed = 0
        try:
            for rule in rules:
                bucket = self._trie.get(rule.prefix)
                if bucket is None or rule not in bucket:
                    raise KeyError(f"rule {rule!r} not present in the prefix tree")
                bucket.remove(rule)
                if not bucket:
                    self._trie.remove(rule.prefix)
                removed += 1
        finally:  # a failed batch still counts what it unlinked
            if removed:
                self.num_rules -= removed
                self.epoch += 1

    def resolve(self, prefix: Prefix) -> List[Match]:
        """The most specific covering rule per tenant, sorted by tenant."""
        per_tenant: Dict[str, Match] = {}
        # Least → most specific: later (more specific) buckets overwrite.
        for stored, bucket in self._trie.covering(prefix):
            exact = stored.length == prefix.length
            for rule in bucket:
                per_tenant[rule.policy.tenant] = (rule, exact)
        return [per_tenant[name] for name in sorted(per_tenant)]

    def monitored_prefixes(self) -> List[Prefix]:
        """Distinct stored prefixes, in deterministic bit order."""
        return list(self._trie.keys())

    def tenants_at(self, prefix: Prefix) -> List[str]:
        """Tenant names monitoring exactly ``prefix``."""
        bucket = self._trie.get(prefix)
        return sorted({rule.policy.tenant for rule in bucket}) if bucket else []


def config_tries(config: ArtemisConfig) -> Tuple[PrefixTrie, PrefixTrie]:
    """``(owned, space)`` tries over the config's entries, keyed by prefix."""
    owned, space = PrefixTrie(), PrefixTrie()
    for entry in config.owned:
        owned[entry.prefix] = entry
    for held in config.owned_space:
        space[held.prefix] = held
    return owned, space


def most_specific(trie: PrefixTrie, prefix: Prefix):
    """The value of ``trie``'s longest match for ``prefix``, or None."""
    match = trie.longest_match(prefix)
    return None if match is None else match[1]


def classify_with_config_tries(
    config: ArtemisConfig, event: FeedEvent, probe=None
) -> Optional[Tuple[AlertType, Prefix, Optional[int]]]:
    """``(type, owned_prefix, offender)`` or None, from :func:`config_tries`.

    Precedence: exact owned entry, then the deeper of the covering owned
    prefix vs. covering owned *space*.  Owned space only exists for
    detection while ``detect_squatting`` is on: with it off, a hole inside
    announced space falls back to the covering owned prefix.
    """

    def ladder(entry, exact: bool):
        verdict = classify_announcement(
            event.prefix,
            event.as_path,
            event.vantage_asn,
            exact,
            entry.legit_origins,
            entry.legit_upstreams,
            neighbors=config.adjacencies,
            leak_sentinels=config.leak_sentinels,
            detect_subprefix=config.detect_subprefix,
            detect_path=config.detect_path,
            detect_unchanged_path=config.detect_unchanged_path,
            probe=probe,
        )
        return None if verdict is None else (verdict[0], entry.prefix, verdict[1])

    owned_trie, space_trie = config_tries(config)
    entry = owned_trie.get(event.prefix)
    if entry is not None:
        return ladder(entry, exact=True)
    covering = most_specific(owned_trie, event.prefix)
    space = most_specific(space_trie, event.prefix) if config.detect_squatting else None
    if covering is not None and (
        space is None or space.prefix.length < covering.prefix.length
    ):
        return ladder(covering, exact=False)
    if space is not None:
        verdict = classify_squat(event.origin_as, space.legit_origins)
        return None if verdict is None else (verdict[0], space.prefix, verdict[1])
    return None
