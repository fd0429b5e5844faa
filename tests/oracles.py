"""Reference oracles for the prefix tables and the detection plane — test
tree only.

``src/`` ships one prefix table (a dict keyed by ``Prefix.ikey``), one
tenant tree (``FlatPrefixTree``) and one rule selection (the tree's
most-specific-per-tenant resolve).  The implementations here
answer the same questions a *different* way, so the property tests compare
two independent derivations rather than a thing with itself:

* :class:`PrefixTrie` — the bit-per-level binary radix trie that was
  ``repro.net.trie`` until every prefix table in ``src/`` became an
  ``ikey`` dict read through ``repro.net.prefix``'s helpers
  (``longest_match``, ``covering``, ``covered_range``); it is the reference
  those helpers, the Loc-RIB and the interest index are tested against;
* :class:`PrefixTree` — the node-object radix tree the flat tree replaced
  (one ``PrefixTrie`` node per level, one ``list`` bucket per prefix);
* :func:`config_tries` / :func:`classify_with_config_tries` — the
  owned-prefix and owned-space ``PrefixTrie`` pair ``ArtemisConfig`` kept
  before its tables became ``ikey`` dicts, and single-operator rule
  selection read straight off that pair;
* :class:`RootPartition` — the worker router's root ``ikey`` → worker dict,
  read by ``longest_match``, from before the router asked the registry's
  own table for an announcement's root.

None is imported by anything under ``src/``.
"""

from __future__ import annotations

from itertools import cycle
from typing import (
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.alerts import AlertType
from repro.core.config import ArtemisConfig
from repro.core.rules import classify_announcement, classify_squat
from repro.feeds.events import FeedEvent
from repro.net.prefix import (
    Address,
    Prefix,
    longest_match,
    present_lengths,
    uncovered_keys,
)
from repro.tenants.flattree import Match
from repro.tenants.registry import TenantRule

V = TypeVar("V")


class _Node(Generic[V]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_Node[V]"]] = [None, None]
        self.value: Optional[V] = None
        self.has_value = False


class PrefixTrie(Generic[V]):
    """Mutable mapping from :class:`Prefix` to arbitrary values.

    Supports exact get/set/delete plus longest-match and subtree queries.
    Iteration yields prefixes in deterministic bit order.
    """

    def __init__(self) -> None:
        self._roots: Dict[int, _Node[V]] = {4: _Node(), 6: _Node()}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._find(prefix)
        return node is not None and node.has_value

    def _find(self, prefix: Prefix) -> Optional[_Node[V]]:
        # One bit per level, most significant first: (value >> shift) & 1.
        node = self._roots[prefix.version]
        value = prefix.value
        shift = (32 if prefix.version == 4 else 128) - 1
        for _ in range(prefix.length):
            node = node.children[(value >> shift) & 1]
            if node is None:
                return None
            shift -= 1
        return node

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        node = self._roots[prefix.version]
        key = prefix.value
        shift = (32 if prefix.version == 4 else 128) - 1
        for _ in range(prefix.length):
            bit = (key >> shift) & 1
            child = node.children[bit]
            if child is None:
                child = _Node()
                node.children[bit] = child
            node = child
            shift -= 1
        if not node.has_value:
            self._size += 1
        node.value = value
        node.has_value = True

    def __setitem__(self, prefix: Prefix, value: V) -> None:
        self.insert(prefix, value)

    def get(self, prefix: Prefix, default: Optional[V] = None) -> Optional[V]:
        """Exact lookup; returns ``default`` when absent."""
        node = self._find(prefix)
        if node is None or not node.has_value:
            return default
        return node.value

    def __getitem__(self, prefix: Prefix) -> V:
        node = self._find(prefix)
        if node is None or not node.has_value:
            raise KeyError(str(prefix))
        return node.value  # type: ignore[return-value]

    def remove(self, prefix: Prefix) -> V:
        """Delete and return the value at ``prefix`` (KeyError if absent).

        Dangling interior nodes on the path are pruned so repeated
        insert/remove cycles do not leak memory.
        """
        path: List[Tuple[_Node[V], int]] = []
        node = self._roots[prefix.version]
        value_bits = prefix.value
        shift = (32 if prefix.version == 4 else 128) - 1
        for _ in range(prefix.length):
            bit = (value_bits >> shift) & 1
            child = node.children[bit]
            if child is None:
                raise KeyError(str(prefix))
            path.append((node, bit))
            node = child
            shift -= 1
        if not node.has_value:
            raise KeyError(str(prefix))
        value = node.value
        node.value = None
        node.has_value = False
        self._size -= 1
        # Prune empty leaves bottom-up.
        current = node
        for parent, bit in reversed(path):
            if current.has_value or current.children[0] or current.children[1]:
                break
            parent.children[bit] = None
            current = parent
        return value  # type: ignore[return-value]

    def __delitem__(self, prefix: Prefix) -> None:
        self.remove(prefix)

    def longest_match(
        self, target: Union[Address, Prefix, str]
    ) -> Optional[Tuple[Prefix, V]]:
        """Most specific stored prefix covering ``target``, or ``None``.

        ``target`` may be an :class:`Address`, a :class:`Prefix` (matched by
        its network address, but never by a stored prefix longer than the
        target), or a string parsed as either.
        """
        if isinstance(target, str):
            target = Prefix.parse(target) if "/" in target else Address.parse(target)
        if isinstance(target, Address):
            probe = Prefix(target.value, target.bits, target.version)
        else:
            probe = target
        node = self._roots[probe.version]
        best: Optional[Tuple[Prefix, V]] = None
        if node.has_value:
            best = (Prefix(0, 0, probe.version), node.value)  # type: ignore[arg-type]
        value = probe.value
        shift = (32 if probe.version == 4 else 128) - 1
        for position in range(probe.length):
            node = node.children[(value >> shift) & 1]
            if node is None:
                break
            shift -= 1
            if node.has_value:
                mask_prefix = Prefix(value, position + 1, probe.version)
                best = (mask_prefix, node.value)  # type: ignore[arg-type]
        return best

    def covered(self, prefix: Prefix) -> Iterator[Tuple[Prefix, V]]:
        """Yield stored (prefix, value) pairs equal to or inside ``prefix``."""
        node = self._find(prefix)
        if node is None:
            return
        yield from self._walk(node, prefix.value, prefix.length, prefix.version)

    def covering(self, target: Union[Prefix, Address]) -> Iterator[Tuple[Prefix, V]]:
        """Yield stored (prefix, value) pairs that cover ``target``.

        Results are ordered from least specific (shortest) to most specific.
        """
        if isinstance(target, Address):
            probe = Prefix(target.value, target.bits, target.version)
        else:
            probe = target
        node = self._roots[probe.version]
        if node.has_value:
            yield Prefix(0, 0, probe.version), node.value  # type: ignore[misc]
        value = probe.value
        shift = (32 if probe.version == 4 else 128) - 1
        for position in range(probe.length):
            node = node.children[(value >> shift) & 1]
            if node is None:
                return
            shift -= 1
            if node.has_value:
                yield (
                    Prefix(value, position + 1, probe.version),
                    node.value,  # type: ignore[misc]
                )

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Yield all (prefix, value) pairs in deterministic bit order."""
        for version in (4, 6):
            yield from self._walk(self._roots[version], 0, 0, version)

    def keys(self) -> Iterator[Prefix]:
        for prefix, _value in self.items():
            yield prefix

    def __iter__(self) -> Iterator[Prefix]:
        return self.keys()

    def values(self) -> Iterator[V]:
        for _prefix, value in self.items():
            yield value

    def _walk(
        self, node: _Node[V], value: int, length: int, version: int
    ) -> Iterator[Tuple[Prefix, V]]:
        stack: List[Tuple[_Node[V], int, int]] = [(node, value, length)]
        bits = 32 if version == 4 else 128
        while stack:
            current, cur_value, cur_length = stack.pop()
            if current.has_value:
                yield Prefix(cur_value, cur_length, version), current.value  # type: ignore[misc]
            # Push high child first so low child pops first (sorted order).
            high = current.children[1]
            low = current.children[0]
            if high is not None:
                child_value = cur_value | (1 << (bits - cur_length - 1))
                stack.append((high, child_value, cur_length + 1))
            if low is not None:
                stack.append((low, cur_value, cur_length + 1))



class PrefixTree:
    """Node-object twin of ``FlatPrefixTree`` (same public surface).

    ``PrefixTree(registry)`` is a snapshot of the registry's rows; hand a
    later ``add_tenant``'s returned rows to :meth:`insert_rules`."""

    def __init__(self, registry=None) -> None:
        self._trie: PrefixTrie[List[TenantRule]] = PrefixTrie()
        self.epoch = 0
        self.num_rules = 0
        if registry is not None:
            self.insert_rules(registry.all_rules())

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


class RootPartition:
    """Which worker an announcement's prefix field goes to, the old way.

    The roots (stored prefixes no other stored prefix covers) in bit order
    are round-robined over ``num_workers`` into a root ``ikey`` → worker
    dict, and a field's worker is its parsed prefix's ``longest_match`` in
    that dict at the roots' present lengths: ``None`` when no root covers
    it, ``malformed`` when the field does not parse.
    """

    def __init__(self, prefixes: Iterable[Prefix], num_workers: int, malformed) -> None:
        roots = uncovered_keys(prefix.ikey for prefix in prefixes)
        self.routing: Dict[int, int] = dict(zip(roots, cycle(range(num_workers))))
        self.lengths = present_lengths(roots)
        self.malformed = malformed

    def worker(self, prefix_field: bytes):
        try:
            prefix = Prefix.parse(prefix_field.decode("ascii"))
        except (ValueError, UnicodeDecodeError):
            return self.malformed
        return longest_match(self.routing, prefix, self.lengths[prefix.version])


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
