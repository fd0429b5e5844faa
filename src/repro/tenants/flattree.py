"""The shared prefix table: one ``ikey`` dict answering for every tenant.

Probing one table per tenant per feed event is O(N) per announcement — the
fan-out cost the batched pipeline exists to kill.  :class:`FlatPrefixTree`
holds **all** tenants' rule rows in one ``{prefix.ikey: rule}`` dict (a
tuple of rules, in arrival order, where tenants share a prefix), read
through :func:`repro.net.prefix.covering` like every prefix table here: one
lookup per announced prefix surfaces every tenant whose space it touches,
and for each tenant only its **most specific** covering rule.  A one-tenant
table is the paper's single-operator rule selection; ``tests/oracles.py``
holds the node-object tree it is property-tested against.

The table a deployment reads is the registry's own, ``TenantRegistry.tree``:
``add_tenant`` links each row into it once, and every detection plane,
every forked worker and the worker router read it.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.net.prefix import Prefix, covering, present_lengths, uncovered_keys
from repro.perf import COUNTERS as _COUNTERS

if TYPE_CHECKING:  # the registry owns a tree, so it imports this module
    from repro.tenants.registry import TenantRule

#: One resolved match: the rule that applies, and whether the announced
#: prefix is the rule's monitored prefix (exact) or a more-specific inside it.
Match = Tuple["TenantRule", bool]

#: A table value: one prefix's rule, or its rules in arrival order.
Held = Union["TenantRule", Tuple["TenantRule", ...]]

#: Shared empty resolve result: most announced prefixes match no tenant, so
#: a miss allocates nothing.  Callers treat resolve results as read-only.
_NO_MATCHES: List[Match] = []


def _rows(held: Held) -> Tuple[TenantRule, ...]:
    """A table value as a tuple of rules."""
    return held if type(held) is tuple else (held,)


def _tuple_size(held: Held) -> int:  # a table value's share of ``nbytes()``
    return sys.getsizeof(held) if type(held) is tuple else 0


class FlatPrefixTree:
    """Longest-match service over every tenant's monitored prefixes.

    Tenants onboard incrementally (``TenantRegistry.add_tenant`` calls
    ``insert_rules`` on the registry's tree); each batch bumps ``epoch``.
    :meth:`root_keys` is the worker plane's partition, read as the table's
    own ``ikey`` ints: no ``Prefix`` is built for a root, and
    :meth:`root_key` names the root an announcement falls under.
    ``FlatPrefixTree(registry)`` is a snapshot of the registry's rows as
    they stand: a later ``add_tenant`` does not reach it.
    """

    def __init__(self, registry=None) -> None:
        self._table: Dict[int, Held] = {}
        #: The table's ``present_lengths``, grown by each batch's new keys.
        self._lengths = present_lengths(())
        self._tuple_bytes = 0  # the shared-prefix rule tuples' bytes, kept per row
        #: Bumped once per mutation batch; the verdict cache and the
        #: worker plane compare epochs to reject stale rules loudly.
        self.epoch = 0
        self.num_rules = 0
        if registry is not None:
            self.insert_rules(registry.all_rules())

    def __len__(self) -> int:
        """Distinct monitored prefixes (not rules) stored."""
        return len(self._table)

    def insert_rules(self, rules: Iterable[TenantRule]) -> None:
        """Add rule rows in arrival order; one epoch bump per call."""
        table = self._table
        size = len(table)
        added = 0
        try:
            for rule in rules:
                rule.policy.tenant  # a row that cannot name its tenant stops the batch
                key = rule.prefix.ikey
                held = table.get(key)
                table[key] = rule if held is None else _rows(held) + (rule,)
                if held is not None:
                    self._tuple_bytes += _tuple_size(table[key]) - _tuple_size(held)
                added += 1
        finally:
            # Also when a row raised: what is already linked is counted
            # and the epoch moves, so no verdict cache outlives the change.
            if added:
                self.num_rules += added
                self.epoch += 1
                # The keys this batch created are the dict's last ones: only
                # they are read, so a batch costs its rows, not the table.
                added_lengths = present_lengths(islice(reversed(table), len(table) - size))
                for version, new in added_lengths.items():
                    self._lengths[version] = sorted({*self._lengths[version], *new}, reverse=True)
                _COUNTERS.tree_bytes = max(_COUNTERS.tree_bytes, self.nbytes())

    def resolve(self, prefix: Prefix) -> List[Match]:
        """The **most specific** rule covering ``prefix`` of each tenant,
        sorted by tenant name so alert IDs and digests do not depend on
        insertion order.  One covering lookup."""
        _COUNTERS.pipeline_trie_walks += 1
        hits = covering(self._table, prefix, self._lengths[prefix.version])
        if not hits:
            return _NO_MATCHES
        length = prefix.length
        if len(hits) == 1 and type(hits[0]) is not tuple:
            return [(hits[0], hits[0].prefix.length == length)]
        # Least to most specific, each prefix's rows in arrival order: the
        # last row seen per tenant is its most specific, latest-inserted one.
        latest: Dict[str, Match] = {}
        for held in hits:
            rows = _rows(held)
            exact = rows[0].prefix.length == length
            for rule in rows:
                latest[rule.policy.tenant] = (rule, exact)
        return [latest[name] for name in sorted(latest)]

    def monitored_prefixes(self) -> List[Prefix]:
        """Distinct stored prefixes, in deterministic bit order."""
        return [_rows(self._table[key])[0].prefix for key in sorted(self._table)]

    def root_keys(self) -> List[int]:
        """The ``ikey`` of each stored prefix no other stored prefix covers,
        ascending (bit order): one sorted walk over the table's own keys."""
        return uncovered_keys(self._table)

    def root_key(self, prefix: Prefix) -> Optional[int]:
        """The ``ikey`` of the root ``prefix`` falls under — the least
        specific stored prefix covering it, which no stored prefix covers —
        or ``None`` when nothing stored covers it.  One covering lookup."""
        hits = covering(self._table, prefix, self._lengths[prefix.version])
        return _rows(hits[0])[0].prefix.ikey if hits else None

    def tenants_at(self, prefix: Prefix) -> List[str]:
        """Tenant names monitoring exactly ``prefix``."""
        rows = _rows(self._table.get(prefix.ikey, ()))
        return sorted({rule.policy.tenant for rule in rows})

    def nbytes(self) -> int:
        """Resident bytes of the table's own storage (``tree_bytes``): the dict
        and each shared prefix's rule tuple; keys and rules are the registry's."""
        return sys.getsizeof(self._table) + self._tuple_bytes

    def __repr__(self) -> str:
        return (
            f"<FlatPrefixTree {len(self)} prefixes, {self.num_rules} rules, "
            f"epoch={self.epoch}>"
        )
