"""Subscription interest matching over one ``ikey``-keyed prefix table.

Every feed fan-out path (streams, Periscope, batch archives, raw
collectors) answers the same question for each observation: *which
subscribers asked for this prefix?*  Answering it by scanning the
subscription list is O(subscriptions × watched-prefixes) per observation —
ruinous under background churn, where almost every observation matches
nobody.  :class:`InterestIndex` keys each subscription's filter prefixes
by :attr:`~repro.net.prefix.Prefix.ikey`, so a lookup costs one dict probe
per filter length present plus two bisects, regardless of how many
subscriptions exist: the subscriptions overlapping an observed prefix are
exactly those whose filter prefix either *covers* it (a supernet, found by
:func:`~repro.net.prefix.covering`) or is *covered* by it (one contiguous
run of the sorted keys, :func:`~repro.net.prefix.covered_range`).

The index preserves the list semantics the services had before it:
subscriptions receive events in subscription order, a subscription whose
``active`` flag was cleared is skipped (and dropped lazily), and a
``prefixes=None`` subscription matches everything.

:class:`Subscribable` is the one ``subscribe`` / ``unsubscribe`` every
source (collectors, streams, archives, Periscope, recorded sources)
inherits over its index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence

from repro.net.prefix import Prefix, covered_range, covering, present_lengths


class Subscription:
    """One consumer's registration: a callback plus an optional prefix filter.

    ``prefixes=None`` means "everything".  Setting ``active = False`` stops
    deliveries without touching the owning service.
    """

    __slots__ = ("callback", "prefixes", "active", "_seq")

    def __init__(self, callback, prefixes: Optional[Sequence[Prefix]] = None):
        self.callback = callback
        self.prefixes = tuple(prefixes) if prefixes is not None else None
        self.active = True
        #: Subscription order within the owning index (delivery order).
        self._seq = -1

    def matches(self, prefix: Prefix) -> bool:
        if self.prefixes is None:
            return True
        return any(p.overlaps(prefix) for p in self.prefixes)


class InterestIndex:
    """Maps an observed prefix to its interested subscriptions.

    Filter prefixes are table keys; each key's value is the ordered set of
    subscriptions watching it.  Wildcard (unfiltered) subscriptions are kept
    aside.  Lookup counters make the filtering observable from service
    stats: ``lookups`` total, ``hits`` with at least one match.
    """

    def __init__(self) -> None:
        self._next_seq = 0
        #: Wildcard subscriptions, in subscription order (dict = ordered set).
        self._wildcards: Dict[Subscription, None] = {}
        #: filter prefix ikey -> ordered set of subscriptions watching it.
        self._table: Dict[int, Dict[Subscription, None]] = {}
        #: ``_table``'s keys, ascending: the covered side is one bisected run.
        self._keys: List[int] = []
        #: ``present_lengths(_keys)``, rebuilt on the first lookup after a
        #: key came or went (subscriptions change rarely, lookups constantly).
        self._lengths: Optional[Dict[int, List[int]]] = None
        self._size = 0
        self.lookups = 0
        self.hits = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def add(
        self,
        callback,
        prefixes: Optional[Sequence[Prefix]] = None,
    ) -> Subscription:
        """Register a callback; returns the :class:`Subscription` handle."""
        subscription = Subscription(callback, prefixes)
        subscription._seq = self._next_seq
        self._next_seq += 1
        if subscription.prefixes is None:
            self._wildcards[subscription] = None
        else:
            for prefix in subscription.prefixes:
                bucket = self._table.get(prefix.ikey)
                if bucket is None:
                    bucket = self._table[prefix.ikey] = {}
                    insort(self._keys, prefix.ikey)
                    self._lengths = None
                bucket[subscription] = None
        self._size += 1
        return subscription

    def discard(self, subscription: Subscription) -> None:
        """Deactivate and remove a subscription (idempotent)."""
        subscription.active = False
        removed = False
        if subscription.prefixes is None:
            removed = subscription in self._wildcards
            self._wildcards.pop(subscription, None)
        else:
            for prefix in subscription.prefixes:
                bucket = self._table.get(prefix.ikey)
                if bucket is None or subscription not in bucket:
                    continue
                del bucket[subscription]
                removed = True
                if not bucket:
                    del self._table[prefix.ikey]
                    del self._keys[bisect_left(self._keys, prefix.ikey)]
                    self._lengths = None
        if removed:
            self._size -= 1

    def _buckets(self, prefix: Prefix) -> List[Dict[Subscription, None]]:
        """Every subscription set that may want ``prefix``: the wildcards,
        the buckets of the filter prefixes covering it, then of those
        strictly inside it."""
        lengths = self._lengths
        if lengths is None:
            lengths = self._lengths = present_lengths(self._keys)
        table, keys = self._table, self._keys
        low, high = covered_range(prefix)
        # ``prefix`` itself is covering's: the inside run starts after it.
        inside = keys[bisect_right(keys, low):bisect_left(keys, high)]
        buckets = [self._wildcards]
        buckets += covering(table, prefix, lengths[prefix.version])
        buckets += [table[key] for key in inside]
        return buckets

    def lookup(self, prefix: Prefix) -> List[Subscription]:
        """Active subscriptions interested in ``prefix``, in subscription order.

        Subscriptions found inactive are dropped from the index on the way
        (lazy cleanup for consumers that flip ``active`` without calling the
        service's ``unsubscribe``).
        """
        self.lookups += 1
        candidates: Dict[Subscription, None] = {}  # an ordered set: no repeats
        for bucket in self._buckets(prefix):
            candidates.update(bucket)
        matched: List[Subscription] = []
        stale: List[Subscription] = []
        for subscription in candidates:
            if subscription.active:
                matched.append(subscription)
            else:
                stale.append(subscription)
        for subscription in stale:
            self.discard(subscription)
        matched.sort(key=lambda s: s._seq)
        if matched:
            self.hits += 1
        return matched

    def any_match(self, prefix: Prefix) -> bool:
        """True if at least one active subscription overlaps ``prefix``.

        Pure read — no counters, no lazy cleanup — so the fast-reject path
        of a service stays cheap.
        """
        return any(s.active for bucket in self._buckets(prefix) for s in bucket)

    def __repr__(self) -> str:
        return (
            f"<InterestIndex {self._size} subscriptions "
            f"(wildcard={len(self._wildcards)}) lookups={self.lookups} "
            f"hits={self.hits}>"
        )


class Subscribable:
    """The subscription half of the source contract, over ``self._interest``."""

    def __init__(self) -> None:
        self._interest = InterestIndex()

    def subscribe(
        self, callback, prefixes: Optional[Sequence[Prefix]] = None
    ) -> Subscription:
        """Receive deliveries, optionally filtered to overlapping ``prefixes``.

        Returns the subscription; set ``subscription.active = False`` (or
        call :meth:`unsubscribe`) to stop deliveries.
        """
        subscription = self._interest.add(callback, prefixes)
        self._subscribed()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        self._interest.discard(subscription)

    def _subscribed(self) -> None:
        """Hook run after every new subscription (archives start publishing)."""
