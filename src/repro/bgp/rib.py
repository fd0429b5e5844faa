"""Routing Information Bases.

Three structures mirror RFC 4271:

* :class:`AdjRibIn` — everything learned, per (peer, prefix);
* :class:`LocRib` — the winner per prefix, in one int-keyed table that
  also answers the data plane's longest-prefix matches;
* Adj-RIB-Out is kept per peer inside the speaker (a plain dict of what was
  last sent), so withdraws are only generated for prefixes actually
  advertised to that peer.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.bgp.route import Route
from repro.net.prefix import Address, Prefix, covered_range, longest_match


class AdjRibIn:
    """Routes learned from neighbors, indexed by prefix.

    One table, ``ikey -> row``, keyed by :attr:`Prefix.ikey` (C-level int
    hashing on the hot path); the stored routes carry the real
    :class:`Prefix` objects.  A row is an immutable tuple of the prefix's
    candidate routes, one per peer in arrival order: a replacement keeps
    its peer's slot, a withdraw closes the gap, and every write replaces
    the whole tuple.  It drives the decision process (all candidates for a
    prefix) and is the only index: the per-peer reader (session teardown)
    is rare, so it scans the table instead of every announcement paying
    for a second one.  Because no row is ever written in place, a
    checkpoint fork shares every row with its master for good.
    """

    def __init__(self) -> None:
        self._by_prefix: Dict[int, Tuple[Route, ...]] = {}

    def __deepcopy__(self, memo) -> "AdjRibIn":
        """Fork for checkpoint restore: copy the outer table and share every
        (immutable) row and the :class:`Route` objects in it."""
        clone = AdjRibIn.__new__(AdjRibIn)
        memo[id(self)] = clone
        clone._by_prefix = dict(self._by_prefix)
        # The speaker caches ``prefix_table()``; route that cached alias to
        # the clone's table when the speaker is copied in the same pass.
        memo[id(self._by_prefix)] = clone._by_prefix
        return clone

    def insert(self, route: Route) -> Optional[Route]:
        """Store ``route`` (implicit withdraw of the peer's previous route).

        Returns the replaced route, if any.
        """
        assert route.peer_asn is not None, "Adj-RIB-In only holds learned routes"
        peer = route.peer_asn
        ikey = route.prefix.ikey
        row = self._by_prefix.get(ikey)
        if row is None:
            self._by_prefix[ikey] = (route,)
            return None
        for previous in row:
            if previous.peer_asn == peer:
                index = row.index(previous)
                self._by_prefix[ikey] = row[:index] + (route,) + row[index + 1:]
                return previous
        self._by_prefix[ikey] = row + (route,)
        return None

    def prefix_table(self) -> Dict[int, Tuple[Route, ...]]:
        """The live ``ikey -> (route, ...)`` table (never rebound).

        The speaker's decision process reads candidate rows per prefix
        millions of times per run; handing the table out once lets it do a
        single int-keyed ``dict.get`` per decision.  UPDATE processing also
        inlines :meth:`insert` against it; every other caller treats it as
        read-only.
        """
        return self._by_prefix

    def withdraw(self, peer_asn: int, prefix: Prefix) -> Optional[Route]:
        """Remove the peer's route for ``prefix``; returns it if present."""
        ikey = prefix.ikey
        row = self._by_prefix.get(ikey)
        if row is not None:
            for removed in row:
                if removed.peer_asn == peer_asn:
                    if len(row) == 1:
                        del self._by_prefix[ikey]
                    else:
                        index = row.index(removed)
                        self._by_prefix[ikey] = row[:index] + row[index + 1:]
                    return removed
        return None

    def candidates(self, prefix: Prefix) -> List[Route]:
        """All learned routes for ``prefix`` in arrival order, as a list.

        Convenience/API form.  Hot paths (the decision process, LG queries)
        use :meth:`prefix_table` instead; no simulation hot path calls this.
        """
        return list(self._by_prefix.get(prefix.ikey, ()))

    def _routes_from(self, peer_asn: int) -> List[Route]:
        """``peer_asn``'s routes in ascending ``ikey`` (= prefix) order: one
        scan of the table, O(routes) — both callers are cold."""
        # A row holds at most one route per peer, so no two pairs share an
        # ikey and the sort never compares routes.
        learned = sorted(
            (ikey, route)
            for ikey, row in self._by_prefix.items()
            for route in row
            if route.peer_asn == peer_asn
        )
        return [route for _ikey, route in learned]

    def drop_peer_routes(self, peer_asn: int) -> List[Tuple[Prefix, Route]]:
        """Remove every route from ``peer_asn`` (session down) and return the
        ``(prefix, removed_route)`` pairs for the withdraw-aware decision.

        Pairs come in ascending ``ikey`` order whatever the learn order —
        the one teardown order.
        """
        pairs = [(route.prefix, route) for route in self._routes_from(peer_asn)]
        for prefix, _route in pairs:
            self.withdraw(peer_asn, prefix)
        return pairs

    def __len__(self) -> int:
        return sum(map(len, self._by_prefix.values()))

    def prefixes(self) -> Iterator[Prefix]:
        """Distinct prefixes with at least one learned route.

        Rows are dropped as they empty, so every row has a route to take the
        canonical :class:`Prefix` object from.
        """
        return (row[0].prefix for row in self._by_prefix.values())


class LocRib:
    """Best route per prefix, with longest-prefix-match resolution.

    One table, ``_exact``, keyed by :attr:`Prefix.ikey`.  Exact-prefix
    operations (the decision process and MRAI flushes hit :meth:`get` for
    every dirty prefix) are single int-keyed probes; :meth:`resolve`
    longest-matches with one probe per prefix length present; and the cold
    ordered reads (:meth:`routes`, :meth:`prefixes`, :meth:`covered`,
    :meth:`snapshot`) sort the keys on demand — integer ``ikey`` order is
    the prefix total order is radix-trie bit order, so they yield exactly what
    a trie walk would, without a trie to maintain on every install.
    """

    def __init__(self) -> None:
        #: Exact-match table keyed by :attr:`Prefix.ikey` (int hashing is
        #: C-level; a Prefix key would pay a Python ``__hash__`` call per
        #: operation on the busiest table in the simulation).
        self._exact: Dict[int, Route] = {}
        #: Bound ``dict.get`` of the exact-match table, **keyed by
        #: ``prefix.ikey``** — the decision process reads it millions of
        #: times per run, and the binding skips a Python frame per lookup.
        #: Valid forever: ``_exact`` is never rebound.
        self.get_ikey = self._exact.get
        #: Monotone change stamp: bumped on every install/remove, even a
        #: same-attributes refresh (the stored object changed).  Consumers
        #: (table dumps, looking-glass answer caches) key cached derived
        #: state on it instead of re-reading the table.
        self._version = 0
        self._snapshot: Optional[Tuple[Route, ...]] = None
        #: ``(version, length) -> live entry count`` — the distinct prefix
        #: lengths present, maintained on install/remove.  :meth:`resolve`
        #: probes ``_exact`` once per present length, longest first (the
        #: origin tracker fires it on every best-route change network-wide).
        self._len_counts: Dict[Tuple[int, int], int] = {}
        #: Lazily rebuilt ``ip_version -> lengths, descending`` cache over
        #: ``_len_counts`` keys; invalidated when a length appears/vanishes.
        self._lengths_cache: Optional[Dict[int, List[int]]] = None

    @property
    def version(self) -> int:
        """Monotone stamp incremented on every table change."""
        return self._version

    def __deepcopy__(self, memo) -> "LocRib":
        """Fork for checkpoint restore: one dict copy of shared Routes.

        The exact-match dict is copied eagerly (one dict of shared Route
        references per speaker — cheap, and it lets the rebound ``get_ikey``
        keep its zero-indirection form); there is nothing else to privatise.
        """
        clone = LocRib.__new__(LocRib)
        memo[id(self)] = clone
        clone._exact = dict(self._exact)
        # NOT ``copy.deepcopy(self.get_ikey)``: a bound built-in method is
        # atomic under deepcopy, so the default path would silently keep the
        # fork reading the *master's* table.  Rebind against the clone's.
        clone.get_ikey = clone._exact.get
        clone._version = self._version
        clone._snapshot = self._snapshot
        clone._len_counts = dict(self._len_counts)
        # The cache dict is only ever *replaced* (never mutated in place),
        # so sharing the current one is safe.
        clone._lengths_cache = self._lengths_cache
        return clone

    def get(self, prefix: Prefix) -> Optional[Route]:
        """The installed best route for exactly ``prefix``, if any."""
        return self._exact.get(prefix.ikey)

    def install(self, route: Route) -> Optional[Route]:
        """Install ``route`` as best for its prefix; returns the previous best."""
        prefix = route.prefix
        ikey = prefix.ikey
        previous = self._exact.get(ikey)
        self._exact[ikey] = route
        if previous is None:
            key = (prefix.version, prefix.length)
            count = self._len_counts.get(key)
            if count:
                self._len_counts[key] = count + 1
            else:
                self._len_counts[key] = 1
                self._lengths_cache = None
        self._version += 1
        self._snapshot = None
        return previous

    def remove(self, prefix: Prefix) -> Optional[Route]:
        """Remove the best route for ``prefix``; returns it if present."""
        removed = self._exact.pop(prefix.ikey, None)
        if removed is not None:
            key = (prefix.version, prefix.length)
            count = self._len_counts[key] - 1
            if count:
                self._len_counts[key] = count
            else:
                del self._len_counts[key]
                self._lengths_cache = None
            self._version += 1
            self._snapshot = None
        return removed

    def snapshot(self) -> Tuple[Route, ...]:
        """The current table as a tuple, cached until the next change.

        Batch feeds and periodic table dumps between route changes share one
        tuple instead of re-sorting (and re-copying) the table each time.
        """
        cached = self._snapshot
        if cached is not None:
            return cached
        snapshot = self._snapshot = tuple(self.routes())
        return snapshot

    def _lengths_desc(self, version: int) -> List[int]:
        cache = self._lengths_cache
        if cache is None:
            cache = self._lengths_cache = {
                4: sorted(
                    (l for v, l in self._len_counts if v == 4), reverse=True
                ),
                6: sorted(
                    (l for v, l in self._len_counts if v == 6), reverse=True
                ),
            }
        return cache[version]

    def resolve(self, target: Union[Address, Prefix, str]) -> Optional[Route]:
        """Data-plane resolution: most specific route covering ``target``.

        This is where de-aggregation wins: once a /24 best route is
        installed, ``resolve`` prefers it over the covering /23.

        One int-keyed probe per prefix length present (longest first, never
        longer than a ``Prefix`` target).  A real table holds a handful of
        distinct lengths, so this beats a bit-by-bit trie walk.
        """
        if isinstance(target, str):
            target = Prefix.parse(target) if "/" in target else Address.parse(target)
        return longest_match(self._exact, target, self._lengths_desc(target.version))

    def covered(self, prefix: Prefix) -> Iterator[Tuple[Prefix, Route]]:
        """Installed routes equal to or more specific than ``prefix``, in
        ascending prefix order: one table scan for the keys inside
        :func:`~repro.net.prefix.covered_range`, sorted.  Cold — a
        looking-glass miss (DESIGN.md "Versioned RIB reads" has the cost).
        """
        low, high = covered_range(prefix)
        exact = self._exact
        inside = sorted(ikey for ikey in exact if low <= ikey < high)
        return iter([(exact[ikey].prefix, exact[ikey]) for ikey in inside])

    def routes(self) -> Iterator[Route]:
        """Every installed route, in ascending prefix order."""
        exact = self._exact
        return iter([exact[ikey] for ikey in sorted(exact)])

    def prefixes(self) -> Iterator[Prefix]:
        return (route.prefix for route in self.routes())

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix.ikey in self._exact

    def __len__(self) -> int:
        return len(self._exact)
