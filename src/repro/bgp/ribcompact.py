"""Array-of-struct Adj-RIB-In for shard-scale worlds.

At 10k+ ASes the dominant heap population is Adj-RIB-In entries: one
10-slot :class:`~repro.bgp.route.Route` plus a 5-tuple ``pref_key`` per
(prefix, peer) pair.  :class:`CompactAdjRibIn` replaces that with flat
parallel lists per prefix row — peer ASNs, interned path tuples, path
lengths, origin attributes, negated local-prefs, learn times, relationship
indices — cutting per-entry overhead several-fold and keeping the decision
scan on cache-friendly primitive lists.

:class:`CompactSpeaker` is a drop-in :class:`~repro.bgp.speaker.BGPSpeaker`
subclass running its import/decision hot path against the compact layout.
Observable behaviour is **bit-identical** to the classic speaker:

* the decision compares the same ``(neg_pref, path_len, origin, learned_at,
  peer)`` keys, built on the fly from the row arrays, so the winner is the
  same unique minimum;
* the classic path's two identity tests are replaced by provably equivalent
  field tests — ``old is replaced_route`` ⇔ ``old.peer_asn == sender``
  (the installed best learned from ``sender`` *is* the row's entry for
  ``sender``), and likewise for the withdraw case;
* winner routes are materialised lazily into real :class:`Route` objects
  (what the Loc-RIB, export marking and flush paths consume), with a
  per-prefix cache so re-selecting the same entry reuses the same object.

``tests/test_determinism.py`` pins the equivalence with a classic-vs-compact
digest comparison on a full sharded scenario.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import AcceptAll, MaxLengthFilter, Policy
from repro.bgp.rib import AdjRibIn
from repro.bgp.route import Route
from repro.bgp.speaker import BGPSpeaker, _UNKNOWN
from repro.errors import BGPError
from repro.net.prefix import Prefix
from repro.perf import COUNTERS as _C


class CompactRow:
    """All learned routes for one prefix, as parallel primitive lists.

    Index ``i`` across every list describes one (peer, route) entry.
    Removal swaps with the last entry and pops — order inside a row carries
    no semantics (the decision key embeds the peer ASN tiebreak).
    """

    __slots__ = (
        "prefix",
        "peers",
        "paths",
        "plens",
        "origins",
        "negs",
        "learneds",
        "rels",
        "pos",
        "extras",
    )

    def __init__(self, prefix: Prefix):
        self.prefix = prefix
        self.peers: List[int] = []
        self.paths: List[tuple] = []
        self.plens: List[int] = []
        self.origins: List[int] = []
        self.negs: List[int] = []
        self.learneds: List[float] = []
        self.rels: List[Optional[int]] = []
        #: peer asn -> index (hub rows have hundreds of entries; a linear
        #: scan per insert would make tier-1 import quadratic).
        self.pos: Dict[int, int] = {}
        #: Sparse per-peer communities — ``None`` until any entry has them.
        self.extras: Optional[Dict[int, tuple]] = None

    def clone(self) -> "CompactRow":
        copy_row = CompactRow.__new__(CompactRow)
        copy_row.prefix = self.prefix
        copy_row.peers = list(self.peers)
        copy_row.paths = list(self.paths)
        copy_row.plens = list(self.plens)
        copy_row.origins = list(self.origins)
        copy_row.negs = list(self.negs)
        copy_row.learneds = list(self.learneds)
        copy_row.rels = list(self.rels)
        copy_row.pos = dict(self.pos)
        copy_row.extras = dict(self.extras) if self.extras is not None else None
        return copy_row

    def set_entry(
        self,
        peer: int,
        path: tuple,
        origin_attr: int,
        neg_pref: int,
        learned_at: float,
        rel_index: Optional[int],
        communities: tuple,
    ) -> bool:
        """Insert or replace ``peer``'s entry; True if it replaced one."""
        index = self.pos.get(peer)
        if index is None:
            self.pos[peer] = len(self.peers)
            self.peers.append(peer)
            self.paths.append(path)
            self.plens.append(len(path))
            self.origins.append(origin_attr)
            self.negs.append(neg_pref)
            self.learneds.append(learned_at)
            self.rels.append(rel_index)
            replaced = False
        else:
            self.paths[index] = path
            self.plens[index] = len(path)
            self.origins[index] = origin_attr
            self.negs[index] = neg_pref
            self.learneds[index] = learned_at
            self.rels[index] = rel_index
            replaced = True
        if communities:
            if self.extras is None:
                self.extras = {}
            self.extras[peer] = communities
        elif self.extras is not None:
            self.extras.pop(peer, None)
        return replaced

    def remove_entry(self, peer: int) -> bool:
        """Remove ``peer``'s entry (swap-with-last); True if present."""
        index = self.pos.pop(peer, None)
        if index is None:
            return False
        last = len(self.peers) - 1
        if index != last:
            moved = self.peers[last]
            self.peers[index] = moved
            self.paths[index] = self.paths[last]
            self.plens[index] = self.plens[last]
            self.origins[index] = self.origins[last]
            self.negs[index] = self.negs[last]
            self.learneds[index] = self.learneds[last]
            self.rels[index] = self.rels[last]
            self.pos[moved] = index
        del self.peers[last]
        del self.paths[last]
        del self.plens[last]
        del self.origins[last]
        del self.negs[last]
        del self.learneds[last]
        del self.rels[last]
        if self.extras is not None:
            self.extras.pop(peer, None)
        return True

    def best_index(self) -> int:
        """Index of the unique preference-minimal entry (row must be non-empty)."""
        peers = self.peers
        negs = self.negs
        plens = self.plens
        origins = self.origins
        learneds = self.learneds
        best = 0
        best_key = (negs[0], plens[0], origins[0], learneds[0], peers[0])
        for i in range(1, len(peers)):
            key = (negs[i], plens[i], origins[i], learneds[i], peers[i])
            if key < best_key:
                best_key = key
                best = i
        return best

    def key_at(self, index: int) -> tuple:
        return (
            self.negs[index],
            self.plens[index],
            self.origins[index],
            self.learneds[index],
            self.peers[index],
        )

    def __len__(self) -> int:
        return len(self.peers)


class CompactAdjRibIn:
    """Adj-RIB-In over :class:`CompactRow` tables, copy-on-write forkable.

    Same contract as :class:`~repro.bgp.rib.AdjRibIn` — ``_rows`` (by
    prefix ikey) is the one index, the rare per-peer reads scan it in
    ascending ``ikey`` — and the same fork discipline: ``__deepcopy__``
    copies only the outer dict, rows privatise on first post-fork write.
    """

    def __init__(self) -> None:
        self._rows: Dict[int, CompactRow] = {}
        self._shared_rows: set = set()

    def __deepcopy__(self, memo) -> "CompactAdjRibIn":
        clone = CompactAdjRibIn.__new__(CompactAdjRibIn)
        memo[id(self)] = clone
        clone._rows = dict(self._rows)
        clone._shared_rows = set(self._rows)
        memo[id(self._rows)] = clone._rows
        return clone

    def _unshare_row(self, ikey: int) -> CompactRow:
        row = self._rows[ikey] = self._rows[ikey].clone()
        self._shared_rows.discard(ikey)
        _C.cow_row_forks += 1
        return row

    def prefix_table(self) -> Dict[int, CompactRow]:
        """The live ``ikey -> CompactRow`` table (never rebound)."""
        return self._rows

    def insert_fields(
        self,
        ikey: int,
        prefix: Prefix,
        peer_asn: int,
        path: tuple,
        origin_attr: int,
        neg_pref: int,
        learned_at: float,
        rel_index: Optional[int],
        communities: tuple,
    ) -> bool:
        """Store one learned route; True if it replaced the peer's previous."""
        row = self._rows.get(ikey)
        if row is None:
            row = self._rows[ikey] = CompactRow(prefix)
        elif self._shared_rows and ikey in self._shared_rows:
            row = self._unshare_row(ikey)
        return row.set_entry(
            peer_asn, path, origin_attr, neg_pref, learned_at, rel_index, communities
        )

    def withdraw_entry(self, peer_asn: int, prefix: Prefix) -> bool:
        """Remove the peer's route for ``prefix``; True if one was present."""
        ikey = prefix.ikey
        row = self._rows.get(ikey)
        removed = False
        if row is not None:
            if self._shared_rows and ikey in self._shared_rows:
                if peer_asn not in row.pos:
                    row = None  # nothing to remove; keep the row shared
                else:
                    row = self._unshare_row(ikey)
            if row is not None:
                removed = row.remove_entry(peer_asn)
                if not row.peers:
                    del self._rows[ikey]
                    self._shared_rows.discard(ikey)
        return removed

    def drop_peer_prefixes(self, peer_asn: int) -> List[Prefix]:
        """Remove every route from ``peer_asn``; returns the prefixes, in
        the same (ascending ``ikey``) order the classic RIB's teardown uses."""
        prefixes = self.prefixes_from(peer_asn)
        for prefix in prefixes:
            self.withdraw_entry(peer_asn, prefix)
        return prefixes

    # ------------------------------------------------- compatibility reads

    def _materialize_at(self, row: CompactRow, index: int) -> Route:
        peer = row.peers[index]
        path = row.paths[index]
        extras = row.extras
        route = Route.__new__(Route)
        route.prefix = row.prefix
        route.as_path = path
        route.origin_attr = row.origins[index]
        route.peer_asn = peer
        route.local_pref = -row.negs[index]
        route.learned_at = row.learneds[index]
        route.communities = extras.get(peer, ()) if extras is not None else ()
        route.learned_rel_index = row.rels[index]
        route.pref_key = (
            row.negs[index],
            row.plens[index],
            row.origins[index],
            row.learneds[index],
            peer,
        )
        route._export = None
        _C.routes_created += 1
        return route

    def candidates(self, prefix: Prefix) -> List[Route]:
        row = self._rows.get(prefix.ikey)
        if row is None:
            return []
        return [self._materialize_at(row, i) for i in range(len(row.peers))]

    def candidates_view(self, prefix: Prefix) -> List[Route]:
        return self.candidates(prefix)

    def route_from(self, peer_asn: int, prefix: Prefix) -> Optional[Route]:
        row = self._rows.get(prefix.ikey)
        if row is None:
            return None
        index = row.pos.get(peer_asn)
        if index is None:
            return None
        return self._materialize_at(row, index)

    def prefixes_from(self, peer_asn: int) -> List[Prefix]:
        """Prefixes learned from ``peer_asn``, ascending: one scan, O(rows)."""
        rows = self._rows
        learned = sorted(
            ikey for ikey, row in rows.items() if peer_asn in row.pos
        )
        return [rows[ikey].prefix for ikey in learned]

    def prefixes(self) -> Iterator[Prefix]:
        return (row.prefix for row in self._rows.values())

    def shared_rows(self) -> set:
        return self._shared_rows

    def __len__(self) -> int:
        return sum(len(row.peers) for row in self._rows.values())


class CompactSpeaker(BGPSpeaker):
    """A BGP speaker whose Adj-RIB-In is the array-of-struct layout."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.adj_rib_in = CompactAdjRibIn()
        self._rib_rows = self.adj_rib_in.prefix_table()
        #: Last materialised winner per prefix ikey; validated field-by-field
        #: against the row before reuse, so staleness is impossible.
        self._best_cache: Dict[int, Route] = {}

    # ----------------------------------------------------------- reception

    def _process_update(self, sender_asn: int, message: UpdateMessage) -> None:
        state = self.peers.get(sender_asn)
        if state is None:
            return
        self.updates_received += 1
        _C.updates_processed += 1
        rib = self.adj_rib_in
        touched: Dict[int, tuple] = {}
        for withdrawal in message.withdrawals:
            prefix = withdrawal.prefix
            if rib.withdraw_entry(sender_asn, prefix):
                pikey = prefix.ikey
                touched[pikey] = (
                    ("f", prefix) if pikey in touched else ("w", prefix)
                )
        if message.announcements:
            # Same hoisted per-message context as the classic fast path.
            local_pref = self.policy.import_local_pref(state.relationship)
            learned_at = self.engine.now
            my_asn = self.asn
            relationship = state.relationship
            rel_index = state.rel_index
            policy = self.policy
            import_filter = policy.import_filter
            default_accept = type(policy).accept_import is Policy.accept_import
            accept_all = default_accept and type(import_filter) is AcceptAll
            max4 = max6 = 0
            plain_max_length = default_accept and (
                type(import_filter) is MaxLengthFilter
            )
            if plain_max_length:
                max4 = import_filter.max_length_v4
                max6 = import_filter.max_length_v6
            accept_import = policy.accept_import
            neg_pref = -local_pref
            insert_fields = rib.insert_fields
            for announcement in message.announcements:
                as_path = announcement.as_path
                if my_asn in as_path:  # inline has_loop
                    continue
                prefix = announcement.prefix
                if accept_all:
                    accepted = True
                elif plain_max_length:
                    accepted = prefix.length <= (
                        max4 if prefix.version == 4 else max6
                    )
                else:
                    accepted = accept_import(announcement, relationship)
                if not accepted:
                    if rib.withdraw_entry(sender_asn, prefix):
                        pikey = prefix.ikey
                        touched[pikey] = (
                            ("f", prefix) if pikey in touched else ("w", prefix)
                        )
                    continue
                pikey = prefix.ikey
                insert_fields(
                    pikey,
                    prefix,
                    sender_asn,
                    as_path,
                    announcement.origin_attr,
                    neg_pref,
                    learned_at,
                    rel_index,
                    announcement.communities,
                )
                touched[pikey] = (
                    ("f", prefix)
                    if pikey in touched
                    else (
                        "a",
                        prefix,
                        (
                            neg_pref,
                            len(as_path),
                            announcement.origin_attr,
                            learned_at,
                            sender_asn,
                        ),
                    )
                )
        get_ikey = self.loc_rib.get_ikey
        fast = 0
        for pikey, change in touched.items():
            kind = change[0]
            if kind == "a":
                prefix = change[1]
                key = change[2]
                old = get_ikey(pikey)
                if old is None or key < old.pref_key:
                    fast += 1
                    route = self._materialize_peer(pikey, sender_asn)
                    self._install_best(prefix, route, old)
                elif old.peer_asn == sender_asn:
                    # Equivalent to the classic ``old is replaced`` test: the
                    # installed best learned from the sender *is* the row
                    # entry the newcomer just overwrote.
                    self._run_decision(prefix, old)
                else:
                    fast += 1
            elif kind == "w":
                prefix = change[1]
                old = get_ikey(pikey)
                if old is not None and old.peer_asn == sender_asn:
                    # Equivalent to ``get_ikey(pikey) is removed``.
                    self._run_decision(prefix, old)
                else:
                    fast += 1
            else:
                self._run_decision(change[1])
        if fast:
            _C.decision_fast_path += fast

    # ------------------------------------------------------------ decision

    def _materialize_peer(self, pikey: int, peer_asn: int) -> Route:
        row = self._rib_rows[pikey]
        return self._materialize(pikey, row, row.pos[peer_asn])

    def _materialize(self, pikey: int, row: CompactRow, index: int) -> Route:
        cached = self._best_cache.get(pikey)
        peer = row.peers[index]
        extras = row.extras
        if (
            cached is not None
            and cached.peer_asn == peer
            and cached.learned_at == row.learneds[index]
            and cached.as_path is row.paths[index]
            and cached.origin_attr == row.origins[index]
            and cached.local_pref == -row.negs[index]
            and cached.learned_rel_index == row.rels[index]
            and cached.communities
            == (extras.get(peer, ()) if extras is not None else ())
        ):
            return cached
        route = self.adj_rib_in._materialize_at(row, index)
        self._best_cache[pikey] = route
        return route

    def _run_decision(self, prefix: Prefix, old: object = _UNKNOWN) -> None:
        _C.decision_full_scans += 1
        pikey = prefix.ikey
        row = self._rib_rows.get(pikey)
        local = self._local_routes.get(pikey)
        if row is not None and row.peers:
            index = row.best_index()
            if local is not None and local.pref_key < row.key_at(index):
                best: Optional[Route] = local
            else:
                best = self._materialize(pikey, row, index)
        else:
            best = local
        if old is _UNKNOWN:
            old = self.loc_rib.get_ikey(pikey)
        self._install_best(prefix, best, old)

    def _candidates(self, prefix: Prefix) -> List[Route]:
        routes = self.adj_rib_in.candidates(prefix)
        local = self._local_routes.get(prefix.ikey)
        if local is not None:
            routes.append(local)
        return routes

    # -------------------------------------------------------------- wiring

    def remove_peer(self, peer_asn: int) -> None:
        state = self.peers.pop(peer_asn, None)
        if state is None:
            raise BGPError(f"AS{self.asn} has no session with AS{peer_asn}")
        self._rebuild_mark_targets()
        get_ikey = self.loc_rib.get_ikey
        for prefix in self.adj_rib_in.drop_peer_prefixes(peer_asn):
            old = get_ikey(prefix.ikey)
            if old is not None and old.peer_asn == peer_asn:
                self._run_decision(prefix, old)
            else:
                _C.decision_fast_path += 1
