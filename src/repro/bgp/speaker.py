"""The BGP speaker: a router's control plane as a simulation process.

Each speaker owns its RIBs and reacts to delivered UPDATEs:

    deliver → (processing delay) → loop check / import rule → Adj-RIB-In
            → decision process → Loc-RIB change → export marking
            → (MRAI batching) → UPDATE out on each session

Timing knobs — per-update processing delay and per-peer MRAI — are what turn
a graph flood into realistic seconds-to-minutes Internet convergence, which
is the quantity ARTEMIS' evaluation measures.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from repro.bgp.messages import Announcement, UpdateMessage, Withdrawal
from repro.bgp.policy import (
    ABSENT_REL_INDEX,
    EXPORT_GRID,
    LOCAL_REL_INDEX,
    MARK_ALL_ROW,
    MARK_GRID,
    LOCAL_PREF_BY_INDEX,
    MAX_PREFIX_LENGTH,
    REL_INDEX,
    Relationship,
)
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.route import Route
from repro.bgp.rpki import RPKIRegistry, Validity
from repro.bgp.session import ActivityTracker, Session
from repro.errors import BGPError
from repro.net.prefix import Address, Prefix
from repro.perf import COUNTERS as _C
from repro.sim.engine import Engine
from repro.sim.latency import Constant, Delay
from repro.sim.rng import SeededRNG

#: Sentinel for "caller does not know the installed best" (distinct from
#: a known-absent best, which is ``None``).
_UNKNOWN = object()

#: Callback fired on every Loc-RIB change:
#: ``(speaker, prefix, new_route_or_None, old_route_or_None)``.
BestChangeCallback = Callable[["BGPSpeaker", Prefix, Optional[Route], Optional[Route]], None]


class PeerState:
    """Per-neighbor state: session, relationship, Adj-RIB-Out, MRAI."""

    __slots__ = (
        "session",
        "relationship",
        "rel_index",
        "adj_rib_out",
        "dirty",
        "next_allowed_send",
        "flush_scheduled",
    )

    def __init__(self, session: Session, relationship: Relationship):
        self.session = session
        self.relationship = relationship
        #: Dense index into the tuple-indexed export rows (``EXPORT_GRID``).
        self.rel_index = REL_INDEX[relationship]
        #: What we last advertised to this peer, keyed by ``prefix.ikey``.
        self.adj_rib_out: Dict[int, Announcement] = {}
        #: Prefixes whose advertisement to this peer must be re-evaluated,
        #: as an ``ikey -> Prefix`` map (int keys hash without a Python
        #: ``__hash__`` call; the values feed the flush loop).
        self.dirty: Dict[int, Prefix] = {}
        self.next_allowed_send = 0.0
        self.flush_scheduled = False

    def __deepcopy__(self, memo) -> "PeerState":
        """Checkpoint fork: copy the per-peer dicts, share their immutable
        values (announcements, prefixes) and the enum relationship."""
        clone = PeerState.__new__(PeerState)
        memo[id(self)] = clone
        clone.session = copy.deepcopy(self.session, memo)
        clone.relationship = self.relationship
        clone.rel_index = self.rel_index
        clone.adj_rib_out = dict(self.adj_rib_out)
        clone.dirty = dict(self.dirty)
        clone.next_allowed_send = self.next_allowed_send
        clone.flush_scheduled = self.flush_scheduled
        return clone


class BGPSpeaker:
    """One AS's BGP router (the model collapses each AS to one speaker)."""

    def __init__(
        self,
        asn: int,
        engine: Engine,
        rov: Optional[RPKIRegistry] = None,
        rng: Optional[SeededRNG] = None,
        tracker: Optional[ActivityTracker] = None,
        processing_delay: Optional[Delay] = None,
        mrai: Optional[Delay] = None,
    ):
        self.asn = int(asn)
        self.engine = engine
        #: The RPKI registry this AS enforces route-origin validation
        #: against (``None``: no ROV).  The rest of the import rule, the
        #: :data:`MAX_PREFIX_LENGTH` limit, holds at every speaker.
        self.rov = rov
        self.rng = rng or SeededRNG(self.asn)
        self.tracker = tracker
        #: Per-UPDATE processing time at this router.
        self.processing_delay = processing_delay or Constant(0.1)
        #: Minimum route advertisement interval towards each peer.
        self.mrai = mrai or Constant(5.0)
        self.peers: Dict[int, PeerState] = {}
        #: Flattened ``(peer_asn, state, rel_index, adj_rib_out, dirty)``
        #: rows in ``peers`` iteration order — :meth:`_install_best` walks
        #: this per Loc-RIB change, and the tuple form saves three attribute
        #: loads per peer per call.  ``add_peer`` appends a row,
        #: ``remove_peer`` rebuilds; valid because a :class:`PeerState` never
        #: rebinds those two dicts.
        self._mark_targets: List[tuple] = []
        self.adj_rib_in = AdjRibIn()
        self.loc_rib = LocRib()
        #: Bound Loc-RIB mutators (neither ``loc_rib`` nor its methods are
        #: ever rebound); skips two attribute loads per decision commit.
        self._loc_install = self.loc_rib.install
        self._loc_remove = self.loc_rib.remove
        #: Locally originated routes, keyed by ``prefix.ikey``.
        self._local_routes: Dict[int, Route] = {}
        #: The Adj-RIB-In's live per-prefix table (see
        #: :meth:`AdjRibIn.prefix_table`); read by the full decision scan.
        self._rib_rows = self.adj_rib_in.prefix_table()
        self._best_change_callbacks: List[BestChangeCallback] = []
        self.updates_received = 0
        self.updates_sent = 0

    # -------------------------------------------------------------- forking

    def __deepcopy__(self, memo) -> "BGPSpeaker":
        clone = type(self).__new__(type(self))
        memo[id(self)] = clone
        clone._fill_from_fork(self, memo)
        return clone

    def _fill_from_fork(self, master: "BGPSpeaker", memo: dict) -> None:
        """Populate this (pre-registered) shell as a CoW fork of ``master``.

        Split out of :meth:`__deepcopy__` so a checkpoint restore can
        register *every* speaker shell in the memo first and then fill them:
        without the pre-pass, ``deepcopy`` chains speaker → session → peer
        speaker → … depth-first through the whole connected AS graph and
        overflows the recursion limit on Internet-scale topologies.

        Three caches must be rebuilt rather than copied, because bound
        built-in methods and handed-out table references are atomic under
        ``deepcopy`` and would silently keep the fork writing the master:
        ``_loc_install`` / ``_loc_remove`` (rebound to the cloned Loc-RIB),
        ``_rib_rows`` (the cloned Adj-RIB-In's live table) and
        ``_mark_targets`` (rows alias each PeerState's dicts).
        """
        # RIBs first: AdjRibIn.__deepcopy__ registers its cloned tables in
        # the memo, so any other alias of them resolves to the clone's.
        self.adj_rib_in = copy.deepcopy(master.adj_rib_in, memo)
        self.loc_rib = copy.deepcopy(master.loc_rib, memo)
        rebuilt = {
            "adj_rib_in",
            "loc_rib",
            "_loc_install",
            "_loc_remove",
            "_rib_rows",
            "_mark_targets",
        }
        for name, value in master.__dict__.items():
            if name not in rebuilt:
                setattr(self, name, copy.deepcopy(value, memo))
        self._loc_install = self.loc_rib.install
        self._loc_remove = self.loc_rib.remove
        self._rib_rows = self.adj_rib_in.prefix_table()
        self._rebuild_mark_targets()

    # ------------------------------------------------------------------ wiring

    def add_peer(self, session: Session, relationship: Relationship) -> None:
        """Register a neighbor session; sends the current table to it.

        ``relationship`` is *this* speaker's view of the neighbor.
        """
        peer = session.other(self.asn)
        if peer.asn in self.peers:
            raise BGPError(f"AS{self.asn} already has a session with AS{peer.asn}")
        state = PeerState(session, relationship)
        self.peers[peer.asn] = state
        # A new key goes last in ``peers``, so one appended row keeps the
        # list in peer order.
        self._mark_targets.append(
            (peer.asn, state, state.rel_index, state.adj_rib_out, state.dirty)
        )
        # Initial table exchange: everything currently best *and exportable
        # to this neighbor* is candidate for advertisement (non-exportable
        # routes would be dropped by the flush anyway).
        for route in self.loc_rib.routes():
            if self._exportable(route, state):
                state.dirty[route.prefix.ikey] = route.prefix
        if state.dirty:
            self._schedule_flush(peer.asn, state)

    def remove_peer(self, peer_asn: int) -> None:
        """Session teardown: drop all state learned from / sent to the peer."""
        state = self.peers.pop(peer_asn, None)
        if state is None:
            raise BGPError(f"AS{self.asn} has no session with AS{peer_asn}")
        self._rebuild_mark_targets()
        for prefix, removed in self.adj_rib_in.drop_peer_routes(peer_asn):
            self._decide_withdraw(prefix, removed)

    def _rebuild_mark_targets(self) -> None:
        self._mark_targets = [
            (peer_asn, state, state.rel_index, state.adj_rib_out, state.dirty)
            for peer_asn, state in self.peers.items()
        ]

    def on_best_change(self, callback: BestChangeCallback) -> None:
        """Subscribe to Loc-RIB changes (used by feeds and bookkeeping)."""
        self._best_change_callbacks.append(callback)

    # --------------------------------------------------------------- origination

    def originate(self, prefix: Prefix) -> None:
        """Start announcing ``prefix`` as its origin AS."""
        if prefix.ikey in self._local_routes:
            return
        route = Route.local(prefix)
        self._local_routes[prefix.ikey] = route
        self._decide_insert(prefix, route, None)

    def originate_forged(self, prefix: Prefix, path_suffix: Sequence[int]) -> None:
        """Announce ``prefix`` with a *forged* AS-path tail (an attack).

        Models type-1/type-N hijacking: the attacker claims a path ending at
        the legitimate origin (``path_suffix[-1]``), so origin-AS checks
        pass and only path (first-hop) validation can catch it.  Exports
        prepend this speaker's ASN as usual, producing
        ``[attacker, *path_suffix]`` on the wire.  The legitimate origin
        itself discards the announcement via standard loop detection.
        """
        if not path_suffix:
            raise BGPError("a forged path needs at least the claimed origin")
        if int(path_suffix[0]) == self.asn:
            raise BGPError("forged path must not start with the attacker's ASN")
        if prefix.ikey in self._local_routes:
            raise BGPError(f"AS{self.asn} already originates {prefix}")
        route = Route(
            prefix,
            tuple(int(a) for a in path_suffix),
            peer_asn=None,
            local_pref=1_000_000,
            learned_at=self.engine.now,
        )
        self._local_routes[prefix.ikey] = route
        self._decide_insert(prefix, route, None)

    def withdraw_origin(self, prefix: Prefix) -> None:
        """Stop announcing a locally originated ``prefix``."""
        removed = self._local_routes.pop(prefix.ikey, None)
        if removed is None:
            raise BGPError(f"AS{self.asn} does not originate {prefix}")
        self._decide_withdraw(prefix, removed)

    @property
    def originated_prefixes(self) -> List[Prefix]:
        return [route.prefix for route in self._local_routes.values()]

    def originates(self, prefix: Prefix) -> bool:
        """True if this speaker currently originates ``prefix``."""
        return prefix.ikey in self._local_routes

    # ---------------------------------------------------------------- reception

    def deliver(self, sender_asn: int, message: UpdateMessage) -> None:
        """Session delivery entry point; processing happens after a delay."""
        if sender_asn not in self.peers:
            # Session was removed while the message was in flight.
            return
        delay = self.processing_delay.sample(self.rng)
        if self.tracker is not None:
            self.tracker.begin()
        # Args ride on the event handle — no per-delivery closure.
        self.engine.schedule(delay, self._process_tracked, sender_asn, message)

    def _process_tracked(self, sender_asn: int, message: UpdateMessage) -> None:
        try:
            self._process_update(sender_asn, message)
        finally:
            if self.tracker is not None:
                self.tracker.end()

    def _process_update(self, sender_asn: int, message: UpdateMessage) -> None:
        state = self.peers.get(sender_asn)
        if state is None:
            return
        self.updates_received += 1
        _C.updates_processed += 1
        # One decision per touched prefix, after every change in the message
        # is applied (first-touch order).  Keyed by ``prefix.ikey``; each
        # entry carries its change record for the incremental decision —
        # ``("w", removed_route)`` or ``("a", new_route, replaced_route)`` —
        # degraded to ``("f", prefix)`` (full scan) when the same prefix is
        # touched more than once.
        touched: Dict[int, tuple] = {}
        for withdrawal in message.withdrawals:
            prefix = withdrawal.prefix
            removed = self.adj_rib_in.withdraw(sender_asn, prefix)
            if removed is not None:
                pikey = prefix.ikey
                touched[pikey] = (
                    ("f", prefix) if pikey in touched else ("w", removed)
                )
        if message.announcements:
            # Loop-invariant per-message context: every announcement shares
            # the sender's relationship and the current clock.
            rel_index = state.rel_index
            local_pref = LOCAL_PREF_BY_INDEX[rel_index]
            learned_at = self.engine.now
            my_asn = self.asn
            max4 = MAX_PREFIX_LENGTH[4]
            max6 = MAX_PREFIX_LENGTH[6]
            rov = self.rov
            by_prefix = self._rib_rows
            by_prefix_get = by_prefix.get
            # Empty (falsy) unless this RIB was forked from a checkpoint;
            # rows listed here are shared with the frozen master and must be
            # privatised before the inline insert below writes them.
            shared_rows = self.adj_rib_in.shared_rows()
            unshare_row = self.adj_rib_in._unshare_row
            neg_pref = -local_pref
            new_route = Route.__new__
        for announcement in message.announcements:
            as_path = announcement.as_path
            if my_asn in as_path:  # RFC 4271 loop check
                continue
            prefix = announcement.prefix
            # The import rule: the length limit first, then ROV.
            if not (
                prefix.length <= (max4 if prefix.version == 4 else max6)
                and (rov is None or rov.validate(announcement) is not Validity.INVALID)
            ):
                # A rejected announcement still implicitly withdraws any
                # previously accepted route for the prefix from this peer.
                removed = self.adj_rib_in.withdraw(sender_asn, prefix)
                if removed is not None:
                    pikey = prefix.ikey
                    touched[pikey] = (
                        ("f", prefix) if pikey in touched else ("w", removed)
                    )
                continue
            # Inline of Route construction (the busiest allocation in the
            # simulation): Announcement guarantees every field invariant the
            # constructor would re-check — a non-empty interned tuple path —
            # and the hoisted per-message context supplies the rest, so the
            # attributes are stored directly on a bare instance.  Keep in
            # lockstep with Route.__init__.
            route = new_route(Route)
            route.prefix = prefix
            route.as_path = as_path
            route.peer_asn = sender_asn
            route.local_pref = local_pref
            route.learned_at = learned_at
            route.learned_rel_index = rel_index
            route.pref_key = (neg_pref, len(as_path), learned_at, sender_asn)
            route._export = None
            # Inline of AdjRibIn.insert against the hoisted ikey table.
            pikey = prefix.ikey
            row = by_prefix_get(pikey)
            if row is None:
                row = by_prefix[pikey] = {}
            elif shared_rows and pikey in shared_rows:
                row = unshare_row(pikey)
            replaced = row.get(sender_asn)
            row[sender_asn] = route
            touched[pikey] = (
                ("f", prefix) if pikey in touched else ("a", route, replaced)
            )
        # Inline of _decide_insert/_decide_withdraw per touched prefix (the
        # busiest dispatch in the simulation; see those methods for the
        # soundness argument).
        get_ikey = self.loc_rib.get_ikey
        fast = 0
        for pikey, change in touched.items():
            kind = change[0]
            if kind == "a":
                route = change[1]
                old = get_ikey(pikey)
                if old is None:
                    fast += 1
                    self._install_best(route.prefix, route, None)
                elif route.pref_key < old.pref_key:
                    fast += 1
                    self._install_best(route.prefix, route, old)
                elif old is change[2]:
                    # The installed best was displaced by a no-better
                    # replacement: any surviving candidate could now win.
                    self._run_decision(route.prefix, old)
                else:
                    # The (still present) old best beats the newcomer.
                    fast += 1
            elif kind == "w":
                removed = change[1]
                if get_ikey(pikey) is removed:
                    self._run_decision(removed.prefix, removed)
                else:
                    fast += 1
            else:
                self._run_decision(change[1])
        if fast:
            _C.decision_fast_path += fast

    # ----------------------------------------------------------------- decision

    def _run_decision(self, prefix: Prefix, old: object = _UNKNOWN) -> None:
        """Full decision process: rescan every candidate for ``prefix``.

        The change-aware entry points (:meth:`_decide_insert` /
        :meth:`_decide_withdraw`) fall back here only when the installed best
        itself was withdrawn or displaced by a no-better route; this is also
        the conservative entry for callers without change information.
        ``old`` lets callers that already read the installed best pass it in
        (``None`` means known-absent; omitted means unknown).
        """
        _C.decision_full_scans += 1
        pikey = prefix.ikey
        # Inline of decision.select_best over the live candidate row (no
        # list copy, no generator frame); unique pref_keys make the minimum
        # well-defined.
        best = None
        row = self._rib_rows.get(pikey)
        if row:
            for candidate in row.values():
                if best is None or candidate.pref_key < best.pref_key:
                    best = candidate
        local = self._local_routes.get(pikey)
        if local is not None and (best is None or local.pref_key < best.pref_key):
            best = local
        if old is _UNKNOWN:
            old = self.loc_rib.get_ikey(pikey)
        self._install_best(prefix, best, old)

    def _decide_insert(
        self, prefix: Prefix, route: Route, replaced: Optional[Route]
    ) -> None:
        """Decision after ``route`` joined the candidates, displacing
        ``replaced`` (the same peer's previous route, or ``None``).

        Sound because preference keys are *unique* within a candidate set
        (the peer ASN is the final tiebreak, local routes use -1), so the
        best route is the unique minimum: comparing the newcomer against the
        installed best decides every case except "the best itself was
        displaced by something no better", which must rescan.
        """
        old = self.loc_rib.get_ikey(prefix.ikey)
        if old is not None and old is replaced and not route.pref_key < old.pref_key:
            # The installed best left the candidate set and its replacement
            # does not beat it: any surviving candidate could now win.
            self._run_decision(prefix, old)
            return
        _C.decision_fast_path += 1
        if old is None or route.pref_key < old.pref_key:
            self._install_best(prefix, route, old)
        # Otherwise the (still present, unchanged) old best beats the
        # newcomer and nothing observable changes.

    def _decide_withdraw(self, prefix: Prefix, removed: Route) -> None:
        """Decision after ``removed`` left the candidate set."""
        if self.loc_rib.get_ikey(prefix.ikey) is removed:
            # The best itself went away: rescan the survivors.
            self._run_decision(prefix, removed)
        else:
            # A non-best candidate vanished; the installed best still wins.
            _C.decision_fast_path += 1

    def _install_best(
        self, prefix: Prefix, best: Optional[Route], old: Optional[Route]
    ) -> None:
        """Commit a decision outcome: install/remove, callbacks, exports.

        Exports: ``prefix`` is dirtied towards every peer the change can
        matter to.  A peer is skipped when the policy can export neither the
        new nor the old route to it *and* nothing was previously advertised
        (so there is nothing to withdraw either) — e.g. a provider-learned
        route never dirties other providers or peers under Gao-Rexford.

        Skipping is safe only because a route's exportability cannot change
        between mark time and flush time: a session's relationship is fixed
        for its lifetime, and the one event that could flip a route's
        learned relationship — ``remove_peer`` tearing down the session it
        was learned over — drops the route from the Adj-RIB-In and re-runs
        the decision for every affected prefix, which re-marks through here
        (the vanished peer maps to a ``None`` relationship, i.e. exportable
        to all).  If relationships ever become mutable in place, this must
        fall back to marking every peer.
        """
        if best is old:
            return
        if (
            best is not None
            and old is not None
            # Same path (both routes are for ``prefix`` by construction,
            # so the prefix needs no check).
            and best.as_path == old.as_path
            # Same peer too: a learned path always starts with its peer's
            # ASN, so an identical path from a *different* source can only
            # be a local route displacing a learned one (a route leak /
            # type-U forgery re-originating the real path).  That flips
            # the export relationship from customers-only to everyone, so
            # it must fall through and generate export churn.
            and best.peer_asn == old.peer_asn
        ):
            # Same path re-learned (e.g. duplicate announcement): refresh the
            # stored object but generate no churn.
            self._loc_install(best)
            return
        if best is None:
            self._loc_remove(prefix)
        else:
            self._loc_install(best)
        for callback in self._best_change_callbacks:
            callback(self, prefix, best, old)
        # --- export marking ---
        # One precomputed OR of the two export rows; the per-peer check
        # collapses to a single integer tuple index.  The new route is the
        # just-installed best, so its import-time relationship index is
        # current (local routes carry ``LOCAL_REL_INDEX``); the old side
        # must resolve the peer live — the route may predate a session
        # teardown, and a vanished peer maps to the conservative
        # export-to-all row.
        new_index = ABSENT_REL_INDEX if best is None else best.learned_rel_index
        if old is None:
            old_index = ABSENT_REL_INDEX
        else:
            old_peer = old.peer_asn
            if old_peer is None:
                old_index = LOCAL_REL_INDEX
            else:
                old_state = self.peers.get(old_peer)
                old_index = (
                    old_state.rel_index
                    if old_state is not None
                    else LOCAL_REL_INDEX
                )
        ok_row = MARK_GRID[new_index][old_index]
        pikey = prefix.ikey
        if ok_row is MARK_ALL_ROW:
            # All-True rows (any local- or customer-learned side) are
            # normalised to one shared object, so this identity check skips
            # the per-peer row indexing for the most common case.
            for peer_asn, state, rel_index, adj_rib_out, dirty in self._mark_targets:
                dirty[pikey] = prefix
                if not state.flush_scheduled:
                    self._schedule_flush(peer_asn, state)
            return
        skipped = 0
        for peer_asn, state, rel_index, adj_rib_out, dirty in self._mark_targets:
            if ok_row[rel_index] or pikey in adj_rib_out:
                dirty[pikey] = prefix
                if not state.flush_scheduled:
                    self._schedule_flush(peer_asn, state)
            else:
                skipped += 1
        if skipped:
            _C.dirty_marks_skipped += skipped

    # ------------------------------------------------------------------- export

    def _rel_grid_index(self, route: Optional[Route]) -> int:
        """``route``'s row index into ``EXPORT_GRID``: ``ABSENT_REL_INDEX``
        for no route, ``LOCAL_REL_INDEX`` for local routes and routes whose
        peer is gone (conservative: exportable to all, matching the ``None``
        learned relationship)."""
        if route is None:
            return ABSENT_REL_INDEX
        peer_asn = route.peer_asn
        if peer_asn is None:
            return LOCAL_REL_INDEX
        state = self.peers.get(peer_asn)
        return state.rel_index if state is not None else LOCAL_REL_INDEX

    def _exportable(self, route: Optional[Route], state: PeerState) -> bool:
        return EXPORT_GRID[self._rel_grid_index(route)][state.rel_index]

    def _schedule_flush(self, peer_asn: int, state: PeerState) -> None:
        """Queue ``state``'s MRAI flush.  Callers hold the peer's state and
        have just dirtied it with no flush pending."""
        state.flush_scheduled = True
        when = max(self.engine.now, state.next_allowed_send)
        if self.tracker is not None:
            self.tracker.begin()
        self.engine.schedule_at(when, self._flush_tracked, peer_asn)

    def _flush_tracked(self, peer_asn: int) -> None:
        try:
            self._flush(peer_asn)
        finally:
            if self.tracker is not None:
                self.tracker.end()

    def _flush(self, peer_asn: int) -> None:
        state = self.peers.get(peer_asn)
        if state is None:
            return
        state.flush_scheduled = False
        _C.flushes_run += 1
        announcements: List[Announcement] = []
        withdrawals: List[Withdrawal] = []
        loc_rib_get = self.loc_rib.get_ikey
        adj_rib_out = state.adj_rib_out
        grid = EXPORT_GRID
        rel_index = state.rel_index
        my_asn = self.asn
        dirty = state.dirty
        reused = 0
        # ``Prefix.ikey`` integer order is the prefix total order by
        # construction, so the deterministic flush order comes from a plain
        # C-level int sort instead of a Python key function per prefix.
        for pikey in sorted(dirty):
            best = loc_rib_get(pikey)
            previous = adj_rib_out.get(pikey)
            # Inline of _exportable(best, state) — this loop runs for every
            # dirty prefix on every flush.  Installed best routes always
            # carry their import-time relationship index (and their peer is
            # live: teardown re-decides synchronously).
            if best is not None and grid[best.learned_rel_index][rel_index]:
                # Do not announce a route back to the peer it came from
                # (split horizon; the peer would reject it on loop check
                # anyway, this just saves messages).
                if best.peer_asn == peer_asn:
                    if previous is not None:
                        withdrawals.append(Withdrawal(dirty[pikey]))
                        del adj_rib_out[pikey]
                    continue
                # One shared Announcement per Loc-RIB change, fanned out to
                # every peer instead of rebuilt per peer.  Inline of
                # export_announcement's cache hit (the overwhelmingly common
                # case once a route has been exported anywhere).
                cached = best._export
                if cached is not None and cached[0] == my_asn:
                    reused += 1
                    announcement = cached[1]
                else:
                    announcement = best.export_announcement(my_asn)
                # Inline announcement equality: both sides are keyed under
                # ``prefix`` so only the path can differ, and the
                # shared-export cache makes the identity hit the common case.
                if previous is not None and (
                    previous is announcement
                    or previous.as_path == announcement.as_path
                ):
                    continue
                announcements.append(announcement)
                adj_rib_out[pikey] = announcement
            elif previous is not None:
                withdrawals.append(Withdrawal(dirty[pikey]))
                del adj_rib_out[pikey]
        dirty.clear()
        if reused:
            _C.announcements_reused += reused
        if announcements or withdrawals:
            message = UpdateMessage(self.asn, announcements, withdrawals)
            self.updates_sent += 1
            state.session.send(self.asn, message)
            state.next_allowed_send = self.engine.now + self.mrai.sample(self.rng)

    # ------------------------------------------------------------- introspection

    def best_route(self, prefix: Prefix) -> Optional[Route]:
        """The installed best route for exactly ``prefix``."""
        return self.loc_rib.get(prefix)

    def resolve(self, target: Union[Address, Prefix, str]) -> Optional[Route]:
        """Longest-prefix-match resolution (data-plane view)."""
        return self.loc_rib.resolve(target)

    def resolve_origin(self, target: Union[Address, Prefix, str]) -> Optional[int]:
        """Which origin AS this speaker currently routes ``target`` towards.

        Returns this speaker's own ASN for locally originated space and
        ``None`` when no route covers the target.
        """
        route = self.resolve(target)
        if route is None:
            return None
        return route.origin_as if route.as_path else self.asn

    def table_dump(self) -> Sequence[Route]:
        """A RIB snapshot (used by batch feeds and looking glasses).

        Returns the Loc-RIB's cached tuple — shared until the next table
        change, so periodic dumps between changes cost O(1).  Callers must
        treat it as read-only.
        """
        return self.loc_rib.snapshot()

    def __repr__(self) -> str:
        return (
            f"<BGPSpeaker AS{self.asn} peers={len(self.peers)} "
            f"rib={len(self.loc_rib)}>"
        )
