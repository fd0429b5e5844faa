"""Route collectors.

A :class:`RouteCollector` is a passive BGP endpoint (like a RIPE RIS ``rrc``
or a RouteViews box).  Vantage ASes export their full best-route feed to it
over monitor sessions; the collector records every received announcement or
withdrawal as a raw observation and hands it to its consumers (streaming
services, batch archives) *at collector-receipt time* — each consumer then
adds its own publication latency.

Collectors use pseudo-ASNs from a reserved private range so they can
terminate sessions without colliding with topology ASes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bgp.messages import UpdateMessage
from repro.errors import FeedError
from repro.feeds.interest import Subscribable
from repro.net.prefix import Prefix
from repro.sim.engine import Engine

#: First pseudo-ASN handed to collectors (inside the RFC 6996 private range).
COLLECTOR_ASN_BASE = 4_200_000_000

#: Raw observation callback: (collector, vantage_asn, kind, prefix, as_path, time).
ObservationCallback = Callable[
    ["RouteCollector", int, str, Prefix, Tuple[int, ...], float], None
]


class RouteCollector(Subscribable):
    """A passive multi-peer BGP measurement box.

    Subscribers get raw, zero-added-latency observations
    (:data:`ObservationCallback`), filtered like any other source's.
    """

    def __init__(self, name: str, engine: Engine, asn: Optional[int] = None):
        super().__init__()
        self.name = name
        self.engine = engine
        if asn is None:
            # Derive the pseudo-ASN from the collector name so repeated
            # experiments in one process are bit-identical (a global counter
            # would leak state across runs).  Names are unique per network.
            from repro.sim.rng import derive_seed

            asn = COLLECTOR_ASN_BASE + derive_seed(0, "collector", name) % 90_000_000
        self.asn = int(asn)
        #: Current table per (vantage, prefix) — the collector's own RIB view,
        #: used for RIB dumps by the batch archive.
        self.table: Dict[Tuple[int, Prefix], Tuple[int, ...]] = {}
        #: Cached sorted rows for :meth:`rib_snapshot`, dropped on any
        #: table change — periodic dumps of a quiet table share one list.
        self._snapshot: Optional[List[Tuple[int, Prefix, Tuple[int, ...]]]] = None
        self.vantage_asns: List[int] = []
        self.observations = 0
        self.observations_filtered = 0
        #: False while the collector is crashed: arriving UPDATEs are lost
        #: (counted in ``messages_lost_down``), the table is empty.
        self.up = True
        #: Optional per-message loss/dup/reorder judge installed by the
        #: fault injector (:class:`repro.faults.channel.ChannelFault`).  The
        #: collector only duck-calls ``on_message(now)`` so the feed layer
        #: carries no import of the fault package.
        self.fault_channel = None
        self.messages_lost_down = 0
        self.crashes = 0

    def register_vantage(self, vantage_asn: int) -> None:
        """Record that ``vantage_asn`` feeds this collector (bookkeeping)."""
        if vantage_asn in self.vantage_asns:
            raise FeedError(
                f"collector {self.name} already peers with AS{vantage_asn}"
            )
        self.vantage_asns.append(vantage_asn)

    # BGP endpoint interface ---------------------------------------------------

    def deliver(self, sender_asn: int, message: UpdateMessage) -> None:
        """Receive an UPDATE from a vantage AS (Session delivery hook).

        When a fault channel is installed, every message is judged first:
        it may be dropped, duplicated, or re-ingested after an extra delay
        (reordering — the copy bypasses the session's FIFO guarantee).
        """
        fault = self.fault_channel
        if fault is None:
            self._ingest(sender_asn, message)
            return
        for extra_delay in fault.on_message(self.engine.now):
            if extra_delay <= 0.0:
                self._ingest(sender_asn, message)
            else:
                self.engine.schedule(extra_delay, self._ingest, sender_asn, message)

    def _ingest(self, sender_asn: int, message: UpdateMessage) -> None:
        """Apply one (possibly replayed) UPDATE to the table and fan out."""
        if not self.up:
            self.messages_lost_down += 1
            return
        now = self.engine.now
        self._snapshot = None
        for withdrawal in message.withdrawals:
            self.table.pop((sender_asn, withdrawal.prefix), None)
            self._emit(sender_asn, "W", withdrawal.prefix, (), now)
        for announcement in message.announcements:
            self.table[(sender_asn, announcement.prefix)] = announcement.as_path
            self._emit(sender_asn, "A", announcement.prefix, announcement.as_path, now)

    def _emit(
        self,
        vantage_asn: int,
        kind: str,
        prefix: Prefix,
        as_path: Tuple[int, ...],
        when: float,
    ) -> None:
        self.observations += 1
        matched = self._interest.lookup(prefix)
        if not matched:
            self.observations_filtered += 1
            return
        for subscription in matched:
            subscription.callback(self, vantage_asn, kind, prefix, as_path, when)

    # Crash / restart --------------------------------------------------------

    def crash(self) -> None:
        """Lose all state, stop ingesting (a collector box going down).

        The injector also tears down the vantage sessions; :meth:`restart`
        plus session re-establishment gives the full crash-restart cycle
        with RIB re-sync.
        """
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        self.table.clear()
        self._snapshot = None

    def restart(self) -> None:
        """Come back up with an empty table.

        The table is repopulated by the vantage sessions' re-established
        full-feed advertisement (``add_peer`` initial-advertisement
        semantics), which is exactly a RIB re-sync.
        """
        self.up = True

    def rib_snapshot(self) -> List[Tuple[int, Prefix, Tuple[int, ...]]]:
        """Current table as (vantage, prefix, path) rows, deterministic order.

        Cached until the next table change; callers must not mutate the
        returned list.
        """
        cached = self._snapshot
        if cached is not None:
            return cached
        snapshot = sorted(
            (vantage, prefix, path)
            for (vantage, prefix), path in self.table.items()
        )
        self._snapshot = snapshot
        return snapshot

    def __repr__(self) -> str:
        return (
            f"<RouteCollector {self.name} vantages={len(self.vantage_asns)} "
            f"obs={self.observations} filtered={self.observations_filtered}>"
        )
