"""Batch (archive) feeds: RouteViews / RIS dump files.

Before streaming services existed, detection systems worked from archived
files: BGP update dumps published every ~15 minutes and full RIB snapshots
every ~2 hours (the delays the paper's introduction quotes as the reason the
"whole detection/mitigation cycle presently has significant delay").

:class:`BatchArchive` buffers collector observations and releases them to
subscribers only at file-publication instants, plus a small fetch/processing
delay.  The third-party baselines consume this feed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import FeedError
from repro.feeds.collector import RouteCollector
from repro.feeds.events import FeedEvent
from repro.feeds.health import Transport
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Constant, Delay, make_delay
from repro.sim.rng import SeededRNG

#: RouteViews/RIS classic publication periods (seconds).
DEFAULT_UPDATE_INTERVAL = 15 * 60.0
DEFAULT_RIB_INTERVAL = 2 * 3600.0


class BatchArchive(Transport):
    """An archive publishing periodic update files and RIB dumps.

    Publication timers start with the first subscription.  While the
    transport is down the consumer cannot fetch published files; their
    rows are lost to it (archives keep the files, re-fetch is out of scope).
    """

    def __init__(
        self,
        engine: Engine,
        update_interval: float = DEFAULT_UPDATE_INTERVAL,
        rib_interval: float = DEFAULT_RIB_INTERVAL,
        fetch_delay: Optional[Delay] = None,
        rng: Optional[SeededRNG] = None,
        name: str = "routeviews",
        publish_ribs: bool = True,
        publish_updates: bool = True,
    ):
        if update_interval <= 0 or rib_interval <= 0:
            raise FeedError("publication intervals must be positive")
        super().__init__(engine)
        self.update_interval = float(update_interval)
        self.rib_interval = float(rib_interval)
        #: Download + parse time once a file appears.
        self.fetch_delay = make_delay(fetch_delay) if fetch_delay else Constant(30.0)
        self.rng = rng or SeededRNG(0)
        self.name = name
        self.collectors: List[RouteCollector] = []
        self._buffer: List[Tuple[str, int, str, Prefix, Tuple[int, ...], float]] = []
        self._started = False
        self.publish_ribs = publish_ribs
        self.publish_updates = publish_updates
        if not (publish_ribs or publish_updates):
            raise FeedError(f"archive {name} would publish nothing")
        self.files_published = 0
        self.events_delivered = 0
        self.events_filtered = 0
        self.files_missed = 0

    def attach_collector(self, collector: RouteCollector) -> None:
        if collector in self.collectors:
            raise FeedError(f"{self.name} already attached to {collector.name}")
        self.collectors.append(collector)
        collector.subscribe(self._on_observation)

    def _subscribed(self) -> None:
        if self._started:
            return
        self._started = True
        if self.publish_updates:
            self.engine.schedule_periodic(self.update_interval, self._publish_updates)
        if self.publish_ribs:
            self.engine.schedule_periodic(self.rib_interval, self._publish_rib)

    # ----------------------------------------------------------------- observe

    def _on_observation(
        self,
        collector: RouteCollector,
        vantage_asn: int,
        kind: str,
        prefix: Prefix,
        as_path: Tuple[int, ...],
        observed_at: float,
    ) -> None:
        self._buffer.append(
            (collector.name, vantage_asn, kind, prefix, as_path, observed_at)
        )

    # ----------------------------------------------------------------- publish

    def _deliver_rows(
        self,
        rows: List[Tuple[str, int, str, Prefix, Tuple[int, ...], float]],
    ) -> None:
        if not rows or not self._interest:
            return
        if not self.transport_up:
            self.files_missed += 1
            return
        self.last_activity_at = self.engine.now
        # Keep only rows at least one subscriber asked for; churn noise would
        # otherwise allocate events nobody receives.
        kept = [row for row in rows if self._interest.any_match(row[3])]
        self.events_filtered += len(rows) - len(kept)
        rows = kept
        if not rows:
            return
        delivered_at = self.engine.now + self.fetch_delay.sample(self.rng)
        self.engine.schedule_at(delivered_at, self._deliver_fetched, rows, delivered_at)

    def _deliver_fetched(
        self,
        rows: List[Tuple[str, int, str, Prefix, Tuple[int, ...], float]],
        delivered_at: float,
    ) -> None:
        if not self.transport_up:
            # The fetch that was in progress when the outage hit fails.
            self.files_missed += 1
            return
        for collector_name, vantage, kind, prefix, path, observed in rows:
            event = FeedEvent(
                source=self.name,
                collector=collector_name,
                vantage_asn=vantage,
                kind=kind,
                prefix=prefix,
                as_path=path,
                observed_at=observed,
                delivered_at=delivered_at,
            )
            for subscription in self._interest.lookup(prefix):
                self.events_delivered += 1
                subscription.callback(event)

    def _publish_updates(self) -> None:
        rows, self._buffer = self._buffer, []
        self.files_published += 1
        self._deliver_rows(rows)

    def _publish_rib(self) -> None:
        snapshot_time = self.engine.now
        rows = []
        for collector in self.collectors:
            for vantage, prefix, path in collector.rib_snapshot():
                rows.append((collector.name, vantage, "A", prefix, path, snapshot_time))
        self.files_published += 1
        self._deliver_rows(rows)

    def __repr__(self) -> str:
        return (
            f"<BatchArchive {self.name} every {self.update_interval:.0f}s "
            f"buffered={len(self._buffer)} delivered={self.events_delivered} "
            f"filtered={self.events_filtered}>"
        )
