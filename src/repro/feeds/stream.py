"""Streaming feed services.

A :class:`StreamingService` sits between route collectors and consumers: for
every raw collector observation it samples a publication latency and
schedules delivery of a :class:`~repro.feeds.events.FeedEvent` to each
subscriber.  Subscribers can filter server-side by prefix (the paper:
sources "return in near real-time BGP routes/updates for a given list of
prefixes"), which is also what keeps the monitoring overhead accounting
honest — filtered-out events are counted but not delivered.

Subscription matching goes through the shared
:class:`~repro.feeds.interest.InterestIndex`, so the per-observation cost
under background churn is bounded by the filter lengths present, not by
the number of subscriptions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import FeedError
from repro.feeds.collector import RouteCollector
from repro.feeds.events import FeedEvent
from repro.feeds.health import Transport
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Delay, make_delay
from repro.sim.rng import SeededRNG


class StreamingService(Transport):
    """A RIS-live / BGPmon style stream: ``name`` is stamped on its events.

    While the transport is down (:class:`~repro.feeds.health.Transport`),
    observations are not published and in-flight publications are lost on
    delivery: a dropped streaming connection loses whatever was on the wire.
    """

    def __init__(
        self,
        engine: Engine,
        latency: Delay,
        rng: Optional[SeededRNG] = None,
        name: str = "stream",
    ):
        super().__init__(engine)
        self.latency = make_delay(latency)
        self.rng = rng or SeededRNG(0)
        self.name = name
        self.collectors: List[RouteCollector] = []
        self.events_published = 0
        self.events_delivered = 0
        self.events_filtered = 0
        #: Events lost to outages, split by where the outage caught them.
        self.events_lost_down = 0
        self.events_lost_in_flight = 0
        #: Publication-latency inflation applied by the fault layer:
        #: ``latency * delay_factor + delay_add``.  Neutral values are exact
        #: float no-ops, so the unfaulted path is bit-identical.
        self.delay_factor = 1.0
        self.delay_add = 0.0

    def attach_collector(self, collector: RouteCollector) -> None:
        """Feed this stream from ``collector``'s observations."""
        if collector in self.collectors:
            raise FeedError(f"{self.name} already attached to {collector.name}")
        self.collectors.append(collector)
        collector.subscribe(self._on_observation)

    # ------------------------------------------------------------------ engine

    def _on_observation(
        self,
        collector: RouteCollector,
        vantage_asn: int,
        kind: str,
        prefix: Prefix,
        as_path: Tuple[int, ...],
        observed_at: float,
    ) -> None:
        if not self.transport_up:
            # The consumer-side connection is down: the observation never
            # reaches subscribers, and it does not count as transport life.
            self.events_lost_down += 1
            return
        self.events_published += 1
        self.last_activity_at = self.engine.now
        # Server-side filter: skip the publication machinery entirely when
        # nobody asked for this prefix (background churn would otherwise
        # flood the event queue with undeliverable publications).
        if not self._interest.any_match(prefix):
            self.events_filtered += 1
            return
        delay = self.latency.sample(self.rng) * self.delay_factor + self.delay_add
        delivered_at = observed_at + delay
        event = FeedEvent(
            source=self.name,
            collector=collector.name,
            vantage_asn=vantage_asn,
            kind=kind,
            prefix=prefix,
            as_path=as_path,
            observed_at=observed_at,
            delivered_at=delivered_at,
        )

        self.engine.schedule_at(delivered_at, self._publish, prefix, event)

    def _publish(self, prefix: Prefix, event: FeedEvent) -> None:
        # An event still on the wire when the connection dropped is lost
        # with it — subscribers only ever see a live transport's feed.
        if not self.transport_up:
            self.events_lost_in_flight += 1
            return
        # Re-resolved at delivery time, so subscriptions added or
        # deactivated while the event was in flight are honoured.
        for subscription in self._interest.lookup(prefix):
            self.events_delivered += 1
            subscription.callback(event)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} collectors={len(self.collectors)} "
            f"published={self.events_published} delivered={self.events_delivered} "
            f"filtered={self.events_filtered}>"
        )
