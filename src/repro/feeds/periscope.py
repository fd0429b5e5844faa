"""Periscope-style looking-glass querying.

Periscope (Giotsas et al., PAM 2016) unifies queries to public looking-glass
servers.  An LG answers "show ip bgp <prefix>" straight from an operational
router — no collector in the path, so the *observation* is as fresh as the
poll.  The price is poll-driven latency: expected detection delay from one
LG is roughly ``poll_interval / 2`` plus the query round trip, and public
LGs enforce per-client rate limits, which is exactly the
overhead-vs-speed trade-off the paper says ARTEMIS can be parametrised over
(experiment E3).

:class:`LookingGlass` wraps one router; :class:`PeriscopeAPI` schedules the
polls, deduplicates unchanged answers, and emits
:class:`~repro.feeds.events.FeedEvent` objects like any other source.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bgp.speaker import BGPSpeaker
from repro.errors import FeedError
from repro.feeds.events import FeedEvent
from repro.feeds.interest import Subscribable
from repro.net.prefix import Prefix
from repro.perf import COUNTERS as _C
from repro.sim.engine import Engine
from repro.sim.latency import Delay, Shifted, Exponential, make_delay
from repro.sim.rng import SeededRNG

#: An LG answer: list of (prefix, as_path) rows overlapping the query.
LGAnswer = List[Tuple[Prefix, Tuple[int, ...]]]


def default_query_delay() -> Delay:
    """LG query round trip: ~0.3 s floor + server-load tail."""
    return Shifted(0.3, Exponential(0.7))


class LookingGlass:
    """A public looking glass in front of one operational router."""

    def __init__(
        self,
        name: str,
        speaker: BGPSpeaker,
        engine: Engine,
        query_delay: Optional[Delay] = None,
        min_query_interval: float = 10.0,
        rng: Optional[SeededRNG] = None,
        max_backlog: int = 32,
    ):
        self.name = name
        self.speaker = speaker
        self.engine = engine
        self.query_delay = query_delay or default_query_delay()
        #: Rate limit enforced by the LG operator (seconds between queries).
        self.min_query_interval = float(min_query_interval)
        #: Maximum rate-limited queries allowed to queue; extra ones are
        #: dropped (a real LG returns "busy").  Without the cap, any client
        #: asking faster than the rate limit drifts the queue ahead forever
        #: and observation staleness grows without bound.
        self.max_backlog = int(max_backlog)
        self.rng = rng or SeededRNG(speaker.asn)
        self._next_allowed = 0.0
        #: Per-target answer rows keyed by the Loc-RIB version they were
        #: computed at: repeat polls between route changes reuse the rows
        #: instead of re-walking the covered() subtree.
        self._answer_cache: Dict[Prefix, Tuple[int, LGAnswer]] = {}
        self.queries_served = 0
        self.queries_dropped = 0
        #: False while the LG (or its router's management plane) is down.
        self.up = True
        self.failures = 0

    @property
    def asn(self) -> int:
        """The AS whose router this LG exposes."""
        return self.speaker.asn

    def query(
        self,
        target: Prefix,
        callback: Callable[..., None],
        *cb_args,
    ) -> None:
        """Ask the router for its view of ``target``.

        The answer contains every Loc-RIB entry overlapping the queried
        prefix (exact, more-specific, or covering — what a real
        ``show ip bgp`` longest-match listing exposes).  ``callback`` gets
        ``(*cb_args, observed_at, rows)`` after the full round trip — the
        extra leading args let callers use a shared bound method instead of
        a per-query closure, which keeps queued queries checkpointable.
        Queries beyond the rate limit queue up to ``max_backlog`` deep;
        past that they are dropped (counted in ``queries_dropped``), so the
        answer staleness stays bounded even when the client polls faster
        than the limit.

        A dead LG drops the query immediately — against the same
        ``queries_dropped`` accounting, *without* advancing the rate-limit
        clock, so a recovering LG answers promptly instead of first paying
        off a backlog of rate-limit slots its outage accumulated.
        """
        if not self.up:
            self.queries_dropped += 1
            return
        start = max(self.engine.now, self._next_allowed)
        if (
            self.min_query_interval > 0.0
            and start - self.engine.now
            >= self.max_backlog * self.min_query_interval
            and start > self.engine.now
        ):
            self.queries_dropped += 1
            return
        forward = self.query_delay.sample(self.rng) / 2.0
        backward = self.query_delay.sample(self.rng) / 2.0
        self._next_allowed = start + self.min_query_interval
        self.engine.schedule_at(
            start + forward, self._execute, target, backward, callback, cb_args
        )

    def _execute(
        self,
        target: Prefix,
        backward: float,
        callback: Callable[..., None],
        cb_args: Tuple = (),
    ) -> None:
        """Answer a query at the router: cached rows if the RIB is unchanged."""
        if not self.up:
            # The LG died while the query was in flight: no answer.
            self.queries_dropped += 1
            return
        self.queries_served += 1
        observed_at = self.engine.now
        loc_rib = self.speaker.loc_rib
        version = loc_rib.version
        cached = self._answer_cache.get(target)
        if cached is not None and cached[0] == version:
            _C.snapshot_cache_hits += 1
            rows = cached[1]
        else:
            rows = []
            for prefix, route in loc_rib.covered(target):
                path = route.as_path if route.as_path else (self.speaker.asn,)
                rows.append((prefix, tuple(path)))
            covering = loc_rib.resolve(target)
            if covering is not None and covering.prefix.length < target.length:
                path = covering.as_path if covering.as_path else (self.speaker.asn,)
                rows.append((covering.prefix, tuple(path)))
            self._answer_cache[target] = (version, rows)
        self.engine.schedule(backward, callback, *cb_args, observed_at, rows)

    def fail(self) -> None:
        """Take the LG down: queries are dropped until :meth:`repair`."""
        if not self.up:
            return
        self.up = False
        self.failures += 1

    def repair(self) -> None:
        """Bring the LG back; queued rate-limit state was not accumulating."""
        self.up = True

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<LookingGlass {self.name} AS{self.asn} {state}>"


class PeriscopeAPI(Subscribable):
    """Unified poll scheduler over a set of looking glasses."""

    def __init__(
        self,
        engine: Engine,
        looking_glasses: Sequence[LookingGlass],
        poll_interval: float = 60.0,
        rng: Optional[SeededRNG] = None,
        name: str = "periscope",
    ):
        if poll_interval <= 0:
            raise FeedError(f"poll interval must be positive, got {poll_interval}")
        super().__init__()
        self.engine = engine
        self.looking_glasses = list(looking_glasses)
        self.poll_interval = float(poll_interval)
        self.rng = rng or SeededRNG(0)
        self.name = name
        self._watched: List[Prefix] = []
        self._poll_handles = []
        #: Last answer per (lg_name, prefix): dedup state.
        self._last_seen: Dict[Tuple[str, Prefix], Tuple[int, ...]] = {}
        self.queries_sent = 0
        self.events_delivered = 0
        self.events_filtered = 0
        #: Last simulated time any LG answered a poll — the supervisor's
        #: staleness clock for the Periscope source as a whole.
        self.last_activity_at = 0.0

    # --------------------------------------------------------------- transport

    @property
    def transport_up(self) -> bool:
        """The source is reachable while at least one LG answers queries."""
        return any(lg.up for lg in self.looking_glasses)

    def reconnect(self) -> bool:
        """Supervisor probe: polls resume by themselves once an LG is back."""
        if not self.transport_up:
            return False
        self.last_activity_at = self.engine.now
        return True

    def watch(self, prefixes: Sequence[Prefix]) -> None:
        """Start polling every LG for each of ``prefixes``.

        Poll phases are staggered per LG so queries spread over the
        interval instead of arriving in a thundering herd.
        """
        new = [p for p in prefixes if p not in self._watched]
        self._watched.extend(new)
        if self._poll_handles or not self._watched:
            return
        for lg in self.looking_glasses:
            phase = self.rng.uniform(0.0, self.poll_interval)
            handle = self.engine.schedule_periodic(
                self.poll_interval,
                self._poll,
                lg,
                first_delay=phase,
            )
            self._poll_handles.append(handle)

    def stop(self) -> None:
        """Cancel all polling."""
        for handle in self._poll_handles:
            handle.cancel()
        self._poll_handles.clear()

    @property
    def polling(self) -> bool:
        return bool(self._poll_handles)

    # ----------------------------------------------------------------- polling

    def _poll(self, lg: LookingGlass) -> None:
        for prefix in list(self._watched):
            self.queries_sent += 1
            lg.query(prefix, self._handle_answer, lg, prefix)

    def _handle_answer(
        self, lg: LookingGlass, watched: Prefix, observed_at: float, rows: LGAnswer
    ) -> None:
        # Any answer (even an unchanged one) is proof of transport life.
        self.last_activity_at = self.engine.now
        seen_prefixes = set()
        for prefix, path in rows:
            seen_prefixes.add(prefix)
            key = (lg.name, prefix)
            if self._last_seen.get(key) == path:
                continue
            self._last_seen[key] = path
            self._deliver(lg, "A", prefix, path, observed_at)
        # Implicit withdrawals: previously seen rows under the watched
        # prefix that no longer appear.
        for key in [
            k
            for k in self._last_seen
            if k[0] == lg.name and watched.overlaps(k[1]) and k[1] not in seen_prefixes
        ]:
            del self._last_seen[key]
            self._deliver(lg, "W", key[1], (), observed_at)

    def _deliver(
        self,
        lg: LookingGlass,
        kind: str,
        prefix: Prefix,
        path: Tuple[int, ...],
        observed_at: float,
    ) -> None:
        matched = self._interest.lookup(prefix)
        if not matched:
            self.events_filtered += 1
            return
        event = FeedEvent(
            source=self.name,
            collector=lg.name,
            vantage_asn=lg.asn,
            kind=kind,
            prefix=prefix,
            as_path=path,
            observed_at=observed_at,
            delivered_at=self.engine.now,
        )
        for subscription in matched:
            self.events_delivered += 1
            subscription.callback(event)

    @property
    def queries_dropped(self) -> int:
        """Rate-limit drops across every attached looking glass."""
        return sum(lg.queries_dropped for lg in self.looking_glasses)

    def __repr__(self) -> str:
        return (
            f"<PeriscopeAPI {len(self.looking_glasses)} LGs "
            f"interval={self.poll_interval}s watched={len(self._watched)} "
            f"delivered={self.events_delivered} filtered={self.events_filtered} "
            f"dropped={self.queries_dropped}>"
        )
