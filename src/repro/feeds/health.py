"""Per-source liveness tracking, backoff reconnect, and failover.

The paper's robustness argument ("the system is robust to any single source
being slow or dead") needs machinery on the consumer side: something must
*notice* a dead feed, keep trying to get it back, and meanwhile keep the
detection pipeline fed from whatever still works.  That machinery is the
:class:`SourceSupervisor`.

State machine (per source)::

        ┌──────── LIVE ◄──────────────┐
        │  staleness > timeout        │ reconnect probe succeeds
        │  AND transport probe fails  │
        ▼                             │
       DEAD ── backoff retry ─────────┘
        (1·base, 2·base, 4·base, ... capped at backoff_cap)

Detection is *behavioural*, not oracular: the supervisor never asks the
fault injector what it did.  A source is suspected when it has delivered
nothing for ``staleness_timeout`` seconds; the suspicion is confirmed by a
transport probe (a cheap "is the socket open" check — a quiet-but-connected
source stays LIVE, which is what keeps churn-free laboratory runs from
false-positive outages).  Once DEAD, reconnect attempts run on exponential
backoff; each failed attempt doubles the wait.  All of it is engine-driven
and free of randomness, so seeded runs stay bit-identical.

Failover: consumers registered through :meth:`register_failover` are
subscribed to every *backup* source while any primary is DEAD, and those
subscriptions are dropped again once every primary is back — interest
follows the surviving sources instead of silently starving.

Sources expose the transport protocol ``name``, ``transport_up`` (bool),
``last_activity_at`` (float) and ``reconnect() -> bool``.  Streams,
archives and recorded sources inherit it from :class:`Transport`, which
a fault can ``disconnect`` until a window end and ``restore_transport``;
Periscope derives it from its looking glasses.

One clock: thresholds are compared against the supervisor's engine, and
checks and retries are engine events.  A replayed trace's engine
(:class:`~repro.feeds.replay.ReplayTap`) runs in event time, so staleness
is in recorded seconds at any replay speed, and a paused replay, whose
engine does not move, cannot age a healthy source into DEAD.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FeedError
from repro.feeds.events import FeedEvent
from repro.feeds.interest import Subscribable
from repro.net.prefix import Prefix
from repro.sim.engine import Engine

#: Supervisor states.
LIVE = "live"
DEAD = "dead"


class Transport(Subscribable):
    """A subscribable source whose transport can drop: the supervisor's view.

    While ``transport_up`` is False the source delivers nothing (each
    subclass decides what it loses); a fault opens the outage with
    :meth:`disconnect` and the server side ends it with
    :meth:`restore_transport`.
    """

    def __init__(self, engine: Engine) -> None:
        super().__init__()
        self.engine = engine
        self.transport_up = True
        #: Earliest engine time a reconnect can succeed (the window end).
        self._down_until = 0.0
        #: Last time the transport showed life: the staleness clock.
        self.last_activity_at = engine.now
        self.outages = 0

    def disconnect(self, down_until: Optional[float] = None) -> None:
        """Drop the transport (fault injection / network outage).

        ``down_until`` is the earliest engine time :meth:`reconnect` can
        succeed; ``None`` means the outage is open-ended until
        :meth:`restore_transport`.
        """
        if not self.transport_up:
            return
        self.transport_up = False
        self.outages += 1
        self._down_until = float("inf") if down_until is None else float(down_until)

    def reconnect(self) -> bool:
        """Attempt to re-establish the transport; True when it succeeded.

        Fails while the outage window is still open — this is what the
        supervisor's exponential-backoff retry loop probes.
        """
        if self.transport_up:
            return True
        if self.engine.now < self._down_until:
            return False
        self.transport_up = True
        self.last_activity_at = self.engine.now
        return True

    def restore_transport(self) -> None:
        """End the outage window and bring the transport straight back up."""
        self._down_until = 0.0
        self.reconnect()


class SourceHealth:
    """Liveness bookkeeping for one monitored source."""

    __slots__ = (
        "source",
        "state",
        "detected_down_at",
        "reconnect_attempts",
        "outages",
        "downtime",
        "max_staleness",
        "_retry_handle",
    )

    def __init__(self, source):
        self.source = source
        self.state = LIVE
        #: When the supervisor *noticed* the current outage (None while live).
        self.detected_down_at: Optional[float] = None
        self.reconnect_attempts = 0
        #: Completed outages as (detected_down_at, recovered_at) intervals.
        self.outages: List[Tuple[float, float]] = []
        #: Total supervised downtime (detected → recovered), completed outages.
        self.downtime = 0.0
        #: Worst observed event-gap while live (the degradation signal).
        self.max_staleness = 0.0
        self._retry_handle = None

    @property
    def name(self) -> str:
        return self.source.name

    def staleness(self, now: float) -> float:
        """Seconds since the source last showed transport life."""
        return max(0.0, now - self.source.last_activity_at)

    def to_dict(self, now: float) -> Dict:
        """JSON-ready health summary (what experiment results embed)."""
        downtime = self.downtime
        if self.state == DEAD and self.detected_down_at is not None:
            downtime += now - self.detected_down_at
        return {
            "state": self.state,
            "outages": len(self.outages) + (1 if self.state == DEAD else 0),
            "downtime": downtime,
            "max_staleness": max(self.max_staleness, self.staleness(now)),
            "reconnect_attempts": self.reconnect_attempts,
        }

    def __repr__(self) -> str:
        return f"<SourceHealth {self.name} {self.state}>"


class SourceSupervisor:
    """Watches feed sources, reconnects dead ones, fails interest over."""

    def __init__(
        self,
        engine: Engine,
        sources: Sequence,
        check_interval: float = 5.0,
        staleness_timeout: float = 30.0,
        backoff_base: float = 1.0,
        backoff_cap: float = 60.0,
    ):
        if check_interval <= 0:
            raise FeedError(f"check interval must be positive, got {check_interval}")
        if staleness_timeout <= 0:
            raise FeedError(
                f"staleness timeout must be positive, got {staleness_timeout}"
            )
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise FeedError(
                f"invalid backoff parameters base={backoff_base} cap={backoff_cap}"
            )
        self.engine = engine
        self.check_interval = float(check_interval)
        self.staleness_timeout = float(staleness_timeout)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.health: Dict[str, SourceHealth] = {}
        for source in sources:
            if source.name in self.health:
                raise FeedError(f"duplicate source name {source.name!r}")
            self.health[source.name] = SourceHealth(source)
        self.backups: List = []
        #: (callback, prefixes) specs to fail over onto backups.
        self._failover_specs: List[Tuple[Callable[[FeedEvent], None], Optional[Tuple[Prefix, ...]]]] = []
        self._backup_subscriptions: List = []
        self._check_handle = None
        #: (time, source, transition) audit log, deterministic per seed.
        self.transitions: List[Tuple[float, str, str]] = []
        self.started = False

    # ----------------------------------------------------------------- control

    def start(self) -> None:
        """Check on an interval; a source still dead from before a stop is
        the retry loop's again, and its consumers fail over again."""
        if self.started:
            return
        self.started = True
        self._check_handle = self.engine.schedule_periodic(
            self.check_interval, self._check_all
        )
        for health in self.health.values():
            if health.state == DEAD:
                self._engage_backups()
                health._retry_handle = self.engine.schedule(
                    self.backoff_base, self._attempt_reconnect, health
                )

    def stop(self) -> None:
        """Stop checking and retrying, and take the consumers off the backups."""
        if not self.started:
            return
        self.started = False
        if self._check_handle is not None:
            self._check_handle.cancel()
            self._check_handle = None
        for health in self.health.values():
            if health._retry_handle is not None:
                health._retry_handle.cancel()
                health._retry_handle = None
        self._disengage_backups()

    # ---------------------------------------------------------------- failover

    def add_backup(self, source) -> None:
        """Register a standby source engaged only while a primary is dead."""
        self.backups.append(source)

    def register_failover(
        self,
        callback: Callable[[FeedEvent], None],
        prefixes: Optional[Sequence[Prefix]] = None,
    ) -> None:
        """A consumer to re-home onto backups during primary outages."""
        self._failover_specs.append(
            (callback, tuple(prefixes) if prefixes is not None else None)
        )

    def _engage_backups(self) -> None:
        if self._backup_subscriptions or not self.backups:
            return
        for backup in self.backups:
            for callback, prefixes in self._failover_specs:
                self._backup_subscriptions.append(
                    backup.subscribe(callback, prefixes=prefixes)
                )

    def _disengage_backups(self) -> None:
        for subscription in self._backup_subscriptions:
            subscription.active = False
        self._backup_subscriptions.clear()

    @property
    def failover_engaged(self) -> bool:
        return bool(self._backup_subscriptions)

    # ------------------------------------------------------------------ checks

    def _check_all(self) -> None:
        now = self.engine.now
        for health in self.health.values():
            if health.state == DEAD:
                continue  # the retry loop owns dead sources
            staleness = health.staleness(now)
            if staleness > health.max_staleness:
                health.max_staleness = staleness
            if staleness <= self.staleness_timeout:
                continue
            # Silent for too long: confirm with a transport probe so a
            # quiet-but-connected source is not declared dead.
            if health.source.transport_up:
                continue
            self._mark_dead(health, now)

    def _mark_dead(self, health: SourceHealth, now: float) -> None:
        health.state = DEAD
        health.detected_down_at = now
        health.reconnect_attempts = 0
        self.transitions.append((now, health.name, DEAD))
        self._engage_backups()
        health._retry_handle = self.engine.schedule(
            self.backoff_base, self._attempt_reconnect, health
        )

    def _attempt_reconnect(self, health: SourceHealth) -> None:
        health._retry_handle = None
        if health.state != DEAD or not self.started:
            return
        health.reconnect_attempts += 1
        if health.source.reconnect():
            now = self.engine.now
            health.state = LIVE
            started = health.detected_down_at
            if started is not None:
                health.outages.append((started, now))
                health.downtime += now - started
            health.detected_down_at = None
            self.transitions.append((now, health.name, LIVE))
            if all(h.state == LIVE for h in self.health.values()):
                self._disengage_backups()
            return
        # Exponential backoff: 1, 2, 4, ... × base, capped.
        wait = min(
            self.backoff_base * (2.0 ** health.reconnect_attempts),
            self.backoff_cap,
        )
        health._retry_handle = self.engine.schedule(
            wait, self._attempt_reconnect, health
        )

    # ------------------------------------------------------------------- views

    def live_sources(self) -> Tuple[str, ...]:
        """Names of sources currently believed live, sorted."""
        return tuple(
            sorted(name for name, h in self.health.items() if h.state == LIVE)
        )

    def dead_sources(self) -> Tuple[str, ...]:
        return tuple(
            sorted(name for name, h in self.health.items() if h.state == DEAD)
        )

    def staleness_table(self) -> Dict[str, float]:
        """Current per-source staleness in seconds (the degradation view)."""
        now = self.engine.now
        return {name: h.staleness(now) for name, h in sorted(self.health.items())}

    def report(self) -> Dict[str, Dict]:
        """Per-source health summary, JSON-ready and deterministic."""
        now = self.engine.now
        return {name: h.to_dict(now) for name, h in sorted(self.health.items())}

    def __repr__(self) -> str:
        return (
            f"<SourceSupervisor sources={len(self.health)} "
            f"live={len(self.live_sources())} backups={len(self.backups)}>"
        )
