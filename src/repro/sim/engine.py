"""The discrete-event engine.

A minimal but complete priority-queue scheduler:

* events fire in (time, sequence) order, so simultaneous events run in the
  order they were scheduled — this plus seeded RNGs makes runs deterministic;
* events can be cancelled through their :class:`EventHandle`;
* periodic events reschedule themselves until cancelled;
* :meth:`Engine.run` drains the queue (optionally up to a horizon), which is
  also how "BGP convergence" is detected: the network has converged when no
  BGP events remain.

The scheduler is the innermost loop of every experiment, so it is built to
be allocation-light: callback arguments are stored on the (slotted) handle
instead of wrapped in a per-event lambda, cancelled events are purged lazily
with a compaction threshold instead of lingering as unbounded tombstones,
and :meth:`Engine.run` drains same-time batches without re-checking the
horizon.  :data:`repro.perf.COUNTERS` tracks the scheduling traffic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.perf import COUNTERS as _C, collector_paused

#: Queue size below which cancellation never triggers a compaction — for
#: tiny queues a rebuild costs more than the tombstones it would reclaim.
_COMPACT_MIN_QUEUE = 64


class EventHandle:
    """Cancellation / inspection handle returned by ``schedule*`` methods."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> bool:
        """Cancel the event; returns False if it already fired/was cancelled."""
        if self.fired or self.cancelled:
            return False
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancel()
        return True

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not yet fired or cancelled."""
        return not (self.fired or self.cancelled)

    def __repr__(self) -> str:
        state = "fired" if self.fired else "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.3f} {state}>"


class PeriodicHandle(EventHandle):
    """Handle for a periodic series: cancellable once, live across firings.

    ``time`` always tracks the next scheduled firing, ``fired`` reports
    whether the series has fired at least once (``firings`` counts them),
    and ``pending`` stays True until the series is cancelled — a periodic
    series never ends on its own, so "has fired" must not end it either.
    """

    __slots__ = ("interval", "firings", "_inner")

    def __init__(
        self,
        time: float,
        interval: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        engine: Optional["Engine"] = None,
    ):
        super().__init__(time, -1, callback, args, engine)
        self.interval = interval
        self.firings = 0
        self._inner: Optional[EventHandle] = None

    def _fire(self) -> None:
        """One firing of the series; reschedules itself until cancelled.

        A bound method rather than a closure so queued firings carry no
        cell references: checkpoint restore (deepcopy / pickle) remaps
        ``self`` to the forked handle and the series keeps running against
        the forked engine.
        """
        if self.cancelled:
            return
        self.fired = True
        self.firings += 1
        callback, args = self.callback, self.args
        if args:
            callback(*args)
        else:
            callback()
        if not self.cancelled:
            inner = self._engine.schedule(self.interval, self._fire)
            self._inner = inner
            self.time = inner.time

    def cancel(self) -> bool:
        """Stop all future firings; also drops the queued next firing."""
        if self.cancelled:
            return False
        self.cancelled = True
        if self._inner is not None:
            self._inner.cancel()
            self._inner = None
        return True

    @property
    def pending(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"<PeriodicHandle next={self.time:.3f} every={self.interval:.3f} "
            f"firings={self.firings} {state}>"
        )


class Engine:
    """Deterministic discrete-event scheduler with a float-seconds clock."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        #: Set by :meth:`freeze` once the engine backs a shared checkpoint:
        #: every fork reads its tables structurally, so the master must
        #: never advance or mutate again.
        self._frozen = False
        #: Cancelled-but-still-queued entries (lazy purge bookkeeping).
        self._tombstones = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event {delay}s in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        if self._frozen:
            raise SimulationError(
                "engine is frozen (it backs a shared checkpoint); "
                "fork the checkpoint and run the fork instead"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        heapq.heappush(self._queue, (time, seq, handle))
        _C.events_scheduled += 1
        return handle

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        first_delay: Optional[float] = None,
    ) -> PeriodicHandle:
        """Run ``callback(*args)`` every ``interval`` seconds until cancelled.

        Cancelling the returned handle stops all future firings (including
        the one already queued).  The handle's ``time`` attribute tracks the
        next scheduled firing and ``firings``/``fired`` report progress.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        delay = interval if first_delay is None else first_delay
        # A stable outer handle that survives reschedules: the caller can
        # cancel once and stop the whole series.  Each queued firing is the
        # handle's own (bound) ``_fire``, so the series is restorable.
        outer = PeriodicHandle(self._now + delay, interval, callback, args, self)
        outer._inner = self.schedule(delay, outer._fire)
        outer.time = outer._inner.time
        return outer

    # ------------------------------------------------------- tombstone purge

    def _note_cancel(self) -> None:
        """A queued handle was cancelled: count it, compact when they pile up."""
        self._tombstones += 1
        _C.events_cancelled += 1
        if (
            self._tombstones * 2 > len(self._queue)
            and len(self._queue) >= _COMPACT_MIN_QUEUE
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (amortised O(n)).

        Filters in place (slice assignment) rather than rebinding
        ``self._queue``: ``run()``/``step()``/``peek_time()`` hold local
        aliases to the list, and a callback can cancel enough events to
        trigger compaction mid-drain — rebinding would strand those loops
        on a stale list while new events land on the replacement.
        """
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._tombstones = 0

    @property
    def tombstones(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._tombstones

    def pending_events(self) -> int:
        """Number of scheduled, not-yet-cancelled events (O(1))."""
        return len(self._queue) - self._tombstones

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._tombstones -= 1
        return queue[0][0] if queue else None

    def freeze(self) -> None:
        """Refuse all further scheduling and stepping.

        Called on the engine of a checkpointed master experiment: forked
        runs share its RIB tables and queued handles structurally, so any
        mutation of the master after the first fork would corrupt every
        fork taken afterwards.  Forked engines are created unfrozen.
        """
        self._frozen = True

    def thaw(self) -> None:
        """Lift a :meth:`freeze` — only ever called on a *forked* engine.

        Deepcopying a frozen master copies ``_frozen = True`` along with the
        queue; the checkpoint fork path thaws its private copy so the run
        can proceed.  The master itself is never thawed.
        """
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def step(self) -> bool:
        """Fire the single next event; returns False when none remain."""
        if self._frozen:
            raise SimulationError(
                "engine is frozen (it backs a shared checkpoint); "
                "fork the checkpoint and run the fork instead"
            )
        queue = self._queue
        while queue:
            time, _seq, handle = heapq.heappop(queue)
            if handle.cancelled:
                self._tombstones -= 1
                continue
            self._now = time
            handle.fired = True
            self.events_processed += 1
            _C.events_processed += 1
            callback, args = handle.callback, handle.args
            if args:
                callback(*args)
            else:
                callback()
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Drain the event queue.

        ``until`` bounds simulated time (events after it stay queued and the
        clock advances to ``until``); ``max_events`` bounds work as a runaway
        backstop — it raises only when a live event is still queued once the
        budget is spent, so a run that fires exactly ``max_events`` events and
        drains the queue completes normally.  Returns the simulated time when
        the run stopped.
        """
        if self._running:
            raise SimulationError("engine.run() re-entered from a callback")
        if self._frozen:
            raise SimulationError(
                "engine is frozen (it backs a shared checkpoint); "
                "fork the checkpoint and run the fork instead"
            )
        self._running = True
        fired = 0
        queue = self._queue
        with collector_paused():
            try:
                while queue:
                    time, _seq, handle = queue[0]
                    if handle.cancelled:
                        heapq.heappop(queue)
                        self._tombstones -= 1
                        continue
                    if until is not None and time > until:
                        self._now = until
                        break
                    if max_events is not None and fired >= max_events:
                        raise SimulationError(
                            f"run() exceeded max_events={max_events}; likely a "
                            "non-converging schedule (check MRAI / periodic tasks)"
                        )
                    # Drain the whole same-time batch without re-checking the
                    # horizon: events never schedule into the past, so nothing
                    # can slip in front of the batch while it runs.
                    self._now = time
                    while queue and queue[0][0] == time:
                        _t, _s, handle = heapq.heappop(queue)
                        if handle.cancelled:
                            self._tombstones -= 1
                            continue
                        handle.fired = True
                        self.events_processed += 1
                        _C.events_processed += 1
                        fired += 1
                        callback, args = handle.callback, handle.args
                        if args:
                            callback(*args)
                        else:
                            callback()
                        if max_events is not None and fired >= max_events:
                            break
            finally:
                self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_for(self, duration: float, max_events: Optional[int] = None) -> float:
        """Advance the clock ``duration`` seconds (convenience for ``run``)."""
        return self.run(until=self._now + duration, max_events=max_events)

    def __repr__(self) -> str:
        return (
            f"<Engine now={self._now:.3f}s queued={self.pending_events()} "
            f"processed={self.events_processed}>"
        )
