"""Recorded-trace replay: the detection plane's pure-ingest path.

Production ARTEMIS ships a historical tap (``bgpstreamhisttap``) that
replays recorded update streams straight into detection, and a benchmark
executor for pure-ingest load tests.  This module is the reproduction's
equivalent, in three parts:

* **Trace format** — a versioned, append-only text file of
  :class:`~repro.feeds.events.FeedEvent` records with their *original*
  timestamps and source/collector identity, framed by a JSON header line
  and a JSON footer carrying the record count and a SHA-256 content
  digest.  :class:`TraceWriter` writes incrementally (safe to tap a live
  run); :func:`load_trace` and the raw-line iterators
  (:func:`iter_trace_line_bytes`) share one reader that validates
  version, completeness, count and digest — a truncated or corrupted
  trace is a clean :class:`TraceError`, never a hang or a silently wrong
  replay.
* **Recording** — :class:`TraceRecorder` subscribes to any existing feed
  fan-out (streams, Periscope, batch archives — anything exposing the
  ``subscribe(callback, prefixes=...)`` protocol) and archives exactly
  what the detection plane saw.  Recording with the same prefix filter
  detection uses is what makes replay digest-identical to the live run.
* **Replay** — :class:`ReplayTap` streams a trace into
  :class:`~repro.core.detection.DetectionService` /
  :class:`~repro.core.monitoring.MonitoringService` at Nx speed or
  flat-out, with **no simulator, engine, or AS graph in the loop**.

Event time vs wall clock
------------------------

Replay never restamps events: ``observed_at`` / ``delivered_at`` keep the
values recorded during the live run, so every consumer computing lag or
detection delay from event timestamps is replay-speed-invariant by
construction.  The only wall-clock concern is *pacing* (``speed=N``
sleeps between deliveries) and it is isolated in an injectable timer —
:class:`VirtualTimer` makes paced replays run instantly under test.

Liveness supervision replays too: :class:`ReplayClock` is a monotone
*event-time* clock advanced as records are delivered, and the per-source
:class:`ReplaySourceView` facades track ``last_activity_at`` in event
time.  A :class:`~repro.feeds.health.SourceSupervisor` constructed with
``clock=tap.clock`` therefore measures staleness in recorded seconds:
flat-out replay cannot false-positive a failover, and a paused replay
(clock frozen) cannot starve a healthy source to death.

Faults on the replay path
-------------------------

:class:`ReplayInjector` interprets PR-4 style
:class:`~repro.faults.plan.FaultPlan` schedules over the event stream in
event time (times relative to the recorded ``hijack_time``): ``outage``
and ``collector_crash`` drop matching records and open transport-down
windows on the source views; ``loss`` / ``dup`` / ``reorder`` reuse
:class:`~repro.faults.channel.ChannelFault` per fault entry.  ``delay``
and ``flap`` need a live collector/latency model and are skipped (the
skips are reported, never silent).
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import time
from typing import Dict, IO, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import FeedError
from repro.faults.channel import ChannelFault
from repro.faults.plan import FaultPlan, load_plan
from repro.feeds.dumpfile import decode_records, format_event
from repro.feeds.events import FeedEvent, validated_event
from repro.feeds.interest import InterestIndex, Subscription
from repro.net.prefix import Prefix
from repro.perf import COUNTERS, collector_paused, sample_memory
from repro.sim.rng import SeededRNG, derive_seed

#: Current trace format version (bump on incompatible record/frame changes;
#: readers reject anything newer, tolerate unknown *header keys* silently).
TRACE_VERSION = 1
TRACE_FORMAT = "repro-feed-trace"

_HEADER_TAG = "#%TRACE "
_FOOTER_TAG = "#%END "
_FOOTER_BYTES = _FOOTER_TAG.encode("utf-8")


class TraceError(FeedError):
    """A malformed, truncated, or corrupted trace file."""


# --------------------------------------------------------------------- writing


class TraceWriter:
    """Incremental, append-only trace writer (header, records, digest footer).

    The header is written at construction so a tap on a live run persists
    something parseable from the first record on; :meth:`close` seals the
    file with the record count and running SHA-256 digest.  A file missing
    its footer is detected by :func:`load_trace` as truncated.
    """

    def __init__(
        self,
        target: Union[str, IO[str]],
        meta: Optional[Dict] = None,
        config=None,
    ):
        if isinstance(target, str):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        header: Dict = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "meta": dict(meta or {}),
        }
        if config is not None:
            header["config"] = config.to_dict()
        self._file.write(_HEADER_TAG + json.dumps(header, sort_keys=True) + "\n")
        self._digest = hashlib.sha256()
        self.records = 0
        self.closed = False

    def append(self, event: FeedEvent) -> None:
        """Write one event record (and fold it into the running digest)."""
        if self.closed:
            raise TraceError("append to a closed trace writer")
        line = format_event(event) + "\n"
        self._file.write(line)
        self._digest.update(line.encode("utf-8"))
        self.records += 1

    def close(self, meta: Optional[Dict] = None) -> None:
        """Seal the trace with its footer (idempotent)."""
        if self.closed:
            return
        footer: Dict = {
            "records": self.records,
            "sha256": self._digest.hexdigest(),
        }
        if meta:
            footer["meta"] = dict(meta)
        self._file.write(_FOOTER_TAG + json.dumps(footer, sort_keys=True) + "\n")
        self._file.flush()
        if self._owns_file:
            self._file.close()
        self.closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- reading


class Trace:
    """A fully loaded, digest-verified trace."""

    def __init__(self, header: Dict, events: List[FeedEvent], digest: str,
                 footer_meta: Optional[Dict] = None):
        self.header = header
        self.events = events
        #: SHA-256 hex digest over the record lines (verified at load).
        self.digest = digest
        self._footer_meta = dict(footer_meta or {})

    @property
    def meta(self) -> Dict:
        """Header meta merged with close-time footer meta (footer wins)."""
        merged = dict(self.header.get("meta", {}))
        merged.update(self._footer_meta)
        return merged

    @property
    def config(self):
        """The embedded :class:`~repro.core.config.ArtemisConfig`, or None."""
        data = self.header.get("config")
        if data is None:
            return None
        from repro.core.config import ArtemisConfig

        return ArtemisConfig.from_dict(data)

    @property
    def hijack_time(self) -> Optional[float]:
        """Recorded hijack instant (the fault-plan / delay reference)."""
        value = self.meta.get("hijack_time")
        return None if value is None else float(value)

    def source_names(self) -> Tuple[str, ...]:
        """Distinct source names appearing in the trace, sorted."""
        return tuple(sorted({event.source for event in self.events}))

    def span(self) -> float:
        """Event-time extent of the trace (0 for empty/single-event)."""
        if len(self.events) < 2:
            return 0.0
        return self.events[-1].delivered_at - self.events[0].delivered_at

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (
            f"<Trace {len(self.events)} records span={self.span():.1f}s "
            f"sources={','.join(self.source_names())}>"
        )


class _RecordReader:
    """Streams a trace's record bytes and verifies the frame around them.

    The one reader behind :func:`load_trace` and the raw-line iterators:
    it checks the header at construction and, on reaching the footer, the
    record count and the SHA-256 digest of the record bytes, hashed a
    block at a time.
    """

    #: Bytes read per hashed block (each is extended to a line boundary).
    BLOCK = 1 << 20

    def __init__(self, handle: IO[bytes]):
        self._handle = handle
        first = handle.readline().decode("utf-8", errors="replace")
        if not first.startswith(_HEADER_TAG):
            raise TraceError("not a trace file: missing header line")
        try:
            header = json.loads(first[len(_HEADER_TAG):])
        except json.JSONDecodeError as exc:
            raise TraceError(f"unparseable trace header: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
            raise TraceError(f"unknown trace format in header {first.strip()!r}")
        version = header.get("version")
        if not isinstance(version, int) or not 1 <= version <= TRACE_VERSION:
            raise TraceError(
                f"unsupported trace version {version!r} "
                f"(reader supports <= {TRACE_VERSION})"
            )
        self.header: Dict = header
        self.records = 0
        #: Set once :meth:`blocks` has verified the footer.
        self.footer: Dict = {}
        self.digest = ""

    def blocks(self) -> Iterator[bytes]:
        """Yield the record lines as blocks of whole, newline-ended lines.

        Raises :class:`TraceError` on a missing footer, a record cut off
        mid-line, or — after the last block — a count or digest mismatch.
        """
        digest = hashlib.sha256()
        footer_line = None
        while footer_line is None:
            # A block ends on a line boundary, so the footer line can only
            # sit at its start or right after a newline.
            block = self._handle.read(self.BLOCK) + self._handle.readline()
            if not block:
                raise TraceError(
                    f"truncated trace: no footer after {self.records} records "
                    "(the recording run did not close the writer)"
                )
            at_start = block.startswith(_FOOTER_BYTES)
            cut = 0 if at_start else block.find(b"\n" + _FOOTER_BYTES) + 1
            if at_start or cut:
                footer_line = block[cut:].split(b"\n", 1)[0].decode("utf-8", errors="replace")
                block = block[:cut]
            elif not block.endswith(b"\n"):
                # A record without its newline is a write that died mid-line.
                number = self.records + block.count(b"\n") + 2
                raise TraceError(f"truncated record at line {number}")
            if block:
                digest.update(block)
                yield block
                self.records += block.count(b"\n")
        try:
            footer = json.loads(footer_line[len(_FOOTER_TAG):])
        except json.JSONDecodeError as exc:
            raise TraceError(f"unparseable trace footer: {exc}") from None
        records = footer.get("records") if isinstance(footer, dict) else None
        if records != self.records:
            raise TraceError(
                f"record count mismatch: footer says {records!r}, "
                f"file has {self.records}"
            )
        self.digest = digest.hexdigest()
        if footer.get("sha256") != self.digest:
            raise TraceError("trace digest mismatch: records were corrupted")
        self.footer = footer


def load_trace(source: Union[str, IO[str]]) -> Trace:
    """Load and verify a trace file; raises :class:`TraceError` on damage.

    Verification is strict: the header must parse and carry a known
    version, every line between header and footer must be a record, the
    footer must be present (its absence means the recording run died —
    the trace is truncated), and both the record count and the SHA-256
    digest must match what the footer pinned (cyclic collector paused).
    """
    if isinstance(source, str):
        with open(source, "rb") as handle:
            return _load_trace(handle)
    return _load_trace(io.BytesIO(source.read().encode("utf-8")))


@collector_paused()  # events, floats and interned leaves: nothing cyclic
def _load_trace(handle: IO[bytes]) -> Trace:
    reader = _RecordReader(handle)
    events: List[FeedEvent] = []
    for block in reader.blocks():
        try:
            # One decode and one split per block, not per record.
            lines = block[:-1].decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise TraceError(
                f"records from line {len(events) + 2} on are not UTF-8: {exc}"
            ) from None
        try:
            events.extend(map(validated_event, decode_records(lines)))
        except FeedError as exc:
            raise TraceError(
                f"bad record at line {len(events) + 2}: {exc}"
            ) from None
    return Trace(reader.header, events, reader.digest, reader.footer.get("meta"))


def iter_trace_line_bytes(path: str) -> Iterator[bytes]:
    """Yield a trace file's raw record lines as bytes, frame-verified.

    The streaming complement to :func:`load_trace` for consumers that
    route lines without parsing them (the parallel detection plane): the
    header is checked up front, and the record count and digest when the
    footer is reached — a damaged trace raises :class:`TraceError` from
    the iteration, after its records have been yielded.
    """
    with open(path, "rb") as handle:
        for block in _RecordReader(handle).blocks():
            yield from block[:-1].split(b"\n")


def iter_trace_lines(path: str) -> Iterator[str]:
    """:func:`iter_trace_line_bytes`, decoded."""
    for line in iter_trace_line_bytes(path):
        yield line.decode("utf-8")


# ------------------------------------------------------------------- recording


class TraceRecorder:
    """Tap one or more live feed fan-outs and archive every delivery.

    The recorder is itself a feed callback: ``attach`` subscribes it to a
    source through the standard ``subscribe(callback, prefixes=...)``
    protocol, so — given the same prefix filter the detection service
    uses — the archived sequence is exactly the event sequence detection
    consumed, which is what makes a later replay digest-identical.
    :meth:`attach_collector` additionally taps a raw
    :class:`~repro.feeds.collector.RouteCollector` (whose subscribers get
    plain observation tuples rather than events) by wrapping observations
    into zero-latency :class:`FeedEvent` records.
    """

    def __init__(
        self,
        target: Union[str, IO[str]],
        meta: Optional[Dict] = None,
        config=None,
    ):
        self.writer = TraceWriter(target, meta=meta, config=config)
        self._subscriptions: List[Subscription] = []

    def __call__(self, event: FeedEvent) -> None:
        self.writer.append(event)

    # -------------------------------------------------------------- attachment

    def attach(self, source, prefixes: Optional[Sequence[Prefix]] = None) -> None:
        """Record everything ``source`` delivers (optionally filtered)."""
        self._subscriptions.append(source.subscribe(self, prefixes=prefixes))

    def attach_all(self, sources, prefixes: Optional[Sequence[Prefix]] = None) -> None:
        for source in sources:
            self.attach(source, prefixes=prefixes)

    def attach_collector(self, collector) -> None:
        """Record a raw collector's observations as zero-latency events."""

        def on_observation(coll, vantage_asn, kind, prefix, as_path, when):
            self.writer.append(
                FeedEvent(
                    source=coll.name,
                    collector=coll.name,
                    vantage_asn=vantage_asn,
                    kind=kind,
                    prefix=prefix,
                    as_path=as_path,
                    observed_at=when,
                    delivered_at=when,
                )
            )

        self._subscriptions.append(collector.subscribe(on_observation))

    def detach(self) -> None:
        """Stop recording without sealing the file."""
        for subscription in self._subscriptions:
            subscription.active = False
        self._subscriptions.clear()

    def close(self, meta: Optional[Dict] = None) -> None:
        """Detach from all sources and seal the trace."""
        self.detach()
        self.writer.close(meta=meta)

    @property
    def records(self) -> int:
        return self.writer.records

    def __repr__(self) -> str:
        return f"<TraceRecorder {self.records} records>"


# ---------------------------------------------------------------- replay clock


class ReplayClock:
    """Monotone *event-time* clock: "now" is the trace position.

    Replaces ``engine.now`` for every consumer that needs a notion of
    time under replay (the source supervisor above all).  It advances
    only as records are delivered, so time under replay moves at recorded
    speed regardless of how fast the host drains the trace — the fix for
    wall-clock-based staleness arithmetic.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def advance(self, when: float) -> None:
        if when > self.now:
            self.now = when

    def __repr__(self) -> str:
        return f"<ReplayClock now={self.now:.3f}>"


class VirtualTimer:
    """A wall-clock stand-in whose sleeps complete instantly.

    Injected into :class:`ReplayTap` for tests and benches: a paced
    (``speed=N``) replay performs exactly the same pacing arithmetic but
    finishes immediately, and ``slept`` records what a real run would
    have waited.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.slept = 0.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds
        self.slept += seconds


class _WallTimer:
    """The real thing: ``time.monotonic`` / ``time.sleep``."""

    monotonic = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)


# --------------------------------------------------------------- source views


class ReplaySourceView:
    """Supervisor-facing facade for one recorded source.

    Implements the transport protocol (``name``, ``transport_up``,
    ``last_activity_at``, ``reconnect()``) against the replay clock:
    activity is the event time of the source's last delivered record, and
    transport state follows the outage windows a fault plan opened.
    """

    __slots__ = ("name", "last_activity_at", "_clock", "_windows")

    def __init__(self, name: str, clock: ReplayClock, start: float):
        self.name = name
        self.last_activity_at = float(start)
        self._clock = clock
        #: Transport-down (start, end) windows in event time, sorted.
        self._windows: List[Tuple[float, float]] = []

    def add_outage_window(self, start: float, end: float) -> None:
        self._windows.append((float(start), float(end)))
        self._windows.sort()

    def _down_at(self, now: float) -> bool:
        return any(start <= now < end for start, end in self._windows)

    @property
    def transport_up(self) -> bool:
        return not self._down_at(self._clock.now)

    def reconnect(self) -> bool:
        """Probe succeeds exactly when the recorded outage has passed."""
        return self.transport_up

    def __repr__(self) -> str:
        return f"<ReplaySourceView {self.name} up={self.transport_up}>"


# ------------------------------------------------------------- fault injection


#: Fault kinds the replay path can interpret without a live world.
REPLAY_FAULT_KINDS = ("outage", "loss", "dup", "reorder", "collector_crash")

_PASS: Tuple[float, ...] = (0.0,)


class ReplayInjector:
    """Interprets a :class:`FaultPlan` over a replayed event stream.

    Fault times are relative to ``arm_at`` (the recorded hijack instant),
    exactly as the live injector arms plans at the hijack announcement.
    ``outage`` / ``collector_crash`` drop matching records for the
    window; ``loss`` / ``dup`` / ``reorder`` judge each matching record
    through a per-fault :class:`ChannelFault` seeded from the plan seed —
    independent of the live run's draws, but fully reproducible.
    """

    def __init__(self, plan: FaultPlan, arm_at: float, seed: int = 0):
        self.plan = plan
        self.arm_at = float(arm_at)
        #: (fault, window) pairs that silence matching records entirely.
        self._drops: List[Tuple[str, float, float]] = []
        #: (target, ChannelFault) pairs judged in plan order.
        self._channels: List[Tuple[str, ChannelFault]] = []
        #: Fault kinds in the plan that replay cannot express (reported).
        self.skipped: List[str] = []
        self.events_dropped = 0
        for index, fault in enumerate(plan):
            start = self.arm_at + fault.at
            end = float("inf") if fault.until is None else self.arm_at + fault.until
            if fault.kind in ("outage", "collector_crash"):
                self._drops.append((fault.target, start, end))
            elif fault.kind in ("loss", "dup", "reorder"):
                rng = SeededRNG(
                    derive_seed(seed, "replay", plan.seed, index, fault.kind, fault.target)
                )
                channel = ChannelFault(
                    rng,
                    loss=fault.probability if fault.kind == "loss" else 0.0,
                    dup=fault.probability if fault.kind == "dup" else 0.0,
                    reorder=fault.probability if fault.kind == "reorder" else 0.0,
                    jitter=fault.jitter,
                )
                channel.set_window(start, end)
                self._channels.append((fault.target, channel))
            else:
                self.skipped.append(f"{fault.kind}:{fault.target}")

    @staticmethod
    def _matches(target: str, event: FeedEvent) -> bool:
        """A plan target names a source or a collector (live-plan idiom)."""
        return (
            target == event.source
            or target == event.collector
            or event.collector.startswith(target + "-")
        )

    def outage_windows(self, source_name: str) -> List[Tuple[float, float]]:
        """Transport-down windows the plan opens for one *source* name."""
        return [
            (start, end)
            for target, start, end in self._drops
            if target == source_name
        ]

    def judge(self, event: FeedEvent) -> Tuple[float, ...]:
        """Per-copy extra delays for one record (``()`` drops it)."""
        now = event.delivered_at
        for target, start, end in self._drops:
            if start <= now < end and self._matches(target, event):
                self.events_dropped += 1
                return ()
        copies: Optional[List[float]] = None
        for target, channel in self._channels:
            if not self._matches(target, event):
                continue
            verdict = channel.on_message(now)
            if not verdict:
                self.events_dropped += 1
                return ()
            if verdict == _PASS:
                continue
            if copies is None:
                copies = [0.0]
            copies[0] += verdict[0]
            copies.extend(verdict[1:])
        return _PASS if copies is None else tuple(copies)

    def channel_stats(self) -> Dict[str, int]:
        judged = dropped = duplicated = reordered = 0
        for _target, channel in self._channels:
            judged += channel.messages_judged
            dropped += channel.messages_dropped
            duplicated += channel.messages_duplicated
            reordered += channel.messages_reordered
        return {
            "judged": judged,
            "dropped": dropped,
            "duplicated": duplicated,
            "reordered": reordered,
        }


# ----------------------------------------------------------------- replay tap


class ReplayTap:
    """A feed source that streams a recorded trace — no engine, no graph.

    Exposes the standard ``subscribe(callback, prefixes=...)`` protocol,
    so :class:`~repro.core.detection.DetectionService` and
    :class:`~repro.core.monitoring.MonitoringService` consume it exactly
    like a live stream.  :meth:`run` drains the trace:

    * ``speed=None`` (default) — flat-out, as fast as the host ingests;
    * ``speed=N`` — paced so one recorded second takes ``1/N`` wall
      seconds, through the injectable ``timer``.

    Events are delivered with their recorded timestamps untouched; the
    :class:`ReplayClock` tracks the event time of the replay head, and
    supervision (``run(supervisor=...)``) is driven in event time at the
    supervisor's own check interval — replay speed cannot skew it.

    ``run(max_events=K)`` is resumable: it consumes at most ``K`` further
    records and returns, leaving the clock frozen at the pause point.
    """

    def __init__(
        self,
        trace: Union[Trace, str, Sequence[FeedEvent]],
        name: str = "replay",
        speed: Optional[float] = None,
        timer=None,
        faults: Union[FaultPlan, Dict, str, None] = None,
        arm_at: Optional[float] = None,
        seed: int = 0,
    ):
        if isinstance(trace, str):
            trace = load_trace(trace)
        if isinstance(trace, Trace):
            self.trace: Optional[Trace] = trace
            events = trace.events
        else:
            self.trace = None
            events = sorted(trace, key=lambda e: e.delivered_at)
        self.events: List[FeedEvent] = list(events)
        if speed is not None and speed <= 0:
            raise TraceError(f"replay speed must be positive, got {speed}")
        self.speed = speed
        self._timer = timer if timer is not None else _WallTimer()
        start = self.events[0].delivered_at if self.events else 0.0
        self.clock = ReplayClock(start)
        self.name = name
        self._interest = InterestIndex()
        self._views: Dict[str, ReplaySourceView] = {}
        for source_name in sorted({event.source for event in self.events}):
            self._views[source_name] = ReplaySourceView(source_name, self.clock, start)
        # Fault plan, armed at the recorded hijack instant by default.
        self.injector: Optional[ReplayInjector] = None
        if faults is not None:
            if isinstance(faults, str):
                faults = load_plan(faults)
            elif isinstance(faults, dict):
                faults = FaultPlan.from_dict(faults)
            if arm_at is None:
                recorded = self.trace.hijack_time if self.trace is not None else None
                arm_at = recorded if recorded is not None else start
            self.injector = ReplayInjector(faults, arm_at=arm_at, seed=seed)
            for source_name, view in self._views.items():
                for window_start, window_end in self.injector.outage_windows(source_name):
                    view.add_outage_window(window_start, window_end)
        # Delivery state.
        self._cursor = 0
        self._sequence = 0
        #: Min-heap of (due_time, seq, event) for reordered/duplicated copies.
        self._pending: List[Tuple[float, int, FeedEvent]] = []
        self._supervisor = None
        self._next_check: Optional[float] = None
        # Stats.
        self.records_read = 0
        self.events_delivered = 0
        self.events_filtered = 0
        self.events_dropped = 0
        self.copies_queued = 0
        self.backlog_peak = 0
        #: Worst wall-clock lateness behind the paced schedule (seconds).
        self.behind_peak = 0.0
        self.wall_seconds = 0.0
        self.finished = False
        #: Event time of the tap's last delivery (transport protocol).
        self.last_activity_at = start

    # ----------------------------------------------------- transport protocol

    @property
    def transport_up(self) -> bool:
        return True

    def reconnect(self) -> bool:
        return True

    # ------------------------------------------------------------ subscribers

    def subscribe(
        self, callback, prefixes: Optional[Sequence[Prefix]] = None
    ) -> Subscription:
        return self._interest.add(callback, prefixes=prefixes)

    def source_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._views))

    def source_view(self, name: str) -> ReplaySourceView:
        view = self._views.get(name)
        if view is None:
            raise TraceError(f"no source {name!r} in trace (have {self.source_names()})")
        return view

    def source_views(self) -> List[ReplaySourceView]:
        return [self._views[name] for name in self.source_names()]

    # ----------------------------------------------------------------- replay

    def _advance_to(self, when: float) -> None:
        """Move event time forward, firing due supervision checks en route."""
        while self._next_check is not None and self._next_check <= when:
            self.clock.advance(self._next_check)
            self._supervisor.check_now()
            self._next_check += self._supervisor.check_interval
        self.clock.advance(when)

    def _pace(self, event_time: float, wall_anchor: float, event_anchor: float) -> None:
        if self.speed is None:
            return
        target = wall_anchor + (event_time - event_anchor) / self.speed
        delta = target - self._timer.monotonic()
        if delta > 0:
            self._timer.sleep(delta)
        elif -delta > self.behind_peak:
            self.behind_peak = -delta

    def _deliver(self, event: FeedEvent) -> None:
        self.last_activity_at = event.delivered_at
        view = self._views.get(event.source)
        if view is not None:
            view.last_activity_at = event.delivered_at
        subscriptions = self._interest.lookup(event.prefix)
        if not subscriptions:
            self.events_filtered += 1
            return
        for subscription in subscriptions:
            subscription.callback(event)
        self.events_delivered += 1
        COUNTERS.replay_events_delivered += 1

    def _flush_pending(self, up_to: float) -> None:
        while self._pending and self._pending[0][0] <= up_to:
            due, _seq, event = heapq.heappop(self._pending)
            self._advance_to(due)
            self._deliver(event)

    def run(self, max_events: Optional[int] = None, supervisor=None) -> "ReplayTap":
        """Drain the trace (or the next ``max_events`` records) into subscribers."""
        if supervisor is not None:
            self._supervisor = supervisor
            if self._next_check is None:
                self._next_check = self.clock.now + supervisor.check_interval
        wall_start = self._timer.monotonic()
        # Re-anchor pacing at every call so a paused replay resumes at
        # recorded cadence instead of sprinting to catch up.
        event_anchor = self.clock.now
        budget = max_events
        try:
            while self._cursor < len(self.events):
                if budget is not None and budget <= 0:
                    return self
                event = self.events[self._cursor]
                self._flush_pending(event.delivered_at)
                self._cursor += 1
                self.records_read += 1
                COUNTERS.replay_records_read += 1
                if budget is not None:
                    budget -= 1
                self._pace(event.delivered_at, wall_start, event_anchor)
                self._advance_to(event.delivered_at)
                verdict = (
                    self.injector.judge(event) if self.injector is not None else _PASS
                )
                if not verdict:
                    self.events_dropped += 1
                    COUNTERS.replay_events_dropped += 1
                    continue
                # One delivery per copy: on-time copies go out now, delayed
                # copies (reordering) join the pending heap and surface as
                # the event clock passes their due time.
                for extra in verdict:
                    if extra <= 0.0:
                        self._deliver(event)
                    else:
                        self._sequence += 1
                        self.copies_queued += 1
                        heapq.heappush(
                            self._pending,
                            (event.delivered_at + extra, self._sequence, event),
                        )
                if len(self._pending) > self.backlog_peak:
                    self.backlog_peak = len(self._pending)
                    if self.backlog_peak > COUNTERS.replay_backlog_peak:
                        COUNTERS.replay_backlog_peak = self.backlog_peak
            self._flush_pending(float("inf"))
            self.finished = True
            return self
        finally:
            self.wall_seconds += self._timer.monotonic() - wall_start

    # ------------------------------------------------------------------ stats

    def updates_per_second(self) -> Optional[float]:
        if self.wall_seconds <= 0:
            return None
        return self.records_read / self.wall_seconds

    def stats(self) -> Dict:
        return {
            "records": len(self.events),
            "records_read": self.records_read,
            "events_delivered": self.events_delivered,
            "events_filtered": self.events_filtered,
            "events_dropped": self.events_dropped,
            "copies_queued": self.copies_queued,
            "backlog_peak": self.backlog_peak,
            "behind_peak_wall": self.behind_peak,
            "wall_seconds": self.wall_seconds,
            "updates_per_second": self.updates_per_second(),
            "finished": self.finished,
        }

    def __repr__(self) -> str:
        return (
            f"<ReplayTap {self.records_read}/{len(self.events)} records "
            f"speed={'flat-out' if self.speed is None else self.speed}>"
        )


# ------------------------------------------------------------- alert digests


def alert_sequence_digest(alerts) -> str:
    """Canonical SHA-256 over a detection run's alert sequence.

    Evidence is grouped by *incident pattern* (type, owned prefix,
    announced prefix, offender) rather than by alert object: an operator
    resolving an alert mid-run can split later evidence of the same
    pattern into a fresh alert object, and that bookkeeping choice must
    not change the digest — live-vs-replay comparison cares about what
    was detected and when, not about resolution actions the replay never
    performs.
    """
    order: List[Tuple] = []
    incidents: Dict[Tuple, Dict] = {}
    for alert in alerts:
        signature = (
            alert.type.value,
            str(alert.owned_prefix),
            str(alert.announced_prefix),
            alert.offender_asn,
        )
        bucket = incidents.get(signature)
        if bucket is None:
            bucket = {
                "detected_at": repr(alert.detected_at),
                "first_source": alert.first_source,
                "evidence": [],
            }
            incidents[signature] = bucket
            order.append(signature)
        for event in alert.evidence:
            bucket["evidence"].append(
                (
                    event.source,
                    event.collector,
                    event.vantage_asn,
                    event.kind,
                    str(event.prefix),
                    event.as_path,
                    repr(event.observed_at),
                    repr(event.delivered_at),
                )
            )
    material = [
        (
            signature,
            incidents[signature]["detected_at"],
            incidents[signature]["first_source"],
            sorted(incidents[signature]["evidence"]),
        )
        for signature in order
    ]
    return hashlib.sha256(repr(material).encode("utf-8")).hexdigest()


# ------------------------------------------------------------ replay session


class ReplaySession:
    """A standalone detection plane fed from a recorded trace.

    Builds :class:`DetectionService` + :class:`MonitoringService` from the
    trace's embedded config (or an explicit one), optionally supervises
    the recorded sources against the replay clock, and reports the load
    numbers the bench harness and the ``replay`` CLI print.
    """

    def __init__(
        self,
        trace: Union[Trace, str],
        config=None,
        speed: Optional[float] = None,
        timer=None,
        faults: Union[FaultPlan, Dict, str, None] = None,
        seed: int = 0,
        supervise: bool = False,
        supervision: Optional[Dict] = None,
    ):
        from repro.core.detection import DetectionService
        from repro.core.monitoring import MonitoringService
        from repro.feeds.health import SourceSupervisor

        if isinstance(trace, str):
            trace = load_trace(trace)
        self.trace = trace
        config = config if config is not None else trace.config
        if config is None:
            raise TraceError(
                "trace has no embedded config; pass config= explicitly"
            )
        self.config = config
        self.tap = ReplayTap(trace, speed=speed, timer=timer, faults=faults, seed=seed)
        self.detection = DetectionService(config)
        self.monitoring = MonitoringService(config)
        self.detection.start([self.tap])
        self.monitoring.start([self.tap])
        self.supervisor = None
        if supervise:
            self.supervisor = SourceSupervisor(
                None,
                self.tap.source_views(),
                clock=self.tap.clock,
                **(supervision or {}),
            )
            self.detection.attach_supervisor(self.supervisor)
        self._timer = self.tap._timer
        self._run_wall_start: Optional[float] = None
        #: Wall seconds from run start to the first alert callback.
        self.first_alert_wall: Optional[float] = None
        self.detection.on_alert(self._note_first_alert)

    def _note_first_alert(self, _alert) -> None:
        if self.first_alert_wall is None and self._run_wall_start is not None:
            self.first_alert_wall = self._timer.monotonic() - self._run_wall_start

    def run(self, max_events: Optional[int] = None) -> Dict:
        """Drain the trace (or a slice) and return :meth:`report`."""
        if self._run_wall_start is None:
            self._run_wall_start = self._timer.monotonic()
        self.tap.run(max_events=max_events, supervisor=self.supervisor)
        return self.report()

    @property
    def alerts(self):
        return self.detection.alert_manager.alerts

    def report(self) -> Dict:
        sample_memory()
        report = dict(self.tap.stats())
        report["alerts"] = len(self.alerts)
        report["alert_digest"] = alert_sequence_digest(self.alerts)
        report["duplicate_events_skipped"] = self.detection.duplicate_events_skipped
        report["mean_lag_by_source"] = self.monitoring.mean_lag_by_source()
        report["time_to_first_alert_wall"] = self.first_alert_wall
        report["peak_rss_kb"] = COUNTERS.peak_rss_kb
        hijack_time = self.trace.hijack_time
        if self.alerts and hijack_time is not None:
            first = self.alerts[0]
            report["detection_delay"] = first.detected_at - hijack_time
            report["per_source_delay_final"] = self.detection.per_source_delay(
                first, hijack_time
            )
        else:
            report["detection_delay"] = None
            report["per_source_delay_final"] = {}
        if self.supervisor is not None:
            report["source_report"] = self.supervisor.report()
            report["supervisor_transitions"] = [
                list(entry) for entry in self.supervisor.transitions
            ]
        if self.tap.injector is not None:
            report["fault_channel"] = self.tap.injector.channel_stats()
            report["faults_skipped"] = list(self.tap.injector.skipped)
        return report

    def __repr__(self) -> str:
        return f"<ReplaySession {self.tap!r} alerts={len(self.alerts)}>"
