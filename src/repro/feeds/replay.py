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
  run); :func:`load_trace`, the line and event iterators and the replay
  tap share one reader that validates version, completeness, count and
  digest — a truncated or corrupted trace is a clean :class:`TraceError`,
  never a hang or a silently wrong replay.  A loaded :class:`Trace` holds
  its records as five flat columns; ``trace.events`` builds each event as
  it is read (:class:`TraceEvents`).
* **Recording** — :class:`TraceRecorder` subscribes to any existing feed
  fan-out (streams, Periscope, batch archives — anything exposing the
  ``subscribe(callback, prefixes=...)`` protocol) and archives exactly
  what the detection plane saw.  Recording with the same prefix filter
  detection uses is what makes replay digest-identical to the live run.
* **Replay** — :class:`ReplayTap` streams a trace file at Nx speed or
  flat-out through one :class:`RecordedSource` per recorded source name,
  on an engine whose clock is event time — **no network or AS graph in
  the loop**, and never the whole trace in memory: one verifying pass at
  construction, then delivery a block at a time.  :class:`ReplaySession`
  subscribes detection and monitoring to those sources and supervises
  them, as ARTEMIS does live feeds.

Event time vs wall clock
------------------------

Replay never restamps events, so every consumer computing lag or
detection delay from event timestamps is replay-speed-invariant by
construction.  The tap's engine is the one clock: a
:class:`~repro.feeds.health.SourceSupervisor` on ``tap.engine`` measures
staleness in recorded seconds, so flat-out replay cannot false-positive
a failover, and a paused replay, whose engine does not move, cannot age
a healthy source into DEAD.  Wall-clock time enters only through
*pacing* (``speed=N`` sleeps between deliveries), isolated in an
injectable timer — :class:`VirtualTimer` makes paced replays run
instantly under test.

Faults on the replay path
-------------------------

:class:`ReplayInjector` interprets PR-4 style
:class:`~repro.faults.plan.FaultPlan` schedules over the event stream in
event time (times relative to the recorded ``hijack_time``): ``outage``
and ``collector_crash`` drop matching records, and an ``outage`` on a
source name is also that source's ``disconnect(down_until=end)`` /
``restore_transport()`` pair on the engine, as the live injector applies
it to a stream; ``loss`` / ``dup`` / ``reorder`` reuse
:class:`~repro.faults.channel.ChannelFault` per fault entry.  ``delay``
and ``flap`` need a live collector/latency model and are skipped (the
skips are reported, never silent).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from array import array
from collections.abc import Sequence as SequenceABC
from itertools import islice
from operator import itemgetter
from typing import Dict, IO, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import FeedError
from repro.faults.channel import ChannelFault
from repro.faults.plan import FaultPlan, load_plan
from repro.feeds.dumpfile import Record, decode_records, format_event
from repro.feeds.events import FeedEvent, validated_event
from repro.feeds.health import SourceSupervisor, Transport
from repro.feeds.interest import Subscription
from repro.net.prefix import Prefix
from repro.perf import COUNTERS, collector_paused, sample_memory
from repro.sim.engine import Engine
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

    def __init__(self, target: Union[str, IO[str]], meta: Optional[Dict] = None, config=None):
        if isinstance(target, str):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        header: Dict = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "meta": dict(meta or {})}
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
        footer: Dict = {"records": self.records, "sha256": self._digest.hexdigest()}
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


#: A loaded trace's ``(leads, prefixes, paths, observed, delivered)``: one
#: :data:`~repro.feeds.dumpfile.Record` field per column, one record per position.
Columns = Tuple[List, List, List, array, array]


class TraceEvents(SequenceABC):
    """A loaded trace's records as :class:`FeedEvent` objects, built on access.

    A read-only sequence over the trace's five record columns: ``len``,
    iteration, positive and negative indices, and slices (which return a
    list).  Every access builds a *fresh* event from the columns, with the
    field types :func:`~repro.feeds.events.validated_event` gives — so
    identity is not preserved: ``events[0] is events[0]`` is false, and an
    event kept by a consumer is that consumer's own object.  Only
    :func:`load_trace` builds one.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Columns):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(validated_event, zip(*(c[index] for c in self._columns))))
        leads, prefixes, paths, observed, delivered = self._columns
        return validated_event(
            (leads[index], prefixes[index], paths[index], observed[index], delivered[index])
        )

    def __iter__(self) -> Iterator[FeedEvent]:
        return map(validated_event, zip(*self._columns))

    def __repr__(self) -> str:
        return f"<TraceEvents {len(self)} records>"


class _TraceFrame:
    """What a verified trace's header and footer say, read alike from a
    loaded :class:`Trace` and from a :class:`ReplayTap`: each sets
    ``header``, ``footer`` and ``digest`` (SHA-256 hex over the record
    lines) from the reader that verified them."""

    @property
    def meta(self) -> Dict:
        """Header meta merged with close-time footer meta (footer wins)."""
        merged = dict(self.header.get("meta", {}))
        merged.update(self.footer.get("meta", {}))
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


class Trace(_TraceFrame):
    """A fully loaded, digest-verified trace, held as record columns."""

    def __init__(self, header: Dict, columns: Columns, digest: str, footer: Dict):
        self.header = header
        self.footer = footer
        self.digest = digest
        self._leads = columns[0]
        self._delivered = columns[4]
        #: The records as events, each built on access (:class:`TraceEvents`).
        self.events = TraceEvents(columns)

    def source_names(self) -> Tuple[str, ...]:
        """Distinct source names appearing in the trace, sorted."""
        return tuple(sorted({lead[0] for lead in set(self._leads)}))

    def span(self) -> float:
        """Event-time extent of the trace: latest minus earliest delivery
        time, whatever their order (0 for an empty or one-record trace)."""
        delivered = self._delivered
        if not delivered:
            return 0.0
        return max(delivered) - min(delivered)

    def __len__(self) -> int:
        return len(self._leads)

    def __repr__(self) -> str:
        return (
            f"<Trace {len(self)} records span={self.span():.1f}s "
            f"sources={','.join(self.source_names())}>"
        )


class _RecordReader:
    """Streams a trace's record bytes and verifies the frame around them.

    The one reader behind :func:`load_trace`, the iterators and the replay
    tap: it checks the header at construction and, on reaching the footer,
    the record count and the SHA-256 digest of the record bytes, hashed a
    block at a time.  :meth:`record_blocks` is the one decode of a block.
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

    def text_blocks(self) -> Iterator[List[str]]:
        """:meth:`blocks` as lists of text lines: one decode and one split
        per block, not per record; bytes that are not UTF-8 are a
        :class:`TraceError` naming the block's first line."""
        for block in self.blocks():
            try:
                lines = block[:-1].decode("utf-8").split("\n")
            except UnicodeDecodeError as exc:
                # The count covers the lines of the blocks before this one.
                raise TraceError(
                    f"records from line {self.records + 2} on are not UTF-8: {exc}"
                ) from None
            yield lines

    def record_blocks(self) -> Iterator[List[Record]]:
        """:meth:`text_blocks` decoded into validated records; a malformed
        one is a :class:`TraceError` naming its line.  One list is refilled
        per block, so a block's records are freed before the next decodes."""
        records: List[Record] = []
        for lines in self.text_blocks():
            records.clear()
            try:
                records.extend(decode_records(lines))
            except FeedError as exc:
                raise TraceError(
                    f"bad record at line {self.records + len(records) + 2}: {exc}"
                ) from None
            yield records


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


@collector_paused()  # flat columns and interned leaves: nothing cyclic
def _load_trace(handle: IO[bytes]) -> Trace:
    reader = _RecordReader(handle)
    # The lead, prefix and path columns hold references to objects shared
    # per spelling; the timestamps are doubles.
    columns: Columns = ([], [], [], array("d"), array("d"))
    for records in reader.record_blocks():
        for column, values in zip(columns, zip(*records)):
            column.extend(values)
    return Trace(reader.header, columns, reader.digest, reader.footer)


def iter_trace_line_bytes(path: str) -> Iterator[bytes]:
    """Yield a trace file's raw record lines as bytes, frame-verified, for
    consumers that route lines without parsing them (the parallel detection
    plane).  Like every iterator here it checks the header up front and
    count and digest at the footer, so a damaged trace raises
    :class:`TraceError` from the iteration, after its records were yielded."""
    with open(path, "rb") as handle:
        for block in _RecordReader(handle).blocks():
            yield from block[:-1].split(b"\n")


def iter_trace_lines(path: str) -> Iterator[str]:
    """:func:`iter_trace_line_bytes`, decoded a block at a time (as
    :func:`load_trace` decodes, with its :class:`TraceError`)."""
    with open(path, "rb") as handle:
        for lines in _RecordReader(handle).text_blocks():
            yield from lines


def iter_trace_events(path: str, digest: Optional[str] = None) -> Iterator[FeedEvent]:
    """A trace file's records as events, one block in memory at a time (as
    :func:`load_trace` decodes, with its :class:`TraceError`); given a
    ``digest``, the records must still hash to it once they are read."""
    with open(path, "rb") as handle:
        reader = _RecordReader(handle)
        for records in reader.record_blocks():
            yield from map(validated_event, records)
    if digest is not None and reader.digest != digest:
        raise TraceError(
            f"{path} changed after it was verified: its records now hash "
            f"to {reader.digest[:16]}, not {digest[:16]}"
        )


# ------------------------------------------------------------------- recording


class TraceRecorder:
    """Tap one or more live feed fan-outs and archive every delivery.

    The recorder is itself a feed callback: ``attach`` subscribes it to a
    source through the standard ``subscribe(callback, prefixes=...)``
    protocol, so — given the same prefix filter the detection service
    uses — the archived sequence is exactly the event sequence detection
    consumed, which is what makes a later replay digest-identical.
    """

    def __init__(self, target: Union[str, IO[str]], meta: Optional[Dict] = None, config=None):
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


# ---------------------------------------------------------------- wall timers


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


# ------------------------------------------------------------ recorded sources


class RecordedSource(Transport):
    """One source name of a recorded trace, replayed on the tap's engine.

    Subscribers get the source's records.  ``last_activity_at`` is the
    event time of its last delivered record, and a fault-plan outage is
    a :meth:`disconnect` / :meth:`restore_transport` pair on the engine.
    """

    def __init__(self, name: str, engine: Engine):
        super().__init__(engine)
        self.name = name

    def deliver(self, event: FeedEvent) -> bool:
        """Hand one record to its subscribers; False when none asked for it."""
        self.last_activity_at = event.delivered_at
        subscriptions = self._interest.lookup(event.prefix)
        for subscription in subscriptions:
            subscription.callback(event)
        return bool(subscriptions)

    def __repr__(self) -> str:
        return f"<RecordedSource {self.name} up={self.transport_up}>"


# ------------------------------------------------------------- fault injection


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
        #: (target, start, end) windows that silence matching records; one
        #: on a source name is also that source's transport outage.
        self.drops: List[Tuple[str, float, float]] = []
        #: (target, ChannelFault) pairs judged in plan order.
        self._channels: List[Tuple[str, ChannelFault]] = []
        #: Fault kinds in the plan that replay cannot express (reported).
        self.skipped: List[str] = []
        for index, fault in enumerate(plan):
            start = self.arm_at + fault.at
            end = float("inf") if fault.until is None else self.arm_at + fault.until
            if fault.kind in ("outage", "collector_crash"):
                self.drops.append((fault.target, start, end))
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

    def judge(self, event: FeedEvent) -> Tuple[float, ...]:
        """Per-copy extra delays for one record (``()`` drops it)."""
        now = event.delivered_at
        for target, start, end in self.drops:
            if start <= now < end and self._matches(target, event):
                return ()
        copies: Optional[List[float]] = None
        for target, channel in self._channels:
            if not self._matches(target, event):
                continue
            verdict = channel.on_message(now)
            if not verdict:
                return ()
            if verdict == _PASS:
                continue
            if copies is None:
                copies = [0.0]
            copies[0] += verdict[0]
            copies.extend(verdict[1:])
        return _PASS if copies is None else tuple(copies)

    def channel_stats(self) -> Dict[str, int]:
        channels = [channel for _target, channel in self._channels]
        return {
            "judged": sum(channel.messages_judged for channel in channels),
            "dropped": sum(channel.messages_dropped for channel in channels),
            "duplicated": sum(channel.messages_duplicated for channel in channels),
            "reordered": sum(channel.messages_reordered for channel in channels),
        }


# ----------------------------------------------------------------- replay tap


class ReplayTap(_TraceFrame):
    """Streams a recorded trace file through its sources on an engine — no
    graph, and never the whole trace in memory.

    Construction is one verifying pass (header, every record, count and
    digest: a damaged trace raises :class:`TraceError` before anything is
    delivered) that keeps only the source names, the first delivery time,
    and the header and footer — the footer's ``hijack_time`` arms a fault
    plan.  :meth:`run` reads the file again a block at a time and raises
    :class:`TraceError` after the last record if that pass hashes
    differently (the file changed); what it delivered stays delivered.

    Each recorded source name is a :class:`RecordedSource` in
    :attr:`sources`.  Records go out in trace order, timestamps untouched,
    flat-out (``speed=None``) or paced so one recorded second takes ``1/N``
    wall seconds (``speed=N``, through the injectable ``timer``);
    everything else — a reordered or duplicated copy, an outage's
    disconnect and restore, a supervisor's checks — is an event on
    :attr:`engine`, whose clock is event time.  Before each record the
    engine fires whatever is due by the record's time, and it runs to the
    end once the trace is drained, so an unfaulted, unsupervised replay
    does no engine work per record.  ``run(max_events=K)`` is resumable: it
    reads at most ``K`` further records and leaves the engine at the last
    one read until :meth:`run` is called again.
    """

    def __init__(
        self,
        path: str,
        speed: Optional[float] = None,
        timer=None,
        faults: Union[FaultPlan, Dict, str, None] = None,
        arm_at: Optional[float] = None,
        seed: int = 0,
    ):
        if speed is not None and not 0 < speed < math.inf:
            raise TraceError(
                f"replay speed must be a positive finite number, got {speed}"
            )
        # The verifying pass: records are decoded and dropped block by block.
        leads: set = set()
        start: Optional[float] = None
        with open(path, "rb") as handle:
            reader = _RecordReader(handle)
            for records in reader.record_blocks():
                if start is None and records:
                    start = records[0][4]
                leads.update(map(itemgetter(0), records))
        start = 0.0 if start is None else start
        self.path = path
        self.header, self.footer, self.digest = reader.header, reader.footer, reader.digest
        #: The trace's record count, verified against its footer.
        self.records = reader.records
        self.speed = speed
        # Wall time: the ``time`` module has the timer's monotonic() and sleep().
        self._timer = timer if timer is not None else time
        self.engine = Engine()
        self.engine.run(until=start)
        self.sources: Dict[str, RecordedSource] = {
            source_name: RecordedSource(source_name, self.engine)
            for source_name in sorted({lead[0] for lead in leads})
        }
        # Fault plan, armed at the recorded hijack instant by default.
        self.injector: Optional[ReplayInjector] = None
        if faults is not None:
            if isinstance(faults, str):
                faults = load_plan(faults)
            elif isinstance(faults, dict):
                faults = FaultPlan.from_dict(faults)
            if arm_at is None:
                recorded = self.hijack_time
                arm_at = recorded if recorded is not None else start
            self.injector = ReplayInjector(faults, arm_at=arm_at, seed=seed)
            for target, down, up in self.injector.drops:
                if target in self.sources:
                    self._schedule(down, self.sources[target].disconnect, up)
                    self._schedule(up, self.sources[target].restore_transport)
        #: The delivering pass, opened on the first :meth:`run`.
        self._events = iter_trace_events(path, self.digest)
        #: Copies scheduled on the engine and not yet delivered.
        self._in_flight = 0
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

    # ----------------------------------------------------------------- replay

    def _schedule(self, when: float, callback, *args) -> float:
        """Schedule at event time ``when``, or now if the engine is past it
        (a trace whose delivery times step backwards); returns the time."""
        when = max(when, self.engine.now)
        self.engine.schedule_at(when, callback, *args)
        return when

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
        if self.sources[event.source].deliver(event):
            self.events_delivered += 1
        else:
            self.events_filtered += 1

    def _deliver_copy(self, event: FeedEvent) -> None:
        self._in_flight -= 1
        self._deliver(event)

    def run(self, max_events: Optional[int] = None) -> "ReplayTap":
        """Drain the trace (or the next ``max_events`` records) into the sources."""
        engine = self.engine
        wall_start = self._timer.monotonic()
        # Re-anchor pacing at every call so a paused replay resumes at
        # recorded cadence instead of sprinting to catch up.
        event_anchor = when = engine.now
        due = engine.peek_time()
        try:
            for event in islice(self._events, max_events):
                when = event.delivered_at
                while due is not None and due <= when:
                    engine.step()
                    due = engine.peek_time()
                self.records_read += 1
                self._pace(when, wall_start, event_anchor)
                verdict = _PASS if self.injector is None else self.injector.judge(event)
                if not verdict:
                    self.events_dropped += 1
                    COUNTERS.replay_events_dropped += 1
                    continue
                # One delivery per copy: on-time copies go out now, delayed
                # copies (reordering) are engine events at their due time.
                for extra in verdict:
                    if extra <= 0.0:
                        self._deliver(event)
                    else:
                        at = self._schedule(when + extra, self._deliver_copy, event)
                        if due is None or at < due:
                            due = at
                        self.copies_queued += 1
                        self._in_flight += 1
                if self._in_flight > self.backlog_peak:
                    self.backlog_peak = self._in_flight
            # Paused, the engine waits at the last record read; drained, it
            # runs on until the last delayed copy is out.
            engine.run(until=max(when, engine.now))
            if self.records_read < self.records:
                return self
            # One more step past the last record runs the pass's footer and
            # digest checks; a record there means the file grew.
            for _extra in self._events:
                raise TraceError(f"{self.path} changed after it was verified")
            while self._in_flight:
                engine.step()
            self.finished = True
            return self
        finally:
            self.wall_seconds += self._timer.monotonic() - wall_start

    # ------------------------------------------------------------------ stats

    def stats(self) -> Dict:
        """Counters of the replay so far; ``updates_per_second`` is records
        read over :meth:`run`'s wall seconds, reading and decoding included."""
        wall = self.wall_seconds
        return {
            "records": self.records,
            "records_read": self.records_read,
            "events_delivered": self.events_delivered,
            "events_filtered": self.events_filtered,
            "events_dropped": self.events_dropped,
            "copies_queued": self.copies_queued,
            "backlog_peak": self.backlog_peak,
            "behind_peak_wall": self.behind_peak,
            "wall_seconds": wall,
            "updates_per_second": self.records_read / wall if wall > 0 else None,
            "finished": self.finished,
        }

    def __repr__(self) -> str:
        return (
            f"<ReplayTap {self.records_read}/{self.records} records "
            f"speed={'flat-out' if self.speed is None else self.speed}>"
        )


# ------------------------------------------------------------ replay session


class ReplaySession:
    """A standalone detection plane fed from a recorded trace file.

    Builds the one-tenant detection plane and a :class:`MonitoringService`
    from the trace's embedded config (or an explicit one) and subscribes
    them to the recorded sources of a :class:`ReplayTap` over ``path``; with
    ``supervise=True`` it also starts a
    :class:`~repro.feeds.health.SourceSupervisor` over those sources on the
    tap's engine, as :class:`~repro.core.artemis.Artemis` does with live
    feeds.  Reports the load numbers the bench harness and the ``replay``
    CLI print.
    """

    def __init__(
        self,
        path: str,
        config=None,
        speed: Optional[float] = None,
        timer=None,
        faults: Union[FaultPlan, Dict, str, None] = None,
        seed: int = 0,
        supervise: bool = False,
        supervision: Optional[Dict] = None,
    ):
        from repro.core.artemis import feed_consumers
        from repro.core.monitoring import MonitoringService
        from repro.tenants.pipeline import OPERATOR, one_tenant_plane

        self.tap = ReplayTap(path, speed=speed, timer=timer, faults=faults, seed=seed)
        config = config if config is not None else self.tap.config
        if config is None:
            raise TraceError(
                "trace has no embedded config; pass config= explicitly"
            )
        self.config = config
        sources = list(self.tap.sources.values())
        self.detection = one_tenant_plane(config, notify=self._alerted)
        self.incidents = self.detection.tenant_state(OPERATOR)
        self.monitoring = MonitoringService(config)
        consumers = feed_consumers(config, self.detection, self.monitoring)
        for source in sources:
            for callback, prefixes in consumers:
                source.subscribe(callback, prefixes=prefixes)
        self.supervisor = None
        if supervise:
            self.supervisor = SourceSupervisor(
                self.tap.engine, sources, **(supervision or {})
            )
            self.supervisor.start()
        self._timer = self.tap._timer
        self._run_wall_start: Optional[float] = None
        #: Wall seconds from run start to the first alert callback.
        self.first_alert_wall: Optional[float] = None

    def _alerted(self, _tenant: str, alert) -> None:
        """The plane's ``notify``: the live sources and the first alert's
        wall time go on record."""
        if self.supervisor is not None:
            self.incidents.live_at_alert[alert.id] = self.supervisor.live_sources()
        if self.first_alert_wall is None and self._run_wall_start is not None:
            self.first_alert_wall = self._timer.monotonic() - self._run_wall_start

    def run(self, max_events: Optional[int] = None) -> Dict:
        """Drain the trace (or a slice) and return :meth:`report`."""
        if self._run_wall_start is None:
            self._run_wall_start = self._timer.monotonic()
        self.tap.run(max_events=max_events)
        return self.report()

    @property
    def alerts(self):
        return self.incidents.alerts.alerts

    def report(self) -> Dict:
        sample_memory()
        report = dict(self.tap.stats())
        report["alerts"] = len(self.alerts)
        report["merged_alert_digest"] = self.detection.digest()
        report["duplicate_events_skipped"] = self.detection.duplicate_events_skipped
        report["mean_lag_by_source"] = self.monitoring.mean_lag_by_source()
        report["time_to_first_alert_wall"] = self.first_alert_wall
        report["peak_rss_kb"] = COUNTERS.peak_rss_kb
        hijack_time = self.tap.hijack_time
        if self.alerts and hijack_time is not None:
            first = self.alerts[0]
            report["detection_delay"] = first.detected_at - hijack_time
            report["per_source_delay_final"] = self.incidents.per_source_delay(
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
