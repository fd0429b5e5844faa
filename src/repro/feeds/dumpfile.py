"""Feed-event dump files.

Real pipelines persist BGP observations as MRT archives; this module
provides the equivalent for the simulator's :class:`~repro.feeds.events.FeedEvent`
stream in a simple line-oriented text format (one event per line, ``|``
separated — the same spirit as ``bgpdump -m`` output)::

    A|<source>|<collector>|<vantage_asn>|<prefix>|<as path>|<observed>|<delivered>
    W|<source>|<collector>|<vantage_asn>|<prefix>||<observed>|<delivered>

Round-trips exactly; readers tolerate comments and blank lines.  This lets
experiments archive what their monitors saw and re-run detection offline —
the workflow third-party services use on RouteViews data.
"""

from __future__ import annotations

from sys import intern
from typing import IO, Dict, Iterable, Iterator, List, Union

from repro.errors import BGPError, FeedError
from repro.feeds.events import FeedEvent
from repro.net.asn import format_as_path, intern_as_path
from repro.net.prefix import Prefix


def format_event(event: FeedEvent) -> str:
    """One dump line for ``event``."""
    return "|".join(
        [
            event.kind,
            event.source,
            event.collector,
            str(event.vantage_asn),
            str(event.prefix),
            format_as_path(event.as_path),
            repr(event.observed_at),
            repr(event.delivered_at),
        ]
    )


def parse_event(line: str) -> FeedEvent:
    """Parse one dump line back into a :class:`FeedEvent`.

    Every malformed field — count, kind, vantage, prefix, path hop,
    timestamp — raises :class:`~repro.errors.FeedError`.  Every field but
    the timestamps is shared per spelling by the events that repeat it.
    """
    fields = line.split("|")
    if len(fields) != 8:
        raise FeedError(f"dump line has {len(fields)} fields, expected 8: {line!r}")
    kind, source, collector, vantage, prefix, path, observed, delivered = fields
    vantage_asn = _VANTAGE_CACHE.get(vantage)
    if vantage_asn is None and not (vantage.isdigit() and vantage.isascii()):
        # int() alone takes "+5", "１２"
        raise FeedError(f"invalid vantage ASN {vantage!r} in dump line {line!r}")
    try:
        event = FeedEvent(
            intern(source),
            intern(collector),
            int(vantage) if vantage_asn is None else vantage_asn,
            kind,
            Prefix.parse(prefix),
            intern_as_path(path),
            float(observed),
            float(delivered),
        )
    except (ValueError, BGPError) as error:
        raise FeedError(f"malformed dump line {line!r}: {error}") from None
    if vantage_asn is None:  # passed every check, range included: now remember it
        if len(_VANTAGE_CACHE) >= _VANTAGE_CACHE_LIMIT:
            _VANTAGE_CACHE.clear()
        _VANTAGE_CACHE[vantage] = event.vantage_asn
    return event


#: Vantage spelling -> ASN; bounded, cleared wholesale when full (as ``Prefix.parse``'s).
_VANTAGE_CACHE: Dict[str, int] = {}
_VANTAGE_CACHE_LIMIT = 65536


def write_events(
    target: Union[str, IO[str]], events: Iterable[FeedEvent]
) -> int:
    """Write events to a path or open text file; returns the count."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            return write_events(handle, events)
    count = 0
    target.write("# repro feed dump v1\n")
    for event in events:
        target.write(format_event(event) + "\n")
        count += 1
    return count


def read_events(source: Union[str, IO[str]]) -> Iterator[FeedEvent]:
    """Yield events from a path or open text file."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from read_events(handle)
            return
    for line in source:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_event(stripped)


class FeedRecorder:
    """Subscribe to any source and archive everything it delivers.

    ``recorder = FeedRecorder(); stream.subscribe(recorder)`` then
    ``recorder.save(path)`` at the end of the run.  The recorded list can
    also be replayed through a detection service directly (offline
    re-analysis), via :meth:`replay_into`.
    """

    def __init__(self) -> None:
        self.events: List[FeedEvent] = []

    def __call__(self, event: FeedEvent) -> None:
        self.events.append(event)

    def save(self, path: str) -> int:
        return write_events(path, self.events)

    @classmethod
    def load(cls, path: str) -> "FeedRecorder":
        recorder = cls()
        recorder.events = list(read_events(path))
        return recorder

    def replay_into(self, handler) -> int:
        """Feed every recorded event to ``handler(event)`` in delivery order."""
        for event in sorted(self.events, key=lambda e: e.delivered_at):
            handler(event)
        return len(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"<FeedRecorder {len(self.events)} events>"
