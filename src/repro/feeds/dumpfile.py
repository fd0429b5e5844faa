"""The feed-event record codec.

Real pipelines persist BGP observations as MRT archives; the simulator's
:class:`~repro.feeds.events.FeedEvent` stream is archived one event per
line, ``|`` separated (the same spirit as ``bgpdump -m`` output)::

    A|<source>|<collector>|<vantage_asn>|<prefix>|<as path>|<observed>|<delivered>
    W|<source>|<collector>|<vantage_asn>|<prefix>||<observed>|<delivered>

Round-trips exactly.  This module is only the line codec; the archive
around it — header, record count, SHA-256, recorder, replay — is
:mod:`repro.feeds.replay`.
"""

from __future__ import annotations

from sys import intern
from typing import Dict

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
