"""The feed-event record codec.

Real pipelines persist BGP observations as MRT archives; the simulator's
:class:`~repro.feeds.events.FeedEvent` stream is archived one event per
line, ``|`` separated (the same spirit as ``bgpdump -m`` output)::

    A|<source>|<collector>|<vantage_asn>|<prefix>|<as path>|<observed>|<delivered>
    W|<source>|<collector>|<vantage_asn>|<prefix>||<observed>|<delivered>

Round-trips exactly.  This module is only the line codec — one validating
block decoder, :func:`decode_records`, behind every reader of such lines;
the archive around it — header, record count, SHA-256, recorder, replay —
is :mod:`repro.feeds.replay`.
"""

from __future__ import annotations

from math import inf
from sys import intern
from typing import Dict, Iterable, Iterator, Tuple

from repro.errors import BGPError, FeedError
from repro.feeds.events import ANNOUNCE, WITHDRAW, FeedEvent, validated_event
from repro.net.asn import MAX_ASN, format_as_path, intern_as_path
from repro.net.prefix import Prefix

#: One decoded record: :class:`FeedEvent`'s eight fields, in its field order.
Record = Tuple[str, str, int, str, Prefix, Tuple[int, ...], float, float]


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


def decode_records(lines: Iterable[str]) -> Iterator[Record]:
    """Validate a block of dump lines; yield each record's eight values.

    The one spelling of "a well-formed record".  Every malformed field —
    count, kind, vantage, prefix, path hop, timestamp — raises
    :class:`~repro.errors.FeedError` from the iteration, at the bad line.
    The values come in :class:`FeedEvent`'s field order, exactly typed and
    already checked against everything its constructor checks, so
    :func:`~repro.feeds.events.validated_event` builds the event without
    looking at them again — or the consumer never builds one.  Every value
    but the timestamps is shared per spelling by the records that repeat it.
    """
    vantage_get = _VANTAGE_CACHE.get
    parse_prefix = Prefix.parse
    for line in lines:
        fields = line.split("|")
        if len(fields) != 8:
            raise FeedError(f"dump line has {len(fields)} fields, expected 8: {line!r}")
        kind, source, collector, vantage, prefix, path, observed, delivered = fields
        vantage_asn = vantage_get(vantage)
        fresh = vantage_asn is None
        if fresh and not (vantage.isdigit() and vantage.isascii()):
            # int() alone takes "+5", "１２"
            raise FeedError(f"invalid vantage ASN {vantage!r} in dump line {line!r}")
        try:
            if fresh:
                vantage_asn = int(vantage)
            prefix = parse_prefix(prefix)
            as_path = intern_as_path(path)
            observed_at = float(observed)
            delivered_at = float(delivered)
        except (ValueError, BGPError) as error:
            raise FeedError(f"malformed dump line {line!r}: {error}") from None
        record = (
            intern(source),
            intern(collector),
            vantage_asn,
            kind,
            prefix,
            as_path,
            observed_at,
            delivered_at,
        )
        # FeedEvent's own checks, as one conjunction: an announcement has a
        # path, anything else is a withdrawal; the timestamps are finite and
        # ordered; a vantage not seen before is in range (digits: never < 0).
        if not (
            (as_path if kind == ANNOUNCE else kind == WITHDRAW)
            and -inf < observed_at <= delivered_at < inf
            and (not fresh or vantage_asn <= MAX_ASN)
        ):
            FeedEvent(*record)  # raises, naming the field
            raise FeedError(f"malformed dump line {line!r}")
        if fresh:  # passed every check, range included: now remember it
            if len(_VANTAGE_CACHE) >= _VANTAGE_CACHE_LIMIT:
                _VANTAGE_CACHE.clear()
            _VANTAGE_CACHE[vantage] = vantage_asn
        yield record


def parse_event(line: str) -> FeedEvent:
    """Parse one dump line back into a :class:`FeedEvent`: the decoder's
    one-line case, raising its :class:`~repro.errors.FeedError`."""
    (record,) = decode_records((line,))
    return validated_event(record)


#: Vantage spelling -> ASN; bounded, cleared wholesale when full (as ``Prefix.parse``'s).
_VANTAGE_CACHE: Dict[str, int] = {}
_VANTAGE_CACHE_LIMIT = 65536
