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
from repro.net.asn import _PARSE_CACHE as _PATHS, MAX_ASN, format_as_path, intern_as_path
from repro.net.prefix import _PARSE_CACHE as _PREFIXES, Prefix
from repro.perf import COUNTERS as _C

#: A record's validated ``(source, collector, vantage_asn, kind)``: one tuple
#: per lead spelling, shared by every record that spells it.
Lead = Tuple[str, str, int, str]
#: One decoded record: ``(lead, prefix, as_path, observed_at, delivered_at)``
#: — :class:`FeedEvent`'s eight fields, its first four grouped as the lead.
Record = Tuple[Lead, Prefix, Tuple[int, ...], float, float]


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
    """Validate a block of dump lines; yield each one's :data:`Record`.

    The one spelling of "a well-formed record".  Every malformed field —
    count, kind, vantage, prefix, path hop, timestamp — raises
    :class:`~repro.errors.FeedError` from the iteration, at the bad line.
    A record is ``(lead, prefix, as_path, observed_at, delivered_at)``,
    :class:`FeedEvent`'s eight fields with the first four grouped as the
    lead ``(source, collector, vantage_asn, kind)``, exactly typed and
    already checked against everything its constructor checks, so
    :func:`~repro.feeds.events.validated_event` builds the event without
    looking at them again — or the consumer never builds one.  Every value
    but the timestamps is shared per spelling by the records that repeat
    it; the lead is the lead table's own tuple.

    A line is split once, from the right, into its *lead*
    (``kind|source|collector|vantage``), prefix, path and timestamps.  A
    lead seen before is one lookup in the lead table; a new one goes through
    :func:`_validated_lead` and is stored only once its whole record has
    passed.  Prefix and path are read straight from the ``Prefix.parse``
    and ``intern_as_path`` tables, and their hits are counted once per call.
    """
    lead_get = _LEAD_CACHE.get
    prefix_get = _PREFIXES.get
    path_get = _PATHS.get
    parse_prefix = Prefix.parse
    prefix_hits = path_hits = 0
    try:
        for line in lines:
            fields = line.rsplit("|", 4)
            # A stored lead has three separators, so a hit means 8 fields.
            lead = lead_get(fields[0])
            fresh = lead is None
            if fresh:
                lead = _validated_lead(line)
            lead_text, prefix_text, path_text, observed, delivered = fields
            try:
                prefix = prefix_get(prefix_text)
                if prefix is None:
                    prefix = parse_prefix(prefix_text)
                else:
                    prefix_hits += 1
                as_path = path_get(path_text)
                if as_path is None:
                    as_path = intern_as_path(path_text)
                else:
                    path_hits += 1
                observed_at = float(observed)
                delivered_at = float(delivered)
            except (ValueError, BGPError) as error:
                raise FeedError(f"malformed dump line {line!r}: {error}") from None
            # FeedEvent's own checks, as one conjunction: an announcement has
            # a path, anything else is a withdrawal; the timestamps are finite
            # and ordered; a lead not seen before has its vantage in range
            # (digits: never < 0).  Then what float() forgives in a timestamp
            # but repr() never writes: a non-ASCII digit, "_" between digits,
            # a "+" sign or whitespace around it.  An ASCII line with no "_"
            # clears the first two for both fields at once.
            kind = lead[3]
            if not (
                (as_path if kind == ANNOUNCE else kind == WITHDRAW)
                and -inf < observed_at <= delivered_at < inf
                and (not fresh or lead[2] <= MAX_ASN)
                and (
                    line.isascii() and "_" not in line
                    or observed.isascii() and delivered.isascii()
                    and "_" not in observed and "_" not in delivered
                )
                and observed.strip(_PADS) == observed
                and delivered.strip(_PADS) == delivered
            ):
                # raises, naming the field
                FeedEvent(*lead, prefix, as_path, observed_at, delivered_at)
                raise FeedError(f"malformed dump line {line!r}")
            if fresh:  # passed every check, kind and range included: remember it
                if len(_LEAD_CACHE) >= _LEAD_CACHE_LIMIT:
                    _LEAD_CACHE.clear()
                _LEAD_CACHE[lead_text] = lead
            yield lead, prefix, as_path, observed_at, delivered_at
    finally:
        _C.prefix_parse_hits += prefix_hits
        _C.path_parse_hits += path_hits


def _validated_lead(line: str) -> Lead:
    """``(source, collector, vantage_asn, kind)`` of a line whose lead is not
    in the table: the field count and the vantage spelling are checked here,
    kind and vantage range by the caller's conjunction."""
    fields = line.split("|")
    if len(fields) != 8:
        raise FeedError(f"dump line has {len(fields)} fields, expected 8: {line!r}")
    kind, source, collector, vantage = fields[:4]
    if not (vantage.isdigit() and vantage.isascii()):
        # int() alone takes "+5", "１２"
        raise FeedError(f"invalid vantage ASN {vantage!r} in dump line {line!r}")
    try:
        vantage_asn = int(vantage)
    except ValueError as error:  # beyond int()'s digit limit
        raise FeedError(f"malformed dump line {line!r}: {error}") from None
    return intern(source), intern(collector), vantage_asn, kind


def parse_event(line: str) -> FeedEvent:
    """Parse one dump line back into a :class:`FeedEvent`: the decoder's
    one-line case, raising its :class:`~repro.errors.FeedError`."""
    (record,) = decode_records((line,))
    return validated_event(record)


#: What ``float()`` strips from either end of a timestamp and ``repr()``
#: never writes there: a "+" sign and ASCII whitespace (``str.isascii``
#: has refused the rest by then).
_PADS = "+ \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"

#: Lead spelling (``kind|source|collector|vantage``) -> its validated
#: ``(source, collector, vantage_asn, kind)``; bounded, cleared wholesale
#: when full (as ``Prefix.parse``'s).
_LEAD_CACHE: Dict[str, Lead] = {}
_LEAD_CACHE_LIMIT = 65536
