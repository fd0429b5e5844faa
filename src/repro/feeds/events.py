"""The unified feed event format.

Every monitoring source — stream, looking glass, or batch archive — delivers
:class:`FeedEvent` objects.  An event says: *vantage AS ``vantage_asn`` was
observed (by ``source``) to select ``as_path`` for ``prefix``*.

Two timestamps matter for the paper's delay analysis:

* ``observed_at`` — when the routing state existed at the vantage point;
* ``delivered_at`` — when the consumer (ARTEMIS, a baseline) received the
  event.  ``delivered_at - observed_at`` is the source's latency, and the
  detection delay measured in experiments is ``delivered_at - hijack_time``.

Both timestamps are **event time** — the clock of the run that produced
the event — and stay attached to the event forever: a recorded trace
replayed at 10x (or flat-out) carries the original values.  There is one
clock to compare them with, an :class:`~repro.sim.engine.Engine` running
in event time: the simulator's in a live run, the
:class:`~repro.feeds.replay.ReplayTap`'s under replay.  Consumers compute
every lag, staleness, or delay as a difference of event timestamps or
against that engine, never against host wall-clock, or the arithmetic
breaks the moment ingestion speed differs from 1x.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import FeedError
from repro.net.asn import MAX_ASN
from repro.net.prefix import Prefix

ANNOUNCE = "A"
WITHDRAW = "W"

_INF = float("inf")


class FeedEvent:
    """One observed routing change (or state, for polls/RIB dumps)."""

    __slots__ = (
        "source",
        "collector",
        "vantage_asn",
        "kind",
        "prefix",
        "as_path",
        "observed_at",
        "delivered_at",
    )

    def __init__(
        self,
        source: str,
        collector: str,
        vantage_asn: int,
        kind: str,
        prefix: Prefix,
        as_path: Sequence[int],
        observed_at: float,
        delivered_at: float,
    ):
        # Coerce only what is not already the exact type: the trace decoder
        # and the live feeds hand over ints, floats and (interned) tuples,
        # and a shared path tuple must stay shared, not be copied per event.
        if type(vantage_asn) is not int:
            vantage_asn = int(vantage_asn)
        if type(observed_at) is not float:
            observed_at = float(observed_at)
        if type(delivered_at) is not float:
            delivered_at = float(delivered_at)
        if type(as_path) is not tuple:
            as_path = tuple(as_path)
        for hop in as_path:
            if type(hop) is not int:
                as_path = tuple(int(a) for a in as_path)
                break
        if kind == ANNOUNCE:
            if not as_path:
                raise FeedError(f"announce event for {prefix} has an empty AS path")
        elif kind != WITHDRAW:
            raise FeedError(f"invalid feed event kind {kind!r}")
        if not 0 <= vantage_asn <= MAX_ASN:
            raise FeedError(f"vantage ASN {vantage_asn} out of 32-bit range")
        # One chained comparison also rejects NaN (every comparison with it
        # is false) and infinities, which would poison event-time arithmetic.
        if not -_INF < observed_at <= delivered_at < _INF:
            if delivered_at < observed_at:
                raise FeedError(
                    f"event delivered at {delivered_at} before observed at {observed_at}"
                )
            raise FeedError(
                f"event timestamps must be finite, got observed {observed_at} "
                f"and delivered {delivered_at}"
            )
        self.source = source
        self.collector = collector
        self.vantage_asn = vantage_asn
        self.kind = kind
        self.prefix = prefix
        self.as_path: Tuple[int, ...] = as_path
        self.observed_at = observed_at
        self.delivered_at = delivered_at

    @property
    def origin_as(self) -> Optional[int]:
        """Origin AS of the observed path (None for withdrawals)."""
        return self.as_path[-1] if self.as_path else None

    @property
    def latency(self) -> float:
        """Source-internal delay between observation and delivery."""
        return self.delivered_at - self.observed_at

    @property
    def is_announcement(self) -> bool:
        return self.kind == ANNOUNCE

    def content_key(self) -> Tuple:
        """Byte-identity of the event: every recorded field, both timestamps.

        Two events with equal keys are indistinguishable deliveries of the
        same observation — the situation a duplicating transport (or a
        replayed trace under a ``dup`` fault) creates.  Consumers use this
        to make ingestion idempotent for such copies; two *distinct*
        deliveries of the same routing fact (e.g. a session retransmit
        stamped with its own delivery time) keep distinct keys.
        """
        return (
            self.source,
            self.collector,
            self.vantage_asn,
            self.kind,
            self.prefix,
            self.as_path,
            self.observed_at,
            self.delivered_at,
        )

    def __repr__(self) -> str:
        path = " ".join(str(a) for a in self.as_path) if self.as_path else "-"
        return (
            f"FeedEvent({self.source}/{self.collector} vp=AS{self.vantage_asn} "
            f"{self.kind} {self.prefix} [{path}] obs={self.observed_at:.2f} "
            f"dlv={self.delivered_at:.2f})"
        )


_new = object.__new__


def validated_event(record) -> FeedEvent:
    """The event of one record from :func:`repro.feeds.dumpfile.decode_records`.

    A record is ``(lead, prefix, as_path, observed_at, delivered_at)`` with
    ``lead = (source, collector, vantage_asn, kind)``.  The decoder has
    already checked the eight values against everything the constructor
    checks, so this only stores them; for anything that did not come out of
    the decoder, construct a :class:`FeedEvent`.
    """
    event = _new(FeedEvent)
    (
        (event.source, event.collector, event.vantage_asn, event.kind),
        event.prefix,
        event.as_path,
        event.observed_at,
        event.delivered_at,
    ) = record
    return event
