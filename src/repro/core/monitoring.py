"""The ARTEMIS monitoring service.

Runs in parallel with mitigation and answers, in real time, "who does the
Internet currently send our traffic to?" — from the same feed data the
detection service uses (Periscope, RIS, BGPmon).

For every vantage point the service keeps a small longest-prefix-match table
of what that vantage was last seen selecting inside the owned address space.
From that it derives, at any time, each vantage's *effective origin* for an
owned prefix, plus the aggregate fraction of vantages on a legitimate
origin — the curve the demo visualises as the hijack spreads and the
mitigation claws it back (experiment F1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import ArtemisConfig
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix, longest_match


class VantageState:
    """Last-seen routing state of one vantage point for the owned space."""

    def __init__(self, vantage_asn: int):
        self.vantage_asn = vantage_asn
        #: prefix ikey -> (prefix, origin_asn, as_path) as last reported by
        #: any source.
        self._table: Dict[int, Tuple[Prefix, int, Tuple[int, ...]]] = {}
        self.last_update: float = float("-inf")

    def apply(self, event: FeedEvent) -> None:
        if event.is_announcement:
            self._table[event.prefix.ikey] = (
                event.prefix, event.origin_as, event.as_path
            )
        else:
            self._table.pop(event.prefix.ikey, None)
        self.last_update = max(self.last_update, event.delivered_at)

    def origin_for_address(self, address) -> Optional[int]:
        """Origin this vantage selects for one address (longest match)."""
        match = longest_match(self._table, address)
        return match[1] if match else None

    def probe_origins(self, prefix: Prefix, depth: int = 1) -> Tuple[Optional[int], ...]:
        """Selected origin for each de-aggregation-granularity probe.

        One probe per sub-prefix ``depth`` levels below ``prefix``, so a /23
        yields both /24 halves — a hijacked half is visible even when the
        other half already recovered.
        """
        probe_length = min(prefix.bits, prefix.length + max(0, depth))
        return tuple(
            self.origin_for_address(child.network)
            for child in prefix.subnets(probe_length)
        )

    def routes(self) -> List[Tuple[Prefix, int, Tuple[int, ...]]]:
        """Every (prefix, origin, path) held, in ascending prefix order."""
        return [self._table[ikey] for ikey in sorted(self._table)]

    def __repr__(self) -> str:
        return f"<VantageState AS{self.vantage_asn} routes={len(self._table)}>"


class MonitoringService:
    """Feed-driven view of hijack spread and mitigation progress."""

    def __init__(self, config: ArtemisConfig):
        self.config = config
        self.vantages: Dict[int, VantageState] = {}
        #: (time, vantage_asn, owned_prefix, origin) — every effective-origin
        #: flip, in delivery order.  The raw series behind the demo map.
        self.transitions: List[Tuple[float, int, Prefix, Optional[int]]] = []
        self._last_effective: Dict[Tuple[int, Prefix], Optional[int]] = {}
        self.events_seen = 0
        #: Events ingested per source name (degraded feeds show up as gaps).
        self.events_by_source: Dict[str, int] = {}
        #: Per source: (count, total realized feed lag) where lag is
        #: ``delivered_at - observed_at`` — what the fault layer inflates.
        self._lag_by_source: Dict[str, Tuple[int, float]] = {}

    # ----------------------------------------------------------------- ingest

    def _representative_origin(self, state: VantageState, owned) -> Optional[int]:
        """One origin summarising the vantage's view of an owned prefix.

        An illegitimate probe origin wins (bad news is never masked by a
        half-recovered prefix); otherwise the legit origin; ``None`` when
        the vantage has reported no covering route yet.
        """
        origins = state.probe_origins(owned.prefix)
        known = [origin for origin in origins if origin is not None]
        if not known:
            return None
        for origin in known:
            if not owned.origin_is_legit(origin):
                return origin
        return known[0]

    def handle_event(self, event: FeedEvent) -> None:
        self.events_seen += 1
        self.events_by_source[event.source] = (
            self.events_by_source.get(event.source, 0) + 1
        )
        # Lag is a difference of *recorded event timestamps* (the event-time
        # contract, see repro.feeds.events): never measure it against the
        # ingest wall clock, which under Nx trace replay would inflate the
        # lag (or drive it negative) by the replay speed.
        count, total = self._lag_by_source.get(event.source, (0, 0.0))
        self._lag_by_source[event.source] = (count + 1, total + event.latency)
        state = self.vantages.get(event.vantage_asn)
        if state is None:
            state = VantageState(event.vantage_asn)
            self.vantages[event.vantage_asn] = state
        state.apply(event)
        for owned in self.config.owned:
            if not owned.prefix.overlaps(event.prefix):
                continue
            origin = self._representative_origin(state, owned)
            key = (event.vantage_asn, owned.prefix)
            previous = self._last_effective.get(key, "unset")
            if previous == "unset" and origin is None:
                # A withdraw that overtook the announcement it cancels (or
                # any first contact reporting "no route") is not a flip:
                # the vantage's effective view was unknown before and is
                # still nothing — recording it would fabricate a transition
                # for state that never existed.
                continue
            if previous != origin:
                self._last_effective[key] = origin
                self.transitions.append(
                    (event.delivered_at, event.vantage_asn, owned.prefix, origin)
                )

    # ------------------------------------------------------------------ views

    def mean_lag_by_source(self) -> Dict[str, float]:
        """Realized mean feed lag (delivery − observation) per source.

        Under a ``delay`` fault the affected source's mean visibly inflates
        while the others stay put — the per-source degradation report.
        Pure event-time arithmetic: replaying the same trace at 1x, 10x, or
        flat-out yields bit-identical tables (pinned by the replay tests).
        """
        return {
            source: total / count
            for source, (count, total) in sorted(self._lag_by_source.items())
            if count
        }

    def origin_by_vantage(self, owned_prefix: Prefix) -> Dict[int, Optional[int]]:
        """Current representative origin per vantage for ``owned_prefix``.

        Served from the state ``handle_event`` maintains incrementally, so
        repeated polling (the F1 visualisation loop) never re-walks the
        per-vantage route tables.
        """
        entry = self.config.entry_for(owned_prefix)
        if entry is None:
            return {}
        return {
            asn: self._last_effective.get((asn, owned_prefix))
            for asn in sorted(self.vantages)
        }

    def fraction_legitimate(self, owned_prefix: Prefix) -> float:
        """Fraction of reporting vantages currently on a legit origin."""
        entry = self.config.entry_for(owned_prefix)
        origins = [
            origin
            for origin in self.origin_by_vantage(owned_prefix).values()
            if origin is not None
        ]
        if entry is None or not origins:
            return 0.0
        legit = sum(1 for origin in origins if entry.origin_is_legit(origin))
        return legit / len(origins)

    def hijacked_vantages(self, owned_prefix: Prefix) -> List[int]:
        """Vantages currently selecting an illegitimate origin."""
        entry = self.config.entry_for(owned_prefix)
        if entry is None:
            return []
        return [
            asn
            for asn, origin in self.origin_by_vantage(owned_prefix).items()
            if origin is not None and not entry.origin_is_legit(origin)
        ]

    def fraction_series(self, owned_prefix: Prefix) -> List[Tuple[float, float]]:
        """(time, fraction-legitimate) after every transition — the F1 curve.

        Replays the transition log, so it can be called once at the end of an
        experiment to regenerate the whole real-time curve.
        """
        entry = self.config.entry_for(owned_prefix)
        if entry is None:
            return []
        current: Dict[int, Optional[int]] = {}
        series: List[Tuple[float, float]] = []
        for when, vantage, prefix, origin in self.transitions:
            if prefix != owned_prefix:
                continue
            current[vantage] = origin
            known = [o for o in current.values() if o is not None]
            if not known:
                continue
            legit = sum(1 for o in known if entry.origin_is_legit(o))
            series.append((when, legit / len(known)))
        return series

    def __repr__(self) -> str:
        return (
            f"<MonitoringService vantages={len(self.vantages)} "
            f"events={self.events_seen}>"
        )
