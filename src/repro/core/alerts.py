"""Hijack alerts and their lifecycle.

An alert is one *incident*: a particular offending announcement pattern
against one owned prefix.  Evidence (feed events) accumulates on the alert
as more vantage points report it; duplicates never create new alerts, so the
detection delay of an incident is unambiguous — the delivery time of the
first evidence.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix


class AlertType(enum.Enum):
    """Classification of the offending announcement.

    ``EXACT_ORIGIN`` — the owned prefix announced with an illegitimate
    origin (the demo paper's experiment).  ``SUB_PREFIX`` — a more-specific
    of an owned prefix announced by someone else.  ``PATH`` — legitimate
    origin but an illegitimate first hop (type-1 hijack).  ``PATH_N`` —
    legitimate origin and first hop but a forged link deeper in the path
    (type-N, caught by adjacency verification).  ``UNCHANGED_PATH`` —
    control plane indistinguishable from legitimate (type-U), flagged only
    by data-plane corroboration.  ``SQUATTING`` — announcement inside
    owned-but-unannounced address space.  ``ROUTE_LEAK`` — a stub AS
    re-exporting a provider/peer route (appears in a transit position).
    """

    EXACT_ORIGIN = "exact-origin"
    SUB_PREFIX = "sub-prefix"
    PATH = "path"
    PATH_N = "path-n"
    UNCHANGED_PATH = "unchanged-path"
    SQUATTING = "squatting"
    ROUTE_LEAK = "route-leak"


class AlertStatus(enum.Enum):
    """Lifecycle state of an alert."""

    ACTIVE = "active"
    MITIGATING = "mitigating"
    RESOLVED = "resolved"
    IGNORED = "ignored"


class HijackAlert:
    """One detected hijacking incident.

    Alert IDs are assigned by the owning :class:`AlertManager`, restarting
    at 1 per manager, so identically-seeded experiments sharing a process
    get identical IDs.
    """

    def __init__(
        self,
        alert_type: AlertType,
        owned_prefix: Prefix,
        announced_prefix: Prefix,
        offender_asn: Optional[int],
        first_event: FeedEvent,
        alert_id: int,
    ):
        self.id = alert_id
        self.type = alert_type
        #: The configured prefix this incident is against.
        self.owned_prefix = owned_prefix
        #: What the offender actually announced (may be more specific).
        self.announced_prefix = announced_prefix
        #: The illegitimate origin AS (or offending first hop for PATH).
        self.offender_asn = offender_asn
        self.evidence: List[FeedEvent] = [first_event]
        self.detected_at = first_event.delivered_at
        self.status = AlertStatus.ACTIVE
        self.resolved_at: Optional[float] = None

    @property
    def key(self) -> Tuple[AlertType, Prefix, Prefix, Optional[int]]:
        """Dedup identity of the incident."""
        return (self.type, self.owned_prefix, self.announced_prefix, self.offender_asn)

    @property
    def first_source(self) -> str:
        """Which feed won the detection race for this incident."""
        return self.evidence[0].source

    @property
    def witness_vantages(self) -> List[int]:
        """Vantage ASes that reported the offending announcement."""
        return sorted({event.vantage_asn for event in self.evidence})

    def add_evidence(self, event: FeedEvent) -> None:
        self.evidence.append(event)

    def resolve(self, when: float) -> None:
        if self.status is AlertStatus.RESOLVED:
            raise ReproError(f"alert #{self.id} already resolved")
        self.status = AlertStatus.RESOLVED
        self.resolved_at = when

    def __repr__(self) -> str:
        offender = f"AS{self.offender_asn}" if self.offender_asn else "?"
        return (
            f"HijackAlert(#{self.id} {self.type.value} {self.announced_prefix} "
            f"by {offender} at {self.detected_at:.1f}s {self.status.value})"
        )


class AlertManager:
    """Deduplicates and stores alerts."""

    def __init__(self, cooldown: float = 0.0):
        #: Alerts resolved longer than ``cooldown`` ago may fire again.
        self.cooldown = float(cooldown)
        self._by_key: Dict[Tuple, HijackAlert] = {}
        self.alerts: List[HijackAlert] = []
        #: Per-manager ID counter — deterministic across repeated runs.
        self._next_id = 1

    def ingest(
        self,
        alert_type: AlertType,
        owned_prefix: Prefix,
        announced_prefix: Prefix,
        offender_asn: Optional[int],
        event: FeedEvent,
        allow_new: bool = True,
    ) -> Tuple[Optional[HijackAlert], bool]:
        """Record evidence; returns ``(alert, is_new_incident)``.

        With ``allow_new=False`` the event may attach as evidence to the
        incident it matches, but never founds a fresh alert — the caller
        has decided this event carries no new information (a byte-identical
        duplicate delivery) and must not resurrect a resolved incident.
        Returns ``(None, False)`` when founding would have been required.
        """
        key = (alert_type, owned_prefix, announced_prefix, offender_asn)
        existing = self._by_key.get(key)
        if existing is not None:
            recently_resolved = (
                existing.status is AlertStatus.RESOLVED
                and existing.resolved_at is not None
                and event.delivered_at - existing.resolved_at <= self.cooldown
            )
            if existing.status is not AlertStatus.RESOLVED or recently_resolved:
                existing.add_evidence(event)
                return existing, False
        if not allow_new:
            return None, False
        alert = HijackAlert(
            alert_type,
            owned_prefix,
            announced_prefix,
            offender_asn,
            event,
            alert_id=self._next_id,
        )
        self._next_id += 1
        self._by_key[key] = alert
        self.alerts.append(alert)
        return alert, True

    def incident_for(self, key: Tuple) -> Optional[HijackAlert]:
        """The current (most recent) alert for a dedup key, or ``None``."""
        return self._by_key.get(key)

    @property
    def active(self) -> List[HijackAlert]:
        return [
            a
            for a in self.alerts
            if a.status in (AlertStatus.ACTIVE, AlertStatus.MITIGATING)
        ]

    def __len__(self) -> int:
        return len(self.alerts)

    def __repr__(self) -> str:
        return f"<AlertManager {len(self.alerts)} alerts, {len(self.active)} active>"
