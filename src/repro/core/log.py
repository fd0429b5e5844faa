"""Structured incident logging.

Operators need an audit trail: when each incident was detected, by which
source, what was announced in response, and when the network recovered.
:class:`IncidentLog` subscribes to a running :class:`~repro.core.artemis.Artemis`
instance and records every lifecycle event as a structured entry, exportable
as JSON (for dashboards) or text (for humans).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.core.alerts import HijackAlert
from repro.core.artemis import Artemis
from repro.core.mitigation import MitigationAction


class IncidentLog:
    """Append-only structured log of ARTEMIS lifecycle events."""

    def __init__(self, artemis: Artemis):
        self.artemis = artemis
        self.entries: List[Dict] = []
        artemis.on_alert(self._on_alert)
        artemis.mitigation.on_announced(self._on_announced)

    # ------------------------------------------------------------------ hooks

    def _on_alert(self, alert: HijackAlert) -> None:
        self.entries.append(
            {
                "time": alert.detected_at,
                "event": "alert",
                "alert_id": alert.id,
                "type": alert.type.value,
                "owned_prefix": str(alert.owned_prefix),
                "announced_prefix": str(alert.announced_prefix),
                "offender_asn": alert.offender_asn,
                "first_source": alert.first_source,
                "status": alert.status.value,
            }
        )

    def _on_announced(self, action: MitigationAction) -> None:
        self.entries.append(
            {
                "time": action.announced_at,
                "event": "mitigation-announced",
                "alert_id": action.alert.id,
                "strategy": action.strategy,
                "prefixes": [str(p) for p in action.prefixes],
                "announce_delay": action.announce_delay,
                "helpers_engaged": action.helpers_engaged,
            }
        )

    def record_operator(self, alert: HijackAlert, step: str, when: float) -> None:
        """Log a human gate step, ``verified`` or ``approved`` (called by
        :class:`~repro.core.artemis.Artemis` when it has an operator)."""
        self.entries.append({"time": when, "event": step, "alert_id": alert.id})

    def record_resolution(self, alert: HijackAlert) -> None:
        """Log an alert's resolution (called by the experiment driver, which
        is what knows every AS is back on the legitimate origin)."""
        self.entries.append(
            {
                "time": alert.resolved_at,
                "event": "resolved",
                "alert_id": alert.id,
                "status": alert.status.value,
            }
        )

    # ------------------------------------------------------------------ export

    def for_alert(self, alert_id: int) -> List[Dict]:
        """All entries belonging to one incident, in order."""
        return [e for e in self.entries if e.get("alert_id") == alert_id]

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.entries, indent=indent)

    def to_text(self) -> str:
        """Human-readable one-line-per-event rendering."""
        lines = []
        for entry in self.entries:
            time = entry.get("time")
            stamp = f"{time:10.1f}s" if time is not None else "        - "
            if entry["event"] == "alert":
                lines.append(
                    f"{stamp}  ALERT #{entry['alert_id']} {entry['type']} "
                    f"{entry['announced_prefix']} by AS{entry['offender_asn']} "
                    f"(first seen via {entry['first_source']})"
                )
            elif entry["event"] == "mitigation-announced":
                helpers = " +helpers" if entry["helpers_engaged"] else ""
                lines.append(
                    f"{stamp}  MITIGATE #{entry['alert_id']} {entry['strategy']}"
                    f"{helpers}: {', '.join(entry['prefixes'])}"
                )
            else:  # verified / approved / resolved
                lines.append(f"{stamp}  {entry['event'].upper()} #{entry['alert_id']}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"<IncidentLog {len(self.entries)} entries>"
