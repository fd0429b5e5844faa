"""The ARTEMIS detection service.

Runs continuously over every configured source (RIS stream, BGPmon stream,
Periscope looking glasses) with a server-side filter on the owned prefixes,
and checks each arriving feed event against the operator's ground truth;
:mod:`repro.core.rules` lists the rules and the alert type each raises.

There is one detection engine: :class:`DetectionService` is the one-tenant
case of :class:`~repro.tenants.pipeline.DetectionPlane`.  The operator's
config compiles into a one-tenant registry and every event goes through a
plane of batch size 1, so it is judged, and its alert raised, before
``handle_event`` returns.  Rule selection, corroboration gating, incident
dedup, the duplicate-delivery founding gate, first-evidence bookkeeping
and state pruning are the plane's — this class only adds source
subscription, operator callbacks and the live-sources audit trail.

Because the sources are independent, the incident's detection delay is the
minimum of the per-source delays (paper §2); the first evidence per source
is on record so experiment E2 can compare them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.alerts import AlertType, HijackAlert
from repro.core.config import ArtemisConfig
from repro.core.rules import CorroborationProbe
from repro.feeds.events import FeedEvent

AlertCallback = Callable[[HijackAlert], None]

#: The one tenant a :class:`DetectionService` registers with its plane.
_TENANT = "operator"


class DetectionService:
    """Classifies feed events against the owned-prefix ground truth."""

    def __init__(self, config: ArtemisConfig):
        # Deferred: repro.tenants compiles ArtemisConfig, so it imports
        # repro.core, whose package import reaches this module.
        from repro.tenants.pipeline import DetectionPlane
        from repro.tenants.registry import TenantRegistry

        self.config = config
        #: The one-tenant registry ``config`` compiles into.
        self.registry = registry = TenantRegistry()
        registry.add_tenant(_TENANT, config)
        self._plane = DetectionPlane(registry, batch_size=1, notify=self._alerted)
        state = self._plane.tenant_state(_TENANT)
        self.alert_manager = state.alerts
        #: Per (alert id, source): first evidence delivery time — the raw
        #: material for the per-source delay comparison (E2).
        self.first_evidence: Dict[int, Dict[str, float]] = state.first_evidence
        #: Per alert id: sorted tuple of live source names at alert time.
        self.live_at_alert: Dict[int, Tuple[str, ...]] = state.live_at_alert
        self._callbacks: List[AlertCallback] = []
        self.events_checked = 0
        #: Optional :class:`~repro.feeds.health.SourceSupervisor`; when
        #: attached, each new incident records which sources were believed
        #: live at alert time (the degraded-feed audit trail).
        self.supervisor = None
        self.started = False
        self._subscriptions = []

    # ------------------------------------------------------------------ wiring

    def on_alert(self, callback: AlertCallback) -> None:
        """Called once per *new* incident (not per evidence event)."""
        self._callbacks.append(callback)

    def attach_supervisor(self, supervisor) -> None:
        """Record source liveness (``live_at_alert``) for each new incident."""
        self.supervisor = supervisor

    def attach_corroborator(self, probe: Optional[CorroborationProbe]) -> None:
        """Install (or remove) the data-plane corroboration probe.

        ``probe(prefix) -> bool`` answers "is the data plane for this
        prefix healthy right now?".  A healthy answer gates low-confidence
        control-plane verdicts; an unhealthy answer on an otherwise clean
        announcement raises ``UNCHANGED_PATH`` (type-U).  With no probe
        attached, classification is control-plane-only.
        """
        self._plane.corroborator = probe

    def start(self, sources: List) -> None:
        """Subscribe to every source, filtered to the monitored prefixes
        (owned plus owned-but-unannounced space).

        Each source must expose ``subscribe(callback, prefixes=...)`` —
        streams, Periscope, and batch archives all do.
        """
        if self.started:
            return
        self.started = True
        prefixes = self.config.monitored_prefixes
        for source in sources:
            self._subscriptions.append(
                source.subscribe(self.handle_event, prefixes=prefixes)
            )

    def stop(self) -> None:
        for subscription in self._subscriptions:
            subscription.active = False
        self._subscriptions.clear()
        self.started = False

    # --------------------------------------------------------------- detection

    def handle_event(self, event: FeedEvent) -> None:
        """Inspect one feed event; raise/extend alerts as needed."""
        self.events_checked += 1
        self._plane.ingest(event)

    def _alerted(self, tenant: str, alert: HijackAlert) -> None:
        """The plane's notify hook: runs inside ``handle_event``, once per
        new incident — mitigation relies on that synchrony."""
        if self.supervisor is not None:
            self.live_at_alert[alert.id] = self.supervisor.live_sources()
        for callback in self._callbacks:
            callback(alert)

    def classify(
        self, event: FeedEvent
    ) -> Optional[Tuple[AlertType, "Prefix", Optional[int]]]:
        """Pure classification: ``(type, owned_prefix, offender)`` or None.

        Precedence: the most specific monitored prefix covering the
        announcement decides — an exact owned entry, else the deeper of
        the covering owned prefix and the covering owned *space* (a /24 in
        an owned /23 is a sub-prefix incident even under a wider space
        block; a /24 in a deeper unannounced hole is a squatting one).
        With ``detect_squatting=False`` owned space is not monitored, so
        the hole case is ``SUB_PREFIX`` against the covering owned prefix.
        """
        from repro.tenants.pipeline import classify_batch_verdicts

        plane = self._plane
        verdicts = classify_batch_verdicts(
            plane.tree.resolve(event.prefix),
            event.prefix,
            event.as_path,
            event.vantage_asn,
            probe=plane.corroborator,
        )
        if not verdicts:
            return None
        rule, alert_type, offender = verdicts[0]
        return alert_type, rule.prefix, offender

    # --------------------------------------------------------- state bounding

    @property
    def duplicate_events_skipped(self) -> int:
        """Byte-identical duplicate deliveries detected (attached-or-dropped)."""
        return self._plane.duplicate_events_skipped

    @property
    def state_retention(self) -> Optional[float]:
        """Seconds per-incident state outlives resolve+cooldown (``None``:
        never pruned); see :data:`repro.tenants.pipeline.STATE_RETENTION`."""
        return self._plane.state_retention

    @state_retention.setter
    def state_retention(self, seconds: Optional[float]) -> None:
        self._plane.state_retention = seconds

    @property
    def entries_pruned(self) -> int:
        return self._plane.entries_pruned

    def detection_state_entries(self) -> int:
        """Current per-incident bookkeeping entries (the soak-memory gauge)."""
        return self._plane.detection_state_entries()

    def prune_state(self, now: float) -> int:
        """Drop bookkeeping for incidents resolved long before ``now`` (the
        plane's sweep, which also runs every ``PRUNE_CHECK_INTERVAL`` events)."""
        return self._plane.prune_state(now)

    # ------------------------------------------------------------------- stats

    def per_source_delay(
        self, alert: HijackAlert, reference_time: float
    ) -> Dict[str, float]:
        """Detection delay each source achieved for ``alert``'s incident.

        ``reference_time`` is the ground-truth incident start (the hijack
        announcement time); sources that never reported it are absent.
        """
        per_source = self.first_evidence.get(alert.id, {})
        return {
            source: delivered - reference_time
            for source, delivered in sorted(per_source.items())
        }

    def digest(self) -> str:
        """The plane's merged alert digest, this service's one tenant being
        ``operator`` — equal to a registry replay holding the same config
        under that name."""
        return self._plane.digest()

    def __repr__(self) -> str:
        return (
            f"<DetectionService checked={self.events_checked} "
            f"alerts={len(self.alert_manager)}>"
        )
