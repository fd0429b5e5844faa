"""The ARTEMIS application: detection + mitigation + monitoring, wired.

Mirrors Fig. 1 of the paper: the detection service consumes all sources
continuously; a new alert triggers the mitigation service (when
``auto_mitigate`` is on) which programs de-aggregated announcements through
the controller; the monitoring service runs in parallel throughout and
reports the mitigation's spread.

The paper's comparison — a third-party alert service plus a human — is the
same application with one more stage: an optional *operator* between a new
alert and the mitigation service, who first verifies the alert and then
reconfigures.  ARTEMIS proper is the case with nobody there.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.alerts import HijackAlert
from repro.core.config import ArtemisConfig
from repro.core.mitigation import MitigationAction, MitigationService
from repro.core.monitoring import MonitoringService
from repro.errors import ConfigError
from repro.sdn.controller import BGPController
from repro.sim.rng import SeededRNG
from repro.tenants.pipeline import OPERATOR, DetectionPlane, one_tenant_plane


def feed_consumers(
    config: ArtemisConfig, detection: DetectionPlane, monitoring: MonitoringService
) -> Tuple[Tuple[Callable, Sequence], ...]:
    """Every feed consumer and the prefixes it reads, in delivery order.

    Detection reads everything the operator watches, monitoring only the
    owned prefixes; each source delivers to detection before monitoring.
    The live application and a trace replay both subscribe from this.
    """
    return (
        (detection.ingest, config.monitored_prefixes),
        (monitoring.handle_event, config.owned_prefixes),
    )


class Artemis:
    """Top-level ARTEMIS instance for one operator."""

    def __init__(
        self,
        config: ArtemisConfig,
        controller: BGPController,
        sources: Sequence,
        periscope=None,
        helpers=None,
        supervisor=None,
        operator=None,
        rng: Optional[SeededRNG] = None,
    ):
        """``sources`` are the live feeds for detection+monitoring.

        Pass the Periscope API separately (or include it in ``sources``);
        when given, :meth:`start` also begins polling the owned prefixes —
        streams are push-based, looking glasses must be asked.  ``helpers``
        is an optional :class:`~repro.core.mitigation.HelperFleet` for
        outsourced mitigation of not-fully-recoverable hijacks.
        ``supervisor`` is an optional
        :class:`~repro.feeds.health.SourceSupervisor` watching the feeds:
        when given, it starts/stops with the application, alerts record
        which sources were live, and detection+monitoring are registered
        for failover onto any backup sources it holds.  ``operator`` is an
        optional :class:`~repro.baselines.operator.OperatorModel`: the human
        every alert waits for before it is mitigated, drawing the two delays
        from ``rng``.
        """
        self.config = config
        self.controller = controller
        self.sources = list(sources)
        self.periscope = periscope
        if periscope is not None and periscope not in self.sources:
            self.sources.append(periscope)
        if not self.sources:
            raise ConfigError("ARTEMIS needs at least one monitoring source")
        #: The one-tenant detection plane (tenant ``OPERATOR``), and that
        #: tenant's incidents: alerts, first evidence, live sources.
        self.detection = one_tenant_plane(config, notify=self._alerted)
        self.incidents = self.detection.tenant_state(OPERATOR)
        self.mitigation = MitigationService(config, controller, helpers=helpers)
        self.monitoring = MonitoringService(config)
        self.supervisor = supervisor
        self.operator = operator
        self.rng = rng or SeededRNG(0)
        #: One list for the primary subscriptions and the failover onto
        #: backups alike.
        self.consumers = feed_consumers(config, self.detection, self.monitoring)
        if supervisor is not None:
            for callback, prefixes in self.consumers:
                supervisor.register_failover(callback, prefixes)
        self._subscriptions: List = []
        self._alert_callbacks: List[Callable[[HijackAlert], None]] = []
        self._running = False
        # Structured audit trail, always on (operators need the history).
        from repro.core.log import IncidentLog

        self.log = IncidentLog(self)

    # ----------------------------------------------------------------- control

    def start(self) -> None:
        """Begin continuous detection and monitoring."""
        if self._running:
            return
        self._running = True
        self._subscriptions = [
            source.subscribe(callback, prefixes=prefixes)
            for source in self.sources
            for callback, prefixes in self.consumers
        ]
        if self.periscope is not None:
            self.periscope.watch(self.config.monitored_prefixes)
        if self.supervisor is not None:
            self.supervisor.start()

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for subscription in self._subscriptions:
            subscription.active = False
        self._subscriptions = []
        if self.periscope is not None:
            self.periscope.stop()
        if self.supervisor is not None:
            self.supervisor.stop()

    @property
    def running(self) -> bool:
        return self._running

    def on_alert(self, callback: Callable[[HijackAlert], None]) -> None:
        """Observer hook: fires for each new incident (after auto-mitigation
        has been triggered, so ``alert.status`` reflects what ARTEMIS did)."""
        self._alert_callbacks.append(callback)

    # ------------------------------------------------------------------ alerts

    def _alerted(self, _tenant: str, alert: HijackAlert) -> None:
        """The plane's ``notify``: runs inside ``ingest``, once per new
        incident, so mitigation is under way before the event's delivery
        returns.  The sources believed live go on record first."""
        if self.supervisor is not None:
            self.incidents.live_at_alert[alert.id] = self.supervisor.live_sources()
        if self.config.auto_mitigate:

            def mitigate(verified_at: Optional[float] = None) -> None:
                action = self.mitigation.execute(alert)
                action.verified_at = verified_at

            if self.operator is None:
                mitigate()
            else:
                self._ask_operator(alert, mitigate)
        for callback in self._alert_callbacks:
            callback(alert)

    def _ask_operator(
        self, alert: HijackAlert, mitigate: Callable[[float], None]
    ) -> None:
        """The human gate: verify the alert, then reconfigure, then ``mitigate``.

        Two engine events per incident; both delays are drawn when the alert
        arrives (verification first), so the draws do not depend on what the
        world does while the human is busy.
        """
        engine = self.controller.engine
        verify = self.operator.sample_verification(self.rng)
        reconfigure = self.operator.sample_reconfiguration(self.rng)

        def verified() -> None:
            self.log.record_operator(alert, "verified", engine.now)
            engine.schedule(reconfigure, approved, engine.now)

        def approved(verified_at: float) -> None:
            self.log.record_operator(alert, "approved", engine.now)
            mitigate(verified_at)

        engine.schedule(verify, verified)

    # ------------------------------------------------------------------- views

    @property
    def alerts(self) -> List[HijackAlert]:
        return self.incidents.alerts.alerts

    @property
    def actions(self) -> List[MitigationAction]:
        return self.mitigation.actions

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        return (
            f"<Artemis {state} owned={len(self.config.owned)} "
            f"sources={len(self.sources)} alerts={len(self.alerts)}>"
        )
