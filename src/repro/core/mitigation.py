"""The ARTEMIS mitigation service.

When an alert fires, the service immediately (no human in the loop) computes
the counter-announcement and programs it through the SDN controller:

* hijacked prefix shorter than the filtering limit (/24 for IPv4) →
  **de-aggregate**: announce the more-specific halves (``10.0.0.0/23`` →
  ``10.0.0.0/24`` + ``10.0.1.0/24``).  More-specifics win longest-prefix
  match everywhere, so every AS returns to the legitimate origin as the
  announcements spread (paper Phase-3).
* sub-prefix hijack → de-aggregate the *hijacked sub-prefix* when possible,
  otherwise competitively announce the same prefix from the legit origin.
* hijacked /24 (or /48) → de-aggregation is filtered by ISPs; the best
  automatic action left is a competitive re-announcement, which only
  recovers ASes path-wise closer to the victim.  The action is marked
  ``partial`` so operators (and experiment E6) can see the limitation.

When a :class:`HelperFleet` is configured (the "outsource the mitigation"
extension: well-connected ASes with a standing agreement announce the
victim's prefixes too and tunnel the traffic back), partial-recovery
actions additionally engage the helpers after a coordination delay —
competitive announcements from tier-1 positions recover far more of the
Internet than the victim alone can.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional

from repro.core.alerts import AlertStatus, AlertType, HijackAlert
from repro.core.config import ArtemisConfig
from repro.errors import MitigationError
from repro.net.prefix import Prefix
from repro.sdn.controller import BGPController, ControllerOp
from repro.sim.latency import Delay, Uniform, make_delay
from repro.sim.rng import SeededRNG

#: Alert types whose offending announcement keeps the legitimate origin:
#: mitigation targets the owned prefix, not the announced one.
_PATH_FAMILY = frozenset(
    {
        AlertType.PATH,
        AlertType.PATH_N,
        AlertType.UNCHANGED_PATH,
        AlertType.ROUTE_LEAK,
    }
)


class HelperFleet:
    """Well-connected ASes that announce the victim's prefixes on request.

    Models the "mitigation by outsourcing" extension: each helper has a
    standing agreement (its ASN must be whitelisted as a legit origin in
    the ARTEMIS config, it tunnels captured traffic back to the victim)
    and its own controller.  ``coordination_delay`` covers the signalling
    round trip before a helper's routers start announcing.
    """

    def __init__(
        self,
        controllers: List[BGPController],
        coordination_delay: Optional[Delay] = None,
        rng: Optional[SeededRNG] = None,
    ):
        if not controllers:
            raise MitigationError("a helper fleet needs at least one controller")
        self.controllers = list(controllers)
        self.coordination_delay = (
            make_delay(coordination_delay)
            if coordination_delay is not None
            else Uniform(5.0, 15.0)
        )
        self.rng = rng or SeededRNG(0)

    @property
    def helper_asns(self) -> List[int]:
        """All router ASNs across the fleet (whitelist these as origins)."""
        return sorted(
            {asn for controller in self.controllers for asn in controller.routers}
        )

    def engage(
        self,
        prefixes: List[Prefix],
        on_op: Callable[[ControllerOp], None],
    ) -> None:
        """Ask every helper to announce ``prefixes`` (after coordination)."""
        for controller in self.controllers:
            delay = self.coordination_delay.sample(self.rng)

            def request(controller=controller) -> None:
                for prefix in prefixes:
                    on_op(controller.announce_prefix(prefix))

            controller.engine.schedule(delay, request)

    def disengage(self, prefixes: List[Prefix]) -> List[ControllerOp]:
        """Withdraw helper announcements (the incident is over)."""
        ops = []
        for controller in self.controllers:
            for prefix in prefixes:
                ops.append(controller.withdraw_prefix(prefix))
        return ops

    def __repr__(self) -> str:
        return f"<HelperFleet helpers={self.helper_asns}>"


class MitigationAction:
    """The mitigation performed for one alert."""

    _ids = itertools.count(1)

    def __init__(
        self,
        alert: HijackAlert,
        strategy: str,
        prefixes: List[Prefix],
        triggered_at: float,
        expected_full_recovery: bool,
    ):
        self.id = next(MitigationAction._ids)
        self.alert = alert
        #: "deaggregate", "compete", or "none".
        self.strategy = strategy
        #: Prefixes handed to the controller.
        self.prefixes = list(prefixes)
        self.triggered_at = triggered_at
        #: When a human operator confirmed the alert; ``triggered_at`` is then
        #: the instant they finished reconfiguring.  None: nobody in the loop.
        self.verified_at: Optional[float] = None
        #: False when ISP filtering (/24 case) caps what we can do.
        self.expected_full_recovery = expected_full_recovery
        self.ops: List[ControllerOp] = []
        self.announced_at: Optional[float] = None
        #: Controller ops issued by outsourcing helpers, when engaged.
        self.helper_ops: List[ControllerOp] = []
        self.helpers_engaged = False

    @property
    def announce_delay(self) -> Optional[float]:
        """Trigger→routers-announcing latency (paper: ≈15 s)."""
        if self.announced_at is None:
            return None
        return self.announced_at - self.triggered_at

    def __repr__(self) -> str:
        names = ", ".join(str(p) for p in self.prefixes) or "-"
        return (
            f"MitigationAction(#{self.id} {self.strategy} [{names}] "
            f"for alert #{self.alert.id})"
        )


class MitigationService:
    """Turns alerts into controller programs."""

    def __init__(
        self,
        config: ArtemisConfig,
        controller: BGPController,
        helpers: Optional[HelperFleet] = None,
    ):
        self.config = config
        self.controller = controller
        #: Optional outsourcing fleet, engaged when the victim's own
        #: counter-announcement cannot fully recover (the /24 case).
        self.helpers = helpers
        self.actions: List[MitigationAction] = []
        self._callbacks: List[Callable[[MitigationAction], None]] = []

    def on_announced(self, callback: Callable[[MitigationAction], None]) -> None:
        """Called when an action's announcements have left the routers."""
        self._callbacks.append(callback)

    # ------------------------------------------------------------------ policy

    def plan(self, alert: HijackAlert) -> MitigationAction:
        """Compute the counter-announcement for ``alert`` (no side effects)."""
        now = self.controller.engine.now
        limit = self.config.max_announce_length(alert.announced_prefix.version)
        if alert.type in _PATH_FAMILY:
            # Path-family hijacks (type-1/type-N/type-U) and route leaks
            # keep the legit origin; de-aggregation still pulls traffic to
            # shortest legit paths. Compete on the owned prefix.
            target = alert.owned_prefix
        else:
            # Origin hijacks and squatting: counter the announcement itself
            # (for squatting the owner starts announcing the squatted block).
            target = alert.announced_prefix
        if target.length < limit:
            depth = min(
                target.length + self.config.deaggregation_levels,
                limit,
            )
            return MitigationAction(
                alert,
                "deaggregate",
                target.deaggregate(depth),
                now,
                expected_full_recovery=True,
            )
        # At or beyond the filtering limit: best effort competitive announce.
        return MitigationAction(
            alert,
            "compete",
            [target],
            now,
            expected_full_recovery=False,
        )

    # ----------------------------------------------------------------- execute

    def execute(self, alert: HijackAlert) -> MitigationAction:
        """Plan and program the mitigation for ``alert``."""
        if alert.status is AlertStatus.RESOLVED:
            raise MitigationError(f"alert #{alert.id} is already resolved")
        action = self.plan(alert)
        alert.status = AlertStatus.MITIGATING
        self.actions.append(action)
        remaining = len(action.prefixes)
        if remaining == 0:
            raise MitigationError(f"empty mitigation plan for alert #{alert.id}")

        def one_done(op: ControllerOp) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                action.announced_at = self.controller.engine.now
                for callback in self._callbacks:
                    callback(action)

        for prefix in action.prefixes:
            op = self.controller.announce_prefix(prefix, on_complete=one_done)
            action.ops.append(op)
        if self.helpers is not None and not action.expected_full_recovery:
            action.helpers_engaged = True
            self.helpers.engage(action.prefixes, action.helper_ops.append)
        return action

    def rollback(self, action: MitigationAction) -> List[ControllerOp]:
        """Withdraw an action's announcements (hijack over, clean up)."""
        ops = []
        for prefix in action.prefixes:
            # Never withdraw a prefix the operator configured as owned —
            # "compete" actions may re-announce an owned prefix itself.
            if self.config.entry_for(prefix) is not None:
                continue
            ops.append(self.controller.withdraw_prefix(prefix))
        if action.helpers_engaged and self.helpers is not None:
            # Helpers always withdraw: they were never the owner.
            ops.extend(self.helpers.disengage(action.prefixes))
        return ops

    def __repr__(self) -> str:
        return f"<MitigationService {len(self.actions)} actions>"
