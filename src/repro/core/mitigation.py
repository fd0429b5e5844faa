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

Mitigation is declared, not emitted: the service keeps its open actions
(from :meth:`~MitigationService.execute` to
:meth:`~MitigationService.rollback`), derives each controller's target from
them, and has every controller reconcile to it.  Two incidents that need
the same prefix share it, and closing one withdraws only what no open
action still needs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

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
    round trip before a helper reconciles to a changed target.
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

    def __repr__(self) -> str:
        return f"<HelperFleet helpers={self.helper_asns}>"


class MitigationAction:
    """The mitigation performed for one alert."""

    def __init__(
        self,
        alert: HijackAlert,
        strategy: str,
        prefixes: List[Prefix],
        triggered_at: float,
        expected_full_recovery: bool,
    ):
        self.alert = alert
        #: "deaggregate" or "compete".
        self.strategy = strategy
        #: Prefixes the routers announce while the action is open.
        self.prefixes = list(prefixes)
        self.triggered_at = triggered_at
        #: When a human operator confirmed the alert; ``triggered_at`` is then
        #: the instant they finished reconfiguring.  None: nobody in the loop.
        self.verified_at: Optional[float] = None
        #: False when ISP filtering (/24 case) caps what we can do.
        self.expected_full_recovery = expected_full_recovery
        #: When the last op pending on ``prefixes`` at execute completed
        #: (the execute instant when none was pending).
        self.announced_at: Optional[float] = None
        #: Whether the helper fleet announces ``prefixes`` too.
        self.helpers_engaged = False

    @property
    def announce_delay(self) -> Optional[float]:
        """Trigger→routers-announcing latency (paper: ≈15 s)."""
        if self.announced_at is None:
            return None
        return self.announced_at - self.triggered_at

    def __repr__(self) -> str:
        names = ", ".join(str(p) for p in self.prefixes)
        return (
            f"MitigationAction({self.strategy} [{names}] "
            f"for alert #{self.alert.id})"
        )


class MitigationService:
    """Turns alerts into controller targets."""

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
        #: Every action executed, in order.
        self.actions: List[MitigationAction] = []
        #: The actions executed and not rolled back: every target's source.
        self.open_actions: List[MitigationAction] = []
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
        """Plan the mitigation for ``alert``, open it, and reconcile."""
        if alert.status is AlertStatus.RESOLVED:
            raise MitigationError(f"alert #{alert.id} is already resolved")
        action = self.plan(alert)
        alert.status = AlertStatus.MITIGATING
        action.helpers_engaged = (
            self.helpers is not None and not action.expected_full_recovery
        )
        self.actions.append(action)
        self._reconcile(self.open_actions + [action])
        waiting = [op for op in self.controller.pending if op.prefix in action.prefixes]

        def one_done(op: ControllerOp) -> None:
            waiting.remove(op)
            if not waiting:
                self._announced(action)

        for op in waiting:
            op.on_complete.append(one_done)
        if not waiting:
            # Already programmed: announced now, logged after the alert.
            self.controller.engine.schedule(0.0, self._announced, action)
        return action

    def rollback(self, action: MitigationAction) -> None:
        """Close ``action`` and reconcile: withdraw what no open action needs."""
        self._reconcile([a for a in self.open_actions if a is not action])

    def _reconcile(self, open_actions: List[MitigationAction]) -> None:
        """Make ``open_actions`` the open set; bring every controller to it."""
        helper_target = self._helper_target()
        self.open_actions = open_actions
        # Never withdraw a prefix the operator configured as owned —
        # "compete" actions may re-announce an owned prefix itself.
        owned = [
            p for p in self.controller.programmed if self.config.entry_for(p) is not None
        ]
        self.controller.reconcile(
            [p for action in open_actions for p in action.prefixes] + owned
        )
        helpers = self.helpers
        if helpers is not None and self._helper_target() != helper_target:
            for controller in helpers.controllers:
                delay = helpers.coordination_delay.sample(helpers.rng)
                controller.engine.schedule(delay, self._reconcile_helper, controller)

    def _helper_target(self) -> Dict[Prefix, None]:
        """The prefixes every helper announces, in order (compares as a set)."""
        return dict.fromkeys(
            p for action in self.open_actions if action.helpers_engaged
            for p in action.prefixes
        )

    def _reconcile_helper(self, controller: BGPController) -> None:
        # Helpers always withdraw what they drop: they were never the owner.
        controller.reconcile(self._helper_target())

    def _announced(self, action: MitigationAction) -> None:
        action.announced_at = self.controller.engine.now
        for callback in self._callbacks:
            callback(action)

    def __repr__(self) -> str:
        return f"<MitigationService {len(self.open_actions)} open actions>"
