"""An ONOS/OpenDaylight-style BGP network controller.

The paper runs ARTEMIS "as an application-level module, over a network
controller that supports BGP".  The controller owns the BGP routers of the
operator's network and brings the prefixes they originate to a target the
application declares — with a programming latency (app → controller core →
router config → first UPDATE out) that the paper measures at ~15 s.  That
latency is this class's main behaviour; everything else is bookkeeping that
the mitigation service reads back.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.bgp.speaker import BGPSpeaker
from repro.errors import MitigationError
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Delay, Uniform, make_delay
from repro.sim.rng import SeededRNG


class ControllerOp:
    """One completed-or-pending controller operation."""

    __slots__ = ("kind", "prefix", "requested_at", "completed_at", "on_complete")

    def __init__(self, kind: str, prefix: Prefix, requested_at: float):
        self.kind = kind
        self.prefix = prefix
        self.requested_at = requested_at
        self.completed_at: Optional[float] = None
        #: Called with the op once the routers have applied it.
        self.on_complete: List[Callable[[ControllerOp], None]] = []

    @property
    def pending(self) -> bool:
        return self.completed_at is None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.requested_at

    def __repr__(self) -> str:
        state = "pending" if self.pending else f"done@{self.completed_at:.1f}"
        return f"ControllerOp({self.kind} {self.prefix} {state})"


class BGPController:
    """Controls the BGP routers of one operator's network."""

    def __init__(
        self,
        engine: Engine,
        routers: Sequence[BGPSpeaker],
        programming_delay: Optional[Delay] = None,
        rng: Optional[SeededRNG] = None,
        name: str = "onos",
    ):
        if not routers:
            raise MitigationError("a controller needs at least one router")
        self.engine = engine
        self.routers: Dict[int, BGPSpeaker] = {r.asn: r for r in routers}
        #: App-to-first-UPDATE latency; paper measures ≈ 15 s.
        self.programming_delay = (
            make_delay(programming_delay)
            if programming_delay is not None
            else Uniform(10.0, 20.0)
        )
        self.rng = rng or SeededRNG(0)
        self.name = name
        #: The prefixes the routers originate on this controller's say-so
        #: once every pending op has completed: the last target.
        self.programmed: Set[Prefix] = set()
        #: Ops requested and not yet completed, oldest first.
        self.pending: List[ControllerOp] = []

    def reconcile(self, target: Iterable[Prefix]) -> List[ControllerOp]:
        """Bring the routers to originate ``target`` (after programming).

        Announces what ``target`` adds, in its order, then withdraws what
        it drops, in prefix order.  Each op draws its own programming delay
        and, on completion, applies its prefix's programmed state at that
        instant, so an earlier op can never overtake a later one.
        """
        wanted = list(dict.fromkeys(target))
        now = self.engine.now
        ops = [ControllerOp("announce", p, now) for p in wanted if p not in self.programmed]
        dropped = self.programmed.difference(wanted)
        ops += [ControllerOp("withdraw", p, now) for p in sorted(dropped)]
        self.programmed = set(wanted)
        for op in ops:
            self.pending.append(op)
            self.engine.schedule(self.programming_delay.sample(self.rng), self._apply, op)
        return ops

    def _apply(self, op: ControllerOp) -> None:
        prefix = op.prefix
        announce = prefix in self.programmed
        for router in self.routers.values():
            if announce:
                router.originate(prefix)
            elif router.originates(prefix):
                router.withdraw_origin(prefix)
        op.completed_at = self.engine.now
        self.pending.remove(op)
        for callback in op.on_complete:
            callback(op)

    def __repr__(self) -> str:
        return f"<BGPController {self.name} routers={sorted(self.routers)}>"
