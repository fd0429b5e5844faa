"""An ONOS/OpenDaylight-style BGP network controller.

The paper runs ARTEMIS "as an application-level module, over a network
controller that supports BGP".  The controller owns the BGP routers of the
operator's network and can originate or withdraw prefixes on them — with a
programming latency (app → controller core → router config → first UPDATE
out) that the paper measures at ~15 s.  That latency is this class's main
behaviour; everything else is bookkeeping that the monitoring service and
the benches read back.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.bgp.speaker import BGPSpeaker
from repro.errors import MitigationError
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Delay, Uniform, make_delay
from repro.sim.rng import SeededRNG


class ControllerOp:
    """One completed-or-pending controller operation."""

    __slots__ = ("kind", "prefix", "router_asns", "requested_at", "completed_at")

    def __init__(
        self,
        kind: str,
        prefix: Prefix,
        router_asns: Sequence[int],
        requested_at: float,
    ):
        self.kind = kind
        self.prefix = prefix
        self.router_asns = tuple(router_asns)
        self.requested_at = requested_at
        self.completed_at: Optional[float] = None

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
        self.ops: List[ControllerOp] = []

    def _resolve_targets(
        self, router_asns: Optional[Sequence[int]]
    ) -> List[BGPSpeaker]:
        if router_asns is None:
            return list(self.routers.values())
        targets = []
        for asn in router_asns:
            if asn not in self.routers:
                raise MitigationError(
                    f"controller {self.name} does not manage AS{asn}"
                )
            targets.append(self.routers[asn])
        return targets

    def announce_prefix(
        self,
        prefix: Union[Prefix, str],
        router_asns: Optional[Sequence[int]] = None,
        on_complete: Optional[Callable[[ControllerOp], None]] = None,
    ) -> ControllerOp:
        """Originate ``prefix`` from the managed routers (after programming).

        Returns the op immediately; ``op.completed_at`` is set (and
        ``on_complete`` fires) once the routers have started announcing.
        """
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        targets = self._resolve_targets(router_asns)
        op = ControllerOp("announce", prefix, [t.asn for t in targets], self.engine.now)
        self.ops.append(op)
        delay = self.programming_delay.sample(self.rng)

        def program() -> None:
            for router in targets:
                router.originate(prefix)
            op.completed_at = self.engine.now
            if on_complete is not None:
                on_complete(op)

        self.engine.schedule(delay, program)
        return op

    def withdraw_prefix(
        self,
        prefix: Union[Prefix, str],
        router_asns: Optional[Sequence[int]] = None,
        on_complete: Optional[Callable[[ControllerOp], None]] = None,
    ) -> ControllerOp:
        """Withdraw ``prefix`` from the managed routers (after programming)."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        targets = self._resolve_targets(router_asns)
        op = ControllerOp("withdraw", prefix, [t.asn for t in targets], self.engine.now)
        self.ops.append(op)
        delay = self.programming_delay.sample(self.rng)

        def program() -> None:
            for router in targets:
                if router.originates(prefix):
                    router.withdraw_origin(prefix)
            op.completed_at = self.engine.now
            if on_complete is not None:
                on_complete(op)

        self.engine.schedule(delay, program)
        return op

    def __repr__(self) -> str:
        return f"<BGPController {self.name} routers={sorted(self.routers)}>"
