"""Turns a :class:`~repro.faults.plan.FaultPlan` into engine-driven faults.

The injector resolves each fault's target against a deployed
:class:`~repro.feeds.deploy.MonitorDeployment` (plus the network, for
vantage-session flaps), then :meth:`arm` schedules apply/revert timers
relative to a base time — the hijack instant in experiments, so "kill the
fastest source 5 s into the hijack" is one plan entry.

Every applied action is appended to :attr:`log` as a ``(time, action,
target)`` tuple; with seeded scenarios the log is bit-identical across
runs, which is what the chaos suite's determinism pin hashes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bgp.policy import Relationship
from repro.faults.channel import ChannelFault
from repro.faults.plan import Fault, FaultError, FaultPlan
from repro.sim.rng import SeededRNG


class FaultInjector:
    """Applies one fault plan to one deployed monitoring infrastructure."""

    def __init__(
        self,
        network,
        deployment,
        plan: FaultPlan,
        seed: int = 0,
    ):
        self.network = network
        self.engine = network.engine
        self.deployment = deployment
        self.plan = plan
        #: Scenario seed × plan seed: the same plan under two scenario seeds
        #: draws independent (but reproducible) channel-fault coins.
        self.rng = SeededRNG(seed).substream("faults", plan.seed)
        #: (simulated time, action, target) — the deterministic audit log.
        self.log: List[Tuple[float, str, str]] = []
        self.faults_applied = 0
        self._armed = False
        #: Lazily installed per-collector channel judges (shared across the
        #: loss/dup/reorder faults that hit the same collector).
        self._channels: Dict[str, ChannelFault] = {}
        # Validate every target up front: a typo in a plan should fail the
        # run before it silently tests nothing.
        for index, fault in enumerate(plan):
            self._resolve(fault, index)

    # --------------------------------------------------------------- resolving

    def _streams(self) -> Dict[str, object]:
        """Every deployed collector-backed source, by name."""
        deployment = self.deployment
        sources = (
            deployment.ris,
            deployment.bgpmon,
            deployment.batch,
            deployment.rib_archive,
        )
        return {source.name: source for source in sources if source is not None}

    def _collectors(self) -> Dict[str, object]:
        return {
            box.name: box
            for source in self._streams().values()
            for box in source.collectors
        }

    def _looking_glasses(self) -> Dict[str, object]:
        return {lg.name: lg for lg in self.deployment.periscope.looking_glasses}

    def _resolve(self, fault: Fault, index: int):
        """Map a fault's target string to the live object(s) it applies to."""
        target = fault.target
        periscope = self.deployment.periscope
        if fault.kind == "outage":
            if target in self._streams():
                return self._streams()[target]
            if target == periscope.name:
                return periscope
            if target in self._looking_glasses():
                return self._looking_glasses()[target]
            raise FaultError(f"outage target {target!r} matches no source or LG")
        if fault.kind == "delay":
            if target in self._streams():
                return self._streams()[target]
            raise FaultError(f"delay target {target!r} matches no stream source")
        if fault.kind in ("loss", "dup", "reorder"):
            if target in self._streams():
                return list(self._streams()[target].collectors)
            if target in self._collectors():
                return [self._collectors()[target]]
            raise FaultError(f"{fault.kind} target {target!r} matches no collector")
        if fault.kind == "collector_crash":
            if target in self._collectors():
                return self._collectors()[target]
            raise FaultError(f"collector_crash target {target!r} matches no collector")
        if fault.kind == "flap":
            collector = self._collectors().get(target)
            if collector is None:
                raise FaultError(f"flap target {target!r} matches no collector")
            if fault.vantage not in collector.vantage_asns:
                raise FaultError(
                    f"AS{fault.vantage} does not feed collector {target!r}"
                )
            return collector
        raise FaultError(f"unhandled fault kind {fault.kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------ arming

    def arm(self, base_time: Optional[float] = None) -> None:
        """Schedule every fault relative to ``base_time`` (default: now)."""
        if self._armed:
            raise FaultError("fault injector is already armed")
        self._armed = True
        base = self.engine.now if base_time is None else float(base_time)
        for index, fault in enumerate(self.plan):
            start = base + fault.at
            end = None if fault.until is None else base + fault.until
            apply = getattr(self, f"_apply_{fault.kind}")
            self.engine.schedule_at(start, apply, fault, index, end)

    def _note(self, action: str, target: str) -> None:
        self.log.append((self.engine.now, action, target))
        self.faults_applied += 1

    def _later(self, when: Optional[float], callback, *args) -> None:
        if when is not None:
            self.engine.schedule_at(when, callback, *args)

    # ----------------------------------------------------------- fault actions

    def _apply_outage(self, fault: Fault, index: int, end: Optional[float]) -> None:
        target = self._resolve(fault, index)
        lgs = self._looking_glasses()
        if fault.target in lgs:
            target.fail()
            self._note("lg-fail", fault.target)
            self._later(end, self._revert_lg, fault)
        elif fault.target == self.deployment.periscope.name:
            for lg in self.deployment.periscope.looking_glasses:
                lg.fail()
            self._note("outage", fault.target)
            self._later(end, self._revert_periscope, fault)
        else:
            target.disconnect(down_until=end)
            self._note("outage", fault.target)
            # The server side comes back at the window end; the consumer's
            # supervisor still has to notice via its reconnect probes.
            self._later(end, self._revert_stream, fault, target)

    def _revert_lg(self, fault: Fault) -> None:
        self._looking_glasses()[fault.target].repair()
        self._note("lg-repair", fault.target)

    def _revert_periscope(self, fault: Fault) -> None:
        for lg in self.deployment.periscope.looking_glasses:
            lg.repair()
        self._note("recovery", fault.target)

    def _revert_stream(self, fault: Fault, target) -> None:
        target.restore_transport()
        self._note("recovery", fault.target)

    def _apply_delay(self, fault: Fault, index: int, end: Optional[float]) -> None:
        stream = self._resolve(fault, index)
        stream.delay_factor = fault.factor
        stream.delay_add = fault.add
        self._note("delay-on", fault.target)
        self._later(end, self._revert_delay, fault, stream)

    def _revert_delay(self, fault: Fault, stream) -> None:
        stream.delay_factor = 1.0
        stream.delay_add = 0.0
        self._note("delay-off", fault.target)

    def _channel_for(self, collector) -> ChannelFault:
        channel = self._channels.get(collector.name)
        if channel is None:
            channel = ChannelFault(self.rng.substream("channel", collector.name))
            self._channels[collector.name] = channel
            collector.fault_channel = channel
        return channel

    def _apply_channel(
        self, fault: Fault, index: int, end: Optional[float], field: str
    ) -> None:
        for collector in self._resolve(fault, index):
            channel = self._channel_for(collector)
            setattr(channel, field, fault.probability)
            if field == "reorder":
                channel.jitter = fault.jitter
            channel.set_window(self.engine.now, float("inf"))
        self._note(f"{field}-on", fault.target)
        self._later(end, self._revert_channel, fault, index, field)

    def _revert_channel(self, fault: Fault, index: int, field: str) -> None:
        for collector in self._resolve(fault, index):
            channel = self._channels.get(collector.name)
            if channel is not None:
                setattr(channel, field, 0.0)
        self._note(f"{field}-off", fault.target)

    def _apply_loss(self, fault: Fault, index: int, end: Optional[float]) -> None:
        self._apply_channel(fault, index, end, "loss")

    def _apply_dup(self, fault: Fault, index: int, end: Optional[float]) -> None:
        self._apply_channel(fault, index, end, "dup")

    def _apply_reorder(self, fault: Fault, index: int, end: Optional[float]) -> None:
        self._apply_channel(fault, index, end, "reorder")

    # Collector crash-restart and vantage-session flaps reuse the BGP-layer
    # session machinery: tearing a monitor session down and re-adding the
    # peer replays the host's full table (initial-advertisement semantics),
    # which is exactly a RIB re-sync after the box comes back.

    def _monitor_sessions(self, collector) -> List[Tuple[object, object]]:
        """(host speaker, session) pairs feeding ``collector``."""
        pairs = []
        for vantage in collector.vantage_asns:
            session = self.network._find_session(vantage, collector.asn)
            pairs.append((self.network.speaker(vantage), session))
        return pairs

    def _apply_collector_crash(
        self, fault: Fault, index: int, end: Optional[float]
    ) -> None:
        collector = self._resolve(fault, index)
        collector.crash()
        for host, session in self._monitor_sessions(collector):
            if session.up:
                session.tear_down()
                host.remove_peer(collector.asn)
        self._note("crash", fault.target)
        self._later(end, self._revert_collector_crash, fault, index)

    def _revert_collector_crash(self, fault: Fault, index: int) -> None:
        collector = self._resolve(fault, index)
        collector.restart()
        for host, session in self._monitor_sessions(collector):
            if not session.up:
                session.restore()
                host.add_peer(session, Relationship.MONITOR)
        self._note("restart", fault.target)

    def _apply_flap(self, fault: Fault, index: int, end: Optional[float]) -> None:
        collector = self._resolve(fault, index)
        session = self.network._find_session(fault.vantage, collector.asn)
        host = self.network.speaker(fault.vantage)
        self._flap_down(fault, session, host, collector, end)

    def _flap_down(self, fault: Fault, session, host, collector, end) -> None:
        if self.engine.now >= end:
            return
        if session.up:
            session.tear_down()
            host.remove_peer(collector.asn)
            self._note("flap-down", f"{fault.target}:AS{fault.vantage}")
        self.engine.schedule(
            fault.period / 2.0, self._flap_up, fault, session, host, collector, end
        )

    def _flap_up(self, fault: Fault, session, host, collector, end) -> None:
        if not session.up:
            session.restore()
            host.add_peer(session, Relationship.MONITOR)
            self._note("flap-up", f"{fault.target}:AS{fault.vantage}")
        if self.engine.now + fault.period / 2.0 < end:
            self.engine.schedule(
                fault.period / 2.0,
                self._flap_down,
                fault,
                session,
                host,
                collector,
                end,
            )

    def __repr__(self) -> str:
        state = "armed" if self._armed else "idle"
        return (
            f"<FaultInjector {self.plan.name!r} {state} "
            f"applied={self.faults_applied}>"
        )
