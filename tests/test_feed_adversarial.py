"""Adversarial feed-edge tests: duplicated, reordered, and replayed updates.

The monitoring plane must stay truthful when the transport misbehaves:
duplicate UPDATE delivery must not spawn duplicate incidents, a withdraw
overtaking the announcement it cancels must not fabricate vantage state,
and a replayed stale announcement must not resurrect a resolved incident.
These are the unit-level counterparts of the end-to-end chaos suite in
``test_faults.py``.
"""

import pytest

from repro.bgp.messages import Announcement, UpdateMessage, Withdrawal
from repro.core.alerts import AlertStatus
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.core.monitoring import MonitoringService
from repro.faults import ChannelFault
from repro.feeds.collector import RouteCollector
from repro.feeds.events import FeedEvent
from repro.feeds.stream import StreamingService
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG
from repro.tenants.pipeline import OPERATOR, one_tenant_plane

HIJACKER = 666
VANTAGE = 3


def P(text):
    return Prefix.parse(text)


def event(prefix="10.0.0.0/23", path=(3, 2, 666), source="ris", t=10.0, kind="A",
          vantage=VANTAGE):
    return FeedEvent(
        source=source,
        collector=f"{source}-c0",
        vantage_asn=vantage,
        kind=kind,
        prefix=P(prefix),
        as_path=tuple(path) if kind == "A" else (),
        observed_at=t - 1.0,
        delivered_at=t,
    )


def make_config(**kw):
    defaults = dict(owned=[OwnedPrefix("10.0.0.0/23", {64500})])
    defaults.update(kw)
    return ArtemisConfig(**defaults)


def announce(prefix, path=(VANTAGE, HIJACKER)):
    return UpdateMessage(path[0], announcements=[Announcement(P(prefix), tuple(path))])


def withdraw(prefix, sender=VANTAGE):
    return UpdateMessage(sender, withdrawals=[Withdrawal(P(prefix))])


class Rig:
    """One collector feeding one RIS-style stream into detection+monitoring."""

    def __init__(self, latency=1.0, **config_kw):
        self.engine = Engine()
        self.collector = RouteCollector("ris-rrc00", self.engine)
        self.collector.register_vantage(VANTAGE)
        self.stream = StreamingService(
            self.engine, Constant(latency), SeededRNG(7), "ris"
        )
        self.stream.attach_collector(self.collector)
        self.config = make_config(**config_kw)
        self.fired = []
        self.detection = one_tenant_plane(
            self.config, notify=lambda _tenant, alert: self.fired.append(alert)
        )
        self.incidents = self.detection.tenant_state(OPERATOR)
        self.monitoring = MonitoringService(self.config)
        self.stream.subscribe(
            self.detection.ingest, prefixes=self.config.monitored_prefixes
        )
        self.stream.subscribe(
            self.monitoring.handle_event, prefixes=self.config.owned_prefixes
        )

    def deliver(self, message, vantage=VANTAGE):
        self.collector.deliver(vantage, message)

    def run(self, duration=30.0):
        self.engine.run_for(duration)

    @property
    def alerts(self):
        return self.incidents.alerts.alerts


class TestDuplicateDelivery:
    def test_channel_duplicate_creates_one_incident(self):
        rig = Rig()
        channel = ChannelFault(SeededRNG(1), dup=1.0)
        rig.collector.fault_channel = channel
        rig.deliver(announce("10.0.0.0/23"))
        rig.run()
        assert channel.messages_duplicated == 1
        # Both copies were delivered downstream...
        assert rig.stream.events_delivered >= 4  # 2 copies x 2 subscribers
        # ...but the incident exists exactly once.
        assert len(rig.fired) == 1
        assert len(rig.alerts) == 1
        alert = rig.alerts[0]
        assert len(alert.evidence) == 2

    def test_first_evidence_keyed_once_per_source(self):
        rig = Rig()
        rig.collector.fault_channel = ChannelFault(SeededRNG(1), dup=1.0)
        rig.deliver(announce("10.0.0.0/23"))
        rig.run()
        alert = rig.alerts[0]
        per_source = rig.incidents.first_evidence[alert.id]
        assert set(per_source) == {"ris"}
        # The recorded time is the first copy's delivery, i.e. the alert's
        # own detection time — later duplicates never move it.
        assert per_source["ris"] == alert.detected_at

    def test_session_retransmit_does_not_duplicate_alert(self):
        # The same UPDATE arriving twice without any fault channel (a BGP
        # session retransmit after an ack loss) must also coalesce.
        rig = Rig()
        message = announce("10.0.0.0/23")
        rig.deliver(message)
        rig.deliver(message)
        rig.run()
        assert len(rig.fired) == 1
        assert len(rig.alerts) == 1
        assert len(rig.alerts[0].evidence) == 2

    def test_duplicate_does_not_double_monitoring_transitions(self):
        rig = Rig()
        rig.collector.fault_channel = ChannelFault(SeededRNG(1), dup=1.0)
        rig.deliver(announce("10.0.0.0/23"))
        rig.run()
        # The vantage flipped to the hijacker exactly once; the duplicate
        # re-applied identical state and must not log a second transition.
        flips = [t for t in rig.monitoring.transitions if t[1] == VANTAGE]
        assert len(flips) == 1
        assert flips[0][3] == HIJACKER


class TestWithdrawBeforeAnnounce:
    def test_early_withdraw_is_noop(self):
        # The withdraw overtakes the announcement it cancels: applied to an
        # empty vantage table it must do nothing — no state, no transition,
        # no alert.
        rig = Rig()
        rig.deliver(withdraw("10.0.0.0/23"))
        rig.run()
        assert rig.alerts == []
        assert rig.monitoring.transitions == []
        state = rig.monitoring.vantages.get(VANTAGE)
        assert state is None or state.routes() == []

    def test_reordered_announce_still_one_incident(self):
        # Hijacker announces then withdraws; the channel delays the announce
        # past the withdraw.  The stale announcement still (correctly)
        # raises the alert — ARTEMIS cannot know it was cancelled — but only
        # one incident exists and the pipeline does not wedge.
        rig = Rig()
        channel = ChannelFault(SeededRNG(2), reorder=1.0, jitter=5.0)
        rig.collector.fault_channel = channel
        rig.deliver(announce("10.0.0.0/23"))
        rig.collector.fault_channel = None
        rig.deliver(withdraw("10.0.0.0/23"))
        rig.run()
        assert channel.messages_reordered == 1
        assert len(rig.fired) == 1
        assert len(rig.alerts) == 1
        # Last writer wins under reordering: the vantage is left believing
        # the (stale) hijack route.
        state = rig.monitoring.vantages[VANTAGE]
        assert state.origin_for_address(P("10.0.0.0/23").network) == HIJACKER

    def test_withdraw_after_announce_clears_state(self):
        # Control: in-order delivery does clear the vantage table.
        rig = Rig()
        rig.deliver(announce("10.0.0.0/23"))
        rig.run(5.0)
        rig.deliver(withdraw("10.0.0.0/23"))
        rig.run()
        state = rig.monitoring.vantages[VANTAGE]
        assert state.origin_for_address(P("10.0.0.0/23").network) is None
        # The alert raised while the hijack was live is unaffected.
        assert len(rig.alerts) == 1


class TestStaleReplay:
    def _detector(self, cooldown=50.0):
        fired = []
        detection = one_tenant_plane(
            make_config(alert_cooldown=cooldown),
            notify=lambda _tenant, alert: fired.append(alert),
        )
        return detection, fired

    def test_replay_within_cooldown_attaches_to_resolved(self):
        detection, fired = self._detector(cooldown=50.0)
        detection.ingest(event(t=10.0))
        alert = detection.tenant_state(OPERATOR).alerts.alerts[0]
        alert.resolve(20.0)
        detection.ingest(event(t=30.0, vantage=4))  # replayed stale copy
        assert len(detection.tenant_state(OPERATOR).alerts) == 1
        assert len(fired) == 1  # no second incident announced
        assert alert.status is AlertStatus.RESOLVED  # no resurrection
        assert len(alert.evidence) == 2  # but the replay is kept on record

    def test_replay_after_cooldown_is_fresh_incident(self):
        detection, fired = self._detector(cooldown=50.0)
        detection.ingest(event(t=10.0))
        old = detection.tenant_state(OPERATOR).alerts.alerts[0]
        old.resolve(20.0)
        detection.ingest(event(t=100.0))  # past 20 + 50 cooldown
        assert len(detection.tenant_state(OPERATOR).alerts) == 2
        assert len(fired) == 2
        new = detection.tenant_state(OPERATOR).alerts.alerts[1]
        assert new.id != old.id
        assert new.status is AlertStatus.ACTIVE
        assert old.status is AlertStatus.RESOLVED
        assert len(old.evidence) == 1  # the refire did not touch the old record

    def test_fresh_incident_gets_fresh_evidence_keying(self):
        detection, _ = self._detector(cooldown=50.0)
        detection.ingest(event(t=10.0))
        old = detection.tenant_state(OPERATOR).alerts.alerts[0]
        old.resolve(20.0)
        detection.ingest(event(t=100.0, source="bgpmon"))
        new = detection.tenant_state(OPERATOR).alerts.alerts[1]
        # The new incident's per-source table starts from scratch: it must
        # not inherit the old incident's "ris at t=10" entry.
        state = detection.tenant_state(OPERATOR)
        assert state.first_evidence[new.id] == {"bgpmon": 100.0}
        assert state.first_evidence[old.id] == {"ris": 10.0}
        assert state.per_source_delay(new, 95.0) == {"bgpmon": 5.0}

    def test_replay_through_stream_no_resurrection(self):
        # End-to-end flavour: the same hijack UPDATE replayed after the
        # operator resolved the incident, inside the cooldown window.
        rig = Rig(alert_cooldown=300.0)
        message = announce("10.0.0.0/23")
        rig.deliver(message)
        rig.run(10.0)
        assert len(rig.alerts) == 1
        alert = rig.alerts[0]
        alert.resolve(rig.engine.now)
        rig.deliver(message)  # stale replay
        rig.run(10.0)
        assert len(rig.alerts) == 1
        assert alert.status is AlertStatus.RESOLVED
        assert len(rig.fired) == 1

    def test_lost_message_checks_nothing(self):
        # A fully lossy channel means the event never reaches detection at
        # all — no half-applied state.
        rig = Rig()
        channel = ChannelFault(SeededRNG(3), loss=1.0)
        rig.collector.fault_channel = channel
        rig.deliver(announce("10.0.0.0/23"))
        rig.run()
        assert channel.messages_dropped == 1
        assert rig.detection.events_ingested == 0
        assert rig.alerts == []
