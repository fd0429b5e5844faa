"""Tests for the SDN controller and the mitigation service."""

import pytest

from repro.bgp.speaker import BGPSpeaker
from repro.core.alerts import AlertStatus, AlertType, HijackAlert
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.core.mitigation import MitigationService
from repro.errors import MitigationError
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix
from repro.sdn.controller import BGPController
from repro.sim.engine import Engine
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG


def P(text):
    return Prefix.parse(text)


def make_alert(alert_type=AlertType.EXACT_ORIGIN, owned="10.0.0.0/23",
               announced="10.0.0.0/23", offender=666):
    event = FeedEvent(
        source="ris", collector="c0", vantage_asn=3, kind="A",
        prefix=P(announced), as_path=(3, offender),
        observed_at=9.0, delivered_at=10.0,
    )
    return HijackAlert(alert_type, P(owned), P(announced), offender, event)


@pytest.fixture
def world():
    engine = Engine()
    router = BGPSpeaker(64500, engine, rng=SeededRNG(1))
    controller = BGPController(
        engine, [router], programming_delay=Constant(15.0), rng=SeededRNG(2)
    )
    return engine, router, controller


class TestController:
    def test_announce_after_programming_delay(self, world):
        engine, router, controller = world
        op = controller.announce_prefix("10.0.0.0/24")
        assert op.pending
        assert not router.originates(P("10.0.0.0/24"))
        engine.run()
        assert op.completed_at == 15.0
        assert op.latency == 15.0
        assert router.originates(P("10.0.0.0/24"))

    def test_withdraw(self, world):
        engine, router, controller = world
        controller.announce_prefix("10.0.0.0/24")
        engine.run()
        controller.withdraw_prefix("10.0.0.0/24")
        engine.run()
        assert not router.originates(P("10.0.0.0/24"))

    def test_withdraw_not_originated_is_noop(self, world):
        engine, router, controller = world
        op = controller.withdraw_prefix("10.0.0.0/24")
        engine.run()
        assert op.completed_at is not None

    def test_on_complete_callback(self, world):
        engine, router, controller = world
        done = []
        controller.announce_prefix("10.0.0.0/24", on_complete=done.append)
        engine.run()
        assert len(done) == 1 and done[0].kind == "announce"

    def test_unknown_router_rejected(self, world):
        _engine, _router, controller = world
        with pytest.raises(MitigationError):
            controller.announce_prefix("10.0.0.0/24", router_asns=[999])

    def test_needs_routers(self):
        with pytest.raises(MitigationError):
            BGPController(Engine(), [])

    def test_ops_recorded(self, world):
        engine, _router, controller = world
        controller.announce_prefix("10.0.0.0/24")
        controller.withdraw_prefix("10.0.0.0/24")
        assert len(controller.ops) == 2


def make_service(controller, **config_kw):
    config = ArtemisConfig([OwnedPrefix("10.0.0.0/23", {64500})], **config_kw)
    return MitigationService(config, controller)


class TestMitigationPlanning:
    def test_exact_hijack_deaggregates(self, world):
        _engine, _router, controller = world
        service = make_service(controller)
        action = service.plan(make_alert())
        assert action.strategy == "deaggregate"
        assert action.prefixes == [P("10.0.0.0/24"), P("10.0.1.0/24")]
        assert action.expected_full_recovery

    def test_deaggregation_levels_capped_by_filter_limit(self, world):
        _engine, _router, controller = world
        service = make_service(controller, deaggregation_levels=5)
        action = service.plan(make_alert())
        # /23 with 5 levels would be /28s, but /24 is the filtering limit.
        assert all(p.length == 24 for p in action.prefixes)
        assert len(action.prefixes) == 2

    def test_subprefix_hijack_targets_announced_prefix(self, world):
        _engine, _router, controller = world
        service = make_service(controller)
        alert = make_alert(
            alert_type=AlertType.SUB_PREFIX, announced="10.0.0.0/24"
        )
        action = service.plan(alert)
        # /24 cannot be de-aggregated below the filter limit → compete.
        assert action.strategy == "compete"
        assert action.prefixes == [P("10.0.0.0/24")]
        assert not action.expected_full_recovery

    def test_slash24_owned_prefix_competes(self, world):
        _engine, _router, controller = world
        config = ArtemisConfig([OwnedPrefix("10.0.0.0/24", {64500})])
        service = MitigationService(config, controller)
        alert = make_alert(owned="10.0.0.0/24", announced="10.0.0.0/24")
        action = service.plan(alert)
        assert action.strategy == "compete"
        assert not action.expected_full_recovery

    def test_path_hijack_deaggregates_owned(self, world):
        _engine, _router, controller = world
        service = make_service(controller)
        alert = make_alert(alert_type=AlertType.PATH)
        action = service.plan(alert)
        assert action.strategy == "deaggregate"
        assert action.prefixes == [P("10.0.0.0/24"), P("10.0.1.0/24")]


class TestMitigationExecution:
    def test_execute_programs_routers(self, world):
        engine, router, controller = world
        service = make_service(controller)
        alert = make_alert()
        action = service.execute(alert)
        assert alert.status is AlertStatus.MITIGATING
        assert action.announced_at is None and action.announce_delay is None
        engine.run()
        assert action.announced_at == engine.now
        assert action.announce_delay == pytest.approx(15.0)
        assert router.originates(P("10.0.0.0/24"))
        assert router.originates(P("10.0.1.0/24"))

    def test_announced_callback(self, world):
        engine, _router, controller = world
        service = make_service(controller)
        done = []
        service.on_announced(done.append)
        service.execute(make_alert())
        engine.run()
        assert len(done) == 1

    def test_execute_resolved_alert_rejected(self, world):
        _engine, _router, controller = world
        service = make_service(controller)
        alert = make_alert()
        alert.resolve(50.0)
        with pytest.raises(MitigationError):
            service.execute(alert)
        assert service.actions == []
        assert alert.status is AlertStatus.RESOLVED

    def test_rollback_withdraws_non_owned(self, world):
        engine, router, controller = world
        service = make_service(controller)
        action = service.execute(make_alert())
        engine.run()
        service.rollback(action)
        engine.run()
        assert not router.originates(P("10.0.0.0/24"))
        assert not router.originates(P("10.0.1.0/24"))

    def test_rollback_never_withdraws_owned(self, world):
        engine, router, controller = world
        config = ArtemisConfig([OwnedPrefix("10.0.0.0/24", {64500})])
        service = MitigationService(config, controller)
        router.originate(P("10.0.0.0/24"))
        alert = make_alert(owned="10.0.0.0/24", announced="10.0.0.0/24")
        action = service.execute(alert)  # compete: re-announce the /24
        engine.run()
        ops = service.rollback(action)
        engine.run()
        assert ops == []  # nothing withdrawn
        assert router.originates(P("10.0.0.0/24"))

    def test_rollback_skips_only_the_owned_prefixes(self, world):
        engine, router, controller = world
        # The /23's first half is configured as owned in its own right, so
        # rolling back the de-aggregation keeps it and withdraws the other.
        config = ArtemisConfig(
            [OwnedPrefix("10.0.0.0/23", {64500}), OwnedPrefix("10.0.0.0/24", {64500})]
        )
        service = MitigationService(config, controller)
        action = service.execute(make_alert())
        assert action.prefixes == [P("10.0.0.0/24"), P("10.0.1.0/24")]
        engine.run()
        ops = service.rollback(action)
        engine.run()
        assert [op.prefix for op in ops] == [P("10.0.1.0/24")]
        assert router.originates(P("10.0.0.0/24"))
        assert not router.originates(P("10.0.1.0/24"))
