"""Tests for the SDN controller and the mitigation service."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.speaker import BGPSpeaker
from repro.core.alerts import AlertStatus, AlertType, HijackAlert
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.core.mitigation import HelperFleet, MitigationService
from repro.errors import MitigationError
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix
from repro.sdn.controller import BGPController
from repro.sim.engine import Engine
from repro.sim.latency import Constant, Uniform
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
    return HijackAlert(alert_type, P(owned), P(announced), offender, event, alert_id=1)


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
        (op,) = controller.reconcile([P("10.0.0.0/24")])
        assert op.kind == "announce" and op.pending
        assert controller.pending == [op]
        assert not router.originates(P("10.0.0.0/24"))
        engine.run()
        assert op.completed_at == 15.0
        assert op.latency == 15.0
        assert controller.pending == []
        assert router.originates(P("10.0.0.0/24"))

    def test_withdraw(self, world):
        engine, router, controller = world
        controller.reconcile([P("10.0.0.0/24")])
        engine.run()
        (op,) = controller.reconcile([])
        assert op.kind == "withdraw"
        engine.run()
        assert not router.originates(P("10.0.0.0/24"))

    def test_withdraw_not_originated_is_noop(self, world):
        engine, router, controller = world
        # Announce and withdraw land at the same instant; each applies the
        # state at that instant, so the router never originates the prefix.
        ops = controller.reconcile([P("10.0.0.0/24")]) + controller.reconcile([])
        assert [op.kind for op in ops] == ["announce", "withdraw"]
        engine.run()
        assert all(op.completed_at == 15.0 for op in ops)
        assert not router.originates(P("10.0.0.0/24"))

    def test_on_complete_callback(self, world):
        engine, router, controller = world
        done = []
        (op,) = controller.reconcile([P("10.0.0.0/24")])
        op.on_complete.append(done.append)
        engine.run()
        assert done == [op]

    def test_reconcile_emits_only_the_difference(self, world):
        _engine, _router, controller = world
        a, b, c = P("10.0.0.0/24"), P("10.0.1.0/24"), P("10.0.2.0/24")
        controller.reconcile([b, a])
        assert controller.reconcile([a, b]) == []
        ops = controller.reconcile([c, a])
        # Additions in target order, then drops in prefix order.
        assert [(op.kind, op.prefix) for op in ops] == [("announce", c), ("withdraw", b)]
        assert controller.programmed == {a, c}

    def test_needs_routers(self):
        with pytest.raises(MitigationError):
            BGPController(Engine(), [])


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
        service.rollback(action)
        assert controller.pending == []  # nothing withdrawn
        engine.run()
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
        service.rollback(action)
        assert [op.prefix for op in controller.pending] == [P("10.0.1.0/24")]
        engine.run()
        assert router.originates(P("10.0.0.0/24"))
        assert not router.originates(P("10.0.1.0/24"))

    def test_reexecute_of_programmed_prefixes_emits_no_op(self, world):
        engine, _router, controller = world
        service = make_service(controller)
        done = []
        service.on_announced(done.append)
        service.execute(make_alert())
        engine.run()
        again = service.execute(make_alert())  # the same hijack, alerted anew
        assert controller.pending == []
        engine.run()
        assert again.announced_at == again.triggered_at
        assert done[-1] is again


class TestNoOrphans:
    """Ending an incident leaves exactly what open incidents still need."""

    def test_rollback_during_programming(self):
        # A withdraw drawn shorter than its announce lands first; the
        # announce must then leave the /24 unannounced.
        for seed in range(200):
            engine = Engine()
            router = BGPSpeaker(64500, engine, rng=SeededRNG(1))
            router.originate(P("10.0.0.0/23"))
            controller = BGPController(
                engine, [router], programming_delay=Uniform(10.0, 20.0),
                rng=SeededRNG(seed),
            )
            service = make_service(controller)
            action = service.execute(make_alert())
            engine.run_for(2.0)
            service.rollback(action)
            engine.run()
            assert router.originated_prefixes == [P("10.0.0.0/23")], seed

    def test_rollback_keeps_what_another_incident_needs(self, world):
        engine, router, controller = world
        router.originate(P("10.0.0.0/23"))
        service = make_service(controller)
        exact = service.execute(make_alert())
        sub = service.execute(
            make_alert(AlertType.SUB_PREFIX, announced="10.0.1.0/24", offender=777)
        )
        assert sub.strategy == "compete" and sub.prefixes == [P("10.0.1.0/24")]
        engine.run()
        service.rollback(exact)
        engine.run()
        assert not router.originates(P("10.0.0.0/24"))
        assert router.originates(P("10.0.1.0/24"))
        service.rollback(sub)
        engine.run()
        assert router.originated_prefixes == [P("10.0.0.0/23")]


#: Overlapping incidents on an owned /23 and an owned /24: alert arguments
#: and the model's plan (prefixes, whether the helpers announce them too).
INCIDENTS = {
    "exact": (
        dict(),
        ({P("10.0.0.0/24"), P("10.0.1.0/24")}, False),
    ),
    "sub-low": (
        dict(alert_type=AlertType.SUB_PREFIX, announced="10.0.0.0/24"),
        ({P("10.0.0.0/24")}, True),
    ),
    "sub-high": (
        dict(alert_type=AlertType.SUB_PREFIX, announced="10.0.1.0/24"),
        ({P("10.0.1.0/24")}, True),
    ),
    "owned-24": (
        dict(owned="10.0.2.0/24", announced="10.0.2.0/24"),
        ({P("10.0.2.0/24")}, True),
    ),
}

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("execute"), st.sampled_from(sorted(INCIDENTS))),
        st.tuples(st.just("rollback"), st.integers(0, 7)),
        st.tuples(st.just("run"), st.floats(0.0, 30.0)),
    ),
    max_size=14,
)


@settings(max_examples=150, deadline=None)
@given(steps=STEPS, seed=st.integers(0, 2**16))
def test_quiescent_routers_originate_the_open_plans(steps, seed):
    engine = Engine()
    owned = {P("10.0.0.0/23"), P("10.0.2.0/24")}
    victim = BGPSpeaker(64500, engine, rng=SeededRNG(1))
    for prefix in owned:
        victim.originate(prefix)  # configured outside the controller
    controller = BGPController(
        engine, [victim], programming_delay=Uniform(10.0, 20.0), rng=SeededRNG(seed)
    )
    helpers = [
        BGPController(engine, [BGPSpeaker(asn, engine, rng=SeededRNG(asn))],
                      rng=SeededRNG(seed).substream("helper", asn))
        for asn in (100, 200)
    ]
    config = ArtemisConfig(
        [OwnedPrefix(str(prefix), {64500, 100, 200}) for prefix in sorted(owned)]
    )
    service = MitigationService(
        config, controller, helpers=HelperFleet(helpers, rng=SeededRNG(seed))
    )
    model = []  # (action, plan) of every open incident, in execute order
    for step, arg in steps:
        if step == "execute":
            alert_kw, plan = INCIDENTS[arg]
            model.append((service.execute(make_alert(**alert_kw)), plan))
        elif step == "rollback" and model:
            action, _plan = model.pop(arg % len(model))
            service.rollback(action)
        elif step == "run":
            engine.run_for(arg)
    engine.run()
    assert [action for action, _plan in model] == service.open_actions
    assert all(action.announced_at is not None for action in service.actions)
    announced = set().union(*(plan for _action, (plan, _helped) in model))
    helped = set().union(*(plan for _action, (plan, engaged) in model if engaged))
    assert set(victim.originated_prefixes) == owned | announced
    for helper in helpers:
        for router in helper.routers.values():
            assert set(router.originated_prefixes) == helped
