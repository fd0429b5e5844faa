"""Tests for the paper-lineage extensions: forged-path (type-1) hijacks,
outsourced mitigation (helper fleet), and subscription-level source ablation."""

import pytest

from repro.bgp.policy import Relationship
from repro.bgp.speaker import BGPSpeaker
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.core.mitigation import HelperFleet, MitigationService
from repro.errors import BGPError, ExperimentError, MitigationError
from repro.net.prefix import Prefix
from repro.sdn.controller import BGPController
from repro.sim.engine import Engine
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG
from repro.testbed.scenario import HijackExperiment, ScenarioConfig

from conftest import fast_scenario


def P(text):
    return Prefix.parse(text)


class TestForgedOrigination:
    def test_forged_route_claims_victim_origin(self, net7):
        net7.speaker(7).originate_forged(P("10.0.0.0/23"), (6,))
        net7.run_until_converged()
        # Everyone believes the origin is AS6 — but paths run through AS7.
        for asn in net7.asns():
            if asn in (6, 7):
                continue
            route = net7.speaker(asn).best_route(P("10.0.0.0/23"))
            assert route is not None
            assert route.origin_as == 6
            assert 7 in route.as_path

    def test_victim_discards_via_loop_detection(self, net7):
        net7.speaker(7).originate_forged(P("10.0.0.0/23"), (6,))
        net7.run_until_converged()
        best = net7.speaker(6).best_route(P("10.0.0.0/23"))
        # AS6 sees its own ASN in the path and never accepts the forgery.
        assert best is None or best.is_local

    def test_forged_path_validation(self, net7):
        speaker = net7.speaker(7)
        with pytest.raises(BGPError):
            speaker.originate_forged(P("10.0.0.0/23"), ())
        with pytest.raises(BGPError):
            speaker.originate_forged(P("10.0.0.0/23"), (7, 6))
        speaker.originate_forged(P("10.0.0.0/23"), (6,))
        with pytest.raises(BGPError):
            speaker.originate_forged(P("10.0.0.0/23"), (6,))

    def test_forged_withdrawable(self, net7):
        net7.speaker(7).originate_forged(P("10.0.0.0/23"), (6,))
        net7.run_until_converged()
        net7.speaker(7).withdraw_origin(P("10.0.0.0/23"))
        net7.run_until_converged()
        assert net7.speaker(3).best_route(P("10.0.0.0/23")) is None


class TestForgedScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return HijackExperiment(fast_scenario(seed=11, hijack_type="type-1")).run()

    def test_detected_as_path_hijack(self, result):
        assert result.alert_type == "path"
        assert result.detection_delay is not None

    def test_mitigated_by_deaggregation(self, result):
        assert result.strategy == "deaggregate"
        assert result.mitigated
        assert result.residual_hijack_fraction == 0.0

    def test_path_infection_observed(self, result):
        assert result.hijack_fraction_peak > 0.0
        assert result.ground_truth_series[0][1] == 1.0
        assert result.ground_truth_series[-1][1] == 1.0


class TestHelperFleet:
    def _fleet(self, engine, asns):
        controllers = [
            BGPController(
                engine,
                [BGPSpeaker(asn, engine, rng=SeededRNG(asn))],
                programming_delay=Constant(5.0),
                rng=SeededRNG(asn),
            )
            for asn in asns
        ]
        return controllers, HelperFleet(
            controllers, coordination_delay=Constant(10.0), rng=SeededRNG(0)
        )

    def test_needs_controllers(self):
        with pytest.raises(MitigationError):
            HelperFleet([])

    def test_helper_asns(self):
        engine = Engine()
        _controllers, fleet = self._fleet(engine, [100, 200])
        assert fleet.helper_asns == [100, 200]

    def _service(self, engine, fleet):
        victim = BGPSpeaker(64500, engine, rng=SeededRNG(1))
        controller = BGPController(
            engine, [victim], programming_delay=Constant(1.0), rng=SeededRNG(2)
        )
        config = ArtemisConfig(
            [OwnedPrefix("10.0.0.0/24", {64500, *fleet.helper_asns})]
        )
        return MitigationService(config, controller, helpers=fleet)

    def test_engage_announces_after_coordination(self):
        engine = Engine()
        controllers, fleet = self._fleet(engine, [100, 200])
        service = self._service(engine, fleet)
        action = service.execute(self._alert("10.0.0.0/24", "10.0.0.0/24"))
        assert action.helpers_engaged
        engine.run_for(12.0)
        ops = [op for controller in controllers for op in controller.pending]
        assert [(op.kind, op.requested_at) for op in ops] == [("announce", 10.0)] * 2
        engine.run()
        for controller in controllers:
            router = next(iter(controller.routers.values()))
            assert router.originates(P("10.0.0.0/24"))
        # coordination (10s) + programming (5s)
        assert all(op.completed_at == pytest.approx(15.0) for op in ops)

    def test_disengage_withdraws(self):
        engine = Engine()
        controllers, fleet = self._fleet(engine, [100])
        service = self._service(engine, fleet)
        action = service.execute(self._alert("10.0.0.0/24", "10.0.0.0/24"))
        engine.run()
        service.rollback(action)
        engine.run()
        router = next(iter(controllers[0].routers.values()))
        assert not router.originates(P("10.0.0.0/24"))

    def test_rollback_inside_coordination_window(self):
        # The helper reconciles against the target when it gets to it; a
        # rollback before then leaves it nothing to announce.
        engine = Engine()
        controllers, fleet = self._fleet(engine, [100])
        service = self._service(engine, fleet)
        action = service.execute(self._alert("10.0.0.0/24", "10.0.0.0/24"))
        engine.run_for(1.0)
        service.rollback(action)
        engine.run()
        router = next(iter(controllers[0].routers.values()))
        assert router.originated_prefixes == []

    def _alert(self, owned, announced):
        from repro.core.alerts import AlertType, HijackAlert
        from repro.feeds.events import FeedEvent

        event = FeedEvent(
            source="ris", collector="c0", vantage_asn=3, kind="A",
            prefix=P(announced), as_path=(3, 666),
            observed_at=9.0, delivered_at=10.0,
        )
        return HijackAlert(
            AlertType.EXACT_ORIGIN, P(owned), P(announced), 666, event, alert_id=1
        )

    def test_engaged_only_for_partial_recovery(self):
        engine = Engine()
        controllers, fleet = self._fleet(engine, [100])
        victim = BGPSpeaker(64500, engine, rng=SeededRNG(1))
        controller = BGPController(
            engine, [victim], programming_delay=Constant(1.0), rng=SeededRNG(2)
        )
        config = ArtemisConfig(
            [
                OwnedPrefix("10.0.0.0/23", {64500, 100}),
                OwnedPrefix("10.1.0.0/24", {64500, 100}),
            ]
        )
        service = MitigationService(config, controller, helpers=fleet)
        # /23 → de-aggregation fully recovers: helpers stay out of it.
        action = service.execute(self._alert("10.0.0.0/23", "10.0.0.0/23"))
        engine.run()
        assert not action.helpers_engaged
        helper_router = next(iter(controllers[0].routers.values()))
        assert helper_router.originated_prefixes == []
        # /24 → compete: helpers engaged.
        action24 = service.execute(self._alert("10.1.0.0/24", "10.1.0.0/24"))
        engine.run()
        assert action24.helpers_engaged
        assert helper_router.originates(P("10.1.0.0/24"))


class TestHelperScenario:
    def test_helpers_reduce_residual_on_slash24(self):
        base = fast_scenario(seed=12, prefix="10.0.0.0/24", observation_window=200.0)
        without = HijackExperiment(base).run()
        helped_cfg = fast_scenario(
            seed=12, prefix="10.0.0.0/24", observation_window=200.0, num_helpers=3
        )
        helped = HijackExperiment(helped_cfg).run()
        assert without.strategy == helped.strategy == "compete"
        assert helped.residual_hijack_fraction < without.residual_hijack_fraction

    def test_helpers_engaged_flag(self):
        config = fast_scenario(
            seed=12, prefix="10.0.0.0/24", observation_window=120.0, num_helpers=2
        )
        experiment = HijackExperiment(config)
        experiment.run()
        action = experiment.artemis.actions[0]
        assert action.helpers_engaged
        for controller in experiment.artemis.mitigation.helpers.controllers:
            for router in controller.routers.values():
                assert router.originates(P("10.0.0.0/24"))

    def test_helpers_not_engaged_when_deaggregation_works(self):
        config = fast_scenario(seed=12, num_helpers=2)  # /23: full recovery
        experiment = HijackExperiment(config)
        result = experiment.run()
        assert result.mitigated
        action = experiment.artemis.actions[0]
        assert not action.helpers_engaged

    def test_helper_announcements_not_alerts(self):
        # Helpers are whitelisted origins: their competitive announcements
        # must not raise fresh incidents.
        config = fast_scenario(
            seed=12, prefix="10.0.0.0/24", observation_window=200.0, num_helpers=2
        )
        experiment = HijackExperiment(config)
        experiment.run()
        assert len(experiment.artemis.alerts) == 1


class TestEnabledSources:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            fast_scenario(enabled_sources=("carrier-pigeon",))
        with pytest.raises(ExperimentError):
            fast_scenario(enabled_sources=())

    def test_single_source_still_detects(self):
        config = fast_scenario(seed=11, enabled_sources=("ris",))
        result = HijackExperiment(config).run()
        assert result.detection_delay is not None
        assert set(result.per_source_delay) == {"ris"}

    def test_ablated_world_is_identical_until_mitigation(self):
        # The BGP world must be bit-identical across source ablations right
        # up to the moment the (differently-timed) mitigations fire — the
        # hijack reaches every vantage point at exactly the same instants.
        full = HijackExperiment(fast_scenario(seed=11))
        full_result = full.run()
        ablated = HijackExperiment(
            fast_scenario(seed=11, enabled_sources=("ris", "bgpmon"))
        )
        ablated_result = ablated.run()
        assert full_result.hijack_time == ablated_result.hijack_time
        divergence = full_result.hijack_time + min(
            full_result.detection_delay, ablated_result.detection_delay
        )
        full_flips = [f for f in full.tracker.flips if f[0] < divergence]
        ablated_flips = [f for f in ablated.tracker.flips if f[0] < divergence]
        assert full_flips == ablated_flips
        # Removing a source can only delay the combined detection.
        assert full_result.detection_delay <= ablated_result.detection_delay

    def test_periscope_not_polling_when_disabled(self):
        config = fast_scenario(seed=11, enabled_sources=("ris", "bgpmon"))
        experiment = HijackExperiment(config)
        experiment.run()
        assert experiment.monitors.periscope.queries_sent == 0
