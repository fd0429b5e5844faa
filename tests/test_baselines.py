"""Tests for the operator model, the human gate in Artemis, and the named
third-party profiles run through the one experiment driver.

``TestThirdPartyPipeline`` and ``TestBaselineExperiment`` keep the names the
suite knows them by; what they exercise today is ``Artemis(operator=…)`` and
``HijackExperiment`` on a :data:`~repro.baselines.PROFILES` scenario.
"""

import pytest

from repro.baselines import PROFILES, OperatorModel
from repro.cli import build_parser
from repro.core.artemis import Artemis
from repro.core.config import ArtemisConfig, OwnedPrefix
from repro.errors import ExperimentError
from repro.eval.experiments import run_artemis_suite
from repro.feeds.events import FeedEvent
from repro.net.prefix import Prefix
from repro.sdn.controller import BGPController
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG
from repro.testbed.scenario import HijackExperiment, ScenarioConfig
from repro.topology.generator import GeneratorConfig

from conftest import fast_scenario


def P(text):
    return Prefix.parse(text)


class TestOperatorModel:
    def test_default_means_are_tens_of_minutes(self):
        operator = OperatorModel()
        assert 10 * 60 < operator.mean_reaction < 90 * 60

    def test_prompt_operator_faster(self):
        assert OperatorModel.prompt().mean_reaction < OperatorModel().mean_reaction

    def test_samples_positive(self):
        operator = OperatorModel()
        rng = SeededRNG(1)
        assert operator.sample_verification(rng) > 0
        assert operator.sample_reconfiguration(rng) > 0

    def test_custom_delays(self):
        operator = OperatorModel(
            verification_delay=Constant(60.0),
            reconfiguration_delay=Constant(30.0),
        )
        assert operator.mean_reaction == 90.0

    def test_streams_are_independent_and_seeded(self):
        phas, rib = PROFILES["phas"]["operator"], PROFILES["rib-dump"]["operator"]
        assert phas.rng(7).random() == phas.rng(7).random()
        assert phas.rng(7).random() != phas.rng(8).random()
        assert phas.rng(7).random() != rib.rng(7).random()


class FakeSource:
    """A push source with the subscribe(callback, prefixes=) protocol."""

    def __init__(self):
        self.callbacks = []

    def subscribe(self, callback, prefixes=None):
        self.callbacks.append(callback)

        class Sub:
            active = True

        return Sub()

    def emit(self, event):
        for callback in self.callbacks:
            callback(event)


def feed_event(t, origin=666, vantage=3):
    return FeedEvent(
        source="batch", collector="c0", vantage_asn=vantage, kind="A",
        prefix=P("10.0.0.0/23"), as_path=(vantage, origin),
        observed_at=max(0.0, t - 1), delivered_at=t,
    )


class TestThirdPartyPipeline:
    """Feed → detection → human → routers, as ``Artemis(operator=…)``."""

    @pytest.fixture
    def pipeline(self, net7):
        """AS6 owns the prefix; a console operator (no programming delay)
        who takes 120 s to verify and 60 s to reconfigure."""
        source = FakeSource()
        artemis = Artemis(
            ArtemisConfig([OwnedPrefix("10.0.0.0/23", {6})]),
            BGPController(net7.engine, [net7.speaker(6)], programming_delay=0.0),
            sources=[source],
            operator=OperatorModel(
                verification_delay=Constant(120.0),
                reconfiguration_delay=Constant(60.0),
            ),
        )
        artemis.start()
        net7.engine.run_for(100.0)
        return net7.engine, artemis, source

    def test_full_human_pipeline_timing(self, pipeline, net7):
        engine, artemis, source = pipeline
        source.emit(feed_event(100.0))
        assert artemis.actions == []  # the alert is waiting for the human
        engine.run()
        (alert,), (action,) = artemis.alerts, artemis.actions
        assert alert.detected_at == 100.0
        assert action.verified_at == 220.0
        assert action.triggered_at == action.announced_at == 280.0
        assert action.announced_at - alert.detected_at == 180.0
        assert net7.speaker(6).originates(P("10.0.0.0/24"))
        assert [e["event"] for e in artemis.log.entries] == [
            "alert", "verified", "approved", "mitigation-announced",
        ]

    def test_single_incident_handled_once(self, pipeline):
        engine, artemis, source = pipeline
        source.emit(feed_event(100.0))
        engine.run()
        # The same offender seen again, from another vantage: evidence on the
        # open incident, not a second trip to the operator.
        source.emit(feed_event(engine.now, vantage=4))
        engine.run()
        assert len(artemis.actions) == 1

    def test_each_incident_gets_its_own_human(self, pipeline):
        engine, artemis, source = pipeline
        source.emit(feed_event(100.0))
        source.emit(feed_event(100.0, origin=777))
        engine.run()
        assert [a.alert.offender_asn for a in artemis.actions] == [666, 777]
        assert {a.verified_at for a in artemis.actions} == {220.0}

    def test_legit_event_no_action(self, pipeline):
        engine, artemis, source = pipeline
        source.emit(feed_event(100.0, origin=6))
        engine.run()
        assert artemis.alerts == [] and artemis.actions == []
        assert engine.now == 100.0  # nothing was scheduled

    def test_no_operator_schedules_nothing_of_its_own(self, net7):
        # ARTEMIS proper: mitigation is triggered inside the alert callback;
        # the only engine events are the controller's (one per /24).
        source = FakeSource()
        artemis = Artemis(
            ArtemisConfig([OwnedPrefix("10.0.0.0/23", {6})]),
            BGPController(net7.engine, [net7.speaker(6)]),
            sources=[source],
        )
        artemis.start()
        before = net7.engine.pending_events()
        source.emit(feed_event(0.0))
        assert len(artemis.actions) == 1
        assert artemis.actions[0].verified_at is None
        scheduled = net7.engine.pending_events() - before
        assert scheduled == len(artemis.actions[0].prefixes)

    def test_argus_uses_prompt_operator(self):
        argus = PROFILES["argus"]["operator"]
        assert argus.mean_reaction < OperatorModel().mean_reaction
        assert argus.mean_reaction < PROFILES["phas"]["operator"].mean_reaction


FAST_PHAS = dict(
    PROFILES["phas"],
    operator=OperatorModel(
        verification_delay=Constant(120.0), reconfiguration_delay=Constant(60.0)
    ),
)


def repro_scenario(**overrides):
    """The churn-free 56-AS world of EXPERIMENTS.md "One experiment driver"."""
    return ScenarioConfig(
        seed=3,
        topology=GeneratorConfig(num_tier1=4, num_tier2=12, num_stubs=40),
        churn=None,
        churn_warmup=0.0,
        **overrides,
    )


def bgpmon_fault(kind, **fields):
    return {"seed": 0, "faults": [dict(kind=kind, target="bgpmon", at=0.0, **fields)]}


class TestBaselineExperiment:
    @pytest.fixture(scope="class")
    def experiment(self):
        experiment = HijackExperiment(fast_scenario(seed=13, **FAST_PHAS))
        experiment.result = experiment.run()
        return experiment

    @pytest.fixture(scope="class")
    def result(self, experiment):
        return experiment.result

    def test_detection_is_batch_bound(self, result):
        # The 15-minute update file plus fetch delay dominates.
        assert result.detection_delay is not None
        assert result.detection_delay > 25.0
        assert set(result.per_source_delay) == {"routeviews"}

    def test_reaction_is_operator_bound(self, result):
        assert result.announce_delay == pytest.approx(180.0)

    def test_mitigated_eventually(self, result):
        assert result.mitigated
        assert result.total_time > result.detection_delay + result.announce_delay

    def test_log_reads_alert_to_resolved(self, experiment):
        # ALERT → VERIFIED → APPROVED → MITIGATE → RESOLVED, and an ARTEMIS
        # run the same without the two human lines.
        steps = [line.split()[1] for line in experiment.artemis.log.to_text().splitlines()]
        assert steps == ["ALERT", "VERIFIED", "APPROVED", "MITIGATE", "RESOLVED"]
        artemis = HijackExperiment(fast_scenario(seed=13))
        artemis.run()
        steps = [line.split()[1] for line in artemis.artemis.log.to_text().splitlines()]
        assert steps == ["ALERT", "MITIGATE", "RESOLVED"]
        assert artemis.artemis.log.entries[-1]["time"] == artemis.artemis.alerts[0].resolved_at

    def test_profile_names_are_the_cli_systems(self):
        names = ["argus", "phas", "rib-dump"]
        assert sorted(PROFILES) == names
        assert build_parser().parse_args(["baselines", "--systems", *names]).systems == names

    def test_every_profile_builds(self):
        # A profile is ScenarioConfig keyword arguments: it validates, sets up
        # and subscribes exactly the one feed it names.
        for name, feed in [
            ("argus", "bgpmon"), ("phas", "batch"), ("rib-dump", "rib_archive")
        ]:
            experiment = HijackExperiment(fast_scenario(seed=14, **PROFILES[name]))
            experiment.setup()
            assert experiment.artemis.sources == [getattr(experiment.monitors, feed)]
            assert experiment.artemis.operator is PROFILES[name]["operator"]
            assert experiment.controller.programming_delay.mean == 0.0
            assert experiment.config.detection_timeout == 6 * 3600.0
            # Only the rib-dump archive changes the world it is deployed into.
            assert (experiment.monitors.rib_archive is None) == (name != "rib-dump")

    def test_batch_source_needs_the_archive_deployed(self):
        with pytest.raises(ExperimentError, match="with_batch"):
            fast_scenario(monitors=dict(with_batch=False), **PROFILES["phas"])

    def test_profile_suite_parallel_equals_serial(self):
        template = fast_scenario(**FAST_PHAS)
        serial = run_artemis_suite(template, seeds=[1, 2])
        parallel = run_artemis_suite(template, seeds=[1, 2], jobs=2)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]
        assert all(r.mitigated for r in serial)

    def test_warm_start_equals_cold(self):
        from repro.testbed.checkpoint import clear_registry

        cold = HijackExperiment(fast_scenario(seed=5, **PROFILES["argus"])).run()
        try:
            warm = HijackExperiment(
                fast_scenario(seed=5, warm_start=True, **PROFILES["argus"])
            ).run()
        finally:
            clear_registry()
        assert "restore" in warm.phase_walls and "phase1" not in warm.phase_walls
        assert warm.to_dict() == cold.to_dict()


class TestEveryRowDefendsTheSameAttack:
    """The table `repro baselines` prints compares defenders, so every row
    must face the attack, the fault plan and the taxonomy config the ARTEMIS
    row does (each case below failed at the PR 21 parent commit)."""

    def pair(self, **attack):
        artemis = HijackExperiment(repro_scenario(**attack)).run()
        argus = HijackExperiment(repro_scenario(**attack, **PROFILES["argus"])).run()
        assert argus.hijack_time == artemis.hijack_time
        assert argus.hijacker_asn == artemis.hijacker_asn
        return artemis, argus

    @pytest.mark.parametrize(
        "attack, alert_type",
        [
            # A forged origin further from the hijacker than type-1's one hop.
            (dict(hijack_type="type-2"), "path-n"),
            (dict(hijack_type="type-1"), "path"),
            (dict(hijack_type="squatting"), "squatting"),
        ],
        ids=["forge-origin", "type-1", "squatting"],
    )
    def test_same_attack_same_alert_type(self, attack, alert_type):
        artemis, argus = self.pair(**attack)
        assert argus.alert_type == artemis.alert_type == alert_type
        assert argus.detection_delay >= artemis.detection_delay
        assert argus.mitigated

    def test_fault_plan_is_armed(self):
        unfaulted = HijackExperiment(repro_scenario(**PROFILES["argus"])).run()
        assert unfaulted.detection_delay == pytest.approx(36.65, abs=0.01)
        # Every BGPmon vantage sees the hijack within seconds; a churn-free
        # world never repeats it, so a defender whose only feed was down at
        # that moment stays blind, where ARTEMIS has two more feeds.
        artemis, argus = self.pair(faults=bgpmon_fault("outage", duration=600.0))
        assert argus.fault_log[0] == artemis.fault_log[0]
        assert argus.fault_log[0] == [argus.hijack_time, "outage", "bgpmon"]
        assert artemis.detection_delay is not None
        assert argus.detection_delay is None and not argus.mitigated
        # A slow feed instead of a dead one: detected, exactly that much later.
        _, slowed = self.pair(faults=bgpmon_fault("delay", duration=600.0, add=100.0))
        assert slowed.faults_injected == 1
        assert slowed.detection_delay == pytest.approx(
            unfaulted.detection_delay + 100.0
        )
