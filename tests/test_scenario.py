"""Integration tests for the full three-phase hijack experiment."""

import gc

import pytest

from repro.errors import ExperimentError
from repro.internet.churn import ChurnConfig
from repro.net.prefix import Prefix
from repro.testbed.scenario import ExperimentResult, HijackExperiment

from conftest import fast_scenario, gc_collections


class TestFullExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return HijackExperiment(fast_scenario(seed=11)).run()

    def test_detected(self, result):
        assert result.detection_delay is not None
        assert result.detection_delay > 0
        assert result.alert_type == "exact-origin"

    def test_announce_delay_matches_controller(self, result):
        # Default controller programming delay is U(10, 20).
        assert 10.0 <= result.announce_delay <= 20.0

    def test_mitigated_fully(self, result):
        assert result.mitigated
        assert result.strategy == "deaggregate"
        assert result.residual_hijack_fraction == 0.0

    def test_timeline_ordering(self, result):
        assert result.total_time == pytest.approx(
            result.detection_delay + result.announce_delay + result.completion_delay
        )

    def test_hijack_spread_observed(self, result):
        assert 0.0 < result.hijack_fraction_peak < 1.0

    def test_per_source_delays_contain_winner(self, result):
        assert result.per_source_delay
        assert min(result.per_source_delay.values()) == pytest.approx(
            result.detection_delay
        )

    def test_series_populated(self, result):
        assert result.ground_truth_series
        assert result.ground_truth_series[-1][1] == 1.0
        assert result.monitor_series

    def test_victim_and_hijacker_distinct(self, result):
        assert result.victim_asn != result.hijacker_asn

    def test_to_dict_roundtrips_jsonable(self, result):
        import json

        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["mitigated"] is True
        assert payload["prefix"] == "10.0.0.0/23"


class TestVariants:
    def test_deterministic_given_seed(self):
        a = HijackExperiment(fast_scenario(seed=4)).run()
        b = HijackExperiment(fast_scenario(seed=4)).run()
        assert a.detection_delay == b.detection_delay
        assert a.total_time == b.total_time

    def test_seeds_differ(self):
        a = HijackExperiment(fast_scenario(seed=4)).run()
        b = HijackExperiment(fast_scenario(seed=5)).run()
        assert (a.detection_delay, a.total_time) != (b.detection_delay, b.total_time)

    def test_auto_mitigate_off_observes_only(self):
        config = fast_scenario(seed=6, auto_mitigate=False, observation_window=120.0)
        result = HijackExperiment(config).run()
        assert result.detection_delay is not None
        assert result.announce_delay is None
        assert not result.mitigated
        assert result.residual_hijack_fraction > 0.0

    def test_slash24_prefix_not_fully_mitigated(self):
        config = fast_scenario(
            seed=7, prefix="10.0.0.0/24", observation_window=120.0
        )
        result = HijackExperiment(config).run()
        assert result.detection_delay is not None
        assert result.strategy == "compete"
        assert not result.mitigated

    def test_with_light_churn(self):
        config = fast_scenario(
            seed=8,
            churn=ChurnConfig(pool_size=5, event_rate=0.1),
            churn_warmup=30.0,
        )
        result = HijackExperiment(config).run()
        assert result.mitigated

    def test_setup_idempotent(self):
        experiment = HijackExperiment(fast_scenario(seed=9))
        experiment.setup()
        network = experiment.network
        experiment.setup()
        assert experiment.network is network

    def test_phase_walls_recorded_but_not_serialized(self):
        experiment = HijackExperiment(fast_scenario(seed=11))
        result = experiment.run()
        assert set(result.phase_walls) == {"setup", "phase1", "phase2", "phase3"}
        assert all(seconds >= 0 for seconds in result.phase_walls.values())
        # Host wall-clock must never leak into serialized results (they are
        # compared bit-for-bit across job counts and machines).
        assert "phase_walls" not in result.to_dict()


@pytest.mark.usefixtures("restore_gc")
class TestCollectorPause:
    """The experiment drives ``engine.step()`` itself for about half its
    events, so it carries the same pause-and-restore contract as
    ``Engine.run()``."""

    def test_collector_state_restored_after_run(self, caller_gc_enabled):
        experiment = HijackExperiment(fast_scenario(seed=5))
        experiment.run_phase1()
        assert gc.isenabled() is caller_gc_enabled
        experiment.run()
        assert gc.isenabled() is caller_gc_enabled

    def test_collector_state_restored_when_the_run_raises(self, caller_gc_enabled):
        experiment = HijackExperiment(fast_scenario(seed=5))
        experiment.setup()
        seen = []

        def boom():
            seen.append(gc.isenabled())
            raise RuntimeError("callback failed")

        experiment.network.engine.schedule(1.0, boom)
        with pytest.raises(RuntimeError):
            experiment.run()
        assert seen == [False]
        assert gc.isenabled() is caller_gc_enabled

    def test_no_collection_runs_while_the_golden_scenario_drains(self):
        # fast_scenario(seed=5) is test_determinism's golden scenario.  With
        # a live collector its run() pays for half a dozen sweeps; paused,
        # the only one counted is the deferred collection that fires as the
        # pause lifts, after the last event.
        gc.enable()
        experiment = HijackExperiment(fast_scenario(seed=5))
        experiment.setup()
        during = []
        engine = experiment.network.engine
        real_step = engine.step

        def counting_step():
            during.append(gc_collections())
            return real_step()

        engine.step = counting_step
        # Empty generation 0 first: the few containers allocated between
        # reading ``before`` and run() pausing the collector must not be
        # the ones that tip it over its threshold.
        gc.collect()
        before = gc_collections()
        experiment.run()
        assert during and set(during) == {before}
        assert gc_collections() - before <= 1
