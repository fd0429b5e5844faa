"""Tests for background churn."""

import pytest

from repro.errors import SimulationError
from repro.internet.churn import BackgroundChurn, ChurnConfig
from repro.internet.tracker import OriginTracker
from repro.net.prefix import Prefix


class TestChurnConfig:
    def test_defaults(self):
        config = ChurnConfig()
        assert config.pool_size == 40
        assert config.event_rate == 0.25

    def test_validation(self):
        with pytest.raises(SimulationError):
            ChurnConfig(pool_size=0)
        with pytest.raises(SimulationError):
            ChurnConfig(event_rate=0)


class TestChurnBehaviour:
    def test_pool_prefixes_inside_pool_range(self, net7):
        churn = BackgroundChurn(net7, ChurnConfig(pool_size=10), seed=1)
        pool = Prefix.parse("172.16.0.0/12")
        assert len(churn.prefixes) == 10
        assert all(pool.contains(p) for p in churn.prefixes)

    def test_homes_are_topology_ases(self, net7):
        churn = BackgroundChurn(net7, ChurnConfig(pool_size=10), seed=1)
        assert all(asn in net7.speakers for asn in churn.home.values())

    def test_events_fire_and_propagate(self, net7):
        churn = BackgroundChurn(net7, ChurnConfig(pool_size=10, event_rate=1.0), seed=1)
        churn.start()
        net7.run_for(30.0)
        assert churn.events_generated > 10
        # Some churn prefix is visible somewhere else in the network.
        visible = 0
        for prefix in churn.prefixes:
            for asn in net7.asns():
                route = net7.speaker(asn).best_route(prefix)
                if route is not None:
                    visible += 1
        assert visible > 0

    def test_stop_halts_events(self, net7):
        churn = BackgroundChurn(net7, ChurnConfig(event_rate=1.0), seed=1)
        churn.start()
        net7.run_for(10.0)
        churn.stop()
        count = churn.events_generated
        net7.run_for(20.0)
        assert churn.events_generated == count

    def test_double_start_rejected(self, net7):
        churn = BackgroundChurn(net7, seed=1)
        churn.start()
        with pytest.raises(SimulationError):
            churn.start()

    def test_deterministic(self, graph7):
        from conftest import fast_network_config
        from repro.internet.network import Network

        counts = []
        for _ in range(2):
            net = Network(
                __import__("conftest").tiny_graph(),
                config=fast_network_config(),
                seed=3,
            )
            churn = BackgroundChurn(net, ChurnConfig(event_rate=0.5), seed=3)
            churn.start()
            net.run_for(60.0)
            counts.append((churn.events_generated, net.engine.events_processed))
        assert counts[0] == counts[1]

    def test_churn_does_not_touch_experiment_prefix(self, net7):
        tracker = OriginTracker(net7, "10.0.0.0/23")
        churn = BackgroundChurn(net7, ChurnConfig(event_rate=1.0), seed=2)
        churn.start()
        net7.run_for(30.0)
        assert tracker.flips == []
