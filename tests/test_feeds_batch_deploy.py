"""Tests for batch archives and the monitoring deployment helper."""

import pytest

from repro.errors import FeedError
from repro.feeds.batch import BatchArchive
from repro.feeds.collector import RouteCollector
from repro.feeds.deploy import deploy_monitors
from repro.net.prefix import Prefix
from repro.sim.latency import Constant
from repro.sim.rng import SeededRNG


def P(text):
    return Prefix.parse(text)


def make_archive(net, vantage=3, **kwargs):
    kwargs.setdefault("fetch_delay", Constant(5.0))
    archive = BatchArchive(net.engine, rng=SeededRNG(0), **kwargs)
    collector = RouteCollector("batch-c0", net.engine)
    archive.attach_collector(collector)
    net.add_monitor_session(vantage, collector)
    return archive


class TestBatchArchive:
    def test_nothing_before_publication(self, net7):
        archive = make_archive(net7, update_interval=900.0)
        events = []
        archive.subscribe(events.append)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(800.0)  # before the 15-min boundary
        assert events == []

    def test_updates_delivered_after_interval_plus_fetch(self, net7):
        archive = make_archive(net7, update_interval=900.0)
        events = []
        archive.subscribe(events.append)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(1000.0)
        assert events
        event = events[0]
        assert event.delivered_at >= 900.0 + 5.0
        assert event.observed_at < 900.0  # observation predates the file

    def test_rib_dump_contains_current_table(self, net7):
        archive = make_archive(
            net7, update_interval=100_000.0, rib_interval=7200.0
        )
        events = []
        archive.subscribe(events.append)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(7300.0)
        assert any(e.prefix == P("10.0.0.0/23") for e in events)

    def test_publish_updates_can_be_disabled(self, net7):
        archive = make_archive(
            net7, update_interval=900.0, rib_interval=7200.0, publish_updates=False
        )
        events = []
        archive.subscribe(events.append)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(2000.0)  # two update windows, no RIB dump yet
        assert events == []

    def test_must_publish_something(self, net7):
        with pytest.raises(FeedError):
            BatchArchive(net7.engine, publish_ribs=False, publish_updates=False)

    def test_prefix_filter(self, net7):
        archive = make_archive(net7, update_interval=900.0)
        events = []
        archive.subscribe(events.append, prefixes=[P("10.0.0.0/23")])
        net7.announce(6, "10.0.0.0/23")
        net7.announce(6, "99.0.0.0/16")
        net7.run_until_converged()
        net7.run_for(1000.0)
        assert events
        assert {e.prefix for e in events} == {P("10.0.0.0/23")}

    def test_intervals_validated(self, net7):
        with pytest.raises(FeedError):
            BatchArchive(net7.engine, update_interval=0.0)

    def test_deploy_helper(self, net7):
        archive = BatchArchive.deploy(net7, [3, 4], seed=1, fetch_delay=Constant(1.0))
        events = []
        archive.subscribe(events.append)
        net7.announce(6, "10.0.0.0/23")
        net7.run_until_converged()
        net7.run_for(1000.0)
        assert {e.vantage_asn for e in events} == {3, 4}


class TestDeployMonitors:
    def test_counts(self, gen_network):
        deployment = deploy_monitors(
            gen_network,
            seed=1,
            num_ris_vantages=5,
            num_bgpmon_vantages=3,
            num_lgs=4,
            num_batch_vantages=3,
        )
        assert len(deployment.ris_vantages) == 5
        assert len(deployment.bgpmon_vantages) == 3
        assert len(deployment.lg_asns) == 4
        assert len(deployment.batch_vantages) == 3
        assert deployment.batch is not None
        assert len(deployment.periscope.looking_glasses) == 4

    def test_without_batch(self, gen_network):
        deployment = deploy_monitors(gen_network, seed=1, with_batch=False)
        assert deployment.batch is None
        assert deployment.batch_vantages == []

    def test_deterministic(self, graph7):
        from conftest import fast_network_config
        from repro.internet.network import Network
        import conftest

        picks = []
        for _ in range(2):
            net = Network(conftest.tiny_graph(), config=fast_network_config(), seed=2)
            deployment = deploy_monitors(
                net, seed=2, num_ris_vantages=3, num_bgpmon_vantages=2,
                num_lgs=2, num_batch_vantages=2,
            )
            picks.append(
                (
                    deployment.ris_vantages,
                    deployment.bgpmon_vantages,
                    deployment.lg_asns,
                )
            )
        assert picks[0] == picks[1]

    def test_vantages_are_real_ases(self, gen_network):
        deployment = deploy_monitors(gen_network, seed=3)
        vantages = (
            deployment.ris_vantages + deployment.bgpmon_vantages
            + deployment.lg_asns + deployment.batch_vantages
        )
        for asn in vantages:
            assert asn in gen_network.speakers

    def test_too_many_vantages_rejected(self, net7):
        with pytest.raises(FeedError):
            deploy_monitors(net7, num_ris_vantages=100)
