"""Tests for the sharded propagation engine (:mod:`repro.shard`).

Partitioning invariants, the epoch-stamped window protocol, cross-shard
session bookkeeping, snapshot/restore, and the on-disk topology cache.
The bit-identity guarantee itself (``--shards 1`` vs ``2`` vs ``4``) is
enforced in ``tests/test_determinism.py`` next to the other golden digests.
"""

import multiprocessing
import os
import time

import pytest

from conftest import kill_worker

from repro.errors import SimulationError
from repro.internet.network import Network, NetworkConfig
from repro.shard.boundary import DeliveryBundle
from repro.shard.partition import partition_graph
from repro.shard.runner import ShardRunner, SingleRunner, make_runner
from repro.shard.world import ShardNetwork, ShardWorld
from repro.sim.latency import Constant
from repro.topology.cache import cache_path, graph_cache_key, load_or_build_graph
from repro.topology.generator import GeneratorConfig, generate_internet
from repro.topology.serial import from_caida_lines, to_caida_lines

TOPOLOGY = GeneratorConfig(num_tier1=4, num_tier2=12, num_stubs=40)


@pytest.fixture(scope="module")
def graph():
    return generate_internet(TOPOLOGY, seed=7)


# ------------------------------------------------------------- partitioning


class TestPartition:
    def test_every_as_assigned_exactly_once(self, graph):
        plan = partition_graph(graph, 4)
        assert set(plan.assignment) == set(graph.asns())
        flattened = [asn for asns in plan.shard_asns for asn in asns]
        assert sorted(flattened) == sorted(graph.asns())
        assert len(flattened) == len(set(flattened))

    def test_cut_is_exactly_the_cross_shard_links(self, graph):
        plan = partition_graph(graph, 3)
        expected = set()
        for a, b, _view in graph.links():
            if plan.shard_of(a) != plan.shard_of(b):
                expected.add((a, b) if a <= b else (b, a))
        assert set(plan.cut_links) == expected
        assert len(plan.cut_links) == len(expected)  # no duplicates
        for a, b in plan.cut_links:
            assert plan.shard_of(a) != plan.shard_of(b)

    def test_lookahead_is_min_cut_floor(self, graph):
        plan = partition_graph(graph, 2)
        assert plan.cut_links, "a 2-way split of this world must cut links"
        assert all(floor > 0.0 for floor in plan.link_floors.values())
        assert plan.lookahead == min(plan.link_floors.values())

    def test_single_shard_has_empty_cut(self, graph):
        plan = partition_graph(graph, 1)
        assert plan.cut_links == []
        assert plan.lookahead is None
        assert set(plan.assignment.values()) == {0}

    def test_zero_floor_cut_raises(self, graph):
        config = NetworkConfig(session_delay_override=Constant(0.0))
        with pytest.raises(SimulationError, match="zero delay lower bound"):
            partition_graph(graph, 2, config)

    def test_rejects_bad_shard_count(self, graph):
        with pytest.raises(SimulationError):
            partition_graph(graph, 0)


# ------------------------------------------------- topology shipping format


class TestAnnotatedRoundTrip:
    def test_annotated_lines_rebuild_the_same_graph(self, graph):
        rebuilt = from_caida_lines(to_caida_lines(graph, annotate=True))
        assert rebuilt.asns() == graph.asns()
        assert rebuilt.link_count() == graph.link_count()
        for asn in graph.asns():
            original, clone = graph.node(asn), rebuilt.node(asn)
            assert clone.tier == original.tier
            assert clone.region == original.region
            assert clone.tags == original.tags


# ------------------------------------------------------------- shard build


class TestShardBuild:
    def test_shards_rebuild_the_whole_graph_world(self, graph):
        """Peer insertion order and ROV draws are the whole-graph build's."""
        config = NetworkConfig(rov_adoption=0.3)
        whole = Network(graph, config, seed=7)
        plan = partition_graph(graph, 3, config)
        adopters = set()
        for asns in plan.shard_asns:
            shard = ShardNetwork(graph, config, 7, asns)
            assert sorted(shard.speakers) == asns
            for asn, speaker in shard.speakers.items():
                assert list(speaker.peers) == list(whole.speakers[asn].peers)
            adopters |= shard.rov_adopters
        assert whole.rov_adopters
        assert adopters == whole.rov_adopters


# ------------------------------------------------------- window protocol


class TestWindowProtocol:
    @pytest.fixture()
    def shard_pair(self, graph):
        plan = partition_graph(graph, 2)
        worlds = [
            ShardWorld(graph, None, 7, plan.shard_asns[shard])
            for shard in range(2)
        ]
        return plan, worlds

    def test_boundary_sessions_mirrored_on_both_shards(self, shard_pair):
        plan, (world_a, world_b) = shard_pair
        assert set(world_a.network.boundary_sessions) == set(plan.cut_links)
        assert set(world_b.network.boundary_sessions) == set(plan.cut_links)

    def test_epochs_advance_one_at_a_time(self, shard_pair):
        _plan, (world, _other) = shard_pair
        world.run_window(1, 1.0, [])
        world.run_window(2, 2.0, [])
        with pytest.raises(SimulationError, match="out-of-order window"):
            world.run_window(4, 3.0, [])

    def test_stale_bundle_rejected(self, shard_pair):
        plan, (world, _other) = shard_pair
        link = plan.cut_links[0]
        with pytest.raises(SimulationError, match="stale bundle"):
            world.run_window(1, 1.0, [DeliveryBundle(link, 2, [])])

    def test_duplicate_bundle_rejected(self, shard_pair):
        plan, (world, _other) = shard_pair
        link = plan.cut_links[0]
        bundles = [DeliveryBundle(link, 1, []), DeliveryBundle(link, 1, [])]
        with pytest.raises(SimulationError, match="duplicate bundle"):
            world.run_window(1, 1.0, bundles)

    def test_unknown_link_rejected(self, shard_pair):
        _plan, (world, _other) = shard_pair
        with pytest.raises(SimulationError, match="unknown cut link"):
            world.run_window(1, 1.0, [DeliveryBundle((999_998, 999_999), 1, [])])


# ----------------------------------------------------------------- runners


class TestRunners:
    def test_make_runner_dispatches_on_shard_count(self, graph):
        single = make_runner(graph, 1, seed=7)
        try:
            assert isinstance(single, SingleRunner)
        finally:
            single.close()
        with make_runner(graph, 2, seed=7) as sharded:
            assert isinstance(sharded, ShardRunner)
        with pytest.raises(SimulationError):
            make_runner(graph, 0, seed=7)

    def test_observation_covers_every_as(self, graph):
        victim = graph.stubs()[0]
        with make_runner(graph, 2, seed=7) as runner:
            runner.watch("10.0.0.0/24")
            runner.originate(victim, "10.0.0.0/24")
            runner.run_to(200.0)
            origins = runner.observe("10.0.0.0/24")
        assert set(origins) == set(graph.asns())
        assert origins[victim] == victim

    def test_replies_stay_aligned_after_an_error_reply(self, graph):
        """An error reply from one fan-out leaves nothing for the next to read.

        Every shard answers ``flips`` on an unwatched target with an error
        and stays alive; each later command must get *its own* answer, not
        another shard's leftover.
        """
        victim = graph.stubs()[0]

        def after_the_error(runner):
            with pytest.raises(SimulationError, match="not being watched"):
                runner.flips("10.0.0.0/24")
            stats = runner.stats()
            origins = runner.observe("10.0.0.0/24")
            runner.watch("10.0.0.0/24")
            runner.originate(victim, "10.0.0.0/24")
            runner.run_to(200.0)
            return stats, origins, runner.flips("10.0.0.0/24")

        with make_runner(graph, 1, seed=7) as single:
            expected = after_the_error(single)
        with make_runner(graph, 2, seed=7) as sharded:
            stats, origins, flips = after_the_error(sharded)
        assert sorted(stats) == [
            "total_messages", "total_nlri", "updates_received", "updates_sent",
        ]
        assert all(type(value) is int for value in stats.values())
        assert set(origins) == set(graph.asns())
        assert (stats, origins, flips) == expected
        assert flips

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_observe_and_flips_use_one_probe(self, graph, num_shards):
        """A /24 target is probed at its network address by both reads, so
        the AS holding a /25 inside it reads the /25's origin in each."""
        victim, squatter = graph.stubs()[0], graph.stubs()[1]
        with make_runner(graph, num_shards, seed=7) as runner:
            runner.watch("10.0.0.0/24")
            runner.originate(victim, "10.0.0.0/24")
            runner.originate(squatter, "10.0.0.0/25")
            runner.run_to(300.0)
            origins = runner.observe("10.0.0.0/24")
            last = {asn: value for _time, asn, value in runner.flips("10.0.0.0/24")}
        assert origins[squatter] == squatter
        assert {asn: last.get(asn) for asn in origins} == origins

    def test_cannot_run_backwards(self, graph):
        with make_runner(graph, 2, seed=7) as runner:
            runner.run_to(10.0)
            with pytest.raises(SimulationError):
                runner.run_to(5.0)

    def test_snapshot_restore_replays_identically(self, graph):
        victim, hijacker = graph.stubs()[0], graph.stubs()[1]
        with make_runner(graph, 2, seed=7) as runner:
            runner.watch("10.0.0.0/24")
            runner.originate(victim, "10.0.0.0/22")
            runner.run_to(400.0)
            runner.snapshot()

            def hijack_run():
                runner.originate(hijacker, "10.0.0.0/24")
                runner.run_to(700.0)
                return runner.observe("10.0.0.0/24"), runner.flips("10.0.0.0/24")

            first = hijack_run()
            runner.restore()
            second = hijack_run()
        assert first == second
        assert any(origin == hijacker for origin in first[0].values())

    def test_restore_without_snapshot_raises(self, graph):
        with make_runner(graph, 2, seed=7) as runner:
            with pytest.raises(SimulationError, match="no snapshot"):
                runner.restore()

    def test_close_prints_no_worker_traceback(self, graph, capfd):
        """``close()`` reads no reply to its ``stop``, so a worker answers
        none; one that did wrote a ``BrokenPipeError`` to stderr."""
        ShardRunner(graph, partition_graph(graph, 2), seed=7).close()
        assert "Traceback" not in capfd.readouterr().err


class TestWorkerDeath:
    """A SIGKILLed shard worker is a typed error naming the shard on
    whichever side of the pipe meets it first — never a bare ``OSError``,
    never a hang — and ``close()`` still reaps every child."""

    @pytest.mark.parametrize("side", ["send", "receive"])
    def test_dead_worker_is_a_typed_error(self, graph, side):
        runner = make_runner(graph, 2, seed=7)
        try:
            runner.originate(graph.stubs()[0], "10.0.0.0/24")
            runner.run_to(50.0)
            kill_worker(runner._group.processes[1], side)
            started = time.monotonic()
            with pytest.raises(SimulationError, match="shard 1 worker died"):
                runner.run_to(100.0)
            assert time.monotonic() - started < 5.0
        finally:
            runner.close()
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------- topology cache


class TestTopologyCache:
    def test_miss_builds_and_hit_loads_identical_graph(self, tmp_path):
        cache_dir = str(tmp_path)
        built = load_or_build_graph(TOPOLOGY, seed=7, cache_dir=cache_dir)
        assert os.path.exists(cache_path(cache_dir, TOPOLOGY, 7))
        loaded = load_or_build_graph(TOPOLOGY, seed=7, cache_dir=cache_dir)
        assert list(to_caida_lines(loaded, annotate=True)) == list(
            to_caida_lines(built, annotate=True)
        )

    def test_key_changes_with_seed_and_params(self):
        base = graph_cache_key(TOPOLOGY, 7)
        assert graph_cache_key(TOPOLOGY, 8) != base
        other = GeneratorConfig(num_tier1=4, num_tier2=12, num_stubs=41)
        assert graph_cache_key(other, 7) != base

    def test_no_cache_dir_means_plain_generation(self, graph):
        direct = load_or_build_graph(TOPOLOGY, seed=7, cache_dir=None)
        assert list(to_caida_lines(direct, annotate=True)) == list(
            to_caida_lines(graph, annotate=True)
        )
