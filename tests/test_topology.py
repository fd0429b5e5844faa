"""Tests for the AS graph, generator, geo embedding, serialisation and the
on-disk topology cache."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.policy import Relationship
from repro.errors import TopologyError
from repro.topology.cache import cache_path, graph_cache_key, load_or_build_graph
from repro.topology.generator import GeneratorConfig, generate_internet
from repro.topology.geo import (
    REGIONS,
    Region,
    great_circle_km,
    propagation_floor_seconds,
    region_by_name,
    session_delay_between,
)
from repro.topology.graph import ASGraph
from repro.topology.serial import from_caida_lines, to_caida_lines


class TestASGraph:
    def test_add_and_lookup(self):
        graph = ASGraph()
        graph.add_as(1, tier=1)
        assert 1 in graph
        assert graph.node(1).tier == 1
        assert len(graph) == 1

    def test_duplicate_as_rejected(self):
        graph = ASGraph()
        graph.add_as(1)
        with pytest.raises(TopologyError):
            graph.add_as(1)

    def test_unknown_as_rejected(self):
        with pytest.raises(TopologyError):
            ASGraph().node(5)

    def test_links_and_neighbors(self):
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(asn)
        graph.add_customer_provider(customer=2, provider=1)
        graph.add_peering(2, 3)
        assert graph.providers_of(2) == [1]
        assert graph.customers_of(1) == [2]
        assert graph.peers_of(2) == [3]
        assert graph.neighbors(2) == [
            (1, Relationship.PROVIDER),
            (3, Relationship.PEER),
        ]
        assert graph.degree(2) == 2

    def test_self_link_rejected(self):
        graph = ASGraph()
        graph.add_as(1)
        with pytest.raises(TopologyError):
            graph.add_peering(1, 1)

    def test_double_link_rejected(self):
        graph = ASGraph()
        graph.add_as(1)
        graph.add_as(2)
        graph.add_customer_provider(1, 2)
        with pytest.raises(TopologyError):
            graph.add_peering(1, 2)
        assert graph.linked(1, 2)
        assert graph.linked(2, 1)

    def test_links_yield_each_once(self):
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(asn)
        graph.add_customer_provider(2, 1)
        graph.add_peering(2, 3)
        links = list(graph.links())
        assert len(links) == 2 == graph.link_count()
        assert (2, 1, Relationship.PROVIDER) in links
        assert (2, 3, Relationship.PEER) in links

    def test_stubs_and_tier1(self):
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(asn)
        graph.add_customer_provider(2, 1)
        graph.add_customer_provider(3, 2)
        assert graph.tier1() == [1]
        assert graph.stubs() == [3]

    def test_copy_is_independent_and_equal(self):
        graph = generate_internet(
            GeneratorConfig(num_tier1=3, num_tier2=6, num_stubs=12), seed=3
        )
        clone = graph.copy()
        assert clone.asns() == graph.asns()
        assert sorted(clone.links()) == sorted(graph.links())
        for asn in graph.asns():
            original = graph.node(asn)
            copied = clone.node(asn)
            assert (copied.tier, copied.region) == (original.tier, original.region)
            assert copied.tags == original.tags
            assert copied is not original
        # Mutating the copy (new AS, new link, tag edit) leaves the
        # original untouched.
        clone.add_as(64000, tier=3)
        clone.add_customer_provider(64000, clone.tier1()[0])
        clone.node(graph.asns()[0]).tags.add("mutated")
        assert 64000 not in graph
        assert "mutated" not in graph.node(graph.asns()[0]).tags
        assert len(clone) == len(graph) + 1

    def test_validate_detects_provider_cycle(self):
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(asn)
        graph.add_customer_provider(1, 2)
        graph.add_customer_provider(2, 3)
        graph.add_customer_provider(3, 1)
        with pytest.raises(TopologyError, match="cycle"):
            graph.validate()

    def test_validate_detects_disconnection(self):
        graph = ASGraph()
        for asn in (1, 2, 3, 4):
            graph.add_as(asn)
        graph.add_peering(1, 2)
        graph.add_peering(3, 4)
        with pytest.raises(TopologyError, match="disconnected"):
            graph.validate()

    def test_validate_accepts_valid(self):
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(asn)
        graph.add_peering(1, 2)
        graph.add_customer_provider(3, 1)
        graph.validate()


class TestGenerator:
    def test_size(self):
        config = GeneratorConfig(num_tier1=4, num_tier2=10, num_stubs=30)
        graph = generate_internet(config, seed=1)
        assert len(graph) == 44

    def test_deterministic(self):
        config = GeneratorConfig(num_tier1=4, num_tier2=10, num_stubs=30)
        a = generate_internet(config, seed=9)
        b = generate_internet(config, seed=9)
        assert list(a.links()) == list(b.links())

    def test_seed_changes_graph(self):
        config = GeneratorConfig(num_tier1=4, num_tier2=10, num_stubs=30)
        a = generate_internet(config, seed=1)
        b = generate_internet(config, seed=2)
        assert list(a.links()) != list(b.links())

    def test_tier1_clique(self):
        graph = generate_internet(GeneratorConfig(num_tier1=5, num_tier2=5, num_stubs=5), seed=0)
        tier1 = [n.asn for n in graph.nodes() if n.tier == 1]
        assert len(tier1) == 5
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                assert b in graph.peers_of(a)

    def test_every_non_tier1_has_provider(self):
        graph = generate_internet(GeneratorConfig(num_tier1=3, num_tier2=8, num_stubs=20), seed=3)
        for node in graph.nodes():
            if node.tier > 1:
                assert graph.providers_of(node.asn)

    def test_regions_assigned(self):
        graph = generate_internet(GeneratorConfig(num_tier1=3, num_tier2=5, num_stubs=5), seed=0)
        assert all(node.region is not None for node in graph.nodes())

    def test_invalid_configs(self):
        with pytest.raises(TopologyError):
            GeneratorConfig(num_tier1=0)
        with pytest.raises(TopologyError):
            GeneratorConfig(min_providers_stub=0)
        with pytest.raises(TopologyError):
            GeneratorConfig(min_providers_tier2=3, max_providers_tier2=2)
        with pytest.raises(TopologyError):
            GeneratorConfig(tier2_peering_prob=1.5)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_graphs_always_validate(self, seed):
        config = GeneratorConfig(num_tier1=3, num_tier2=6, num_stubs=12)
        graph = generate_internet(config, seed=seed)
        graph.validate()  # does not raise


class TestGeo:
    def test_region_lookup(self):
        assert region_by_name("athens").continent == "europe"
        with pytest.raises(TopologyError):
            region_by_name("atlantis")

    def test_invalid_coordinates(self):
        with pytest.raises(TopologyError):
            Region("bad", 91.0, 0.0, "x")
        with pytest.raises(TopologyError):
            Region("bad", 0.0, 181.0, "x")

    def test_great_circle_sanity(self):
        ams = region_by_name("amsterdam")
        fra = region_by_name("frankfurt")
        syd = region_by_name("sydney")
        near = great_circle_km(ams, fra)
        far = great_circle_km(ams, syd)
        assert 300 < near < 500        # ≈ 365 km
        assert 15000 < far < 18000     # ≈ 16 650 km
        assert great_circle_km(ams, ams) == 0.0

    def test_propagation_floor(self):
        ams = region_by_name("amsterdam")
        syd = region_by_name("sydney")
        assert propagation_floor_seconds(ams, syd) > 0.08  # >80 ms one way
        assert propagation_floor_seconds(ams, ams) >= 0.001
        assert propagation_floor_seconds(None, ams) == 0.030

    def test_session_delay_positive(self):
        from repro.sim.rng import SeededRNG

        delay = session_delay_between(region_by_name("tokyo"), region_by_name("london"))
        rng = SeededRNG(0)
        samples = [delay.sample(rng) for _ in range(50)]
        floor = propagation_floor_seconds(
            region_by_name("tokyo"), region_by_name("london")
        )
        assert all(s >= floor for s in samples)

    def test_default_regions_unique(self):
        names = [r.name for r in REGIONS]
        assert len(names) == len(set(names))


class TestSerial:
    def test_roundtrip(self):
        graph = generate_internet(GeneratorConfig(num_tier1=3, num_tier2=6, num_stubs=12), seed=4)
        lines = list(to_caida_lines(graph))
        parsed = from_caida_lines(lines)
        assert len(parsed) == len(graph)
        assert sorted((a, b, r.value) for a, b, r in parsed.links()) == sorted(
            (a, b, r.value) for a, b, r in graph.links()
        )

    def test_tier_inference(self):
        lines = ["1|2|-1", "2|3|-1"]  # 1 provides to 2, 2 provides to 3
        graph = from_caida_lines(lines)
        assert graph.node(1).tier == 1
        assert graph.node(2).tier == 2
        assert graph.node(3).tier == 3

    def test_comments_and_blanks_skipped(self):
        graph = from_caida_lines(["# comment", "", "1|2|0"])
        assert len(graph) == 2

    @pytest.mark.parametrize("bad", ["1|2", "a|2|-1", "1|2|7"])
    def test_parse_errors(self, bad):
        with pytest.raises(TopologyError):
            from_caida_lines([bad])

    def test_file_roundtrip(self, tmp_path):
        from repro.topology.serial import save_caida

        graph = generate_internet(GeneratorConfig(num_tier1=3, num_tier2=5, num_stubs=8), seed=2)
        path = str(tmp_path / "as-rel.txt")
        save_caida(graph, path)
        with open(path, encoding="utf-8") as handle:
            loaded = from_caida_lines(handle)
        assert len(loaded) == len(graph)


TOPOLOGY = GeneratorConfig(num_tier1=4, num_tier2=12, num_stubs=40)


@pytest.fixture(scope="module")
def graph():
    return generate_internet(TOPOLOGY, seed=7)


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
