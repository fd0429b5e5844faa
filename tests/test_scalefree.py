"""Tests for the scale-free generator, including external-validity runs."""

import pytest

from repro.errors import TopologyError
from repro.internet.network import Network
from repro.testbed.scenario import HijackExperiment
from repro.topology.scalefree import ScaleFreeConfig, generate_scalefree_internet
from repro.topology.stats import cone_sizes, degree_histogram

from conftest import fast_network_config, fast_scenario, fraction_routing_to


class TestGeneration:
    def test_size_and_validity(self):
        graph = generate_scalefree_internet(ScaleFreeConfig(num_ases=120), seed=1)
        assert len(graph) == 120
        graph.validate()  # acyclic + connected

    def test_deterministic(self):
        a = generate_scalefree_internet(ScaleFreeConfig(num_ases=80), seed=7)
        b = generate_scalefree_internet(ScaleFreeConfig(num_ases=80), seed=7)
        assert list(a.links()) == list(b.links())

    def test_heavy_tailed_degrees(self):
        graph = generate_scalefree_internet(ScaleFreeConfig(num_ases=300), seed=2)
        histogram = degree_histogram(graph)
        max_degree = max(histogram)
        # A hub far above the median is the scale-free signature.
        degrees = sorted(
            d for d, count in histogram.items() for _ in range(count)
        )
        median = degrees[len(degrees) // 2]
        assert max_degree > 8 * median

    def test_hubs_have_big_cones(self):
        graph = generate_scalefree_internet(ScaleFreeConfig(num_ases=200), seed=3)
        cones = cone_sizes(graph)
        assert max(cones.values()) > len(graph) * 0.3

    def test_every_new_as_has_provider(self):
        graph = generate_scalefree_internet(ScaleFreeConfig(num_ases=100), seed=4)
        for node in graph.nodes():
            if "tier1" not in node.tags:
                assert graph.providers_of(node.asn)

    def test_config_validation(self):
        with pytest.raises(TopologyError):
            ScaleFreeConfig(num_ases=3, seed_clique=4)
        with pytest.raises(TopologyError):
            ScaleFreeConfig(seed_clique=1)
        with pytest.raises(TopologyError):
            ScaleFreeConfig(min_providers=3, max_providers=2)
        with pytest.raises(TopologyError):
            ScaleFreeConfig(peering_fraction=2.0)


class TestExternalValidity:
    """The reproduction's shape must survive a different topology family."""

    def test_bgp_converges_on_scalefree(self):
        graph = generate_scalefree_internet(ScaleFreeConfig(num_ases=80), seed=5)
        network = Network(graph, config=fast_network_config(), seed=5)
        origin = graph.stubs()[0]
        network.announce(origin, "10.0.0.0/23")
        network.run_until_converged()
        assert fraction_routing_to(network, "10.0.0.1", origin) == 1.0

    def test_full_experiment_on_scalefree(self):
        graph = generate_scalefree_internet(ScaleFreeConfig(num_ases=60), seed=6)
        config = fast_scenario(seed=6, graph=graph)
        result = HijackExperiment(config).run()
        assert result.detection_delay is not None
        assert result.mitigated
        assert result.strategy == "deaggregate"
