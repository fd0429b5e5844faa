"""Tests for topology analysis helpers."""

import pytest

from repro.topology.generator import GeneratorConfig, generate_internet
from repro.topology.stats import (
    average_path_length,
    cone_sizes,
    customer_cone,
    degree_histogram,
    tier_sizes,
    undirected_path_lengths,
)

from conftest import tiny_graph


class TestTinyGraphStats:
    def test_degree_histogram_counts_everyone(self, graph7):
        histogram = degree_histogram(graph7)
        assert sum(histogram.values()) == 7

    def test_tier_sizes(self, graph7):
        assert tier_sizes(graph7) == {1: 2, 2: 3, 3: 2}

    def test_customer_cone_of_stub_is_itself(self, graph7):
        assert customer_cone(graph7, 6) == {6}
        assert customer_cone(graph7, 7) == {7}

    def test_customer_cone_descends(self, graph7):
        assert customer_cone(graph7, 3) == {3, 6}
        assert customer_cone(graph7, 1) == {1, 3, 4, 6, 7}

    def test_cone_sizes(self, graph7):
        sizes = cone_sizes(graph7)
        assert sizes[6] == 1
        assert sizes[1] == 5
        # Tier-1s dominate stubs.
        assert sizes[1] > sizes[3] > sizes[6]

    def test_path_lengths(self, graph7):
        distances = undirected_path_lengths(graph7, 6)
        assert distances[6] == 0
        assert distances[3] == 1
        assert distances[1] == 2
        assert len(distances) == 7  # connected

    def test_average_path_length_positive(self, graph7):
        apl = average_path_length(graph7)
        assert 1.0 < apl < 4.0


class TestGeneratedTopologyShape:
    @pytest.fixture(scope="class")
    def generated(self):
        return generate_internet(
            GeneratorConfig(num_tier1=5, num_tier2=20, num_stubs=80), seed=4
        )

    def test_tier1_cones_cover_most_of_internet(self, generated):
        sizes = cone_sizes(generated)
        tier1 = generated.tier1()
        biggest = max(sizes[asn] for asn in tier1)
        assert biggest > len(generated) * 0.3

    def test_stub_cones_are_one(self, generated):
        for asn in generated.stubs():
            assert cone_sizes(generated)[asn] == 1
            break  # one spot check is enough; full check is O(n^2)

    def test_realistic_average_path_length(self, generated):
        # Hierarchical Internets are small worlds: a few hops.
        apl = average_path_length(generated, sample=15)
        assert 1.5 < apl < 5.0

    def test_degree_skew(self, generated):
        histogram = degree_histogram(generated)
        degrees = sorted(histogram)
        # Many low-degree stubs, few high-degree hubs.
        assert histogram.get(degrees[0], 0) > 0
        assert degrees[-1] > 10
