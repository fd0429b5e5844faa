"""Topology analysis.

Structural statistics used to sanity-check generated Internets against the
real one's shape, and to reason about hijack dynamics (an AS's customer
cone size is a good predictor of how much of the Internet follows its
announcements — "ASes closer to the hijacker change their preferred path").
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from repro.topology.graph import ASGraph


def degree_histogram(graph: ASGraph) -> Dict[int, int]:
    """degree → number of ASes with that degree."""
    histogram: Dict[int, int] = {}
    for asn in graph.asns():
        degree = graph.degree(asn)
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def tier_sizes(graph: ASGraph) -> Dict[int, int]:
    """tier → number of ASes."""
    sizes: Dict[int, int] = {}
    for node in graph.nodes():
        sizes[node.tier] = sizes.get(node.tier, 0) + 1
    return sizes


def customer_cone(graph: ASGraph, asn: int) -> Set[int]:
    """All ASes reachable by repeatedly descending provider→customer links,
    including ``asn`` itself (the CAIDA customer-cone definition)."""
    cone = {asn}
    frontier = deque([asn])
    while frontier:
        current = frontier.popleft()
        for customer in graph.customers_of(current):
            if customer not in cone:
                cone.add(customer)
                frontier.append(customer)
    return cone


def cone_sizes(graph: ASGraph) -> Dict[int, int]:
    """asn → customer cone size (1 for stubs)."""
    return {asn: len(customer_cone(graph, asn)) for asn in graph.asns()}


def undirected_path_lengths(graph: ASGraph, source: int) -> Dict[int, int]:
    """BFS hop counts from ``source`` over all links (policy-blind)."""
    distances = {source: 0}
    frontier = deque([source])
    while frontier:
        current = frontier.popleft()
        neighbors = (
            graph.providers_of(current)
            + graph.customers_of(current)
            + graph.peers_of(current)
        )
        for neighbor in neighbors:
            if neighbor not in distances:
                distances[neighbor] = distances[current] + 1
                frontier.append(neighbor)
    return distances


def average_path_length(graph: ASGraph, sample: int = 25, seed: int = 0) -> float:
    """Mean pairwise hop distance, estimated from ``sample`` BFS sources.

    Policy-blind (undirected), so it lower-bounds valley-free path lengths;
    useful as a topology-scale indicator (the real Internet sits around
    3.5–4 AS hops).
    """
    from repro.sim.rng import SeededRNG

    asns = graph.asns()
    if len(asns) < 2:
        return 0.0
    rng = SeededRNG(seed).substream("apl")
    sources = asns if len(asns) <= sample else rng.sample(asns, sample)
    total, pairs = 0, 0
    for source in sources:
        for distance in undirected_path_lengths(graph, source).values():
            if distance > 0:
                total += distance
                pairs += 1
    return total / pairs if pairs else 0.0
