"""AS-level Internet topologies.

An :class:`~repro.topology.graph.ASGraph` captures the business structure of
the inter-domain ecosystem (customer-provider and peering links, tiers,
geographic regions).  The :mod:`~repro.topology.generator` builds synthetic
hierarchical Internets (tier-1 clique / transit / stubs) that stand in for
the real topology the paper's live experiments ran over, and
:mod:`~repro.topology.serial` reads/writes the CAIDA ``as-rel`` format so
real relationship inference datasets can be plugged in.
"""

from repro.topology.generator import GeneratorConfig, generate_internet
from repro.topology.geo import REGIONS, Region, region_by_name, session_delay_between
from repro.topology.graph import ASGraph, ASNode
from repro.topology.serial import from_caida_lines, to_caida_lines
from repro.topology.stats import (
    average_path_length,
    customer_cone,
    tier_sizes,
)

__all__ = [
    "ASGraph",
    "ASNode",
    "GeneratorConfig",
    "REGIONS",
    "Region",
    "average_path_length",
    "customer_cone",
    "from_caida_lines",
    "generate_internet",
    "region_by_name",
    "session_delay_between",
    "tier_sizes",
    "to_caida_lines",
]
