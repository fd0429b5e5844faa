"""Edge-cut partitioning of the AS graph, with conservative lookahead.

The partitioner assigns every AS to exactly one shard; a link whose
endpoints land on different shards becomes a *cut link* carrying messages
between worker processes.  Two properties matter:

* **balance** — shards should hold similar AS counts, since the slowest
  shard bounds every synchronization window;
* **lookahead** — the conservative-time window size is the minimum over cut
  links of the session-delay *lower bound* (:attr:`Delay.lower_bound`), so
  the cut should consist of *long* links.  Geography-bucketed assignment
  does both at once: intra-metro links (small propagation floors) stay
  local and the cut is dominated by inter-continental floors.

When the topology has fewer geographic buckets than shards (tiny test
worlds), the partitioner falls back to contiguous sorted-ASN chunks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.internet.network import NetworkConfig
from repro.topology.geo import session_delay_between
from repro.topology.graph import ASGraph

#: A cut link's canonical key: the endpoint ASNs, low first.
LinkKey = Tuple[int, int]


class ShardPlan:
    """The output of :func:`partition_graph`: who lives where, and the cut."""

    __slots__ = (
        "num_shards",
        "assignment",
        "shard_asns",
        "cut_links",
        "link_floors",
        "lookahead",
    )

    def __init__(
        self,
        num_shards: int,
        assignment: Dict[int, int],
        cut_links: List[LinkKey],
        link_floors: Dict[LinkKey, float],
    ):
        self.num_shards = num_shards
        #: asn -> shard id (every AS appears exactly once).
        self.assignment = assignment
        #: shard id -> sorted list of its ASNs.
        self.shard_asns: List[List[int]] = [[] for _ in range(num_shards)]
        for asn in sorted(assignment):
            self.shard_asns[assignment[asn]].append(asn)
        #: Links crossing shards, as sorted ``(a, b)`` keys, in deterministic
        #: order (the full graph's link iteration order).
        self.cut_links = cut_links
        #: Cut link -> session-delay lower bound (seconds, simulated).
        self.link_floors = link_floors
        #: Conservative lookahead: no cross-shard message sent at time ``t``
        #: can arrive before ``t + lookahead``.  ``None`` when the cut is
        #: empty (every shard is independent).
        self.lookahead: Optional[float] = (
            min(link_floors.values()) if link_floors else None
        )

    def shard_of(self, asn: int) -> int:
        return self.assignment[asn]

    def __repr__(self) -> str:
        sizes = [len(asns) for asns in self.shard_asns]
        return (
            f"<ShardPlan shards={self.num_shards} sizes={sizes} "
            f"cut={len(self.cut_links)} lookahead={self.lookahead}>"
        )


def _geo_buckets(graph: ASGraph, num_shards: int) -> Dict[str, List[int]]:
    """ASNs grouped geographically, at the coarsest granularity that still
    yields at least ``num_shards`` buckets.

    Continents first: a continental cut's links all carry intercontinental
    propagation floors (tens of milliseconds), giving windows an order of
    magnitude wider than a region-level cut where two shards may hold
    adjacent metros.  Region buckets are the fallback; ASes without a
    region share one bucket either way.
    """
    by_continent: Dict[str, List[int]] = {}
    by_region: Dict[str, List[int]] = {}
    for asn in graph.asns():
        region = graph.node(asn).region
        if region is None:
            by_continent.setdefault("-", []).append(asn)
            by_region.setdefault("-", []).append(asn)
        else:
            by_continent.setdefault(region.continent, []).append(asn)
            by_region.setdefault(region.name, []).append(asn)
    if len(by_continent) >= num_shards:
        return by_continent
    return by_region


def partition_graph(
    graph: ASGraph,
    num_shards: int,
    config: Optional[NetworkConfig] = None,
) -> ShardPlan:
    """Assign every AS to a shard and enumerate the cut.

    Geographic buckets (continents, else regions — see :func:`_geo_buckets`)
    are placed greedily onto the currently lightest shard (largest bucket
    first — classic LPT scheduling), which keeps shard sizes balanced while
    keeping short links off the cut.  With fewer buckets than shards, falls
    back to contiguous sorted-ASN chunks.  Deterministic: ties break on
    bucket name and shard id.

    Raises :class:`SimulationError` if any cut link's delay lower bound is
    zero — conservative synchronization needs strictly positive lookahead.
    """
    if num_shards < 1:
        raise SimulationError(f"num_shards must be >= 1, got {num_shards}")
    config = config or NetworkConfig()

    assignment: Dict[int, int] = {}
    buckets = _geo_buckets(graph, num_shards)
    if len(buckets) >= num_shards:
        ordered = sorted(buckets.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        loads = [0] * num_shards
        for _name, asns in ordered:
            shard = loads.index(min(loads))
            loads[shard] += len(asns)
            for asn in asns:
                assignment[asn] = shard
    else:
        asns = graph.asns()
        chunk = -(-len(asns) // num_shards)  # ceil division
        for index, asn in enumerate(asns):
            assignment[asn] = min(index // chunk, num_shards - 1)

    cut_links: List[LinkKey] = []
    link_floors: Dict[LinkKey, float] = {}
    for a, b, _a_view in graph.links():
        if assignment[a] == assignment[b]:
            continue
        key = (a, b) if a <= b else (b, a)
        cut_links.append(key)
        if config.session_delay_override is not None:
            delay = config.session_delay_override
        else:
            delay = session_delay_between(
                graph.node(a).region, graph.node(b).region
            )
        floor = delay.lower_bound
        if floor <= 0.0:
            raise SimulationError(
                f"cut link AS{a}<->AS{b} has a zero delay lower bound "
                f"({delay!r}); conservative sharding needs positive lookahead"
            )
        link_floors[key] = floor

    return ShardPlan(num_shards, assignment, cut_links, link_floors)
