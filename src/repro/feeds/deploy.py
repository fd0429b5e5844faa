"""One-call deployment of a realistic monitoring infrastructure.

Real-world vantage points (RIS/RouteViews peers, public looking glasses)
live disproportionately at well-connected transit networks and IXPs.
:func:`deploy_monitors` reproduces that bias: vantage ASes are drawn mostly
from tier-1/tier-2 networks, with a sprinkling of stubs, all seeded and
deterministic.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import FeedError
from repro.feeds.batch import BatchArchive
from repro.feeds.bgpmon import BGPMonStream
from repro.feeds.periscope import LookingGlass, PeriscopeAPI
from repro.feeds.ris import RISLiveStream
from repro.internet.network import Network
from repro.sim.rng import SeededRNG


class MonitorDeployment:
    """The deployed sources plus their vantage bookkeeping."""

    def __init__(
        self,
        ris: RISLiveStream,
        bgpmon: BGPMonStream,
        periscope: PeriscopeAPI,
        batch: Optional[BatchArchive],
        ris_vantages: List[int],
        bgpmon_vantages: List[int],
        lg_asns: List[int],
        batch_vantages: List[int],
    ):
        self.ris = ris
        self.bgpmon = bgpmon
        self.periscope = periscope
        self.batch = batch
        self.ris_vantages = ris_vantages
        self.bgpmon_vantages = bgpmon_vantages
        self.lg_asns = lg_asns
        self.batch_vantages = batch_vantages
        #: The RIB-snapshot-only archive a "rib-dump" defender reads.  It
        #: brings monitor sessions of its own, so the scenario deploys it
        #: only when that source is enabled (never part of the shared world).
        self.rib_archive: Optional[BatchArchive] = None

    def __repr__(self) -> str:
        return (
            f"<MonitorDeployment ris={len(self.ris_vantages)} "
            f"bgpmon={len(self.bgpmon_vantages)} lgs={len(self.lg_asns)} "
            f"batch={len(self.batch_vantages)}>"
        )


def _pick_vantages(
    network: Network,
    rng: SeededRNG,
    count: int,
    stub_fraction: float = 0.2,
    exclude: Optional[List[int]] = None,
) -> List[int]:
    """Pick vantage ASes biased towards the well-connected core."""
    graph = network.graph
    excluded = set(exclude or ())
    core = [
        node.asn
        for node in graph.nodes()
        if node.tier <= 2 and node.asn not in excluded
    ]
    stubs = [
        node.asn
        for node in graph.nodes()
        if node.tier > 2 and node.asn not in excluded
    ]
    want_stubs = min(len(stubs), int(round(count * stub_fraction)))
    want_core = min(len(core), count - want_stubs)
    picked = rng.sample(core, want_core) if want_core else []
    if want_stubs:
        picked += rng.sample(stubs, want_stubs)
    shortfall = count - len(picked)
    if shortfall > 0:
        remaining = [a for a in core + stubs if a not in picked]
        if len(remaining) < shortfall:
            raise FeedError(
                f"cannot place {count} vantages in a {len(graph)}-AS topology"
            )
        picked += rng.sample(remaining, shortfall)
    return sorted(picked)


def deploy_monitors(
    network: Network,
    seed: int = 0,
    num_ris_vantages: int = 12,
    num_bgpmon_vantages: int = 8,
    num_lgs: int = 10,
    lg_poll_interval: float = 120.0,
    lg_min_query_interval: float = 10.0,
    num_batch_vantages: int = 10,
    with_batch: bool = True,
) -> MonitorDeployment:
    """Deploy RIS + BGPmon + Periscope (and optionally a batch archive).

    The three live sources deliberately observe *different* vantage sets
    (real services have distinct peers), which is what makes multi-source
    combination worthwhile.
    """
    rng = SeededRNG(seed).substream("monitor-deploy")
    ris_vantages = _pick_vantages(network, rng.substream("ris"), num_ris_vantages)
    bgpmon_vantages = _pick_vantages(
        network, rng.substream("bgpmon"), num_bgpmon_vantages
    )
    lg_asns = _pick_vantages(network, rng.substream("lg"), num_lgs)

    ris = RISLiveStream.deploy(network, ris_vantages, seed=seed)
    bgpmon = BGPMonStream.deploy(network, bgpmon_vantages, seed=seed)

    lgs = [
        LookingGlass(
            f"lg-{asn}",
            network.speaker(asn),
            network.engine,
            min_query_interval=lg_min_query_interval,
            rng=rng.substream("lg-delay", asn),
        )
        for asn in lg_asns
    ]
    periscope = PeriscopeAPI(
        network.engine,
        lgs,
        poll_interval=lg_poll_interval,
        rng=rng.substream("periscope"),
    )

    batch = None
    batch_vantages: List[int] = []
    if with_batch:
        batch_vantages = _pick_vantages(
            network, rng.substream("batch"), num_batch_vantages
        )
        batch = BatchArchive.deploy(network, batch_vantages, seed=seed)

    return MonitorDeployment(
        ris,
        bgpmon,
        periscope,
        batch,
        ris_vantages,
        bgpmon_vantages,
        lg_asns,
        batch_vantages,
    )
