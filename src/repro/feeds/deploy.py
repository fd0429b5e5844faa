"""One-call deployment of a realistic monitoring infrastructure.

Real-world vantage points (RIS/RouteViews peers, public looking glasses)
live disproportionately at well-connected transit networks and IXPs.
:func:`deploy_monitors` reproduces that bias: vantage ASes are drawn mostly
from tier-1/tier-2 networks, with a sprinkling of stubs, all seeded and
deterministic.  RIS live and BGPmon are one
:class:`~repro.feeds.stream.StreamingService` class with different data.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import FeedError
from repro.feeds.batch import BatchArchive
from repro.feeds.collector import RouteCollector
from repro.feeds.periscope import LookingGlass, PeriscopeAPI
from repro.feeds.stream import StreamingService
from repro.internet.network import Network
from repro.sim.latency import Exponential, LogNormal, Shifted
from repro.sim.rng import SeededRNG

#: RIS live as in the 2016 trial: a 15 s pipeline floor (it keeps the min
#: over many events off zero) plus an exponential tail, mean 40 s.  RIS
#: spreads its vantages over at most ``RIS_COLLECTORS`` ``rrc`` boxes.
RIS_LATENCY = Shifted(15.0, Exponential(25.0))
RIS_COLLECTORS = 3
#: BGPmon: heavier processing and larger batches, a 20 s floor plus a
#: log-normal tail, mean 50 s; one collector peers with every vantage.
BGPMON_LATENCY = Shifted(20.0, LogNormal(mean=30.0, sigma=0.7))


class MonitorDeployment:
    """The deployed sources; their collectors and looking glasses record
    the vantages (:func:`vantages`)."""

    def __init__(
        self,
        ris: StreamingService,
        bgpmon: StreamingService,
        periscope: PeriscopeAPI,
        batch: Optional[BatchArchive],
    ):
        self.ris = ris
        self.bgpmon = bgpmon
        self.periscope = periscope
        self.batch = batch
        #: The RIB-snapshot-only archive a "rib-dump" defender reads.  It
        #: brings monitor sessions of its own, so the scenario deploys it
        #: only when that source is enabled (never part of the shared world).
        self.rib_archive: Optional[BatchArchive] = None

    def __repr__(self) -> str:
        return (
            f"<MonitorDeployment ris={len(vantages(self.ris))} "
            f"bgpmon={len(vantages(self.bgpmon))} "
            f"lgs={len(self.periscope.looking_glasses)} "
            f"batch={len(vantages(self.batch))}>"
        )


def vantages(source) -> List[int]:
    """The vantage ASes feeding ``source``'s collectors, sorted (none for
    ``None``)."""
    if source is None:
        return []
    return sorted(asn for box in source.collectors for asn in box.vantage_asns)


def wire_collectors(network: Network, source, names: Sequence[str], vantage_asns):
    """Attach new collectors ``names`` to ``source``, then register
    ``vantage_asns`` round-robin over them, opening each one's monitor
    session as it goes.  Returns ``source``."""
    boxes = [RouteCollector(name, network.engine) for name in names]
    for box in boxes:
        source.attach_collector(box)
    for index, vantage in enumerate(vantage_asns):
        box = boxes[index % len(boxes)]
        box.register_vantage(vantage)
        network.add_monitor_session(vantage, box)
    return source


#: Share of each source's vantages drawn from stub ASes.
STUB_FRACTION = 0.2


def _pick_vantages(network: Network, rng: SeededRNG, count: int) -> List[int]:
    """Pick vantage ASes biased towards the well-connected core."""
    graph = network.graph
    core = [node.asn for node in graph.nodes() if node.tier <= 2]
    stubs = [node.asn for node in graph.nodes() if node.tier > 2]
    want_stubs = min(len(stubs), int(round(count * STUB_FRACTION)))
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
    combination worthwhile.  Each feed draws from the ``seed`` substream of
    its own name.
    """
    rng = SeededRNG(seed).substream("monitor-deploy")
    ris_vantages = _pick_vantages(network, rng.substream("ris"), num_ris_vantages)
    bgpmon_vantages = _pick_vantages(
        network, rng.substream("bgpmon"), num_bgpmon_vantages
    )
    lg_asns = _pick_vantages(network, rng.substream("lg"), num_lgs)

    def stream(name: str, latency, boxes: List[str], vantage_asns: List[int]):
        feed_rng = SeededRNG(seed).substream(name)
        service = StreamingService(network.engine, latency, feed_rng, name)
        return wire_collectors(network, service, boxes, vantage_asns)

    ris_boxes = max(1, min(RIS_COLLECTORS, len(ris_vantages)))
    rrcs = [f"ris-rrc{i:02d}" for i in range(ris_boxes)]
    ris = stream("ris", RIS_LATENCY, rrcs, ris_vantages)
    bgpmon = stream("bgpmon", BGPMON_LATENCY, ["bgpmon-collector"], bgpmon_vantages)

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
    if with_batch:
        batch_vantages = _pick_vantages(
            network, rng.substream("batch"), num_batch_vantages
        )
        batch = wire_collectors(
            network,
            BatchArchive(network.engine, rng=SeededRNG(seed).substream("routeviews")),
            ["routeviews-collector"],
            batch_vantages,
        )

    return MonitorDeployment(ris, bgpmon, periscope, batch)
