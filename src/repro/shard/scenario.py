"""The pinned sharded hijack scenario and its outcome digest.

One fully deterministic ARTEMIS-style experiment — announce, sub-prefix
hijack, MOAS + de-aggregation mitigation — scripted on *fixed simulated
instants* so the phase boundaries are identical no matter how many shards
execute it.  The outcome digest hashes everything observable (per-phase
data-plane origin maps, the origin-flip log, detection delay, traffic
totals) and must be bit-identical across ``--shards 1/2/4`` and across
repeated runs; ``tests/test_determinism.py`` enforces exactly that.

Actor selection draws from a dedicated ``"shardscenario"`` substream so it
never perturbs topology or network draws.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.shard.runner import make_runner
from repro.sim.rng import SeededRNG
from repro.topology.cache import load_or_build_graph
from repro.topology.generator import GeneratorConfig
from repro.topology.graph import ASGraph


#: The victim's owned prefix and the more-specific the hijacker announces.
PREFIX = "10.0.0.0/22"
HIJACK_PREFIX = "10.0.0.0/24"

#: Fixed phase instants (simulated seconds): hijack, mitigation, end.
T_HIJACK = 400.0
T_MITIGATE = 800.0
T_END = 1400.0

#: Stub ASes whose data plane stands in for monitor feeds.
NUM_MONITORS = 8


class ShardScenarioConfig:
    """Everything that determines one pinned scenario run."""

    def __init__(
        self,
        topology: Optional[GeneratorConfig] = None,
        seed: int = 0,
        num_shards: int = 1,
        cache_dir: Optional[str] = None,
    ):
        self.topology = topology or GeneratorConfig()
        self.seed = seed
        self.num_shards = num_shards
        self.cache_dir = cache_dir


class ShardScenarioResult:
    """Outcome of one run; ``digest`` is the bit-identity fingerprint."""

    __slots__ = (
        "victim",
        "hijacker",
        "helper",
        "monitors",
        "origin_phases",
        "flips",
        "detection_delay",
        "stats",
        "digest",
        "worker_perf",
    )

    def __init__(
        self,
        victim: int,
        hijacker: int,
        helper: int,
        monitors: List[int],
        origin_phases: Dict[str, Dict[int, Optional[int]]],
        flips: List[Tuple[float, int, Optional[int]]],
        detection_delay: Optional[float],
        stats: Dict[str, int],
        worker_perf: Optional[List[Dict[str, float]]] = None,
    ):
        self.victim = victim
        self.hijacker = hijacker
        self.helper = helper
        self.monitors = monitors
        self.origin_phases = origin_phases
        self.flips = flips
        self.detection_delay = detection_delay
        self.stats = stats
        #: Per-worker counter deltas + busy CPU seconds (``--shards >= 2``
        #: only; empty for the in-process runner).  Excluded from the digest:
        #: host-side load accounting, not simulated outcome.
        self.worker_perf = list(worker_perf or [])
        material = repr((
            victim,
            hijacker,
            helper,
            tuple(monitors),
            tuple(
                (name, tuple(sorted(origins.items())))
                for name, origins in sorted(origin_phases.items())
            ),
            tuple(flips),
            detection_delay,
            tuple(sorted(stats.items())),
        ))
        self.digest = hashlib.sha256(material.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return (
            f"<ShardScenarioResult victim=AS{self.victim} "
            f"hijacker=AS{self.hijacker} detect={self.detection_delay} "
            f"digest={self.digest[:12]}>"
        )


def pick_actors(graph: ASGraph, seed: int) -> Tuple[int, int, int, List[int]]:
    """Deterministic (victim, hijacker, helper, monitors) for a graph."""
    rng = SeededRNG(seed).substream("shardscenario")
    stubs = graph.stubs()
    if len(stubs) < 2:
        raise SimulationError("scenario needs at least two stub ASes")
    victim = rng.choice(stubs)
    hijacker = rng.choice(stubs)
    while hijacker == victim:
        hijacker = rng.choice(stubs)
    helper = rng.choice(graph.tier1())
    observer_pool = [asn for asn in stubs if asn not in (victim, hijacker)]
    monitors = sorted(rng.sample(observer_pool, min(NUM_MONITORS, len(observer_pool))))
    return victim, hijacker, helper, monitors


def _detection_delay(
    flips: List[Tuple[float, int, Optional[int]]],
    monitors: List[int],
    hijacker: int,
) -> Optional[float]:
    """Seconds from the hijack instant until a monitor's data plane flips to
    the hijacker — the scenario's stand-in for monitor-feed detection."""
    monitor_set = set(monitors)
    for time, asn, origin in flips:
        if time >= T_HIJACK and origin == hijacker and asn in monitor_set:
            return time - T_HIJACK
    return None


def run_shard_scenario(
    config: ShardScenarioConfig,
    graph: Optional[ASGraph] = None,
) -> ShardScenarioResult:
    """Run the pinned scenario end to end; see the module docstring."""
    if graph is None:
        graph = load_or_build_graph(config.topology, config.seed, config.cache_dir)
    victim, hijacker, helper, monitors = pick_actors(graph, config.seed)
    runner = make_runner(graph, config.num_shards, seed=config.seed)
    try:
        runner.watch(HIJACK_PREFIX)
        # Phase 0 — the legitimate announcement, converging cold.
        runner.originate(victim, PREFIX)
        runner.run_to(T_HIJACK)
        phase_baseline = runner.observe(HIJACK_PREFIX)
        # Phase 1 — sub-prefix hijack: the attacker originates the /24, which
        # wins longest-match everywhere it propagates.
        runner.originate(hijacker, HIJACK_PREFIX)
        runner.run_to(T_MITIGATE)
        phase_hijacked = runner.observe(HIJACK_PREFIX)
        # Phase 2 — ARTEMIS mitigation: the victim de-aggregates (announces
        # the exact hijacked prefix itself) and an organization helper AS
        # announces it too with the victim as forged origin (MOAS), pulling
        # traffic back from regions the victim alone cannot reach.
        runner.originate(victim, HIJACK_PREFIX)
        runner.originate_forged(helper, HIJACK_PREFIX, [victim])
        runner.run_to(T_END)
        phase_mitigated = runner.observe(HIJACK_PREFIX)
        flips = runner.flips(HIJACK_PREFIX)
        stats = runner.stats()
        worker_perf = runner.collect_perf()
    finally:
        runner.close()
    return ShardScenarioResult(
        victim,
        hijacker,
        helper,
        monitors,
        {
            "baseline": phase_baseline,
            "hijacked": phase_hijacked,
            "mitigated": phase_mitigated,
        },
        flips,
        _detection_delay(flips, monitors, hijacker),
        stats,
        worker_perf=worker_perf,
    )
