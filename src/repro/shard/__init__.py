"""Sharded propagation: partition the AS graph across worker processes.

The single-process hot path tops out around 1000-AS worlds; real-Internet
experiments need an order of magnitude more.  This package splits the AS
graph into edge-cut shards, runs each shard's event engine and BGP speakers
in its own worker process, and exchanges cross-shard announcements as
batched, epoch-stamped delivery bundles under conservative-time
synchronization — producing results **bit-identical** to the single-process
run (see DESIGN.md § Sharded propagation for the argument).

Layers:

* :mod:`repro.shard.partition` — edge-cut partitioning + lookahead bounds;
* :mod:`repro.shard.boundary` — the cross-shard session mirror and bundles;
* :mod:`repro.shard.world` — a shard-local :class:`~repro.internet.network.Network`
  (the one build, restricted to local ASes) plus flip tracking and
  warm-start forking; over the whole graph, the in-process 1-shard runner;
* :mod:`repro.shard.worker` — the worker-process command loop;
* :mod:`repro.shard.runner` — the coordinator (conservative windows,
  bundle routing, quiescence detection) and ``make_runner``;
* :mod:`repro.shard.scenario` — the pinned 10k-AS hijack scenario and its
  outcome digest.
"""

from repro.shard.partition import ShardPlan, partition_graph
from repro.shard.runner import make_runner
from repro.shard.scenario import ShardScenarioConfig, run_shard_scenario

__all__ = [
    "ShardPlan",
    "partition_graph",
    "make_runner",
    "ShardScenarioConfig",
    "run_shard_scenario",
]
