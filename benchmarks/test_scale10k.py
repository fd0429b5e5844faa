"""The sharded 10k-AS bench (`repro.shard` + the pinned hijack scenario).

Not a paper artefact — this bench guards the sharded propagation engine's
two contracts at scale:

* **bit-identity** — the pinned fixed-instant scenario (announce at t=0,
  sub-prefix hijack at t=400, MOAS + de-aggregation mitigation at t=800,
  observe to t=1400) must produce the same outcome digest no matter how
  many worker processes execute it;
* **honest scale accounting** — walls, per-worker busy CPU (the critical
  path: on a multi-core host a window's wall is its busiest shard),
  window/stall counts, cross-shard traffic, and per-process peak RSS are
  attached to ``extra_info`` and recorded in ``BENCH_10k.json``.

The default (smoke) test runs a 1000-AS scaled-down world at 1 vs 2 shards
— small enough for CI under a wall-clock guard, big enough that thousands
of conservative windows and cross-shard records flow.  The full pinned
10k-AS world (12 tier-1, 988 tier-2, 9000 stubs) is opt-in::

    SCALE10K_FULL=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_scale10k.py -s --benchmark-only

Environment knobs:

``SCALE10K_FULL``
    Run the full 10k-AS pinned scenario (default off; it needs ~10x the
    smoke's wall).
``SCALE10K_SHARDS``
    Shard count for the full run's partitioned side (default 4).
``SCALE10K_CACHE``
    Topology cache directory (default: a per-session temp dir), so the
    10k graph is generated once per host.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import run_once
from repro.perf import COUNTERS
from repro.shard.scenario import ShardScenarioConfig, run_shard_scenario
from repro.topology.cache import load_or_build_graph
from repro.topology.generator import GeneratorConfig

#: The full pinned world: 10,000 ASes in the standard three-tier hierarchy.
SCALE10K_TOPOLOGY = dict(num_tier1=12, num_tier2=988, num_stubs=9000)

#: The CI smoke world: same shape at a tenth the size.
SMOKE_TOPOLOGY = dict(num_tier1=6, num_tier2=94, num_stubs=900)

SEED = 11

#: Seed-pinned invariants of the smoke scenario (drift guards — they depend
#: only on the simulated world, never on host speed or shard count).
EXPECTED_SMOKE = {
    "digest": "237f8eac128cd224364e1c38dfddc6c9b68c94074dae64cd32881a7630062dad",
    "flips": 2607,
}

#: Seed-pinned invariants of the full 10k-AS scenario.
EXPECTED_10K = {
    "digest": "b5b4c76bfc840813e904bf5e464ee8dae26b6b50ebc2ac1b3a77f9f5f63a1721",
    "flips": 25440,
    "detection_delay": 3.7184864355521086,
}


def _scenario(topology: dict, num_shards: int):
    return ShardScenarioConfig(
        topology=GeneratorConfig(**topology),
        seed=SEED,
        num_shards=num_shards,
    )


def _cached_graph(topology: dict, tmp_path_factory):
    cache_dir = os.environ.get("SCALE10K_CACHE")
    if cache_dir is None:
        cache_dir = str(tmp_path_factory.mktemp("topocache"))
    return load_or_build_graph(GeneratorConfig(**topology), SEED, cache_dir)


def _run(topology: dict, num_shards: int, graph):
    """One timed scenario run; returns (result, wall_seconds, counters)."""
    COUNTERS.reset()
    started = time.perf_counter()
    result = run_shard_scenario(_scenario(topology, num_shards), graph=graph)
    wall = time.perf_counter() - started
    return result, wall, COUNTERS.as_dict()


def _scale_info(result, wall: float, counters: dict) -> dict:
    worker_cpu = [
        round(delta.get("cpu_seconds", 0.0), 3) for delta in result.worker_perf
    ]
    return {
        "wall_seconds": round(wall, 3),
        "worker_busy_cpu_seconds": worker_cpu,
        "critical_path_cpu_seconds": round(max(worker_cpu), 3) if worker_cpu else None,
        "shard_windows": counters["shard_windows"],
        "sync_barrier_stalls": counters["sync_barrier_stalls"],
        "cross_shard_messages": counters["cross_shard_messages"],
        "cross_shard_bytes": counters["cross_shard_bytes"],
        "shard_rss_peak_kb": counters["shard_rss_peak_kb"],
    }


def test_scale10k_smoke_sharded_bit_identity(benchmark, tmp_path_factory):
    """1000-AS smoke: ``--shards 2`` must reproduce ``--shards 1`` exactly.

    The timed region covers the sharded side only; the single-process
    reference run and its comparison ride along untimed in ``extra_info``.
    """
    graph = _cached_graph(SMOKE_TOPOLOGY, tmp_path_factory)
    reference, single_wall, _counters = _run(SMOKE_TOPOLOGY, 1, graph)
    assert reference.digest == EXPECTED_SMOKE["digest"]
    assert len(reference.flips) == EXPECTED_SMOKE["flips"]

    holder = {}

    def sharded():
        holder["run"] = _run(SMOKE_TOPOLOGY, 2, graph)

    run_once(benchmark, sharded)
    result, wall, counters = holder["run"]
    assert result.digest == reference.digest
    benchmark.extra_info["single_wall_seconds"] = round(single_wall, 3)
    benchmark.extra_info["sharded"] = _scale_info(result, wall, counters)


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("SCALE10K_FULL", "0") != "1",
    reason="full 10k-AS run is opt-in via SCALE10K_FULL=1",
)
def test_scale10k_full_pinned(benchmark, tmp_path_factory):
    """The full pinned 10k-AS scenario, single-process vs sharded."""
    num_shards = int(os.environ.get("SCALE10K_SHARDS", "4"))
    graph = _cached_graph(SCALE10K_TOPOLOGY, tmp_path_factory)
    reference, single_wall, _counters = _run(SCALE10K_TOPOLOGY, 1, graph)
    assert reference.digest == EXPECTED_10K["digest"]
    assert len(reference.flips) == EXPECTED_10K["flips"]
    assert reference.detection_delay == EXPECTED_10K["detection_delay"]

    holder = {}

    def sharded():
        holder["run"] = _run(SCALE10K_TOPOLOGY, num_shards, graph)

    run_once(benchmark, sharded)
    result, wall, counters = holder["run"]
    assert result.digest == reference.digest
    benchmark.extra_info["single_wall_seconds"] = round(single_wall, 3)
    benchmark.extra_info["num_shards"] = num_shards
    benchmark.extra_info["sharded"] = _scale_info(result, wall, counters)
