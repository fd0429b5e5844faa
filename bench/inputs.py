"""Workload inputs: the pinned 1000-AS scenario and its amplified traces.

``bench/`` is self-contained: the scenario below is a copy of the pinned
configuration in ``benchmarks/test_scale.py``, not an import of it.

Inputs are made from the seed alone.  The world (topology, churn pool,
monitor placement) stays the pinned ``WORLD_SEED`` world for every seed;
``--seed N`` re-keys the run-scoped random streams at the hijack instant,
so each seed is a different hijack-to-recovered run of comparable size
(98.7k-102k engine events).  A fully reseeded world is not comparable: it
ranges from 90k events to runs that never mitigate.

Generated traces are cached under ``bench/.cache/``, keyed by (seed, mode,
loops, base-trace sha256); delete the directory after changing what the
simulator records.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import time
from typing import Dict, Optional

import amplify

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")

DEFAULT_SEED = 11
WORLD_SEED = 11

#: The synthetic tenant population (the ``BENCH_tenants.json`` one).
TENANTS = 1000
RULE_ROWS = 104_000

#: ``replay_steady`` / ``replay_workers`` trace size.  Every seed's trace is
#: cut to exactly this many records, so seeds are comparable.
STEADY_RECORDS = 204_800
#: ``replay_diverse`` holds this many verdict caches' worth of distinct keys.
DIVERSE_CACHE_MULTIPLE = 3
#: ``--smoke`` amplifies every trace by this many loops.
SMOKE_LOOPS = 2

#: Workload -> amplifier mode; ``sim_1000as`` needs no trace.
TRACE_MODE = {
    "replay_steady": "steady",
    "replay_diverse": "diverse",
    "replay_workers": "steady",
}


def scale_config(seed: int = DEFAULT_SEED):
    """The pinned 1000-AS three-phase hijack scenario, run-seeded by ``seed``."""
    from repro.internet.churn import ChurnConfig
    from repro.testbed.scenario import ScenarioConfig
    from repro.topology.generator import GeneratorConfig

    return ScenarioConfig(
        seed=seed,
        # The default seed is the pinned scenario itself, bit for bit; any
        # other seed reuses its world and re-keys only the run.
        world_seed=None if seed == WORLD_SEED else WORLD_SEED,
        topology=GeneratorConfig(num_tier1=10, num_tier2=110, num_stubs=880),
        churn=ChurnConfig(pool_size=40, event_rate=0.25),
        churn_warmup=120.0,
        monitors=dict(
            num_ris_vantages=20,
            num_bgpmon_vantages=12,
            num_lgs=12,
            lg_poll_interval=60.0,
            num_batch_vantages=12,
        ),
    )


def sim_outcome(result, counters) -> list:
    """The outcome tuple a ``sim_1000as`` repetition is checked by."""
    return [
        result.mitigated,
        result.detection_delay,
        result.total_time,
        counters.events_processed,
        counters.updates_processed,
    ]


def verdict_cache_size() -> int:
    """The program's own default verdict-cache bound (65,536 today)."""
    from repro.tenants import DetectionPlane

    return inspect.signature(DetectionPlane).parameters["verdict_cache_size"].default


def live_per_tenant(live_prefixes: int) -> int:
    """Enough live slots per tenant that every live prefix is monitored."""
    return max(2, math.ceil(live_prefixes / TENANTS))


def record_base(seed: int, path: str) -> list:
    """Run the scenario once, recording its feed unfiltered; returns the outcome."""
    from repro.feeds.replay import TraceRecorder
    from repro.perf import COUNTERS
    from repro.testbed.scenario import HijackExperiment

    COUNTERS.reset()
    experiment = HijackExperiment(scale_config(seed))
    experiment.setup()
    recorder = TraceRecorder(
        path,
        meta={"seed": seed, "unfiltered": True},
        config=experiment.artemis.config,
    )
    recorder.attach_all(experiment.artemis.sources, prefixes=None)
    experiment.recorder = recorder
    result = experiment.run()  # closes the recorder
    return sim_outcome(result, COUNTERS)


def prepare(workload: str, seed: int, smoke: bool = False) -> Dict:
    """Generate (or find cached) the workload's inputs.

    Returns ``{"inputs_s"}`` and, for trace workloads, the amplified
    trace's path, its amplifier summary (record count, loops, distinct
    keys, origins) and, when the base run was recorded just now, that
    run's outcome tuple (else ``None``).
    """
    started = time.perf_counter()
    mode = TRACE_MODE.get(workload)
    if mode is None:
        return {"inputs_s": 0.0}
    os.makedirs(CACHE_DIR, exist_ok=True)
    base = os.path.join(CACHE_DIR, f"base-s{seed}.trace")
    base_outcome: Optional[list] = None
    if not os.path.exists(base):
        base_outcome = record_base(seed, base + ".tmp")
        os.replace(base + ".tmp", base)
    _header, records, footer = amplify.read_base(base)
    max_records = 0
    if smoke:
        loops = SMOKE_LOOPS
    elif mode == "steady":
        loops = math.ceil(STEADY_RECORDS / len(records))
        max_records = STEADY_RECORDS
    else:
        loops = math.ceil(
            DIVERSE_CACHE_MULTIPLE * verdict_cache_size() / amplify.distinct_keys(records)
        )
    stem = os.path.join(
        CACHE_DIR, f"{mode}-s{seed}-l{loops}-r{max_records}-{footer['sha256'][:12]}"
    )
    trace, sidecar = stem + ".trace", stem + ".json"
    if os.path.exists(trace) and os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as handle:
            summary = json.load(handle)
    else:
        summary = amplify.amplify(
            base, trace + ".tmp", mode, loops, seed, max_records=max_records
        )
        os.replace(trace + ".tmp", trace)
        with open(sidecar + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        os.replace(sidecar + ".tmp", sidecar)
    return {
        "inputs_s": time.perf_counter() - started,
        "trace": trace,
        "summary_path": sidecar,
        "summary": summary,
        "base_outcome": base_outcome,
    }
