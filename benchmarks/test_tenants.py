"""Multi-tenant detection plane at scale: 1k tenants, 100k+ prefixes.

Not a paper artefact — this bench guards the throughput architecture that
``repro.tenants`` adds: one shared prefix tree and a batched ingest
pipeline serving a thousand tenants from a single recorded feed, versus
the naive pre-pipeline architecture (one one-tenant plane per tenant fed
through per-event callback fan-out).  The workload is the
pinned 1000-AS scenario of ``test_scale.py`` recorded **unfiltered** —
churn and all — so the feed actually exercises the tree (every churn
prefix is watched by ~50 synthetic tenants, and the hijack fires for all
of its watchers).

What is measured and guarded:

* **registry + tree build** — compiling ≥1,000 tenants / ≥100k monitored
  prefixes into interned rows and one radix tree;
* **batched pipeline vs per-event baseline** — same events, bit-identical
  incident rows, with a configurable speedup floor (default ≥3x);
* **--detect-workers scaling** — the prefix-partitioned worker fan-out
  must produce a merged alert digest identical to the single-process
  plane for every worker count, with per-worker busy-CPU recorded.

On CPU accounting: this box has a single hardware thread, so multi-worker
*wall* speedup is not measurable here (the workers time-slice one core).
As with the sharded-propagation bench, the honest scaling figure recorded
is the **critical-path CPU** — the busiest worker's process CPU seconds —
which is what the wall clock converges to on a machine with enough cores.

``BENCH_tenants.json`` (next to this file) records the numbers;
regenerate with::

    TENANTS_BENCH_WRITE=1 PYTHONPATH=src \
        python -m pytest benchmarks/test_tenants.py -s --benchmark-only

Environment knobs (for CI smoke runs on small machines):

``TENANTS_BENCH_TENANTS`` / ``TENANTS_BENCH_PREFIXES``
    Synthetic population size (defaults 1000 / 104000).
``TENANTS_MIN_SPEEDUP``
    Batched-vs-baseline speedup floor (default 3.0; 0 disables).
``TENANTS_BENCH_WORKERS``
    Comma-separated worker counts for the scaling test (default "2,4").
``TENANTS_MAX_WALL``
    Wall-clock ceiling in seconds for the single-process pipeline replay
    (0 = disabled; the CI smoke job pins this).
``TENANTS_BENCH_WRITE``
    Write ``BENCH_tenants.json`` when set to 1.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import run_once
from repro.feeds.interest import InterestIndex
from repro.feeds.replay import TraceRecorder, load_trace
from repro.perf import COUNTERS, sample_memory
from repro.tenants import (
    DetectionPlane,
    FlatPrefixTree,
    ParallelDetectionPlane,
    incident_rows,
)
from repro.tenants.pipeline import OPERATOR
from repro.tenants.synth import (
    baseline_services,
    build_synth_registry,
    observed_origin_map,
)
from repro.testbed.scenario import HijackExperiment
from test_scale import EXPECTED, scale_config

_BENCH_JSON = os.path.join(os.path.dirname(__file__), "BENCH_tenants.json")

TENANTS = int(os.environ.get("TENANTS_BENCH_TENANTS", "1000"))
PREFIXES = int(os.environ.get("TENANTS_BENCH_PREFIXES", "104000"))
MIN_SPEEDUP = float(os.environ.get("TENANTS_MIN_SPEEDUP", "3.0"))
WORKER_COUNTS = tuple(
    int(w)
    for w in os.environ.get("TENANTS_BENCH_WORKERS", "2,4").split(",")
    if w.strip()
)
MAX_WALL = float(os.environ.get("TENANTS_MAX_WALL", "0"))

_bench_numbers: dict = {}


@pytest.fixture(scope="module")
def recorded_unfiltered(tmp_path_factory):
    """The pinned 1000-AS run, recorded *unfiltered* (churn included).

    The stock ``record_trace`` path filters the tap to the owned prefixes
    (161 records); the tenant plane needs the whole feed, so the recorder
    attaches with ``prefixes=None``.  The tap draws no randomness, so the
    run must still hit the exact seed-pinned outcome — asserted here as
    the recording-neutrality guard.
    """
    path = str(tmp_path_factory.mktemp("trace") / "scale_unfiltered.trace")
    experiment = HijackExperiment(scale_config())
    experiment.setup()
    recorder = TraceRecorder(
        path,
        meta={"seed": experiment.config.seed, "unfiltered": True},
        config=experiment.artemis.config,
    )
    recorder.attach_all(experiment.artemis.sources, prefixes=None)
    experiment.recorder = recorder
    result = experiment.run()
    assert result.mitigated is EXPECTED["mitigated"]
    assert result.detection_delay == EXPECTED["detection_delay"]
    assert result.total_time == EXPECTED["total_time"]
    return {"path": path, "result": result}


@pytest.fixture(scope="module")
def tenant_world(recorded_unfiltered):
    """The synthetic tenant population grounded in the recorded trace."""
    trace = load_trace(recorded_unfiltered["path"])
    origins = observed_origin_map(trace.events)
    registry = build_synth_registry(
        origins, num_tenants=TENANTS, num_prefixes=PREFIXES
    )
    return {
        "trace": trace,
        "path": recorded_unfiltered["path"],
        "registry": registry,
        "live_prefixes": len(origins),
    }


@pytest.mark.slow
def test_registry_and_tree_build(benchmark, tenant_world):
    """Compile the population and build the shared tree; size-guarded."""
    registry = tenant_world["registry"]

    tree = run_once(benchmark, lambda: FlatPrefixTree(registry))

    monitored = len(tree)
    assert len(registry) >= min(TENANTS, 1000) or len(registry) == TENANTS
    assert monitored == len(registry.tree)
    if TENANTS >= 1000 and PREFIXES >= 104_000:
        assert monitored >= 100_000, (
            f"only {monitored} distinct monitored prefixes — "
            "the bench must cover the 100k contract"
        )
    # Every recorded live prefix is resolvable to many watchers.
    sample = tenant_world["trace"].events[0].prefix
    assert tree.resolve(sample)
    sample_memory()
    numbers = {
        "tenants": len(registry),
        "rules": registry.num_rules,
        "monitored_prefixes": monitored,
        "live_prefixes": tenant_world["live_prefixes"],
        "peak_rss_kb": COUNTERS.peak_rss_kb,
    }
    benchmark.extra_info.update(numbers)
    _bench_numbers["population"] = numbers


@pytest.mark.slow
def test_batched_pipeline_vs_per_event_baseline(benchmark, tenant_world):
    """Same events, same incidents, ≥``TENANTS_MIN_SPEEDUP``x faster.

    The baseline is the pre-pipeline architecture: one one-tenant plane of
    batch size 1 per tenant, with events fanned out per-event through the
    InterestIndex: what N independent
    single-operator deployments sharing a feed would run.  Both sides are
    the same engine, so what this checks is tenant isolation (N private
    planes and one shared plane found byte-identical incident rows) and
    what it times is the win from sharing one tree and batching.
    """
    registry = tenant_world["registry"]
    # Built once, outside both timed loops: they time ingest, not decoding.
    events = list(tenant_world["trace"].events)

    # --- baseline: per-event callback fan-out across N planes ----------
    planes = baseline_services(registry)
    index = InterestIndex()
    for name, solo in planes.items():
        index.add(solo.ingest, prefixes=[r.prefix for r in registry.rules_for(name)])
    baseline_started = time.perf_counter()
    lookup = index.lookup
    for event in events:
        for subscription in lookup(event.prefix):
            subscription.callback(event)
    baseline_wall = time.perf_counter() - baseline_started
    baseline_rows = incident_rows(
        {name: solo.tenant_state(OPERATOR).alerts for name, solo in planes.items()}
    )

    # --- batched plane (timed region) ----------------------------------
    COUNTERS.reset()
    plane = DetectionPlane(registry, batch_size=1024)
    walls = {}

    def run_plane():
        started = time.perf_counter()
        ingest = plane.ingest
        for event in events:
            ingest(event)
        plane.flush()
        walls["plane"] = time.perf_counter() - started

    run_once(benchmark, run_plane)
    plane_wall = walls["plane"]

    assert plane.incident_rows() == baseline_rows
    assert plane.total_alerts() == len(baseline_rows) > 0
    _bench_numbers["single_digest"] = plane.digest()

    speedup = baseline_wall / plane_wall if plane_wall > 0 else float("inf")
    if MIN_SPEEDUP > 0:
        assert speedup >= MIN_SPEEDUP, (
            f"batched plane only {speedup:.2f}x over the per-event baseline "
            f"(floor {MIN_SPEEDUP:.1f}x): baseline {baseline_wall:.3f}s, "
            f"plane {plane_wall:.3f}s"
        )
    if MAX_WALL > 0:
        assert plane_wall <= MAX_WALL, (
            f"pipeline replay took {plane_wall:.2f}s, over the "
            f"{MAX_WALL:.0f}s smoke ceiling"
        )

    numbers = {
        "events": len(events),
        "baseline_wall_seconds": round(baseline_wall, 4),
        "pipeline_wall_seconds": round(plane_wall, 4),
        "speedup": round(speedup, 2),
        "pipeline_events_per_second": round(len(events) / plane_wall, 1),
        "alerts": plane.total_alerts(),
        "batches": COUNTERS.pipeline_batches,
        "trie_walks": COUNTERS.pipeline_trie_walks,
        "memo_hits": COUNTERS.verdict_cache_hits,
        "merged_alert_digest": plane.digest(),
    }
    benchmark.extra_info.update(numbers)
    _bench_numbers["pipeline_vs_baseline"] = numbers


@pytest.mark.slow
def test_detect_workers_scaling(benchmark, tenant_world):
    """Partitioned workers: digest-identical merges, per-worker CPU.

    Runs the recorded trace through ``ParallelDetectionPlane`` for each
    configured worker count.  Every merged digest must equal the
    single-process plane's (computed in the speedup test above); the
    recorded scaling figure is critical-path CPU (see module docstring
    for the single-core caveat).
    """
    registry = tenant_world["registry"]
    path = tenant_world["path"]
    single_digest = _bench_numbers.get("single_digest")
    if single_digest is None:  # running standalone: recompute the reference
        plane = DetectionPlane(registry, batch_size=1024)
        for event in tenant_world["trace"].events:
            plane.ingest(event)
        plane.flush()
        single_digest = plane.digest()

    runs = {}

    def sweep():
        for workers in WORKER_COUNTS:
            COUNTERS.reset()
            parallel = ParallelDetectionPlane(
                registry, num_workers=workers, batch_size=1024
            )
            started = time.perf_counter()
            parallel.start()
            parallel.feed_trace(path)
            result = parallel.finish()
            wall = time.perf_counter() - started
            assert result["digest"] == single_digest, (
                f"{workers}-worker merged digest diverged from the "
                "single-process plane"
            )
            runs[workers] = {
                "wall_seconds": round(wall, 4),
                "cpu_seconds": [round(c, 4) for c in result["cpu_seconds"]],
                "critical_path_cpu": round(result["critical_path_cpu"], 4),
                "events_routed": result["events_routed"],
                "events_unrouted": result["events_unrouted"],
                "alerts": result["alerts"],
                "roots": len(parallel._roots),
            }
        return runs

    run_once(benchmark, sweep)
    assert set(runs) == set(WORKER_COUNTS)
    benchmark.extra_info["worker_runs"] = runs
    _bench_numbers["detect_workers"] = {str(w): r for w, r in runs.items()}

    if os.environ.get("TENANTS_BENCH_WRITE") == "1":
        payload = {
            "description": (
                "Multi-tenant detection plane on the pinned 1000-AS scale "
                "trace recorded unfiltered (churn included): synthetic "
                "tenant population, batched pipeline vs per-event "
                "baseline, and --detect-workers partitioning."
            ),
            "cpu_note": (
                "Recorded on a single-core host: multi-worker wall time "
                "cannot beat one worker here; the scaling figure is "
                "critical_path_cpu (busiest worker's CPU seconds), which "
                "bounds the wall clock on a machine with enough cores."
            ),
            "merged_digest_identical_across_workers": True,
            **{k: v for k, v in _bench_numbers.items() if k != "single_digest"},
        }
        with open(_BENCH_JSON, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
