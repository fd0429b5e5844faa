"""Within-run checks on the full ``bench/`` workloads.

Each check compares numbers from one run with each other, so it holds on
any machine. Each needs a full bench workload, which is too slow for the
unit tests. Run the file in its own process::

    PYTHONPATH=src python -m pytest benchmarks/test_ci_checks.py -q -s

The two traced runs of ``bench/run.py`` leave their output in ``bench/out/``.
Nothing here edits ``bench/``: the checks import ``bench/inputs.py`` and read
``bench/expected.json``.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
sys.path.insert(0, BENCH)

import inputs  # noqa: E402  (bench/inputs.py)


@contextmanager
def deadline(seconds: int):
    """Fail the check if its body runs past ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s guard")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def traced_metrics(workload: str, out_name: str) -> dict:
    """One traced 5 s run of ``workload`` (seed 11): its stdout is saved as
    ``bench/out/<out_name>`` and its last line's metrics are returned."""
    run = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "5", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", out_name), "w") as handle:
        handle.write(run.stdout)
    return json.loads(run.stdout.strip().splitlines()[-1])["metrics"]


def test_verdict_cache_eviction_keeps_chunk_p95_near_the_median():
    # The smoke form's two loops never fill the verdict cache; the full
    # replay_diverse workload evicts on 131k of its misses. Chunks that pay
    # an eviction scan put p95 far above the median (7.0x with dict-front
    # deletion, 1.6x with the O(1) order index).
    m = traced_metrics("replay_diverse", "diverse-traced.txt")
    p50, p95 = (m["plane.chunk_ms_" + p]["value"] for p in ("p50", "p95"))
    print(f"plane.chunk_ms p50 {p50:.2f} p95 {p95:.2f} ratio {p95 / p50:.2f}")
    assert not p95 > 4 * p50


def test_workers_fork_with_the_tree_and_ship_no_spec():
    # Workers are forked with the registry and tree, so start() ships no
    # bytes and a worker's CPU is its parse plus its ingest: worker CPU over
    # the in-process parse of the same lines was 6.1x when each worker
    # rebuilt its registry from a SPEC frame, 1.4x forked.
    m = traced_metrics("replay_workers", "workers-traced.txt")
    spec, cpu, parse = (
        m[k]["value"] for k in ("workers.spec_bytes", "workers.cpu_sum_s", "replay.parse_s")
    )
    print(f"workers.spec_bytes {spec} workers.cpu_sum_s {cpu:.2f} "
          f"replay.parse_s {parse:.2f} ratio {cpu / parse:.2f}")
    assert not (spec != 0 or cpu > 3 * parse)


def collections() -> list:
    return [generation["collections"] for generation in gc.get_stats()]


def test_simulator_pauses_the_collector():
    # HijackExperiment.run() pauses the cyclic collector while it drives
    # the engine and restores it on the way out: at most one collection is
    # counted across run() (the deferred one that fires as the pause lifts;
    # 705 collections freeing nothing before the pause), gc is enabled
    # again afterwards, and the outcome is the pinned one.
    from repro.perf import COUNTERS
    from repro.testbed.scenario import HijackExperiment

    with deadline(300):
        COUNTERS.reset()
        experiment = HijackExperiment(inputs.scale_config(11))
        experiment.setup()
        before = collections()
        result = experiment.run()
        after = collections()
        outcome = inputs.sim_outcome(result, COUNTERS)
    with open(os.path.join(BENCH, "expected.json")) as handle:
        pinned = json.load(handle)["sim_1000as"]["outcome"]
    print(f"collections {before} -> {after} enabled {gc.isenabled()} outcome {outcome}")
    assert not (sum(after) - sum(before) > 1 or not gc.isenabled() or outcome != pinned)


def test_trace_load_pauses_the_collector():
    # load_trace() pauses the cyclic collector while it reads the columns
    # (nothing it allocates is cyclic): at most one collection is counted
    # across the load (298 collections freeing nothing before the pause),
    # gc is enabled again afterwards, and the loaded trace is the one the
    # amplifier's summary describes.
    from repro.feeds.replay import load_trace

    with deadline(300):
        prepared = inputs.prepare("replay_steady", 11)
        summary = prepared["summary"]
        before = collections()
        trace = load_trace(prepared["trace"])
        after = collections()
    print(f"collections {before} -> {after} enabled {gc.isenabled()} "
          f"records {len(trace.events)} digest {trace.digest[:12]}")
    assert not (
        sum(after) - sum(before) > 1
        or not gc.isenabled()
        or len(trace.events) != summary["records"]
        or trace.digest != summary["sha256"]
    )


def test_tenant_compile_pauses_the_collector():
    # build_synth_registry pauses the cyclic collector over the compile and
    # files what it built in the oldest generation: zero collections across
    # the bench registry's 104,000 rows (333 with the collector live), no
    # full collection in start()'s partition and fork, gc enabled after,
    # and the pinned registry and partition.
    import hashlib

    import rep  # bench/rep.py: the bench registry and worker count
    from repro.tenants import ParallelDetectionPlane

    with deadline(300):
        prepared = inputs.prepare("replay_workers", 11)
        origins = rep.origin_map(prepared["summary"])
        # A full sweep first, so that this process's earlier tests leave no
        # generation counts behind: the bench runs set-up in a fresh one.
        gc.collect()
        before = collections()
        registry = rep.build_registry(origins)
        compiled = collections()
        parallel = ParallelDetectionPlane(registry, num_workers=2, batch_size=rep.BATCH_SIZE)
        try:
            parallel.start()
            started = collections()
            spec = hashlib.sha256(repr(registry.to_spec()).encode("utf-8")).hexdigest()
            parallel.feed_trace(prepared["trace"])
            per_worker = parallel.finish()["events_per_worker"]
        finally:
            parallel.close()
    print(f"collections {before} -> {compiled} -> {started} enabled {gc.isenabled()} "
          f"spec {spec[:12]} events per worker {per_worker}")
    assert not (
        compiled != before
        or started[2] != compiled[2]
        or not gc.isenabled()
        or not spec.startswith("11f649231c9d")
        or per_worker != [102603, 102197]
    )


def test_decoder_warm_equals_cold():
    # decode_records resolves a repeated lead (kind|source|collector|
    # vantage) with one table lookup. Decoding the trace's lines once from
    # cleared tables and once behind the warm ones gives equal record
    # lists, and the trace spells exactly 76 leads.
    from repro.feeds import dumpfile
    from repro.feeds.replay import iter_trace_lines
    from repro.net import asn, prefix

    with deadline(300):
        lines = list(iter_trace_lines(inputs.prepare("replay_steady", 11)["trace"]))
        for table in (dumpfile._LEAD_CACHE, prefix._PARSE_CACHE, asn._PARSE_CACHE):
            table.clear()
        cold = list(dumpfile.decode_records(lines))
        warm = list(dumpfile.decode_records(lines))
        leads = len(dumpfile._LEAD_CACHE)
    print(f"records {len(cold)} warm == cold {warm == cold} leads {leads}")
    assert not (warm != cold or leads != 76)
