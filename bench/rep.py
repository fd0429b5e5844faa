"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition, so heap, intern tables
and the verdict cache never carry over from one repetition to the next.
The last line of standard output is one JSON object.

``--mode timed`` measures what a user pays, with tracing off: set-up, the
timed body's wall and CPU (this process plus its children), peak RSS and
the outcome the parent checks.  ``--mode traced`` measures the layers:
``sim_1000as`` runs under the cross-package profile hook; the ``replay_*``
workloads call each stage's public function one after another on the
workload's real input, with a span around each call and ``repro.perf``
counter deltas read at the same boundaries.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List

import amplify
import inputs
from tracer import LayerProfiler, Spans

BATCH_SIZE = 1024
#: Events per timed chunk of the traced plane ingest (the batch size, so
#: every chunk holds exactly one drain).
CHUNK = 1024
#: Lines per encode/decode sample: the parent's real shipment size.
SHIPMENT_LINES = 4096


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Max RSS of this process, or of its largest child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def rss_bytes() -> int:
    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize()


def num_workers() -> int:
    return min(2, os.cpu_count() or 1)


def load_summary(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def origin_map(summary: Dict) -> Dict:
    from repro.net.prefix import Prefix

    return {Prefix.parse(text): asn for text, asn in summary["origins"].items()}


def build_registry(origins: Dict):
    from repro.tenants.synth import build_synth_registry

    return build_synth_registry(
        origins,
        num_tenants=inputs.TENANTS,
        num_prefixes=inputs.RULE_ROWS,
        live_per_tenant=inputs.live_per_tenant(len(origins)),
    )


def replay_failures(counters, records: int, seen: int) -> int:
    """Failed records of one replay repetition (see README, *Operations*)."""
    return (
        counters.events_malformed
        + counters.replay_events_dropped
        + counters.notifier_alerts_dropped
        + abs(records - seen)
    )


def incident_check(rows: List, digest: str) -> Dict:
    """What the parent compares: digest, incident count, blocks alerted in."""
    blocks = set()
    for row in rows:
        announced = row[3]
        if amplify.parse_v4(announced)[0] >= amplify.BLOCK_SPACE_START:
            blocks.add(amplify.block_of(announced))
    return {"digest": digest, "incidents": len(rows), "alert_blocks": len(blocks)}


# ------------------------------------------------------------------- timed


def timed_sim(args) -> Dict:
    from repro.perf import COUNTERS
    from repro.testbed.scenario import HijackExperiment

    COUNTERS.reset()
    started = time.perf_counter()
    experiment = HijackExperiment(inputs.scale_config(args.seed))
    experiment.setup()
    body = time.perf_counter()
    cpu = cpu_seconds()
    result = experiment.run()
    wall = time.perf_counter() - body
    return {
        "setup_s": body - started,
        "wall_s": wall,
        "cpu_s": cpu_seconds() - cpu,
        "work": COUNTERS.events_processed,
        "attempted": 1,
        "failed": 0,
        "check": {"outcome": inputs.sim_outcome(result, COUNTERS)},
    }


def timed_replay(args) -> Dict:
    """What ``repro replay TRACE --synth-tenants`` does, single process."""
    from repro.feeds.replay import load_trace
    from repro.perf import COUNTERS
    from repro.tenants import DetectionPlane

    summary = load_summary(args.summary)
    origins = origin_map(summary)
    COUNTERS.reset()
    started = time.perf_counter()
    plane = DetectionPlane(build_registry(origins), batch_size=args.batch)
    body = time.perf_counter()
    cpu = cpu_seconds()
    trace = load_trace(args.trace)
    ingest = plane.ingest
    for event in trace.events:
        ingest(event)
    plane.flush()
    digest = plane.digest()
    wall = time.perf_counter() - body
    return {
        "setup_s": body - started,
        "wall_s": wall,
        "cpu_s": cpu_seconds() - cpu,
        "work": summary["records"],
        "attempted": summary["records"],
        "failed": replay_failures(COUNTERS, summary["records"], plane.events_ingested),
        "check": incident_check(plane.incident_rows(), digest),
    }


def timed_workers(args) -> Dict:
    from repro.perf import COUNTERS
    from repro.tenants import ParallelDetectionPlane

    summary = load_summary(args.summary)
    origins = origin_map(summary)
    COUNTERS.reset()
    started = time.perf_counter()
    parallel = ParallelDetectionPlane(
        build_registry(origins), num_workers=num_workers(), batch_size=BATCH_SIZE
    )
    try:
        parallel.start()
        body = time.perf_counter()
        cpu = cpu_seconds()
        parallel.feed_trace(args.trace)
        result = parallel.finish()
        wall = time.perf_counter() - body
    finally:
        parallel.close()
    seen = result["events_routed"] + result["events_unrouted"] + result["events_malformed"]
    return {
        "setup_s": body - started,
        "wall_s": wall,
        # Worker CPU lands when finish() reaps the workers, so it includes
        # their share of set-up (building their planes from the SPEC).
        "cpu_s": cpu_seconds() - cpu,
        "work": summary["records"],
        "attempted": summary["records"],
        "failed": replay_failures(COUNTERS, summary["records"], seen),
        "check": incident_check(result["rows"], result["digest"]),
    }


# ------------------------------------------------------------------ traced


def traced_sim(args, spans: Spans) -> Dict:
    from repro.perf import COUNTERS
    from repro.testbed.scenario import HijackExperiment
    from repro.topology.generator import generate_internet

    config = inputs.scale_config(args.seed)
    with spans.span("topology", "generate_internet"):
        generate_internet(config.topology, seed=inputs.WORLD_SEED)
    generate_s = spans.total("topology", "generate_internet")
    COUNTERS.reset()
    experiment = HijackExperiment(config)
    with spans.span("testbed", "HijackExperiment.setup"):
        experiment.setup()
    body = time.perf_counter()
    with LayerProfiler(spans):
        result = experiment.run()
    wall = time.perf_counter() - body
    layers = spans.by_layer()
    metrics = {
        "topology.generate_s": generate_s,
        "testbed.setup_s": experiment.phase_walls["setup"],
        "bgp.updates": COUNTERS.updates_processed,
        "sim.events": COUNTERS.events_processed,
        "simclock.detection_delay_s": result.detection_delay,
        "simclock.announce_delay_s": result.announce_delay,
        "simclock.recovery_s": result.completion_delay,
    }
    for phase in ("phase1", "phase2", "phase3"):
        metrics[f"testbed.{phase}_s"] = experiment.phase_walls[phase]
    for layer in ("bgp", "sim", "internet", "net", "feeds", "core", "sdn"):
        row = layers.get(layer, {"self_s": 0.0, "spans": 0})
        metrics[f"{layer}.self_s"] = row["self_s"]
        if layer not in ("internet", "net"):
            metrics[f"{layer}.spans"] = row["spans"]
    return {
        "wall_s": wall,
        "layers": metrics,
        "check": {"outcome": inputs.sim_outcome(result, COUNTERS)},
    }


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _replay_stages(args, spans: Spans, metrics: Dict):
    """Read and parse stages shared by every traced replay.

    Returns the raw record lines and ``load_trace``'s events.
    """
    from repro.feeds.dumpfile import parse_event
    from repro.feeds.replay import load_trace
    from repro.tenants.workers import iter_trace_line_bytes

    with spans.span("replay", "iter_trace_line_bytes"):
        lines = list(iter_trace_line_bytes(args.trace))
    read_s = spans.total("replay", "iter_trace_line_bytes")
    resident = rss_bytes()
    with spans.span("replay", "parse_event"):
        events = [parse_event(line.decode("utf-8")) for line in lines]
    parse_s = spans.total("replay", "parse_event")
    metrics["replay.bytes_per_event"] = (rss_bytes() - resident) / len(events)
    metrics["replay.read_s"] = read_s
    metrics["replay.read_lines_per_s"] = len(lines) / read_s
    metrics["replay.parse_s"] = parse_s
    metrics["replay.parse_events_per_s"] = len(events) / parse_s
    del events
    with spans.span("replay", "load_trace"):
        trace = load_trace(args.trace)
    metrics["replay.load_trace_s"] = spans.total("replay", "load_trace")
    return lines, trace.events


def _registry_stages(origins: Dict, spans: Spans, metrics: Dict):
    from repro.tenants import FlatPrefixTree

    with spans.span("registry", "build_synth_registry"):
        registry = build_registry(origins)
    with spans.span("tree", "FlatPrefixTree"):
        tree = FlatPrefixTree(registry)
    metrics["registry.compile_s"] = spans.total("registry", "build_synth_registry")
    metrics["registry.rules"] = registry.num_rules
    metrics["tree.build_s"] = spans.total("tree", "FlatPrefixTree")
    metrics["tree.bytes"] = tree.nbytes()
    metrics["tree.bytes_per_prefix"] = tree.nbytes() / len(tree)
    return registry, tree


def traced_replay(args, spans: Spans) -> Dict:
    from repro.perf import COUNTERS
    from repro.tenants import DetectionPlane
    from repro.tenants.pipeline import classify_batch_verdicts

    summary = load_summary(args.summary)
    metrics: Dict = {}
    _lines, events = _replay_stages(args, spans, metrics)
    del _lines
    registry, tree = _registry_stages(origin_map(summary), spans, metrics)

    # Tree resolve and the rule ladder, once per distinct announced prefix
    # and per distinct verdict-cache key: what a cache miss costs.
    keys: Dict = {}
    for event in events:
        if event.is_announcement:
            path = event.as_path
            key = (event.prefix, path) if len(path) >= 2 else (event.prefix, path, event.vantage_asn)
            if key not in keys:
                keys[key] = event
    prefixes = list({key[0] for key in keys})
    resolve, clock = tree.resolve, time.perf_counter_ns
    resolve_ns, resolved = [], {}
    with spans.span("tree", "resolve"):
        for prefix in prefixes:
            mark = clock()
            matches = resolve(prefix)
            resolve_ns.append(clock() - mark)
            resolved[prefix] = matches
    metrics["tree.resolve_ns"] = statistics.median(resolve_ns)
    metrics["tree.matches_per_resolve"] = (
        sum(len(matches) for matches in resolved.values()) / len(prefixes)
    )
    with spans.span("rules", "classify_batch_verdicts"):
        for key, event in keys.items():
            classify_batch_verdicts(
                resolved[key[0]], event.prefix, event.as_path, event.vantage_asn
            )
    metrics["rules.classify_us"] = (
        spans.total("rules", "classify_batch_verdicts") / len(keys) * 1e6
    )
    metrics["rules.keys"] = len(keys)
    del resolved, keys

    # The plane on pre-parsed events, one timed chunk per drain.
    COUNTERS.reset()
    plane = DetectionPlane(registry, tree=tree, batch_size=BATCH_SIZE)
    ingest = plane.ingest
    chunk_ms: List[float] = []
    with spans.span("plane", "ingest+flush"):
        for start in range(0, len(events), CHUNK):
            mark = time.perf_counter()
            for event in events[start:start + CHUNK]:
                ingest(event)
            chunk_ms.append((time.perf_counter() - mark) * 1e3)
        plane.flush()
    ingest_s = spans.total("plane", "ingest+flush")
    notified = len(plane.drain_notifications())
    with spans.span("plane", "digest"):
        digest = plane.digest()
    announcements = sum(1 for event in events if event.is_announcement)
    metrics.update(
        {
            "plane.ingest_s": ingest_s,
            "plane.events_per_s": len(events) / ingest_s,
            "plane.chunk_ms_p50": statistics.median(chunk_ms),
            "plane.chunk_ms_p95": _percentile(chunk_ms, 0.95),
            "plane.cache_hit_ratio": COUNTERS.verdict_cache_hits / max(1, announcements),
            "plane.cache_evictions": COUNTERS.verdict_cache_evictions,
            "plane.trie_walks": COUNTERS.pipeline_trie_walks,
            "plane.batches": COUNTERS.pipeline_batches,
            "plane.backpressure_stalls": COUNTERS.pipeline_backpressure_stalls,
            "plane.incidents": plane.total_alerts(),
            "plane.notifier_emitted": notified,
            "plane.notifier_dropped": COUNTERS.notifier_alerts_dropped,
            "plane.state_entries": plane.detection_state_entries(),
            "plane.digest_s": spans.total("plane", "digest"),
        }
    )
    return {
        # The timed body's stages, traced: load, ingest, digest.
        "wall_s": metrics["replay.load_trace_s"] + ingest_s + metrics["plane.digest_s"],
        "layers": metrics,
        "chunks": len(chunk_ms),
        "check": incident_check(plane.incident_rows(), digest),
    }


def traced_workers(args, spans: Spans) -> Dict:
    from repro.perf import COUNTERS
    from repro.tenants import ParallelDetectionPlane
    from repro.tenants.frames import decode_batch, decode_frame, encode_batch

    summary = load_summary(args.summary)
    metrics: Dict = {}
    # The parse the workers do, measured here on the same lines.
    lines, _events = _replay_stages(args, spans, metrics)
    del _events
    shipments = [lines[i:i + SHIPMENT_LINES] for i in range(0, len(lines), SHIPMENT_LINES)]
    with spans.span("frames", "encode_batch"):
        frames = [encode_batch(epoch, chunk) for epoch, chunk in enumerate(shipments, 1)]
    bodies = [decode_frame(frame)[2] for frame in frames]
    with spans.span("frames", "decode_batch"):
        for body in bodies:
            decode_batch(body)
    megabytes = sum(len(frame) for frame in frames) / 1e6
    metrics["frames.encode_mb_per_s"] = megabytes / spans.total("frames", "encode_batch")
    metrics["frames.decode_mb_per_s"] = megabytes / spans.total("frames", "decode_batch")
    del lines, shipments, frames, bodies

    registry, _tree = _registry_stages(origin_map(summary), spans, metrics)
    COUNTERS.reset()
    parallel = ParallelDetectionPlane(
        registry, num_workers=num_workers(), batch_size=BATCH_SIZE
    )
    try:
        with spans.span("workers", "start"):
            parallel.start()
        metrics["workers.spec_bytes"] = COUNTERS.frames_bytes
        with spans.span("workers", "feed_trace"):
            parallel.feed_trace(args.trace)
        with spans.span("workers", "finish"):
            result = parallel.finish()
    finally:
        parallel.close()
    cpu = result["cpu_seconds"]
    feed_s = spans.total("workers", "feed_trace")
    finish_s = spans.total("workers", "finish")
    metrics.update(
        {
            "workers.start_s": spans.total("workers", "start"),
            "workers.feed_s": feed_s,
            "workers.finish_s": finish_s,
            "workers.cpu_max_s": max(cpu),
            "workers.cpu_sum_s": sum(cpu),
            "workers.skew": max(cpu) / (sum(cpu) / len(cpu)),
            "workers.route_memo_entries": len(getattr(parallel, "_route_memo", ())),
            "workers.events_routed": result["events_routed"],
            "workers.events_unrouted": result["events_unrouted"],
            "workers.events_malformed": result["events_malformed"],
            "frames.sent": COUNTERS.frames_sent,
            "frames.bytes": COUNTERS.frames_bytes,
        }
    )
    return {
        "wall_s": feed_s + finish_s,
        "layers": metrics,
        "check": incident_check(result["rows"], result["digest"]),
    }


# -------------------------------------------------------------------- main

TIMED = {
    "sim_1000as": timed_sim,
    "replay_steady": timed_replay,
    "replay_diverse": timed_replay,
    "replay_workers": timed_workers,
}
TRACED = {
    "sim_1000as": traced_sim,
    "replay_steady": traced_replay,
    "replay_diverse": traced_replay,
    "replay_workers": traced_workers,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TIMED))
    parser.add_argument("--mode", required=True, choices=("timed", "traced"))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--trace")
    parser.add_argument("--summary")
    parser.add_argument("--batch", type=int, default=BATCH_SIZE)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    try:
        if args.mode == "timed":
            report = TIMED[args.workload](args)
        else:
            spans = Spans(run_id=f"{args.workload}-s{args.seed}")
            report = TRACED[args.workload](args, spans)
            report["shares"] = {
                layer: row["share"] for layer, row in spans.by_layer().items()
            }
            if args.spans_out:
                spans.dump(args.spans_out)
        report["peak_rss_mb"] = peak_rss_mb()
    except Exception as error:  # the parent counts the repetition as failed
        report = {"error": f"{type(error).__name__}: {error}"}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
