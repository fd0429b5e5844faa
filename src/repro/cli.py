"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiment``
    Run one three-phase hijack experiment and print the full report.
``suite``
    Run N seeded experiments and print the §3 summary tables.
``baselines``
    Compare ARTEMIS against the third-party pipelines on the same hijack.
``demo``
    Render the SIGCOMM demo's geographic frames (ASCII and optional JSON).
``topology``
    Generate a synthetic Internet and write it as a CAIDA as-rel file,
    optionally through the digest-keyed on-disk cache (``--cache-dir``).
``scale``
    Run the pinned sharded hijack scenario: partition the AS graph across
    ``--shards N`` worker processes (bit-identical to ``--shards 1``).
``replay``
    Stream a recorded feed trace (``experiment --record-trace``) back into
    a standalone detection plane — paced or flat-out, no simulator.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.baselines import PROFILES
from repro.errors import ConfigError, ReproError
from repro.eval.experiments import (
    liveness_summary,
    per_source_detection,
    run_artemis_suite,
    summarize_results,
)
from repro.eval.report import format_duration, format_table, summary_rows
from repro.perf import COUNTERS, format_profile, sample_memory
from repro.testbed.scenario import HijackExperiment, ScenarioConfig
from repro.topology.generator import GeneratorConfig, generate_internet
from repro.topology.serial import save_caida
from repro.viz.geomap import GeoMapRenderer
from repro.viz.timeline import render_experiment_report


def _add_world_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")
    parser.add_argument("--prefix", default="10.0.0.0/23", help="owned prefix")
    parser.add_argument(
        "--hijack-prefix",
        default=None,
        help="what the hijacker announces (default: the owned prefix)",
    )
    parser.add_argument("--tier1", type=int, default=5, help="number of tier-1 ASes")
    parser.add_argument("--tier2", type=int, default=25, help="number of tier-2 ASes")
    parser.add_argument("--stubs", type=int, default=90, help="number of stub ASes")
    parser.add_argument(
        "--no-churn", action="store_true", help="disable background churn"
    )
    parser.add_argument(
        "--hijack-type",
        default="type-0",
        metavar="TYPE",
        help="attacker model from the full taxonomy: type-0, type-1, "
        "type-N (any N), type-U, squatting, route-leak (default: type-0)",
    )
    parser.add_argument(
        "--corroborate",
        action="store_true",
        default=None,
        help="gate low-confidence verdicts on a data-plane probe "
        "(default: only for type-U, which needs it)",
    )
    parser.add_argument(
        "--helpers", type=int, default=0, help="outsourced-mitigation helper ASes"
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="fault plan armed at the hijack instant (see repro.faults)",
    )
    parser.add_argument(
        "--failover-to-batch",
        action="store_true",
        help="engage the batch archive while any live source is down",
    )
    parser.add_argument(
        "--warm-start",
        action="store_true",
        help="fork a checkpoint of the converged phase-1 world instead of "
        "rebuilding it (captured on first use; suites share one capture)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="checkpoint file to fork (built and saved there first if the "
        "file does not exist yet); implies --warm-start",
    )
    parser.add_argument(
        "--world-seed",
        type=int,
        default=None,
        metavar="INT",
        help="build the world from this seed and re-key all world RNG "
        "streams from --seed at the hijack instant, so one checkpointed "
        "world serves a whole sweep of run seeds bit-identically",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk topology cache: graphs are stored per (params, seed) "
        "digest, so suite workers and repeated runs skip regeneration",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print simulation perf counters (events/sec etc.) when done",
    )
    parser.add_argument(
        "--profile-json",
        default=None,
        metavar="PATH",
        help="write perf counters and per-phase wall times as JSON here "
        "(suite runs merge worker counters and sum phase walls)",
    )


def _scenario_from_args(
    args: argparse.Namespace, seed: Optional[int] = None, defender: Optional[str] = None
) -> ScenarioConfig:
    """The scenario the world flags describe, defended by ARTEMIS — or, with
    ``defender``, by that :data:`~repro.baselines.PROFILES` entry."""
    config = ScenarioConfig(
        prefix=args.prefix,
        hijack_prefix=args.hijack_prefix,
        seed=args.seed if seed is None else seed,
        topology=GeneratorConfig(
            num_tier1=args.tier1, num_tier2=args.tier2, num_stubs=args.stubs
        ),
        churn=None if args.no_churn else ScenarioConfig().churn,
        churn_warmup=0.0 if args.no_churn else 180.0,
        hijack_type=args.hijack_type,
        corroborate=args.corroborate,
        num_helpers=args.helpers,
        faults=args.faults,
        failover_to_batch=args.failover_to_batch,
        world_seed=args.world_seed,
        warm_start=args.warm_start,
        record_trace=getattr(args, "record_trace", None),
        cache_dir=args.cache_dir,
        **(PROFILES[defender] if defender else {}),
    )
    path = args.checkpoint
    if path is not None:
        import os

        from repro.testbed.checkpoint import Checkpoint, save_checkpoint

        if not os.path.exists(path):
            # First use: capture the converged world and persist it, so the
            # next invocation (or a CI restore job) forks it from disk.
            save_checkpoint(Checkpoint.capture(config), path)
            print(f"checkpoint captured -> {path}")
        config.checkpoint = path
    return config


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one three-phase hijack experiment and print the report."""
    experiment = HijackExperiment(_scenario_from_args(args))
    result = experiment.run()
    args._phase_walls = dict(result.phase_walls)
    print(render_experiment_report(result))
    if experiment.recorder is not None:
        print(
            f"\ntrace recorded: {experiment.recorder.records} events "
            f"-> {args.record_trace}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"\nresult written to {args.json}")
    return 0


#: The one replay report, whichever engine ran: its table rows (label,
#: key) and then the keys only ``--json`` writes.  An engine leaves a key
#: it does not measure at ``None``, printed as "-".
_REPLAY_ROWS = (
    ("trace", "trace"),
    ("engine", "engine"),
    ("speed", "speed"),
    ("tenants", "tenants"),
    ("rules", "rules"),
    ("monitored prefixes", "monitored_prefixes"),
    ("detect workers", "detect_workers"),
    ("batch size", "batch_size"),
    ("records read", "records_read"),
    ("events dropped (faults)", "events_dropped"),
    ("duplicate deliveries", "duplicate_events_skipped"),
    ("pending-copy backlog peak", "backlog_peak"),
    ("pipeline batches", "pipeline_batches"),
    ("prefix-table lookups", "pipeline_trie_walks"),
    ("memo hits", "pipeline_memo_hits"),
    ("verdict cache misses", "verdict_cache_misses"),
    ("verdict cache hit ratio", "verdict_cache_hit_ratio"),
    ("backpressure stalls", "pipeline_backpressure_stalls"),
    ("alerts", "alerts"),
    ("detection delay (s)", "detection_delay"),
    ("first alert wall (s)", "time_to_first_alert_wall"),
    ("merged alert digest", "merged_alert_digest"),
    ("wall seconds", "wall_seconds"),
    ("updates / sec", "updates_per_second"),
    ("peak RSS (KB)", "peak_rss_kb"),
    ("worker cpu seconds", "worker_cpu_seconds"),
    ("worker events", "worker_events"),
    ("worker event skew (max/mean)", "worker_event_skew"),
    ("router send wait (s)", "router_send_wait_s"),
    ("worker recv wait (s)", "worker_recv_wait_s"),
)
_REPLAY_JSON_ONLY = (
    "events_delivered", "per_source_delay_final", "mean_lag_by_source",
    "source_report", "supervisor_transitions", "fault_channel",
    "faults_skipped", "counters",
)


def _check_replay_flags(args: argparse.Namespace, plane: bool) -> None:
    """Refuse, by name, every flag the engine that runs would ignore."""
    workers = args.detect_workers or 1
    registry = "without --tenants or --synth-tenants"
    session = "to a registry replay: it runs flat out, without faults or a supervisor"
    for flag, given, applies, reason in (
        ("--synth-tenants", args.synth_tenants, not args.tenants, "with --tenants"),
        ("--speed", args.speed is not None, not plane, session),
        ("--faults", args.faults, not plane, session),
        ("--supervise", args.supervise, not plane, session),
        ("--seed", args.seed is not None, args.faults, "without --faults"),
        ("--detect-workers", args.detect_workers is not None, plane, registry),
        ("--batch-size", args.batch_size is not None, plane, registry),
        ("--synth-prefixes", args.synth_prefixes is not None, args.synth_tenants,
         "without --synth-tenants"),
        ("--max-events", args.max_events is not None, workers == 1,
         "with --detect-workers > 1: detection workers stream the whole trace"),
    ):
        if given and not applies:
            raise ConfigError(f"{flag} does not apply {reason}")


def _replay_session(args: argparse.Namespace):
    """The event-time engine: tap, fault plan, pacing and supervisor."""
    from repro.feeds.replay import ReplaySession

    COUNTERS.reset()
    session = ReplaySession(
        args.trace,
        speed=args.speed,
        faults=args.faults,
        seed=args.seed or 0,
        supervise=args.supervise,
    )
    report = session.run(max_events=args.max_events)
    report.update(engine="session", detect_workers=1, batch_size=1)
    return report, session.detection.registry


def _replay_plane(args: argparse.Namespace):
    """The flat-out engine: the registry plane in process, or partitioned
    across detection workers.  Nothing here holds the trace: both stream
    its lines, and a synthetic registry takes one pass of its own."""
    from itertools import islice

    from repro.core.config import ArtemisConfig
    from repro.feeds.replay import iter_trace_events, iter_trace_lines
    from repro.tenants import DetectionPlane, ParallelDetectionPlane, TenantRegistry
    from repro.tenants.synth import build_synth_registry, observed_origin_map

    if args.tenants:
        registry = TenantRegistry()
        try:
            with open(args.tenants, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
            for name, entry in sorted(spec["tenants"].items()):
                registry.add_tenant(
                    name,
                    ArtemisConfig.from_dict(entry["config"]),
                    autoignore_visibility=entry.get("autoignore_visibility", 0),
                )
        # Not JSON, a missing key, or a list or string where an object belongs.
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ConfigError(
                f"malformed tenant spec {args.tenants}: {error!r}"
            ) from None
    else:
        registry = build_synth_registry(
            observed_origin_map(iter_trace_events(args.trace)),
            num_tenants=args.synth_tenants,
            num_prefixes=args.synth_prefixes or 100 * args.synth_tenants,
        )
    workers = args.detect_workers or 1
    batch_size = args.batch_size or 256
    COUNTERS.reset()
    started = time.perf_counter()
    if workers > 1:
        parallel = ParallelDetectionPlane(
            registry, num_workers=workers, batch_size=batch_size
        )
        try:
            parallel.start()
            parallel.feed_trace(args.trace)
            result = parallel.finish()
        finally:
            parallel.close()
        per_worker = result["events_per_worker"]
        mean_events = sum(per_worker) / len(per_worker)
        report = {
            "records_read": parallel.events_routed
            + parallel.events_unrouted
            + parallel.events_malformed,
            "alerts": result["alerts"],
            "merged_alert_digest": result["digest"],
            "worker_cpu_seconds": result["cpu_seconds"],
            "worker_events": per_worker,
            # Max ÷ mean: 1.00 is a perfectly even partition; set beside the
            # CPU figures it tells partition imbalance from scheduling.
            "worker_event_skew": max(per_worker) / mean_events if mean_events else None,
            # Time blocked on the pipes: the router in its sends, the
            # workers (summed) waiting for their next frame.
            "router_send_wait_s": result["send_wait_ns"] / 1e9,
            "worker_recv_wait_s": result["recv_wait_ns"] / 1e9,
        }
    else:
        # The worker loop without a pipe.
        plane = DetectionPlane(registry, batch_size=batch_size)
        plane.ingest_lines(islice(iter_trace_lines(args.trace), args.max_events))
        plane.flush()
        plane.prune_state()
        report = {
            "records_read": plane.events_ingested,
            "duplicate_events_skipped": plane.duplicate_events_skipped,
            "alerts": plane.total_alerts(),
            "merged_alert_digest": plane.digest(),
        }
    wall = time.perf_counter() - started
    report.update(
        engine="plane",
        detect_workers=workers,
        batch_size=batch_size,
        wall_seconds=wall,
        updates_per_second=report["records_read"] / wall if wall > 0 else None,
    )
    return report, registry


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a recorded trace through a standalone detection plane: the
    event-time session, or with ``--tenants`` / ``--synth-tenants`` the
    flat-out registry plane.  Both print one table and write one report."""
    plane = bool(args.tenants or args.synth_tenants)
    _check_replay_flags(args, plane)
    found, registry = _replay_plane(args) if plane else _replay_session(args)
    sample_memory()
    counters = COUNTERS.as_dict()
    found.update(
        counters,
        trace=args.trace,
        speed=args.speed,
        tenants=len(registry),
        rules=registry.num_rules,
        monitored_prefixes=len(registry.monitored_prefixes()),
        verdict_cache_hit_ratio=COUNTERS.verdict_cache_hit_ratio,
        counters=counters,
    )
    keys = [key for _label, key in _REPLAY_ROWS] + list(_REPLAY_JSON_ONLY)
    report = {key: found.get(key) for key in keys}

    def fmt(key: str, value) -> str:
        if key == "speed":
            return "flat-out" if value is None else f"{value:g}x"
        if value is None:
            return "-"
        if isinstance(value, list):  # per worker: CPU seconds or events
            return ", ".join(fmt(key, item) for item in value)
        if isinstance(value, float):
            return format(value, ".6f" if key == "verdict_cache_hit_ratio" else ".3f")
        return str(value)[:16] if key == "merged_alert_digest" else str(value)

    rows = [[label, fmt(key, report[key])] for label, key in _REPLAY_ROWS]
    print(format_table(["metric", "value"], rows, title="trace replay"))
    if report["per_source_delay_final"]:
        print()
        print(
            format_table(
                ["source", "delay (s)"],
                sorted(report["per_source_delay_final"].items()),
                title="per-source detection delay",
                precision=2,
            )
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nreport written to {args.json}")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """Run a suite of seeded experiments and print summary tables."""
    template = _scenario_from_args(args, seed=0)
    results = run_artemis_suite(
        template,
        seeds=range(args.runs),
        on_result=lambda r: print(
            f"  seed {r.seed}: detect={format_duration(r.detection_delay)} "
            f"total={format_duration(r.total_time)}"
        ),
        jobs=args.jobs,
    )
    walls: dict = {}
    for result in results:
        for phase, seconds in result.phase_walls.items():
            walls[phase] = walls.get(phase, 0.0) + seconds
    args._phase_walls = walls
    print()
    print(
        format_table(
            ["metric", "n", "mean (s)", "median (s)", "p95 (s)", "max (s)"],
            summary_rows(summarize_results(results)),
            title=f"timings over {args.runs} experiments",
        )
    )
    print()
    print(
        format_table(
            ["source", "n", "mean (s)", "median (s)", "p95 (s)", "max (s)"],
            summary_rows(per_source_detection(results)),
            title="detection delay per source",
        )
    )
    if any(result.faults_injected for result in results):
        rows = [
            [
                source,
                row["runs"],
                row["outages"],
                row["downtime"],
                row["max_staleness"],
                row["detected_while_dead"],
            ]
            for source, row in sorted(liveness_summary(results).items())
        ]
        print()
        print(
            format_table(
                [
                    "source",
                    "runs",
                    "outages",
                    "downtime (s)",
                    "worst staleness (s)",
                    "detected while dead",
                ],
                rows,
                title="source health under faults",
            )
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([r.to_dict() for r in results], handle, indent=2)
        print(f"\nresults written to {args.json}")
    return 0


def cmd_taxonomy(args: argparse.Namespace) -> int:
    """Sweep the hijack taxonomy and print the accuracy×delay matrix."""
    from repro.eval.taxonomy import run_false_positive_suite, run_taxonomy_matrix

    matrix = run_taxonomy_matrix(seeds=list(args.seeds))
    rows = [
        [
            hijack_type,
            stats["expected_alert"],
            f"{stats['tp']}/{stats['runs']}",
            stats["misclassified"],
            stats["fn"],
            stats["mitigated"],
            stats["detection_delay_mean"],
        ]
        for hijack_type, stats in matrix["per_class"].items()
    ]
    print(
        format_table(
            ["class", "rule", "tp", "misclass", "fn", "mitigated", "delay (s)"],
            rows,
            title=f"taxonomy matrix over seeds {list(args.seeds)}",
            precision=2,
        )
    )
    fp = run_false_positive_suite()
    print()
    print(
        format_table(
            ["benign scenario", "events", "false positives"],
            [[s["name"], s["events"], s["false_positives"]] for s in fp["scenarios"]],
            title="false-positive suite (corroborated)",
        )
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"matrix": matrix, "false_positives": fp}, handle, indent=2)
        print(f"\nmatrix written to {args.json}")
    return 0


def cmd_baselines(args: argparse.Namespace) -> int:
    """Compare ARTEMIS against third-party pipelines on one hijack."""

    def minutes(seconds: Optional[float]) -> Optional[float]:
        # A miss (never detected, never recovered) prints "-", not 0.00.
        return None if seconds is None else seconds / 60.0

    rows = []
    for name in [None, *args.systems]:
        result = HijackExperiment(_scenario_from_args(args, defender=name)).run()
        rows.append(
            [
                name or "artemis",
                minutes(result.detection_delay),
                minutes(result.announce_delay),
                minutes(result.total_time),
            ]
        )
    print(
        format_table(
            ["system", "detect (min)", "reaction (min)", "total (min)"],
            rows,
            title="ARTEMIS vs third-party + manual pipelines",
            precision=2,
        )
    )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """Render the demo's geographic frames (ASCII / JSON / HTML)."""
    experiment = HijackExperiment(_scenario_from_args(args))
    result = experiment.run()
    renderer = GeoMapRenderer(
        experiment.network.graph, legit_origins={experiment.victim.asn}
    )
    transitions = [
        t
        for t in experiment.artemis.monitoring.transitions
        if t[0] >= result.hijack_time
    ]
    initial = {
        vantage: origin
        for when, vantage, _prefix, origin in experiment.artemis.monitoring.transitions
        if when < result.hijack_time
    }
    frames = renderer.frames_from_transitions(
        transitions, initial=initial, max_frames=args.frames
    )
    for when, origins in frames:
        print()
        print(
            renderer.ascii_frame(
                origins, caption=f"t = {when - result.hijack_time:+.1f}s vs hijack"
            )
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(renderer.to_json(frames))
        print(f"\nframes written to {args.json}")
    if args.html:
        from repro.viz.html import save_html

        save_html(args.html, renderer, frames)
        print(f"interactive map written to {args.html}")
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    """Generate a synthetic Internet as a CAIDA as-rel file."""
    if args.output is None and args.cache_dir is None:
        print(
            "topology: need an output path, --cache-dir, or both",
            file=sys.stderr,
        )
        return 2
    config = GeneratorConfig(
        num_tier1=args.tier1, num_tier2=args.tier2, num_stubs=args.stubs
    )
    if args.cache_dir is not None:
        from repro.topology.cache import cache_path, load_or_build_graph

        graph = load_or_build_graph(config, args.seed, args.cache_dir)
        print(f"cached at {cache_path(args.cache_dir, config, args.seed)}")
    else:
        graph = generate_internet(config, seed=args.seed)
    if args.output is not None:
        save_caida(graph, args.output)
        print(f"{len(graph)} ASes, {graph.link_count()} links -> {args.output}")
    else:
        print(f"{len(graph)} ASes, {graph.link_count()} links")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """Run the pinned sharded hijack scenario (see repro.shard)."""
    from repro.shard.scenario import ShardScenarioConfig, run_shard_scenario

    config = ShardScenarioConfig(
        topology=GeneratorConfig(
            num_tier1=args.tier1, num_tier2=args.tier2, num_stubs=args.stubs
        ),
        seed=args.seed,
        num_shards=args.shards,
        cache_dir=args.cache_dir,
    )
    started = time.perf_counter()
    result = run_shard_scenario(config)
    wall = time.perf_counter() - started
    args._phase_walls = {"scenario": wall}

    def fmt(value) -> str:
        return "-" if value is None else f"{value:.3f}"

    rows = [
        ["ASes", config.topology.total_ases],
        ["shards", args.shards],
        ["victim", f"AS{result.victim}"],
        ["hijacker", f"AS{result.hijacker}"],
        ["helper", f"AS{result.helper}"],
        ["origin flips", len(result.flips)],
        ["detection delay (s)", fmt(result.detection_delay)],
        ["updates sent", result.stats.get("updates_sent", 0)],
        ["wall seconds", f"{wall:.3f}"],
        ["digest", result.digest[:16]],
    ]
    print(format_table(["metric", "value"], rows, title="sharded scenario"))
    if args.json:
        payload = {
            "shards": args.shards,
            "seed": args.seed,
            "victim": result.victim,
            "hijacker": result.hijacker,
            "helper": result.helper,
            "monitors": list(result.monitors),
            "detection_delay": result.detection_delay,
            "flips": len(result.flips),
            "stats": dict(result.stats),
            "wall_seconds": wall,
            "digest": result.digest,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nresult written to {args.json}")
    return 0


def _at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARTEMIS reproduction: BGP hijack detection & mitigation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiment = commands.add_parser(
        "experiment", help="run one hijack experiment"
    )
    _add_world_arguments(experiment)
    experiment.add_argument("--json", default=None, help="write result JSON here")
    experiment.add_argument(
        "--record-trace",
        default=None,
        metavar="PATH",
        help="archive the detection plane's feed as a replayable trace "
        "(replay it with the `replay` command); requires a cold start",
    )
    experiment.set_defaults(func=cmd_experiment)

    replay = commands.add_parser(
        "replay", help="replay a recorded feed trace into detection"
    )
    replay.add_argument("trace", help="trace file from experiment --record-trace")
    replay.add_argument(
        "--speed",
        type=float,
        metavar="N",
        help="pace at N× recorded time (default: flat-out; session only)",
    )
    replay.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="fault plan for the event-time session (armed at the recorded "
        "hijack instant; delay/flap entries are reported as skipped)",
    )
    replay.add_argument(
        "--seed",
        type=int,
        help="seed for the --faults channel draws (default: 0)",
    )
    replay.add_argument(
        "--supervise",
        action="store_true",
        help="run the source supervisor on the session's event-time engine",
    )
    replay.add_argument(
        "--max-events",
        type=_at_least(0),
        metavar="K",
        help="stop after K records (resumable smoke checks; one process only)",
    )
    replay.add_argument(
        "--tenants",
        metavar="FILE.json",
        help="registry plane: per-tenant configs "
        '({"tenants": {name: {"config": ..., "autoignore_visibility": 0}}})',
    )
    replay.add_argument(
        "--synth-tenants",
        type=_at_least(1),
        metavar="N",
        help="registry plane: build N synthetic tenants grounded in the "
        "trace's observed origins",
    )
    replay.add_argument(
        "--synth-prefixes",
        type=_at_least(1),
        metavar="M",
        help="total monitored prefixes for --synth-tenants "
        "(default: 100 per tenant; the ikey prefix table holds million-scale "
        "populations, e.g. --synth-tenants 10000 --synth-prefixes 1000000)",
    )
    replay.add_argument(
        "--detect-workers",
        type=_at_least(1),
        metavar="N",
        help="partition the registry plane's prefix space across N "
        "detection worker processes (default: 1, in process)",
    )
    replay.add_argument(
        "--batch-size",
        type=_at_least(1),
        metavar="B",
        help="the registry plane's classifier batch size (default: 256)",
    )
    replay.add_argument("--json", default=None, help="write the report JSON here")
    replay.set_defaults(func=cmd_replay)

    suite = commands.add_parser("suite", help="run a suite of experiments")
    _add_world_arguments(suite)
    suite.add_argument("--runs", type=int, default=10, help="number of seeds")
    suite.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the seed matrix (deterministic per seed)",
    )
    suite.add_argument("--json", default=None, help="write results JSON here")
    suite.set_defaults(func=cmd_suite)

    taxonomy = commands.add_parser(
        "taxonomy", help="sweep the full hijack taxonomy (accuracy × delay)"
    )
    taxonomy.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[11],
        help="experiment seeds per class",
    )
    taxonomy.add_argument("--json", default=None, help="write the matrix JSON here")
    taxonomy.set_defaults(func=cmd_taxonomy)

    baselines = commands.add_parser(
        "baselines", help="compare against third-party pipelines"
    )
    _add_world_arguments(baselines)
    baselines.add_argument(
        "--systems",
        nargs="+",
        default=["argus", "phas"],
        choices=sorted(PROFILES),
        help="which baselines to run",
    )
    baselines.set_defaults(func=cmd_baselines)

    demo = commands.add_parser("demo", help="render the demo's map frames")
    _add_world_arguments(demo)
    demo.add_argument("--frames", type=int, default=6, help="number of frames")
    demo.add_argument("--json", default=None, help="write frame JSON here")
    demo.add_argument(
        "--html", default=None, help="write a self-contained interactive map here"
    )
    demo.set_defaults(func=cmd_demo)

    topology = commands.add_parser(
        "topology", help="generate a CAIDA as-rel topology file"
    )
    topology.add_argument("--seed", type=int, default=1)
    topology.add_argument("--tier1", type=int, default=5)
    topology.add_argument("--tier2", type=int, default=25)
    topology.add_argument("--stubs", type=int, default=90)
    topology.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="build through the on-disk topology cache (digest-keyed); "
        "with a cache dir the output path is optional",
    )
    topology.add_argument("output", nargs="?", default=None, help="output path")
    topology.set_defaults(func=cmd_topology)

    scale = commands.add_parser(
        "scale", help="run the pinned sharded hijack scenario"
    )
    scale.add_argument("--seed", type=int, default=1, help="scenario seed")
    scale.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to partition the AS graph across "
        "(1 = in-process reference path; outcomes are bit-identical)",
    )
    scale.add_argument("--tier1", type=int, default=8, help="number of tier-1 ASes")
    scale.add_argument("--tier2", type=int, default=60, help="number of tier-2 ASes")
    scale.add_argument("--stubs", type=int, default=250, help="number of stub ASes")
    scale.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk topology cache directory",
    )
    scale.add_argument(
        "--profile",
        action="store_true",
        help="print simulation perf counters (merged across shards)",
    )
    scale.add_argument(
        "--profile-json",
        default=None,
        metavar="PATH",
        help="write merged perf counters and wall time as JSON here",
    )
    scale.add_argument("--json", default=None, help="write result JSON here")
    scale.set_defaults(func=cmd_scale)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    profile = getattr(args, "profile", False)
    profile_json = getattr(args, "profile_json", None)
    if profile or profile_json:
        COUNTERS.reset()
        started = time.perf_counter()
    try:
        code = args.func(args)
    except (ReproError, OSError) as error:
        # The one failure contract of every command: bad arguments, a
        # missing or damaged input file and a dead worker are one line on
        # stderr and exit code 2, never a traceback.
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    if profile:
        print()
        print(format_profile(time.perf_counter() - started))
    if profile_json:
        sample_memory()
        payload = {
            "command": args.command,
            "elapsed_seconds": time.perf_counter() - started,
            "counters": COUNTERS.as_dict(),
        }
        walls = getattr(args, "_phase_walls", None)
        if walls:
            payload["phase_walls"] = walls
        with open(profile_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nprofile written to {profile_json}")
    return code


if __name__ == "__main__":
    sys.exit(main())
