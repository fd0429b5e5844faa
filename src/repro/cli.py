"""Command-line interface: ``python -m repro <command>``.

``experiment``, ``suite``, ``baselines``, ``demo`` and ``taxonomy`` run
hijacks in the simulated Internet; ``topology`` writes a generated
Internet as a CAIDA as-rel file; ``replay`` streams a recorded feed trace
into a standalone detection plane.  ``python -m repro <command> --help``
lists each one's flags.

Every command prints its own tables and returns its report: the ``--json``
payload and the phase walls ``--profile-json`` records.  :func:`main` alone
writes both files, prints ``--profile`` and owns the exit contract.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines import PROFILES
from repro.errors import ConfigError, ReproError
from repro.eval.experiments import (
    liveness_summary,
    per_source_detection,
    run_artemis_suite,
    summarize_results,
)
from repro.eval.report import (
    SUMMARY_HEADERS,
    format_duration,
    format_table,
    summary_rows,
)
from repro.perf import COUNTERS, collector_handed_off, format_profile, sample_memory
from repro.testbed.scenario import HijackExperiment, ScenarioConfig
from repro.topology.generator import GeneratorConfig, generate_internet
from repro.topology.serial import save_caida
from repro.viz.geomap import GeoMapRenderer
from repro.viz.timeline import render_experiment_report


#: What a command returns: its ``--json`` payload and the phase walls
#: ``--profile-json`` records (``None`` where it has none).
Report = Tuple[Any, Optional[Dict[str, float]]]


def _add_world_size(
    parser: argparse.ArgumentParser,
    cache_help: str,
    seed_help: str = "experiment seed",
) -> None:
    """``--seed``, ``--tier1/--tier2/--stubs`` and ``--cache-dir``: the
    generated world every simulating command takes."""
    parser.add_argument("--seed", type=int, default=1, help=seed_help)
    # The generator refuses ``--tier1 0`` itself, in one line (exit 2).
    for flag, kind, default, what in zip(
        ("--tier1", "--tier2", "--stubs"),
        (int, _at_least(0), _at_least(0)),
        (5, 25, 90),
        ("tier-1", "tier-2", "stub"),
    ):
        parser.add_argument(flag, type=kind, default=default, help=f"number of {what} ASes")
    parser.add_argument("--cache-dir", default=None, metavar="DIR", help=cache_help)


def _world_size(args: argparse.Namespace) -> GeneratorConfig:
    """The generator config :func:`_add_world_size`'s flags describe."""
    return GeneratorConfig(
        num_tier1=args.tier1, num_tier2=args.tier2, num_stubs=args.stubs
    )


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """``--profile`` and ``--profile-json``, which :func:`main` serves."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print perf counters (events/sec etc.) when done, merged across "
        "suite workers",
    )
    parser.add_argument(
        "--profile-json",
        default=None,
        metavar="PATH",
        help="write perf counters and per-phase wall times as JSON here "
        "(suite runs merge worker counters and sum phase walls)",
    )


def _add_world_arguments(parser: argparse.ArgumentParser) -> None:
    _add_world_size(
        parser,
        "on-disk topology cache: graphs are stored per (params, seed) "
        "digest, so suite workers and repeated runs skip regeneration",
    )
    parser.add_argument("--prefix", default="10.0.0.0/23", help="owned prefix")
    parser.add_argument(
        "--hijack-prefix",
        default=None,
        help="what the hijacker announces (default: the owned prefix)",
    )
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
        "--helpers", type=_at_least(0), default=0, help="outsourced-mitigation helper ASes"
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
    _add_profile_arguments(parser)


def _scenario_from_args(
    args: argparse.Namespace, seed: Optional[int] = None, defender: Optional[str] = None
) -> ScenarioConfig:
    """The scenario the world flags describe, defended by ARTEMIS — or, with
    ``defender``, by that :data:`~repro.baselines.PROFILES` entry."""
    config = ScenarioConfig(
        prefix=args.prefix,
        hijack_prefix=args.hijack_prefix,
        seed=args.seed if seed is None else seed,
        topology=_world_size(args),
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


def cmd_experiment(args: argparse.Namespace) -> Report:
    """Run one three-phase hijack experiment and print the report."""
    experiment = HijackExperiment(_scenario_from_args(args))
    result = experiment.run()
    print(render_experiment_report(result))
    if experiment.recorder is not None:
        print(
            f"\ntrace recorded: {experiment.recorder.records} events "
            f"-> {args.record_trace}"
        )
    return result.to_dict(), dict(result.phase_walls)


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
    ("verdict cache hits", "verdict_cache_hits"),
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


def _cell(key: str, value: Any) -> str:
    """One value cell of a metric table, formatted by its report key."""
    if key == "speed":
        return "flat-out" if value is None else f"{value:g}x"
    if value is None:
        return "-"
    if isinstance(value, list):  # per worker: CPU seconds or events
        return ", ".join(_cell(key, item) for item in value)
    if isinstance(value, float):
        return format(value, ".6f" if key == "verdict_cache_hit_ratio" else ".3f")
    return str(value)[:16] if key.endswith("digest") else str(value)


def _print_metrics(title: str, rows, report: Dict[str, Any]) -> None:
    """The two-column table of ``rows`` ((label, key) pairs) read from ``report``."""
    cells = [[label, _cell(key, report.get(key))] for label, key in rows]
    print(format_table(["metric", "value"], cells, title=title))


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
            with collector_handed_off():
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


def cmd_replay(args: argparse.Namespace) -> Report:
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
        monitored_prefixes=len(registry.tree),
        verdict_cache_hit_ratio=COUNTERS.verdict_cache_hit_ratio,
        counters=counters,
    )
    keys = [key for _label, key in _REPLAY_ROWS] + list(_REPLAY_JSON_ONLY)
    report = {key: found.get(key) for key in keys}
    _print_metrics("trace replay", _REPLAY_ROWS, report)
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
    return report, None


def cmd_suite(args: argparse.Namespace) -> Report:
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
    walls: Dict[str, float] = {}
    for result in results:
        for phase, seconds in result.phase_walls.items():
            walls[phase] = walls.get(phase, 0.0) + seconds
    print()
    print(
        format_table(
            ["metric", *SUMMARY_HEADERS],
            summary_rows(summarize_results(results)),
            title=f"timings over {args.runs} experiments",
        )
    )
    print()
    print(
        format_table(
            ["source", *SUMMARY_HEADERS],
            summary_rows(per_source_detection(results)),
            title="detection delay per source",
        )
    )
    if any(result.faults_injected for result in results):
        fields = ("runs", "outages", "downtime", "max_staleness", "detected_while_dead")
        rows = [
            [source, *(row[field] for field in fields)]
            for source, row in sorted(liveness_summary(results).items())
        ]
        print()
        print(
            format_table(
                ["source", "runs", "outages", "downtime (s)",
                 "worst staleness (s)", "detected while dead"],
                rows,
                title="source health under faults",
            )
        )
    return [result.to_dict() for result in results], walls


def cmd_taxonomy(args: argparse.Namespace) -> Report:
    """Sweep the hijack taxonomy and print the accuracy×delay matrix."""
    from repro.eval.taxonomy import run_false_positive_suite, run_taxonomy_matrix

    matrix = run_taxonomy_matrix(seeds=list(args.seeds))
    columns = ("misclassified", "fn", "mitigated", "detection_delay_mean")
    rows = [
        [hijack_type, stats["expected_alert"], f"{stats['tp']}/{stats['runs']}"]
        + [stats[key] for key in columns]
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
    return {"matrix": matrix, "false_positives": fp}, None


def cmd_baselines(args: argparse.Namespace) -> Report:
    """Compare ARTEMIS against third-party pipelines on one hijack."""

    rows = []
    for name in [None, *args.systems]:
        result = HijackExperiment(_scenario_from_args(args, defender=name)).run()
        seconds = (result.detection_delay, result.announce_delay, result.total_time)
        # A miss (never detected, never recovered) prints "-", not 0.00.
        minutes = [None if value is None else value / 60.0 for value in seconds]
        rows.append([name or "artemis", *minutes])
    print(
        format_table(
            ["system", "detect (min)", "reaction (min)", "total (min)"],
            rows,
            title="ARTEMIS vs third-party + manual pipelines",
            precision=2,
        )
    )
    return None, None


def cmd_demo(args: argparse.Namespace) -> Report:
    """Render the demo's geographic frames (ASCII / JSON / HTML)."""
    experiment = HijackExperiment(_scenario_from_args(args))
    result = experiment.run()
    renderer = GeoMapRenderer(
        experiment.network.graph, legit_origins={experiment.victim.asn}
    )
    transitions = experiment.artemis.monitoring.transitions
    initial = {
        vantage: origin
        for when, vantage, _prefix, origin in transitions
        if when < result.hijack_time
    }
    frames = renderer.frames_from_transitions(
        [t for t in transitions if t[0] >= result.hijack_time],
        initial=initial,
        max_frames=args.frames,
    )
    for when, origins in frames:
        print()
        print(
            renderer.ascii_frame(
                origins, caption=f"t = {when - result.hijack_time:+.1f}s vs hijack"
            )
        )
    if args.html:
        from repro.viz.html import save_html

        save_html(args.html, renderer, frames)
        print(f"interactive map written to {args.html}")
    return renderer.frames_payload(frames), None


def cmd_topology(args: argparse.Namespace) -> Report:
    """Generate a synthetic Internet as a CAIDA as-rel file."""
    if args.output is None and args.cache_dir is None:
        raise ConfigError("need an output path, --cache-dir, or both")
    config = _world_size(args)
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
    return None, None


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

    def command(name: str, func, help: str, report: bool = True):
        """A subcommand running ``func``; with ``report``, ``--json`` writes
        the report it returns."""
        sub = commands.add_parser(name, help=help)
        sub.set_defaults(func=func)
        if report:
            sub.add_argument("--json", default=None, help="write the report JSON here")
        return sub

    experiment = command("experiment", cmd_experiment, "run one hijack experiment")
    _add_world_arguments(experiment)
    experiment.add_argument(
        "--record-trace",
        default=None,
        metavar="PATH",
        help="archive the detection plane's feed as a replayable trace "
        "(replay it with the `replay` command); requires a cold start",
    )

    replay = command(
        "replay", cmd_replay, "replay a recorded feed trace into detection"
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

    suite = command("suite", cmd_suite, "run a suite of experiments")
    _add_world_arguments(suite)
    suite.add_argument("--runs", type=_at_least(1), default=10, help="number of seeds")
    suite.add_argument(
        "--jobs",
        type=_at_least(1),
        default=1,
        help="worker processes for the seed matrix (deterministic per seed)",
    )

    taxonomy = command(
        "taxonomy", cmd_taxonomy, "sweep the full hijack taxonomy (accuracy × delay)"
    )
    taxonomy.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[11],
        help="experiment seeds per class",
    )

    baselines = command(
        "baselines", cmd_baselines, "compare against third-party pipelines",
        report=False,
    )
    _add_world_arguments(baselines)
    baselines.add_argument(
        "--systems",
        nargs="+",
        default=["argus", "phas"],
        choices=sorted(PROFILES),
        help="which baselines to run",
    )

    demo = command("demo", cmd_demo, "render the demo's map frames")
    _add_world_arguments(demo)
    demo.add_argument("--frames", type=_at_least(1), default=6, help="number of frames")
    demo.add_argument(
        "--html", default=None, help="write a self-contained interactive map here"
    )

    topology = command(
        "topology", cmd_topology, "generate a CAIDA as-rel topology file", report=False
    )
    _add_world_size(
        topology,
        "build through the on-disk topology cache (digest-keyed); "
        "with a cache dir the output path is optional",
        seed_help="generator seed",
    )
    topology.add_argument("output", nargs="?", default=None, help="output path")

    return parser


def _write_json(path: str, payload: Any, what: str) -> None:
    """The one JSON writer: indent 2, sorted keys, trailing newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n{what} written to {path}")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    profile = getattr(args, "profile", False)
    profile_json = getattr(args, "profile_json", None)
    if profile or profile_json:
        COUNTERS.reset()
    started = time.perf_counter()
    try:
        report, walls = args.func(args)
        if getattr(args, "json", None):
            _write_json(args.json, report, "report")
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
            if walls:
                payload["phase_walls"] = walls
            _write_json(profile_json, payload, "profile")
    except (ReproError, OSError) as error:
        # The one failure contract of every command: bad arguments, a
        # missing or damaged input file and a dead worker are one line on
        # stderr and exit code 2, never a traceback.
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
