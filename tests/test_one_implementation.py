"""Deleted concepts stay deleted: one table of guards, run with the tests.

Each collapse to one implementation per concept deleted a module, a class
or a second spelling of something. A row of ``GUARDS`` keeps it deleted.
A row is a ``grep``: the pattern, the paths it searches, the files it
excludes, and grep's flags as fields (``word`` is ``-w``, ``include`` is
``--include``, and ``extended=False`` is grep's basic syntax, in which
``( ) | + ? { }`` are plain characters). The rest of the row is the commit
that deleted the concept, a one-line reason, and an ``example``: a path and
a line the row must catch.

Most rows allow no matching line. A row whose pattern is ``None`` says its
first path, a file or a directory, must not exist. Three rows are
positive: ``expect`` gives the number of matching lines they allow.

The matcher runs Python ``re`` over a walk of the working tree. It never
calls git, so the tests also pass in a copy without ``.git``. The walk
skips what ``.gitignore`` names, and it skips this file, which spells every
pattern.
"""

from __future__ import annotations

import fnmatch
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: This file, as the walk names it; it spells every pattern, so it is skipped.
HERE = "tests/test_one_implementation.py"

#: The top-level directories and files the walk reads (every row's paths
#: lie in them).
WALKED = ("src", "tests", "benchmarks", "bench", "examples", "DESIGN.md")


@dataclass(frozen=True)
class Guard:
    """One deleted concept and the search that keeps it deleted."""

    name: str
    deleted_by: str  # the commit that deleted the concept
    reason: str
    example: Tuple[str, str]  # (path, line) this row must flag
    pattern: Optional[str]  # None: paths[0] must not exist
    paths: Tuple[str, ...]
    exclude: Tuple[str, ...] = ()
    include: Optional[str] = None  # basename glob, grep's --include
    word: bool = False  # grep -w
    extended: bool = True  # grep -E; False is grep's basic syntax
    expect: Tuple[int, Optional[int]] = (0, 0)  # allowed matching lines


GUARDS: Tuple[Guard, ...] = (
    Guard(
        "tenant-node-tree-module", "1725a75",
        "One tenant tree ships; the node tree is a tests/ oracle.",
        ("src/repro/tenants/prefixtree.py", '"""The node prefix tree."""'),
        None, ("src/repro/tenants/prefixtree.py",),
    ),
    Guard(
        "tenant-node-tree-import", "1725a75",
        "Nothing in src/ imports the node tree.",
        ("src/repro/tenants/pipeline.py", "from repro.tenants.prefixtree import PrefixTree"),
        "tenants.prefixtree", ("src",), extended=False,
    ),
    Guard(
        "compact-rib-module", "75a8962",
        "One Adj-RIB-In layout ships.",
        ("src/repro/bgp/ribcompact.py", "class CompactAdjRibIn:"),
        None, ("src/repro/bgp/ribcompact.py",),
    ),
    Guard(
        "compact-rib-and-recorder", "75a8962",
        "One speaker class and one feed recorder (TraceRecorder) ship.",
        ("examples/quickstart.py", "network = Network(graph, speaker_class=CompactSpeaker)"),
        "ribcompact|CompactSpeaker|speaker_class|FeedRecorder", ("src", "examples"),
        include="*.py",
    ),
    Guard(
        "worker-substrate", "2adf915",
        "Fork, pipes and worker death live in repro.proc and nowhere else.",
        ("src/repro/tenants/workers.py", "        except BrokenPipeError:"),
        r"get_context|\.Pipe\(|BrokenPipeError|ConnectionResetError|\.terminate\(",
        ("src",), exclude=("src/repro/proc.py",), include="*.py",
    ),
    Guard(
        "reply-serializer", "2adf915",
        "Workers answer with the pickled ok/error pair; no private serializer.",
        ("tests/test_frames.py", "from repro.tenants.frames import encode_payload"),
        "encode_payload|decode_payload|_encode_value|_decode_value",
        ("src", "tests", "benchmarks"),
    ),
    Guard(
        "experiment-driver", "34ae900",
        "One experiment driver; a third-party baseline is a ScenarioConfig profile "
        "(word match: tests/test_baselines.py keeps two class names as suite ids).",
        ("src/repro/baselines/__init__.py", "from repro.baselines.runner import BaselineExperiment"),
        r"BaselineExperiment|BaselineResult|ThirdPartyPipeline|run_baseline_suite|(argus|phas|ribdump)_factory",
        ("src", "tests", "benchmarks", "examples"), word=True,
    ),
    Guard(
        "mitigation-planner", "34ae900",
        "Only MitigationService.plan de-aggregates.",
        ("src/repro/testbed/scenario.py", "        for sub in prefix.deaggregate(1):"),
        r"\.deaggregate\(",
        ("src",), exclude=("src/repro/net/prefix.py", "src/repro/core/mitigation.py"),
        include="*.py",
    ),
    Guard(
        "prefix-order-key", "a979e0b",
        "One order key per Prefix (ikey); sort_key was a second spelling.",
        ("src/repro/net/prefix.py", "    def sort_key(self):"),
        "sort_key", ("src",), include="*.py", word=True, extended=False,
    ),
    Guard(
        "prefix-trie-module", "9a475c0",
        "One prefix table, an ikey dict; the trie module is gone.",
        ("src/repro/net/trie.py", '"""A radix trie over prefixes."""'),
        None, ("src/repro/net/trie.py",),
    ),
    Guard(
        "prefix-trie", "9a475c0",
        "PrefixTrie is a tests/ oracle, never shipped code.",
        ("bench/inputs.py", "from oracles import PrefixTrie"),
        "PrefixTrie", ("src", "examples", "bench"), word=True, extended=False,
    ),
    Guard(
        "root-partition", "666d71f",
        "Worker roots are net/prefix.py's uncovered_keys, not a partition helper.",
        ("benchmarks/test_tenants.py", "roots = partition_roots(registry.rules)"),
        "partition_roots|assign_roots",
        ("src", "tests", "benchmarks", "bench", "examples"), word=True,
    ),
    Guard(
        "ikey-layout", "9a475c0",
        "Only net/prefix.py spells the ikey layout (shifts by 137 or 9).",
        ("src/repro/tenants/registry.py", "key = (value << 137) | length"),
        r"<< 137|<< 9\b", ("src",), exclude=("src/repro/net/prefix.py",), include="*.py",
    ),
    Guard(
        "tenant-tree-trie", "a037aa2",
        "The tenant tree is one ikey table: no trie columns, slot pools or bit walk.",
        ("src/repro/tenants/pipeline.py", "        bit = (value >> shift) & 1"),
        r"\(value >> shift\) & 1|_free_(pids|rows|nodes)|_node_pid|_tenant_(mark|slot)|_ensure_node",
        ("src",), exclude=("src/repro/net/prefix.py",), include="*.py",
    ),
    Guard(
        "tenant-tree-arrays", "a037aa2",
        "The tenant tree keeps no array columns.",
        ("src/repro/tenants/registry.py", "from array import array"),
        "from array import", ("src/repro/tenants",), extended=False,
    ),
    Guard(
        "tenant-tree-resolves-by-covering", "a037aa2",
        "FlatPrefixTree.resolve is one covering() read with the table's present lengths.",
        ("src/repro/tenants/flattree.py", "        return self._walk(prefix)"),
        "covering(self._table, prefix, self._lengths", ("src/repro/tenants/flattree.py",),
        extended=False, expect=(1, None),
    ),
    Guard(
        "worker-parses-by-decoder", "558361f",
        "Detection workers decode lines through the plane, not parse_event.",
        ("src/repro/tenants/workers.py", "from repro.feeds.dumpfile import parse_event"),
        "parse_event", ("src/repro/tenants/workers.py",), extended=False,
    ),
    Guard(
        "record-field-checks", "558361f",
        "Field checks live in feeds/dumpfile.py and FeedEvent.__init__.",
        ("src/repro/cli.py", '    fields = line.split("|")'),
        r'isdigit|isascii|MAX_ASN|intern_as_path|split\("\|"',
        ("src/repro/tenants", "src/repro/cli.py", "src/repro/feeds/replay.py"),
        include="*.py",
    ),
    Guard(
        "vantage-cache", "53d943c",
        "The decoder's one lead table (_LEAD_CACHE) replaced the vantage cache.",
        ("src/repro/feeds/dumpfile.py", "_VANTAGE_CACHE = {}"),
        "_VANTAGE_CACHE", ("src",), extended=False,
    ),
    Guard(
        "speaker-mark-exports", "17d6eb3",
        "BGPSpeaker._mark_exports was dead; _install_best marks exports.",
        ("src/repro/bgp/speaker.py", "    def _mark_exports(self, prefix):"),
        "_mark_exports", ("src",), extended=False,
    ),
    Guard(
        "source-contract-written-once", "1bf57d8",
        "Subscription and transport are written once: three defs in src/repro/feeds.",
        ("src/repro/feeds/replay.py", "    def subscribe(self, callback):"),
        r"def (subscribe|disconnect|restore_transport)\(", ("src/repro/feeds",),
        expect=(3, 3),
    ),
    Guard(
        "replay-clock", "1bf57d8",
        "A replayed trace runs on an Engine: one clock, one retry schedule.",
        ("src/repro/feeds/stream.py", "import heapq"),
        "ReplayClock|ReplaySourceView|check_now|next_retry_at|heapq", ("src/repro/feeds",),
    ),
    Guard(
        "trace-loaders", "fcc91fa",
        "Nothing in src/ but feeds/replay.py loads a trace.",
        ("src/repro/cli.py", "    trace = load_trace(args.trace)"),
        "load_trace(", ("src",), exclude=("src/repro/feeds/replay.py",), include="*.py",
        extended=False,
    ),
    Guard(
        "tap-event-list", "fcc91fa",
        "The replay tap streams a trace file; it takes no event list.",
        ("src/repro/feeds/replay.py", "    def __init__(self, events: Sequence[FeedEvent]):"),
        r"Sequence\[FeedEvent\]|sorted\(trace", ("src/repro/feeds/replay.py",),
    ),
    Guard(
        "origin-cache-module", "5383af2",
        "One ground truth: the per-target origin caches are gone.",
        ("src/repro/internet/origins.py", '"""Per-target origin caches."""'),
        None, ("src/repro/internet/origins.py",),
    ),
    Guard(
        "world-build", "5383af2",
        "One ground truth (OriginTracker) and one world build (Network._build).",
        ("src/repro/internet/network.py", "        self._origins = OriginCache(self)"),
        "OriginCache|FlipLog|precompute_rov_adopters|_origin_cache_for|exclude_asns",
        ("src", "examples"),
    ),
    Guard(
        "export-rule", "679f78e",
        "Gao-Rexford tables are repro.bgp.policy constants, built once per process.",
        ("src/repro/bgp/policy.py", "    def refresh_export_matrix(self):"),
        "refresh_export_matrix|export_matrix|export_rows|accept_import is Policy", ("src",),
    ),
    Guard(
        "replay-command", "09c78a6",
        "One replay command (cmd_replay) and one alert digest (merged_alert_digest).",
        ("src/repro/tenants/__init__.py", "from repro.tenants.digest import alert_sequence_digest"),
        "alert_sequence_digest|_cmd_replay_tenants", ("src", "examples"),
    ),
    Guard(
        "unreached-code", "99827f3",
        "tests/reachability.py found nothing but tests entering these.",
        ("src/repro/net/prefix.py", "    def bit_at(self, index):"),
        r"scalefree|ScaleFree|HijackEventCatalog|eval\.catalog|def disarm|_customer_cone|def"
        r" (fraction_shorter_than|summarize_topology|single_announcement|single_withdrawal"
        r"|prepended|has_loop|route_from|prefixes_from|drop_peer|from_announcement|path_length"
        r"|same_attributes|remove_roa|_candidates|candidates_view|upstream_is_legit"
        r"|covering_entry|covering_space|all_vantage_asns|streams|queries_per_minute"
        r"|ases_routing_to|bit_at|is_more_specific_of|common_prefix_length|add_router"
        r"|cut_links_of|jittered|make_rng|load_caida|targets)\(",
        ("src", "examples"),
    ),
    Guard(
        "perf-metric-tuples", "77da2b7",
        "repro.perf.METRICS declares each metric once; no counter or gauge name tuples.",
        ("src/repro/perf.py", "FIELDS: Tuple[str, ...] = ("),
        "FIELDS|GAUGES", ("src/repro/perf.py",), word=True,
    ),
    Guard(
        "perf-catalogue-table", "77da2b7",
        "DESIGN.md points at repro.perf.METRICS instead of copying it into a table.",
        ("DESIGN.md", "| Counter | Merge | What it measures |"),
        r"\| Counter \| Merge \|", ("DESIGN.md",),
    ),
    Guard(
        "owner-copied-counters", "77da2b7",
        "Metrics that copied a value their owner reports, or that nothing read, "
        "stay deleted, as does Engine.compactions.",
        ("src/repro/bgp/route.py", "        _C.routes_created += 1"),
        r"replay_(records_read|events_delivered|backlog_peak)|queue_compactions"
        r"|tombstones_purged|routes_created|snapshot_cache_hits|\.compactions\b",
        ("src", "tests", "benchmarks"),
    ),
    Guard(
        "forge-origin-kwarg", "1de4db1",
        "hijack_type is the one attacker spelling; type-1 is what the boolean chose.",
        ("examples/forged_path_hijack.py", "        forge_origin=True,"),
        "forge_origin", ("src", "tests", "benchmarks", "examples", "DESIGN.md"),
    ),
    Guard(
        "forge-origin-flag", "1de4db1",
        "--hijack-type type-1 is the one CLI spelling of a forged-path attack.",
        ("src/repro/cli.py", '        "--forge-origin",'),
        "--forge-origin", ("src", "tests", "examples", "DESIGN.md"),
    ),
    Guard(
        "explicit-type-config", "1de4db1",
        "Every path-forging class gets the one taxonomy detection config.",
        ("src/repro/testbed/scenario.py", "        if cfg.explicit_type and cfg.path_family:"),
        "explicit_type", ("src", "tests"), word=True,
    ),
    Guard(
        "bgp-communities", "1de4db1",
        "Nothing set BGP communities; Announcement and Route carry prefix and path.",
        ("src/repro/bgp/route.py", '        "communities",'),
        "communities", ("src", "tests", "benchmarks"), word=True,
    ),
    Guard(
        "bgp-origin-attr", "1de4db1",
        "Every route was ORIGIN IGP; the attribute never decided anything.",
        ("src/repro/bgp/messages.py", "        self.origin_attr = origin_attr"),
        "origin_attr", ("src", "tests", "benchmarks"), word=True,
    ),
    Guard(
        "bgp-origin-codes", "1de4db1",
        "The ORIGIN codes went with the attribute.",
        ("tests/test_decision.py", "from repro.bgp.messages import ORIGIN_EGP, ORIGIN_IGP"),
        "ORIGIN_(IGP|EGP|INCOMPLETE)", ("src", "tests", "benchmarks"), word=True,
    ),
    Guard(
        "speaker-rel-index-fallback", "1de4db1",
        "Every route a speaker installs carries learned_rel_index.",
        ("src/repro/bgp/speaker.py", "                if learned_index is None:"),
        "learned_(rel_)?index is None", ("src",),
    ),
    Guard(
        "delay-kind-mapping", "1de4db1",
        "make_delay takes a Delay or a number; no mapping or tuple spelling.",
        ("src/repro/sim/latency.py", '        kind = str(spec.get("kind", "constant")).lower()'),
        '"kind"', ("src/repro/sim",),
    ),
    Guard(
        "shard-scenario-fields", "1de4db1",
        "The pinned shard scenario's prefixes, phase instants and monitor count "
        "are module constants.",
        ("tests/test_determinism.py", "        ShardScenarioConfig(t_hijack=300.0)"),
        "t_hijack|t_mitigate|t_end|num_monitors",
        ("src/repro/shard", "tests", "benchmarks"), word=True,
    ),
    Guard(
        "local-pref-overrides", "1de4db1",
        "LOCAL_PREF is DEFAULT_LOCAL_PREF for every policy.",
        ("tests/test_policy.py", "        policy = Policy(local_pref_overrides={Relationship.PEER: 250})"),
        "local_pref_overrides", ("src", "tests"), word=True,
    ),
    Guard(
        "cli-phase-walls-attribute", "9180a29",
        "A command returns its phase walls to main; no attribute on args carries them.",
        ("src/repro/cli.py", "    args._phase_walls = {\"scenario\": wall}"),
        "_phase_walls", ("src/repro/cli.py",), extended=False,
    ),
    Guard(
        "cli-one-json-writer", "9180a29",
        "main writes --json and --profile-json through one json.dump; no command "
        "writes its own file.",
        ("src/repro/cli.py", "            handle.write(renderer.to_json(frames))"),
        "json.dump(", ("src/repro/cli.py",), extended=False, expect=(1, 1),
    ),
    Guard(
        "helper-fleet-op-emitters", "8db6c1e",
        "Helpers reconcile to the target the open actions declare; the fleet "
        "and the action keep no op lists of their own.",
        ("src/repro/core/mitigation.py", "    def disengage(self, prefixes):"),
        r"def (dis)?engage\b|helper_ops", ("src/repro/core/mitigation.py",),
    ),
    Guard(
        "controller-op-emitters", "8db6c1e",
        "BGPController.reconcile is the one way to program routers, and the "
        "controller keeps no op log.",
        ("src/repro/sdn/controller.py", "    def announce_prefix(self, prefix):"),
        r"def (announce|withdraw)_prefix\b|self\.ops\b", ("src/repro/sdn/controller.py",),
    ),
    Guard(
        "mitigation-action-global-ids", "8db6c1e",
        "An action is named by its alert and an alert by its AlertManager; "
        "no process-global counter numbers either.",
        ("src/repro/core/mitigation.py", "    _ids = itertools.count(1)"),
        r"itertools\.count", ("src/repro/core",),
    ),
    Guard(
        "single-runner", "9e603ab",
        "A world runs on one Network; no runner wrapper forwards to it.",
        ("src/repro/internet/network.py", "class SingleRunner:"),
        "SingleRunner", ("src",), word=True,
    ),
    Guard(
        "experiment-truth-trackers", "9e603ab",
        "setup decides the ground truth once (truth, recovered, captured); "
        "run() picks no tracker by hijack class.",
        ("src/repro/testbed/scenario.py", "        self.path_tracker = fork.path_tracker"),
        "path_tracker|squat_tracker", ("src/repro/testbed/scenario.py",),
    ),
    Guard(
        "tracker-duplicate-tables", "9e603ab",
        "OriginTracker keeps one row per AS and where each row started; no "
        "keyed copy of the rows.",
        ("src/repro/internet/tracker.py", "            self._current[key] = value"),
        "_current|_initial|_since", ("src/repro/internet/tracker.py",), word=True,
    ),
    Guard(
        "detection-service-module", "f2298e1",
        "The single operator's detection is the one-tenant DetectionPlane; "
        "no facade module forwards to it.",
        ("src/repro/core/detection.py", '"""The ARTEMIS detection service."""'),
        None, ("src/repro/core/detection.py",),
    ),
    Guard(
        "detection-service", "f2298e1",
        "Artemis and ReplaySession hold a one_tenant_plane and read it directly. "
        "bench/README.md is excluded: bench/ changes only with the benchmark.",
        ("src/repro/core/artemis.py", "        self.detection = DetectionService(config)"),
        "DetectionService", WALKED, exclude=("bench/README.md",), word=True,
    ),
    Guard(
        "monitoring-subscription-bookkeeping", "f2298e1",
        "Artemis subscribes every consumer from one (callback, prefixes) list; "
        "MonitoringService keeps no subscriptions of its own.",
        ("src/repro/core/monitoring.py", "    def start(self, sources):"),
        r"def (start|stop)\b", ("src/repro/core/monitoring.py",),
    ),
    Guard(
        "scenario-graph-knob", "f2298e1",
        "A world's graph comes from its topology config and world seed; no "
        "caller-supplied graph is copied or digested into a checkpoint key.",
        ("src/repro/testbed/scenario.py", "        graph = cfg.graph.copy()"),
        r"graph_digest|cfg\.graph", ("src",),
    ),
    Guard(
        "ris-stream-module", "after f2298e1",
        "RIS live is deployment data for the one StreamingService.",
        ("src/repro/feeds/ris.py", '"""RIPE RIS streaming service model."""'),
        None, ("src/repro/feeds/ris.py",),
    ),
    Guard(
        "bgpmon-stream-module", "after f2298e1",
        "BGPmon is deployment data for the one StreamingService.",
        ("src/repro/feeds/bgpmon.py", '"""BGPmon streaming service model."""'),
        None, ("src/repro/feeds/bgpmon.py",),
    ),
    Guard(
        "stream-subclasses", "after f2298e1",
        "A live stream is one StreamingService; no subclass per service.",
        ("src/repro/feeds/deploy.py", "    ris = RISLiveStream.deploy(network, ris_vantages, seed=seed)"),
        "RISLiveStream|BGPMonStream", WALKED, word=True,
    ),
    Guard(
        "feed-deploy-classmethods", "after f2298e1",
        "deploy_monitors and the scenario wire every source's collectors "
        "through wire_collectors; no source deploys itself.",
        ("src/repro/feeds/batch.py", "    def deploy(cls, network, vantage_asns, seed=0):"),
        "def deploy", ("src/repro/feeds",), word=True,
    ),
    Guard(
        "deployment-vantage-copies", "after f2298e1",
        "The collectors' vantage_asns and the looking glasses' asn are the "
        "record; MonitorDeployment keeps no copy of either.",
        ("src/repro/testbed/scenario.py", "                self.monitors.batch_vantages or self.monitors.ris_vantages,"),
        r"\.(ris_vantages|bgpmon_vantages|batch_vantages|lg_asns)\b",
        ("src", "tests", "benchmarks", "bench", "examples"),
    ),
    Guard(
        "suite-checkpoint-blob", "after 47ba9af",
        "Suite workers inherit the registered checkpoint by fork; no pickled "
        "copy is shipped to them.",
        ("src/repro/eval/experiments.py", "        checkpoint_blob = master.to_bytes()"),
        "checkpoint_blob", ("src/repro/eval",), word=True,
    ),
    Guard(
        "tenant-removal", "after 47ba9af",
        "Tenants only onboard; the item that retires tenants brings removal "
        "back with its own tests.",
        ("src/repro/tenants/registry.py", "    def remove_tenant(self, name: str) -> None:"),
        "remove_tenant|remove_rules", ("src",), word=True,
    ),
    Guard(
        "route-filter-hierarchy", "after 2201d7d",
        "Every speaker applies one import rule: the MAX_PREFIX_LENGTH limit, "
        "then ROV when it holds a registry; no filter classes, no Policy.",
        ("src/repro/internet/network.py", "        plain = self.config.make_policy()"),
        r"\b(RouteFilter|AcceptAll|MaxLengthFilter|PrefixDenyFilter|FilterChain"
        r"|ROVFilter|import_filter|make_policy)\b|\bPolicy\(",
        ("src",),
    ),
    Guard(
        "shard-package", "after e4367c0",
        "A 10k-AS world is one Network in one process; the sharded engine "
        "stays in git at e4367c0.",
        ("src/repro/shard/runner.py", "class ShardRunner:"),
        None, ("src/repro/shard",),
    ),
    Guard(
        "shard-names", "after e4367c0",
        "The 10k world is reached through repro experiment's size flags; no "
        "shard runner, Network seam or scale command is left to call.",
        ("src/repro/cli.py", "def cmd_scale(args: argparse.Namespace) -> Report:"),
        "ShardWorld|make_runner|_cut_link|run_shard_scenario|cmd_scale",
        ("src", "tests", "benchmarks", "bench", "examples"),
    ),
    Guard(
        "memo-hits-counter", "after 2201d7d",
        "Every judged announcement counts once, as a verdict-cache hit or miss.",
        ("src/repro/tenants/pipeline.py", "        counters.pipeline_memo_hits += hits"),
        "pipeline_memo_hits", ("src", "tests"), word=True,
    ),
    Guard(
        "registry-tree-sync", "after ba74f70",
        "The registry owns its one table and links each row into it once; "
        "no second table is kept in step with it.",
        ("src/repro/tenants/registry.py", "    def attach_tree(self, tree) -> None:"),
        r"attach_tree|detach_tree|_trees\b", ("src", "tests", "benchmarks", "bench", "examples"),
    ),
    Guard(
        "router-root-dict", "after ba74f70",
        "The worker router asks the registry's table for an announcement's "
        "root; it keeps no root -> worker dict of its own.",
        ("src/repro/tenants/workers.py", "        self._routing: Dict[int, int] = {}"),
        "_routing|_route_lengths", ("src", "tests", "benchmarks", "bench", "examples"), word=True,
    ),
    Guard(
        "registry-monitored-prefixes", "after ba74f70",
        "The distinct monitored prefixes are the registry table's "
        "FlatPrefixTree.monitored_prefixes(); the registry derives them no "
        "second way.",
        ("src/repro/tenants/registry.py", "    def monitored_prefixes(self) -> List[Prefix]:"),
        "def monitored_prefixes", ("src/repro/tenants/registry.py",),
    ),
    Guard(
        "adj-rib-in-row-cow", "after 049c6fd",
        "Adj-RIB-In rows are immutable tuples a fork shares for good; no row "
        "is privatised on first write.",
        ("src/repro/bgp/rib.py", "    def _unshare_row(self, ikey: int) -> Dict[int, Route]:"),
        "_unshare_row|shared_rows|_shared_rows", ("src/repro/bgp",),
    ),
    Guard(
        "cow-row-forks-metric", "after 049c6fd",
        "With no row privatisation there is nothing for cow_row_forks to count.",
        ("src/repro/perf.py", '    Metric("cow_row_forks", "sum", "checkpoint",'),
        "cow_row_forks", ("src",),
    ),
)

#: The smallest tree the positive rows accept; each example is laid over it.
PASSING: Dict[str, str] = {
    "src/repro/tenants/flattree.py": "        return covering(self._table, prefix, self._lengths)\n",
    "src/repro/feeds/interest.py": "    def subscribe(self, callback):\n",
    "src/repro/feeds/health.py": "    def disconnect(self, down_until):\n    def restore_transport(self):\n",
    "src/repro/cli.py": "        json.dump(payload, handle, indent=2, sort_keys=True)\n",
}


@lru_cache(maxsize=None)
def _regex(guard: Guard) -> "re.Pattern[str]":
    pattern = guard.pattern
    if not guard.extended:
        # Basic syntax: bare ( ) | + ? { } are characters, \( \) ... operators.
        pattern = re.sub(
            r"\\?[(){}|+?]",
            lambda m: m[0][1:] if len(m[0]) == 2 else "\\" + m[0],
            pattern,
        )
    if guard.word:
        pattern = rf"(?<!\w)(?:{pattern})(?!\w)"
    return re.compile(pattern)


def _searched(guard: Guard, path: str) -> bool:
    if path in guard.exclude:
        return False
    if guard.include and not fnmatch.fnmatchcase(path.rsplit("/", 1)[-1], guard.include):
        return False
    return any(path == top or path.startswith(top + "/") for top in guard.paths)


def findings(guard: Guard, files: Mapping[str, str]) -> List[str]:
    """What ``guard`` finds wrong in ``files`` (repo-relative path -> text);
    empty when the row holds."""
    if guard.pattern is None:
        present = any(_searched(guard, path) for path in files)
        return [f"{guard.paths[0]}: exists"] if present else []
    regex = _regex(guard)
    hits = []
    for path in sorted(p for p in files if _searched(guard, p)):
        text = files[path]
        lines = set()
        for match in regex.finditer(text):
            start = text.rfind("\n", 0, match.start()) + 1
            if start in lines:
                continue
            lines.add(start)
            end = text.find("\n", start)
            line = text[start:] if end < 0 else text[start:end]
            number = text.count("\n", 0, start) + 1
            hits.append(f"{path}:{number}: {line.strip()}")
    low, high = guard.expect
    if low <= len(hits) and (high is None or len(hits) <= high):
        return []
    if guard.expect == (0, 0):
        return hits
    wanted = f"at least {low}" if high is None else f"{low}..{high}"
    return [f"{len(hits)} matching lines in {', '.join(guard.paths)}, want {wanted}"] + hits


def _ignore_rules(root: str) -> List[Tuple[str, bool, bool]]:
    """``.gitignore`` as (glob, anchored, directories only) triples."""
    rules = []
    try:
        with open(os.path.join(root, ".gitignore"), encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("#"):
                    rules.append((line.strip("/"), "/" in line.rstrip("/"), line.endswith("/")))
    except FileNotFoundError:
        pass
    return rules


def _ignored(rules, path: str, is_dir: bool) -> bool:
    name = path.rsplit("/", 1)[-1]
    return any(
        fnmatch.fnmatchcase(path if anchored else name, glob)
        for glob, anchored, dirs_only in rules
        if is_dir or not dirs_only
    )


def tree_files(root: str = ROOT) -> Dict[str, str]:
    """Every file under ``WALKED`` that ``.gitignore`` does not name, but
    this one: repo-relative path -> text."""
    rules = _ignore_rules(root)
    files = {}
    for top in WALKED:
        if os.path.isfile(os.path.join(root, top)):
            files[top] = _read(os.path.join(root, top))
        for folder, dirs, names in os.walk(os.path.join(root, top)):
            rel = os.path.relpath(folder, root).replace(os.sep, "/")
            dirs[:] = [d for d in dirs if not _ignored(rules, f"{rel}/{d}", True)]
            for name in names:
                path = f"{rel}/{name}"
                if path == HERE or _ignored(rules, path, False):
                    continue
                files[path] = _read(os.path.join(folder, name))
    return files


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def tree() -> Dict[str, str]:
    return tree_files()


@pytest.mark.parametrize("guard", GUARDS, ids=[guard.name for guard in GUARDS])
def test_deleted_concept_stays_deleted(tree, guard):
    assert findings(guard, tree) == [], f"{guard.reason} (deleted by {guard.deleted_by})"


@pytest.mark.parametrize("guard", GUARDS, ids=[guard.name for guard in GUARDS])
def test_example_trips_its_row_alone(guard):
    path, line = guard.example
    # A forbidden line is added to the passing file; a positive row's
    # example is the whole file, reading the way the row refuses.
    base = PASSING.get(path, "") if guard.expect == (0, 0) else ""
    files = {**PASSING, path: base + line + "\n"}
    tripped = [other.name for other in GUARDS if findings(other, files)]
    assert tripped == [guard.name]


def test_passing_tree_trips_nothing():
    assert [guard.name for guard in GUARDS if findings(guard, PASSING)] == []


def test_every_row_searches_inside_the_walk():
    for guard in GUARDS:
        assert all(path.split("/")[0] in WALKED for path in guard.paths), guard.name


def test_walk_skips_what_gitignore_names(tree):
    assert "src/repro/__init__.py" in tree and HERE not in tree
    assert not any("__pycache__" in path or path.endswith(".pyc") for path in tree)
    assert not any(path.startswith(("bench/.cache/", "bench/out/")) for path in tree)
