"""The paper's three-phase hijack experiment, orchestrated end to end.

(Phase-1) *Setup* — the victim virtual AS announces its prefix and the
announcement converges everywhere, including the monitoring arsenal.
(Phase-2) *Hijacking and detection* — a second virtual AS announces the same
prefix from different sites; ARTEMIS detects the illegitimate origin from
the first feed evidence.
(Phase-3) *Mitigation* — ARTEMIS programs the de-aggregated sub-prefixes
through the controller; the experiment measures when every AS in the
ground-truth tracker has switched back to the legitimate origin.

:class:`HijackExperiment` builds the whole environment (topology → network →
testbed → monitors → controller → ARTEMIS) from one seeded
:class:`ScenarioConfig` and returns an :class:`ExperimentResult` with the
paper's three timings plus per-source and adoption detail.
"""

from __future__ import annotations

import math
import re
import time
from typing import Dict, List, Optional, Tuple

from repro.core.artemis import Artemis
from repro.core.config import ArtemisConfig, OwnedPrefix, OwnedSpace
from repro.core.mitigation import HelperFleet
from repro.errors import ExperimentError
from repro.faults import FaultInjector, FaultPlan, load_plan
from repro.feeds.batch import BatchArchive
from repro.feeds.deploy import MonitorDeployment, deploy_monitors
from repro.feeds.health import SourceSupervisor
from repro.feeds.replay import TraceRecorder
from repro.internet.churn import BackgroundChurn, ChurnConfig
from repro.internet.network import Network, NetworkConfig
from repro.internet.tracker import OriginTracker
from repro.net.prefix import Prefix
from repro.perf import collector_paused
from repro.sdn.controller import BGPController
from repro.sim.rng import SeededRNG
from repro.testbed.peering import PeeringTestbed, VirtualAS
from repro.topology.cache import load_or_build_graph
from repro.topology.generator import GeneratorConfig
from repro.topology.graph import ASGraph, Relationship
from repro.topology.stats import customer_cone

#: Transit sites the victim and the hijacker virtual AS each connect through
#: (multi-homed, like a PEERING experiment announcing from two muxes).
SITES_PER_AS = 2


class PathPresenceProbe:
    """Tracker value function: is ``target_asn`` on the selected path (MitM)?

    A picklable callable object rather than a closure, so experiments that
    track forged-origin hijacks can be checkpointed and forked.
    """

    __slots__ = ("target_asn",)

    def __init__(self, target_asn: int):
        self.target_asn = target_asn

    def __call__(self, speaker, probe) -> bool:
        route = speaker.resolve(probe)
        if route is None:
            return False
        if speaker.asn == self.target_asn:
            # The attacker always "routes via" itself for forged space.
            return bool(route.is_local)
        return self.target_asn in route.as_path


class TrackerCorroborator:
    """Oscilloscope-style data-plane corroboration over an OriginTracker.

    ``probe(prefix) -> bool``: True while at least ``threshold`` of the
    tracked ASes' data planes resolve every probe to a value in
    ``healthy_values`` — the simulated stand-in for distributed pings
    reaching the legitimate infrastructure.  Prefixes outside the
    tracker's watch report healthy (no evidence of divergence).

    ``healthy_values`` is a *live* set: an operator learning of their own
    anycast deployment mid-incident can extend it (the MOAS
    false-positive workflow) without rebuilding the probe.
    """

    __slots__ = ("tracker", "healthy_values", "threshold")

    def __init__(self, tracker: OriginTracker, healthy_values, threshold: float = 0.95):
        self.tracker = tracker
        # Keep the caller's set by reference when given one (the live-set
        # contract above); only copy other iterables.
        self.healthy_values = (
            healthy_values if isinstance(healthy_values, set) else set(healthy_values)
        )
        self.threshold = float(threshold)

    def __call__(self, prefix) -> bool:
        if not prefix.overlaps(self.tracker.watch):
            return True
        fraction = self.tracker.fraction_routing_to(self.healthy_values, mode="all")
        return fraction >= self.threshold

    def __repr__(self) -> str:
        return (
            f"TrackerCorroborator({self.tracker.watch} "
            f"healthy={sorted(map(str, self.healthy_values))} "
            f"threshold={self.threshold})"
        )


_HIJACK_TYPE_RE = re.compile(r"type-(\d+)")


def _parse_hijack_type(
    raw: Optional[str], forge_origin: bool
) -> Tuple[str, Optional[int]]:
    """Canonicalize a ``hijack_type`` → ``(name, forge_depth)``.

    ``forge_depth`` is N for ``type-N`` announcements (0 = plain origin
    hijack) and ``None`` for the classes that are not a fixed-depth path
    forgery (type-U, squatting, route-leak).  ``None`` input keeps the
    historical knob: ``forge_origin`` selects type-1 over type-0.
    """
    if raw is None:
        return ("type-1", 1) if forge_origin else ("type-0", 0)
    text = str(raw).strip().lower()
    if text == "type-u":
        return "type-U", None
    if text in ("squatting", "route-leak"):
        return text, None
    match = _HIJACK_TYPE_RE.fullmatch(text)
    if match is not None:
        depth = int(match.group(1))
        return f"type-{depth}", depth
    raise ExperimentError(
        f"unknown hijack_type {raw!r}: expected type-<N>, type-U, "
        "squatting, or route-leak"
    )


class ScenarioConfig:
    """Everything that defines one hijack experiment."""

    def __init__(
        self,
        prefix: str = "10.0.0.0/23",
        hijack_prefix: Optional[str] = None,
        seed: int = 0,
        topology: Optional[GeneratorConfig] = None,
        graph: Optional[ASGraph] = None,
        network: Optional[NetworkConfig] = None,
        monitors: Optional[Dict] = None,
        auto_mitigate: bool = True,
        deaggregation_levels: int = 1,
        max_announce_length_v4: int = 24,
        baseline_settle: float = 150.0,
        detection_timeout: float = 3600.0,
        completion_timeout: float = 3600.0,
        churn: Optional[ChurnConfig] = ChurnConfig(),
        churn_warmup: float = 180.0,
        observation_window: float = 600.0,
        forge_origin: bool = False,
        num_helpers: int = 0,
        enabled_sources: Optional[Tuple[str, ...]] = None,
        monitor_grace: float = 150.0,
        rov_adoption: float = 0.0,
        faults=None,
        failover_to_batch: bool = False,
        supervision: Optional[Dict] = None,
        world_seed: Optional[int] = None,
        warm_start: bool = False,
        checkpoint=None,
        record_trace: Optional[str] = None,
        cache_dir: Optional[str] = None,
        hijack_type: Optional[str] = None,
        corroborate: Optional[bool] = None,
        operator=None,
    ):
        self.prefix = Prefix.parse(prefix)
        #: Which taxonomy class the attacker plays: ``type-0`` (origin),
        #: ``type-N`` (forged path N hops from the origin), ``type-U``
        #: (full real path, data-plane-only), ``squatting`` (originating
        #: owned-but-unannounced space), or ``route-leak`` (a real
        #: multihomed stub re-exporting the victim's route).  ``None``
        #: keeps the historical behaviour: type-1 when ``forge_origin``
        #: else type-0, with the pre-taxonomy detection config.
        self.hijack_type, self.forge_depth = _parse_hijack_type(
            hijack_type, forge_origin
        )
        #: Explicitly requested types get the full taxonomy detection
        #: config (upstreams, adjacencies, sentinels); legacy scenarios
        #: keep their original config bit-identically.
        self.explicit_type = hijack_type is not None
        #: Owned-but-unannounced space the squatter targets; only set for
        #: squatting scenarios (the parent supernet of the owned prefix,
        #: with the unannounced sibling half as the squat target).
        self.squat_space: Optional[Prefix] = None
        if self.hijack_type == "squatting":
            if self.prefix.length < 1:
                raise ExperimentError(
                    f"cannot derive squat space around {self.prefix}"
                )
            space = self.prefix.supernet(self.prefix.length - 1)
            low, high = space.split()
            self.squat_space = space
            #: The squatter announces the sibling half the owner holds
            #: but never announces (any user-supplied hijack_prefix is
            #: ignored — squatting is defined by the space layout).
            self.hijack_prefix = high if low == self.prefix else low
        else:
            #: What the hijacker announces; defaults to the owned prefix
            #: itself (exact hijack).  Set a more-specific for a
            #: sub-prefix hijack.
            self.hijack_prefix = (
                Prefix.parse(hijack_prefix)
                if hijack_prefix is not None
                else self.prefix
            )
            if not self.prefix.contains(self.hijack_prefix):
                raise ExperimentError(
                    f"hijack prefix {self.hijack_prefix} outside owned {self.prefix}"
                )
        self.seed = int(seed)
        self.topology = topology or GeneratorConfig()
        self.graph = graph
        self.network = network
        #: Keyword arguments forwarded to :func:`deploy_monitors`.
        self.monitors = dict(monitors or {})
        self.auto_mitigate = bool(auto_mitigate)
        self.deaggregation_levels = int(deaggregation_levels)
        self.max_announce_length_v4 = int(max_announce_length_v4)
        #: Extra settle time after convergence so LG baselines are polled.
        self.baseline_settle = float(baseline_settle)
        self.detection_timeout = float(detection_timeout)
        self.completion_timeout = float(completion_timeout)
        #: Background churn keeping MRAI timers realistically armed
        #: (pass ``churn=None`` for a quiet laboratory network).
        self.churn = churn
        self.churn_warmup = float(churn_warmup)
        #: Derived compatibility flag: True for the classes where the
        #: *hijacker* forges a path ending at the victim (type-N with
        #: N ≥ 1, and type-U) so origin checks pass.  Route leaks forge
        #: too, but through a third-party leaker AS.
        self.forge_origin = self.hijack_type == "type-U" or (
            self.forge_depth is not None and self.forge_depth >= 1
        )
        #: Outsourced-mitigation helper ASes (tier-1s with an agreement),
        #: engaged when the victim alone cannot fully recover.
        self.num_helpers = int(num_helpers)
        #: Which sources the defender consumes.  ARTEMIS' live three are
        #: the default; a third-party service reads one of the archives
        #: instead: "batch" (15-minute update files + 2 h RIBs) or
        #: "rib-dump" (2 h RIBs only).  The live infrastructure and the
        #: batch archive are always deployed — ablating at the subscription
        #: level keeps the simulated world bit-identical across
        #: configurations (clean A1 ablation).  "rib-dump" is the exception:
        #: that archive peers with vantages of its own, so it is deployed
        #: only when enabled and every other world never sees it.
        live = {"ris", "bgpmon", "periscope"}
        if enabled_sources is None:
            self.enabled_sources = tuple(sorted(live))
        else:
            unknown = set(enabled_sources) - live - {"batch", "rib-dump"}
            if unknown:
                raise ExperimentError(f"unknown sources {sorted(unknown)}")
            if not enabled_sources:
                raise ExperimentError("ARTEMIS needs at least one source")
            if "batch" in enabled_sources and not self.monitors.get("with_batch", True):
                raise ExperimentError('source "batch" needs monitors with_batch=True')
            self.enabled_sources = tuple(sorted(set(enabled_sources)))
        #: Extra time after ground-truth recovery for feeds to flush, so the
        #: monitoring view's curve also ends clean.
        self.monitor_grace = float(monitor_grace)
        #: Fraction of ASes enforcing RPKI route-origin validation; a ROA
        #: for the victim's prefix is published during setup (the
        #: prevention-vs-detection comparison of bench A4).
        if not 0.0 <= rov_adoption <= 1.0:
            raise ExperimentError("rov_adoption must be a probability")
        self.rov_adoption = float(rov_adoption)
        #: How long to keep observing when full recovery is not expected
        #: (no auto-mitigation, or the /24 partial-recovery case).
        self.observation_window = float(observation_window)
        #: Optional :class:`~repro.faults.plan.FaultPlan` (or its dict form,
        #: or a path to a plan JSON file) armed at the hijack instant: fault
        #: times are relative to the hijack announcement.  Plans are value
        #: objects, so one plan is safely shared across a whole seed suite.
        if faults is None or isinstance(faults, FaultPlan):
            self.faults = faults
        elif isinstance(faults, dict):
            self.faults = FaultPlan.from_dict(faults)
        elif isinstance(faults, str):
            self.faults = load_plan(faults)
        else:
            raise ExperimentError(
                f"faults must be a FaultPlan, dict, or path, got {type(faults)}"
            )
        #: Engage the batch archive as a standby source while any live
        #: source is believed dead (interest failover).  Off by default so
        #: the A1 source ablations stay clean.
        self.failover_to_batch = bool(failover_to_batch)
        #: Keyword arguments forwarded to
        #: :class:`~repro.feeds.health.SourceSupervisor` (check interval,
        #: staleness timeout, backoff parameters).
        self.supervision = dict(supervision or {})
        #: When set, the *world* (topology, phase-1 convergence) is built
        #: from this seed instead of :attr:`seed`, and every world RNG
        #: stream is re-keyed from ``seed`` at the hijack instant — in both
        #: the cold and the warm path.  This is what lets one checkpoint of
        #: the converged Internet serve a whole sweep of run seeds while
        #: keeping each run bit-identical to its cold twin.  ``None`` (the
        #: default) preserves the historical behaviour: the world varies
        #: with ``seed`` and no re-keying happens.
        self.world_seed = None if world_seed is None else int(world_seed)
        #: Skip phases 0–1 by forking a checkpoint of the converged world
        #: from the process-wide registry (built on first miss).  See
        #: :mod:`repro.testbed.checkpoint`.
        self.warm_start = bool(warm_start)
        #: Explicit checkpoint to fork instead of consulting the registry:
        #: a :class:`~repro.testbed.checkpoint.Checkpoint` instance or a
        #: path to one saved with ``save_checkpoint``.  Implies warm start.
        self.checkpoint = checkpoint
        #: Path to archive this run's detection-plane feed as a replayable
        #: trace (:mod:`repro.feeds.replay`).  The recorder taps the same
        #: sources with the same owned-prefix filter detection uses, adds
        #: no randomness and schedules nothing, so a recorded run stays
        #: bit-identical to an unrecorded one.  Requires a cold start: the
        #: trace must include the phase-1 baseline events, which a forked
        #: checkpoint has already consumed.
        self.record_trace = record_trace
        #: Directory for the on-disk topology cache
        #: (:mod:`repro.topology.cache`).  Suite workers regenerate the same
        #: graph per world seed; with a cache directory the first builder
        #: persists it and everyone else loads.  ``None`` disables caching.
        self.cache_dir = cache_dir
        #: Attach the data-plane corroboration probe (Oscilloscope-style)
        #: at the hijack instant.  Defaults to on for type-U — the only
        #: class with *no* control-plane signature — and off otherwise.
        self.corroborate = (
            self.hijack_type == "type-U" if corroborate is None else bool(corroborate)
        )
        #: Who pushes the button: an
        #: :class:`~repro.baselines.operator.OperatorModel` standing between
        #: every alert and its mitigation (verify, then reconfigure by hand —
        #: at the console, so the controller adds no programming delay), or
        #: ``None`` for ARTEMIS, where nobody does.
        self.operator = operator

    @property
    def path_family(self) -> bool:
        """True for classes whose announcements keep the legitimate origin
        (type-N with N ≥ 1, type-U, route-leak) — the ones needing path
        rules (upstreams / adjacencies / sentinels) to detect."""
        return (
            self.hijack_type in ("type-U", "route-leak")
            or (self.forge_depth is not None and self.forge_depth >= 1)
        )


class ExperimentResult:
    """The measured outcome of one experiment (the paper's §3 quantities)."""

    #: Host wall-clock seconds per experiment phase (setup / phase1 — or
    #: restore, for warm starts — / phase2 / phase3).  The experiment's
    #: :attr:`HijackExperiment.phase_walls` dict is the single source of
    #: truth during the run; it is copied here exactly once when the result
    #: is built, so this class-level empty default is never mutated.
    #: Deliberately left out of :meth:`to_dict`: serialized results must
    #: stay bit-identical across hosts and job counts.
    phase_walls: Dict[str, float] = {}

    def __init__(self) -> None:
        self.seed: int = 0
        self.prefix: Optional[Prefix] = None
        self.victim_asn: int = 0
        self.hijacker_asn: int = 0
        #: Simulated instant the hijack announcement was made.
        self.hijack_time: float = 0.0
        #: Hijack → first alert (paper: ≈45 s mean).
        self.detection_delay: Optional[float] = None
        #: Alert → de-aggregated prefixes announced (paper: ≈15 s; with a
        #: human operator in the loop, their whole reaction).
        self.announce_delay: Optional[float] = None
        #: Announcement → every AS back on the legit origin (paper: ≤5 min).
        self.completion_delay: Optional[float] = None
        #: Hijack → fully mitigated (paper: ≈6 min).
        self.total_time: Optional[float] = None
        #: Detection delay each individual source achieved *by alert time*
        #: (the sources that had reported when the alert fired).
        self.per_source_delay: Dict[str, float] = {}
        #: Same table at the end of the run, once slower feeds flushed:
        #: every source that eventually produced first evidence.
        self.per_source_delay_final: Dict[str, float] = {}
        #: Peak fraction of ASes that had (partly) switched to the hijacker.
        self.hijack_fraction_peak: float = 0.0
        #: Fraction still on the hijacker at the end (>0 for /24 cases).
        self.residual_hijack_fraction: float = 0.0
        self.mitigated: bool = False
        self.alert_type: Optional[str] = None
        self.strategy: Optional[str] = None
        #: Ground-truth (time, fraction-legit) curve from the hijack onward.
        self.ground_truth_series: List[Tuple[float, float]] = []
        #: Feed-derived (time, fraction-legit) curve from ARTEMIS monitoring.
        self.monitor_series: List[Tuple[float, float]] = []
        self.lg_queries: int = 0
        self.feed_events_checked: int = 0
        #: Sources the supervisor believed live when the first alert fired
        #: (empty when nothing was detected).
        self.sources_live_at_alert: List[str] = []
        #: Per-source health summary at the end of the run: state, outage
        #: count, supervised downtime, worst staleness, reconnect attempts.
        self.source_report: Dict[str, Dict] = {}
        #: Realized mean feed lag (delivery − observation) per source.
        self.source_lag: Dict[str, float] = {}
        #: Fault-injector actions applied, and the full (time, action,
        #: target) audit log — empty without a fault plan.
        self.faults_injected: int = 0
        self.fault_log: List[List] = []

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "prefix": str(self.prefix) if self.prefix else None,
            "victim_asn": self.victim_asn,
            "hijacker_asn": self.hijacker_asn,
            "hijack_time": self.hijack_time,
            "detection_delay": self.detection_delay,
            "announce_delay": self.announce_delay,
            "completion_delay": self.completion_delay,
            "total_time": self.total_time,
            "per_source_delay": dict(self.per_source_delay),
            "per_source_delay_final": dict(self.per_source_delay_final),
            "hijack_fraction_peak": self.hijack_fraction_peak,
            "residual_hijack_fraction": self.residual_hijack_fraction,
            "mitigated": self.mitigated,
            "alert_type": self.alert_type,
            "strategy": self.strategy,
            "lg_queries": self.lg_queries,
            "feed_events_checked": self.feed_events_checked,
            "sources_live_at_alert": list(self.sources_live_at_alert),
            "source_report": dict(self.source_report),
            "source_lag": dict(self.source_lag),
            "faults_injected": self.faults_injected,
            "fault_log": [list(entry) for entry in self.fault_log],
        }

    def __repr__(self) -> str:
        def fmt(value: Optional[float]) -> str:
            return f"{value:.1f}s" if value is not None else "-"

        return (
            f"ExperimentResult(detect={fmt(self.detection_delay)} "
            f"announce={fmt(self.announce_delay)} "
            f"complete={fmt(self.completion_delay)} total={fmt(self.total_time)})"
        )


class HijackExperiment:
    """Build and run one three-phase experiment."""

    def __init__(self, config: Optional[ScenarioConfig] = None):
        self.config = config or ScenarioConfig()
        self.network: Optional[Network] = None
        self.testbed: Optional[PeeringTestbed] = None
        self.victim: Optional[VirtualAS] = None
        self.hijacker: Optional[VirtualAS] = None
        self.monitors: Optional[MonitorDeployment] = None
        self.controller: Optional[BGPController] = None
        self.artemis: Optional[Artemis] = None
        self.supervisor: Optional[SourceSupervisor] = None
        self.injector: Optional[FaultInjector] = None
        self.recorder: Optional[TraceRecorder] = None
        self.tracker: Optional[OriginTracker] = None
        #: Only for forged-path runs (type-N/type-U/route-leak): tracks
        #: offender-on-path instead of origin (the origin never changes).
        self.path_tracker: Optional[OriginTracker] = None
        #: Only for squatting runs: tracks the squatted sibling block,
        #: which lies outside the main tracker's watch.
        self.squat_tracker: Optional[OriginTracker] = None
        #: Only for route-leak runs: the real multihomed stub that leaks.
        self.leaker_asn: Optional[int] = None
        #: Built at setup when ``corroborate`` is on; attached to the
        #: detection service at the hijack instant (phase 1's legitimate
        #: convergence churn must not feed the probe).
        self.corroborator: Optional[TrackerCorroborator] = None
        self.churn: Optional[BackgroundChurn] = None
        #: Host wall-clock seconds spent building/simulating each phase —
        #: the single source of truth; copied into the result once at build.
        self.phase_walls: Dict[str, float] = {}
        self._setup_done = False
        self._phase1_done = False

    # ------------------------------------------------------------------- setup

    def setup(self) -> None:
        """Phase-0: build the world (idempotent)."""
        if self._setup_done:
            return
        wall_start = time.perf_counter()
        cfg = self.config
        # The seed the *world* is built from.  Normally the run seed; when a
        # world_seed is pinned (warm-start sweeps sharing one checkpointed
        # Internet) the world comes from it and the run seed only re-keys
        # the streams at the hijack instant (see :meth:`_reseed_for_run`).
        wseed = cfg.seed if cfg.world_seed is None else cfg.world_seed
        # A caller-supplied graph is copied: setup grafts the virtual ASes
        # onto it, and suites rerun many seeds against one shared topology.
        # Otherwise the graph is built per (topology, wseed) — through the
        # on-disk cache when one is configured, so suite workers and repeated
        # runs skip regeneration.
        graph = cfg.graph.copy() if cfg.graph is not None else load_or_build_graph(
            cfg.topology, seed=wseed, cache_dir=cfg.cache_dir
        )
        network_config = cfg.network
        if cfg.rov_adoption > 0.0:
            network_config = network_config or NetworkConfig()
            network_config.rov_adoption = cfg.rov_adoption
        self.network = Network(graph, config=network_config, seed=wseed)
        self.testbed = PeeringTestbed(self.network, seed=wseed)
        victim_sites = self.testbed.pick_sites(SITES_PER_AS)
        hijacker_sites = self.testbed.pick_sites(SITES_PER_AS, exclude=victim_sites)
        self.victim = self.testbed.create_virtual_as(victim_sites)
        self.hijacker = self.testbed.create_virtual_as(hijacker_sites)
        if cfg.hijack_type == "route-leak":
            self.leaker_asn = self._pick_leaker()
        if cfg.rov_adoption > 0.0:
            # Publish the victim's ROA, authorising the prefix and its
            # de-aggregated more-specifics down to the filtering limit.
            from repro.bgp.rpki import ROA

            self.network.rpki.add_roa(
                ROA(
                    cfg.prefix,
                    self.victim.asn,
                    max_length=(
                        cfg.max_announce_length_v4
                        if cfg.prefix.version == 4
                        else 48
                    ),
                )
            )
        # Ground-truth probe granularity below the owned prefix: 1 = the
        # de-aggregation halves, and at least as fine as the hijacked
        # prefix (2 for a /24 inside a /22), or the ground truth cannot see
        # a deep sub-prefix hijack at all.
        probe_depth = max(1, cfg.hijack_prefix.length - cfg.prefix.length)
        self.tracker = OriginTracker(self.network, cfg.prefix, probe_depth=probe_depth)
        if cfg.squat_space is not None:
            # The squatted sibling lies outside the main tracker's watch;
            # its recovery (the owner announcing the block post-alert) is
            # judged by a dedicated tracker.
            self.squat_tracker = OriginTracker(self.network, cfg.hijack_prefix)
        self.monitors = deploy_monitors(self.network, seed=wseed, **cfg.monitors)
        if cfg.churn is not None:
            self.churn = BackgroundChurn(self.network, cfg.churn, seed=wseed)
        self.controller = BGPController(
            self.network.engine,
            [self.victim.speaker],
            # A human reconfigures at the console: their delay is the
            # operator's, and the controller adds none of its own.
            programming_delay=None if cfg.operator is None else 0.0,
            rng=SeededRNG(wseed).substream("controller"),
        )
        helpers = None
        helper_asns: List[int] = []
        if cfg.num_helpers > 0:
            helper_asns = self._pick_helpers(cfg.num_helpers)
            helpers = HelperFleet(
                [
                    BGPController(
                        self.network.engine,
                        [self.network.speaker(asn)],
                        rng=SeededRNG(wseed).substream("helper-controller", asn),
                    )
                    for asn in helper_asns
                ],
                rng=SeededRNG(wseed).substream("helper-fleet"),
            )
        # Helpers announce by agreement → whitelist them as origins.  For
        # forged-path experiments, the victim's transit sites are the only
        # legitimate first hops (enables type-1 / PATH detection).
        legit_upstreams = set(self.victim.sites) if cfg.forge_origin else None
        adjacencies = None
        leak_sentinels = None
        owned_space: List[OwnedSpace] = []
        if cfg.explicit_type and cfg.path_family:
            # The taxonomy config: the full learned AS-adjacency map
            # (built *after* the virtual ASes joined the graph, so the
            # victim's genuine links are known) enables the hop-N rule,
            # and for route leaks the known-stub sentinels enable the
            # stub-in-transit rule.
            legit_upstreams = set(self.victim.sites)
            adjacencies = self._graph_adjacencies()
            if cfg.hijack_type == "route-leak":
                leak_sentinels = self._stub_sentinels()
        if cfg.squat_space is not None:
            owned_space = [
                OwnedSpace(cfg.squat_space, {self.victim.asn, *helper_asns})
            ]
        artemis_config = ArtemisConfig(
            owned=[
                OwnedPrefix(
                    cfg.prefix,
                    {self.victim.asn, *helper_asns},
                    legit_upstreams=legit_upstreams,
                )
            ],
            owned_space=owned_space,
            adjacencies=adjacencies,
            leak_sentinels=leak_sentinels,
            auto_mitigate=cfg.auto_mitigate,
            deaggregation_levels=cfg.deaggregation_levels,
            max_announce_length_v4=cfg.max_announce_length_v4,
        )
        sources = {
            "ris": self.monitors.ris,
            "bgpmon": self.monitors.bgpmon,
            "batch": self.monitors.batch,
        }
        if "rib-dump" in cfg.enabled_sources:
            # Deployed last: its monitor sessions join each vantage's peer
            # list behind everything a world without it has.
            sources["rib-dump"] = self.monitors.rib_archive = BatchArchive.deploy(
                self.network,
                self.monitors.batch_vantages or self.monitors.ris_vantages,
                seed=wseed,
                name="rib-only",
                publish_updates=False,
            )
        streams = [sources[name] for name in sources if name in cfg.enabled_sources]
        periscope = (
            self.monitors.periscope if "periscope" in cfg.enabled_sources else None
        )
        # Liveness supervision over exactly the sources ARTEMIS consumes;
        # it adds no randomness and no feed traffic, so the no-fault run
        # stays bit-identical with supervision always on.
        supervised = list(streams)
        if periscope is not None:
            supervised.append(periscope)
        self.supervisor = SourceSupervisor(
            self.network.engine, supervised, **cfg.supervision
        )
        if cfg.failover_to_batch and self.monitors.batch not in (None, *streams):
            self.supervisor.add_backup(self.monitors.batch)
        self.artemis = Artemis(
            artemis_config,
            self.controller,
            sources=streams,
            periscope=periscope,
            helpers=helpers,
            supervisor=self.supervisor,
            operator=cfg.operator,
            rng=cfg.operator and cfg.operator.rng(wseed),
        )
        if cfg.faults is not None:
            # Targets are validated now (setup time); the plan is armed at
            # the hijack instant in :meth:`run`.
            self.injector = FaultInjector(
                self.network, self.monitors, cfg.faults, seed=cfg.seed
            )
        if cfg.forge_origin or cfg.hijack_type == "route-leak":
            # Forged-path classes keep the legitimate origin, so ground
            # truth is offender-on-path: the hijacker for type-N/type-U,
            # the leaking stub for route leaks.
            offender = (
                self.leaker_asn
                if cfg.hijack_type == "route-leak"
                else self.hijacker.asn
            )
            self.path_tracker = OriginTracker(
                self.network,
                cfg.prefix,
                probe_depth=probe_depth,
                value_fn=PathPresenceProbe(offender),
            )
        if cfg.corroborate:
            if self.path_tracker is not None:
                # Healthy = no tracked AS's data plane goes via the
                # offender (a MitM attacker blackholes what it attracts).
                self.corroborator = TrackerCorroborator(self.path_tracker, {False})
            else:
                # Healthy = traffic still reaches operator infrastructure
                # (the victim or a whitelisted helper origin).
                self.corroborator = TrackerCorroborator(
                    self.tracker, {self.victim.asn, *helper_asns}
                )
        self._setup_done = True
        self.phase_walls["setup"] = time.perf_counter() - wall_start

    def _pick_helpers(self, count: int) -> List[int]:
        """Helper ASes: best-connected transit networks not already involved
        (tier-1 preferred — outsourcing works because helpers sit at better
        positions than the victim)."""
        involved = set(self.victim.sites) | set(self.hijacker.sites)
        candidates = [
            node.asn
            for node in self.network.graph.nodes()
            if node.tier <= 2 and node.asn not in involved
        ]
        if len(candidates) < count:
            raise ExperimentError(
                f"only {len(candidates)} transit helpers available, need {count}"
            )
        graph = self.network.graph
        ranked = sorted(
            candidates, key=lambda a: (graph.node(a).tier, -graph.degree(a), a)
        )
        return sorted(ranked[:count])

    def _graph_adjacencies(self) -> Dict[int, frozenset]:
        """The full AS-adjacency map, virtual ASes included.

        This is the detector's "learned" view of which links exist; the
        hop-N rule flags path pairs that are not in it.  Built after the
        testbed grafts the virtual ASes so the victim's genuine transit
        links are known (otherwise its own announcements would look
        forged).
        """
        graph = self.network.graph
        return {
            asn: frozenset(neighbor for neighbor, _rel in graph.neighbors(asn))
            for asn in graph.asns()
        }

    def _stub_sentinels(self) -> List[int]:
        """Real stub ASes (leak sentinels): a stub in a transit position
        is definitionally a route leak.  Testbed-attached virtual ASes
        are excluded — they are the experiment's own apparatus."""
        graph = self.network.graph
        return sorted(
            node.asn
            for node in graph.nodes()
            if node.tier == 3 and "attached" not in node.tags
        )

    def _pick_leaker(self) -> int:
        """The leaking AS for a route-leak scenario: a real multihomed
        stub (≥ 2 providers — it learns the victim's route from one and
        leaks it to the others, which prefer the customer route and
        spread it).

        Gao-Rexford preference means the leak only attracts traffic at a
        provider whose existing route to the victim is *not* customer-
        learned, so prefer (deterministically: lowest ASN) a stub with at
        least one provider outside the victim's customer-routed region.
        """
        graph = self.network.graph
        victim_asn = self.victim.asn
        cones: Dict[int, set] = {}
        fallback: Optional[int] = None
        for node in sorted(graph.nodes(), key=lambda n: n.asn):
            if node.tier != 3 or "attached" in node.tags:
                continue
            providers = [
                neighbor
                for neighbor, rel in graph.neighbors(node.asn)
                if rel is Relationship.PROVIDER
            ]
            if len(providers) < 2:
                continue
            if fallback is None:
                fallback = node.asn
            for provider in providers:
                cone = cones.get(provider)
                if cone is None:
                    cone = cones[provider] = customer_cone(graph, provider)
                if victim_asn not in cone:
                    return node.asn
        if fallback is None:
            raise ExperimentError(
                "route-leak scenario needs a real multihomed stub AS"
            )
        return fallback

    def _forged_suffix(self) -> Tuple[int, ...]:
        """The AS-path tail the hijacker forges for type-N / type-U.

        Type-N claims the last N hops of the hijacker's *real* route to
        the prefix (N=1 → ``(victim,)``, the classic type-1); type-U
        claims the full real path, leaving no control-plane signature.
        """
        cfg = self.config
        if cfg.forge_depth == 1:
            return (self.victim.asn,)
        route = self.hijacker.speaker.resolve(cfg.hijack_prefix)
        if route is None or not route.as_path:
            raise ExperimentError(
                f"hijacker AS{self.hijacker.asn} has no real route to "
                f"{cfg.hijack_prefix} to forge from"
            )
        path = tuple(route.as_path)
        if cfg.hijack_type == "type-U":
            # The forged path must be link-for-link real, so it starts at
            # one of the hijacker's own providers — which then drops the
            # export by loop detection.  Route the forgery through the
            # site whose real path avoids the *other* sites, so the
            # remaining export edges stay viable.
            sites = list(self.hijacker.sites)
            for site in sites:
                site_route = self.network.speaker(site).resolve(
                    cfg.hijack_prefix
                )
                if site_route is None or not site_route.as_path:
                    continue
                candidate = (site,) + tuple(site_route.as_path)
                if all(
                    other == site or other not in candidate
                    for other in sites
                ):
                    return candidate
            return path
        if cfg.forge_depth >= len(path):
            raise ExperimentError(
                f"{cfg.hijack_type} needs a forged tail shorter than the "
                f"hijacker's real {len(path)}-hop path {path}; use type-U "
                "for a full-path forgery"
            )
        return path[-cfg.forge_depth:]

    # ----------------------------------------------------------------- helpers

    def _run_until(self, predicate, timeout: float) -> bool:
        """Step the engine until ``predicate()`` or simulated ``timeout``."""
        engine = self.network.engine
        deadline = engine.now + timeout
        while not predicate():
            next_time = engine.peek_time()
            if next_time is None or next_time > deadline:
                return predicate()
            engine.step()
        return True

    def _run_until_routing(self, origins, timeout: float, tracker=None) -> bool:
        """Step until every tracked AS's probes all resolve into ``origins``.

        The (relatively expensive) data-plane check is re-evaluated only
        when the tracker logged new flips, so stepping stays O(1) per event.
        """
        tracker = tracker or self.tracker
        engine = self.network.engine
        deadline = engine.now + timeout
        seen_flips = -1
        while True:
            if len(tracker.flips) != seen_flips:
                seen_flips = len(tracker.flips)
                if tracker.all_route_to(origins):
                    return True
            next_time = engine.peek_time()
            if next_time is None or next_time > deadline:
                return tracker.all_route_to(origins)
            engine.step()

    # --------------------------------------------------------------------- run

    @collector_paused()
    def run_phase1(self) -> None:
        """Phase-1: legitimate announcement, convergence, LG baseline.

        Idempotent, and public because checkpoint capture drives exactly
        phases 0–1: the state after this call is the quiescent converged
        Internet that :mod:`repro.testbed.checkpoint` snapshots.
        """
        if self._phase1_done:
            return
        self.setup()
        cfg = self.config
        network = self.network
        wall_mark = time.perf_counter()
        self.artemis.start()
        if self.churn is not None:
            self.churn.start()
            network.run_for(cfg.churn_warmup)
        self.victim.announce(cfg.prefix)
        if not self._run_until_routing({self.victim.asn}, cfg.completion_timeout):
            raise ExperimentError(
                "phase-1 failed: not every AS routes to the victim after setup"
            )
        # Let the looking glasses complete at least one full poll cycle so
        # Periscope has a baseline to diff against.
        settle = max(
            cfg.baseline_settle, self.monitors.periscope.poll_interval * 1.25
        )
        network.run_for(settle)
        if self.artemis.alerts:
            raise ExperimentError(
                f"false alarm during setup: {self.artemis.alerts[0]!r}"
            )
        self._phase1_done = True
        self.phase_walls["phase1"] = time.perf_counter() - wall_mark

    def _warm_restore(self) -> None:
        """Skip phases 0–1 by forking a checkpoint of the converged world."""
        if self._phase1_done:
            return
        from repro.testbed.checkpoint import acquire_checkpoint

        wall_mark = time.perf_counter()
        fork = acquire_checkpoint(self.config).fork()
        self._adopt_world(fork)
        self.phase_walls["restore"] = time.perf_counter() - wall_mark

    def _adopt_world(self, fork: "HijackExperiment") -> None:
        """Take over a forked experiment's world as this run's own.

        Everything built by phases 0–1 comes from the fork; the pieces that
        are run-scoped — the fault injector (seeded by the *run* seed and
        armed at the hijack instant) and this experiment's config — are
        built fresh here, which is also why the capture-time config may
        differ from ours in exactly those fields (see ``world_config``).
        """
        cfg = self.config
        self.network = fork.network
        self.testbed = fork.testbed
        self.victim = fork.victim
        self.hijacker = fork.hijacker
        self.monitors = fork.monitors
        self.controller = fork.controller
        self.artemis = fork.artemis
        self.supervisor = fork.supervisor
        self.tracker = fork.tracker
        self.path_tracker = fork.path_tracker
        self.squat_tracker = fork.squat_tracker
        self.leaker_asn = fork.leaker_asn
        self.corroborator = fork.corroborator
        self.churn = fork.churn
        if cfg.faults is not None:
            self.injector = FaultInjector(
                self.network, self.monitors, cfg.faults, seed=cfg.seed
            )
        self._setup_done = True
        self._phase1_done = True

    def _iter_world_rngs(self):
        """Every RNG stream owned by the simulated world, in a fixed order.

        Used by :meth:`_reseed_for_run` at the hijack instant.  Order does
        not matter for correctness (each stream is re-keyed independently
        from its own ``base_seed``), but keeping it fixed makes the walk
        auditable.  The fault injector is deliberately absent: its stream
        is already keyed by the run seed at construction.
        """
        network = self.network
        yield network.rng
        for asn in sorted(network.speakers):
            yield network.speakers[asn].rng
        for session in network.sessions:
            yield session.rng
        yield self.testbed.rng
        if self.churn is not None:
            yield self.churn.rng
        yield self.controller.rng
        monitors = self.monitors
        yield monitors.ris.rng
        yield monitors.bgpmon.rng
        yield monitors.periscope.rng
        for lg in monitors.periscope.looking_glasses:
            yield lg.rng
        if monitors.batch is not None:
            yield monitors.batch.rng
        if monitors.rib_archive is not None:
            yield monitors.rib_archive.rng
        yield self.artemis.rng
        helpers = self.artemis.mitigation.helpers
        if helpers is not None:
            yield helpers.rng
            for controller in helpers.controllers:
                yield controller.rng

    def _reseed_for_run(self, run_seed: int) -> None:
        """Re-key every world RNG stream for one run of a shared world.

        Called at the hijack instant in *both* the cold and the warm path
        whenever ``world_seed`` is pinned, so a run forked from a checkpoint
        draws exactly what its cold twin draws from the attack onward —
        regardless of how many values phase 1 consumed in either path.
        """
        for rng in self._iter_world_rngs():
            rng.reseed_run(run_seed)

    @collector_paused()
    def run(self) -> ExperimentResult:
        """Execute all three phases and collect the measurements."""
        cfg = self.config
        if cfg.warm_start or cfg.checkpoint is not None:
            if cfg.record_trace is not None:
                raise ExperimentError(
                    "trace recording requires a cold start: the trace must "
                    "include the phase-1 baseline events, which a forked "
                    "checkpoint has already consumed"
                )
            self._warm_restore()
        else:
            if cfg.record_trace is not None and self.recorder is None:
                # Attach before phase 1 so the trace carries the baseline
                # (legitimate) events too — a replay then reconstructs the
                # same monitoring lag tables as the live run, not just the
                # hijack tail.
                self.setup()
                self.recorder = TraceRecorder(
                    cfg.record_trace,
                    meta={
                        "seed": cfg.seed,
                        "prefix": str(cfg.prefix),
                        "hijack_prefix": str(cfg.hijack_prefix),
                    },
                    config=self.artemis.config,
                )
                self.recorder.attach_all(
                    self.artemis.sources,
                    prefixes=self.artemis.config.monitored_prefixes,
                )
            self.run_phase1()
        network, engine = self.network, self.network.engine
        result = ExperimentResult()
        result.seed = cfg.seed
        result.prefix = cfg.prefix
        result.victim_asn = self.victim.asn
        result.hijacker_asn = self.hijacker.asn

        # Phase-2: hijack and detection.
        wall_mark = time.perf_counter()
        hijack_time = engine.now
        result.hijack_time = hijack_time
        if cfg.world_seed is not None:
            self._reseed_for_run(cfg.seed)
        if self.injector is not None:
            # Fault times are relative to the hijack; arming first gives
            # at=0 faults an earlier event sequence than the announcement,
            # so "dead from the very start" means exactly that.
            self.injector.arm(hijack_time)
        if self.corroborator is not None:
            # Attached only now: phase 1's legitimate convergence churn is
            # exactly the "data plane in flux" state the probe flags.
            self.artemis.detection.attach_corroborator(self.corroborator)
        if cfg.hijack_type == "route-leak":
            # A real multihomed stub re-exports its learned route to all
            # its providers; they prefer the customer route and spread it.
            leaker = self.network.speaker(self.leaker_asn)
            route = leaker.resolve(cfg.hijack_prefix)
            if route is None or not route.as_path:
                raise ExperimentError(
                    f"leaker AS{self.leaker_asn} has no route to leak for "
                    f"{cfg.hijack_prefix}"
                )
            leaker.originate_forged(cfg.hijack_prefix, tuple(route.as_path))
            result.hijacker_asn = self.leaker_asn
        elif cfg.forge_origin:
            # Type-N (N ≥ 1) / type-U: forge a path tail ending at the
            # victim so origin checks pass.
            self.hijacker.announce_forged(cfg.hijack_prefix, self._forged_suffix())
        else:
            # Type-0 origin hijack — or squatting, where the "hijack
            # prefix" is the owned-but-unannounced sibling block.
            self.hijacker.announce(cfg.hijack_prefix)
        detected = self._run_until(
            lambda: bool(self.artemis.alerts), cfg.detection_timeout
        )
        if detected:
            alert = self.artemis.alerts[0]
            result.detection_delay = alert.detected_at - hijack_time
            result.alert_type = alert.type.value
            result.per_source_delay = self.artemis.detection.per_source_delay(
                alert, hijack_time
            )
            result.sources_live_at_alert = list(
                self.artemis.detection.live_at_alert.get(alert.id, ())
            )

        now_wall = time.perf_counter()
        self.phase_walls["phase2"] = now_wall - wall_mark
        wall_mark = now_wall

        # Phase-3: mitigation (already triggered by the alert callback when
        # auto-mitigation is on) and recovery.  For forged-path classes
        # (type-N/type-U/route-leak) the origin never changes, so recovery
        # is judged by the path tracker instead: every AS's path must
        # avoid the offender.  For squatting, recovery is the owner taking
        # over the squatted block (judged by the squat tracker).
        forged = self.path_tracker is not None and (
            cfg.forge_origin or cfg.hijack_type == "route-leak"
        )
        if cfg.hijack_type == "squatting" and self.squat_tracker is not None:
            completion_tracker = self.squat_tracker
            accepted = {self.victim.asn}
        elif forged:
            completion_tracker = self.path_tracker
            accepted = {False}
        else:
            completion_tracker = self.tracker
            accepted = {self.victim.asn}
        helpers = self.artemis.mitigation.helpers
        if not forged and helpers is not None:
            # Helper-origin routes deliver traffic to the victim by tunnel.
            accepted |= set(helpers.helper_asns)
        # ARTEMIS has acted by the time the alert callback returns; a human
        # operator has not, so wait for the action to exist before reading it.
        mitigating = detected and cfg.auto_mitigate and self._run_until(
            lambda: bool(self.artemis.actions), cfg.completion_timeout
        )
        if mitigating:
            action = self.artemis.actions[0]
            self._run_until(
                lambda: action.announced_at is not None, cfg.completion_timeout
            )
            if action.announced_at is not None:
                result.announce_delay = action.announced_at - alert.detected_at
            result.strategy = action.strategy
            recovered = self._run_until_routing(
                accepted,
                cfg.completion_timeout
                if action.expected_full_recovery
                else cfg.observation_window,
                tracker=completion_tracker,
            )
            if recovered:
                completion = completion_tracker.first_time_all_route_to(
                    accepted, since=action.announced_at or hijack_time
                )
                if completion is not None:
                    result.completion_delay = completion - (
                        action.announced_at or hijack_time
                    )
                    result.total_time = completion - hijack_time
                    result.mitigated = True
                    alert.resolve(completion)
                    self.artemis.log.record_resolution(alert)
            else:
                # Partial recovery (e.g. the /24 case): observe a bit longer
                # so the residual fraction is post-convergence.
                network.run_for(cfg.observation_window / 2)
        else:
            # No (auto-)mitigation: just observe the hijack's spread.
            network.run_for(cfg.observation_window)

        # Let the feeds flush so the monitoring view also ends clean.
        network.run_for(cfg.monitor_grace)

        # Adoption statistics from the ground-truth flip log.  "any" mode:
        # an AS counts as affected when any probe routes to (or via, for
        # forged paths) the hijacker — a sub-prefix hijack steals only part
        # of the owned space.
        adoption_accepted = {True} if forged else {result.hijacker_asn}
        hijacker_series = completion_tracker.fraction_series(
            adoption_accepted, start_time=hijack_time, mode="any"
        )
        result.hijack_fraction_peak = max(
            (fraction for _t, fraction in hijacker_series), default=0.0
        )
        result.residual_hijack_fraction = (
            hijacker_series[-1][1] if hijacker_series else 0.0
        )
        # Start the series an instant before the hijack so the first point
        # shows the clean phase-1 state (the hijacker's own flip lands at
        # exactly hijack_time).
        just_before = math.nextafter(hijack_time, -math.inf)
        result.ground_truth_series = completion_tracker.fraction_series(
            accepted, start_time=just_before
        )
        result.monitor_series = self.artemis.monitoring.fraction_series(cfg.prefix)
        result.lg_queries = self.monitors.periscope.queries_sent
        result.feed_events_checked = self.artemis.detection.events_checked
        result.source_report = self.supervisor.report()
        result.source_lag = self.artemis.monitoring.mean_lag_by_source()
        if detected:
            # Re-read the evidence table now that the slower feeds flushed:
            # the alert-time snapshot above only has the sources that had
            # already reported when the alert fired.
            result.per_source_delay_final = self.artemis.detection.per_source_delay(
                alert, hijack_time
            )
        if self.injector is not None:
            result.faults_injected = self.injector.faults_applied
            result.fault_log = [list(entry) for entry in self.injector.log]
        if self.recorder is not None:
            # Seal the trace; the footer pins the hijack instant so a replay
            # can re-derive detection delays against the same reference.
            self.recorder.close(
                meta={"hijack_time": hijack_time, "end_time": engine.now}
            )
        self.phase_walls["phase3"] = time.perf_counter() - wall_mark
        result.phase_walls = dict(self.phase_walls)
        return result
