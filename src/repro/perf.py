"""Process-wide performance counters for the simulation hot path.

The reproduction suites run hundreds of full experiments, so the substrate
(engine dispatch, speaker flushes, prefix/path object churn) must stay
measurably cheap.  This module is the measurement: a single module-global
:class:`PerfCounters` instance (:data:`COUNTERS`) that the hot paths bump
with plain integer adds — cheap enough to leave enabled unconditionally.

:data:`METRICS` declares every metric once: its name, how it merges across
processes, the layer that owns it and what it measures.  ``repro.cli
--profile`` prints :func:`format_profile` on exit, grouped by layer, and
``--profile-json`` writes :meth:`PerfCounters.as_dict`.  Two callers fold
worker snapshots into the parent by each metric's ``merge``: the parallel
suite pool and ``ParallelDetectionPlane.finish``.

Two context managers keep CPython's cyclic collector off bulk allocation
that frees nothing cyclic: :func:`collector_paused` defers collection
across an engine drain or a trace load, and :func:`collector_handed_off`
also files a ground-truth compile's objects in the oldest generation.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple


class Metric(NamedTuple):
    """One declared metric.  Units sit in the name's suffix (``_ns``,
    ``_bytes``, ``_kb``); a bare name counts things."""

    name: str
    #: ``"sum"``: a counter, whose worker deltas add.  ``"max"``: a gauge,
    #: a sampled level whose worker values max-fold (a peak summed across
    #: processes would be meaningless).
    merge: str
    layer: str
    meaning: str


#: Every metric on :data:`COUNTERS`, grouped by layer in display order.
METRICS: Tuple[Metric, ...] = (
    Metric("events_scheduled", "sum", "engine", "events pushed on the heap"),
    Metric("events_processed", "sum", "engine", "events dispatched"),
    Metric("events_cancelled", "sum", "engine", "queued events cancelled (tombstoned)"),
    Metric("updates_processed", "sum", "bgp", "UPDATE messages handled by speakers"),
    Metric("flushes_run", "sum", "bgp", "MRAI flushes executed"),
    Metric("announcements_built", "sum", "bgp", "export announcements constructed"),
    Metric("announcements_reused", "sum", "bgp",
           "export announcements shared per Loc-RIB change"),
    Metric("dirty_marks_skipped", "sum", "bgp",
           "exports skipped: policy can never send to that peer"),
    Metric("decision_fast_path", "sum", "bgp", "incremental decision-process runs"),
    Metric("decision_full_scans", "sum", "bgp", "full decision-process rescans"),
    Metric("deliveries_direct", "sum", "bgp", "allocation-free session deliveries"),
    Metric("path_intern_hits", "sum", "interning", "AS-path tuple intern table hits"),
    Metric("path_intern_misses", "sum", "interning",
           "AS-path tuple intern table misses"),
    Metric("prefix_parse_hits", "sum", "interning", "prefix parse cache hits"),
    Metric("prefix_parse_misses", "sum", "interning", "prefix parse cache misses"),
    Metric("path_parse_hits", "sum", "interning",
           "record decoder AS-path spelling hits"),
    Metric("path_parse_misses", "sum", "interning",
           "record decoder AS-path spelling misses"),
    Metric("path_cache_size", "max", "interning", "AS-path intern table population"),
    Metric("prefix_cache_size", "max", "interning", "prefix parse cache population"),
    Metric("checkpoint_restores", "sum", "checkpoint",
           "warm-start checkpoint restores"),
    Metric("checkpoint_bytes", "max", "checkpoint", "serialized checkpoint size"),
    Metric("replay_events_dropped", "sum", "replay",
           "trace records dropped by the fault plan"),
    Metric("pipeline_events_ingested", "sum", "tenants",
           "events staged by the detection plane"),
    Metric("pipeline_batches", "sum", "tenants", "batches drained"),
    Metric("pipeline_trie_walks", "sum", "tenants",
           "FlatPrefixTree.resolve calls (the name predates the table)"),
    Metric("pipeline_backpressure_stalls", "sum", "tenants",
           "full ingest queue forcing an inline drain"),
    Metric("notifier_alerts_emitted", "sum", "tenants", "notifications delivered"),
    Metric("notifier_alerts_dropped", "sum", "tenants",
           "oldest notifications dropped on overflow"),
    Metric("autoignore_suppressed", "sum", "tenants",
           "incidents withheld pending vantage corroboration"),
    Metric("duplicate_evidence_skipped", "sum", "tenants",
           "byte-identical duplicate deliveries barred from founding"),
    Metric("detect_events_routed", "sum", "tenants",
           "trace lines routed to detection workers"),
    Metric("detect_worker_batches", "sum", "tenants",
           "epoch-stamped shipments a worker received"),
    Metric("events_malformed", "sum", "tenants",
           "damaged trace lines dropped by the router"),
    Metric("verdict_cache_hits", "sum", "tenants",
           "announcements the verdict cache answered"),
    Metric("verdict_cache_misses", "sum", "tenants",
           "keys judged afresh (table lookup + rule ladder)"),
    Metric("verdict_cache_evictions", "sum", "tenants",
           "FIFO verdict-cache evictions past the bound"),
    Metric("pipeline_queue_depth_peak", "max", "tenants",
           "ingest queue high-water mark"),
    Metric("notifier_queue_depth_peak", "max", "tenants",
           "notifier queue high-water mark"),
    Metric("detection_state_entries", "max", "tenants",
           "per-incident bookkeeping entries"),
    Metric("tree_bytes", "max", "tenants", "tenant prefix table resident bytes"),
    Metric("frames_sent", "sum", "frames", "byte frames shipped down worker pipes"),
    Metric("frames_bytes", "sum", "frames", "bytes of those frames"),
    Metric("pipe_send_wait_ns", "sum", "pipes",
           "parent blocked writing to a worker pipe"),
    Metric("pipe_recv_wait_ns", "sum", "pipes",
           "detection workers blocked waiting for a frame"),
    Metric("peak_rss_kb", "max", "memory", "process peak RSS"),
)


class PerfCounters:
    """One integer slot per metric in :data:`METRICS`: counters only grow
    within a run, gauges hold a sampled level or peak.

    Hot paths increment attributes directly (``COUNTERS.events_scheduled +=
    1``); everything else — snapshots, merging worker processes, derived
    ratios — lives here so the increment itself stays one bytecode-cheap
    integer add.
    """

    __slots__ = tuple(metric.name for metric in METRICS)

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every metric (start of a profiled run)."""
        for metric in METRICS:
            setattr(self, metric.name, 0)

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot (picklable; what workers send back)."""
        return {metric.name: getattr(self, metric.name) for metric in METRICS}

    def merge(self, snapshot: Mapping[str, int]) -> None:
        """Fold a worker-process snapshot into this instance by each
        metric's ``merge``; names not in :data:`METRICS` are ignored."""
        for name, merge, _layer, _meaning in METRICS:
            if name in snapshot:
                value = int(snapshot[name])
                mine = getattr(self, name)
                value = mine + value if merge == "sum" else max(mine, value)
                setattr(self, name, value)

    def delta_since(self, before: Mapping[str, int]) -> Dict[str, int]:
        """What a worker sends home: counter deltas, gauge current values.

        Subtracting a gauge would turn "peak RSS 80 MB" into a nonsense
        difference, so gauges pass through as-is and the parent's
        :meth:`merge` max-folds them.
        """
        return {
            name: getattr(self, name) - int(before.get(name, 0))
            if merge == "sum"
            else getattr(self, name)
            for name, merge, _layer, _meaning in METRICS
        }

    # ------------------------------------------------------------ derived

    @property
    def tombstone_ratio(self) -> float:
        """Fraction of scheduled events that were cancelled before firing."""
        if self.events_scheduled == 0:
            return 0.0
        return self.events_cancelled / self.events_scheduled

    @property
    def verdict_cache_hit_ratio(self) -> float:
        """Fraction of judged announcements the verdict cache answered."""
        lookups = self.verdict_cache_hits + self.verdict_cache_misses
        return self.verdict_cache_hits / lookups if lookups else 0.0

    @property
    def allocations_avoided(self) -> int:
        """Objects the caches saved: shared announcements + interning hits."""
        return (
            self.announcements_reused
            + self.path_intern_hits
            + self.prefix_parse_hits
            + self.path_parse_hits
            + self.dirty_marks_skipped
        )

    def __repr__(self) -> str:
        return (
            f"<PerfCounters events={self.events_processed} "
            f"updates={self.updates_processed} "
            f"avoided={self.allocations_avoided}>"
        )


#: The process-wide counter instance every hot path increments.
COUNTERS = PerfCounters()


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic collector across an acyclic allocation burst.

    An engine drain or a trace load allocates up to millions of container
    objects (routes, rows, event handles, feed events) and frees them by
    reference count alone — none sit in cycles — so every generation
    sweep the allocation counters trigger walks a growing heap and frees
    nothing.  Collection is only deferred: the caller's prior state is
    restored on the way out, whether the block returns or raises, and
    entering while already paused (a nested drain, or a caller that
    disabled ``gc`` itself) changes nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextlib.contextmanager
def collector_handed_off() -> Iterator[None]:
    """:func:`collector_paused` over a bulk compile of long-lived, acyclic
    ground truth; on a normal exit ``gc.freeze()`` then ``gc.unfreeze()``
    move everything built to the oldest generation without a traversal, so
    no young collection is owed when the collector resumes.

    A heap already frozen (the worker plane's pre-fork freeze,
    ``pin_checkpoints``) stays frozen: then, and when the block raises,
    this resumes exactly as :func:`collector_paused` does.  Never wrap a
    live simulated world: it is cyclic, and in the oldest generation a
    dropped one waits for full collections that may not come.
    """
    frozen = gc.get_freeze_count()
    with collector_paused():
        yield
        if not frozen:
            gc.freeze()
            gc.unfreeze()


def sample_memory() -> None:
    """Refresh the memory gauges on :data:`COUNTERS` (monotone per process).

    Called at profile-report time and before a worker ships its snapshot
    home.  Late imports keep this module dependency-free for the hot paths
    that import it; ``resource`` is Unix-only, so its absence simply leaves
    the RSS gauge at zero.
    """
    c = COUNTERS
    try:
        import resource

        # ru_maxrss is KB on Linux (bytes on macOS — close enough for a
        # monotone gauge; the suites run on Linux).
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if peak > c.peak_rss_kb:
            c.peak_rss_kb = int(peak)
    except ImportError:  # pragma: no cover - non-Unix
        pass
    from repro.bgp.messages import _PATH_CACHE
    from repro.net.prefix import _PARSE_CACHE

    if len(_PATH_CACHE) > c.path_cache_size:
        c.path_cache_size = len(_PATH_CACHE)
    if len(_PARSE_CACHE) > c.prefix_cache_size:
        c.prefix_cache_size = len(_PARSE_CACHE)


def profile_rows(wall_seconds: Optional[float] = None) -> List[Tuple[str, str]]:
    """(name, value) rows for the ``--profile`` table: each layer of
    :data:`METRICS` as a heading row (empty value) over its metrics, then
    the derived stats."""
    sample_memory()
    c = COUNTERS
    rows: List[Tuple[str, str]] = []
    layer = None
    for metric in METRICS:
        if metric.layer != layer:
            layer = metric.layer
            rows.append((layer, ""))
        rows.append((metric.name.replace("_", " "), str(getattr(c, metric.name))))
    rows.append(("derived", ""))
    rows.append(("allocations avoided", str(c.allocations_avoided)))
    rows.append(("queue tombstone ratio", f"{c.tombstone_ratio:.4f}"))
    if wall_seconds is not None and wall_seconds > 0:
        rows.append(("wall time (s)", f"{wall_seconds:.3f}"))
        rows.append(("events / sec", f"{c.events_processed / wall_seconds:,.0f}"))
    return rows


def format_profile(wall_seconds: Optional[float] = None) -> str:
    """Render the perf-counter table printed by ``repro.cli --profile``."""
    rows = profile_rows(wall_seconds)
    width = max(len(name) for name, _value in rows)
    lines = ["perf counters", "-" * (width + 16)]
    for name, value in rows:
        lines.append(f"  {name:<{width}}  {value:>12}" if value else f"[{name}]")
    return "\n".join(lines)
