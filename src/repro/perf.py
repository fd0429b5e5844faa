"""Process-wide performance counters for the simulation hot path.

The reproduction suites run hundreds of full experiments, so the substrate
(engine dispatch, speaker flushes, prefix/path object churn) must stay
measurably cheap.  This module is the measurement: a single module-global
:class:`PerfCounters` instance (:data:`COUNTERS`) that the hot paths bump
with plain integer adds — cheap enough to leave enabled unconditionally.

What the counters capture:

* **engine** — events scheduled / processed / cancelled, tombstones purged
  from the heap, and queue compactions (the lazy-purge machinery);
* **bgp** — UPDATEs processed, flushes run, export announcements built vs
  reused (the per-Loc-RIB-change sharing), and dirty marks skipped because
  the policy can never export to that peer;
* **interning** — AS-path tuple, prefix-parse and AS-path-parse cache hit
  rates;
* **checkpointing** — restores performed and copy-on-write forks taken by
  restored speakers (how much of the shared checkpoint a run privatised);
* **trace replay** — records read and events delivered/dropped on the
  pure-ingest path (:mod:`repro.feeds.replay`), byte-identical duplicate
  deliveries flagged by detection (barred from founding incidents), and
  the peak pending-copy backlog gauge;
* **sharded propagation** — cross-shard messages/bytes exchanged between
  worker processes, sync-barrier stalls (windows a shard ran with nothing
  to do), windows executed, and the per-shard peak RSS gauge;
* **multi-tenant detection plane** — events ingested and batches drained by
  the :mod:`repro.tenants` pipeline, prefix-table lookups vs per-batch memo
  hits (the amortization ratio), backpressure stalls (a full ingest queue
  forcing an inline drain), notifier emissions/drops, autoignore
  suppressions, and the ``--detect-workers`` routing/batch counters, plus
  queue-depth peak gauges and the bounded detection-state entry gauge;
* **million-prefix tenant plane** — cross-batch verdict-cache hits and
  evictions, binary frames shipped to detection workers (count and
  bytes), malformed trace lines dropped by the parent-side router, and
  the tenant prefix table's resident-byte gauge (``tree_bytes``);
* **worker pipes** — nanoseconds the parent spent blocked sending to a
  worker and detection workers spent blocked waiting for a frame;
* **memory gauges** — peak RSS, intern-table populations and serialized
  checkpoint size, sampled with :func:`sample_memory` rather than bumped.

``repro.cli --profile`` prints :func:`format_profile` on exit; the parallel
suite runner merges worker snapshots back into the parent so the table also
covers multi-process runs.  Counter fields merge by summing; gauge fields
merge by taking the maximum (a peak RSS summed across workers would be
meaningless).
"""

from __future__ import annotations

import contextlib
import gc
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

#: Counter fields, in display order.
FIELDS: Tuple[str, ...] = (
    # engine
    "events_scheduled",
    "events_processed",
    "events_cancelled",
    "tombstones_purged",
    "queue_compactions",
    # bgp
    "updates_processed",
    "flushes_run",
    "announcements_built",
    "announcements_reused",
    "dirty_marks_skipped",
    "decision_fast_path",
    "decision_full_scans",
    "deliveries_direct",
    "snapshot_cache_hits",
    # interning
    "path_intern_hits",
    "path_intern_misses",
    "prefix_parse_hits",
    "prefix_parse_misses",
    "path_parse_hits",
    "path_parse_misses",
    # checkpointing
    "routes_created",
    "checkpoint_restores",
    "cow_row_forks",
    # trace replay (the pure-ingest path: no engine events here, so the
    # replay throughput headline needs its own counters)
    "replay_records_read",
    "replay_events_delivered",
    "replay_events_dropped",
    "duplicate_evidence_skipped",
    # sharded propagation (conservative-time windows across worker
    # processes; bumped by the coordinator and by each shard worker)
    "cross_shard_messages",
    "cross_shard_bytes",
    "sync_barrier_stalls",
    "shard_windows",
    # multi-tenant detection plane (repro.tenants: batched ingest pipeline,
    # shared prefix tree, notifier stage, and the --detect-workers fan-out)
    "pipeline_events_ingested",
    "pipeline_batches",
    "pipeline_trie_walks",
    "pipeline_memo_hits",
    "pipeline_backpressure_stalls",
    "notifier_alerts_emitted",
    "notifier_alerts_dropped",
    "autoignore_suppressed",
    "detect_events_routed",
    "detect_worker_batches",
    # million-prefix tenant plane (flat-array tree, cross-batch verdict
    # cache, and the zero-pickle binary frame transport)
    "verdict_cache_hits",
    "verdict_cache_misses",
    "verdict_cache_evictions",
    "frames_sent",
    "frames_bytes",
    "events_malformed",
    # worker pipes: nanoseconds blocked writing a message to a worker
    # (repro.proc.WorkerGroup.send) and, in a detection worker, waiting
    # for the next frame (summed across workers)
    "pipe_send_wait_ns",
    "pipe_recv_wait_ns",
)

#: Gauge fields: sampled point-in-time values, merged with ``max`` instead
#: of ``+`` across worker processes (see :func:`sample_memory`).
GAUGES: Tuple[str, ...] = (
    "peak_rss_kb",
    "path_cache_size",
    "prefix_cache_size",
    "checkpoint_bytes",
    "replay_backlog_peak",
    "shard_rss_peak_kb",
    "pipeline_queue_depth_peak",
    "notifier_queue_depth_peak",
    "detection_state_entries",
    "tree_bytes",
)


class PerfCounters:
    """A bag of monotonically increasing integer counters.

    Hot paths increment attributes directly (``COUNTERS.events_scheduled +=
    1``); everything else — snapshots, merging worker processes, derived
    ratios — lives here so the increment itself stays one bytecode-cheap
    integer add.
    """

    __slots__ = FIELDS + GAUGES

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter and gauge (start of a profiled run)."""
        for field in FIELDS:
            setattr(self, field, 0)
        for gauge in GAUGES:
            setattr(self, gauge, 0)

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot (picklable; what workers send back)."""
        snapshot = {field: getattr(self, field) for field in FIELDS}
        for gauge in GAUGES:
            snapshot[gauge] = getattr(self, gauge)
        return snapshot

    def merge(self, snapshot: Mapping[str, int]) -> None:
        """Fold a worker-process snapshot into this instance.

        Counters add; gauges take the max (peaks and table populations are
        per-process highs, not flows).
        """
        for field, value in snapshot.items():
            if field in FIELDS:
                setattr(self, field, getattr(self, field) + int(value))
            elif field in GAUGES:
                setattr(self, field, max(getattr(self, field), int(value)))

    def delta_since(self, before: Mapping[str, int]) -> Dict[str, int]:
        """What a worker sends home: counter deltas, gauge current values.

        Subtracting a gauge would turn "peak RSS 80 MB" into a nonsense
        difference, so gauges pass through as-is and the parent's
        :meth:`merge` max-folds them.
        """
        delta = {
            field: getattr(self, field) - int(before.get(field, 0))
            for field in FIELDS
        }
        for gauge in GAUGES:
            delta[gauge] = getattr(self, gauge)
        return delta

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

    def events_per_second(self, wall_seconds: float) -> Optional[float]:
        """Engine events dispatched per wall-clock second, if measurable."""
        if wall_seconds <= 0:
            return None
        return self.events_processed / wall_seconds

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
    """(name, value) rows for the ``--profile`` table, derived stats last."""
    sample_memory()
    c = COUNTERS
    rows: List[Tuple[str, str]] = [
        (field.replace("_", " "), str(getattr(c, field))) for field in FIELDS
    ]
    for gauge in GAUGES:
        rows.append((gauge.replace("_", " "), str(getattr(c, gauge))))
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
        lines.append(f"{name:<{width}}  {value:>12}")
    return "\n".join(lines)
