"""The detection engine: a batched, multi-tenant pipeline.

This is the only place announcements are judged.  The paper's single
operator is the one-tenant case (:func:`one_tenant_plane`: the tenant
``operator`` on a plane of batch size 1); a deployment protecting a
thousand operators is the same code with a bigger registry.  Dispatching
one callback per (event, tenant) pair would make the fan-out dominate such
a run, so :class:`DetectionPlane` is a throughput pipeline:

1. **ingest** — events land in a bounded queue (a deque); nothing is
   classified per event.  Recorded dump lines have an entry of their own
   (:meth:`DetectionPlane.ingest_lines`): the same batches, judged from the
   decoder's validated fields, with a :class:`FeedEvent` built only for a
   record that carries a verdict.
2. **classify** — when a batch's worth has accumulated (or on an explicit
   :meth:`flush`), the whole batch drains at once: **one prefix-table lookup
   per unique announced prefix per batch**, and one verdict computation per
   unique ``(prefix, as_path)`` pair (plus the vantage for single-hop
   paths, which the len-1 first-hop rule judges) — everything else is a
   cache hit.  BGP feeds are extremely repetitive (a churn flap delivers
   the same announcement from dozens of vantage points), and repetitive
   *across* batches too, so the verdict cache is **cross-batch**: a
   bounded FIFO dict keyed on ``(prefix.ikey, path[, vantage])`` that
   survives from one drain to the next and is invalidated wholesale when
   the tree's epoch moves (a tenant onboarded).  A steady-state
   feed converges to zero table lookups and zero rule-ladder runs per batch.
   With a data-plane ``corroborator`` probe attached the cache reverts to
   per-batch lifetime (cleared after every drain), because a probe's
   answer is time-dependent and may legitimately differ between batches;
   the probe, like the epoch, is part of the cache's identity, so
   attaching or swapping one never serves a verdict computed without it.
3. **alert** — verdicts feed per-tenant :class:`~repro.core.alerts.AlertManager`
   instances (incidents are keyed *per tenant*: the same offending
   announcement raises one incident for every tenant whose space it hits).
4. **notify** — new incidents that pass the tenant's autoignore visibility
   threshold enter a bounded notifier queue (oldest dropped on overflow,
   counted — alert *state* is never lost, only notification delivery).

Queue depths, backpressure stalls, memo hit rates and notifier drops are
all visible in :data:`repro.perf.COUNTERS`.

Determinism: batching never reorders events, per-tenant iteration is
sorted, and alert IDs restart per manager — so :func:`merged_alert_digest`
over the plane's incidents is bit-identical across batch sizes, and across
the ``--detect-workers`` partitioning (workers own disjoint prefix
subtrees, and the digest is computed over canonically sorted rows).
"""

from __future__ import annotations

import hashlib
from collections import deque
from itertools import chain, islice
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.alerts import AlertManager, AlertType, HijackAlert
from repro.core.config import ArtemisConfig
from repro.core.rules import classify_announcement, classify_squat
from repro.feeds.dumpfile import Record, decode_records
from repro.feeds.events import ANNOUNCE, FeedEvent, validated_event
from repro.perf import COUNTERS as _COUNTERS
from repro.tenants.registry import TenantRegistry, TenantRule

#: Events between opportunistic per-tenant state prune sweeps.
PRUNE_CHECK_INTERVAL = 4096

#: Event-time seconds a resolved incident's bookkeeping outlives its
#: cooldown before :meth:`DetectionPlane.prune_state` drops it.  The
#: window is deliberately generous: late evidence re-reads
#: (``per_source_delay_final`` at end of run) and the duplicate-delivery
#: founding gate both need the state for a while after resolution, but a
#: multi-hour soak must not accumulate one entry per incident forever.
STATE_RETENTION = 3600.0

#: One classification verdict: (rule, alert type, offender ASN).
Verdict = Tuple[TenantRule, AlertType, Optional[int]]

#: The one tenant of the paper's single-operator deployment.
OPERATOR = "operator"


class _TenantState:
    """Everything the plane tracks for one tenant."""

    __slots__ = (
        "alerts", "evidence_seen", "first_evidence", "held", "live_at_alert",
    )

    def __init__(self, cooldown: float):
        self.alerts = AlertManager(cooldown=cooldown)
        #: Per incident pattern: content keys of evidence already ingested.
        #: A duplicating transport (or a replayed trace under a ``dup``
        #: fault) can deliver the *byte-identical* event twice.  Copies are
        #: still kept on record as evidence while the incident accepts it
        #: (operators want every delivery on the books), but a copy never
        #: *founds* an incident: a duplicated-then-reordered copy surfacing
        #: after its original's alert was resolved (and past cooldown) must
        #: not resurrect the incident and re-fire operator callbacks.
        self.evidence_seen: Dict[Tuple, set] = {}
        #: Per alert id, per source: first evidence delivery time.  Keyed by
        #: the alert's unique id, not its dedup key: a pattern re-firing as
        #: a *new* alert after resolve + cooldown must not inherit the old
        #: incident's evidence times.
        self.first_evidence: Dict[int, Dict[str, float]] = {}
        #: Alert ids withheld from the notifier until enough distinct
        #: vantages have witnessed them (the autoignore gate).
        self.held: Dict[int, int] = {}
        #: Per alert id: the feed sources live at alert time, as recorded
        #: by the ``notify`` consumer; here to be counted and pruned too.
        self.live_at_alert: Dict[int, Tuple[str, ...]] = {}

    def per_source_delay(
        self, alert: HijackAlert, reference_time: float
    ) -> Dict[str, float]:
        """Detection delay each source achieved for ``alert``'s incident.

        ``reference_time`` is the ground-truth incident start (the hijack
        announcement time); sources that never reported it are absent.
        Because the sources are independent, the incident's detection delay
        is the minimum of these (paper §2; experiment E2 compares them).
        """
        per_source = self.first_evidence.get(alert.id, {})
        return {
            source: delivered - reference_time
            for source, delivered in sorted(per_source.items())
        }


def classify_batch_verdicts(
    matches: List[Tuple[TenantRule, bool]],
    prefix,
    path: Tuple[int, ...],
    vantage_asn: Optional[int],
    probe=None,
) -> Tuple[Verdict, ...]:
    """Pure verdict computation for one (prefix, path, vantage) key.

    Each matched tenant rule goes through the
    :func:`~repro.core.rules.classify_announcement` ladder; squat-space
    rows go through :func:`~repro.core.rules.classify_squat`.  ``probe``
    is the optional data-plane corroboration hook — it gates
    low-confidence verdicts and enables the type-U rule.
    """
    verdicts: List[Verdict] = []
    for rule, exact in matches:
        if rule.squat_space:
            verdict = classify_squat(path[-1], rule.legit_origins)
        else:
            policy = rule.policy
            verdict = classify_announcement(
                prefix,
                path,
                vantage_asn,
                exact,
                rule.legit_origins,
                rule.legit_upstreams,
                neighbors=policy.neighbors,
                leak_sentinels=policy.leak_sentinels,
                detect_subprefix=policy.detect_subprefix,
                detect_path=policy.detect_path,
                detect_unchanged_path=policy.detect_unchanged_path,
                probe=probe,
            )
        if verdict is not None:
            verdicts.append((rule, verdict[0], verdict[1]))
    return tuple(verdicts)


class DetectionPlane:
    """Batched multi-tenant detection over one shared prefix table."""

    def __init__(
        self,
        registry: TenantRegistry,
        tree=None,
        batch_size: int = 256,
        queue_capacity: int = 8192,
        notifier_capacity: int = 1024,
        notify: Optional[Callable[[str, HijackAlert], None]] = None,
        corroborator=None,
        verdict_cache_size: int = 65536,
    ):
        self.registry = registry
        #: The registry's own table, so a tenant onboarded later is judged
        #: too; ``tree`` substitutes a
        #: :class:`~repro.tenants.flattree.FlatPrefixTree` snapshot.
        self.tree = registry.tree if tree is None else tree
        # The table is built before a caller's counter reset (the CLI's
        # replay resets after the compile): report the one this plane reads.
        _COUNTERS.tree_bytes = max(_COUNTERS.tree_bytes, self.tree.nbytes())
        #: Optional data-plane corroboration probe shared by all tenants
        #: (``probe(prefix) -> bool``); evaluated at most once per memo key
        #: per batch, so verdicts within a batch stay memo-consistent.
        self.corroborator = corroborator
        self.batch_size = max(1, int(batch_size))
        #: Bound on the cross-batch verdict cache (oldest-inserted entries
        #: evicted beyond it, counted in ``verdict_cache_evictions``).
        self.verdict_cache_size = max(1, int(verdict_cache_size))
        self._verdict_cache: Dict[Tuple, Tuple[Verdict, ...]] = {}
        #: The cache's keys in insertion order — the FIFO eviction index.
        #: Asking the dict for its own first key instead is O(cache size):
        #: dicts keep dead slots until they resize, and every scan from
        #: the front walks them.  Cleared wherever the cache is.
        self._verdict_order: Deque[Tuple] = deque()
        self._cache_epoch = self.tree.epoch
        self._cache_probe = corroborator
        self.queue_capacity = max(1, int(queue_capacity))
        #: The depth at which ingest must drain: the batch boundary, or the
        #: queue bound if that is smaller (the backpressure configuration).
        self._drain_depth = min(self.batch_size, self.queue_capacity)
        self.notifier_capacity = max(1, int(notifier_capacity))
        #: Staged for the next drain: events from :meth:`ingest`, decoded
        #: records from :meth:`ingest_lines`.
        self._queue: Deque[Union[FeedEvent, Record]] = deque()
        self._notifications: Deque[Tuple[str, HijackAlert]] = deque()
        self._notify = notify
        self._states: Dict[str, _TenantState] = {}
        self.events_ingested = 0
        self.batches_drained = 0
        #: Byte-identical duplicate deliveries this plane detected
        #: (attached-or-dropped), one per tenant incident they hit.
        self.duplicate_events_skipped = 0
        #: Event-time retention for resolved-incident state.
        self.state_retention = STATE_RETENTION
        self._events_since_prune = 0
        self.entries_pruned = 0
        self._last_event_time = 0.0

    # ---------------------------------------------------------------- ingest

    def ingest(self, event: FeedEvent) -> None:
        """Stage one event; drains automatically at a batch boundary.

        The live-feed entry: simulator feeds deliver objects, and no line
        exists.  Per-event work here is the floor of the whole plane's
        throughput, so the off-boundary path is one append, one counter,
        and one compare.  The queue only grows between drains, so its depth
        peaks exactly when a drain triggers — the peak gauge is maintained
        in :meth:`_drain`, not per event.
        """
        queue = self._queue
        queue.append(event)
        self.events_ingested += 1
        _COUNTERS.pipeline_events_ingested += 1
        if len(queue) >= self._drain_depth:
            self._drain()

    __call__ = ingest

    def ingest_lines(self, lines: Iterable[str]) -> None:
        """Stage recorded dump lines: ``ingest(parse_event(line))`` per line.

        The replay entry.  Batch boundaries, prune cadence, the per-batch
        lookup memo, epoch/probe invalidation and every counter are those of
        the one-line-at-a-time spelling, however the lines are cut into
        calls.  What differs is the order of work: a whole batch goes from
        decoded fields straight to its verdicts, and only a record that
        carries one becomes a :class:`FeedEvent` — a feed is almost entirely
        benign, and a benign record needs neither the object nor the queue.
        Lines that do not fill a batch wait in the queue as validated
        records.  A malformed line raises the decoder's
        :class:`~repro.errors.FeedError` and ends the replay: its batch is
        left part-judged, the rest of ``lines`` unread.
        """
        lines = iter(lines)
        queue = self._queue
        while True:
            room = self._drain_depth - len(queue)
            block = list(islice(lines, room))
            self.events_ingested += len(block)
            _COUNTERS.pipeline_events_ingested += len(block)
            if len(block) < room:
                queue.extend(decode_records(block))
                return
            self._drain(block)

    def flush(self) -> None:
        """Drain any partial batch (end of stream)."""
        if self._queue:
            self._drain()

    # -------------------------------------------------------------- classify

    def _drain(self, lines: Sequence[str] = ()) -> None:
        """Judge one batch: what is queued, then ``lines``' records."""
        queue = self._queue
        self.batches_drained += 1
        counters = _COUNTERS
        counters.pipeline_batches += 1
        depth = len(queue) + len(lines)
        if depth > counters.pipeline_queue_depth_peak:
            counters.pipeline_queue_depth_peak = depth
        if depth >= self.queue_capacity:
            # The queue hit its bound before the batch filled: the
            # producer outran the configured batch cadence, so it was
            # stalled with an inline drain rather than grow without limit.
            counters.pipeline_backpressure_stalls += 1
        resolve = self.tree.resolve
        cache = self._verdict_cache
        order = self._verdict_order
        tree_epoch = self.tree.epoch
        probe = self.corroborator
        if tree_epoch != self._cache_epoch or probe is not self._cache_probe:
            # A rule mutation, or a probe attached or swapped, invalidates
            # every cached verdict at once: epoch and probe are part of the
            # cache's identity, not of each key.
            cache.clear()
            order.clear()
            self._cache_epoch = tree_epoch
            self._cache_probe = probe
        per_batch_probe = probe is not None
        cache_bound = self.verdict_cache_size
        cache_get = cache.get
        walks: Dict = {}
        walks_get = walks.get
        apply_verdict = self._apply
        last_event_time = self._last_event_time
        hits = 0
        # One loop judges both shapes — an event that was queued, a record
        # the decoder just validated — so there is one verdict lookup.  The
        # queue is emptied first: a consumer's callback may ingest.
        batch = list(queue)
        queue.clear()
        for item in chain(batch, decode_records(lines) if lines else ()):
            if type(item) is tuple:
                event = None
                (_, _, vantage_asn, kind), prefix, path, _, delivered_at = item
            else:
                event = item
                kind = event.kind
                prefix = event.prefix
                path = event.as_path
                vantage_asn = event.vantage_asn
                delivered_at = event.delivered_at
            if kind != ANNOUNCE:
                continue
            last_event_time = delivered_at
            # The rule ladder inspects the whole path, so the cache key is
            # (prefix, path); the vantage only matters for single-hop paths
            # (the len-1 first-hop rule), so it joins the key only there —
            # multi-hop repeats across vantage points stay cache hits.
            # ``Prefix.ikey`` stands in for the prefix object: one int,
            # unique per (version, value, length), hashed at C speed.
            ikey = prefix.ikey
            if len(path) >= 2:
                memo_key = (ikey, path)
            else:
                memo_key = (ikey, path, vantage_asn)
            verdicts = cache_get(memo_key)
            if verdicts is None:
                matches = walks_get(ikey)
                if matches is None:
                    matches = resolve(prefix)
                    walks[ikey] = matches
                verdicts = classify_batch_verdicts(
                    matches, prefix, path, vantage_asn, probe=probe,
                )
                cache[memo_key] = verdicts
                counters.verdict_cache_misses += 1
                if not per_batch_probe:
                    order.append(memo_key)
                    if len(cache) > cache_bound:
                        # FIFO eviction: the oldest verdict in is the
                        # first key out.
                        del cache[order.popleft()]
                        counters.verdict_cache_evictions += 1
            else:
                hits += 1
            if verdicts:
                if event is None:
                    event = validated_event(item)
                for verdict in verdicts:
                    apply_verdict(verdict, event)
        self._last_event_time = last_event_time
        counters.verdict_cache_hits += hits
        if per_batch_probe:
            # A probe's answer is time-dependent, so probed verdicts only
            # live for the batch that computed them (the original memo
            # contract); steady-state caching is for the pure ladder.
            cache.clear()
            order.clear()
        self._maybe_prune(depth)
        self._drain_notifier()

    def _apply(self, verdict: Verdict, event: FeedEvent) -> None:
        """Feed one verdict into its tenant's alert state (stage 3)."""
        rule, alert_type, offender = verdict
        policy = rule.policy
        state = self.tenant_state(policy.tenant)
        pattern = (alert_type, rule.prefix, event.prefix, offender)
        seen = state.evidence_seen.setdefault(pattern, set())
        content = event.content_key()
        duplicate = content in seen
        if duplicate:
            self.duplicate_events_skipped += 1
            _COUNTERS.duplicate_evidence_skipped += 1
        else:
            seen.add(content)
        alert, is_new = state.alerts.ingest(
            alert_type, rule.prefix, event.prefix, offender, event,
            allow_new=not duplicate,
        )
        if alert is None:
            return
        per_source = state.first_evidence.setdefault(alert.id, {})
        if event.source not in per_source:
            per_source[event.source] = event.delivered_at
        if is_new:
            if policy.autoignore_visibility > 1:
                # Withhold the notification until enough distinct vantage
                # ASes corroborate; the incident itself is already on the
                # books (digests and state are unaffected).
                state.held[alert.id] = policy.autoignore_visibility
                _COUNTERS.autoignore_suppressed += 1
            else:
                self._enqueue_notification(policy.tenant, alert)
        elif state.held:
            threshold = state.held.get(alert.id)
            if (
                threshold is not None
                and len(alert.witness_vantages) >= threshold
            ):
                del state.held[alert.id]
                self._enqueue_notification(policy.tenant, alert)

    # ---------------------------------------------------------------- notify

    def _enqueue_notification(self, tenant: str, alert: HijackAlert) -> None:
        queue = self._notifications
        if len(queue) >= self.notifier_capacity:
            queue.popleft()
            _COUNTERS.notifier_alerts_dropped += 1
        queue.append((tenant, alert))
        depth = len(queue)
        if depth > _COUNTERS.notifier_queue_depth_peak:
            _COUNTERS.notifier_queue_depth_peak = depth

    def _drain_notifier(self) -> None:
        """Deliver queued notifications to the callback, if one is set."""
        if self._notify is None:
            return
        while self._notifications:
            tenant, alert = self._notifications.popleft()
            self._notify(tenant, alert)
            _COUNTERS.notifier_alerts_emitted += 1

    def drain_notifications(self) -> List[Tuple[str, HijackAlert]]:
        """Pop all pending (tenant, alert) notifications (pull-mode use)."""
        out = list(self._notifications)
        self._notifications.clear()
        _COUNTERS.notifier_alerts_emitted += len(out)
        return out

    # -------------------------------------------------------- state bounding

    def detection_state_entries(self) -> int:
        """Per-incident bookkeeping entries across all tenants."""
        return sum(
            len(s.first_evidence) + len(s.evidence_seen) + len(s.held)
            + len(s.live_at_alert)
            for s in self._states.values()
        )

    def _maybe_prune(self, drained: int) -> None:
        self._events_since_prune += drained
        if self._events_since_prune >= PRUNE_CHECK_INTERVAL:
            self._events_since_prune = 0
            self.prune_state(self._last_event_time)

    def prune_state(self, now: Optional[float] = None) -> int:
        """Drop bookkeeping for incidents resolved long before ``now``
        (by default the delivery time of the last announcement judged).

        Left alone, the per-tenant tables hold one entry per incident
        forever.  An entry expires once its incident has been resolved for
        more than ``cooldown + state_retention`` event-time seconds (the
        incident may still be revived by evidence inside the cooldown; see
        :data:`STATE_RETENTION` for the rest).  Returns the number of
        entries dropped; refreshes the ``detection_state_entries`` peak
        gauge either way.
        """
        if now is None:
            now = self._last_event_time
        entries = self.detection_state_entries()
        if entries > _COUNTERS.detection_state_entries:
            _COUNTERS.detection_state_entries = entries
        dropped = 0
        for state in self._states.values():
            horizon = state.alerts.cooldown + self.state_retention

            def expired(alert: Optional[HijackAlert]) -> bool:
                return (
                    alert is not None
                    and alert.resolved_at is not None
                    and now - alert.resolved_at > horizon
                )

            by_id = {a.id: a for a in state.alerts.alerts}
            for table in (state.first_evidence, state.held, state.live_at_alert):
                for alert_id in [i for i in table if expired(by_id.get(i))]:
                    del table[alert_id]
                    dropped += 1
            stale = [
                pattern
                for pattern in state.evidence_seen
                if expired(state.alerts.incident_for(pattern))
            ]
            for pattern in stale:
                del state.evidence_seen[pattern]
                dropped += 1
        self.entries_pruned += dropped
        return dropped

    # ----------------------------------------------------------------- state

    def tenant_state(self, tenant: str) -> _TenantState:
        """``tenant``'s alert state, created on first request — so a
        consumer can hold its (still empty) tables before any verdict."""
        state = self._states.get(tenant)
        if state is None:
            state = _TenantState(cooldown=self.registry.cooldown_for(tenant))
            self._states[tenant] = state
        return state

    def alert_managers(self) -> Dict[str, AlertManager]:
        """Per-tenant alert managers, for digesting and inspection."""
        return {name: state.alerts for name, state in self._states.items()}

    def total_alerts(self) -> int:
        return sum(len(s.alerts) for s in self._states.values())

    def incident_rows(self) -> List[Tuple]:
        """Canonical rows for :func:`merged_alert_digest` (plain tuples)."""
        return incident_rows(self.alert_managers())

    def digest(self) -> str:
        return merged_alert_digest(self.incident_rows())

    def __repr__(self) -> str:
        return (
            f"<DetectionPlane tenants={len(self.registry)} "
            f"ingested={self.events_ingested} batches={self.batches_drained} "
            f"alerts={self.total_alerts()}>"
        )


def _discard(_tenant: str, _alert: HijackAlert) -> None:
    """A listener-less one-tenant plane's ``notify``: drops each notification."""


def one_tenant_plane(
    config: ArtemisConfig,
    notify: Optional[Callable[[str, HijackAlert], None]] = None,
) -> DetectionPlane:
    """The single-operator detection plane: ``config`` compiled as the one
    tenant :data:`OPERATOR`, judged at batch size 1.

    Each event is therefore judged, and a new incident's ``notify(tenant,
    alert)`` run, before :meth:`DetectionPlane.ingest` returns — automatic
    mitigation relies on that synchrony.  With no ``notify`` the notifier
    still drains, into nothing, instead of filling and counting drops.
    """
    registry = TenantRegistry()
    registry.add_tenant(OPERATOR, config)
    return DetectionPlane(registry, batch_size=1, notify=notify or _discard)


# ------------------------------------------------------------------ digests


def incident_rows(managers: Dict[str, AlertManager]) -> List[Tuple]:
    """Canonical, sorted, plain-tuple incident rows for digesting.

    Works for any per-tenant manager mapping — one plane's, or rows merged
    back from ``--detect-workers`` processes.  One row per tenant and incident
    pattern (type, owned prefix, announced prefix, offender): a resolve
    followed by fresh evidence of the same pattern splits it into a second
    alert object, and that bookkeeping must not move the digest — a replay
    that never resolves folds the same evidence into one object.  The row
    keeps the first object's ``detected_at`` and ``first_source`` and
    holds every object's evidence.  Alert IDs are deliberately excluded:
    they are per-manager counters and differ across worker partitionings.
    """
    rows: List[Tuple] = []
    for tenant in sorted(managers):
        incidents: Dict[Tuple, Tuple[float, str, List[Tuple]]] = {}
        for alert in managers[tenant].alerts:
            pattern = (
                tenant,
                alert.type.value,
                str(alert.owned_prefix),
                str(alert.announced_prefix),
                -1 if alert.offender_asn is None else alert.offender_asn,
            )
            incident = incidents.get(pattern)
            if incident is None:
                incident = incidents[pattern] = (
                    alert.detected_at, alert.first_source, []
                )
            incident[2].extend(
                (
                    e.source,
                    e.collector,
                    e.vantage_asn,
                    e.kind,
                    str(e.prefix),
                    e.as_path,
                    e.observed_at,
                    e.delivered_at,
                )
                for e in alert.evidence
            )
        rows.extend(
            pattern + (detected_at, first_source, tuple(sorted(evidence)))
            for pattern, (detected_at, first_source, evidence) in incidents.items()
        )
    rows.sort()
    return rows


def merged_alert_digest(rows: List[Tuple]) -> str:
    """SHA-256 over canonically sorted incident rows.

    Deterministic across batch sizes and worker counts: rows from disjoint
    worker partitions concatenate and re-sort to exactly the single-worker
    row list, so the digest is bit-identical by construction.
    """
    canonical = sorted(rows)
    return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()
