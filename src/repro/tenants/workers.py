"""Parallel detection workers: ``--detect-workers N``.

Scaling the batched plane past one core means partitioning the *prefix
space*, not the tenants: an incident's evidence is a set of announcements
of one prefix, so if every announcement of a given monitored subtree lands
on the same worker, each worker owns complete incidents and the merged
result is a plain concatenation — no cross-worker reconciliation, and the
merged digest is bit-identical to a single worker's by construction.

The partition unit is a **root**: a monitored prefix not covered by any
other monitored prefix.  ``start()`` takes the roots from one ascending walk
over the registry's own table (:attr:`TenantRegistry.tree`'s
:meth:`~repro.tenants.flattree.FlatPrefixTree.root_keys`, ints, no
``Prefix`` per root); root *i* in that order belongs to worker
``i % num_workers`` — deterministic for any worker count.  The router keeps
no table of its own: the least specific stored prefix covering an
announcement *is* its root (:meth:`~repro.tenants.flattree.FlatPrefixTree.root_key`,
one covering lookup of the registry's table), and a bisect into the root
keys gives its index.  Sub-prefix announcements inside a root land with it.

**Hand-off contract.**  Workers are forked (through
:class:`repro.proc.WorkerGroup`; fork is the only start method this module
has ever supported) with the registry as a plain ``Process`` argument —
under fork it is not pickled, the child simply keeps the parent's objects,
the registry's table included, copy-on-write.  No registry bytes cross a
pipe, and the router and every worker read one table.
Every worker holds the *whole* table, not just its partition; that is exact,
not approximate, because of the routing invariant above: a worker only
ever receives announcements under its own roots, a root is covered by no
other monitored prefix, and so every rule that can match such an
announcement sits under that same root — the other workers' rows are
never reached by any lookup.  Workers classify against the registry **as of
``start()``**: mutating it on the parent afterwards cannot reach them, so
the parent remembers the table's epoch at the fork and
``feed_line_bytes``/``finish`` raise :class:`TenantWorkerError` if it has
moved.

The parent stays out of the parse hot path: it reads the trace file in
**binary** (:func:`~repro.feeds.replay.iter_trace_line_bytes`, which
verifies the trace's version, record count and digest as it streams),
splits each raw record line once (``line.split(b"|", 8)``: exactly 8
parts, or the line is malformed), routes it by its prefix field (field 4
of the ``|``-separated dump format, never decoded) with a bytes memo, and
ships line batches down a pipe as
:mod:`~repro.tenants.frames` ``BATCH`` frames — no pickle anywhere on the
feed path.  Each worker hands a batch's lines to the line entry of its own
:class:`~repro.tenants.pipeline.DetectionPlane`
(:meth:`~repro.tenants.pipeline.DetectionPlane.ingest_lines`; the plane is
lazy per tenant, so constructing it over the inherited table costs nothing)
— decoding and validating a record is :mod:`repro.feeds.dumpfile`'s job
alone.  Frames go
down only (``BATCH``/``FINISH``/``STOP``); up, a worker answers ``FINISH``
once with :mod:`repro.proc`'s pickled ``("ok", result)`` /
``("error", message)`` pair, and who died, what a dead worker's last words
were and how the children are reaped is that module's contract, not this
one's.

Malformed record lines (wrong field count, unparsable prefix field) are
**dropped by the router** and counted in the ``events_malformed`` perf
counter — a damaged feed line costs one counter bump, not the run.
Batches carry a per-worker epoch stamp: a stale, duplicated, or reordered
batch is a protocol bug and kills the run, never a silent wrong answer.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError
from repro.feeds.replay import iter_trace_line_bytes
from repro.net.prefix import Prefix
from repro.perf import COUNTERS as _COUNTERS, sample_memory
from repro.tenants.frames import (
    FRAME_BATCH,
    FRAME_FINISH,
    FRAME_STOP,
    decode_batch_text,
    decode_frame,
    encode_batch,
    encode_frame,
)
from repro.tenants.pipeline import DetectionPlane, merged_alert_digest
from repro.tenants.registry import TenantRegistry


class TenantWorkerError(ReproError):
    """A detection worker died or broke the batch protocol."""


#: Routing-memo sentinel: this prefix field failed to parse (malformed
#: line); repeats of the same damaged field stay counted but cheap.
_MALFORMED = -3

#: Routing-memo bound; cleared wholesale when reached, exactly like
#: ``Prefix._PARSE_CACHE`` — a full-table or hostile feed must not grow
#: the parent without limit, and a cleared memo only costs re-parsing.
_ROUTE_MEMO_MAX = 65536


# ------------------------------------------------------------------ worker


def tenant_worker_main(
    worker_id: int,
    registry: TenantRegistry,
    batch_size: int,
    conn,
) -> None:
    """Entry point of one detection worker process.

    ``registry`` is the parent's own object, its table included, inherited
    at fork.  Down the pipe it reads :mod:`~repro.tenants.frames`: ``BATCH``
    frames carry epoch-stamped raw trace lines, ``FINISH`` is answered with
    ``("ok", result)``, ``STOP`` exits; any failure is answered with
    ``("error", repr(exc))`` — the :mod:`repro.proc` reply pair — and the
    worker dies.
    """
    _COUNTERS.reset()
    perf_mark = _COUNTERS.as_dict()
    cpu_mark = time.process_time()
    plane = DetectionPlane(registry, batch_size=batch_size)
    expected_epoch = 1
    while True:
        try:
            waited = time.perf_counter_ns()
            data = conn.recv_bytes()
        except EOFError:
            break
        _COUNTERS.pipe_recv_wait_ns += time.perf_counter_ns() - waited
        try:
            kind, epoch, body = decode_frame(data)
            if kind == FRAME_BATCH:
                if epoch != expected_epoch:
                    raise TenantWorkerError(
                        f"detect worker {worker_id}: batch epoch {epoch} "
                        f"arrived, expected {expected_epoch} — stale, "
                        "duplicated, or reordered shipment"
                    )
                expected_epoch += 1
                _COUNTERS.detect_worker_batches += 1
                plane.ingest_lines(decode_batch_text(body))
            elif kind == FRAME_FINISH:
                plane.flush()
                plane.prune_state()
                sample_memory()
                payload = {
                    "worker": worker_id,
                    "rows": plane.incident_rows(),
                    "alerts": plane.total_alerts(),
                    "events_ingested": plane.events_ingested,
                    "batches": plane.batches_drained,
                    "entries_pruned": plane.entries_pruned,
                    "perf": _COUNTERS.delta_since(perf_mark),
                    "cpu_seconds": time.process_time() - cpu_mark,
                }
                conn.send(("ok", payload))
            elif kind == FRAME_STOP:
                break
            else:
                raise TenantWorkerError(
                    f"detect worker {worker_id}: unknown frame kind "
                    f"0x{kind:02x}"
                )
        except BaseException as exc:  # noqa: BLE001 - report, then die
            try:
                conn.send(("error", repr(exc)))
            except OSError:  # the parent is gone too
                pass
            break
    conn.close()


# ------------------------------------------------------------------ parent


class ParallelDetectionPlane:
    """Route a recorded trace across N detection worker processes.

    Usage::

        plane = ParallelDetectionPlane(registry, num_workers=4)
        plane.start()
        plane.feed_trace(trace_path)     # or feed_lines(...)
        result = plane.finish()          # rows, digest, per-worker cpu

    Determinism: the routing partition depends only on the registry's
    monitored prefixes, and each incident's evidence lands whole on one
    worker, so ``result["digest"]`` equals the single-process
    :meth:`DetectionPlane.digest` for any ``num_workers``.
    """

    #: Record lines buffered per worker before a pipe shipment.
    LINES_PER_SHIPMENT = 4096

    def __init__(
        self,
        registry: TenantRegistry,
        num_workers: int,
        batch_size: int = 256,
    ):
        if num_workers < 1:
            raise ReproError("num_workers must be >= 1")
        self.registry = registry
        self.num_workers = int(num_workers)
        self.batch_size = int(batch_size)
        #: The partition: the registry table's root ``ikey`` ints in bit
        #: order, taken in :meth:`start`; root *i* goes to worker
        #: ``i % num_workers``.
        self._roots: List[int] = []
        #: prefix field (bytes) → worker id, ``None`` (unrouted), or
        #: :data:`_MALFORMED`.
        self._route_memo: Dict[bytes, Optional[int]] = {}
        self._buffers: List[List[bytes]] = [
            [] for _ in range(self.num_workers)
        ]
        self._epochs = [0] * self.num_workers
        #: The registry table's epoch when the workers were forked.
        self._fork_epoch = 0
        # Imported on use, as ``multiprocessing`` was before it: every
        # single-process run imports this package, and multiprocessing,
        # pickle and socket would cost each ≈0.9 MB of resident set.
        from repro.proc import WorkerGroup

        self._group = WorkerGroup("detect worker {}", TenantWorkerError)
        self.events_routed = 0
        self.events_unrouted = 0
        self.events_malformed = 0
        self.started = False
        self.finished = False

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Partition the registry's table and fork the workers.

        Routing and the workers read the registry as it stands here, so a
        tenant added between construction and here is routed too.
        """
        if self.started:
            return
        tree = self.registry.tree
        roots = tree.root_keys()
        if not roots:
            raise ReproError("registry has no monitored prefixes to partition")
        # Any later add_tenant moves the epoch: the stale-registry guard.
        self._fork_epoch = tree.epoch
        self._roots = roots
        # What the children are forked to share: frozen, no full collection
        # — here or in a worker, whenever CPython's thresholds next call for
        # one — walks it and dirties the copy-on-write pages it sits on.
        gc.freeze()
        for worker_id in range(self.num_workers):
            self._group.fork(
                tenant_worker_main,
                worker_id,
                self.registry,
                self.batch_size,
            )
        self.started = True

    def _check_registry_unmoved(self) -> None:
        """Workers hold the registry as of the fork; a later edit is lost."""
        epoch = self.registry.tree.epoch
        if epoch != self._fork_epoch:
            raise TenantWorkerError(
                f"registry changed after start(): workers were forked at "
                f"tree epoch {self._fork_epoch}, the registry is now at "
                f"epoch {epoch} — they cannot see the change"
            )

    # ------------------------------------------------------------- routing

    def _route_prefix(self, prefix_field: bytes) -> Optional[int]:
        """Find a never-seen prefix field's root; memoize its worker."""
        try:
            prefix = Prefix.parse(prefix_field.decode("ascii"))
        except (ValueError, UnicodeDecodeError):
            worker = _MALFORMED
        else:
            root = self.registry.tree.root_key(prefix)
            worker = (
                None if root is None
                else bisect_left(self._roots, root) % self.num_workers
            )
        memo = self._route_memo
        if len(memo) >= _ROUTE_MEMO_MAX:
            memo.clear()
        memo[prefix_field] = worker
        return worker

    def feed_line_bytes(self, lines: Iterable[bytes]) -> None:
        """Route raw record lines (bytes) to their owning workers.

        The hot path: field 4 of the dump format is the announced prefix,
        and routing needs nothing else — no decode, no parse, no pickle.
        Lines with the wrong field count or an unparsable prefix field are
        dropped and counted (``events_malformed``), not raised: one bad
        line in a million-prefix feed must not kill the run.
        """
        if not self.started:
            self.start()
        self._check_registry_unmoved()
        buffers = self._buffers
        limit = self.LINES_PER_SHIPMENT
        memo_get = self._route_memo.get
        counters = _COUNTERS
        for line in lines:
            # The dump format has exactly 8 fields: one split both checks the
            # count (a ninth part means a separator too many) and finds field 4.
            fields = line.split(b"|", 8)
            if len(fields) != 8:
                self.events_malformed += 1
                counters.events_malformed += 1
                continue
            prefix_field = fields[4]
            worker = memo_get(prefix_field, -2)
            if worker == -2:
                worker = self._route_prefix(prefix_field)
            if worker is None:
                # Covered by no monitored root: no tenant can match it.
                self.events_unrouted += 1
                continue
            if worker == _MALFORMED:
                self.events_malformed += 1
                counters.events_malformed += 1
                continue
            buffer = buffers[worker]
            buffer.append(line)
            if len(buffer) >= limit:
                self._ship(worker)

    def feed_lines(self, lines: Iterable[str]) -> None:
        """Route record lines given as ``str`` (compat shim over bytes)."""
        self.feed_line_bytes(line.encode("utf-8") for line in lines)

    def feed_trace(self, path: str) -> None:
        self.feed_line_bytes(iter_trace_line_bytes(path))

    def _ship(self, worker: int) -> None:
        buffer = self._buffers[worker]
        if not buffer:
            return
        self._epochs[worker] += 1
        self.events_routed += len(buffer)
        _COUNTERS.detect_events_routed += len(buffer)
        self._group.send(worker, encode_batch(self._epochs[worker], buffer))
        self._buffers[worker] = []

    # -------------------------------------------------------------- finish

    def finish(self) -> Dict:
        """Flush, collect every worker's results, merge, and shut down.

        Merges worker perf deltas into the parent's counters (by each
        metric's declared ``merge`` in :data:`repro.perf.METRICS`) and
        returns::

            {"rows", "digest", "alerts", "cpu_seconds": [per worker],
             "critical_path_cpu", "events_per_worker": [per worker],
             "events_routed", "events_unrouted", "events_malformed",
             "send_wait_ns", "recv_wait_ns", "workers": [per-worker payloads]}

        ``send_wait_ns`` is the time this plane's router spent blocked
        writing to the worker pipes; ``recv_wait_ns`` the workers' time
        blocked waiting for a frame, summed.
        """
        if self.finished:
            raise ReproError("parallel plane already finished")
        if not self.started:
            self.start()
        self._check_registry_unmoved()
        for worker in range(self.num_workers):
            self._ship(worker)
        payloads = self._group.ask_all(
            [encode_frame(FRAME_FINISH, 0)] * self.num_workers
        )
        for payload in payloads:
            _COUNTERS.merge(payload["perf"])
        self.finished = True
        self.close()
        rows: List[Tuple] = []
        for payload in payloads:
            rows.extend(payload["rows"])
        rows.sort()
        cpu = [payload["cpu_seconds"] for payload in payloads]
        return {
            "rows": rows,
            "digest": merged_alert_digest(rows),
            "alerts": sum(payload["alerts"] for payload in payloads),
            "cpu_seconds": cpu,
            "critical_path_cpu": max(cpu) if cpu else 0.0,
            "events_per_worker": [
                payload["events_ingested"] for payload in payloads
            ],
            "events_routed": self.events_routed,
            "events_unrouted": self.events_unrouted,
            "events_malformed": self.events_malformed,
            "send_wait_ns": self._group.send_wait_ns,
            "recv_wait_ns": sum(
                payload["perf"]["pipe_recv_wait_ns"] for payload in payloads
            ),
            "workers": payloads,
        }

    def close(self) -> None:
        """Stop and reap the workers; also the error-path cleanup."""
        if self._group.processes:
            self._group.close(encode_frame(FRAME_STOP, 0))

    def __enter__(self) -> "ParallelDetectionPlane":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ParallelDetectionPlane workers={self.num_workers} "
            f"roots={len(self._roots)} routed={self.events_routed}>"
        )
