"""The shard worker process: one :class:`ShardWorld` behind a pipe.

The coordinator forks one worker per shard.  Each worker receives a
:class:`ShardSpec` — the *serialized* annotated topology (shipped through
:mod:`repro.topology.serial` rather than relying on fork-inherited memory,
so every worker rebuilds its graph from the same canonical text the cache
and CLI use), its local ASN set, the world seed and config — and then obeys
a small synchronous command protocol: every request gets exactly one reply,
``("ok", payload)`` or ``("error", message)``.

Perf accounting: the worker's process-global counters are reset at startup;
a ``perf`` command ships home the delta since the previous ``perf`` (plus
current gauge values), which the coordinator folds into its own counters
by each metric's declared ``merge`` (:data:`repro.perf.METRICS`).
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, FrozenSet, List, Tuple

from repro.perf import COUNTERS as _C
from repro.perf import sample_memory
from repro.shard.world import ShardWorld
from repro.topology.serial import from_caida_lines


class ShardSpec:
    """Everything a worker needs to build its shard (picklable)."""

    __slots__ = (
        "shard_id",
        "graph_lines",
        "local_asns",
        "seed",
    )

    def __init__(
        self,
        shard_id: int,
        graph_lines: List[str],
        local_asns: FrozenSet[int],
        seed: int,
    ):
        self.shard_id = shard_id
        self.graph_lines = graph_lines
        self.local_asns = frozenset(local_asns)
        self.seed = seed

    def build_world(self) -> ShardWorld:
        graph = from_caida_lines(self.graph_lines, validate=False)
        return ShardWorld(graph, None, self.seed, self.local_asns)


def _refresh_gauges() -> None:
    sample_memory()
    if _C.peak_rss_kb > _C.shard_rss_peak_kb:
        _C.shard_rss_peak_kb = _C.peak_rss_kb


def worker_main(spec: ShardSpec, conn) -> None:
    """Entry point of a shard worker process: build, then serve commands."""
    _C.reset()
    perf_mark: Dict[str, int] = _C.as_dict()
    cpu_mark = time.process_time()
    try:
        world = spec.build_world()
    except BaseException as exc:  # noqa: BLE001 - must report, then die
        conn.send(("error", f"shard {spec.shard_id} build failed: {exc!r}"))
        conn.close()
        return
    conn.send(("ok", world.status()))
    while True:
        try:
            request = conn.recv()
        except EOFError:
            break
        command = request[0]
        try:
            if command == "window":
                _epoch, _window_end, bundles = request[1], request[2], request[3]
                out, next_time, in_flight = world.run_window(
                    _epoch, _window_end, bundles
                )
                if out:
                    # Honest transport accounting: what actually crosses the
                    # process boundary is this pickled record map.
                    _C.cross_shard_bytes += len(
                        pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
                    )
                reply: object = (out, next_time, in_flight)
            elif command == "originate":
                world.originate(request[1], request[2])
                reply = world.status()
            elif command == "originate_forged":
                world.originate_forged(request[1], request[2], request[3])
                reply = world.status()
            elif command == "withdraw":
                world.withdraw(request[1], request[2])
                reply = world.status()
            elif command == "watch":
                world.watch(request[1])
                reply = world.status()
            elif command == "observe":
                reply = world.observe(request[1])
            elif command == "flips":
                reply = world.flips(request[1])
            elif command == "stats":
                reply = world.stats()
            elif command == "snapshot":
                world.snapshot()
                reply = world.status()
            elif command == "restore":
                world.restore()
                reply = world.status()
            elif command == "perf":
                _refresh_gauges()
                delta = _C.delta_since(perf_mark)
                perf_mark = _C.as_dict()
                # Not a counter: this worker's busy CPU since the last perf
                # collection, for critical-path accounting (a parallel run's
                # wall is bounded below by the busiest shard).
                delta["cpu_seconds"] = time.process_time() - cpu_mark
                cpu_mark = time.process_time()
                reply = delta
            elif command == "stop":
                break  # a farewell: the parent has closed its end already
            else:
                raise ValueError(f"unknown shard command {command!r}")
        except BaseException as exc:  # noqa: BLE001 - ship home, stay alive
            conn.send(("error", f"shard {spec.shard_id} {command}: {exc!r}"))
        else:
            conn.send(("ok", reply))
    conn.close()
