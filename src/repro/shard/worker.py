"""The shard worker process: one :class:`ShardWorld` behind a pipe.

The coordinator forks one worker per shard.  Each worker inherits the
coordinator's in-memory topology through ``fork`` and builds a
:class:`ShardWorld` over it from its shard id, local ASN set and the world
seed — the graph the one-shard run builds over, with nothing serialized —
and then obeys a small synchronous protocol: every request but the farewell
gets exactly one reply, ``("ok", payload)`` or ``("error", message)``.

Perf accounting: the worker's process-global counters are reset at startup;
a ``perf`` command ships home the delta since the previous ``perf`` (plus
current gauge values), which the coordinator folds into its own counters
by each metric's declared ``merge`` (:data:`repro.perf.METRICS`).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable

from repro.perf import COUNTERS as _C
from repro.perf import sample_memory
from repro.shard.world import ShardWorld
from repro.topology.graph import ASGraph


#: World methods that change it; each replies with the world's next event time.
COMMANDS = frozenset({"watch", "originate", "originate_forged"})
#: World methods that answer with what they return.
QUERIES = frozenset({"run_window", "observe", "flips", "stats"})


def _refresh_gauges() -> None:
    sample_memory()
    if _C.peak_rss_kb > _C.shard_rss_peak_kb:
        _C.shard_rss_peak_kb = _C.peak_rss_kb


def worker_main(
    shard_id: int, graph: ASGraph, local_asns: Iterable[int], seed: int, conn
) -> None:
    """Entry point of a shard worker process: build, then serve requests.

    A request is ``(name, *args)``: a name in :data:`COMMANDS` or
    :data:`QUERIES` calls that :class:`ShardWorld` method; ``perf`` ships
    the counter delta; ``stop`` is a farewell and gets no reply.
    """
    _C.reset()
    perf_mark: Dict[str, int] = _C.as_dict()
    cpu_mark = time.process_time()
    try:
        world = ShardWorld(graph, None, seed, local_asns)
    except BaseException as exc:  # noqa: BLE001 - must report, then die
        conn.send(("error", f"shard {shard_id} build failed: {exc!r}"))
        conn.close()
        return
    conn.send(("ok", world.status()))
    while True:
        try:
            name, *args = conn.recv()
        except EOFError:
            break
        if name == "stop":
            break  # a farewell: the parent has closed its end already
        try:
            if name in COMMANDS:
                getattr(world, name)(*args)
                reply: object = world.status()
            elif name in QUERIES:
                reply = getattr(world, name)(*args)
            elif name == "perf":
                _refresh_gauges()
                reply = _C.delta_since(perf_mark)
                perf_mark = _C.as_dict()
                # Not a counter: this worker's busy CPU since the last perf
                # collection, for critical-path accounting (a parallel run's
                # wall is bounded below by the busiest shard).
                reply["cpu_seconds"] = time.process_time() - cpu_mark
                cpu_mark = time.process_time()
            else:
                raise ValueError(f"unknown shard command {name!r}")
        except BaseException as exc:  # noqa: BLE001 - ship home, stay alive
            conn.send(("error", f"shard {shard_id} {name}: {exc!r}"))
        else:
            conn.send(("ok", reply))
    conn.close()
