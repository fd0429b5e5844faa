"""The sharded-propagation coordinator: conservative windows over workers.

:class:`ShardRunner` drives one worker process per shard through a sequence
of synchronization windows.  Each window:

1. computes the conservative barrier ``W = min(horizon, T_min + F)`` where
   ``T_min`` is the earliest thing that can happen anywhere — any shard's
   next event, or any still-pending cross-shard record's earliest possible
   arrival (``send_time + link floor``) — and ``F`` is the cut's lookahead
   (:attr:`ShardPlan.lookahead`);
2. ships every pending record to its destination shard inside an
   epoch-stamped :class:`~repro.shard.boundary.DeliveryBundle`;
3. lets every shard integrate, run its engine to ``W``, and return the
   records it produced, which become the next window's bundles.

No shard ever receives a message scheduled before its clock (workers verify
this and raise), so the distributed run processes exactly the event
sequence of the single-process run — see DESIGN.md for the full argument.

The ``--shards 1`` runner is one in-process
:class:`~repro.shard.world.ShardWorld` over the whole graph: the same
surface with an empty cut, so callers and tests compare the two bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.perf import COUNTERS as _C
from repro.proc import WorkerGroup
from repro.shard.boundary import DeliveryBundle, SendRecord
from repro.shard.partition import LinkKey, ShardPlan
from repro.shard.worker import worker_main
from repro.shard.world import ShardWorld
from repro.topology.graph import ASGraph


class ShardRunner:
    """Coordinator for ``N >= 2`` worker processes (fork start method)."""

    def __init__(
        self,
        graph: ASGraph,
        plan: ShardPlan,
        seed: int = 0,
    ):
        if plan.num_shards < 2:
            raise SimulationError("ShardRunner needs >= 2 shards; use ShardWorld")
        self.plan = plan
        self.num_shards = plan.num_shards
        self.now = 0.0
        self.epoch = 0
        self._floors = plan.link_floors
        self._lookahead = plan.lookahead
        #: Cut link -> its two shard ids.
        self._link_shards: Dict[LinkKey, Tuple[int, int]] = {
            key: (plan.assignment[key[0]], plan.assignment[key[1]])
            for key in plan.cut_links
        }
        #: Per destination shard: records awaiting the next window's bundle.
        self._pending: List[Dict[LinkKey, List[SendRecord]]] = [
            {} for _ in range(plan.num_shards)
        ]
        self._next_times: List[Optional[float]] = [None] * plan.num_shards
        # Workers inherit ``graph`` by fork; nothing is serialized.
        self._group = WorkerGroup("shard {} worker", SimulationError)
        try:
            for shard in range(plan.num_shards):
                self._group.fork(worker_main, shard, graph, plan.shard_asns[shard], seed)
            for shard in range(plan.num_shards):
                self._next_times[shard] = self._group.recv(shard)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------- transport

    def _ask_all(self, *request) -> List:
        """One request to every shard; every reply, in shard order."""
        return self._group.ask_all([request] * self.num_shards)

    def _command_one(self, shard: int, *request) -> None:
        """Send a mutating command to one shard; its next event time refreshes."""
        self._group.send(shard, request)
        self._next_times[shard] = self._group.recv(shard)

    # -------------------------------------------------------------- commands

    def watch(self, target) -> None:
        self._next_times = self._ask_all("watch", target)

    def originate(self, asn: int, prefix) -> None:
        self._command_one(self.plan.shard_of(asn), "originate", asn, prefix)

    def originate_forged(self, asn: int, prefix, path_suffix: Sequence[int]) -> None:
        self._command_one(
            self.plan.shard_of(asn),
            "originate_forged", asn, prefix, list(path_suffix),
        )

    # --------------------------------------------------------------- windows

    def _earliest_candidate(self) -> Optional[float]:
        """``T_min``: the earliest event or possible cross-shard arrival."""
        earliest: Optional[float] = None
        for time in self._next_times:
            if time is not None and (earliest is None or time < earliest):
                earliest = time
        floors = self._floors
        for pending in self._pending:
            for link, records in pending.items():
                floor = floors[link]
                for record in records:
                    bound = record[0] + floor
                    if earliest is None or bound < earliest:
                        earliest = bound
        return earliest

    def _step_window(self, horizon: float) -> None:
        earliest = self._earliest_candidate()
        if earliest is not None and self._lookahead is not None:
            window_end = min(horizon, earliest + self._lookahead)
        else:
            # Empty cut (independent shards) or globally idle: jump to the
            # horizon in one window.
            window_end = horizon
        self.epoch += 1
        epoch = self.epoch
        requests = []
        for shard in range(self.num_shards):
            pending = self._pending[shard]
            bundles = [
                DeliveryBundle(link, epoch, pending[link])
                for link in sorted(pending)
            ]
            self._pending[shard] = {}
            requests.append(("run_window", epoch, window_end, bundles))
        link_shards = self._link_shards
        replies = self._group.ask_all(requests)
        for shard, (out, next_time) in enumerate(replies):
            self._next_times[shard] = next_time
            for link, records in out.items():
                shard_a, shard_b = link_shards[link]
                target = shard_b if shard_a == shard else shard_a
                self._pending[target][link] = records
        self.now = window_end

    def run_to(self, time: float) -> None:
        """Advance every shard to simulated ``time``.

        Cross-shard records still pending on return are provably scheduled
        strictly after ``time`` (the conservative window guarantees it), so
        observations at ``time`` are complete; the records ship in the first
        window of the next call.
        """
        if time < self.now:
            raise SimulationError(f"cannot run backwards to {time} from {self.now}")
        while self.now < time:
            self._step_window(time)

    # ------------------------------------------------------------ observation

    def observe(self, target) -> Dict[int, Optional[int]]:
        merged: Dict[int, Optional[int]] = {}
        for origins in self._ask_all("observe", target):
            merged.update(origins)
        return merged

    def flips(self, target) -> List[Tuple[float, int, Optional[int]]]:
        merged: List[Tuple[float, int, Optional[int]]] = []
        for flips in self._ask_all("flips", target):
            merged.extend(flips)
        return sorted(merged)

    def stats(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for stats in self._ask_all("stats"):
            for key, value in stats.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    # ------------------------------------------------------------------ perf

    def collect_perf(self) -> List[Dict[str, float]]:
        """Fold every worker's counter delta into this process's counters.

        Returns the raw per-worker payloads (counter deltas plus each
        worker's busy ``cpu_seconds``) so benches can reason about load
        balance and the critical path; ``merge`` ignores the non-counter
        extras.
        """
        deltas = self._ask_all("perf")
        for delta in deltas:
            _C.merge(delta)
        return deltas

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        self._group.close(("stop",))

    def __enter__(self) -> "ShardRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_runner(
    graph: ASGraph,
    num_shards: int,
    seed: int = 0,
) -> Union[ShardWorld, ShardRunner]:
    """Build the right runner for ``num_shards`` (partitioning included)."""
    if num_shards < 1:
        raise SimulationError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards == 1:
        return ShardWorld(graph, None, seed, graph.asns())
    from repro.shard.partition import partition_graph

    return ShardRunner(graph, partition_graph(graph, num_shards), seed)
