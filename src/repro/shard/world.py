"""Shard-local world state: network subclass and flip tracking.

:class:`ShardNetwork` is a :class:`Network` that builds **one shard** of a
partitioned graph: :meth:`Network._build` runs unchanged over the full
graph, asks :meth:`~ShardNetwork._is_local` which speakers to build, and
hands every link with one remote endpoint to
:meth:`~ShardNetwork._cut_link`, which wires a :class:`BoundarySession`
mirror in its place.  Speaker substreams, session substreams, ROV draws and
per-speaker peer insertion order are therefore the single-process build's
by construction.

:class:`ShardWorld` wraps a shard network with everything a worker process
needs: origin-flip tracking (one :class:`~repro.internet.tracker.OriginTracker`
per watched target) and the epoch-validated window step.  Built over the
whole graph it is also the ``--shards 1`` runner:
:meth:`run_to` steps its one engine, and the rest of the runner surface is
its own.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bgp.policy import Relationship
from repro.errors import SimulationError
from repro.internet.network import Network, NetworkConfig
from repro.internet.tracker import OriginTracker
from repro.net.prefix import Address, Prefix
from repro.perf import COUNTERS as _C
from repro.shard.boundary import BoundarySession, DeliveryBundle, RemoteEndpoint, SendRecord
from repro.sim.engine import Engine
from repro.sim.latency import Delay
from repro.sim.rng import SeededRNG
from repro.topology.graph import ASGraph

LinkKey = Tuple[int, int]


class ShardNetwork(Network):
    """A :class:`Network` restricted to one shard of a partitioned graph."""

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[NetworkConfig],
        seed: int,
        local_asns,
        engine: Optional[Engine] = None,
    ):
        self._local_asns = frozenset(local_asns)
        self.boundary_sessions: Dict[LinkKey, BoundarySession] = {}
        #: Cut links with unshipped or uncommitted records — the only
        #: sessions a window step needs to visit.  Sessions register
        #: themselves here on first send (see ``BoundarySession.send``).
        self.active_boundaries: set = set()
        super().__init__(graph, config, seed, engine)

    def _is_local(self, asn: int) -> bool:
        return asn in self._local_asns

    def _cut_link(
        self, a: int, b: int, a_view: Relationship, delay: Delay, rng: SeededRNG
    ) -> None:
        a_local = a in self._local_asns
        session = BoundarySession(
            self.engine,
            self.speakers[a] if a_local else RemoteEndpoint(a),
            RemoteEndpoint(b) if a_local else self.speakers[b],
            delay=delay,
            rng=rng,
            tracker=self.tracker,
        )
        key = (a, b) if a <= b else (b, a)
        session._key = key
        session._active_set = self.active_boundaries
        self.boundary_sessions[key] = session
        if a_local:
            self.speakers[a].add_peer(session, a_view)
        else:
            self.speakers[b].add_peer(session, a_view.inverse())


class ShardWorld:
    """One shard's complete run state plus the window/observation protocol."""

    #: As a runner (``make_runner(graph, 1)``) the world is the only shard.
    num_shards = 1

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[NetworkConfig],
        seed: int,
        local_asns,
    ):
        self.network = ShardNetwork(graph, config, seed, local_asns)
        #: Watched prefix -> its one-probe tracker (see :meth:`watch`).
        self.trackers: Dict[Prefix, OriginTracker] = {}
        self.epoch = 0

    # ------------------------------------------------------------- commands

    def watch(self, target: Union[Address, Prefix, str]) -> None:
        """Start tracking data-plane origin flips for ``target``, probed at
        its network address as :meth:`observe` reads it."""
        watch = Network._normalize_target(target)
        if watch not in self.trackers:
            self.trackers[watch] = OriginTracker(self.network, watch, probe_depth=0)

    def originate(self, asn: int, prefix: Union[Prefix, str]) -> None:
        if asn in self.network.speakers:
            self.network.announce(asn, prefix)

    def originate_forged(
        self, asn: int, prefix: Union[Prefix, str], path_suffix: Sequence[int]
    ) -> None:
        if asn in self.network.speakers:
            if isinstance(prefix, str):
                prefix = Prefix.parse(prefix)
            self.network.speaker(asn).originate_forged(prefix, path_suffix)

    # -------------------------------------------------------------- windows

    @property
    def now(self) -> float:
        return self.network.engine.now

    def run_to(self, time: float) -> None:
        """The one-shard runner's step: run the engine to simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot run backwards to {time} from {self.now}")
        self.network.engine.run(until=time)

    def run_window(
        self,
        epoch: int,
        window_end: float,
        bundles: Sequence[DeliveryBundle],
    ) -> Tuple[Dict[LinkKey, List[SendRecord]], Optional[float]]:
        """One conservative window: integrate, run to the barrier, collect.

        Returns ``(outgoing_records_by_link, next_event_time)``.
        Epoch stamps are validated strictly — a bundle from any epoch other
        than this window's is a protocol violation, not a retry.
        """
        if epoch != self.epoch + 1:
            raise SimulationError(
                f"out-of-order window: got epoch {epoch}, expected {self.epoch + 1}"
            )
        by_link: Dict[LinkKey, DeliveryBundle] = {}
        for bundle in bundles:
            if bundle.epoch != epoch:
                raise SimulationError(
                    f"stale bundle for link {bundle.link}: epoch "
                    f"{bundle.epoch} inside window {epoch}"
                )
            if bundle.link in by_link:
                raise SimulationError(f"duplicate bundle for link {bundle.link}")
            if bundle.link not in self.network.boundary_sessions:
                raise SimulationError(f"bundle for unknown cut link {bundle.link}")
            by_link[bundle.link] = bundle
        self.epoch = epoch
        sessions = self.network.boundary_sessions
        active = self.network.active_boundaries
        # Only links with inbound bundles or uncommitted local records need
        # integrating; the visited subset is iterated in the same sorted-key
        # order the full scan used, so delivery scheduling order (and with
        # it every same-instant tiebreak) is unchanged.
        for key in sorted(set(by_link) | active):
            session = sessions[key]
            bundle = by_link.get(key)
            records = bundle.records if bundle is not None else ()
            if records or session._pending_local:
                session.integrate(records)
        events_before = _C.events_processed
        self.network.engine.run(until=window_end)
        _C.shard_windows += 1
        if _C.events_processed == events_before:
            _C.sync_barrier_stalls += 1
        out: Dict[LinkKey, List[SendRecord]] = {}
        sent = 0
        for key in sorted(active):
            records = sessions[key].collect()
            if records:
                out[key] = records
                sent += len(records)
        if sent:
            _C.cross_shard_messages += sent
            # Honest transport accounting: what crosses the process boundary
            # is this record map, pickled.
            _C.cross_shard_bytes += len(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
        # Collected records stay pending (the mirror still owes their RNG
        # draws next window); everything fully drained drops off the set.
        for key in [key for key in active if not sessions[key].has_backlog]:
            active.discard(key)
        return out, self.status()

    def status(self) -> Optional[float]:
        """This shard's next event time (``None`` when idle): all the
        coordinator's barrier reads of it."""
        return self.network.engine.peek_time()

    # ---------------------------------------------------------- observation

    def observe(self, target: Union[Address, Prefix, str]) -> Dict[int, Optional[int]]:
        """This shard's slice of the data-plane origin map for ``target``."""
        return self.network.origin_map(target)

    def flips(self, target: Union[Address, Prefix, str]) -> List[Tuple[float, int, Optional[int]]]:
        watch = Network._normalize_target(target)
        tracker = self.trackers.get(watch)
        if tracker is None:
            raise SimulationError(f"target {watch} is not being watched")
        return sorted((time, asn, value) for time, asn, _probe, value in tracker.flips)

    def stats(self) -> Dict[str, int]:
        speakers = self.network.speakers.values()
        tracker = self.network.tracker
        return {
            "updates_received": sum(s.updates_received for s in speakers),
            "updates_sent": sum(s.updates_sent for s in speakers),
            "total_messages": tracker.total_messages,
            "total_nlri": tracker.total_nlri,
        }

    # ------------------------------------------------------- runner lifecycle

    def collect_perf(self) -> List[Dict[str, float]]:
        """Nothing to fold: an in-process world bumps the live counters."""
        return []

    def close(self) -> None:
        pass

    def __enter__(self) -> "ShardWorld":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

