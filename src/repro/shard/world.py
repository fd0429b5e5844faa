"""Shard-local world state: network subclass, flip tracking, warm forking.

:class:`ShardNetwork` builds BGP state for **one shard** of a partitioned
graph while iterating the *full* graph's deterministic build sequence — the
same speaker substreams, the same session substreams, and critically the
same per-speaker peer insertion order as the single-process build.  Peer
order matters because same-instant flushes fire in peer-registration order
and each consumes an MRAI sample from the speaker's RNG; building from a
subgraph and appending boundary links afterwards would silently reorder
those draws.

:class:`ShardWorld` wraps a shard network with everything a worker process
(or the in-process single-shard runner) needs: origin-flip logging, the
epoch-validated window step, and warm-start snapshot/restore using the
checkpoint machinery's copy-on-write shell-fork pattern.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bgp.rpki import ROVFilter
from repro.bgp.session import Session
from repro.errors import SimulationError
from repro.internet.network import Network, NetworkConfig
from repro.internet.origins import OriginCache
from repro.net.prefix import Address, Prefix
from repro.perf import COUNTERS as _C
from repro.shard.boundary import BoundarySession, DeliveryBundle, RemoteEndpoint, SendRecord
from repro.sim.engine import Engine
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
        rov_adopters=frozenset(),
        engine: Optional[Engine] = None,
    ):
        self._local_asns = frozenset(local_asns)
        #: ROV adopters are precomputed by the coordinator over the *full*
        #: node order (replicating the single-process draw sequence) — a
        #: shard drawing over its subset would consume the stream differently.
        self._rov_precomputed = frozenset(rov_adopters)
        self.boundary_sessions: Dict[LinkKey, BoundarySession] = {}
        #: Cut links with unshipped or uncommitted records — the only
        #: sessions a window step needs to visit.  Sessions register
        #: themselves here on first send (see ``BoundarySession.send``).
        self.active_boundaries: set = set()
        super().__init__(graph, config, seed, engine)

    def _build(self) -> None:
        local = self._local_asns
        for node in self.graph.nodes():
            if node.asn not in local:
                continue
            policy = None
            if node.asn in self._rov_precomputed:
                self.rov_adopters.add(node.asn)
                policy = self.config.make_policy(ROVFilter(self.rpki))
            self._make_speaker(node.asn, policy=policy)
        # Full-graph link order, filtered — NOT a subgraph walk: see module
        # docstring for why peer insertion order must match the mega-build.
        for a, b, a_view in self.graph.links():
            a_local = a in local
            b_local = b in local
            if not a_local and not b_local:
                continue
            delay = self._session_delay(
                self.graph.node(a).region, self.graph.node(b).region
            )
            rng = self.rng.substream("session", a, b)
            if a_local and b_local:
                session = Session(
                    self.engine,
                    self.speakers[a],
                    self.speakers[b],
                    delay=delay,
                    rng=rng,
                    tracker=self.tracker,
                )
                self._register_session(session)
                self.speakers[a].add_peer(session, a_view)
                self.speakers[b].add_peer(session, a_view.inverse())
            else:
                if a_local:
                    endpoint_a: object = self.speakers[a]
                    endpoint_b: object = RemoteEndpoint(b)
                else:
                    endpoint_a = RemoteEndpoint(a)
                    endpoint_b = self.speakers[b]
                session = BoundarySession(
                    self.engine,
                    endpoint_a,
                    endpoint_b,
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


class FlipLog:
    """Ordered record of data-plane origin changes for one watched target.

    Registered on every speaker *after* the network's own origin-cache hook,
    so by the time :meth:`on_change` runs the cache entry is fresh; the log
    just diffs it against the last seen origin.  Flip records —
    ``(time, asn, new_origin)`` — are part of the scenario outcome digest.
    """

    __slots__ = ("engine", "cache", "last", "flips")

    def __init__(self, engine: Engine, cache: OriginCache):
        self.engine = engine
        self.cache = cache
        self.last: Dict[int, Optional[int]] = dict(cache.origins)
        self.flips: List[Tuple[float, int, Optional[int]]] = []

    def on_change(self, speaker, prefix, new_route, old_route) -> None:
        asn = speaker.asn
        origin = self.cache.origins.get(asn)
        if origin != self.last.get(asn):
            self.last[asn] = origin
            self.flips.append((self.engine.now, asn, origin))


class ShardWorld:
    """One shard's complete run state plus the window/observation protocol."""

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[NetworkConfig],
        seed: int,
        local_asns,
        rov_adopters=frozenset(),
    ):
        self.network = ShardNetwork(
            graph, config, seed, local_asns, rov_adopters=rov_adopters
        )
        self.fliplogs: Dict[Prefix, FlipLog] = {}
        self.epoch = 0
        self._snapshot: Optional["ShardWorld"] = None
        self._snapshot_epoch = 0

    # ------------------------------------------------------------- commands

    def watch(self, target: Union[Address, Prefix, str]) -> None:
        """Start tracking data-plane origin flips for ``target``."""
        cache = self.network._origin_cache_for(target)
        if cache.target in self.fliplogs:
            return
        log = FlipLog(self.network.engine, cache)
        for speaker in self.network.speakers.values():
            speaker.on_best_change(log.on_change)
        self.fliplogs[cache.target] = log

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

    def withdraw(self, asn: int, prefix: Union[Prefix, str]) -> None:
        if asn in self.network.speakers:
            self.network.withdraw(asn, prefix)

    # -------------------------------------------------------------- windows

    def run_window(
        self,
        epoch: int,
        window_end: float,
        bundles: Sequence[DeliveryBundle],
    ) -> Tuple[Dict[LinkKey, List[SendRecord]], Optional[float], int]:
        """One conservative window: integrate, run to the barrier, collect.

        Returns ``(outgoing_records_by_link, next_event_time, in_flight)``.
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
        # Collected records stay pending (the mirror still owes their RNG
        # draws next window); everything fully drained drops off the set.
        for key in [key for key in active if not sessions[key].has_backlog]:
            active.discard(key)
        return out, self.network.engine.peek_time(), self.network.tracker.in_flight

    def status(self) -> Tuple[Optional[float], int]:
        return self.network.engine.peek_time(), self.network.tracker.in_flight

    # ---------------------------------------------------------- observation

    def observe(self, target: Union[Address, Prefix, str]) -> Dict[int, Optional[int]]:
        """This shard's slice of the data-plane origin map for ``target``."""
        return self.network.origin_map(target)

    def flips(self, target: Union[Address, Prefix, str]) -> List[Tuple[float, int, Optional[int]]]:
        probe = Network._normalize_target(target)
        log = self.fliplogs.get(probe)
        if log is None:
            raise SimulationError(f"target {probe} is not being watched")
        return list(log.flips)

    def stats(self) -> Dict[str, int]:
        speakers = self.network.speakers.values()
        tracker = self.network.tracker
        return {
            "updates_received": sum(s.updates_received for s in speakers),
            "updates_sent": sum(s.updates_sent for s in speakers),
            "total_messages": tracker.total_messages,
            "total_nlri": tracker.total_nlri,
        }

    # ------------------------------------------------------------- snapshot

    def _assert_quiescent(self, action: str) -> None:
        if self.network.tracker.busy:
            raise SimulationError(f"cannot {action}: BGP work is in flight")
        for session in self.network.boundary_sessions.values():
            if session.has_backlog:
                raise SimulationError(
                    f"cannot {action}: boundary backlog on {session!r}"
                )

    def snapshot(self) -> None:
        """Capture the (quiescent) world; restorable any number of times.

        Follows the checkpoint discipline: the *current* state becomes the
        permanently frozen master (forks alias its RIB rows copy-on-write,
        so it must never advance again) and the live world continues on a
        fresh fork of it.
        """
        self._assert_quiescent("snapshot")
        master = copy.copy(self)
        master._snapshot = None
        master.network.engine.freeze()
        self._snapshot = master
        self._snapshot_epoch = self.epoch
        fork = fork_world(master)
        fork.network.engine.thaw()
        self.network = fork.network
        self.fliplogs = fork.fliplogs

    def restore(self) -> None:
        """Replace the live state with a fresh fork of the snapshot."""
        if self._snapshot is None:
            raise SimulationError("no snapshot captured on this shard")
        fork = fork_world(self._snapshot)
        fork.network.engine.thaw()
        _C.checkpoint_restores += 1
        self.network = fork.network
        self.fliplogs = fork.fliplogs
        self.epoch = self._snapshot_epoch


def fork_world(world: ShardWorld) -> ShardWorld:
    """Deepcopy a :class:`ShardWorld` through :meth:`Network.fork_memo`."""
    memo = world.network.fork_memo()
    clone = copy.copy(world)
    clone.network = copy.deepcopy(world.network, memo)
    clone.fliplogs = copy.deepcopy(world.fliplogs, memo)
    clone._snapshot = None
    return clone
