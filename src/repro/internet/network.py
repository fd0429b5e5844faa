"""Instantiate and drive a simulated Internet.

:class:`Network` turns an :class:`~repro.topology.graph.ASGraph` into live
BGP state: one :class:`~repro.bgp.speaker.BGPSpeaker` per AS, one
:class:`~repro.bgp.session.Session` per link (delay derived from the
endpoints' geography), a shared engine, RNG tree and activity tracker.

It exposes the operations experiments need:

* originate / withdraw prefixes at any AS;
* run until BGP converges (the activity tracker reads zero);
* resolve the *data-plane* origin every AS currently uses for a target —
  the ground truth that detection output and mitigation success are judged
  against;
* attach external endpoints (route collectors, looking glasses, testbed
  virtual ASes) at runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.bgp.policy import Relationship
from repro.bgp.rpki import RPKIRegistry
from repro.bgp.session import ActivityTracker, Session
from repro.bgp.speaker import BGPSpeaker
from repro.errors import SimulationError, TopologyError
from repro.net.prefix import Address, Prefix
from repro.sim.engine import Engine
from repro.sim.latency import Delay, DelaySpec, LogNormal, Uniform, make_delay
from repro.sim.rng import SeededRNG
from repro.topology.geo import Region, session_delay_between
from repro.topology.graph import ASGraph


class NetworkConfig:
    """Timing and policy knobs for a simulated Internet.

    Defaults are calibrated so a full hijack-and-mitigate cycle reproduces
    the paper's shape: detection well under a minute (feed-latency bound)
    and mitigation completion a few minutes (MRAI-churn bound).  The A2
    ablation bench sweeps these.
    """

    def __init__(
        self,
        processing_delay: DelaySpec = None,
        mrai: DelaySpec = None,
        session_delay_override: Optional[DelaySpec] = None,
        rov_adoption: float = 0.0,
    ):
        # Per-UPDATE processing at each router: heavy-ish tail (CPU load,
        # batched table walks).  Mean ≈ 2 s.
        if processing_delay is None:
            processing_delay = LogNormal(mean=2.5, sigma=1.0)
        # eBGP MRAI with jitter around the classic 30 s default; this is the
        # main source of the minutes-scale convergence tail (routers that
        # just forwarded hijack churn hold back the mitigation wave).
        if mrai is None:
            mrai = Uniform(30.0, 90.0)
        self.processing_delay = make_delay(processing_delay)
        self.mrai = make_delay(mrai)
        self.session_delay_override = (
            make_delay(session_delay_override)
            if session_delay_override is not None
            else None
        )
        #: Fraction of ASes enforcing RPKI route-origin validation.
        if not 0.0 <= rov_adoption <= 1.0:
            raise SimulationError("rov_adoption must be a probability")
        self.rov_adoption = float(rov_adoption)


class Network:
    """A live simulated Internet."""

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[NetworkConfig] = None,
        seed: int = 0,
        engine: Optional[Engine] = None,
    ):
        self.graph = graph
        self.config = config or NetworkConfig()
        self.engine = engine or Engine()
        self.tracker = ActivityTracker()
        self.rng = SeededRNG(seed).substream("network")
        self.speakers: Dict[int, BGPSpeaker] = {}
        self.sessions: List[Session] = []
        #: Endpoint pair (sorted ASN tuple) -> session, for O(1) link control.
        self._session_index: Dict[Tuple[int, int], Session] = {}
        #: Shared RPKI registry; publish ROAs at any time.  Only ASes in
        #: ``rov_adopters`` enforce them.
        self.rpki = RPKIRegistry()
        self.rov_adopters: set = set()
        self._build()

    # ------------------------------------------------------------------ build

    def _make_speaker(self, asn: int, rov: Optional[RPKIRegistry] = None) -> BGPSpeaker:
        speaker = BGPSpeaker(
            asn,
            self.engine,
            rov=rov,
            rng=self.rng.substream("speaker", asn),
            tracker=self.tracker,
            processing_delay=self.config.processing_delay,
            mrai=self.config.mrai,
        )
        self.speakers[asn] = speaker
        return speaker

    def _session_delay(self, region_a: Optional[Region], region_b: Optional[Region]) -> Delay:
        if self.config.session_delay_override is not None:
            return self.config.session_delay_override
        return session_delay_between(region_a, region_b)

    @staticmethod
    def _session_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def _register_session(self, session: Session) -> None:
        key = self._session_key(session.a.asn, session.b.asn)
        if key in self._session_index:
            raise TopologyError(
                f"a session between AS{key[0]} and AS{key[1]} already exists"
            )
        self.sessions.append(session)
        self._session_index[key] = session

    def _build(self) -> None:
        """The one world build: speakers in node order, sessions in link order.

        Every node draws its ROV adoption in node order, and every link its
        session substream in link order; a speaker's peer insertion order
        is therefore link order, and same-instant MRAI flushes fire in peer
        order, each consuming a draw.  ROV adopters validate against the
        shared :attr:`rpki` registry.
        """
        rov_rng = self.rng.substream("rov")
        adoption = self.config.rov_adoption
        for node in self.graph.nodes():
            adopts = adoption > 0.0 and rov_rng.random() < adoption
            if adopts:
                self.rov_adopters.add(node.asn)
            self._make_speaker(node.asn, rov=self.rpki if adopts else None)
        for a, b, a_view in self.graph.links():
            delay = self._session_delay(
                self.graph.node(a).region, self.graph.node(b).region
            )
            rng = self.rng.substream("session", a, b)
            speaker_a = self.speakers[a]
            speaker_b = self.speakers[b]
            session = Session(
                self.engine, speaker_a, speaker_b,
                delay=delay, rng=rng, tracker=self.tracker,
            )
            self._register_session(session)
            speaker_a.add_peer(session, a_view)
            speaker_b.add_peer(session, a_view.inverse())

    # -------------------------------------------------------------------- fork

    def fork_memo(self, shared=()) -> Dict[int, object]:
        """The ``deepcopy`` memo that forks this network copy-on-write.

        The graph, config, RPKI registry and the caller's ``shared``
        objects map to themselves (frozen after setup, never copied).
        Every speaker is pre-registered as an empty shell
        before any is filled, which (a) bounds recursion depth — a naive
        deepcopy would chain speaker → session → peer speaker → … through
        the whole connected graph — and (b) lets every session/callback
        encountered later resolve its speaker references through the memo.
        RIB tables fork copy-on-write via the RIBs' own ``__deepcopy__``.
        """
        memo: Dict[int, object] = {
            id(obj): obj for obj in (self.graph, self.config, self.rpki, *shared)
        }
        for speaker in self.speakers.values():
            memo[id(speaker)] = BGPSpeaker.__new__(BGPSpeaker)
        for speaker in self.speakers.values():
            memo[id(speaker)]._fill_from_fork(speaker, memo)
        return memo

    # ------------------------------------------------------------------ access

    def speaker(self, asn: int) -> BGPSpeaker:
        try:
            return self.speakers[asn]
        except KeyError:
            raise TopologyError(f"AS{asn} has no speaker in this network") from None

    def asns(self) -> List[int]:
        return sorted(self.speakers)

    # -------------------------------------------------------------- attachment

    def attach_stub(
        self,
        asn: int,
        provider_asns: List[int],
        region: Optional[Region] = None,
    ) -> BGPSpeaker:
        """Attach a new edge AS at runtime (used by the PEERING-style testbed).

        The new AS buys transit from each listed provider.  The topology
        graph is extended too, so later queries stay consistent.  Every
        check runs before anything is mutated: a refused attach leaves the
        network as it was.
        """
        if asn in self.speakers or asn in self.graph:
            raise TopologyError(f"AS{asn} already exists in this network")
        if not provider_asns:
            raise TopologyError(f"stub AS{asn} needs at least one provider")
        if len(set(provider_asns)) != len(provider_asns):
            raise TopologyError(f"stub AS{asn} lists a provider twice: {provider_asns}")
        for provider in provider_asns:
            self.speaker(provider)
            if self._session_key(asn, provider) in self._session_index:
                raise TopologyError(
                    f"a session between AS{asn} and AS{provider} already exists"
                )
        self.graph.add_as(asn, tier=3, region=region, tags={"stub", "attached"})
        speaker = self._make_speaker(asn)
        for provider in provider_asns:
            provider_speaker = self.speaker(provider)
            self.graph.add_customer_provider(asn, provider)
            session = Session(
                self.engine,
                speaker,
                provider_speaker,
                delay=self._session_delay(region, self.graph.node(provider).region),
                rng=self.rng.substream("session", asn, provider),
                tracker=self.tracker,
            )
            self._register_session(session)
            speaker.add_peer(session, Relationship.PROVIDER)
            provider_speaker.add_peer(session, Relationship.CUSTOMER)
        return speaker

    def add_monitor_session(
        self,
        host_asn: int,
        endpoint: "SessionEndpoint",
        delay: Optional[Delay] = None,
    ) -> Session:
        """Peer a passive monitor (e.g. a route collector) with ``host_asn``.

        The host exports its full best-route feed to the endpoint; the
        endpoint never sends routes back.
        """
        host = self.speaker(host_asn)
        session = Session(
            self.engine,
            host,
            endpoint,
            delay=delay or self._session_delay(self.graph.node(host_asn).region, None),
            rng=self.rng.substream("monitor-session", host_asn, endpoint.asn),
            tracker=self.tracker,
        )
        self._register_session(session)
        host.add_peer(session, Relationship.MONITOR)
        return session

    # ----------------------------------------------------------------- control

    def fail_link(self, a: int, b: int) -> None:
        """Take down the session between ``a`` and ``b`` (BGP session reset).

        Both speakers immediately drop everything learned over the session
        and re-run their decision processes; withdrawals then propagate as
        usual.  In-flight messages on the session are discarded on arrival.
        """
        session = self._find_session(a, b)
        session.tear_down()
        self.speaker(a).remove_peer(b)
        self.speaker(b).remove_peer(a)

    def restore_link(self, a: int, b: int) -> None:
        """Bring a previously failed session back up.

        Mirrors a real session re-establishment: both sides re-add the peer
        and exchange their full tables (initial-advertisement semantics of
        :meth:`BGPSpeaker.add_peer`).
        """
        session = self._find_session(a, b)
        if session.up:
            raise TopologyError(f"session AS{a}<->AS{b} is already up")
        session.restore()
        relationship = self._relationship_between(a, b)
        self.speaker(a).add_peer(session, relationship)
        self.speaker(b).add_peer(session, relationship.inverse())

    def _relationship_between(self, a: int, b: int) -> Relationship:
        """a's view of b, from the topology graph."""
        for neighbor, relationship in self.graph.neighbors(a):
            if neighbor == b:
                return relationship
        raise TopologyError(f"AS{a} and AS{b} are not adjacent in the graph")

    def _find_session(self, a: int, b: int) -> Session:
        session = self._session_index.get(self._session_key(a, b))
        if session is None:
            raise TopologyError(f"no session between AS{a} and AS{b}")
        return session

    def announce(self, asn: int, prefix: Union[Prefix, str]) -> None:
        """AS ``asn`` starts originating ``prefix``."""
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self.speaker(asn).originate(prefix)

    def run_until_converged(
        self,
        max_time: float = 3600.0,
        max_events: int = 5_000_000,
    ) -> float:
        """Step the engine until no BGP work is in flight.

        Periodic measurement tasks (LG polls, batch dumps) keep firing but do
        not count as BGP activity, so they never prevent convergence.
        Raises :class:`SimulationError` if BGP has not quiesced by
        ``max_time`` (simulated) or ``max_events``.
        """
        deadline = self.engine.now + max_time
        fired = 0
        while self.tracker.busy:
            next_time = self.engine.peek_time()
            if next_time is None:
                raise SimulationError(
                    "activity tracker is busy but the event queue is empty"
                )
            if next_time > deadline:
                raise SimulationError(
                    f"BGP did not converge within {max_time}s "
                    f"({self.tracker.in_flight} units in flight)"
                )
            self.engine.step()
            fired += 1
            if fired > max_events:
                raise SimulationError(
                    f"convergence run exceeded {max_events} events; "
                    "the configuration likely oscillates"
                )
        return self.engine.now

    def run_for(self, duration: float) -> float:
        """Advance simulated time by ``duration`` seconds."""
        return self.engine.run_for(duration)

    # ------------------------------------------------------------- observation

    def resolve_origin(self, asn: int, target: Union[Address, Prefix, str]) -> Optional[int]:
        """The origin AS that ``asn`` currently routes ``target`` towards."""
        return self.speaker(asn).resolve_origin(target)

    @staticmethod
    def _normalize_target(target: Union[Address, Prefix, str]) -> Prefix:
        """Canonical watch prefix for a target (addresses → host prefixes)."""
        if isinstance(target, str):
            target = Prefix.parse(target)
        if isinstance(target, Address):
            return Prefix(target.value, target.bits, target.version)
        return target

    def origin_map(self, target: Union[Address, Prefix, str]) -> Dict[int, Optional[int]]:
        """Data-plane ground truth: every AS's selected origin for ``target``.

        A one-shot read, one longest match per AS.  A prefix is probed at
        its network address, as :class:`~repro.internet.tracker.OriginTracker`
        probes it; to follow the answer over time, track it instead.
        """
        probe = self._normalize_target(target).network
        return {asn: self.speakers[asn].resolve_origin(probe) for asn in self.asns()}

    def __repr__(self) -> str:
        return (
            f"<Network {len(self.speakers)} ASes, {len(self.sessions)} sessions, "
            f"t={self.engine.now:.1f}s>"
        )


class SessionEndpoint:
    """Typing helper: minimal interface for :meth:`Network.add_monitor_session`."""

    asn: int

    def deliver(self, sender_asn: int, message) -> None:  # pragma: no cover
        raise NotImplementedError
