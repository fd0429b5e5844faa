"""Routes as stored in RIBs.

A :class:`Route` is an :class:`~repro.bgp.messages.Announcement` enriched with
the receiver-local context the decision process needs: which peer it came
from, the business relationship to that peer, the derived LOCAL_PREF, and
when it was learned (simulated time).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.bgp.messages import Announcement, intern_path
from repro.bgp.policy import LOCAL_REL_INDEX
from repro.errors import BGPError
from repro.net.prefix import Prefix
from repro.perf import COUNTERS as _C


class Route:
    """A candidate path for one prefix, from one neighbor (or self-originated).

    ``peer_asn`` is ``None`` for locally originated routes; those always win
    the decision process (highest preference, empty path).
    """

    __slots__ = (
        "prefix",
        "as_path",
        "peer_asn",
        "local_pref",
        "learned_at",
        "pref_key",
        "learned_rel_index",
        "_export",
    )

    def __init__(
        self,
        prefix: Prefix,
        as_path: Sequence[int],
        peer_asn: Optional[int],
        local_pref: int,
        learned_at: float = 0.0,
        rel_index: Optional[int] = None,
    ):
        if peer_asn is not None and not as_path:
            raise BGPError(f"learned route for {prefix} has an empty AS path")
        self.prefix = prefix
        # Tuples arrive pre-interned (Announcement interns at construction),
        # so only coerce-and-intern the occasional list/iterable input.
        self.as_path: Tuple[int, ...] = (
            as_path if type(as_path) is tuple else intern_path(as_path)
        )
        # Type checks instead of unconditional coercion: the hot constructor
        # call (UPDATE processing) always passes the right types already.
        self.peer_asn = (
            peer_asn
            if peer_asn is None or type(peer_asn) is int
            else int(peer_asn)
        )
        self.local_pref = local_pref if type(local_pref) is int else int(local_pref)
        self.learned_at = (
            learned_at if type(learned_at) is float else float(learned_at)
        )
        #: The learning session's dense relationship index (see
        #: ``repro.bgp.policy.REL_INDEX``), cached by the speaker at import
        #: time so export checks skip the peer-table lookup.  A learned
        #: route a speaker installs must carry it; ``None`` only suits
        #: routes that never reach a speaker (RIB and decision tests).
        self.learned_rel_index = (
            LOCAL_REL_INDEX if self.peer_asn is None else rel_index
        )
        #: Decision-process sort key (smaller wins; see ``repro.bgp.decision``).
        #: Routes are immutable and compared far more often than built, so
        #: the tuple is materialised once here.
        self.pref_key = (
            -self.local_pref,
            len(self.as_path),
            self.learned_at,
            self.peer_asn if self.peer_asn is not None else -1,
        )
        #: Cached single-prepend export form ``(sender_asn, announcement)``;
        #: see :meth:`export_announcement`.
        self._export: Optional[Tuple[int, Announcement]] = None

    @classmethod
    def local(cls, prefix: Prefix, local_pref: int = 1_000_000) -> "Route":
        """A self-originated route (empty AS path, top preference)."""
        return cls(prefix, (), None, local_pref)

    @property
    def is_local(self) -> bool:
        """True for self-originated routes."""
        return self.peer_asn is None

    @property
    def origin_as(self) -> Optional[int]:
        """Origin AS of the path, or ``None`` for self-originated routes.

        Callers that need "who originates this from AS X's view" should treat
        ``None`` as X itself; :class:`~repro.bgp.speaker.BGPSpeaker` does so.
        """
        return self.as_path[-1] if self.as_path else None

    def to_announcement(self, sender_asn: int) -> Announcement:
        """Export form of this route: ``sender_asn`` prepended to the path."""
        return Announcement(self.prefix, (int(sender_asn),) + self.as_path)

    def export_announcement(self, sender_asn: int) -> Announcement:
        """The single-prepend export form, built once and shared.

        A Loc-RIB change dirties the prefix towards *every* exportable peer,
        but the wire announcement is identical for all of them (routes are
        immutable and per-speaker, so the sender never varies in practice).
        Caching it here lets one :class:`Announcement` fan out across peers
        and across MRAI flush rounds.
        """
        cached = self._export
        if cached is not None and cached[0] == sender_asn:
            _C.announcements_reused += 1
            return cached[1]
        _C.announcements_built += 1
        announcement = self.to_announcement(sender_asn)
        self._export = (sender_asn, announcement)
        return announcement

    def __deepcopy__(self, memo) -> "Route":
        # Routes are immutable value objects — ``_export`` is a pure cache
        # of a value fully determined by the route's fields — so checkpoint
        # forks share them structurally instead of copying the densest
        # object population in the simulation.  The flush path's announce
        # dedup compares announcement *content* when the cache identity
        # misses, so sharing the cache across forks cannot change behaviour.
        return self

    def __repr__(self) -> str:
        path = " ".join(str(a) for a in self.as_path) or "local"
        via = "local" if self.peer_asn is None else f"via AS{self.peer_asn}"
        return f"Route({self.prefix} [{path}] {via} lp={self.local_pref})"
