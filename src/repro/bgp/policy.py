"""Routing policy: business relationships, Gao-Rexford rules, route filters.

The policy model is the standard economic one:

* **import preference** — customer-learned routes are most preferred (they
  earn money), then peer-learned, then provider-learned;
* **export (valley-free) rule** — routes learned from a customer are exported
  to everyone; routes learned from a peer or provider are exported only to
  customers.  Self-originated routes go to everyone.

It is exactly this policy structure that makes a hijack *partially*
successful (only ASes economically "closer" to the hijacker switch), which is
the behaviour ARTEMIS' monitoring visualises and its mitigation reverses.

Route filters model operational practice; the one the paper calls out is the
widespread filtering of announcements more specific than /24, which is why
de-aggregating a /24 does not work (experiment E6).
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.bgp.messages import Announcement
from repro.net.prefix import Prefix


class Relationship(enum.Enum):
    """Business relationship of *my* AS towards a neighbor.

    ``CUSTOMER`` means "the neighbor is my customer".  ``MONITOR`` marks
    passive measurement sessions (route collectors, looking-glass probes):
    they receive the full best-route feed and never send routes.
    """

    CUSTOMER = "customer"
    PEER = "peer"
    PROVIDER = "provider"
    MONITOR = "monitor"

    def inverse(self) -> "Relationship":
        """The relationship as seen from the neighbor's side."""
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return self


#: Dense per-relationship index for tuple-indexed policy rows (hot paths
#: avoid enum hashing by indexing with this instead of dict lookups).
REL_INDEX: Dict[Relationship, int] = {rel: i for i, rel in enumerate(Relationship)}

#: Extra "learned from" indices into :data:`EXPORT_GRID` beyond the
#: real relationships: a local (self-originated) route, and the absent route
#: of a (new, old) change pair (its export row is all-False).
LOCAL_REL_INDEX: int = len(Relationship)
ABSENT_REL_INDEX: int = len(Relationship) + 1

#: Default LOCAL_PREF assigned by relationship (higher wins).
DEFAULT_LOCAL_PREF: Dict[Relationship, int] = {
    Relationship.CUSTOMER: 300,
    Relationship.PEER: 200,
    Relationship.PROVIDER: 100,
    Relationship.MONITOR: 0,
}


class RouteFilter:
    """Base class for import/export filters; return False to reject."""

    def accepts(self, announcement: Announcement) -> bool:
        raise NotImplementedError

    def __call__(self, announcement: Announcement) -> bool:
        return self.accepts(announcement)


class AcceptAll(RouteFilter):
    """The permissive default."""

    def accepts(self, announcement: Announcement) -> bool:
        return True

    def __repr__(self) -> str:
        return "AcceptAll()"


class MaxLengthFilter(RouteFilter):
    """Reject prefixes more specific than /24 (IPv4) or /48 (IPv6).

    This models the common ISP practice the paper cites as the reason
    de-aggregation cannot protect /24s.
    """

    max_length_v4 = 24
    max_length_v6 = 48

    def accepts(self, announcement: Announcement) -> bool:
        prefix = announcement.prefix
        limit = self.max_length_v4 if prefix.version == 4 else self.max_length_v6
        return prefix.length <= limit

    def __repr__(self) -> str:
        return f"MaxLengthFilter(v4</{self.max_length_v4}, v6</{self.max_length_v6})"


class PrefixDenyFilter(RouteFilter):
    """Reject announcements covered by any of the given prefixes (bogons etc.)."""

    def __init__(self, denied: Iterable[Prefix]):
        self.denied = tuple(denied)

    def accepts(self, announcement: Announcement) -> bool:
        return not any(d.contains(announcement.prefix) for d in self.denied)

    def __repr__(self) -> str:
        return f"PrefixDenyFilter({[str(p) for p in self.denied]})"


class FilterChain(RouteFilter):
    """All filters must accept."""

    def __init__(self, filters: Sequence[RouteFilter]):
        self.filters = tuple(filters)

    def accepts(self, announcement: Announcement) -> bool:
        return all(f.accepts(announcement) for f in self.filters)

    def __repr__(self) -> str:
        return f"FilterChain({list(self.filters)})"


def should_export(
    learned_from: Optional[Relationship], export_to: Relationship
) -> bool:
    """Gao-Rexford export rule.

    ``learned_from`` is ``None`` for self-originated routes (exported to
    everyone).  Monitors receive everything; routes are never exported
    *from* a monitor because monitors never announce.
    """
    if export_to is Relationship.MONITOR:
        return True
    if learned_from is None or learned_from is Relationship.CUSTOMER:
        return True
    # Peer- or provider-learned: only export to customers (no valleys).
    return export_to is Relationship.CUSTOMER


def _export_row(learned_from: Optional[Relationship]) -> Tuple[bool, ...]:
    return tuple(should_export(learned_from, to) for to in Relationship)


#: :func:`should_export` lowered to integer-indexed tuples, built once per
#: process: ``EXPORT_GRID[learned_index][to_index]`` with ``learned_index``
#: a peer's ``REL_INDEX`` value, ``LOCAL_REL_INDEX`` (self-originated /
#: vanished peer) or ``ABSENT_REL_INDEX`` (no route on that side of a
#: change), and ``to_index`` the receiving peer's ``REL_INDEX``.
EXPORT_GRID: Tuple[Tuple[bool, ...], ...] = (
    *(_export_row(rel) for rel in Relationship),
    _export_row(None),
    (False,) * len(Relationship),
)

#: Conservative row (mark every peer).  Every all-True row of
#: :data:`MARK_GRID` is this one object, so the speaker recognises "mark
#: everyone" with one identity check.
MARK_ALL_ROW: Tuple[bool, ...] = (True,) * len(Relationship)

def _mark_row(new_row: Tuple[bool, ...], old_row: Tuple[bool, ...]) -> Tuple[bool, ...]:
    row = tuple(a or b for a, b in zip(new_row, old_row))
    return MARK_ALL_ROW if all(row) else row


#: ``MARK_GRID[new_index][old_index]`` — elementwise OR of the two export
#: rows, so :meth:`BGPSpeaker._install_best` decides each peer with a
#: single tuple index.
MARK_GRID: Tuple[Tuple[Tuple[bool, ...], ...], ...] = tuple(
    tuple(_mark_row(new_row, old_row) for old_row in EXPORT_GRID)
    for new_row in EXPORT_GRID
)


class Policy:
    """A speaker's import side: the import filter chain and LOCAL_PREF by
    relationship.  Export is the process-wide :data:`EXPORT_GRID`.

    Frozen after set-up: one instance serves every speaker with the same
    import rule, and checkpoint forks share it.
    """

    def __init__(self, import_filter: Optional[RouteFilter] = None):
        self.import_filter = import_filter or AcceptAll()
        self.local_pref = dict(DEFAULT_LOCAL_PREF)

    def __repr__(self) -> str:
        return f"Policy(import={self.import_filter!r})"
