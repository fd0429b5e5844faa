"""Routing policy: business relationships, Gao-Rexford rules, the import rule.

The policy model is the standard economic one:

* **import preference** — customer-learned routes are most preferred (they
  earn money), then peer-learned, then provider-learned;
* **export (valley-free) rule** — routes learned from a customer are exported
  to everyone; routes learned from a peer or provider are exported only to
  customers.  Self-originated routes go to everyone.

It is exactly this policy structure that makes a hijack *partially*
successful (only ASes economically "closer" to the hijacker switch), which is
the behaviour ARTEMIS' monitoring visualises and its mitigation reverses.

Every speaker applies one import rule: drop a prefix longer than
:data:`MAX_PREFIX_LENGTH` — the widespread filtering of announcements more
specific than /24 the paper calls out, which is why de-aggregating a /24
does not work (experiment E6) — and, at an AS that enforces RPKI route-origin
validation, drop what the registry calls invalid.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple


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

#: :data:`DEFAULT_LOCAL_PREF` indexed by :data:`REL_INDEX`, so the speaker
#: reads a peer's LOCAL_PREF with its ``rel_index`` instead of an enum hash.
LOCAL_PREF_BY_INDEX: Tuple[int, ...] = tuple(
    DEFAULT_LOCAL_PREF[rel] for rel in Relationship
)

#: The longest prefix any speaker imports, by IP version: announcements more
#: specific than /24 (IPv4) or /48 (IPv6) are filtered everywhere.
MAX_PREFIX_LENGTH: Dict[int, int] = {4: 24, 6: 48}


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
