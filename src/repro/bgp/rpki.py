"""RPKI route-origin validation (RFC 6811) — the prevention side.

The paper motivates detection+mitigation with "since its prevention is not
always possible" (§1).  This module makes that trade-off measurable:

* :class:`ROA` — a Route Origin Authorization: *origin AS X may announce
  prefix P at lengths up to max_length*;
* :class:`RPKIRegistry` — the published ROA set, with RFC 6811 validation:
  an announcement is **valid** if some covering ROA matches its origin and
  length, **invalid** if covering ROAs exist but none match, **not-found**
  when no ROA covers it;
* :class:`ROVFilter` — an import filter for ROV-enforcing ASes: drop
  invalids, accept valid and not-found (standard deployment practice).

ROV stops exact-origin hijacks at adopting ASes (experiment A4 sweeps
adoption), but *cannot* stop forged-path (type-1) attacks — the origin in
the forged path is the legitimate one — which is precisely the gap ARTEMIS'
path validation covers.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional

from repro.bgp.messages import Announcement
from repro.bgp.policy import RouteFilter
from repro.errors import BGPError
from repro.net.prefix import Prefix, covering


class Validity(enum.Enum):
    """RFC 6811 validation states."""

    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "not-found"


class ROA:
    """One Route Origin Authorization."""

    __slots__ = ("prefix", "origin_asn", "max_length")

    def __init__(self, prefix: Prefix, origin_asn: int, max_length: Optional[int] = None):
        if max_length is None:
            max_length = prefix.length
        if not prefix.length <= max_length <= prefix.bits:
            raise BGPError(
                f"ROA max_length /{max_length} outside [{prefix.length}, {prefix.bits}]"
            )
        self.prefix = prefix
        self.origin_asn = int(origin_asn)
        self.max_length = int(max_length)

    def matches(self, announcement: Announcement) -> bool:
        """RFC 6811 'matched': covered, origin equal, length within bound."""
        return (
            self.prefix.contains(announcement.prefix)
            and announcement.origin_as == self.origin_asn
            and announcement.prefix.length <= self.max_length
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ROA):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.origin_asn == other.origin_asn
            and self.max_length == other.max_length
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.origin_asn, self.max_length))

    def __repr__(self) -> str:
        return f"ROA({self.prefix} AS{self.origin_asn} maxlen={self.max_length})"


class RPKIRegistry:
    """The global published ROA set.

    Mutable at any time (publishing a ROA mid-experiment takes effect on
    subsequent announcements, like the real RPKI distribution pipeline with
    zero modelled propagation delay).
    """

    def __init__(self, roas: Iterable[ROA] = ()):
        #: ROA prefix ikey -> the ROAs published for exactly that prefix.
        self._roas: Dict[int, List[ROA]] = {}
        self._count = 0
        for roa in roas:
            self.add_roa(roa)

    def add_roa(self, roa: ROA) -> None:
        bucket = self._roas.get(roa.prefix.ikey)
        if bucket is None:
            bucket = self._roas[roa.prefix.ikey] = []
        if roa in bucket:
            raise BGPError(f"duplicate {roa!r}")
        bucket.append(roa)
        self._count += 1

    def covering_roas(self, prefix: Prefix) -> List[ROA]:
        """Every ROA whose prefix covers ``prefix``."""
        return [
            roa
            for bucket in covering(self._roas, prefix)
            for roa in bucket
        ]

    def validate(self, announcement: Announcement) -> Validity:
        """RFC 6811 origin validation."""
        covering = self.covering_roas(announcement.prefix)
        if not covering:
            return Validity.NOT_FOUND
        if any(roa.matches(announcement) for roa in covering):
            return Validity.VALID
        return Validity.INVALID

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return f"<RPKIRegistry {self._count} ROAs>"


class ROVFilter(RouteFilter):
    """Import filter for a ROV-enforcing AS: drop INVALID announcements."""

    def __init__(self, registry: RPKIRegistry):
        self.registry = registry

    def accepts(self, announcement: Announcement) -> bool:
        return self.registry.validate(announcement) is not Validity.INVALID

    def __repr__(self) -> str:
        return f"ROVFilter({self.registry!r})"
