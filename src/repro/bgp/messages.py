"""BGP UPDATE message model.

An :class:`UpdateMessage` carries announcements and withdrawals between two
speakers over a :class:`~repro.bgp.session.Session`, exactly like the NLRI /
withdrawn-routes fields of a wire UPDATE.  Messages are immutable value
objects; the AS path is stored as a tuple so accidental mutation during
propagation is impossible.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.errors import BGPError
from repro.net.prefix import Prefix
from repro.perf import COUNTERS as _C

#: Interned AS-path tuples.  Propagation re-creates the same paths at every
#: hop (each AS prepends itself to a path its neighbors also carry), so one
#: canonical tuple per distinct path removes most of the per-UPDATE tuple
#: churn and turns many path-equality checks into identity hits.
_PATH_CACHE: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
_PATH_CACHE_LIMIT = 1 << 20


def intern_path(path: Sequence[int]) -> Tuple[int, ...]:
    """The canonical tuple for ``path`` (coerced to ints)."""
    key = path if type(path) is tuple else tuple(path)
    cached = _PATH_CACHE.get(key)
    if cached is not None:
        _C.path_intern_hits += 1
        return cached
    _C.path_intern_misses += 1
    canonical = tuple(int(a) for a in key)
    if len(_PATH_CACHE) >= _PATH_CACHE_LIMIT:
        _PATH_CACHE.clear()
    _PATH_CACHE[canonical] = canonical
    return canonical


class Announcement:
    """One announced NLRI with its AS path.

    ``as_path[0]`` is the most recent (sending) AS and ``as_path[-1]`` is the
    origin AS — the convention used by route collectors and looking glasses.
    """

    __slots__ = ("prefix", "as_path")

    def __init__(self, prefix: Prefix, as_path: Sequence[int]):
        if not as_path:
            raise BGPError(f"announcement for {prefix} has an empty AS path")
        self.prefix = prefix
        self.as_path: Tuple[int, ...] = intern_path(as_path)

    @property
    def origin_as(self) -> int:
        """The AS that originated the prefix (last path element)."""
        return self.as_path[-1]

    @property
    def sender_as(self) -> int:
        """The AS that sent this announcement (first path element)."""
        return self.as_path[0]

    def __deepcopy__(self, memo) -> "Announcement":
        # Immutable value object: checkpoint forks share announcements
        # (Adj-RIB-Out tables, in-flight updates) structurally.
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Announcement):
            return NotImplemented
        return self.prefix == other.prefix and self.as_path == other.as_path

    def __hash__(self) -> int:
        return hash((self.prefix, self.as_path))

    def __repr__(self) -> str:
        path = " ".join(str(a) for a in self.as_path)
        return f"Announcement({self.prefix} path=[{path}])"


class Withdrawal:
    """A withdrawn NLRI."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: Prefix):
        self.prefix = prefix

    def __deepcopy__(self, memo) -> "Withdrawal":
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Withdrawal):
            return NotImplemented
        return self.prefix == other.prefix

    def __hash__(self) -> int:
        return hash(("withdraw", self.prefix))

    def __repr__(self) -> str:
        return f"Withdrawal({self.prefix})"


class UpdateMessage:
    """A batch of announcements and withdrawals sent over one session.

    MRAI batching naturally produces multi-prefix updates; keeping them in one
    message mirrors the wire protocol and lets feeds timestamp them together.
    """

    __slots__ = ("sender_asn", "announcements", "withdrawals")

    def __init__(
        self,
        sender_asn: int,
        announcements: Sequence[Announcement] = (),
        withdrawals: Sequence[Withdrawal] = (),
    ):
        if not announcements and not withdrawals:
            raise BGPError("an UPDATE must announce or withdraw something")
        self.sender_asn = int(sender_asn)
        self.announcements: Tuple[Announcement, ...] = tuple(announcements)
        self.withdrawals: Tuple[Withdrawal, ...] = tuple(withdrawals)
        for announcement in self.announcements:
            if announcement.sender_as != self.sender_asn:
                raise BGPError(
                    f"announcement {announcement} does not start with sender "
                    f"AS {self.sender_asn}"
                )

    def __deepcopy__(self, memo) -> "UpdateMessage":
        # Tuples of shared immutable parts — safe to share whole.
        return self

    @property
    def size(self) -> int:
        """Number of NLRI entries carried (announce + withdraw)."""
        return len(self.announcements) + len(self.withdrawals)

    def __repr__(self) -> str:
        return (
            f"UpdateMessage(from=AS{self.sender_asn} "
            f"+{len(self.announcements)} -{len(self.withdrawals)})"
        )
