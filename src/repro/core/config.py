"""ARTEMIS configuration.

The operator declares ground truth about their own network — which prefixes
they own, which ASNs may legitimately originate them, and (optionally) which
upstreams should appear as first hop — plus operational knobs for detection
and mitigation.  Because the configuration comes from the operator
themselves, detection needs no third-party verification step: any
announcement contradicting it is by definition an incident (this is the core
argument of the ARTEMIS approach).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.bgp.policy import MAX_PREFIX_LENGTH
from repro.errors import ConfigError
from repro.net.prefix import Prefix


class OwnedPrefix:
    """One owned prefix with its legitimacy ground truth.

    ``legit_origins`` — ASNs allowed to originate the prefix (usually just
    the operator's ASN; anycast or multi-origin setups list several).
    ``legit_upstreams`` — if given, the set of neighbor ASNs that may appear
    adjacent to a legit origin in an AS path; enables path (type-1 hijack)
    detection, an extension beyond the demo's origin check.
    """

    __slots__ = ("prefix", "legit_origins", "legit_upstreams", "description")

    def __init__(
        self,
        prefix: Union[Prefix, str],
        legit_origins: Iterable[int],
        legit_upstreams: Optional[Iterable[int]] = None,
        description: str = "",
    ):
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self.prefix = prefix
        self.legit_origins: FrozenSet[int] = frozenset(map(int, legit_origins))
        if not self.legit_origins:
            raise ConfigError(f"owned prefix {prefix} needs at least one legit origin")
        self.legit_upstreams: Optional[FrozenSet[int]] = (
            frozenset(map(int, legit_upstreams))
            if legit_upstreams is not None
            else None
        )
        self.description = description

    def origin_is_legit(self, origin_asn: Optional[int]) -> bool:
        return origin_asn is not None and int(origin_asn) in self.legit_origins

    def to_dict(self) -> Dict:
        data: Dict = {
            "prefix": str(self.prefix),
            "legit_origins": sorted(self.legit_origins),
        }
        if self.legit_upstreams is not None:
            data["legit_upstreams"] = sorted(self.legit_upstreams)
        if self.description:
            data["description"] = self.description
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "OwnedPrefix":
        try:
            return cls(
                data["prefix"],
                data["legit_origins"],
                data.get("legit_upstreams"),
                data.get("description", ""),
            )
        except KeyError as missing:
            raise ConfigError(f"owned prefix entry missing key {missing}") from None

    def __repr__(self) -> str:
        origins = ",".join(str(a) for a in sorted(self.legit_origins))
        return f"OwnedPrefix({self.prefix} origins=[{origins}])"


class OwnedSpace:
    """Address space the operator holds but does not announce.

    Anything originated inside it — by anyone except the operator's own
    ASNs (``legit_origins``) — is prefix *squatting*: the squatter is not
    competing with any announcement, so origin/path checks never see a
    conflict and only this covered-but-unconfigured rule catches it.
    """

    __slots__ = ("prefix", "legit_origins", "description")

    def __init__(
        self,
        prefix: Union[Prefix, str],
        legit_origins: Iterable[int],
        description: str = "",
    ):
        if isinstance(prefix, str):
            prefix = Prefix.parse(prefix)
        self.prefix = prefix
        self.legit_origins: FrozenSet[int] = frozenset(map(int, legit_origins))
        if not self.legit_origins:
            raise ConfigError(f"owned space {prefix} needs at least one legit origin")
        self.description = description

    def to_dict(self) -> Dict:
        data: Dict = {
            "prefix": str(self.prefix),
            "legit_origins": sorted(self.legit_origins),
        }
        if self.description:
            data["description"] = self.description
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "OwnedSpace":
        try:
            return cls(
                data["prefix"],
                data["legit_origins"],
                data.get("description", ""),
            )
        except KeyError as missing:
            raise ConfigError(f"owned space entry missing key {missing}") from None

    def __repr__(self) -> str:
        origins = ",".join(str(a) for a in sorted(self.legit_origins))
        return f"OwnedSpace({self.prefix} origins=[{origins}])"


def normalize_adjacencies(
    adjacencies: Optional[Dict[int, Iterable[int]]],
) -> Optional[Dict[int, FrozenSet[int]]]:
    """Canonical (int-keyed, frozenset-valued) form of an adjacency map."""
    if adjacencies is None:
        return None
    return {
        int(asn): frozenset(int(n) for n in neighbors)
        for asn, neighbors in adjacencies.items()
    }


class ArtemisConfig:
    """Full ARTEMIS configuration."""

    def __init__(
        self,
        owned: Sequence[OwnedPrefix],
        auto_mitigate: bool = True,
        max_announce_length_v4: int = MAX_PREFIX_LENGTH[4],
        max_announce_length_v6: int = MAX_PREFIX_LENGTH[6],
        deaggregation_levels: int = 1,
        detect_subprefix: bool = True,
        detect_path: bool = True,
        alert_cooldown: float = 0.0,
        owned_space: Sequence[OwnedSpace] = (),
        adjacencies: Optional[Dict[int, Iterable[int]]] = None,
        leak_sentinels: Optional[Iterable[int]] = None,
        detect_squatting: bool = True,
        detect_unchanged_path: bool = True,
    ):
        if not owned:
            raise ConfigError("ARTEMIS needs at least one owned prefix")
        self.owned: List[OwnedPrefix] = list(owned)
        self._owned_by_key: Dict[int, OwnedPrefix] = {}
        for entry in self.owned:
            if entry.prefix.ikey in self._owned_by_key:
                raise ConfigError(f"duplicate owned prefix {entry.prefix}")
            self._owned_by_key[entry.prefix.ikey] = entry
        #: Held-but-unannounced space (squatting ground truth).
        self.owned_space: List[OwnedSpace] = list(owned_space)
        self._space_by_key: Dict[int, OwnedSpace] = {}
        for space in self.owned_space:
            if space.prefix.ikey in self._space_by_key:
                raise ConfigError(f"duplicate owned space {space.prefix}")
            if space.prefix.ikey in self._owned_by_key:
                raise ConfigError(
                    f"{space.prefix} configured as both owned prefix and owned space"
                )
            self._space_by_key[space.prefix.ikey] = space
        #: Configured/learned AS adjacency map for hop-N path verification
        #: (``None`` disables the type-N rule, as partial maps are normal).
        self.adjacencies: Optional[Dict[int, FrozenSet[int]]] = (
            normalize_adjacencies(adjacencies)
        )
        #: ASes known to be stubs (never legitimate transit); one of them
        #: strictly interior to an AS path means a route leak.
        self.leak_sentinels: Optional[FrozenSet[int]] = (
            frozenset(int(a) for a in leak_sentinels)
            if leak_sentinels is not None
            else None
        )
        self.detect_squatting = bool(detect_squatting)
        self.detect_unchanged_path = bool(detect_unchanged_path)
        #: Announce nothing more specific than this (ISP filtering reality).
        self.max_announce_length_v4 = int(max_announce_length_v4)
        self.max_announce_length_v6 = int(max_announce_length_v6)
        #: How many levels to split on mitigation (1 → /23 becomes two /24s).
        if deaggregation_levels < 1:
            raise ConfigError("deaggregation_levels must be >= 1")
        self.deaggregation_levels = int(deaggregation_levels)
        self.auto_mitigate = bool(auto_mitigate)
        self.detect_subprefix = bool(detect_subprefix)
        self.detect_path = bool(detect_path)
        #: Suppress duplicate alerts for the same incident within this window.
        if alert_cooldown < 0:
            raise ConfigError("alert_cooldown must be non-negative")
        self.alert_cooldown = float(alert_cooldown)

    # ------------------------------------------------------------------ lookup

    @property
    def owned_prefixes(self) -> List[Prefix]:
        return [entry.prefix for entry in self.owned]

    @property
    def monitored_prefixes(self) -> List[Prefix]:
        """All prefixes detection must see feed events for (owned + space)."""
        return [entry.prefix for entry in self.owned] + [
            space.prefix for space in self.owned_space
        ]

    def entry_for(self, prefix: Prefix) -> Optional[OwnedPrefix]:
        """Exact owned entry for ``prefix``, if configured."""
        return self._owned_by_key.get(prefix.ikey)

    def max_announce_length(self, version: int) -> int:
        return self.max_announce_length_v4 if version == 4 else self.max_announce_length_v6

    # ------------------------------------------------------------- persistence

    def to_dict(self) -> Dict:
        data = {
            "owned": [entry.to_dict() for entry in self.owned],
            "auto_mitigate": self.auto_mitigate,
            "max_announce_length_v4": self.max_announce_length_v4,
            "max_announce_length_v6": self.max_announce_length_v6,
            "deaggregation_levels": self.deaggregation_levels,
            "detect_subprefix": self.detect_subprefix,
            "detect_path": self.detect_path,
            "alert_cooldown": self.alert_cooldown,
            "detect_squatting": self.detect_squatting,
            "detect_unchanged_path": self.detect_unchanged_path,
        }
        if self.owned_space:
            data["owned_space"] = [space.to_dict() for space in self.owned_space]
        if self.adjacencies is not None:
            data["adjacencies"] = {
                str(asn): sorted(neighbors)
                for asn, neighbors in sorted(self.adjacencies.items())
            }
        if self.leak_sentinels is not None:
            data["leak_sentinels"] = sorted(self.leak_sentinels)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ArtemisConfig":
        if "owned" not in data:
            raise ConfigError("config missing 'owned' prefix list")
        owned = [OwnedPrefix.from_dict(entry) for entry in data["owned"]]
        return cls(
            owned,
            auto_mitigate=data.get("auto_mitigate", True),
            max_announce_length_v4=data.get(
                "max_announce_length_v4", MAX_PREFIX_LENGTH[4]
            ),
            max_announce_length_v6=data.get(
                "max_announce_length_v6", MAX_PREFIX_LENGTH[6]
            ),
            deaggregation_levels=data.get("deaggregation_levels", 1),
            detect_subprefix=data.get("detect_subprefix", True),
            detect_path=data.get("detect_path", True),
            alert_cooldown=data.get("alert_cooldown", 0.0),
            owned_space=[
                OwnedSpace.from_dict(entry) for entry in data.get("owned_space", ())
            ],
            adjacencies=data.get("adjacencies"),
            leak_sentinels=data.get("leak_sentinels"),
            detect_squatting=data.get("detect_squatting", True),
            detect_unchanged_path=data.get("detect_unchanged_path", True),
        )

    def __repr__(self) -> str:
        return (
            f"ArtemisConfig({len(self.owned)} owned prefixes, "
            f"auto_mitigate={self.auto_mitigate})"
        )
