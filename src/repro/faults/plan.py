"""Fault plans: a declarative, serialisable schedule of monitoring faults.

A plan is a list of :class:`Fault` entries.  Each entry names a *kind*, a
*target* in the deployed monitoring infrastructure, a start time ``at``
(seconds relative to the moment the plan is armed — the hijack announcement
in experiments) and, for window faults, a ``duration``.

Kinds
-----

``outage``
    The target source's transport goes down for the window: events observed
    or in flight during it are lost.  Targets: a source name (``ris``,
    ``bgpmon``, ``periscope``, the ``routeviews`` batch archive, the
    ``rib-only`` archive when deployed) or a single looking-glass name
    (``lg-<asn>``).
``delay``
    Publication-latency inflation on a stream source for the window:
    each sampled latency becomes ``latency * factor + add``.
``loss`` / ``dup`` / ``reorder``
    Per-message channel faults on a collector (or every collector of a
    source): each arriving UPDATE is independently dropped, duplicated, or
    re-delivered after an extra ``jitter``-bounded delay (which breaks the
    session FIFO order) with probability ``probability``.
``collector_crash``
    The collector loses all state at ``at`` and restarts ``duration``
    seconds later; on restart every vantage session re-syncs its full RIB
    (BGP initial-advertisement semantics).
``flap``
    One vantage session (``target`` = collector name, ``vantage`` = ASN)
    goes down/up every ``period`` seconds for the window.

Times are validated to be non-negative; windowed faults need a positive
duration.  Plans are value objects: the injector never mutates them, so one
plan can be shared across a whole seeded suite.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError


class FaultError(ReproError):
    """An invalid fault plan or an unresolvable fault target."""


#: Fault kinds that apply to a window and therefore need a duration.
_WINDOW_KINDS = ("delay", "loss", "dup", "reorder", "collector_crash", "flap")

#: All recognised kinds.
KINDS = ("outage",) + _WINDOW_KINDS


class Fault:
    """One scheduled fault against one target."""

    __slots__ = (
        "kind",
        "target",
        "at",
        "duration",
        "probability",
        "factor",
        "add",
        "jitter",
        "period",
        "vantage",
    )

    def __init__(
        self,
        kind: str,
        target: str,
        at: float,
        duration: Optional[float] = None,
        probability: float = 1.0,
        factor: float = 1.0,
        add: float = 0.0,
        jitter: float = 5.0,
        period: float = 10.0,
        vantage: Optional[int] = None,
    ):
        if kind not in KINDS:
            raise FaultError(f"unknown fault kind {kind!r} (known: {KINDS})")
        if at < 0:
            raise FaultError(f"fault time must be >= 0 (relative), got {at}")
        if kind in _WINDOW_KINDS and (duration is None or duration <= 0):
            raise FaultError(f"{kind} fault needs a positive duration")
        if duration is not None and duration <= 0:
            raise FaultError(f"fault duration must be positive, got {duration}")
        if not 0.0 <= probability <= 1.0:
            raise FaultError(f"probability must be in [0, 1], got {probability}")
        if factor < 0 or add < 0 or jitter < 0:
            raise FaultError("delay parameters must be non-negative")
        if period <= 0:
            raise FaultError(f"flap period must be positive, got {period}")
        if kind == "flap" and vantage is None:
            raise FaultError("flap fault needs a vantage ASN")
        self.kind = kind
        self.target = str(target)
        self.at = float(at)
        #: ``None`` means "until the end of the run" (outages only).
        self.duration = None if duration is None else float(duration)
        self.probability = float(probability)
        self.factor = float(factor)
        self.add = float(add)
        self.jitter = float(jitter)
        self.period = float(period)
        self.vantage = None if vantage is None else int(vantage)

    def __deepcopy__(self, memo) -> "Fault":
        # Faults are frozen after validation; the injector never mutates
        # them, so checkpoint forks share them.
        return self

    @property
    def until(self) -> Optional[float]:
        """Relative end time of the fault window (None = open-ended)."""
        if self.duration is None:
            return None
        return self.at + self.duration

    def to_dict(self) -> Dict:
        data: Dict = {"kind": self.kind, "target": self.target, "at": self.at}
        if self.duration is not None:
            data["duration"] = self.duration
        if self.kind in ("loss", "dup", "reorder"):
            data["probability"] = self.probability
        if self.kind == "delay":
            data["factor"] = self.factor
            data["add"] = self.add
        if self.kind == "reorder":
            data["jitter"] = self.jitter
        if self.kind == "flap":
            data["period"] = self.period
            data["vantage"] = self.vantage
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Fault":
        known = {
            "kind",
            "target",
            "at",
            "duration",
            "probability",
            "factor",
            "add",
            "jitter",
            "period",
            "vantage",
        }
        unknown = set(data) - known
        if unknown:
            raise FaultError(f"unknown fault fields {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise FaultError(f"invalid fault entry {data!r}: {exc}") from None

    def __repr__(self) -> str:
        window = (
            f"[{self.at:.1f}s, +∞)"
            if self.duration is None
            else f"[{self.at:.1f}s, {self.until:.1f}s)"
        )
        return f"Fault({self.kind} {self.target} {window})"


class FaultPlan:
    """An ordered, seeded schedule of faults.

    ``seed`` feeds the probabilistic faults (loss / dup / reorder); it is
    combined with the experiment seed, so the same plan replayed under two
    scenario seeds draws independent coin flips while staying reproducible.
    """

    def __init__(self, faults: Sequence[Fault] = (), seed: int = 0, name: str = "plan"):
        self.faults: List[Fault] = list(faults)
        self.seed = int(seed)
        self.name = str(name)

    def __deepcopy__(self, memo) -> "FaultPlan":
        # Value object by convention (see the module docstring): one plan is
        # shared across a whole seeded suite, so forks share it too.
        return self

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultError(f"fault plan must be a JSON object, got {type(data)}")
        unknown = set(data) - {"name", "seed", "faults"}
        if unknown:
            raise FaultError(f"unknown plan fields {sorted(unknown)}")
        entries = data.get("faults", [])
        if not isinstance(entries, list):
            raise FaultError("plan 'faults' must be a list")
        return cls(
            faults=[Fault.from_dict(entry) for entry in entries],
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "plan")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def __repr__(self) -> str:
        return f"<FaultPlan {self.name!r} faults={len(self.faults)} seed={self.seed}>"


def load_plan(path: str) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return FaultPlan.from_json(handle.read())
