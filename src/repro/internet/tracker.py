"""Ground-truth origin tracking.

Experiments need to know, at every instant, which origin AS *every* AS in
the simulated Internet routes a victim's address space towards — that is the
data-plane truth that detection output is compared against and that defines
"mitigation completed" (paper Phase-3: "until all the vantage points in our
data have switched to the legitimate ASN-1").

:class:`OriginTracker` subscribes to every speaker's Loc-RIB change hook and
incrementally maintains the origin each AS selects for a set of probe
addresses (one per potential de-aggregated sub-prefix, so a /23 watch tracks
both /24 halves).  It snapshots the initial state and records every flip,
so any past instant can be reconstructed exactly — event-driven timing, no
polling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.bgp.route import Route
from repro.bgp.speaker import BGPSpeaker
from repro.internet.network import Network
from repro.net.prefix import Address, Prefix

def _selected_origin(speaker: BGPSpeaker, probe: Address) -> Optional[int]:
    """Default tracked value: the origin AS the speaker selects for ``probe``.

    A module-level function (not a lambda) so trackers — and the experiment
    checkpoints that contain them — deep-copy and pickle cleanly.
    """
    return speaker.resolve_origin(probe)


class OriginTracker:
    """Event-driven data-plane origin map for one watched prefix."""

    def __init__(
        self,
        network: Network,
        watch: Union[Address, Prefix, str],
        probe_depth: int = 1,
        value_fn=None,
    ):
        """``value_fn(speaker, probe_address)`` extracts the tracked value
        per probe; the default is the selected origin AS.  Any hashable
        value works — e.g. :class:`~repro.testbed.scenario.PathPresenceProbe`
        tracks whether a given AS appears on the selected path (type-1
        hijack ground truth).  An address ``watch`` is its host prefix.
        """
        watch = Network._normalize_target(watch)
        self.network = network
        self.watch = watch
        self._value_fn = value_fn or _selected_origin
        #: One probe address per sub-prefix ``probe_depth`` levels down, so
        #: per-half divergence after de-aggregation is visible.
        depth = min(watch.length + max(0, probe_depth), watch.bits)
        self.probes: List[Address] = [child.network for child in watch.subnets(depth)]
        #: Precomputed watch-overlap operands: ``_on_change`` fires on every
        #: Loc-RIB change network-wide, so the overlap test is inlined bitwise.
        self._watch_shift = watch.bits - watch.length
        self._watch_top = watch.value >> self._watch_shift
        #: One row per AS: its probe values now, kept current on every flip.
        self._per_as: Dict[int, List[Optional[int]]] = {}
        #: Per AS, when tracking began and its row then: where replay starts.
        self._start: Dict[int, Tuple[float, Tuple[Optional[int], ...]]] = {}
        #: Flip log: (time, asn, probe_index, new_origin), append-only.
        self.flips: List[Tuple[float, int, int, Optional[int]]] = []
        for speaker in self.network.speakers.values():
            self.track_speaker(speaker)

    def track_speaker(self, speaker: BGPSpeaker) -> None:
        """Start tracking an AS (also used for ASes attached later)."""
        row = [self._value_fn(speaker, probe) for probe in self.probes]
        self._per_as[speaker.asn] = row
        self._start[speaker.asn] = (self.network.engine.now, tuple(row))
        speaker.on_best_change(self._on_change)

    def _on_change(
        self,
        speaker: BGPSpeaker,
        prefix: Prefix,
        new_route: Optional[Route],
        old_route: Optional[Route],
    ) -> None:
        watch = self.watch
        if prefix.version != watch.version:
            return
        # Inline prefix.overlaps(watch): compare on the shorter length.
        if prefix.length >= watch.length:
            if (prefix.value >> self._watch_shift) != self._watch_top:
                return
        else:
            shift = watch.bits - prefix.length
            if (watch.value >> shift) != (prefix.value >> shift):
                return
        now = self.network.engine.now
        asn = speaker.asn
        row = self._per_as[asn]
        for index, probe in enumerate(self.probes):
            value = self._value_fn(speaker, probe)
            if row[index] != value:
                row[index] = value
                self.flips.append((now, asn, index, value))

    # ------------------------------------------------------------------- views

    def tracked_asns(self) -> List[int]:
        return sorted(self._per_as)

    @staticmethod
    def _mode_check(mode: str):
        """The per-AS probe aggregator for a fraction ``mode``.

        ``mode="all"`` — every probe must resolve into the accepted set
        (full recovery semantics); ``mode="any"`` — at least one probe does
        (partial capture semantics, e.g. a sub-prefix hijack that only
        steals one /24 of the owned space).
        """
        if mode == "all":
            return all
        if mode == "any":
            return any
        raise ValueError(f"unknown fraction mode {mode!r}")

    def fraction_routing_to(
        self, origins: Union[int, Set[int]], mode: str = "all"
    ) -> float:
        """Fraction of tracked ASes resolving into ``origins`` (see ``mode``)."""
        accepted = {origins} if isinstance(origins, int) else set(origins)
        check = self._mode_check(mode)
        per_as = self._per_as
        if not per_as:
            return 0.0
        good = sum(
            1
            for values in per_as.values()
            if check(value in accepted for value in values)
        )
        return good / len(per_as)

    def all_route_to(self, origins: Union[int, Set[int]]) -> bool:
        """True when every probe of every tracked AS resolves into ``origins``.

        Short-circuits on the first non-conforming AS instead of computing
        the full fraction — this is polled in the convergence loops.
        """
        accepted = {origins} if isinstance(origins, int) else set(origins)
        per_as = self._per_as
        if not per_as:
            return False
        return all(
            value in accepted for values in per_as.values() for value in values
        )

    # ------------------------------------------------------------------ replay

    def fraction_series(
        self,
        origins: Union[int, Set[int]],
        start_time: float = 0.0,
        mode: str = "all",
    ) -> List[Tuple[float, float]]:
        """(time, fraction in ``origins``) at ``start_time`` and after every
        subsequent flip — the exact ground-truth recovery curve.

        The replay maintains per-AS probe rows and a running good-AS count,
        so each flip costs O(probes) instead of rebuilding the whole AS map:
        O(flips x probes) overall where the naive replay is O(flips x ASes).
        """
        accepted = {origins} if isinstance(origins, int) else set(origins)
        check = self._mode_check(mode)
        num_probes = len(self.probes)
        # The rows at start_time: each AS tracked by then, from its initial
        # row forward through the flips up to start_time.
        per_as = {
            asn: list(initial)
            for asn, (since, initial) in self._start.items()
            if since <= start_time
        }
        for flip_time, asn, index, origin in self.flips:
            if flip_time > start_time:
                break
            row = per_as.get(asn)
            if row is not None:
                row[index] = origin
        good = sum(
            1
            for values in per_as.values()
            if check(value in accepted for value in values)
        )
        series = [(start_time, good / len(per_as) if per_as else 0.0)]
        for flip_time, asn, index, origin in self.flips:
            if flip_time <= start_time:
                continue
            row = per_as.get(asn)
            if row is None:
                # An AS first tracked mid-replay joins the denominator here.
                row = per_as[asn] = [None] * num_probes
                if check(value in accepted for value in row):
                    good += 1
            if check(value in accepted for value in row):
                row[index] = origin
                if not check(value in accepted for value in row):
                    good -= 1
            else:
                row[index] = origin
                if check(value in accepted for value in row):
                    good += 1
            series.append((flip_time, good / len(per_as)))
        return series

    def first_time_all_route_to(
        self,
        origins: Union[int, Set[int]],
        since: float,
    ) -> Optional[float]:
        """Earliest time ≥ ``since`` when every AS routed only into ``origins``.

        ``None`` if that has not happened yet.  This is the paper's
        "mitigation completed" instant.
        """
        for when, fraction in self.fraction_series(origins, start_time=since):
            if fraction == 1.0:
                return max(when, since)
        return None

    def __repr__(self) -> str:
        return (
            f"<OriginTracker {self.watch} probes={len(self.probes)} "
            f"ases={len(self.tracked_asns())} flips={len(self.flips)}>"
        )
