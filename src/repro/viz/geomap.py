"""Geographic visualisation of vantage-point origin choices.

The SIGCOMM demo shows "a geographical visualization of vantage points
around the globe that select the (il-)legitimate origin-AS", updating live
as the hijack spreads and the mitigation reverses it.  This module renders
the same thing without a browser:

* ASCII frames — a character world map where each vantage point shows as
  ``O`` (legitimate origin), ``X`` (hijacker), or ``.`` (no route seen);
* JSON export — a frame sequence with lat/lon/state per vantage, ready for
  any real map front-end.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.topology.graph import ASGraph

#: Map canvas size (columns × rows) for ASCII frames.
DEFAULT_WIDTH = 72
DEFAULT_HEIGHT = 18

LEGIT_MARK = "O"
HIJACKED_MARK = "X"
UNKNOWN_MARK = "."


class GeoMapRenderer:
    """Projects vantage ASes onto a world grid and renders origin states."""

    def __init__(
        self,
        graph: ASGraph,
        legit_origins: Set[int],
        width: int = DEFAULT_WIDTH,
        height: int = DEFAULT_HEIGHT,
    ):
        if width < 10 or height < 5:
            raise ReproError(f"map canvas {width}x{height} too small")
        self.graph = graph
        self.legit_origins = set(legit_origins)
        self.width = width
        self.height = height

    # -------------------------------------------------------------- projection

    def _project(self, latitude: float, longitude: float) -> Tuple[int, int]:
        """Equirectangular lat/lon → (row, col) on the canvas."""
        col = int((longitude + 180.0) / 360.0 * (self.width - 1))
        row = int((90.0 - latitude) / 180.0 * (self.height - 1))
        return max(0, min(self.height - 1, row)), max(0, min(self.width - 1, col))

    def _classify(self, origin: Optional[int]) -> str:
        if origin is None:
            return UNKNOWN_MARK
        return LEGIT_MARK if origin in self.legit_origins else HIJACKED_MARK

    def vantage_states(
        self, origins: Dict[int, Optional[int]]
    ) -> List[Dict]:
        """Per-vantage dicts (asn, lat, lon, origin, state) for export."""
        states = []
        for asn, origin in sorted(origins.items()):
            if asn not in self.graph:
                continue
            region = self.graph.node(asn).region
            if region is None:
                continue
            states.append(
                {
                    "asn": asn,
                    "region": region.name,
                    "lat": region.latitude,
                    "lon": region.longitude,
                    "origin": origin,
                    "state": (
                        "legit"
                        if self._classify(origin) == LEGIT_MARK
                        else "hijacked"
                        if self._classify(origin) == HIJACKED_MARK
                        else "unknown"
                    ),
                }
            )
        return states

    # ---------------------------------------------------------------- frames

    def ascii_frame(
        self,
        origins: Dict[int, Optional[int]],
        caption: str = "",
    ) -> str:
        """One ASCII map frame from a vantage→origin mapping.

        When several vantages land on the same cell, hijacked (``X``) wins
        the cell — bad news must never be hidden by overplotting.
        """
        grid = [[" "] * self.width for _ in range(self.height)]
        precedence = {UNKNOWN_MARK: 0, LEGIT_MARK: 1, HIJACKED_MARK: 2}
        counts = {LEGIT_MARK: 0, HIJACKED_MARK: 0, UNKNOWN_MARK: 0}
        for state in self.vantage_states(origins):
            mark = (
                LEGIT_MARK
                if state["state"] == "legit"
                else HIJACKED_MARK
                if state["state"] == "hijacked"
                else UNKNOWN_MARK
            )
            counts[mark] += 1
            row, col = self._project(state["lat"], state["lon"])
            if precedence[mark] >= precedence.get(grid[row][col], -1):
                grid[row][col] = mark
        border = "+" + "-" * self.width + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in grid)
        legend = (
            f"{LEGIT_MARK}=legit({counts[LEGIT_MARK]}) "
            f"{HIJACKED_MARK}=hijacked({counts[HIJACKED_MARK]}) "
            f"{UNKNOWN_MARK}=unknown({counts[UNKNOWN_MARK]})"
        )
        caption_line = f"{caption}\n" if caption else ""
        return f"{caption_line}{border}\n{body}\n{border}\n{legend}"

    def frames_from_transitions(
        self,
        transitions: Sequence[Tuple[float, int, object, Optional[int]]],
        initial: Optional[Dict[int, Optional[int]]] = None,
        max_frames: int = 12,
    ) -> List[Tuple[float, Dict[int, Optional[int]]]]:
        """Replay a monitoring transition log into at most ``max_frames``
        (time, origin-map) snapshots, evenly spread over the log's span."""
        state: Dict[int, Optional[int]] = dict(initial or {})
        snapshots: List[Tuple[float, Dict[int, Optional[int]]]] = []
        if not transitions:
            return [(0.0, state)]
        times = [t for t, _asn, _prefix, _origin in transitions]
        t0, t1 = times[0], times[-1]
        step = (t1 - t0) / max(1, max_frames - 1)
        next_snapshot = t0
        for when, asn, _prefix, origin in transitions:
            while when > next_snapshot and len(snapshots) < max_frames - 1:
                snapshots.append((next_snapshot, dict(state)))
                next_snapshot += step if step > 0 else float("inf")
            state[asn] = origin
        snapshots.append((t1, dict(state)))
        return snapshots

    def frames_payload(
        self, frames: Sequence[Tuple[float, Dict[int, Optional[int]]]]
    ) -> Dict[str, Any]:
        """The frame sequence as JSON-ready data: what an external map
        front-end, the HTML page and ``demo --json`` read."""
        return {
            "legit_origins": sorted(self.legit_origins),
            "frames": [
                {"time": when, "vantages": self.vantage_states(origins)}
                for when, origins in frames
            ],
        }

    def to_json(
        self,
        frames: Sequence[Tuple[float, Dict[int, Optional[int]]]],
        indent: int = 2,
    ) -> str:
        """JSON frame sequence for an external map front-end."""
        return json.dumps(self.frames_payload(frames), indent=indent)
