"""Spans recorded from outside the program, and per-layer self time.

A span is (id, layer, name, start, end, parent, run id).  A layer's self
time is its spans' duration minus the part their child spans cover.  Spans
are aggregated in memory per (layer, entry function) as they close, with
a bounded sample of raw spans kept for inspection; nothing is written
until the run ends (:meth:`Spans.dump`).

Two ways to open spans, both from the bench's own files:

* ``with spans.span(layer, name):`` around a call into a layer's public
  function — how the ``replay_*`` stages are traced;
* :class:`LayerProfiler`, a ``sys.setprofile`` hook that opens a span
  whenever a Python call crosses from one ``repro.<package>`` into
  another and closes it on return — how ``sim_1000as`` is traced, where
  the engine dispatches private callbacks that no wrapper around a public
  method would see.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: Raw spans kept per run; aggregates cover every span regardless.
SAMPLE_LIMIT = 2000


class Spans:
    """In-memory span recorder with per-(layer, name) aggregation."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self._clock = clock
        #: Open spans, innermost last: [id, layer, name, start, child time].
        self._stack: List[list] = []
        self._next_id = 1
        #: (layer, name) -> [count, total seconds, self seconds].
        self.aggregates: Dict[Tuple[str, str], List[float]] = {}
        self.sample: List[Dict] = []

    def open(self, layer: str, name: str) -> None:
        self._stack.append([self._next_id, layer, name, self._clock(), 0.0])
        self._next_id += 1

    def close(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self._clock()
        span_id, layer, name, start, child_time = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][4] += duration
            parent = self._stack[-1][0]
        entry = self.aggregates.get((layer, name))
        if entry is None:
            entry = self.aggregates[(layer, name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time
        if len(self.sample) < SAMPLE_LIMIT:
            self.sample.append(
                {
                    "id": span_id, "run": self.run_id, "layer": layer,
                    "name": name, "start": start, "end": end, "parent": parent,
                }
            )
        return duration

    @contextmanager
    def span(self, layer: str, name: str):
        self.open(layer, name)
        try:
            yield
        finally:
            self.close()

    def total(self, layer: str, name: str) -> float:
        """Seconds spent in all closed (layer, name) spans."""
        return self.aggregates[(layer, name)][1]

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """Per layer: span count, total and self seconds, share of self time."""
        layers: Dict[str, Dict[str, float]] = {}
        for (layer, _name), (count, total, self_time) in self.aggregates.items():
            row = layers.setdefault(layer, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += count
            row["total_s"] += total
            row["self_s"] += self_time
        whole = sum(row["self_s"] for row in layers.values())
        for row in layers.values():
            row["share"] = row["self_s"] / whole if whole > 0 else 0.0
        return layers

    def to_dict(self) -> Dict:
        return {
            "run": self.run_id,
            "layers": self.by_layer(),
            "entries": [
                {"layer": layer, "name": name, "spans": count,
                 "total_s": total, "self_s": self_time}
                for (layer, name), (count, total, self_time) in sorted(
                    self.aggregates.items(), key=lambda item: -item[1][2]
                )
            ],
            "sample": self.sample,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """``repro.bgp.speaker`` -> ``bgp``; anything outside ``repro`` -> None."""
    if not module or not module.startswith("repro."):
        return None
    return module.split(".", 2)[1]


class LayerProfiler:
    """Open a span on every call that crosses between ``repro`` packages.

    Calls into the standard library and C functions stay attributed to
    the layer that made them.  The previous profile function is restored
    on exit, whatever the traced code did.
    """

    def __init__(self, spans: Spans):
        self.spans = spans
        self._stack = spans._stack
        self._layers: Dict[object, Optional[str]] = {}
        #: One flag per Python frame entered under the hook: did it open a span?
        self._opened: List[bool] = []
        self._previous = None

    def _hook(self, frame, event, _arg):
        if event == "call":
            code = frame.f_code
            try:
                layer = self._layers[code]
            except KeyError:
                layer = self._layers[code] = layer_of_module(
                    frame.f_globals.get("__name__")
                )
            stack = self._stack
            if layer is not None and (not stack or stack[-1][1] != layer):
                self.spans.open(layer, getattr(code, "co_qualname", code.co_name))
                self._opened.append(True)
            else:
                self._opened.append(False)
        elif event == "return":
            # Frames entered before the hook was installed return with
            # nothing on the stack.
            if self._opened and self._opened.pop():
                self.spans.close()

    def __enter__(self) -> "LayerProfiler":
        self._previous = sys.getprofile()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(self._previous)
        # Frames still open (the ``with`` body's own callers) never return
        # under the hook; close what they opened.
        while self._opened:
            if self._opened.pop():
                self.spans.close()
