"""Self-contained HTML export of the demo visualisation.

The SIGCOMM demo projected a live world map of vantage points flipping to
the illegitimate origin and back.  :func:`render_html` produces the same
thing as a single HTML file — inline SVG dots on an equirectangular world,
a time slider, and play/pause — with zero external assets or network
access, so it opens anywhere.

The page embeds :meth:`~repro.viz.geomap.GeoMapRenderer.frames_payload`,
the same data ``demo --json`` writes, so the frame semantics live in one place.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence, Tuple

from repro.viz.geomap import GeoMapRenderer

_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
  body {{ font-family: system-ui, sans-serif; background: #10141a; color: #e6e6e6;
         display: flex; flex-direction: column; align-items: center; }}
  h1 {{ font-size: 1.1rem; font-weight: 600; }}
  #map {{ background: #16202b; border: 1px solid #2c3a4a; border-radius: 8px; }}
  .legit {{ fill: #3fb950; }}
  .hijacked {{ fill: #f85149; }}
  .unknown {{ fill: #8b949e; }}
  #controls {{ margin: 12px; display: flex; gap: 12px; align-items: center; }}
  #time {{ min-width: 16ch; font-variant-numeric: tabular-nums; }}
  button {{ background: #21409a; color: white; border: 0; border-radius: 6px;
           padding: 6px 14px; cursor: pointer; }}
  #counts {{ font-size: 0.9rem; color: #9fb0c3; }}
  .grid {{ stroke: #223041; stroke-width: 0.5; }}
</style>
</head>
<body>
<h1>{title}</h1>
<svg id="map" width="{width}" height="{height}" viewBox="0 0 {width} {height}">
  <g id="grid"></g>
  <g id="dots"></g>
</svg>
<div id="controls">
  <button id="play">play</button>
  <input id="slider" type="range" min="0" max="{last_frame}" value="0" step="1">
  <span id="time"></span>
</div>
<div id="counts"></div>
<script>
const DATA = {payload};
const WIDTH = {width}, HEIGHT = {height};
const svgNS = "http://www.w3.org/2000/svg";
const grid = document.getElementById("grid");
for (let lon = -180; lon <= 180; lon += 30) {{
  const x = (lon + 180) / 360 * WIDTH;
  const line = document.createElementNS(svgNS, "line");
  line.setAttribute("x1", x); line.setAttribute("x2", x);
  line.setAttribute("y1", 0); line.setAttribute("y2", HEIGHT);
  line.setAttribute("class", "grid");
  grid.appendChild(line);
}}
for (let lat = -60; lat <= 60; lat += 30) {{
  const y = (90 - lat) / 180 * HEIGHT;
  const line = document.createElementNS(svgNS, "line");
  line.setAttribute("y1", y); line.setAttribute("y2", y);
  line.setAttribute("x1", 0); line.setAttribute("x2", WIDTH);
  line.setAttribute("class", "grid");
  grid.appendChild(line);
}}
const dots = document.getElementById("dots");
const slider = document.getElementById("slider");
const timeLabel = document.getElementById("time");
const counts = document.getElementById("counts");
function project(lat, lon) {{
  return [ (lon + 180) / 360 * WIDTH, (90 - lat) / 180 * HEIGHT ];
}}
function show(index) {{
  const frame = DATA.frames[index];
  dots.replaceChildren();
  const tally = {{legit: 0, hijacked: 0, unknown: 0}};
  for (const v of frame.vantages) {{
    const [x, y] = project(v.lat, v.lon);
    const dot = document.createElementNS(svgNS, "circle");
    dot.setAttribute("cx", x); dot.setAttribute("cy", y);
    dot.setAttribute("r", v.state === "hijacked" ? 6 : 5);
    dot.setAttribute("class", v.state);
    const tip = document.createElementNS(svgNS, "title");
    tip.textContent = `AS${{v.asn}} (${{v.region}}) -> ` +
      (v.origin === null ? "no route" : "AS" + v.origin);
    dot.appendChild(tip);
    dots.appendChild(dot);
    tally[v.state] += 1;
  }}
  timeLabel.textContent = `t = ${{frame.time.toFixed(1)}} s`;
  counts.textContent =
    `legit: ${{tally.legit}}   hijacked: ${{tally.hijacked}}   ` +
    `unknown: ${{tally.unknown}}   (legit origins: ` +
    DATA.legit_origins.map(a => "AS" + a).join(", ") + `)`;
}}
slider.addEventListener("input", () => show(Number(slider.value)));
let timer = null;
document.getElementById("play").addEventListener("click", (e) => {{
  if (timer) {{ clearInterval(timer); timer = null; e.target.textContent = "play"; return; }}
  e.target.textContent = "pause";
  timer = setInterval(() => {{
    const next = (Number(slider.value) + 1) % DATA.frames.length;
    slider.value = next;
    show(next);
  }}, 800);
}});
show(0);
</script>
</body>
</html>
"""


def render_html(
    renderer: GeoMapRenderer,
    frames: Sequence[Tuple[float, Dict[int, Optional[int]]]],
    title: str = "ARTEMIS: hijack detection and mitigation",
    width: int = 860,
    height: int = 430,
) -> str:
    """Render a frame sequence into a self-contained HTML document."""
    return _TEMPLATE.format(
        title=title,
        width=width,
        height=height,
        last_frame=max(0, len(frames) - 1),
        payload=json.dumps(renderer.frames_payload(frames)),
    )


def save_html(
    path: str,
    renderer: GeoMapRenderer,
    frames: Sequence[Tuple[float, Dict[int, Optional[int]]]],
    **kwargs,
) -> None:
    """Write the HTML visualisation to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_html(renderer, frames, **kwargs))
