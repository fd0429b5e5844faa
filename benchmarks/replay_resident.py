"""Resident set of the ``replay_steady`` timed path, by stage and by owner.

Regenerates DESIGN.md's "Replay resident set" table.  Run each mode in a
fresh process, after ``python3 bench/run.py --smoke`` has left the seed-11
base trace in ``bench/.cache``::

    PYTHONHASHSEED=0 python3 benchmarks/replay_resident.py rss
    PYTHONHASHSEED=0 python3 benchmarks/replay_resident.py malloc

``rss`` prints RSS (``/proc/self/statm``, MiB) after each stage of what
``bench/rep.py::timed_replay`` does; ``malloc`` runs the same path under
``tracemalloc`` and prints what the compiled ground truth costs per
monitored row (the figure ``tests/test_tenants.py`` pins at a tenth of the
size), then live bytes grouped by allocating module and the largest
allocating lines.  Not a test and not part of ``bench/``: it
claims nothing, it attributes.
"""

from __future__ import annotations

import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]
MIB = 1 << 20


def rss_mib() -> float:
    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() / MIB


def main(mode: str) -> None:
    if mode == "malloc":
        import tracemalloc

        tracemalloc.start(1)
    stages = [("interpreter", rss_mib())]
    import inputs
    import rep
    from repro.feeds.replay import load_trace
    from repro.tenants import DetectionPlane

    stages.append(("imports", rss_mib()))
    prepared = inputs.prepare("replay_steady", inputs.DEFAULT_SEED)
    origins = rep.origin_map(prepared["summary"])
    traced = tracemalloc.get_traced_memory()[0] if mode == "malloc" else 0
    registry = rep.build_registry(origins)
    stages.append(("registry build", rss_mib()))
    plane = DetectionPlane(registry, batch_size=rep.BATCH_SIZE)
    stages.append(("tree + plane", rss_mib()))
    if mode == "malloc":
        traced = tracemalloc.get_traced_memory()[0] - traced
        print(
            f"registry + tree  {traced / MIB:8.2f} MiB traced, "
            f"{traced / registry.num_rules:.1f} B per monitored row "
            f"({registry.num_rules} rows, {len(plane.tree)} prefixes)"
        )
    trace = load_trace(prepared["trace"])
    stages.append(("load_trace", rss_mib()))
    for event in trace.events:
        plane.ingest(event)
    plane.flush()
    digest = plane.digest()
    stages.append(("ingest", rss_mib()))
    records = len(trace.events)
    if mode == "rss":
        previous = 0.0
        for name, value in stages:
            print(f"{name:16s} {value:8.1f} MiB  (+{value - previous:.1f})")
            previous = value
        loaded = stages[4][1] - stages[3][1]
        print(f"per record       {loaded * MIB / records:8.1f} B of RSS over {records} records")
        print(f"peak RSS         {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:8.1f} MiB")
        print(f"digest           {digest[:12]}")
        return
    snapshot = tracemalloc.take_snapshot()
    by_module = {}
    for stat in snapshot.statistics("filename"):
        name = stat.traceback[0].filename
        key = name.split("/src/repro/")[-1] if "/src/repro/" in name else "other"
        by_module[key] = by_module.get(key, 0) + stat.size
    for key, size in sorted(by_module.items(), key=lambda item: -item[1])[:10]:
        print(f"{key:28s} {size / MIB:8.2f} MiB")
    for stat in snapshot.statistics("lineno")[:14]:
        frame = stat.traceback[0]
        where = frame.filename.split("/repro/")[-1]
        print(f"  {where}:{frame.lineno}  {stat.size / MIB:.2f} MiB in {stat.count} blocks")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("rss", "malloc"):
        sys.exit(__doc__)
    main(sys.argv[1])
