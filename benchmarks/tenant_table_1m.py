"""Build, RSS and resolve cost of the tenant prefix table at a million prefixes.

Regenerates the million-prefix figures in EXPERIMENTS.md "One prefix table
for tenants".  Run once per side, each in a fresh process::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 benchmarks/tenant_table_1m.py

The registry is ``build_synth_registry`` over 80 live prefixes (40 /23s and
40 /24s) at 10k tenants and 1.02M rows: 1,000,080 distinct prefixes.  The
build is timed with the cyclic collector off; the RSS delta (``statm``)
brackets the build and a ``gc.collect``; ``resolve`` is the best of three
passes over 200k probes — 100k monitored prefixes, 50k of them two bits
more specific, 50k random /24s.  Prints one JSON line.  Not a test: it
claims nothing, it measures.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time

from repro.net.prefix import Prefix
from repro.tenants import FlatPrefixTree
from repro.tenants.synth import build_synth_registry


def rss_kb() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * (os.sysconf("SC_PAGESIZE") // 1024)


def main() -> None:
    origins = {Prefix.parse(f"10.{i}.0.0/23"): 65001 + i for i in range(40)}
    origins.update({Prefix.parse(f"10.{i}.1.0/24"): 65100 + i for i in range(40)})
    registry = build_synth_registry(origins, num_tenants=10_000, num_prefixes=1_020_000)
    monitored = registry.tree.monitored_prefixes()
    rng = random.Random(7)
    probes = rng.sample(monitored, 100_000)
    probes += [Prefix(p.value, p.length + 2, 4) for p in rng.sample(monitored, 50_000)]
    probes += [Prefix(rng.getrandbits(32), 24, 4) for _ in range(50_000)]
    gc.collect()
    gc.disable()
    before = rss_kb()
    started = time.perf_counter()
    tree = FlatPrefixTree(registry)
    build_s = time.perf_counter() - started
    gc.enable()
    gc.collect()
    after = rss_kb()
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for prefix in probes:
            tree.resolve(prefix)
        best = min(best, time.perf_counter() - started)
    print(json.dumps({
        "prefixes": len(tree),
        "rules": tree.num_rules,
        "build_s": round(build_s, 3),
        "rss_delta_mb": round((after - before) / 1024, 1),
        "nbytes_mb": round(tree.nbytes() / 2**20, 1),
        "resolve_us": round(best / len(probes) * 1e6, 3),
    }))


if __name__ == "__main__":
    main()
