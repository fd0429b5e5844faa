"""Content-addressed cache of generated topologies.

Generating a 10k-AS graph takes meaningful time and is repeated identically
by every suite worker and every run on the same world.  This module serializes
a generated graph once — annotated CAIDA text via :mod:`repro.topology.serial`,
so tiers/regions/tags survive — under a digest of everything that determines
its content: the generator parameters and the seed.  A later request with
the same ``(config, seed)`` loads the file instead of regenerating.

Cache files are self-describing (``<key>.caida``) and safe to share between
concurrent processes: writers go through a same-directory temp file +
``os.replace`` so readers never observe a partial file.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Optional

from repro.topology.generator import GeneratorConfig, generate_internet
from repro.topology.graph import ASGraph
from repro.topology.serial import from_caida_lines, to_caida_lines


def graph_cache_key(config: GeneratorConfig, seed: int) -> str:
    """Stable digest of everything that determines the generated graph."""
    material = repr((
        int(seed),
        config.num_tier1,
        config.num_tier2,
        config.num_stubs,
        config.min_providers_tier2,
        config.max_providers_tier2,
        config.min_providers_stub,
        config.max_providers_stub,
        config.tier2_peering_prob,
        config.same_region_peering_boost,
        config.first_asn,
        tuple(region.name for region in config.regions),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:24]


def cache_path(cache_dir: str, config: GeneratorConfig, seed: int) -> str:
    """Where a ``(config, seed)`` graph lives inside ``cache_dir``."""
    return os.path.join(cache_dir, f"topo-{graph_cache_key(config, seed)}.caida")


def save_graph(graph: ASGraph, path: str) -> None:
    """Atomically write ``graph`` as annotated CAIDA text."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for line in to_caida_lines(graph, annotate=True):
                handle.write(line + "\n")
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def load_graph(path: str) -> ASGraph:
    """Load a cached annotated-CAIDA graph (trusted, so no re-validation)."""
    with open(path, "r", encoding="utf-8") as handle:
        return from_caida_lines(handle, validate=False)


def load_or_build_graph(
    config: Optional[GeneratorConfig] = None,
    seed: int = 0,
    cache_dir: Optional[str] = None,
) -> ASGraph:
    """The main entry point: cached load when possible, else generate.

    With ``cache_dir=None`` this is just :func:`generate_internet`.  A
    generate on cache miss populates the cache for the next caller.
    """
    config = config or GeneratorConfig()
    if cache_dir is None:
        return generate_internet(config, seed)
    path = cache_path(cache_dir, config, seed)
    if os.path.exists(path):
        return load_graph(path)
    graph = generate_internet(config, seed)
    save_graph(graph, path)
    return graph
